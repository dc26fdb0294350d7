"""Buchberger, normal forms, leading monomials, standard monomials."""

import random
from fractions import Fraction
from math import gcd

import pytest

from gradedchi.errors import AlgebraError
from gradedchi.groebner import (
    _StandardCount,
    _reducer,
    _s_terms,
    _scaled_poly,
    buchberger,
    minimalize_monomials,
    reduce_against,
)
from gradedchi.homology import GradedBasis
from gradedchi.rings import QQ, GradedRing, Poly, PolyRing, PrimeField, field_from_name, mono_lcm

from oracles import (
    complete_intersection_dims,
    eager_buchberger,
    enumerated_standard_monomials,
    monomials_of_degree,
    mul_s_polynomial,
    plain_buchberger,
    poly_to_dict,
    quotient_dims,
    quotient_piece_dim,
    random_homogeneous_poly,
    reduced_generators,
    scan_reduce_against,
)


def _ring3():
    return PolyRing(("x", "y", "z"))


def test_buchberger_single_polynomial_is_its_own_basis():
    r = _ring3()
    x, y, z = r.gens()
    f = x * z - y * y
    gb = buchberger((f,))
    # monic with grevlex leading term y^2 (y^2 > x*z in grevlex)
    assert reduced_generators(gb) == [y * y - x * z]
    assert len(gb.reducers) == 1


def test_buchberger_twisted_cubic():
    # 2x2 minors of [[x,y],[y,z]] extended: classic determinantal GB
    r = _ring3()
    x, y, z = r.gens()
    gens = (x * z - y * y,)
    gb = buchberger(gens)
    assert reduce_against(x * z, gb) == y * y or reduce_against(y * y, gb) == x * z


def test_buchberger_unit_ideal():
    r = PolyRing(("x",))
    (x,) = r.gens()
    gb = buchberger((x, x + r.one()))
    assert reduced_generators(gb) == [r.one()]
    gb2 = buchberger((x * x,))
    assert gb2.leading_monomials() == ((2,),)


def test_buchberger_empty_needs_ring():
    r = _ring3()
    gb = buchberger((), ring=r)
    assert gb.reducers == ()
    with pytest.raises(ValueError, match="ring is required"):
        buchberger(())


def test_buchberger_over_graded_ring_puts_relations_in_reducer_form_once(monkeypatch):
    import gradedchi.groebner as gr

    r = _ring3()
    x, y, z = r.gens()
    rels = (x * y - z * z, y**3 - x * z * z)
    R = GradedRing(r, rels)
    calls = []
    real = gr._reducer
    monkeypatch.setattr(gr, "_reducer", lambda p: calls.append(p) or real(p))
    for gens in ((x * x,), (y * z - x * x, r.zero()), ()):
        assert buchberger(gens, R).reducers == buchberger(rels + gens, r).reducers
    # once per direct run, and once for all three runs over the graded ring
    assert calls.count(rels[0]) == 3 + 1


def test_buchberger_mixed_rings_rejected():
    r1, r2 = _ring3(), PolyRing(("a", "b"))
    with pytest.raises(ValueError, match="different rings"):
        buchberger((r1.gen(0), r2.gen(0)))


def test_reduced_basis_is_monic_and_self_reduced():
    r = _ring3()
    x, y, z = r.gens()
    gb = reduced_generators(buchberger((x * x - y * y, x * y + z * z, 3 * y * z)))
    lts = [g.leading_monomial() for g in gb]
    for g in gb:
        assert g.terms[g.leading_monomial()] == r.field.one
        # no term of g is divisible by the leading term of another element
        for h in gb:
            if h is g:
                continue
            lm = h.leading_monomial()
            for m in g.terms:
                assert not all(a <= b for a, b in zip(lm, m))
    assert len(set(lts)) == len(lts)


def test_confluence_under_generator_shuffles():
    rng = random.Random(404)
    r = _ring3()
    for trial in range(40):
        gens = []
        for _ in range(rng.randrange(1, 4)):
            p = random_homogeneous_poly(rng, r, rng.randrange(1, 4))
            if p is not None:
                gens.append(p)
        if not gens:
            continue
        gb1 = buchberger(tuple(gens))
        shuffled = gens[:]
        rng.shuffle(shuffled)
        # also duplicate one generator and scale another
        shuffled.append(shuffled[0])
        shuffled[-1] = shuffled[-1] * r.constant(Fraction(3, 7))
        gb2 = buchberger(tuple(shuffled))
        assert reduced_generators(gb1) == reduced_generators(gb2)
        # idempotence: a reduced basis is its own basis
        gb3 = buchberger(tuple(reduced_generators(gb1)))
        assert reduced_generators(gb3) == reduced_generators(gb1)


def test_normal_form_is_linear_and_detects_membership():
    rng = random.Random(405)
    r = _ring3()
    x, y, z = r.gens()
    gb = buchberger((x * y - z * z, y * y - x * z))
    for _ in range(60):
        f = random_homogeneous_poly(rng, r, rng.randrange(1, 5)) or r.zero()
        g = random_homogeneous_poly(rng, r, rng.randrange(1, 5)) or r.zero()
        assert reduce_against(f + g, gb) == reduce_against(f, gb) + reduce_against(g, gb)
        # explicit ideal members reduce to zero
        member = f * (x * y - z * z) + g * (y * y - x * z)
        assert reduce_against(member, gb).is_zero
        # normal forms are fully reduced: no term divisible by a leading term
        nf = reduce_against(f, gb)
        for m in nf.terms:
            for lm in gb.leading_monomials():
                assert not all(a <= b for a, b in zip(lm, m))


def test_reduce_against_basis_from_another_ring():
    r1, r2 = _ring3(), PolyRing(("a",))
    gf7 = PolyRing(("x", "y"), field=PrimeField(7))
    qq = PolyRing(("x", "y"))
    # an empty basis still carries its ring
    for p, gb in ((r2.gen(0), buchberger((r1.gen(0),))), (qq.gen(0), buchberger((), ring=gf7))):
        with pytest.raises(ValueError, match="different rings"):
            reduce_against(p, gb)


def test_reduce_against_ring_mismatch():
    qq = PolyRing(("X", "Y"))
    gf7 = PolyRing(("X", "Y"), field=PrimeField(7))
    heavy = PolyRing(("X", "Y"), (1, 2))
    for p_ring, r_ring in ((qq, gf7), (gf7, qq), (qq, heavy), (heavy, qq)):
        X, Y = p_ring.gens()
        p = X * X + Y * Y if p_ring.weights == (1, 1) else X * X + Y
        rx, ry = r_ring.gens()
        reducer = rx - r_ring.constant(3) * ry if r_ring.weights == (1, 1) else rx * rx - ry
        with pytest.raises(ValueError, match="different rings"):
            reduce_against(p, [X * Y, reducer])


def _s_polynomial(f, g):
    """The S-polynomial of f and g, from the builder Buchberger uses."""
    rf, rg = _reducer(f), _reducer(g)
    return _scaled_poly(f.ring, *_s_terms(f.ring, rf, rg, mono_lcm(rf[0], rg[0])))


def test_s_polynomial_cancels_leading_terms():
    r = _ring3()
    x, y, z = r.gens()
    f, g = x * y - z * z, y * y - x * z
    s = _s_polynomial(f, g)
    lcm = (1, 2, 0)
    assert all(m != lcm for m in s.terms)


def test_monomial_ideal_operations():
    assert minimalize_monomials([(2, 0), (0, 3), (2, 1)]) == ((0, 3), (2, 0))
    assert minimalize_monomials([(1, 0), (1, 1), (0, 2), (1, 0)]) == ((0, 2), (1, 0))
    assert minimalize_monomials([(0, 0), (3, 1)]) == ((0, 0),)
    assert minimalize_monomials(()) == ()


def _assert_standard_monomials(gb, j):
    """GradedBasis.basis(j) is the enumerated standard monomials, in the
    same order; returns it."""
    basis = GradedBasis(gb).basis(j)
    assert basis == tuple(enumerated_standard_monomials(gb, j)), (gb.reducers, j)
    return basis


def test_leading_ideal_and_standard_monomials_conic():
    r = PolyRing(("x0", "x1", "x2"))
    x0, x1, x2 = r.gens()
    gb = buchberger((x0 * x2 - x1 * x1,))
    # grevlex: x1^2 > x0*x2
    assert gb.leading_monomials() == ((0, 2, 0),)
    # quotient dimension in degree 2: the oracle gives 5 of the 6 monomials
    assert len(_assert_standard_monomials(gb, 2)) == 5
    assert quotient_piece_dim((1, 1, 1), [poly_to_dict(x0 * x2 - x1 * x1)], 2) == 5


def test_standard_monomials_match_brute_force_ranks():
    # dimension agreement through degree 8 on randomized homogeneous ideals
    rng = random.Random(406)
    for trial in range(25):
        nv = rng.randrange(2, 4)
        weights = tuple(rng.choice([1, 1, 2]) for _ in range(nv))
        r = PolyRing(tuple(f"x{i}" for i in range(nv)), weights)
        gens = []
        for _ in range(rng.randrange(1, 4)):
            p = random_homogeneous_poly(rng, r, rng.randrange(1, 4))
            if p is not None:
                gens.append(p)
        if not gens:
            continue
        gb = buchberger(tuple(gens))
        dicts = [poly_to_dict(g) for g in gens]
        for j in range(9):
            assert len(_assert_standard_monomials(gb, j)) == quotient_piece_dim(weights, dicts, j)


def test_standard_monomials_zero_ideal_is_whole_piece():
    r = PolyRing(("x", "y"), (1, 2))
    gb = buchberger((), ring=r)
    for j in range(7):
        assert len(_assert_standard_monomials(gb, j)) == len(monomials_of_degree((1, 2), j))


def test_groebner_over_prime_field():
    r = PolyRing(("x", "y", "z"), field=field_from_name("fp:7"))
    x, y, z = r.gens()
    gb = buchberger((x * y - z * z, y * y - x * z))
    for g in reduced_generators(gb):
        assert g.terms[g.leading_monomial()] == 1
    # membership still detected
    assert reduce_against((x * y - z * z) * z + (y * y - x * z) * x, gb).is_zero


def test_reduce_against_single_reducer():
    r = PolyRing(("x", "y"))
    x, y = r.gens()
    # x^2*y -> x*y + x -> x + y under the single rewrite x*y -> y
    nf = reduce_against(x * x * y + x, (x * y - y,))
    assert nf == x + y


def _random_poly(rng, ring, maxdeg, nterms):
    """A random polynomial, not necessarily homogeneous, with small coefficients."""
    monos = [m for d in range(maxdeg + 1) for m in monomials_of_degree(ring.weights, d)]
    chosen = rng.sample(monos, min(nterms, len(monos)))
    return Poly(ring, {m: ring.field.coerce(rng.choice([-2, -1, 1, 2])) for m in chosen})


_RATIONALS = tuple(Fraction(c) for c in ("1/2", "-5/3", "7", "-9/4", "3/7", "-1", "2"))


def _random_rational_poly(rng, ring, maxdeg, nterms, negative_lead=False):
    """A random polynomial with coefficients from _RATIONALS, optionally
    with a negative leading coefficient (before coercion into the field)."""
    monos = [m for d in range(maxdeg + 1) for m in monomials_of_degree(ring.weights, d)]
    chosen = rng.sample(monos, min(nterms, len(monos)))
    coeffs = {m: rng.choice(_RATIONALS) for m in chosen}
    if negative_lead:
        coeffs[max(chosen, key=ring.key)] = rng.choice([c for c in _RATIONALS if c < 0])
    return Poly(ring, {m: ring.field.coerce(c) for m, c in coeffs.items()})


def _random_reduction_ring(rng):
    nv = rng.randrange(2, 4)
    return PolyRing(
        tuple(f"x{i}" for i in range(nv)),
        tuple(rng.choice([1, 2, 3]) for _ in range(nv)),
        field=rng.choice([QQ, PrimeField(32003)]),
    )


def _assert_field_coefficients(poly):
    p = poly.ring.field.p
    for c in poly.terms.values():
        if p:
            assert type(c) is int and 1 <= c < p
        else:
            assert type(c) is Fraction


def test_reduce_against_matches_max_scan_oracle():
    # arbitrary reducer lists, not Groebner bases: the heap must pop the same
    # leading monomial as a rescan at every step, so the remainder's terms
    # and their order agree exactly
    rng = random.Random(4071)
    reentries = 0
    for trial in range(300):
        r = _random_reduction_ring(rng)
        p = _random_poly(rng, r, 7, rng.randrange(1, 9))
        reducers = [
            _random_poly(rng, r, 4, rng.randrange(1, 4)) for _ in range(rng.randrange(1, 4))
        ]
        expected, n = scan_reduce_against(p, reducers)
        reentries += n
        nf = reduce_against(p, reducers)
        assert list(nf.terms.items()) == expected
        _assert_field_coefficients(nf)
    # the inputs include monomials that cancel out and later come back
    assert reentries > 0
    # non-integral rationals and negative reducer leads: over QQ the
    # fraction-free division rescales at nearly every step
    rng = random.Random(4073)
    for trial in range(300):
        r = _random_reduction_ring(rng)
        p = _random_rational_poly(rng, r, 7, rng.randrange(1, 9))
        reducers = [
            _random_rational_poly(rng, r, 4, rng.randrange(1, 4), negative_lead=True)
            for _ in range(rng.randrange(1, 4))
        ]
        expected, _ = scan_reduce_against(p, reducers)
        nf = reduce_against(p, reducers)
        assert list(nf.terms.items()) == expected
        _assert_field_coefficients(nf)
    # small characteristic: work entries leave [0, p) between pops, and
    # coefficients such as 2 vanish over GF(2)
    rng = random.Random(4076)
    for trial in range(300):
        nv = rng.randrange(2, 4)
        r = PolyRing(
            tuple(f"x{i}" for i in range(nv)),
            tuple(rng.choice([1, 2, 3]) for _ in range(nv)),
            field=PrimeField(rng.choice([2, 3, 5])),
        )
        p = _random_poly(rng, r, 7, rng.randrange(1, 9))
        reducers = [_random_poly(rng, r, 4, rng.randrange(1, 4)) for _ in range(rng.randrange(1, 4))]
        expected, _ = scan_reduce_against(p, reducers)
        nf = reduce_against(p, reducers)
        assert list(nf.terms.items()) == expected
        _assert_field_coefficients(nf)


def test_s_polynomial_matches_multiply_oracle():
    rng = random.Random(4074)
    for trial in range(200):
        r = _random_reduction_ring(rng)
        f = _random_rational_poly(rng, r, 5, rng.randrange(1, 7), negative_lead=rng.random() < 0.5)
        g = _random_rational_poly(rng, r, 5, rng.randrange(1, 7), negative_lead=rng.random() < 0.5)
        s = _s_polynomial(f, g)
        assert s.terms == mul_s_polynomial(f, g).terms
        _assert_field_coefficients(s)


_FIELDS = (QQ, PrimeField(2), PrimeField(7), PrimeField(32003))


def _dense_form(rng, ring, deg):
    """Every monomial of the degree, each with a random nonzero coefficient."""
    return Poly(
        ring,
        {
            m: ring.field.coerce(rng.choice([-3, -2, -1, 1, 2, 3]))
            for m in monomials_of_degree(ring.weights, deg)
        },
    )


def _random_forms(rng, ring, r, dense):
    """r homogeneous forms of degrees 1 to 3, dense or sparse; now and then
    the last one repeats the first, or is a multiple of it."""
    forms = []
    while len(forms) < r:
        deg = rng.randrange(1, 4)
        f = _dense_form(rng, ring, deg) if dense else random_homogeneous_poly(rng, ring, deg)
        if f is not None:
            forms.append(f)
    if r > 1 and rng.random() < 0.3:
        x, y = ring.gen(0), ring.gen(ring.nvars - 1)
        forms[-1] = forms[0] if rng.random() < 0.5 else forms[0] * (x + 2 * y)
    return forms


class _DivideCounter:
    """Wraps groebner._divide: counts the divisions and those whose
    remainder is zero."""

    def __init__(self, monkeypatch):
        import gradedchi.groebner as gr

        self.calls = self.zeros = 0
        real = gr._divide

        def counting(*args, **kwargs):
            out = real(*args, **kwargs)
            self.calls += 1
            self.zeros += not out[0]
            return out

        monkeypatch.setattr(gr, "_divide", counting)

    def run(self, fn, *args):
        calls, zeros = self.calls, self.zeros
        gb = fn(*args)
        return gb, self.calls - calls, self.zeros - zeros


def _assert_same_basis(gb, ref):
    assert gb.ring == ref.ring
    assert gb.reducers == ref.reducers


def test_hilbert_criterion_matches_plain_buchberger(monkeypatch):
    # the Hilbert criterion only drops pairs that reduce to zero, so the
    # working basis, and with it the minimal basis, is the oracle's; the
    # divisions it skips are exactly zero reductions
    counter = _DivideCounter(monkeypatch)
    rng = random.Random(4078)
    saved = {True: 0, False: 0}
    for trial in range(400):
        field = _FIELDS[trial % 4]
        nv = rng.randrange(2, 5)
        ring = PolyRing(tuple(f"x{i}" for i in range(nv)), field=field)
        dense = rng.random() < 0.5
        r = rng.randrange(1, nv + 3)
        forms = _random_forms(rng, ring, r, dense)
        if rng.random() < 0.5:
            k = rng.randrange(0, r + 1)
            args = (forms[k:], GradedRing(ring, forms[:k]))
        else:
            args = (forms, ring)
        gb, calls, zeros = counter.run(buchberger, *args)
        ref, ref_calls, ref_zeros = counter.run(plain_buchberger, *args)
        _assert_same_basis(gb, ref)
        assert calls - zeros == ref_calls - ref_zeros
        assert zeros <= ref_zeros
        if r <= nv:
            saved[dense] += ref_zeros - zeros
        else:
            assert zeros == ref_zeros
    # dense sequences of at most n forms skip zero reductions
    assert saved[True] > 0


def test_hilbert_criterion_off_path_is_plain_loop(monkeypatch):
    # weighted rings, more forms than variables and a degree-0 generator
    # take the plain loop: no count is built and every division is the oracle's
    import gradedchi.groebner as gr

    def no_count(*args):
        raise AssertionError("the Hilbert criterion does not apply here")

    counter = _DivideCounter(monkeypatch)
    monkeypatch.setattr(gr, "_StandardCount", no_count)
    weighted = PolyRing(("x", "y", "z"), (1, 1, 2))
    x, y, z = weighted.gens()
    planes = PolyRing(("x", "y", "z", "w"))
    a, b, c, d = planes.gens()
    two_planes = GradedRing(planes, (a * c, a * d, b * c, b * d))
    for field in _FIELDS:
        r3 = PolyRing(("x", "y", "z"), field=field)
        u, v, w = r3.gens()
        cases = [
            ((x * x - z, x * y + z, y**4 - z * z), weighted),
            ((a, b, d), two_planes),
            ((u * v - w * w, r3.constant(3), u * u), r3),
            ((u * v - w * w, u + r3.one()), r3),
        ]
        for gens, ring in cases:
            gb, calls, zeros = counter.run(buchberger, gens, ring)
            ref, ref_calls, ref_zeros = counter.run(plain_buchberger, gens, ring)
            _assert_same_basis(gb, ref)
            assert (calls, zeros) == (ref_calls, ref_zeros)
    assert reduced_generators(buchberger((u * v - w * w, r3.constant(3), u * u))) == [r3.one()]


def test_complete_intersection_bound_holds():
    # the theorem behind the Hilbert criterion, checked with the dense rank
    # oracle alone: r <= n forms, regular or not, leave at least the
    # complete intersection's dimensions, and x_i^{d_i} leave exactly those
    rng = random.Random(4079)
    strict = 0
    for trial in range(18):
        nv = rng.randrange(2, 5)
        ring = PolyRing(tuple(f"x{i}" for i in range(nv)))
        r = rng.randrange(1, nv + 1)
        forms = _random_forms(rng, ring, r, dense=rng.random() < 0.5)
        if trial % 3 == 0 and r > 1:
            # not regular: two forms share a factor
            forms[1] = forms[0] * ring.gen(rng.randrange(nv))
        degrees = [f.homogeneous_degree() for f in forms]
        bound = complete_intersection_dims(degrees, nv, 6)
        dims = quotient_dims((1,) * nv, [poly_to_dict(f) for f in forms], 6)
        assert all(a >= b for a, b in zip(dims, bound)), (forms, dims, bound)
        strict += dims != bound
        powers = [ring.gen(i) ** e for i, e in enumerate(degrees)]
        assert quotient_dims((1,) * nv, [poly_to_dict(f) for f in powers], 6) == bound
    # some sequences are not regular and stay strictly above the bound
    assert strict > 0


def test_standard_count_stops_on_sparse_high_degree_input(monkeypatch):
    # two binomials whose leads meet in degree 30: counting the standard
    # monomials up to there would enumerate some 300,000 of them for one
    # S-pair, so the count stops in degree 1, where they outnumber the
    # basis's four terms
    import gradedchi.groebner as gr

    counts = []

    class Recorded(gr._StandardCount):
        def __init__(self, *args):
            super().__init__(*args)
            counts.append(self)

    monkeypatch.setattr(gr, "_StandardCount", Recorded)
    r = PolyRing(("x", "y", "z", "w", "v"))
    x, y, z, w, v = r.gens()
    gens = (x**10 * y**10 - z**20, x**10 * w**10 - v**20)
    _assert_same_basis(buchberger(gens), plain_buchberger(gens))
    (count,) = counts
    assert count.standard is None and count.degree == 1


def test_leads_first_basis_matches_eager_basis():
    # the loop that stops each S-polynomial at its lead and returns the
    # minimal basis against the old one that reduced fully and tail-reduced:
    # same reduced generators, term for term, and same normal forms
    rng = random.Random(4081)
    unreduced = 0
    for trial in range(300):
        field = _FIELDS[trial % 4]
        nv = rng.randrange(2, 5)
        weights = tuple(rng.randrange(1, 4) for _ in range(nv)) if trial % 3 else (1,) * nv
        ring = PolyRing(tuple(f"x{i}" for i in range(nv)), weights, field=field)
        gens = [random_homogeneous_poly(rng, ring, rng.randrange(1, 5), 4) for _ in range(4)]
        gens = [g for g in gens[: rng.randrange(1, 5)] if g is not None]
        if not gens:
            continue
        if rng.random() < 0.3:
            k = rng.randrange(0, len(gens) + 1)
            args = (gens[k:], GradedRing(ring, gens[:k]))
        else:
            args = (gens, ring)
        gb, eager = buchberger(*args), eager_buchberger(*args)
        unreduced += gb.reducers != eager.reducers
        # reducer form: monic residues over GF(p), primitive over QQ, and
        # no zero term in a tail the division left unreduced
        for _, lc, tail in gb.reducers:
            cs = [c for _, c in tail]
            if field.p:
                assert lc == 1 and all(0 < c < field.p for c in cs)
            else:
                assert lc > 0 and all(cs) and gcd(lc, *cs) == 1
        assert gb.leading_monomials() == eager.leading_monomials()
        assert [_reducer(g) for g in reduced_generators(gb)] == list(eager.reducers)
        for _ in range(3):
            f = random_homogeneous_poly(rng, ring, rng.randrange(1, 7), max_terms=5)
            if f is not None:
                ours, ref = reduce_against(f, gb), reduce_against(f, eager)
                assert list(ours.terms.items()) == list(ref.terms.items())
    # many minimal bases keep tails the eager loop reduced
    assert unreduced > 50


def test_standard_count_below_bound_raises():
    # a count below the bound contradicts the theorem; here the degrees
    # handed to the count are not the forms' degrees
    count = _StandardCount(2, (2, 2))
    with pytest.raises(AlgebraError, match="below the complete-intersection bound"):
        count.met(1, [((1, 0), 1, ())])


def _to_sympy(g, syms, sympy):
    expr = 0
    for m, c in g.terms.items():
        c = sympy.Rational(c.numerator, c.denominator) if isinstance(c, Fraction) else c
        term = c
        for s_, e in zip(syms, m):
            term *= s_**e
        expr += term
    return expr


def _monic_terms(items, field):
    """The monic form of a polynomial given as (monomial, coefficient) items,
    as a sorted term tuple, leading monomial taken from the first item: plain
    residues over GF(p), Fractions over QQ."""
    p, lead = field.p, items[0][1]
    if p:
        inv = pow(lead, -1, p)
        return tuple(sorted((m, c * inv % p) for m, c in items))
    return tuple(sorted((m, Fraction(c) / lead) for m, c in items))


def _assert_matches_sympy(gens, r, sympy):
    gb = buchberger(gens, ring=r)
    field = r.field
    syms = sympy.symbols(r.names)
    # the rings here have unit weights, where weighted grevlex is sympy's grevlex
    opts = {"order": "grevlex"}
    if field.p:
        opts["modulus"] = field.p
    theirs = sympy.groebner([_to_sympy(g, syms, sympy) for g in gens], *syms, **opts)
    expected = set()
    for g in theirs.polys:
        # terms() sorts by the order it is given, descending; over QQ the
        # coefficients are primitive integers, over GF(p) symmetric residues
        items = [
            (m, field.coerce(Fraction(int(c.p), int(c.q)) if field.p == 0 else int(c)))
            for m, c in g.terms(order="grevlex")
        ]
        expected.add(_monic_terms(items, field))
    reduced = reduced_generators(gb)
    ours = {_monic_terms(g.sorted_terms(), field) for g in reduced}
    assert ours == expected
    assert len(reduced) == len(theirs.polys)
    return reduced


def test_buchberger_matches_sympy_groebner():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(4072)
    for trial in range(60):
        nv = rng.randrange(2, 5)
        field = rng.choice([QQ, PrimeField(32003)])
        r = PolyRing(tuple(f"x{i}" for i in range(nv)), field=field)
        gens = [
            random_homogeneous_poly(rng, r, rng.randrange(1, 4)) for _ in range(rng.randrange(1, 4))
        ]
        _assert_matches_sympy(gens, r, sympy)
    # dense forms with non-integral coefficients and leads other than +-1:
    # the working basis is integer, so pseudo-division rescales at most steps;
    # the returned basis is still monic with Fraction coefficients over QQ
    rng = random.Random(4075)
    for trial in range(30):
        nv = rng.randrange(2, 4)
        field = rng.choice([QQ, QQ, PrimeField(32003)])
        r = PolyRing(tuple(f"x{i}" for i in range(nv)), field=field)
        gens = []
        for _ in range(rng.randrange(2, 4)):
            monos = monomials_of_degree(r.weights, rng.randrange(1, 4))
            coeffs = {m: rng.choice(_RATIONALS) for m in monos}
            coeffs[max(monos, key=r.key)] = rng.choice([c for c in _RATIONALS if abs(c) != 1])
            gens.append(Poly(r, {m: field.coerce(c) for m, c in coeffs.items()}))
        for g in _assert_matches_sympy(gens, r, sympy):
            assert g.terms[g.leading_monomial()] == 1
            _assert_field_coefficients(g)
    # dense sequences of at most n forms, where the Hilbert criterion
    # drops pairs
    rng = random.Random(4080)
    for trial in range(20):
        nv = rng.randrange(2, 5)
        field = rng.choice([QQ, PrimeField(32003)])
        r = PolyRing(tuple(f"x{i}" for i in range(nv)), field=field)
        gens = [_dense_form(rng, r, rng.randrange(1, 4)) for _ in range(rng.randrange(2, nv + 1))]
        _assert_matches_sympy(gens, r, sympy)
    # small characteristic
    rng = random.Random(4077)
    for trial in range(60):
        nv = rng.randrange(2, 5)
        field = PrimeField(rng.choice([2, 3, 5]))
        r = PolyRing(tuple(f"x{i}" for i in range(nv)), field=field)
        gens = [
            random_homogeneous_poly(rng, r, rng.randrange(1, 4)) for _ in range(rng.randrange(1, 4))
        ]
        gens = [g for g in gens if g is not None]
        if gens:
            _assert_matches_sympy(gens, r, sympy)
