"""Buchberger, normal forms, leading ideals, standard monomials."""

import random
from fractions import Fraction

import pytest

from gradedchi.errors import AlgebraError
from gradedchi.groebner import (
    MonomialIdeal,
    _reducer,
    _s_terms,
    _scaled_poly,
    buchberger,
    leading_ideal,
    minimalize_monomials,
    reduce_against,
    standard_monomials,
)
from gradedchi.rings import QQ, GradedRing, Poly, PolyRing, PrimeField, field_from_name, mono_lcm

from oracles import (
    monomials_of_degree,
    mul_s_polynomial,
    poly_to_dict,
    quotient_piece_dim,
    random_homogeneous_poly,
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
    assert list(gb) == [y * y - x * z]
    assert len(gb) == 1


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
    assert gb.generators == (r.one(),)
    gb2 = buchberger((x * x,))
    assert gb2.leading_monomials() == ((2,),)


def test_buchberger_empty_needs_ring():
    r = _ring3()
    gb = buchberger((), ring=r)
    assert len(gb) == 0
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
        assert list(buchberger(gens, R)) == list(buchberger(rels + gens, r))
    # once per direct run, and once for all three runs over the graded ring
    assert calls.count(rels[0]) == 3 + 1


def test_buchberger_mixed_rings_rejected():
    r1, r2 = _ring3(), PolyRing(("a", "b"))
    with pytest.raises(ValueError, match="different rings"):
        buchberger((r1.gen(0), r2.gen(0)))


def test_reduced_basis_is_monic_and_self_reduced():
    r = _ring3()
    x, y, z = r.gens()
    gb = buchberger((x * x - y * y, x * y + z * z, 3 * y * z))
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
        assert list(gb1) == list(gb2)
        # idempotence: a reduced basis is its own basis
        gb3 = buchberger(tuple(gb1))
        assert list(gb3) == list(gb1)


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
            for h in gb:
                lm = h.leading_monomial()
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
    mi = MonomialIdeal(minimalize_monomials([(2, 0), (0, 3), (2, 1)]))
    assert set(mi.generators) == {(0, 3), (2, 0)}
    assert mi.contains((5, 1))
    assert not mi.contains((1, 2))
    assert not mi.is_zero
    assert MonomialIdeal(()).is_zero
    assert set(minimalize_monomials([(1, 0), (1, 1), (0, 2)])) == {(0, 2), (1, 0)}


def test_leading_ideal_and_standard_monomials_conic():
    r = PolyRing(("x0", "x1", "x2"))
    x0, x1, x2 = r.gens()
    gb = buchberger((x0 * x2 - x1 * x1,))
    li = leading_ideal(gb)
    assert li.generators == ((0, 2, 0),) or li.generators == ((1, 0, 1),)
    # quotient dimension in degree 2: the oracle gives 5 of the 6 monomials
    sm = standard_monomials(gb, 2)
    assert len(sm) == 5
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
            assert len(standard_monomials(gb, j)) == quotient_piece_dim(
                weights, dicts, j
            )


def test_standard_monomials_zero_ideal_is_whole_piece():
    r = PolyRing(("x", "y"), (1, 2))
    gb = buchberger((), ring=r)
    for j in range(7):
        assert len(standard_monomials(gb, j)) == len(monomials_of_degree((1, 2), j))


def test_groebner_over_prime_field():
    r = PolyRing(("x", "y", "z"), field=field_from_name("fp:7"))
    x, y, z = r.gens()
    gb = buchberger((x * y - z * z, y * y - x * z))
    for g in gb:
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
    ours = {_monic_terms(g.sorted_terms(), field) for g in gb}
    assert ours == expected
    assert len(gb) == len(theirs.polys)
    return gb


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
        gb = _assert_matches_sympy(gens, r, sympy)
        for g in gb:
            assert g.terms[g.leading_monomial()] == 1
            _assert_field_coefficients(g)
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
