"""Fields, the monomial order, sparse polynomials, graded quotient rings."""

import random
from fractions import Fraction

import pytest

from gradedchi.errors import AlgebraError, HomogeneityError
from gradedchi.hilbert import hilbert_series
from gradedchi.rings import (
    QQ,
    GradedRing,
    Poly,
    PolyRing,
    PrimeField,
    _MR_BOUND,
    _is_prime,
    field_from_name,
    ideal_key,
    mono_divides,
    mono_div,
    mono_lcm,
    mono_mul,
    wdeg,
)

from oracles import monomials_of_degree, trial_division_is_prime


def test_mono_ops():
    a, b = (2, 1, 0), (0, 1, 3)
    assert mono_mul(a, b) == (2, 2, 3)
    assert mono_lcm(a, b) == (2, 1, 3)
    assert not mono_divides(a, b)
    assert mono_divides((0, 1, 0), a)
    assert mono_div(a, (1, 1, 0)) == (1, 0, 0)
    assert wdeg((2, 1, 0), (1, 2, 3)) == 4


def test_fields():
    assert field_from_name("qq") is QQ
    f7 = field_from_name("fp:7")
    assert isinstance(f7, PrimeField) and f7.p == 7
    assert f7.coerce(Fraction(1, 2)) == 4  # 2 * 4 = 8 = 1 mod 7
    for a in range(1, 7):
        assert (f7.inv(a) * a) % 7 == 1
    with pytest.raises(ValueError):
        field_from_name("fp:6")
    with pytest.raises(ValueError):
        field_from_name("zz")
    assert repr(QQ) == "QQ" and repr(f7) == "GF(7)"


def test_is_prime_matches_trial_division():
    assert all(_is_prime(n) == trial_division_is_prime(n) for n in range(10**5))


def test_large_prime_fields():
    # a strong pseudoprime to the bases 2, 3, 5 and 7
    assert 3215031751 == 151 * 751 * 28351
    with pytest.raises(ValueError, match="not a prime"):
        PrimeField(3215031751)
    assert PrimeField(10**20 + 39).p == 10**20 + 39
    assert field_from_name("fp:2305843009213693951").inv(2) == 2**60
    with pytest.raises(ValueError, match=f"only below {_MR_BOUND}$"):
        PrimeField(_MR_BOUND)


def test_monomial_orders_are_degree_compatible():
    rng = random.Random(5)
    ring = PolyRing(("x", "y", "z"), (1, 2, 1))
    for _ in range(300):
        a = tuple(rng.randrange(0, 4) for _ in range(3))
        b = tuple(rng.randrange(0, 4) for _ in range(3))
        da, db = wdeg(a, (1, 2, 1)), wdeg(b, (1, 2, 1))
        if da < db:
            assert ring.key(a) < ring.key(b)
        if a == b:
            assert ring.key(a) == ring.key(b)
        if mono_divides(a, b) and a != b:
            assert ring.key(a) < ring.key(b)
    # grevlex, not deglex, at equal degree: x*z^2 < y^3 here, and the last
    # variable breaks ties, the smaller power of it winning
    ring = PolyRing(("x", "y", "z"))
    assert ring.key((1, 0, 2)) < ring.key((0, 3, 0))
    assert ring.key((0, 1, 1)) < ring.key((1, 1, 0))


def test_poly_construction_and_str():
    r = PolyRing(("x", "y", "z"))
    x, y, z = r.gens()
    p = x * x * y - r.constant(3) * z + r.constant(Fraction(1, 2)) * y
    assert str(p) == "x^2*y + 1/2*y - 3*z"
    assert str(r.zero()) == "0"
    assert str(-x) == "-x"
    assert str(r.one()) == "1"
    assert p.coeff((2, 1, 0)) == 1
    assert p.coeff((9, 9, 9)) == 0


def test_poly_ring_laws_randomized():
    rng = random.Random(99)
    r = PolyRing(("x", "y"), (1, 2))

    def rand_poly():
        terms = {}
        for _ in range(rng.randrange(0, 4)):
            m = (rng.randrange(0, 3), rng.randrange(0, 3))
            terms[m] = Fraction(rng.randrange(-4, 5))
        return Poly(r, terms)

    for _ in range(300):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a - a == r.zero()
        assert a * r.one() == a
        assert a * r.zero() == r.zero()


def test_poly_leading_data():
    r = PolyRing(("x", "y", "z"))
    x, y, z = r.gens()
    p = x * y + z * z * z
    assert p.leading_monomial() == (0, 0, 3)  # degree wins
    q = x * y + y * z
    # grevlex at equal degree: smaller reversed-exponent tail wins
    assert q.leading_monomial() == (1, 1, 0)
    zero = r.zero()
    for _ in range(2):  # a failed lookup caches nothing
        with pytest.raises(AlgebraError, match="zero polynomial has no leading term"):
            zero.leading_monomial()
    # the lead is found once and kept: it must stay the rescanned maximum
    rng = random.Random(110)
    for trial in range(100):
        weights = tuple(rng.choice([1, 2, 3]) for _ in range(3))
        field = rng.choice([QQ, PrimeField(32003)])
        ring = PolyRing(("x", "y", "z"), weights, field=field)
        monos = [m for d in range(1, 7) for m in monomials_of_degree(weights, d)]
        chosen = rng.sample(monos, rng.randrange(1, 6))
        p = Poly(ring, {m: field.coerce(rng.randrange(1, 50)) for m in chosen})
        expected = max(p.terms, key=ring.key)
        for _ in range(2):
            assert p.leading_monomial() == expected


def test_homogeneity():
    r = PolyRing(("x", "y"), (1, 2))
    x, y = r.gens()
    assert (x * x + y).is_homogeneous()
    assert (x * x + y).homogeneous_degree() == 2
    assert not (x + y).is_homogeneous()
    assert (x + y).homogeneous_degree() is None
    assert r.zero().is_homogeneous()
    assert r.constant(5).homogeneous_degree() == 0


def test_poly_pow():
    r = PolyRing(("x", "y"))
    x, y = r.gens()
    assert (x + y) ** 0 == r.one()
    assert (x + y) ** 2 == x * x + r.constant(2) * x * y + y * y
    assert (x - y) ** 3 == x**3 - 3 * x**2 * y + 3 * x * y**2 - y**3


def test_prime_field_polys():
    r = PolyRing(("x", "y"), field=field_from_name("fp:5"))
    x, y = r.gens()
    assert (x + y) ** 5 == x**5 + y**5  # freshman's dream mod 5
    assert r.constant(5) == r.zero()
    # the constructor reduces raw ints mod p and drops zeros
    for p in (2, 7):
        r = PolyRing(("x", "y"), field=PrimeField(p))
        x, y = r.gens()
        m = (1, 0)
        zero = Poly(r, {m: p})
        assert zero.is_zero and zero == r.zero() and zero == 0
        a, b = Poly(r, {m: -1}), Poly(r, {m: p - 1})
        assert a == b and hash(a) == hash(b) and ideal_key((a,)) == ideal_key((b,))
        R = GradedRing(r)
        assert R.groebner((a,)) is R.groebner((b,))
        assert hilbert_series(R, (zero,)) == hilbert_series(R)
        assert hilbert_series(R, (zero, a)) == hilbert_series(R, (x,))
        assert (x + x == 0) == (p == 2) and x + x == Poly(r, {m: 2})
        # raw ints, negative ones and multiples of p among them, give the
        # value of their residues, stored in [1, p), through every operation
        rng = random.Random(p)

        def pair():
            terms = {(rng.randrange(3), rng.randrange(3)): rng.randrange(-3 * p, 3 * p) for _ in range(4)}
            return Poly(r, terms), Poly(r, {k: c % p for k, c in terms.items()})

        for _ in range(100):
            (f, f0), (g, g0) = pair(), pair()
            for h, h0 in ((f, f0), (f + g, f0 + g0), (f - g, f0 - g0), (-f, -f0), (f * g, f0 * g0)):
                assert h == h0 and h.terms == h0.terms
                assert all(isinstance(c, int) and 0 < c < p for c in h.terms.values())


def test_prime_field_poly_coerces_fractions():
    # the constructor takes a Fraction to its residue as the field's coerce
    # does, so a term built either way is one polynomial
    r = PolyRing(("x", "y"), field=PrimeField(7))
    m = (1, 0)
    half = Poly(r, {m: Fraction(1, 2)})
    assert half.terms == {m: 4} and type(half.terms[m]) is int
    assert half == Poly(r, {m: 4}) == r.monomial(m, Fraction(1, 2))
    assert hash(half) == hash(Poly(r, {m: 4}))
    assert Poly(r, {m: Fraction(7, 3), (0, 1): Fraction(-3, 5)}) == Poly(r, {(0, 1): 5})
    with pytest.raises(ZeroDivisionError):
        Poly(r, {m: Fraction(1, 7)})
    with pytest.raises(TypeError, match="cannot coerce"):
        Poly(r, {m: 0.5})


def test_graded_ring_validation():
    r = PolyRing(("x", "y", "z"))
    x, y, z = r.gens()
    R = GradedRing(r, [x**3 + y**3 + z**3])
    assert R.relations == (x**3 + y**3 + z**3,)
    assert R.weights == (1, 1, 1) and R.nvars == 3
    with pytest.raises(HomogeneityError):
        GradedRing(r, [x + y * y])
    with pytest.raises(AlgebraError):
        GradedRing(r, [r.constant(1)])


def test_graded_ring_groebner_cache():
    r = PolyRing(("x", "y"))
    x, y = r.gens()
    R = GradedRing(r, [x * y])
    gb1 = R.groebner((x**2,))
    gb2 = R.groebner((x**2,))
    assert gb1 is gb2  # cached by generator keys
    assert R.groebner() is R.groebner(())


def test_canonical_keys_are_stable():
    r = PolyRing(("x", "y"))
    x, y = r.gens()
    p = x * y - y * y + x * y  # built in a scrambled way
    q = -(y**2) + 2 * x * y
    assert p == q and p.canonical_key() == q.canonical_key()
    # over QQ, int and Fraction terms of one value are one polynomial
    a = Poly(r, {(1, 0): 2, (0, 1): -1})
    b = Poly(r, {(1, 0): Fraction(2), (0, 1): Fraction(-1), (1, 1): Fraction(0)})
    assert a == b and hash(a) == hash(b) and ideal_key((a,)) == ideal_key((b,))
    R = GradedRing(r)
    assert R.groebner((a,)) is R.groebner((b,))
    assert a + a == 2 * b and a * a == b * b and -a == -b
    assert a * Fraction(1, 2) == Poly(r, {(1, 0): 1, (0, 1): Fraction(-1, 2)})


def test_weighted_degrees_match_enumeration():
    weights = (1, 2, 3)
    r = PolyRing(("x", "y", "z"), weights)
    for j in range(9):
        for m in monomials_of_degree(weights, j):
            assert r.wdeg(m) == j
    counts = [len(monomials_of_degree(weights, j)) for j in range(7)]
    assert counts == [1, 1, 2, 3, 4, 5, 7]
