"""Univariate integer polynomials, rational functions, series expansion."""

import random
from fractions import Fraction

import pytest

import gradedchi.arith
from gradedchi.arith import (
    INFINITY,
    ONE,
    ZERO,
    AlgebraError,
    Infinity,
    IntPoly,
    RatFun,
    eval_at_one,
    format_t_poly,
    one_minus_t_valuation,
    poly_exact_div,
    poly_gcd,
    ratfun_normalize,
    series_expand,
)
from oracles import fraction_poly_exact_div, fraction_poly_gcd, prefix_sum_valuation


def test_intpoly_normalizes_trailing_zeros():
    assert IntPoly((1, 0, 0)).coeffs == (1,)
    assert IntPoly(()).is_zero
    assert IntPoly((0,)).is_zero
    assert IntPoly((0, 1)).degree == 1
    assert IntPoly(()).degree == -1


def test_intpoly_arithmetic_golden():
    p = IntPoly((1, -1))  # 1 - t
    q = IntPoly((1, 1))  # 1 + t
    assert (p * q).coeffs == (1, 0, -1)
    assert (p + q).coeffs == (2,)
    assert (p - q).coeffs == (0, -2)
    assert (p**2).coeffs == (1, -2, 1)
    assert p(1) == 0 and q(2) == 3
    assert IntPoly.t_power(3).coeffs == (0, 0, 0, 1)
    assert IntPoly.t_power(2, -5).coeffs == (0, 0, -5)


def test_intpoly_ring_laws_randomized():
    rng = random.Random(7042)
    for _ in range(200):
        a = IntPoly([rng.randrange(-5, 6) for _ in range(rng.randrange(0, 5))])
        b = IntPoly([rng.randrange(-5, 6) for _ in range(rng.randrange(0, 5))])
        c = IntPoly([rng.randrange(-5, 6) for _ in range(rng.randrange(0, 5))])
        assert a * b == b * a
        assert a + b == b + a
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        x = rng.randrange(-3, 4)
        assert (a * b)(x) == a(x) * b(x)
        assert (a + b)(x) == a(x) + b(x)


def test_format_t_poly_golden():
    assert format_t_poly(IntPoly((1, -2, 1))) == "1 - 2*t + t^2"
    assert format_t_poly(IntPoly(())) == "0"
    assert format_t_poly(IntPoly((0, 3))) == "3*t"
    assert format_t_poly(IntPoly((-1,))) == "-1"
    assert format_t_poly(IntPoly((0, 0, -1))) == "-t^2"
    assert format_t_poly(IntPoly((0, 1))) == "t"
    assert format_t_poly(IntPoly((2,)), var="T") == "2"


def test_one_minus_t_valuation():
    # (1 - t)^2 (1 + t) = 1 - t - t^2 + t^3
    k, q = one_minus_t_valuation(IntPoly((1, -1, -1, 1)))
    assert k == 2 and q == IntPoly((1, 1))
    k, q = one_minus_t_valuation(IntPoly((5,)))
    assert k == 0 and q == IntPoly((5,))
    with pytest.raises(AlgebraError, match="zero polynomial has no valuation"):
        one_minus_t_valuation(ZERO)


def test_valuation_reconstructs_randomized():
    rng = random.Random(11)
    one_minus_t = IntPoly((1, -1))
    for _ in range(200):
        k = rng.randrange(0, 4)
        q = IntPoly([rng.randrange(-4, 5) for _ in range(rng.randrange(1, 5))])
        if q.is_zero or q(1) == 0:
            continue
        p = q * one_minus_t**k
        kk, qq = one_minus_t_valuation(p)
        assert kk == k and qq == q


def test_poly_gcd_and_exact_div():
    num = IntPoly((1, 0, -1))  # 1 - t^2
    den = IntPoly((1, -1))  # 1 - t
    assert poly_exact_div(num, den) == IntPoly((1, 1))
    g = poly_gcd(num, den)
    assert poly_exact_div(num, g) is not None
    with pytest.raises(AlgebraError, match="inexact polynomial division"):
        poly_exact_div(IntPoly((1, 1)), IntPoly((1, -1)))


def _outcome(fn, *args):
    """fn's result with IntPolys as coefficient tuples, or the type and
    message of what it raised."""
    try:
        r = fn(*args)
    except (AlgebraError, ZeroDivisionError) as e:
        return type(e), str(e)
    return r.coeffs if isinstance(r, IntPoly) else r


def test_z_t_core_matches_fraction_oracles_randomized():
    # gcd, exact division and the (1 - t)-valuation against the Fraction
    # routines they replaced: same results, same exception type and message
    rng = random.Random(9137)
    one_minus_t = IntPoly((1, -1))
    seen = dict.fromkeys(("zero", "negative lead", "shared", "exact", "inexact", "non-integral"), 0)

    def rand_poly(maxlen):
        return IntPoly([rng.randrange(-6, 7) for _ in range(rng.randrange(0, maxlen + 1))])

    def lib_valuation(p):
        k, q = one_minus_t_valuation(p)
        return k, q.coeffs

    for _ in range(1500):
        shared = rand_poly(3) * rng.choice((1, 1, 2, -3, 6)) * one_minus_t ** rng.randrange(0, 3)
        a, b = rand_poly(4), rand_poly(4)
        if rng.random() < 0.5:
            a, b = a * shared, b * shared
            seen["shared"] += shared.degree > 0 or abs(shared.content()) > 1
        seen["zero"] += a.is_zero or b.is_zero
        seen["negative lead"] += (a.degree >= 0 and a.coeffs[-1] < 0) + (b.degree >= 0 and b.coeffs[-1] < 0)
        k = rng.choice((2, 3, -2))
        cases = [
            (a, b),  # mostly inexact
            (a * b, b),  # exact
            (a * b, b * k),  # non-integral unless k divides a's content
        ]
        for i, (x, y) in enumerate(cases):
            want = _outcome(fraction_poly_exact_div, x.coeffs, y.coeffs)
            assert _outcome(poly_exact_div, x, y) == want, (x, y)
            if want[:1] == (AlgebraError,):
                seen["non-integral" if i == 2 else "inexact"] += 1
            elif i == 1 and not x.is_zero:
                seen["exact"] += 1
        for x, y in ((a, b), (b, a), (a * b, a)):
            assert _outcome(poly_gcd, x, y) == fraction_poly_gcd(x.coeffs, y.coeffs), (x, y)
        for x in (a, a * one_minus_t ** rng.randrange(1, 4)):
            assert _outcome(lib_valuation, x) == _outcome(prefix_sum_valuation, x.coeffs), x
        n = max(len(a.coeffs), len(b.coeffs))
        assert (a - b) == IntPoly([a.coeff(i) - b.coeff(i) for i in range(n)])
        assert a - k == IntPoly([a.coeff(0) - k, *a.coeffs[1:]])
    assert all(seen.values()), seen


def test_z_t_core_makes_no_fraction(monkeypatch):
    def no_fraction(*args):
        raise AssertionError("a Fraction was made")

    monkeypatch.setattr(gradedchi.arith, "Fraction", no_fraction)
    u = IntPoly((2, -1, 3))
    a = IntPoly((1, -1)) ** 3 * u * 4
    b = IntPoly((1, -1)) * u * IntPoly((-5, 0, 7)) * 6
    assert poly_gcd(a, b) == IntPoly((-1, 1)) * u * 2
    assert poly_gcd(ZERO, b) == -b
    assert poly_exact_div(a, u) == IntPoly((1, -1)) ** 3 * 4
    with pytest.raises(AlgebraError, match="inexact polynomial division"):
        poly_exact_div(a, u * 8)  # integral over QQ only
    with pytest.raises(AlgebraError, match="inexact polynomial division"):
        poly_exact_div(a, IntPoly((1, 1)))
    assert one_minus_t_valuation(a) == (3, u * 4)
    r = ratfun_normalize(a, b)
    assert r.num == IntPoly((1, -1)) ** 2 * -2 and r.den == IntPoly((-5, 0, 7)) * -3


def test_ratfun_normalize_invariants():
    r = ratfun_normalize(IntPoly((1, 0, -1)), IntPoly((1, -2, 1)))
    # (1-t)(1+t) / (1-t)^2 = (1+t)/(1-t)
    assert r.num == IntPoly((1, 1)) and r.den == IntPoly((1, -1))
    # sign: constant term of den made positive
    r = ratfun_normalize(IntPoly((1,)), IntPoly((-1, -1)))
    assert r.den.coeff(0) > 0 and r.num == IntPoly((-1,))
    assert ratfun_normalize(ZERO, IntPoly((5,))) == RatFun(ZERO, ONE)
    with pytest.raises(AlgebraError, match="denominator is the zero polynomial"):
        ratfun_normalize(ONE, ZERO)
    with pytest.raises(AlgebraError, match="pole at t = 0"):
        ratfun_normalize(ONE, IntPoly((0, 1)))


def test_ratfun_str_golden():
    assert str(ratfun_normalize(ONE, IntPoly((1, 1, 1)))) == "1 / (1 + t + t^2)"
    assert str(ratfun_normalize(ONE, ONE)) == "1"
    assert str(ratfun_normalize(IntPoly((1, -1)), ONE)) == "1 - t"
    assert str(ratfun_normalize(IntPoly((1, -1)), IntPoly((1, 1)))) == "(1 - t) / (1 + t)"
    assert str(ratfun_normalize(IntPoly((0, 2)), IntPoly((3,)))) == "2*t / 3"


def test_ratfun_field_laws_randomized():
    rng = random.Random(23)

    def rand_ratfun():
        while True:
            num = IntPoly([rng.randrange(-4, 5) for _ in range(rng.randrange(1, 4))])
            den = IntPoly([rng.randrange(-4, 5) for _ in range(rng.randrange(1, 4))])
            if not den.is_zero and den.coeff(0) != 0:
                return ratfun_normalize(num, den)

    for _ in range(150):
        a, b, c = rand_ratfun(), rand_ratfun(), rand_ratfun()
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert a - a == ratfun_normalize(ZERO, ONE)
        if b.num.coeff(0) != 0:  # 1/b must stay regular at t = 0
            assert (a / b) * b == a


def test_series_expand_golden():
    r = ratfun_normalize(ONE, IntPoly((1, 1, 1)))
    assert series_expand(r, 7) == [1, -1, 0, 1, -1, 0, 1, -1]
    r = ratfun_normalize(ONE, IntPoly((1, 2, -1)))
    assert series_expand(r, 6) == [1, -2, 5, -12, 29, -70, 169]
    r = ratfun_normalize(ONE, IntPoly((1, 0, -1)))
    assert series_expand(r, 4) == [1, 0, 1, 0, 1]
    assert series_expand(r, -1) == []


def test_series_expand_multiplies_back_randomized():
    # sum_j den_j * c_{k-j} == num_k for every k through the window
    rng = random.Random(31)
    for _ in range(1000):
        num = IntPoly([rng.randrange(-5, 6) for _ in range(rng.randrange(1, 5))])
        den = IntPoly([rng.randrange(-5, 6) for _ in range(rng.randrange(1, 5))])
        if den.is_zero or den.coeff(0) == 0:
            continue
        r = ratfun_normalize(num, den)
        n = 12
        cs = series_expand(r, n)
        for k in range(n + 1):
            s = Fraction(0)
            for j in range(min(k, r.den.degree) + 1):
                s += r.den.coeff(j) * cs[k - j]
            assert s == r.num.coeff(k)


def test_eval_at_one():
    assert eval_at_one(ratfun_normalize(ONE, IntPoly((1, -1)))) == INFINITY
    assert eval_at_one(ratfun_normalize(ONE, IntPoly((1, 3)))) == Fraction(1, 4)
    assert eval_at_one(ratfun_normalize(IntPoly((1, -1)), IntPoly((1, 1)))) == 0
    assert eval_at_one(ratfun_normalize(ZERO, ONE)) == 0
    # common (1-t) factors cancel before deciding
    r = RatFun(IntPoly((1, -1)), IntPoly((1, -1)))  # built raw on purpose
    assert eval_at_one(r) == 1


def test_infinity_marker():
    assert INFINITY == Infinity()
    assert INFINITY != Fraction(1)
    assert repr(INFINITY) == "infinity"
    assert hash(INFINITY) == hash(Infinity())


# A few laws stated once over a searched space rather than a seeded loop.

from hypothesis import given, settings
from hypothesis import strategies as st

intpolys = st.lists(st.integers(-9, 9), max_size=6).map(lambda cs: IntPoly(tuple(cs)))


@settings(max_examples=200, deadline=None)
@given(intpolys, intpolys, intpolys)
def test_intpoly_ring_laws_searched(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a and a * b == b * a


@settings(max_examples=200, deadline=None)
@given(intpolys, intpolys.filter(lambda p: p.coeff(0) != 0))
def test_ratfun_normalize_reduces_to_lowest_terms_searched(num, den):
    r = ratfun_normalize(num, den)
    assert r.num * den == num * r.den  # same rational function
    assert poly_gcd(r.num, r.den).degree <= 0  # nothing left to cancel
    assert r.den.coeff(0) > 0  # canonical sign: expandable at t = 0
