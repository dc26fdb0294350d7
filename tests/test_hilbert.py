"""Hilbert numerators, series, dimension and multiplicity."""

import random
from fractions import Fraction

import pytest

from gradedchi.arith import IntPoly
from gradedchi.errors import AlgebraError, HomogeneityError
from gradedchi.groebner import buchberger
from gradedchi.hilbert import (
    dim_and_mult,
    hilbert_numerator,
    hilbert_series,
    weights_denominator,
)
from gradedchi.rings import GradedRing, Poly, PolyRing

from oracles import (
    poly_to_dict,
    quotient_dims,
    random_homogeneous_poly,
    random_monomial,
    series_product_check,
)


def test_weights_denominator():
    assert weights_denominator((1, 1, 1)) == IntPoly((1, -1)) ** 3
    assert weights_denominator((1, 2)) == IntPoly((1, -1)) * IntPoly((1, 0, -1))
    assert weights_denominator(()) == IntPoly((1,))


def test_numerator_base_cases():
    # empty ideal
    assert hilbert_numerator((), (1, 1)) == IntPoly((1,))
    # unit ideal
    assert hilbert_numerator(((0, 0),), (1, 1)).is_zero
    # coprime monomials multiply: (x^2, y^3) over weights (1,1)
    n = hilbert_numerator(((2, 0), (0, 3)), (1, 1))
    assert n == IntPoly((1, 0, -1)) * IntPoly((1, 0, 0, -1))


def test_numerator_golden_square_of_max_ideal():
    # (x^2, x*y, y^2): numerator 1 - 3t^2 + 2t^3
    n = hilbert_numerator(((2, 0), (1, 1), (0, 2)), (1, 1))
    assert n == IntPoly((1, 0, -3, 2))


def test_numerator_minimalizes_any_iterable():
    # repeated and non-minimal generators, in no order, from a one-pass iterator
    monos = [(2, 1), (0, 2), (1, 1), (2, 0), (0, 2), (3, 3)]
    assert hilbert_numerator(iter(monos), (1, 1)) == IntPoly((1, 0, -3, 2))


def test_numerator_matches_oracle_dimensions_randomized():
    rng = random.Random(808)
    for trial in range(60):
        nv = rng.randrange(1, 4)
        weights = tuple(rng.choice([1, 1, 1, 2, 3]) for _ in range(nv))
        ring = PolyRing(tuple(f"x{i}" for i in range(nv)), weights)
        monos = [random_monomial(rng, ring, 5) for _ in range(rng.randrange(0, 5))]
        gens = tuple(m.leading_monomial() for m in monos)
        num = hilbert_numerator(gens, weights)
        dims = quotient_dims(weights, [poly_to_dict(m) for m in monos], 10)
        assert series_product_check(list(num.coeffs), weights, dims)


def test_hilbert_series_conic_degree_two_piece():
    r = PolyRing(("x0", "x1", "x2"))
    x0, x1, x2 = r.gens()
    R = GradedRing(r, [x0 * x2 - x1 * x1])
    hs = hilbert_series(R)
    assert hs.series(4) == [1, 3, 5, 7, 9]
    dm = dim_and_mult(hs)
    assert dm.dim == 2 and dm.mult == 2


def test_hilbert_series_cuspidal_values():
    r = PolyRing(("x", "y", "z"))
    x, y, z = r.gens()
    R = GradedRing(r, [y * y * z - x**3])
    dm = dim_and_mult(hilbert_series(R, (x, y)))
    assert (dm.dim, dm.mult) == (1, 1)
    dm2 = dim_and_mult(hilbert_series(R, (x * x, x * y, y * y)))
    assert (dm2.dim, dm2.mult) == (1, 3)


def test_hilbert_series_regular_element_drops_factor():
    # for a domain S and any nonzero homogeneous f of degree d:
    # numerator of S/(f) is exactly 1 - t^d
    rng = random.Random(809)
    for _ in range(30):
        nv = rng.randrange(1, 4)
        weights = tuple(rng.choice([1, 1, 2]) for _ in range(nv))
        ring = PolyRing(tuple(f"x{i}" for i in range(nv)), weights)
        d = rng.randrange(1, 5)
        f = random_homogeneous_poly(rng, ring, d)
        if f is None:
            continue
        R = GradedRing(ring, ())
        hs = hilbert_series(R, (f,))
        assert hs.numerator == IntPoly((1,)) - IntPoly.t_power(d)


def test_hilbert_series_order_independent():
    # permuting the variables, weights with them, changes which monomials
    # grevlex ranks highest, so the Buchberger run and the leading ideal
    # change; the Hilbert series, an invariant of the graded quotient, must not
    rng = random.Random(810)
    leads_moved = 0
    for _ in range(20):
        weights = tuple(rng.choice([1, 1, 2, 3]) for _ in range(3))
        ring = PolyRing(("x", "y", "z"), weights)
        perm = rng.sample(range(3), 3)  # variable k of ring is perm[k] of moved_ring
        moved_ring = PolyRing(
            tuple(ring.names[perm.index(k)] for k in range(3)),
            tuple(weights[perm.index(k)] for k in range(3)),
        )

        def move(m):
            return tuple(m[perm.index(k)] for k in range(3))

        polys = []
        for _ in range(rng.randrange(1, 3)):
            p = random_homogeneous_poly(rng, ring, rng.randrange(1, 5))
            if p is not None:
                polys.append(p)
        if not polys:
            continue
        moved = tuple(Poly(moved_ring, {move(m): c for m, c in p.terms.items()}) for p in polys)
        hs = hilbert_series(GradedRing(ring, ()), tuple(polys))
        hs_moved = hilbert_series(GradedRing(moved_ring, ()), moved)
        assert hs_moved.numerator == hs.numerator
        assert hs_moved.rational() == hs.rational()
        assert hs_moved == hs
        assert hash(hs_moved) == hash(hs)
        leads = {move(m) for m in buchberger(polys).leading_monomials()}
        leads_moved += leads != set(buchberger(moved).leading_monomials())
    assert leads_moved > 0


def test_hilbert_series_full_quotient_matches_oracle():
    rng = random.Random(811)
    for trial in range(25):
        nv = rng.randrange(2, 4)
        ring = PolyRing(tuple(f"x{i}" for i in range(nv)))
        rels = []
        for _ in range(rng.randrange(0, 3)):
            p = random_homogeneous_poly(rng, ring, rng.randrange(1, 4))
            if p is not None:
                rels.append(p)
        gens = []
        for _ in range(rng.randrange(0, 3)):
            p = random_homogeneous_poly(rng, ring, rng.randrange(1, 4))
            if p is not None:
                gens.append(p)
        R = GradedRing(ring, rels)
        hs = hilbert_series(R, tuple(gens))
        dims = quotient_dims(
            ring.weights, [poly_to_dict(p) for p in rels + gens], 8
        )
        assert hs.series(8) == dims


def test_weighted_ring_multiplicity():
    ring = PolyRing(("x", "y", "z"), (1, 2, 3))
    R = GradedRing(ring, ())
    dm = dim_and_mult(hilbert_series(R))
    assert dm.dim == 3 and dm.mult == Fraction(1, 6)


def test_dim_and_mult_errors():
    ring = PolyRing(("x",))
    R = GradedRing(ring, ())
    hs = hilbert_series(R, (ring.one(),))  # unit ideal: zero module
    assert hs.is_zero
    with pytest.raises(AlgebraError, match="zero module has no dimension"):
        dim_and_mult(hs)


def test_hilbert_series_rejects_inhomogeneous():
    ring = PolyRing(("x", "y"))
    x, y = ring.gens()
    R = GradedRing(ring, ())
    with pytest.raises(HomogeneityError, match="not homogeneous"):
        hilbert_series(R, (x + y * y,))


def test_finite_length_multiplicity_is_total_dimension():
    # dim 0 modules: e(1) equals the total vector-space dimension
    rng = random.Random(812)
    for _ in range(25):
        nv = rng.randrange(1, 4)
        ring = PolyRing(tuple(f"x{i}" for i in range(nv)))
        R = GradedRing(ring, ())
        d = rng.randrange(1, 4)
        gens = tuple(g**d for g in ring.gens())
        extra = random_homogeneous_poly(rng, ring, rng.randrange(1, d + 1))
        if extra is not None:
            gens = gens + (extra,)
        hs = hilbert_series(R, gens)
        if hs.is_zero:
            continue
        dm = dim_and_mult(hs)
        assert dm.dim == 0
        assert dm.mult == sum(hs.series(nv * d))
