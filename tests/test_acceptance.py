"""End-to-end acceptance checklist.

Eight checks, run in order: five worked cone examples with known closed
forms and multiplicities, the ambient alternating sum, the fractional
divisor length on the conic, and a batch of randomized property suites.
Every comparison is exact rational arithmetic; there are no tolerances.
Run with -v to see one pass/fail line per check.
"""

import random
from fractions import Fraction

from gradedchi.arith import IntPoly, eval_at_one, ratfun_normalize, series_expand
from gradedchi.chi import (
    Trichotomy,
    ab_decompose,
    chi_series,
    compute_chi,
    gulliksen_chi,
    qcartier_mult,
)
from gradedchi.groebner import buchberger
from gradedchi.hilbert import dim_and_mult, hilbert_series
from gradedchi.homology import GradedBasis, chi_truncated, naive_series, tor_table
from gradedchi.rings import GradedRing, PolyRing

from oracles import (
    enumerated_standard_monomials,
    poly_to_dict,
    quotient_piece_dim,
    random_homogeneous_poly,
    random_monomial,
    reduced_generators,
)


def ratfun(num_coeffs, den_coeffs):
    return ratfun_normalize(IntPoly(tuple(num_coeffs)), IntPoly(tuple(den_coeffs)))


def cubic_cone():
    r = PolyRing(("x", "y", "z"))
    x, y, z = r.gens()
    return GradedRing(r, [x**3 + y**3 + z**3]), (x + y, z), (y, x + z)


def rational_normal_cone(d):
    r = PolyRing(tuple(f"x{i}" for i in range(d + 1)))
    xs = r.gens()
    rels = [
        xs[p] * xs[q + 1] - xs[p + 1] * xs[q] for p in range(d) for q in range(p + 1, d)
    ]
    return GradedRing(r, rels), tuple(xs[:d]), tuple(xs[1:])


def random_monomial_pair(rng, max_vars=5):
    """A random monomial quotient ring with two random monomial ideals."""
    nv = rng.randrange(2, max_vars)
    ring = PolyRing(tuple(f"x{i}" for i in range(nv)))
    rels = {random_monomial(rng, ring, 3).leading_monomial() for _ in range(rng.randrange(0, 3))}
    R = GradedRing(ring, [ring.monomial(m) for m in rels])
    I = tuple({random_monomial(rng, ring, 3) for _ in range(rng.randrange(1, nv + 1))})
    J = tuple({random_monomial(rng, ring, 3) for _ in range(rng.randrange(1, nv + 1))})
    return R, I, J


def test_01_cubic_cone_closed_form_and_tor_window():
    R, I, J = cubic_cone()
    chi = chi_series(R, I, J)
    assert chi == ratfun([1], [1, 1, 1])  # 1 / (1 + t + t^2)
    cr = compute_chi(R, I, J)
    assert cr.value == Fraction(1, 3)
    tt = tor_table(R, I, J, i_max=8, d_max=14)
    # each Tor_i is one-dimensional, concentrated in degree floor(3i/2)
    assert tt.entries == {(i, (3 * i) // 2): 1 for i in range(9)}
    assert tt.chi_complete_through >= 10
    trunc = chi_truncated(tt)
    assert [int(c) for c in series_expand(chi, tt.chi_complete_through)] == trunc
    assert naive_series(tt, 8) == [1 if i % 2 == 0 else -1 for i in range(9)]


def test_02_rational_normal_cone_family():
    for d in (2, 3, 4, 5):
        R, I, J = rational_normal_cone(d)
        cr = compute_chi(R, I, J)
        assert cr.chi == ratfun([1], [1, d - 1])  # 1 / (1 + (d-1)t)
        assert cr.value == Fraction(1, d)
        assert cr.trichotomy is Trichotomy.POSITIVE_FINITE


def test_03_two_planes_meeting_at_a_point():
    r = PolyRing(("x", "y", "z", "w"))
    x, y, z, w = r.gens()
    R = GradedRing(r, [x * z, x * w, y * z, y * w])
    cr = compute_chi(R, (x, y, w), (y, z, w))
    assert cr.chi == ratfun([1], [1, 2, -1])  # 1 / (1 + 2t - t^2)
    assert [int(c) for c in series_expand(cr.chi, 6)] == [1, -2, 5, -12, 29, -70, 169]
    assert cr.value == Fraction(1, 2)


def test_04_quadric_cone_infinite_class():
    r = PolyRing(("x", "y", "z", "w"))
    x, y, z, w = r.gens()
    R = GradedRing(r, [x * y - z * w])
    cr = compute_chi(R, (x, z), (y, w))
    assert cr.chi == ratfun([1], [1, 0, -1])  # 1 / (1 - t^2)
    assert cr.trichotomy is Trichotomy.INFINITE
    assert (cr.dimM, cr.dimN, cr.dimR) == (2, 2, 3)
    assert cr.defect == 1
    c, e, e1 = ab_decompose(cr.chi, (cr.dimM, cr.dimN, cr.dimR))
    assert c == 1
    assert e == ratfun([1], [1, 1])  # 1 / (1 + t)
    assert e1 == Fraction(1, 2)


def test_05_ambient_alternating_sum():
    r = PolyRing(("x", "y", "z"))
    x, y, z = r.gens()
    f = x**3 + y**3 + z**3
    # two lines through the cubic cone, summed over the ambient ring: 0
    assert gulliksen_chi(r, (f, x + y, z), (f, y, x + z)) == 0
    # transverse coordinate lines in the plane: the Koszul value 1
    r2 = PolyRing(("x", "y"))
    assert gulliksen_chi(r2, (r2.gen(0),), (r2.gen(1),)) == 1


def test_06_cuspidal_cubic_divisor_multiplicities():
    r = PolyRing(("x", "y", "z"))
    x, y, z = r.gens()
    R = GradedRing(r, [y**2 * z - x**3])
    dm1 = dim_and_mult(hilbert_series(R, (x, y)))
    assert (dm1.dim, dm1.mult) == (1, 1)
    dm2 = dim_and_mult(hilbert_series(R, (x**2, x * y, y**2)))
    assert (dm2.dim, dm2.mult) == (1, 3)


def test_07_conic_fractional_divisor_length():
    r = PolyRing(("x0", "x1", "x2"))
    x0, x1, x2 = r.gens()
    R = GradedRing(r, [x0 * x2 - x1 * x1])
    half = qcartier_mult(R, x0, 2, (x1, x2))
    assert half == Fraction(1, 2)
    assert eval_at_one(chi_series(R, (x0, x1), (x1, x2))) == Fraction(1, 2)
    # doubling the divisor doubles the multiplicity of its quotient
    e_div = dim_and_mult(hilbert_series(R, (x0,))).mult
    e_ruling = dim_and_mult(hilbert_series(R, (x0, x1))).mult
    assert e_div == 2 * e_ruling


def test_08_randomized_property_suites():
    # (a) trichotomy: the class always matches the sign of the defect and
    # the exact value of chi at t = 1, on 200 random monomial instances
    rng = random.Random(86001)
    seen = {Trichotomy.INFINITE: 0, Trichotomy.POSITIVE_FINITE: 0, Trichotomy.ZERO: 0}
    for _ in range(200):
        R, I, J = random_monomial_pair(rng)
        cr = compute_chi(R, I, J)
        want = (
            Trichotomy.INFINITE
            if cr.defect > 0
            else Trichotomy.POSITIVE_FINITE
            if cr.defect == 0
            else Trichotomy.ZERO
        )
        assert cr.trichotomy is want
        seen[cr.trichotomy] += 1
    assert all(n > 0 for n in seen.values())

    # (b) the truncated alternating sum agrees with the closed form through
    # every complete degree, on 50 random instances
    rng = random.Random(86002)
    done = 0
    while done < 50:
        R, I, J = random_monomial_pair(rng, max_vars=4)
        tt = tor_table(R, I, J, i_max=5, d_max=8)
        chi = chi_series(R, I, J)
        k = tt.chi_complete_through
        assert [int(c) for c in series_expand(chi, k)] == chi_truncated(tt)
        done += 1

    # (c) Groebner bases are confluent under generator shuffles, and
    # standard-monomial counts match brute-force ranks through degree 8
    rng = random.Random(86003)
    for _ in range(25):
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
        shuffled = gens[:]
        rng.shuffle(shuffled)
        shuffled.append(shuffled[0] * r.constant(Fraction(-5, 3)))
        assert reduced_generators(buchberger(tuple(shuffled))) == reduced_generators(gb)
        dicts = [poly_to_dict(g) for g in gens]
        rb = GradedBasis(gb)
        for j in range(9):
            basis = rb.basis(j)
            assert basis == tuple(enumerated_standard_monomials(gb, j))
            assert len(basis) == quotient_piece_dim(weights, dicts, j)

    # (d) whenever the defect vanishes, the value factors through the
    # multiplicities: chi(1) = e_M(1) e_N(1) / e_R(1)
    rng = random.Random(86004)
    hits = 0
    for _ in range(200):
        R, I, J = random_monomial_pair(rng)
        cr = compute_chi(R, I, J)
        if cr.defect != 0:
            continue
        hits += 1
        e_m = dim_and_mult(hilbert_series(R, I)).mult
        e_n = dim_and_mult(hilbert_series(R, J)).mult
        e_r = dim_and_mult(hilbert_series(R)).mult
        assert cr.value == e_m * e_n / e_r
    assert hits >= 40
