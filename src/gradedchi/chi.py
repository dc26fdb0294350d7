"""The closed-form alternating Tor series chi(M,N)(t) and its consequences.

chi is computed from Hilbert series alone: for cyclic modules M = R/I and
N = R/J it equals HS_M * HS_N / HS_R, a rational function whose expansion
reproduces the alternating sum of graded Tor dimensions. Pulling out the
pole at t = 1 writes chi = e(t)/(1-t)^c with c = dim M + dim N - dim R and
e(1) a positive rational, so the value chi(1) is infinite, a positive
rational, or zero exactly as c is positive, zero, or negative. Over a
regular ambient ring the same value is the finite alternating Tor sum
whenever the intersection has finite length (Serre).
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import NamedTuple

from .arith import (
    ExtendedValue,
    Infinity,
    RatFun,
    eval_at_one,
    one_minus_t_valuation,
    ratfun_normalize,
    weights_denominator,
)
from .errors import AlgebraError, ImproperIntersectionError
from .hilbert import HilbertSeries, dim_and_mult, hilbert_series
from .rings import GradedRing, Poly, PolyRing, homogeneous_gens


class Trichotomy(enum.Enum):
    INFINITE = "INFINITE"
    POSITIVE_FINITE = "POSITIVE_FINITE"
    ZERO = "ZERO"

    def __str__(self):
        return self.value


class ChiResult(NamedTuple):
    """chi as a rational function together with everything read off from it."""

    chi: RatFun
    dimM: int
    dimN: int
    dimR: int
    defect: int
    e_MN: RatFun
    e_MN_at_1: Fraction
    value: ExtendedValue
    trichotomy: Trichotomy


def _chi_from_series(hs_r: HilbertSeries, hs_m: HilbertSeries, hs_n: HilbertSeries) -> RatFun:
    if hs_m.is_zero or hs_n.is_zero:
        raise AlgebraError("chi is undefined when a module is zero (unit ideal)")
    num = hs_m.numerator * hs_n.numerator
    den = weights_denominator(hs_r.weights) * hs_r.numerator
    return ratfun_normalize(num, den)


def chi_series(ring: GradedRing, I, J) -> RatFun:
    """The rational function HS_{R/I} * HS_{R/J} / HS_R in lowest terms."""
    hs_r = hilbert_series(ring)
    return _chi_from_series(hs_r, hilbert_series(ring, I), hilbert_series(ring, J))


def ab_decompose(chi: RatFun, dims):
    """Write chi = e(t) / (1-t)^c with c = dimM + dimN - dimR.

    Returns (c, e, e(1)). The pole order of chi at t = 1 must equal c; a
    mismatch means the inputs did not come from a genuine chi computation
    (or an internal bug) and raises.
    """
    dim_m, dim_n, dim_r = dims
    c = dim_m + dim_n - dim_r
    kn, qn = one_minus_t_valuation(chi.num)
    kd, qd = one_minus_t_valuation(chi.den)
    if kd - kn != c:
        raise AlgebraError(
            f"pole order {kd - kn} of chi at t = 1 disagrees with the dimension count {c}"
        )
    e = ratfun_normalize(qn, qd)
    value = eval_at_one(e)
    if isinstance(value, Infinity) or value <= 0:
        raise AlgebraError("the cleared value e(1) is not a positive rational")
    return c, e, value


def _class_of_defect(c: int) -> Trichotomy:
    if c > 0:
        return Trichotomy.INFINITE
    if c == 0:
        return Trichotomy.POSITIVE_FINITE
    return Trichotomy.ZERO


def _class_of_value(v: ExtendedValue) -> Trichotomy:
    if isinstance(v, Infinity):
        return Trichotomy.INFINITE
    if v == 0:
        return Trichotomy.ZERO
    if v > 0:
        return Trichotomy.POSITIVE_FINITE
    raise AlgebraError(f"chi(1) = {v} is negative; positivity is violated")


def _checked_class(defect: int, value: ExtendedValue) -> Trichotomy:
    """The trichotomy class, derived two independent ways (dimension defect
    and value at t = 1); the two must agree."""
    by_defect = _class_of_defect(defect)
    by_value = _class_of_value(value)
    if by_defect != by_value:
        raise AlgebraError(
            f"dimension count gives {by_defect} but chi(1) gives {by_value}"
        )
    return by_defect


def classify(cr: ChiResult) -> Trichotomy:
    """The trichotomy class, re-derived from the dimensions and the value."""
    return _checked_class(cr.dimM + cr.dimN - cr.dimR, cr.value)


def compute_chi(ring: GradedRing, I, J) -> ChiResult:
    """chi of (R/I, R/J) with dimensions, pole decomposition, value at t = 1,
    and trichotomy class, all cross-validated."""
    hs_r = hilbert_series(ring)
    hs_m = hilbert_series(ring, I)
    hs_n = hilbert_series(ring, J)
    chi = _chi_from_series(hs_r, hs_m, hs_n)
    dim_m = dim_and_mult(hs_m).dim
    dim_n = dim_and_mult(hs_n).dim
    dim_r = dim_and_mult(hs_r).dim
    c, e, e1 = ab_decompose(chi, (dim_m, dim_n, dim_r))
    value = eval_at_one(chi)
    return ChiResult(
        chi=chi,
        dimM=dim_m,
        dimN=dim_n,
        dimR=dim_r,
        defect=c,
        e_MN=e,
        e_MN_at_1=e1,
        value=value,
        trichotomy=_checked_class(c, value),
    )


def gulliksen_chi(ambient: PolyRing, I, J) -> int:
    """The alternating sum of the lengths of Tor_i(S/I, S/J) over the ambient
    polynomial ring S, for ideals whose intersection has finite length.

    By Serre's formula the sum is HS_{S/I} * HS_{S/J} / HS_S, a polynomial
    here, evaluated at t = 1: the closed-form value of compute_chi over S.
    """
    if isinstance(ambient, GradedRing):
        if ambient.relations:
            raise ValueError("the ambient ring for this invariant must have no relations")
        ambient = ambient.ambient
    S = GradedRing(ambient, ())
    I, J = tuple(I), tuple(J)
    hs = hilbert_series(S, I + J)
    if hs.is_zero or dim_and_mult(hs).dim > 0:
        raise ImproperIntersectionError("intersection not proper over ambient ring")
    value = compute_chi(S, I, J).value
    if isinstance(value, Infinity) or value.denominator != 1:
        raise AlgebraError(f"alternating Tor sum {value} is not an integer; internal inconsistency")
    return int(value)


def cartier_mult(ring: GradedRing, f: Poly, gens) -> int:
    """The length of R/(I_C + <f>), the local intersection number of the
    divisor cut by f with the curve presented by I_C.

    Requires the quotient to have finite length; if f vanishes on a component
    of the curve the length is infinite and the intersection is not proper.
    """
    if f.is_zero:
        raise AlgebraError("the divisor is cut by the zero function")
    homogeneous_gens(ring.ambient, (f,), "divisor function")
    hs = hilbert_series(ring, tuple(gens) + (f,))
    dm = dim_and_mult(hs)
    if dm.dim > 0:
        raise ImproperIntersectionError("intersection not proper")
    if dm.mult.denominator != 1:
        raise AlgebraError("finite length is not an integer; internal inconsistency")
    return int(dm.mult)


def qcartier_mult(ring: GradedRing, f: Poly, e: int, gens) -> Fraction:
    """(1/e) times the length of R/(I_C + <f>): the local multiplicity when
    f cuts e times the divisor. That eD really is the divisor cut by f is the
    caller's assertion and is not checked here."""
    if not isinstance(e, int) or e < 1:
        raise ValueError(f"the multiple e must be a positive integer, not {e!r}")
    return Fraction(cartier_mult(ring, f, gens), e)
