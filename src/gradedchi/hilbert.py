"""Hilbert series of graded quotients, with dimension and multiplicity.

The series of S/I is N(t) / prod_i (1 - t^{d_i}) where the numerator N is
computed from the leading monomials of a Groebner basis of I by the usual
variable-splitting recursion. Dimension is read off as the pole order at
t = 1 and the multiplicity as the value there after clearing the pole.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .arith import (
    ONE,
    ZERO,
    IntPoly,
    RatFun,
    one_minus_t_valuation,
    ratfun_normalize,
    series_expand,
    weights_denominator,
)
from .errors import AlgebraError
from .groebner import minimalize_monomials
from .rings import GradedRing, homogeneous_gens, mono_is_one, wdeg


def _pairwise_coprime(monos) -> bool:
    support = []
    for m in monos:
        s = {i for i, e in enumerate(m) if e}
        for seen in support:
            if s & seen:
                return False
        support.append(s)
    return True


def hilbert_numerator(monos, weights) -> IntPoly:
    """Numerator N(t) with HS_{S/I}(t) = N(t) / prod(1 - t^{d_i}), for I the
    monomial ideal that monos generate.

    monos is any iterable of exponent tuples, such as the leading monomials
    of a Groebner basis; it is reduced to I's minimal generators first.
    Splits on the variable occurring in the most minimal generators and
    recurses via N(I) = N(I + <x_v>) + t^{w_v} * N(I : x_v) until the
    generators are pairwise coprime.
    """
    return _numerator(minimalize_monomials(monos), tuple(weights))


def _numerator(gens, weights) -> IntPoly:
    if not gens:
        return ONE
    if any(mono_is_one(m) for m in gens):
        return ZERO
    if _pairwise_coprime(gens):
        return weights_denominator(wdeg(m, weights) for m in gens)
    nvars = len(weights)
    counts = [0] * nvars
    for m in gens:
        for i, e in enumerate(m):
            if e:
                counts[i] += 1
    v = max(range(nvars), key=lambda i: (counts[i], -i))
    xv = tuple(1 if i == v else 0 for i in range(nvars))
    plus = minimalize_monomials([m for m in gens if m[v] == 0] + [xv])
    colon = minimalize_monomials(
        tuple(m[:v] + (m[v] - 1 if m[v] else 0,) + m[v + 1 :] for m in gens)
    )
    return _numerator(plus, weights) + IntPoly.t_power(weights[v]) * _numerator(colon, weights)


class DimMult(NamedTuple):
    dim: int
    mult: Fraction


class HilbertSeries:
    """Hilbert series as an integer numerator over prod_i (1 - t^{d_i}), with
    the weights sorted, so the variables' order does not change equality."""

    __slots__ = ("numerator", "weights")

    def __init__(self, numerator: IntPoly, weights):
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "weights", tuple(sorted(weights)))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set or delete {name!r}: a HilbertSeries is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return HilbertSeries, (self.numerator, self.weights)

    def __eq__(self, other):
        if not isinstance(other, HilbertSeries):
            return NotImplemented
        return self.numerator == other.numerator and self.weights == other.weights

    def __hash__(self):
        return hash((self.numerator, self.weights))

    def __repr__(self):
        return f"HilbertSeries(numerator={self.numerator!r}, weights={self.weights!r})"

    @property
    def is_zero(self) -> bool:
        return self.numerator.is_zero

    def rational(self) -> RatFun:
        return ratfun_normalize(self.numerator, weights_denominator(self.weights))

    def series(self, n: int):
        """First n+1 coefficients dim_k M_0, ..., dim_k M_n as integers."""
        if self.is_zero:
            return [0] * (n + 1)
        return [int(c) for c in series_expand(self.rational(), n)]


def dim_and_mult(hs: HilbertSeries) -> DimMult:
    """Dimension (pole order at t = 1) and multiplicity (value there after
    clearing the pole) of a nonzero graded module."""
    if hs.numerator.is_zero:
        raise AlgebraError("zero module has no dimension")
    k, q = one_minus_t_valuation(hs.numerator)
    s = len(hs.weights)
    if k > s:
        raise AlgebraError("Hilbert numerator vanishes at t = 1 to excessive order")
    wprod = 1
    for w in hs.weights:
        wprod *= w
    return DimMult(s - k, Fraction(q(1), wprod))


def hilbert_series(ring: GradedRing, gens=()) -> HilbertSeries:
    """Hilbert series of R/I for I generated by gens over the graded ring R.

    The ring's defining relations are appended automatically, so gens only
    need to generate I modulo those.
    """
    gens = homogeneous_gens(ring.ambient, gens, "generator", positive=False)
    gb = ring.groebner(gens)
    return HilbertSeries(hilbert_numerator(gb.leading_monomials(), ring.weights), ring.weights)
