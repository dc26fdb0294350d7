"""Exact univariate arithmetic in t: integer polynomials and rational functions.

Everything downstream (Hilbert series, chi, multiplicities) reduces to
arithmetic on IntPoly / RatFun values. Coefficients are arbitrary-precision
integers; series coefficients and evaluations are fractions.Fraction. No
floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .errors import AlgebraError


class IntPoly:
    """A dense integer polynomial in t, stored low degree first, no trailing zeros."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def t_power(k: int, c: int = 1) -> "IntPoly":
        """The monomial c * t^k."""
        if c == 0:
            return IntPoly()
        return IntPoly((0,) * k + (c,))

    @property
    def degree(self) -> int:
        """Degree; the zero polynomial gets -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def content(self) -> int:
        """gcd of the coefficients (0 for the zero polynomial)."""
        g = 0
        for c in self.coeffs:
            g = gcd(g, c)
        return g

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = IntPoly((other,))
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self):
        return IntPoly(tuple(-c for c in self.coeffs))

    def __add__(self, other):
        if isinstance(other, int):
            other = IntPoly((other,))
        if not isinstance(other, IntPoly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPoly(tuple(self.coeff(k) + other.coeff(k) for k in range(n)))

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, (int, IntPoly)):
            return NotImplemented
        return self + -other

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly(tuple(other * c for c in self.coeffs))
        if not isinstance(other, IntPoly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return IntPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = IntPoly((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __call__(self, x):
        """Evaluate by Horner's rule; exact for int / Fraction arguments."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self):
        return format_t_poly(self)

    def __repr__(self):
        return f"IntPoly({list(self.coeffs)!r})"


ZERO = IntPoly()
ONE = IntPoly((1,))


def weights_denominator(weights) -> IntPoly:
    """The canonical Hilbert-series denominator prod_i (1 - t^{d_i})."""
    d = ONE
    for w in weights:
        d = d * (ONE - IntPoly.t_power(w))
    return d


def format_terms(terms) -> str:
    """Signed-term text of (coefficient, monomial text) pairs in print
    order, the monomial 1 given as "": zero coefficients are left out, a
    unit coefficient shows only its sign, others join their monomial with
    an explicit '*'; "0" when no term is left. Coefficients are ints or
    Fractions."""
    parts = []
    for c, mono in terms:
        if c == 0:
            continue
        mag = abs(c)
        body = str(mag) if not mono else mono if mag == 1 else f"{mag}*{mono}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"{'+' if c > 0 else '-'} {body}")
    return " ".join(parts) if parts else "0"


def format_t_coeffs(coeffs, var: str = "t") -> str:
    """Ascending-degree text of exact coefficients (ints or Fractions),
    explicit '*', reparseable; "0" when every coefficient is zero."""
    return format_terms((c, "" if k == 0 else var if k == 1 else f"{var}^{k}") for k, c in enumerate(coeffs))


def format_t_poly(p: IntPoly, var: str = "t") -> str:
    """Canonical ascending-degree string, explicit '*', reparseable."""
    return format_t_coeffs(p.coeffs, var)


def _divmod(a, b) -> tuple[list[int], list[int], int]:
    """Fraction-free division of integer coefficient lists (low degree first,
    no trailing zeros, b nonzero): (q, r, s) with s*a = q*b + r, deg r < deg b.

    A step with leading coefficient c scales the working remainder, q and s
    by lc(b) / g and subtracts (c / g) * t^k * b, where g = gcd(c, lc(b))
    takes the sign of lc(b); the step of groebner._divide. So s > 0, and
    s == 1 with r == [] exactly when b divides a over Z.
    """
    r = list(a)
    n = len(b) - 1
    lb = b[-1]
    q = [0] * max(len(r) - n, 0)
    s = 1
    while len(r) > n:
        k = len(r) - 1 - n
        g = gcd(r[-1], lb) if lb > 0 else -gcd(r[-1], lb)
        e, m = r[-1] // g, lb // g
        if m != 1:
            s *= m
            q = [x * m for x in q]
            r = [x * m for x in r]
        q[k] = e
        for i, bc in enumerate(b):
            r[k + i] -= e * bc
        while r and r[-1] == 0:
            r.pop()
    return q, r, s


def _primitive(cs):
    """cs divided by its content, with a positive leading coefficient."""
    g = -gcd(*cs) if cs and cs[-1] < 0 else gcd(*cs)
    return [c // g for c in cs] if g else cs


def one_minus_t_valuation(p: IntPoly) -> tuple[int, IntPoly]:
    """Largest k with (1-t)^k | p, together with the cofactor q, p = (1-t)^k q.

    The cofactor satisfies q(1) != 0.
    """
    if p.is_zero:
        raise AlgebraError("zero polynomial has no valuation")
    cs = p.coeffs
    k = 0
    while sum(cs) == 0:  # p(1) == 0, so 1 - t divides p; lc -1 keeps s == 1
        cs = _divmod(cs, (1, -1))[0]
        k += 1
    return k, IntPoly(cs)


def poly_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """gcd in Z[t], content included, normalized to a positive leading coefficient."""
    c = gcd(a.content(), b.content())
    pa, pb = _primitive(a.coeffs), _primitive(b.coeffs)
    while pb:
        pa, pb = pb, _primitive(_divmod(pa, pb)[1])
    return IntPoly(pa) * c


def poly_exact_div(a: IntPoly, b: IntPoly) -> IntPoly:
    """Quotient a / b when b divides a exactly over Z; raises otherwise."""
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    q, r, s = _divmod(a.coeffs, b.coeffs)
    if r or s != 1:
        raise AlgebraError("inexact polynomial division")
    return IntPoly(q)


class Infinity:
    """Marker for the value infinity of a rational function at t = 1."""

    __slots__ = ()

    def __eq__(self, other):
        return isinstance(other, Infinity)

    def __hash__(self):
        return hash("gradedchi-infinity")

    def __repr__(self):
        return "infinity"


INFINITY = Infinity()

# A value at t = 1: either finite exact, or the marker above.
ExtendedValue = Fraction | Infinity


class RatFun(NamedTuple):
    """A rational function num/den in lowest terms.

    Invariants (enforced by ratfun_normalize, the only sanctioned
    constructor): gcd(num, den) is a unit, den has a positive constant term,
    the zero function is 0/1.
    """

    num: IntPoly
    den: IntPoly

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __mul__(self, other):
        if isinstance(other, (int, IntPoly)):
            return ratfun_normalize(self.num * other, self.den)
        if not isinstance(other, RatFun):
            return NotImplemented
        return ratfun_normalize(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, IntPoly)):
            return ratfun_normalize(self.num, self.den * other)
        if not isinstance(other, RatFun):
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return ratfun_normalize(self.num * other.den, self.den * other.num)

    def __add__(self, other):
        if isinstance(other, (int, IntPoly)):
            other = ratfun_normalize(IntPoly((other,)) if isinstance(other, int) else other, ONE)
        if not isinstance(other, RatFun):
            return NotImplemented
        return ratfun_normalize(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-1) * other

    def __neg__(self):
        return (-1) * self

    def __str__(self):
        def wrap(p):
            s = format_t_poly(p)
            nterms = sum(1 for c in p.coeffs if c)
            return f"({s})" if nterms > 1 else s

        if self.den == ONE:
            return format_t_poly(self.num)
        return f"{wrap(self.num)} / {wrap(self.den)}"


def ratfun_normalize(num: IntPoly, den: IntPoly) -> RatFun:
    """Reduce num/den to the canonical representative."""
    if den.is_zero:
        raise AlgebraError("denominator is the zero polynomial")
    if num.is_zero:
        return RatFun(ZERO, ONE)
    g = poly_gcd(num, den)
    num = poly_exact_div(num, g)
    den = poly_exact_div(den, g)
    c0 = den.coeff(0)
    if c0 == 0:
        raise AlgebraError("rational function has a pole at t = 0")
    if c0 < 0:
        num, den = -num, -den
    return RatFun(num, den)


def series_expand(r: RatFun, n: int) -> list[Fraction]:
    """Coefficients c_0..c_n of the power-series expansion of r at t = 0."""
    if n < 0:
        return []
    d = r.den.coeffs
    d0 = Fraction(d[0])
    out: list[Fraction] = []
    for k in range(n + 1):
        s = Fraction(r.num.coeff(k))
        for j in range(1, min(k, len(d) - 1) + 1):
            s -= d[j] * out[k - j]
        out.append(s / d0)
    return out


def eval_at_one(r: RatFun) -> ExtendedValue:
    """Value of r at t = 1 after cancelling common (1-t) powers; may be INFINITY."""
    if r.num.is_zero:
        return Fraction(0)
    kn, qn = one_minus_t_valuation(r.num)
    kd, qd = one_minus_t_valuation(r.den)
    common = min(kn, kd)
    kn -= common
    kd -= common
    if kd > 0:
        return INFINITY
    if kn > 0:
        return Fraction(0)
    return Fraction(qn(1), qd(1))
