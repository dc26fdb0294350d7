"""Buchberger's algorithm, normal forms, leading-term ideals, standard monomials.

The output basis is the reduced Groebner basis (monic, self-reduced, sorted
by leading monomial), which is unique for a given ideal and monomial order,
so every downstream computation is deterministic. Pair selection follows the
normal strategy (smallest weighted-degree lcm first) with Buchberger's
coprime and chain criteria; over QQ intermediate polynomials are rescaled to
primitive integer coefficients to keep arithmetic small.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import AlgebraError
from .rings import (
    Poly,
    PolyRing,
    mono_div,
    mono_divides,
    mono_is_one,
    mono_lcm,
    mono_mul,
)


class GroebnerBasis:
    """A reduced Groebner basis; generators are monic and sorted by leading monomial."""

    __slots__ = ("ring", "generators")

    def __init__(self, ring: PolyRing, generators):
        self.ring = ring
        self.generators = tuple(generators)

    @property
    def order(self):
        return self.ring.order

    def leading_monomials(self):
        return tuple(g.leading_monomial() for g in self.generators)

    def __len__(self):
        return len(self.generators)

    def __iter__(self):
        return iter(self.generators)

    def __eq__(self, other):
        return (
            isinstance(other, GroebnerBasis)
            and other.ring == self.ring
            and other.generators == self.generators
        )

    def __repr__(self):
        return f"GroebnerBasis({', '.join(str(g) for g in self.generators)})"


def _scale_primitive(p: Poly) -> Poly:
    """Rescale to primitive integer coefficients with a positive leading one (QQ),
    or to a monic polynomial (GF(p))."""
    if p.is_zero:
        return p
    if p.ring.field.p != 0:
        return _make_monic(p)
    den = 1
    for c in p.terms.values():
        den = lcm(den, Fraction(c).denominator)
    num = 0
    for c in p.terms.values():
        num = gcd(num, (Fraction(c) * den).numerator)
    scale = Fraction(den, num)
    if p.terms[p.leading_monomial()] < 0:
        scale = -scale
    if scale == 1:
        return p
    return Poly(p.ring, {m: c * scale for m, c in p.terms.items()})


def _make_monic(p: Poly) -> Poly:
    field = p.ring.field
    c = field.inv(p.leading_coeff())
    if c == field.one:
        return p
    return Poly(p.ring, {m: field.mul(c, v) for m, v in p.terms.items()})


def reduce_against(p: Poly, reducers) -> Poly:
    """Full normal form of p against an ordered list of reducers.

    Every term of the result is divisible by no reducer leading monomial;
    the first reducer (in list order) whose leading monomial divides is used
    at each step, so the computation is deterministic.
    """
    ring = p.ring
    field = ring.field
    key = ring.order.key
    lead = []
    for r in reducers:
        if not r.is_zero:
            lm = r.leading_monomial()
            lead.append((lm, r.terms[lm], r))
    work = dict(p.terms)
    remainder: dict = {}
    while work:
        lm = max(work, key=key)
        hit = None
        for lmr, lcr, r in lead:
            if mono_divides(lmr, lm):
                hit = (lmr, lcr, r)
                break
        if hit is None:
            remainder[lm] = work.pop(lm)
            continue
        lmr, lcr, r = hit
        q = mono_div(lm, lmr)
        c = field.div(work[lm], lcr)
        for m2, c2 in r.terms.items():
            mm = mono_mul(q, m2)
            nv = field.sub(work.get(mm, field.zero), field.mul(c, c2))
            if nv:
                work[mm] = nv
            else:
                work.pop(mm, None)
    return Poly(ring, remainder)


def normal_form(p: Poly, gb) -> Poly:
    """Normal form of p modulo a Groebner basis (k-linear and idempotent)."""
    reducers = gb.generators if isinstance(gb, GroebnerBasis) else tuple(gb)
    if reducers and p.ring != reducers[0].ring:
        raise ValueError("polynomial and basis belong to different rings")
    return reduce_against(p, reducers)


def s_polynomial(f: Poly, g: Poly) -> Poly:
    """The S-polynomial, with leading terms cancelled."""
    ring = f.ring
    field = ring.field
    lmf, lmg = f.leading_monomial(), g.leading_monomial()
    big = mono_lcm(lmf, lmg)
    mf = Poly(ring, {mono_div(big, lmf): field.inv(f.leading_coeff())})
    mg = Poly(ring, {mono_div(big, lmg): field.inv(g.leading_coeff())})
    return mf * f - mg * g


def buchberger(gens, ring: PolyRing | None = None) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by gens.

    Deterministic: the reduced basis is unique for the ideal and order, and
    the run itself uses a fixed pair strategy (ascending weighted degree of
    the pair lcm, then the lcm itself, then indices).
    """
    polys = [g for g in gens if g is not None and not g.is_zero]
    if ring is None:
        if not polys:
            raise ValueError("a ring is required for an empty generating set")
        ring = polys[0].ring
    for g in polys:
        if g.ring != ring:
            raise ValueError("generators belong to different rings")

    basis = [_scale_primitive(g) for g in polys]
    lms = [g.leading_monomial() for g in basis]
    key = ring.order.key

    heap: list = []
    pending: set[tuple[int, int]] = set()

    def push(i: int, j: int):
        if i > j:
            i, j = j, i
        big = mono_lcm(lms[i], lms[j])
        heapq.heappush(heap, (ring.wdeg(big), key(big), i, j))
        pending.add((i, j))

    for j in range(len(basis)):
        for i in range(j):
            push(i, j)

    while heap:
        _, _, i, j = heapq.heappop(heap)
        if (i, j) not in pending:
            continue
        pending.discard((i, j))
        big = mono_lcm(lms[i], lms[j])
        if big == mono_mul(lms[i], lms[j]):
            continue  # coprime leading monomials: S-poly reduces to zero
        # chain criterion: some other element divides the lcm and both
        # companion pairs were already treated
        skip = False
        for k in range(len(basis)):
            if k == i or k == j:
                continue
            if not mono_divides(lms[k], big):
                continue
            a = (min(i, k), max(i, k))
            b = (min(j, k), max(j, k))
            if a not in pending and b not in pending:
                skip = True
                break
        if skip:
            continue
        r = reduce_against(s_polynomial(basis[i], basis[j]), basis)
        if r.is_zero:
            continue
        r = _scale_primitive(r)
        basis.append(r)
        lms.append(r.leading_monomial())
        k = len(basis) - 1
        for i2 in range(k):
            push(i2, k)

    return GroebnerBasis(ring, _interreduce(basis, ring))


def _interreduce(basis, ring: PolyRing):
    """Minimalize and tail-reduce a Groebner basis into its reduced form."""
    key = ring.order.key
    ordered = sorted((g for g in basis if not g.is_zero), key=lambda g: key(g.leading_monomial()))
    minimal: list[Poly] = []
    for g in ordered:
        lm = g.leading_monomial()
        if any(mono_divides(h.leading_monomial(), lm) for h in minimal):
            continue
        minimal.append(g)
    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1 :]
        reduced.append(_make_monic(reduce_against(g, others)))
    reduced.sort(key=lambda g: key(g.leading_monomial()))
    return tuple(reduced)


# ---------------------------------------------------------------------------
# monomial ideals and standard monomials


def minimalize_monomials(monos):
    """Minimal generators of the monomial ideal spanned by monos, sorted."""
    ms = sorted(set(monos), key=lambda m: (sum(m), m))
    out: list = []
    for m in ms:
        if any(mono_divides(g, m) for g in out):
            continue
        out.append(m)
    return tuple(sorted(out))


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal given by its minimal generators."""

    generators: tuple

    def contains(self, m) -> bool:
        return any(mono_divides(g, m) for g in self.generators)

    @property
    def is_zero(self) -> bool:
        return not self.generators

    @property
    def is_unit(self) -> bool:
        return any(mono_is_one(g) for g in self.generators)


def leading_ideal(gb: GroebnerBasis) -> MonomialIdeal:
    """The ideal of leading monomials of a Groebner basis."""
    return MonomialIdeal(minimalize_monomials(gb.leading_monomials()))


def monomials_of_wdeg(weights, j: int):
    """All exponent tuples of weighted degree exactly j, lexicographically."""
    s = len(weights)
    if j < 0:
        return

    def rec(i, remaining, prefix):
        if i == s - 1:
            w = weights[i]
            if remaining % w == 0:
                yield prefix + (remaining // w,)
            return
        w = weights[i]
        for e in range(remaining // w + 1):
            yield from rec(i + 1, remaining - e * w, prefix + (e,))

    yield from rec(0, j, ())


def standard_monomials(gb: GroebnerBasis, j: int):
    """The monomials of weighted degree j outside the leading ideal.

    These form a k-basis of the degree-j piece of the quotient by the ideal of
    gb. Returned in ascending monomial order.
    """
    lead = leading_ideal(gb)
    out = [m for m in monomials_of_wdeg(gb.ring.weights, j) if not lead.contains(m)]
    out.sort(key=gb.ring.order.key)
    return out
