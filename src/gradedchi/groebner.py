"""Buchberger's algorithm, normal forms, leading-term ideals, standard monomials.

The output basis is the reduced Groebner basis (monic, self-reduced, sorted
by leading monomial), which is unique for a given ideal, so every downstream
computation is deterministic. Pair selection follows the normal strategy
(smallest weighted-degree lcm first) with Buchberger's coprime and chain
criteria.

Reduction is heap-ordered division (Monagan & Pearce, CASC 2007): each
monomial's order key is computed once, when it enters the working
polynomial, and the heap yields the same leading monomial a full rescan
would, so the reduction sequence is that of plain division. The division is
fraction-free (integer pseudo-division, Geddes, Czapor & Labahn,
*Algorithms for Computer Algebra*, 1992, §2.8): each step multiplies the
working polynomial and the remainder by lc_r / gcd(c, lc_r) instead of
dividing by lc_r. Reducers are primitive integer polynomials over QQ and
monic over GF(p), where lc_r = 1 makes the same step rescale nothing; over
GF(p) a coefficient is reduced mod p when it is read. `reduce_against`
divides by the scale once per remainder term. A GroebnerBasis keeps its
generators in reducer form, so dividing by a basis prepares no reducer.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .rings import (
    Poly,
    PolyRing,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)


class GroebnerBasis:
    """A reduced Groebner basis; generators are monic and sorted by leading monomial.

    Built by buchberger from the basis in reducer form (leading monomial,
    integer lead, tail), which it keeps as reducers for division; the
    generators are the same polynomials made monic.
    """

    __slots__ = ("ring", "generators", "reducers")

    def __init__(self, ring: PolyRing, reducers):
        self.ring = ring
        self.reducers = tuple(reducers)
        self.generators = tuple(
            _scaled_poly(ring, dict(((lm, lc), *tail)), lc) for lm, lc, tail in self.reducers
        )

    def leading_monomials(self):
        return tuple(r[0] for r in self.reducers)

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


def _heap_key(weights, m):
    """PolyRing.key(m) negated elementwise, so that a min-heap pops the
    largest monomial; the negated grevlex tail is the reversed exponents."""
    return (-sum(map(mul, m, weights)), m[::-1])


def _int_terms(terms: dict):
    """QQ coefficients scaled by the lcm of their denominators: (int terms, scale)."""
    den = lcm(*(c.denominator for c in terms.values()))
    return {m: c.numerator * (den // c.denominator) for m, c in terms.items()}, den


def _scaled_poly(ring: PolyRing, terms: dict, scale) -> Poly:
    """The Poly terms / scale: one exact Fraction per term over QQ; over
    GF(p) the scale is 1, and the Poly constructor reduces each term mod p."""
    if ring.field.p:
        return Poly(ring, terms)
    return Poly(ring, {m: Fraction(c, scale) for m, c in terms.items()})


def _make_reducer(ring: PolyRing, lm, terms: dict):
    """A reducer (lm, lead, tail) from a term map with leading monomial lm.

    Over QQ the terms become primitive integers with a positive lead, and
    lead is that integer. Over GF(p) the terms are made monic, so lead is 1
    and division needs no inverse.
    """
    p = ring.field.p
    if p:
        inv = ring.field.inv(terms[lm])
        return lm, 1, tuple((m, c * inv % p) for m, c in terms.items() if m != lm)
    g = gcd(*terms.values())
    if terms[lm] < 0:
        g = -g
    return lm, terms[lm] // g, tuple((m, c // g) for m, c in terms.items() if m != lm)


def _reducer(r: Poly):
    """The reducer form of a nonzero Poly."""
    terms = r.terms if r.ring.field.p else _int_terms(r.terms)[0]
    return _make_reducer(r.ring, r.leading_monomial(), terms)


def _divide(ring: PolyRing, work: dict, scale: int, reducers):
    """The division core: reduce work / scale against reducer forms.

    work maps monomials to integers and is consumed. The first reducer (in
    list order) whose leading monomial divides the working polynomial's
    leading monomial is used at each step. A step with coefficient c and
    reducer lead l multiplies the working polynomial, the remainder and the
    scale by l / gcd(c, l) and subtracts (c / gcd(c, l)) * q * tail. Over
    GF(p) reducers are monic, so l = 1 and the step rescales nothing; work
    entries may leave [0, p) and are reduced mod p when popped. The working
    polynomial's monomials wait in a heap keyed by _heap_key, computed once
    when a monomial first enters; a monomial that cancels keeps its entry
    with a zero coefficient and is skipped when popped.

    Returns (remainder, scale): the remainder's integer terms (residues over
    GF(p)) in descending monomial order, and the integer its true value is
    scaled by.
    """
    p = ring.field.p
    weights = ring.weights
    heap = [(_heap_key(weights, m), m) for m in work]
    heapq.heapify(heap)
    heappop, heappush = heapq.heappop, heapq.heappush
    remainder: dict = {}
    while heap:
        lm = heappop(heap)[1]
        c = work.pop(lm)
        if p:
            c %= p
        if not c:
            continue
        for lmr, lcr, tail in reducers:
            if mono_divides(lmr, lm):
                break
        else:
            remainder[lm] = c
            continue
        q = mono_div(lm, lmr)
        g = gcd(c, lcr)
        c //= g
        if g != lcr:
            a = lcr // g
            scale *= a
            work = {m: v * a for m, v in work.items()}
            remainder = {m: v * a for m, v in remainder.items()}
        for m2, c2 in tail:
            mm = mono_mul(q, m2)
            old = work.get(mm)
            if old is None:
                old = 0
                heappush(heap, (_heap_key(weights, mm), mm))
            work[mm] = old - c * c2
    return remainder, scale


def reduce_against(p: Poly, reducers) -> Poly:
    """Full normal form of p against an ordered list of reducers, or against
    a GroebnerBasis, whose generators are kept in reducer form.

    Every term of the result is divisible by no reducer leading monomial;
    the first reducer (in list order) whose leading monomial divides is used
    at each step, so the computation is deterministic. The heap in the
    division core pops the largest monomial at each step, so the reduction
    sequence and the remainder's term order (descending) are those of
    rescanning for the maximum. Over QQ the division is fraction-free: it
    runs on integers, and each remainder coefficient is divided once by the
    scale at the end, so the value (and its Fraction type) is that of plain
    division over the field. Reducers from another ring raise ValueError.
    """
    ring = p.ring
    if isinstance(reducers, GroebnerBasis):
        if reducers.ring is not ring and reducers.ring != ring:
            raise ValueError("polynomial and reducers belong to different rings")
        reds = reducers.reducers
    else:
        reds = []
        for r in reducers:
            if r.ring is not ring and r.ring != ring:
                raise ValueError("polynomial and reducers belong to different rings")
            if r.terms:
                reds.append(_reducer(r))
    work, scale = (dict(p.terms), 1) if ring.field.p else _int_terms(p.terms)
    return _scaled_poly(ring, *_divide(ring, work, scale, reds))


def _s_terms(ring: PolyRing, rf, rg, big):
    """The S-polynomial of two reducer forms with leading-monomial lcm big,
    built from the shifted tails: (terms, scale), the true value being
    terms / scale. With h = gcd of the integer leads, the terms are
    (lc_g/h) * u_f * f - (lc_f/h) * u_g * g; the cancelled leading terms are
    never formed. Over GF(p) the forms are monic, so h = 1 and the scale is
    1; the terms are integers not yet reduced mod p. Zero coefficients may
    remain."""
    lmf, lcf, tailf = rf
    lmg, lcg, tailg = rg
    uf, ug = mono_div(big, lmf), mono_div(big, lmg)
    h = gcd(lcf, lcg)
    a, b = lcg // h, lcf // h
    out = {mono_mul(uf, m): a * c for m, c in tailf}
    for m, c in tailg:
        mm = mono_mul(ug, m)
        out[mm] = out.get(mm, 0) - b * c
    return out, lcf * a


def buchberger(gens, ring: PolyRing | None = None) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by gens.

    Deterministic: the reduced basis is unique for the ideal, and
    the run itself uses a fixed pair strategy (ascending weighted degree of
    the pair lcm, then the lcm itself, then indices). The working basis is
    kept in reducer form: primitive integer polynomials over QQ, monic ones
    over GF(p).
    """
    polys = [g for g in gens if g is not None and not g.is_zero]
    if ring is None:
        if not polys:
            raise ValueError("a ring is required for an empty generating set")
        ring = polys[0].ring
    for g in polys:
        if g.ring is not ring and g.ring != ring:
            raise ValueError("generators belong to different rings")

    basis = [_reducer(g) for g in polys]
    lms = [b[0] for b in basis]
    key = ring.key

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
        # the remainder's scale does not matter: it is made primitive (monic)
        r, _ = _divide(ring, _s_terms(ring, basis[i], basis[j], big)[0], 1, basis)
        if not r:
            continue
        lm = next(iter(r))  # the remainder's terms are in descending order
        basis.append(_make_reducer(ring, lm, r))
        lms.append(lm)
        k = len(basis) - 1
        for i2 in range(k):
            push(i2, k)

    return GroebnerBasis(ring, _interreduce(basis, ring))


def _interreduce(basis, ring: PolyRing):
    """Minimalize and tail-reduce a Groebner basis, given in reducer form,
    into its reduced form, in reducer form sorted by leading monomial."""
    key = ring.key
    ordered = sorted(basis, key=lambda b: key(b[0]))
    minimal: list = []
    for b in ordered:
        if any(mono_divides(h[0], b[0]) for h in minimal):
            continue
        minimal.append(b)
    reduced = []
    for i, (lm, lc, tail) in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1 :]
        work = dict(tail)
        work[lm] = lc
        # no other lead divides lm, so lm stays in the remainder
        r, _ = _divide(ring, work, 1, others)
        reduced.append(_make_reducer(ring, lm, r))
    return reduced


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
    out.sort(key=gb.ring.key)
    return out
