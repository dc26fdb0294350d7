"""Buchberger's algorithm and normal forms.

Buchberger's loop works on leading monomials first. An S-polynomial is
divided only until its leading term cannot be reduced; the rest of the
working polynomial becomes the new element's tail, unreduced. The loop
returns the minimal basis (sorted by leading monomial, no lead dividing
another), which is all that the library reads: Hilbert series need only its
leading monomials, and normal forms against any Groebner basis of an ideal
are the same, so division needs no tail reduction. The reduced Groebner
basis is not built here.

Pair selection follows the normal strategy (smallest weighted-degree lcm
first) with Buchberger's coprime and chain criteria, and with a Hilbert
criterion (Traverso, "Hilbert functions and the Buchberger algorithm", JSC
22, 1996) when every weight is 1, every input form (relations included) is
homogeneous of positive degree, and there are r <= n of them.

The Hilbert criterion rests on a lower bound. For forms f_1, ..., f_r of
degrees d_i in n >= r variables, dim (S/I)_d >= the coefficient of t^d in
prod_i (1 - t^{d_i}) / (1 - t)^n, for every d. Proof: I_d is the image of
the map (a_i) -> sum_i a_i f_i from the sum of the S_{d - d_i} to S_d. Its
rank, which does not change over the algebraic closure of the field, is at
most the map's generic rank there: the tuples of forms where the rank
reaches its maximum form a nonempty open set, where some minor of that size
does not vanish. The regular sequences of degrees d_i form another nonempty
open set, which contains x_1^{d_1}, ..., x_r^{d_r}; two nonempty open sets
of an affine space meet, so the generic rank is the rank a complete
intersection has, and the complete intersection's quotient has the series
above. The loop keeps the number of standard monomials of the current
leading ideal L in the degree d it has reached. Since L lies in the leading
ideal of I, that count is at least dim (S/I)_d, so once it equals the bound,
L agrees with the leading ideal of I in degree d, and every S-pair of degree
d reduces to zero: a nonzero remainder would be an element of I whose lead
lies outside L. Those pairs are dropped.

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
minimal basis in reducer form, so dividing by a basis prepares no reducer.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import comb, gcd, lcm
from operator import add, le, mul, sub

from .errors import AlgebraError
from .rings import GradedRing, Poly, PolyRing, mono_divides, mono_lcm, mono_mul


class GroebnerBasis:
    """A Groebner basis as the minimal reducers division reads.

    reducers is the minimal basis buchberger returns, in reducer form
    (leading monomial, integer lead, tail), sorted by leading monomial, no
    lead dividing another; tails are not reduced. Normal forms, leading
    monomials and the Hilbert series built on them read only these.
    """

    __slots__ = ("ring", "reducers")

    def __init__(self, ring: PolyRing, reducers):
        self.ring = ring
        self.reducers = tuple(reducers)

    def leading_monomials(self):
        return tuple(r[0] for r in self.reducers)


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
        inv = pow(terms[lm], -1, p)
        return lm, 1, tuple((m, c * inv % p) for m, c in terms.items() if m != lm)
    g = gcd(*terms.values())
    if terms[lm] < 0:
        g = -g
    return lm, terms[lm] // g, tuple((m, c // g) for m, c in terms.items() if m != lm)


def _reducer(r: Poly):
    """The reducer form of a nonzero Poly."""
    terms = r.terms if r.ring.field.p else _int_terms(r.terms)[0]
    return _make_reducer(r.ring, r.leading_monomial(), terms)


def _divide(ring: PolyRing, work: dict, scale: int, reducers, lead_only=False):
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
    scaled by. With lead_only, the division stops at the first term no
    reducer lead divides: the remainder is that term, first, followed by
    the rest of the working polynomial, unreduced and in no set order.
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
            if all(map(le, lmr, lm)):
                break
        else:
            remainder[lm] = c
            if lead_only:
                for m, v in work.items():
                    if p:
                        v %= p
                    if v:
                        remainder[m] = v
                break
            continue
        q = tuple(map(sub, lm, lmr))
        g = gcd(c, lcr)
        c //= g
        if g != lcr:
            a = lcr // g
            scale *= a
            work = {m: v * a for m, v in work.items()}
            remainder = {m: v * a for m, v in remainder.items()}
        for m2, c2 in tail:
            mm = tuple(map(add, q, m2))
            old = work.get(mm)
            if old is None:
                old = 0
                heappush(heap, (_heap_key(weights, mm), mm))
            work[mm] = old - c * c2
    return remainder, scale


def reduce_against(p: Poly, reducers) -> Poly:
    """Full normal form of p against an ordered list of reducers, or against
    a GroebnerBasis, whose minimal basis is kept in reducer form. Against a
    Groebner basis the normal form depends only on the ideal, so dividing
    by the minimal reducers gives what any other Groebner basis of it would.

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
    uf, ug = tuple(map(sub, big, lmf)), tuple(map(sub, big, lmg))
    h = gcd(lcf, lcg)
    a, b = lcg // h, lcf // h
    out = {tuple(map(add, uf, m)): a * c for m, c in tailf}
    for m, c in tailg:
        mm = tuple(map(add, ug, m))
        out[mm] = out.get(mm, 0) - b * c
    return out, lcf * a


class _StandardCount:
    """The standard monomials of the working basis's leading ideal in one
    degree, set against the complete-intersection bound (see the module
    docstring). The pair loop enters degrees in ascending order, so when
    degree d is built from degree d - 1 every lead of lower degree is final:
    a monomial is standard when all of its one-variable divisors are and it
    is no current lead of degree d. A degree with more standard monomials
    than the working basis has terms would cost more to count than the
    pairs it can drop; the count stops there (standard is None), and no
    pair is dropped after it."""

    __slots__ = ("nvars", "numerator", "degree", "standard", "bound")

    def __init__(self, nvars: int, degrees):
        num = [1]
        for d in degrees:  # num *= 1 - t^d
            num = [a - (num[k - d] if k >= d else 0) for k, a in enumerate(num + [0] * d)]
        self.nvars = nvars
        self.numerator = num
        self.degree = 0
        self.standard = {(0,) * nvars}
        self.bound = 1

    def met(self, d: int, basis) -> bool:
        """True when the standard monomials of degree d are as few as the
        bound allows, so every S-pair of degree d reduces to zero."""
        n = self.nvars
        while self.degree < d and self.standard is not None:
            self.degree += 1
            leads = {b[0] for b in basis if sum(b[0]) == self.degree}
            prev, cur = self.standard, set()
            for m in prev:
                last = n - 1
                while last and not m[last]:
                    last -= 1
                for i in range(last, n):
                    mm = m[:i] + (m[i] + 1,) + m[i + 1 :]
                    # the divisors mm / x_j with j < i; mm / x_i is m
                    if mm not in leads and all(
                        mm[:j] + (mm[j] - 1,) + mm[j + 1 :] in prev for j in range(i) if mm[j]
                    ):
                        cur.add(mm)
            if len(cur) > sum(1 + len(b[2]) for b in basis):
                self.standard = None
                break
            self.standard = cur
            self.bound = sum(
                c * comb(self.degree - k + n - 1, n - 1)
                for k, c in enumerate(self.numerator[: self.degree + 1])
            )
            self._check()
        return self.standard is not None and len(self.standard) == self.bound

    def remove(self, lm):
        """Drop the lead of a new basis element of the current degree."""
        if self.standard is not None:
            self.standard.discard(lm)
            self._check()

    def _check(self):
        if len(self.standard) < self.bound:
            raise AlgebraError(
                f"{len(self.standard)} standard monomials in degree {self.degree}, "
                f"below the complete-intersection bound {self.bound}"
            )


def buchberger(gens, ring: PolyRing | GradedRing | None = None) -> GroebnerBasis:
    """A Groebner basis of the ideal generated by gens; over a GradedRing,
    of its relations (first, in reducer form built once in its memo) and
    gens. Its reducers are the minimal basis.

    Deterministic: the run uses a fixed pair strategy (ascending order key
    of the pair lcm, which starts with its weighted degree, then indices).
    Pairs are dropped by the coprime and chain criteria and, where it
    applies, by the Hilbert criterion of the module docstring, which raises
    AlgebraError should the standard monomials of a degree ever fall below
    their bound. Each other S-polynomial is divided until its leading term
    is irreducible, and joins the basis with its tail as it stands. The
    working basis is kept in reducer form: primitive integer polynomials
    over QQ, monic ones over GF(p). The minimal basis keeps, in order of
    leading monomial, each element whose lead no kept lead divides.
    """
    polys = [g for g in gens if g is not None and not g.is_zero]
    basis = []
    if isinstance(ring, GradedRing):
        rels = ring.cached(("relation_reducers",), lambda: tuple(map(_reducer, ring.relations)))
        basis, ring = list(rels), ring.ambient
    if ring is None:
        if not polys:
            raise ValueError("a ring is required for an empty generating set")
        ring = polys[0].ring
    for g in polys:
        if g.ring is not ring and g.ring != ring:
            raise ValueError("generators belong to different rings")

    basis += map(_reducer, polys)
    lms = [b[0] for b in basis]
    key = ring.key
    count = None
    if len(basis) <= ring.nvars and all(w == 1 for w in ring.weights):
        degrees = [sum(lm) for lm in lms]
        if all(d and all(sum(m) == d for m, _ in b[2]) for d, b in zip(degrees, basis)):
            count = _StandardCount(ring.nvars, degrees)

    heap: list = []
    pending: set[tuple[int, int]] = set()

    def push(i: int, j: int):
        if i > j:
            i, j = j, i
        big = mono_lcm(lms[i], lms[j])
        heapq.heappush(heap, (key(big), i, j))
        pending.add((i, j))

    for j in range(len(basis)):
        for i in range(j):
            push(i, j)

    while heap:
        _, i, j = heapq.heappop(heap)
        if (i, j) not in pending:
            continue
        pending.discard((i, j))
        big = mono_lcm(lms[i], lms[j])
        if big == mono_mul(lms[i], lms[j]):
            continue  # coprime leading monomials: S-poly reduces to zero
        if count is not None and count.met(sum(big), basis):
            continue  # the leading ideal is complete in this degree
        # chain criterion: some other element divides the lcm and both
        # companion pairs were already treated
        if any(
            k != i
            and k != j
            and all(map(le, lk, big))
            and (min(i, k), max(i, k)) not in pending
            and (min(j, k), max(j, k)) not in pending
            for k, lk in enumerate(lms)
        ):
            continue
        # the remainder's scale does not matter: it is made primitive (monic)
        r, _ = _divide(ring, _s_terms(ring, basis[i], basis[j], big)[0], 1, basis, lead_only=True)
        if not r:
            continue
        lm = next(iter(r))  # the irreducible lead comes first
        basis.append(_make_reducer(ring, lm, r))
        lms.append(lm)
        if count is not None:
            count.remove(lm)
        k = len(basis) - 1
        for i2 in range(k):
            push(i2, k)

    return GroebnerBasis(ring, _minimal(basis, ring))


def _minimal(basis, ring: PolyRing):
    """The minimal basis of a Groebner basis in reducer form: sorted by
    leading monomial, keeping each element whose lead no kept lead divides."""
    minimal: list = []
    for b in sorted(basis, key=lambda b: ring.key(b[0])):
        lm = b[0]
        if not any(all(map(le, h[0], lm)) for h in minimal):
            minimal.append(b)
    return minimal


def minimalize_monomials(monos):
    """Minimal generators of the monomial ideal spanned by monos, sorted."""
    ms = sorted(set(monos), key=lambda m: (sum(m), m))
    out: list = []
    for m in ms:
        if any(mono_divides(g, m) for g in out):
            continue
        out.append(m)
    return tuple(sorted(out))
