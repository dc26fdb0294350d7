"""Independent brute-force reference computations for cross-checking.

Everything here is deliberately naive and shares no code with the library
implementation: dense Fraction matrices, spanning sets instead of Groebner
bases, direct enumeration of monomials. Slow but obviously correct. The
sparse routines at the end are frozen copies of older library code: one
reducer rescales after every elimination step, the other finds each
polynomial's leading monomial by rescanning for the maximum, and the
S-polynomial is built from generic polynomial products. Each is kept as the
reference for the faster one. The Z[t] routines are the Fraction-based
gcd, exact division and (1 - t)-valuation that arith's fraction-free
division replaced. full_column_pass eliminates every product column of a
resolution step, the reference for the columns the resolution skips;
tagged_kernel is the kernel by tagged elimination as the library computed it
in a span of its own, the reference for the kernel and span that one
elimination now fills; per_product_independent is the rank certificate that
tested the products (g, u) one by one, the reference for the mask version.
plain_buchberger is the pair loop with the coprime and chain criteria only,
the reference for the pairs the Hilbert criterion drops. eager_buchberger is
the same loop as it was before it stopped at the lead: every S-polynomial
fully reduced, and the basis tail-reduced at the end by reduced_generators,
the reference for the leading monomials and normal forms of the leads-first
loop. reduced_generators is also the reduced Groebner basis the tests read,
which the library does not build.

Nothing here imports gradedchi at module level: the benchmark harness
imports this file without the library on its path.
"""

from fractions import Fraction
from math import gcd, lcm


def monomials_of_degree(weights, j):
    """All exponent tuples of weighted degree exactly j, in a fixed order."""
    n = len(weights)
    out = []

    def rec(i, rem, cur):
        if i == n:
            if rem == 0:
                out.append(tuple(cur))
            return
        w = weights[i]
        for e in range(rem // w + 1):
            cur.append(e)
            rec(i + 1, rem - e * w, cur)
            cur.pop()

    rec(0, j, [])
    return out


def enumerated_standard_monomials(gb, j):
    """The monomials of weighted degree j that no leading monomial of the
    GroebnerBasis gb divides, by enumerating the whole degree, in ascending
    order of gb.ring.key."""
    leads = gb.leading_monomials()
    out = [
        m
        for m in monomials_of_degree(gb.ring.weights, j)
        if not any(all(a <= b for a, b in zip(lm, m)) for lm in leads)
    ]
    return sorted(out, key=gb.ring.key)


def dense_rank(rows, p=0):
    """Rank of a dense matrix over QQ, or over GF(p) for a prime p, by
    textbook Gaussian elimination."""
    if p:
        rows = [[a % p for a in r] for r in rows]
    else:
        rows = [[Fraction(a) for a in r] for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, len(rows)):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pv = rows[rank][col]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                if p:
                    f = rows[i][col] * pow(pv, -1, p)
                    rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
                else:
                    f = rows[i][col] / pv
                    rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def poly_to_dict(p):
    """Library polynomial to a plain {exponent tuple: Fraction} dict."""
    return {m: Fraction(c) for m, c in p.terms.items()}


def max_wdeg(p):
    """Largest weighted degree among the terms of a library polynomial (-1
    for zero)."""
    w = p.ring.weights
    return max((sum(e * x for e, x in zip(m, w)) for m in p.terms), default=-1)


def _gen_degree(g, weights):
    degs = {sum(e * w for e, w in zip(m, weights)) for m in g}
    assert len(degs) == 1, "oracle requires homogeneous generators"
    return degs.pop()


def ideal_piece_rows(weights, gen_dicts, j):
    """Spanning rows for the degree-j piece of the ideal (gens), dense."""
    monos = monomials_of_degree(weights, j)
    index = {m: k for k, m in enumerate(monos)}
    rows = []
    for g in gen_dicts:
        if not g:
            continue
        dg = _gen_degree(g, weights)
        if dg > j:
            continue
        for m in monomials_of_degree(weights, j - dg):
            row = [Fraction(0)] * len(monos)
            for gm, c in g.items():
                prod = tuple(a + b for a, b in zip(gm, m))
                row[index[prod]] = c
            rows.append(row)
    return monos, rows


def quotient_piece_dim(weights, gen_dicts, j):
    """dim_k (S/(gens))_j for homogeneous gens over the weighted ring S."""
    monos, rows = ideal_piece_rows(weights, gen_dicts, j)
    return len(monos) - dense_rank(rows)


def quotient_dims(weights, gen_dicts, n):
    """Graded dimensions of S/(gens) through degree n."""
    return [quotient_piece_dim(weights, gen_dicts, j) for j in range(n + 1)]


def complete_intersection_dims(degrees, n, top):
    """Coefficients through t^top of prod(1 - t^d for d in degrees) / (1 - t)^n:
    the graded dimensions of a complete intersection of forms of those
    degrees in n standard-graded variables."""
    coeffs = [0] * (top + 1)
    coeffs[0] = 1
    for d in degrees:
        for k in range(top, d - 1, -1):
            coeffs[k] -= coeffs[k - d]
    for _ in range(n):
        for k in range(1, top + 1):
            coeffs[k] += coeffs[k - 1]
    return coeffs


def series_product_check(numerator_coeffs, weights, dims):
    """Verify HS(t) * prod(1 - t^w) == numerator through len(dims)-1.

    numerator_coeffs is a plain list (low degree first); dims the graded
    dimensions. Returns True when every comparable coefficient matches.
    """
    n = len(dims) - 1
    den = [1]
    for w in weights:
        nxt = [0] * (len(den) + w)
        for i, c in enumerate(den):
            nxt[i] += c
            nxt[i + w] -= c
        den = nxt
    for k in range(n + 1):
        s = 0
        for i in range(min(k, len(den) - 1) + 1):
            s += den[i] * dims[k - i]
        want = numerator_coeffs[k] if k < len(numerator_coeffs) else 0
        if s != want:
            return False
    return True


# ---------------------------------------------------------------------------
# randomized instance builders (these do use library types, as inputs only)


def random_monomial(rng, ring, maxdeg):
    """A random non-constant monomial of weighted degree at most maxdeg."""
    for _ in range(20):
        d = rng.randrange(1, maxdeg + 1)
        monos = monomials_of_degree(ring.weights, d)
        if monos:
            return ring.monomial(rng.choice(monos))
    return ring.gen(0)


def random_homogeneous_poly(rng, ring, deg, max_terms=3):
    """A random nonzero homogeneous polynomial of the given degree, or None
    when the degree is unattainable for the ring's weights."""
    monos = monomials_of_degree(ring.weights, deg)
    if not monos:
        return None
    k = min(len(monos), rng.randrange(1, max_terms + 1))
    chosen = rng.sample(monos, k)
    p = ring.zero()
    for m in chosen:
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        p = p + ring.constant(c) * ring.monomial(m)
    return None if p.is_zero else p


# ---------------------------------------------------------------------------
# sparse QQ elimination that rescales after every step


def _primitive_int_row(row):
    """Scale a QQ row to coprime integers with a positive leading entry."""
    if not row:
        return {}
    den = 1
    for v in row.values():
        if isinstance(v, Fraction):
            den = lcm(den, v.denominator)
    num = 0
    ints = {}
    for c, v in row.items():
        n = int(v * den) if isinstance(v, Fraction) else v * den
        if n:
            ints[c] = n
            num = gcd(num, n)
    if not ints:
        return {}
    if ints[min(ints)] < 0:
        num = -num
    if num != 1:
        ints = {c: v // num for c, v in ints.items()}
    return ints


class StepwiseQQSpan:
    """A QQ echelon span whose residual is made primitive, with a positive
    lead, after every elimination step: the reference for the library's
    EchelonSpan, which normalises the input once and then only divides out
    integer content."""

    def __init__(self):
        self.rows = {}

    def reduce(self, vec):
        v = _primitive_int_row(vec)
        while v:
            lead = min(v)
            row = self.rows.get(lead)
            if row is None:
                break
            a, b = v[lead], row[lead]
            g = gcd(a, b)
            sv, sr = b // g, a // g
            if sv != 1:
                v = {c: val * sv for c, val in v.items()}
            for c, val in row.items():
                nv = v.get(c, 0) - sr * val
                if nv:
                    v[c] = nv
                else:
                    v.pop(c, None)
            v = _primitive_int_row(v)
        return v

    def add(self, vec):
        r = self.reduce(vec)
        if r:
            self.rows[min(r)] = r
        return r


def stepwise_qq_kernel(cols, ncols):
    """Kernel basis by tracked reduction over StepwiseQQSpan, in the same
    canonical form as linalg.kernel_of_columns."""
    tag = 1 + max((r for col in cols for r in col), default=-1)
    span = StepwiseQQSpan()
    out = []
    for j in range(ncols):
        vec = dict(cols[j]) if j < len(cols) else {}
        vec[tag + j] = 1
        r = span.reduce(vec)
        lead = min(r)
        if lead >= tag:
            out.append({c - tag: v for c, v in r.items()})
        else:
            span.rows[lead] = r
    return out


# ---------------------------------------------------------------------------
# polynomial division that rescans for the leading monomial


def scan_reduce_against(p, reducers):
    """Normal form of p against an ordered reducer list, by the max-scan
    division groebner.reduce_against replaced: every step rescans the whole
    working polynomial for its largest monomial, and every reducer's lead is
    found afresh.

    Returns (terms, reentries): the remainder's (monomial, coefficient)
    items in the order they were found, and how many times a monomial that
    had cancelled out of the working polynomial entered it again.
    """
    q = p.ring.field.p
    key = p.ring.key
    lead = []
    for r in reducers:
        if r.terms:
            lm = max(r.terms, key=key)
            lead.append((lm, r.terms[lm], r))
    work = dict(p.terms)
    remainder = {}
    cancelled = set()
    reentries = 0
    while work:
        lm = max(work, key=key)
        hit = None
        for lmr, lcr, r in lead:
            if all(a <= b for a, b in zip(lmr, lm)):
                hit = (lmr, lcr, r)
                break
        if hit is None:
            remainder[lm] = work.pop(lm)
            continue
        lmr, lcr, r = hit
        u = tuple(a - b for a, b in zip(lm, lmr))
        c = work[lm] * pow(lcr, -1, q) % q if q else Fraction(work[lm]) / lcr
        for m2, c2 in r.terms.items():
            mm = tuple(a + b for a, b in zip(u, m2))
            if mm not in work and mm in cancelled:
                reentries += 1
            nv = work.get(mm, 0) - c * c2
            if q:
                nv %= q
            if nv:
                work[mm] = nv
            else:
                work.pop(mm, None)
                cancelled.add(mm)
    return list(remainder.items()), reentries


# ---------------------------------------------------------------------------
# S-polynomial from generic products


def mul_s_polynomial(f, g):
    """The S-polynomial u_f * f / lc(f) - u_g * g / lc(g) from two generic
    products of a one-term Poly with f and g, then a difference: a reference
    for groebner's S-pair builder, which works on shifted tails."""
    ring = f.ring
    field = ring.field
    key = ring.key
    lmf, lmg = max(f.terms, key=key), max(g.terms, key=key)
    big = tuple(max(a, b) for a, b in zip(lmf, lmg))
    mf = type(f)(ring, {tuple(a - b for a, b in zip(big, lmf)): field.inv(f.terms[lmf])})
    mg = type(f)(ring, {tuple(a - b for a, b in zip(big, lmg)): field.inv(g.terms[lmg])})
    return mf * f - mg * g


# ---------------------------------------------------------------------------
# Z[t] gcd, exact division and (1 - t)-valuation over Fraction coefficients
#
# Polynomials are coefficient tuples, low degree first, no trailing zeros.


def _frac_poly_mod(a, b):
    a = list(a)
    while len(a) >= len(b):
        c = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, bc in enumerate(b):
            a[shift + i] -= c * bc
        while a and a[-1] == 0:
            a.pop()
        if not a:
            break
    return a


def _primitive_from_fractions(cs):
    den = 1
    for c in cs:
        den = lcm(den, c.denominator)
    ints = [int(c * den) for c in cs]
    g = 0
    for c in ints:
        g = gcd(g, c)
    if g:
        ints = [c // g for c in ints]
    if ints and ints[-1] < 0:
        ints = [-c for c in ints]
    return tuple(ints)


def _content(cs):
    g = 0
    for c in cs:
        g = gcd(g, c)
    return g


def fraction_poly_gcd(a, b):
    """gcd in Z[t] by the Euclidean algorithm over QQ, then made primitive
    with a positive lead and multiplied by the gcd of the contents."""
    if not a and not b:
        return ()
    if not a:
        return b if b[-1] > 0 else tuple(-c for c in b)
    if not b:
        return a if a[-1] > 0 else tuple(-c for c in a)
    c = gcd(_content(a), _content(b))
    fa = [Fraction(x) for x in a]
    fb = [Fraction(x) for x in b]
    while fb:
        fa, fb = fb, _frac_poly_mod(fa, fb)
    return tuple(x * c for x in _primitive_from_fractions(fa))


def fraction_poly_exact_div(a, b):
    """a / b by long division over QQ; raises unless the quotient is in Z[t]
    with no remainder."""
    from gradedchi.errors import AlgebraError  # perfbench/run.py imports oracles without src/

    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return ()
    if len(a) < len(b):
        raise AlgebraError("inexact polynomial division")
    rem = [Fraction(c) for c in a]
    bdeg = len(b) - 1
    qdeg = len(a) - len(b)
    q = [Fraction(0)] * (qdeg + 1)
    for k in range(qdeg, -1, -1):
        c = rem[k + bdeg] / b[-1]
        q[k] = c
        if c:
            for i, bc in enumerate(b):
                rem[k + i] -= c * bc
    if any(rem) or any(x.denominator != 1 for x in q):
        raise AlgebraError("inexact polynomial division")
    return tuple(int(x) for x in q)


def prefix_sum_valuation(p):
    """(k, q) with p = (1 - t)^k q and q(1) != 0: while p(1) = 0, p becomes
    the prefix sums of its coefficients, which is p / (1 - t)."""
    from gradedchi.errors import AlgebraError

    if not p:
        raise AlgebraError("zero polynomial has no valuation")
    k = 0
    while sum(p) == 0:
        acc = 0
        q = []
        for c in p[:-1]:
            acc += c
            q.append(acc)
        p = tuple(q)
        k += 1
    return k, p


# ---------------------------------------------------------------------------
# primality by trial division


def trial_division_is_prime(n):
    """n is prime, decided by trial division up to its square root."""
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


# ---------------------------------------------------------------------------
# rank pass over every column


def full_column_pass(cols, p=0, before=()):
    """Reduce the rows of before, then each column of cols in order, against
    everything inserted ahead of it: plain elimination on dict vectors with
    Fraction entries (p = 0) or residues mod p, every column built and
    reduced. Returns the rank that cols add to the span of before, and one
    flag per column: True where it reduced to zero."""
    rows = {}

    def insert(vec):
        v = {k: x % p for k, x in vec.items()} if p else {k: Fraction(x) for k, x in vec.items()}
        v = {k: x for k, x in v.items() if x}
        while v:
            lead = min(v)
            row = rows.get(lead)
            if row is None:
                inv = pow(v[lead], -1, p) if p else 1 / v[lead]
                rows[lead] = {k: x * inv % p if p else x * inv for k, x in v.items()}
                return True
            f = v[lead]
            for k, x in row.items():
                y = v.get(k, 0) - f * x
                if p:
                    y %= p
                if y:
                    v[k] = y
                else:
                    v.pop(k, None)
        return False

    for r in before:
        insert(r)
    zero = [not insert(c) for c in cols]
    return zero.count(False), zero


def tagged_kernel(cols, ncols, p=0):
    """Canonical kernel basis of the columns, as linalg.kernel_of_columns
    returns it: each column tagged with a unit entry past every row index
    and eliminated (Fraction entries, or residues mod p) against the earlier
    independent ones; a column whose row part vanishes gives its tag part,
    scaled to coprime integers with a positive lead (p = 0) or to lead 1."""
    tag = 1 + max((r for col in cols for r in col), default=-1)
    rows, out = {}, []
    for j in range(ncols):
        v = dict(cols[j]) if j < len(cols) else {}
        v[tag + j] = 1
        v = {k: x % p if p else Fraction(x) for k, x in v.items()}
        v = {k: x for k, x in v.items() if x}
        while min(v) in rows:
            row, f = rows[min(v)], v[min(v)]
            for k, x in row.items():
                y = v.get(k, 0) - f * x
                if p:
                    y %= p
                if y:
                    v[k] = y
                else:
                    v.pop(k, None)
        lead = min(v)
        inv = pow(v[lead], -1, p) if p else 1 / v[lead]
        v = {k: x * inv % p if p else x * inv for k, x in v.items()}
        if lead < tag:
            rows[lead] = v
        else:
            v = {k - tag: x for k, x in v.items()}
            out.append(v if p else _primitive_int_row(v))
    return out


def per_product_independent(rb, elems, pairs, tgt_degs, j):
    """The rank certificate on the products u * elems[g], (g, u) in pairs,
    tested one by one: for the lead (h0, m0) of each generator on its first
    component, then for the lead on its last, every u * m0 must be standard
    in rb and no two products may share (h0, u * m0)."""
    for first in (True, False):
        seen = set()
        prev = None
        for g, u in pairs:
            if g != prev:
                prev, elem = g, elems[g]
                k = len(elem)
                if first:
                    k = 1
                    while k < len(elem) and elem[k][0] == elem[0][0]:
                        k += 1
                h0, m0, _ = elem[k - 1]
                idx = rb.index(j - tgt_degs[h0])
            m = tuple(a + b for a, b in zip(u, m0))
            if m not in idx or (h0, m) in seen:
                break
            seen.add((h0, m))
        else:
            return True
    return False


# ---------------------------------------------------------------------------
# Buchberger without the Hilbert criterion, leads-first and eager


def _pair_loop(gens, ring, lead_only):
    """groebner.buchberger's pair loop with the coprime and chain criteria
    only: every other pair is divided, whatever the Hilbert function says;
    only until its lead with lead_only, fully without. Returns the working
    basis in reducer form and the ring. It looks up groebner's division
    helpers when called, so a counter wrapped around groebner._divide sees
    its reductions too."""
    import heapq
    from operator import le

    from gradedchi import groebner
    from gradedchi.rings import GradedRing, mono_lcm, mono_mul

    polys = [g for g in gens if g is not None and not g.is_zero]
    basis = []
    if isinstance(ring, GradedRing):
        basis, ring = list(map(groebner._reducer, ring.relations)), ring.ambient
    if ring is None:
        ring = polys[0].ring
    basis += map(groebner._reducer, polys)
    lms = [b[0] for b in basis]
    key = ring.key

    heap = []
    pending = set()

    def push(i, j):
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
            continue
        if any(
            k != i
            and k != j
            and all(map(le, lk, big))
            and (min(i, k), max(i, k)) not in pending
            and (min(j, k), max(j, k)) not in pending
            for k, lk in enumerate(lms)
        ):
            continue
        s_terms = groebner._s_terms(ring, basis[i], basis[j], big)[0]
        r, _ = groebner._divide(ring, s_terms, 1, basis, lead_only=lead_only)
        if not r:
            continue
        lm = next(iter(r))
        basis.append(groebner._make_reducer(ring, lm, r))
        lms.append(lm)
        k = len(basis) - 1
        for i2 in range(k):
            push(i2, k)
    return basis, ring


def plain_buchberger(gens, ring=None):
    """groebner.buchberger without the Hilbert criterion: the leads-first
    pair loop of _pair_loop, returning the minimal basis. Takes the same
    arguments and returns the same GroebnerBasis."""
    from gradedchi import groebner

    basis, ring = _pair_loop(gens, ring, lead_only=True)
    return groebner.GroebnerBasis(ring, groebner._minimal(basis, ring))


def reduced_generators(gb):
    """The reduced Groebner basis of a GroebnerBasis: monic Polys in the
    order of its reducers' leading monomials, each element's tail fully
    reduced against the other reducers. No other lead divides an element's
    lead, and no term below the lead is divisible by it, so the lead stays
    and the result is reduced; for a reduced basis this changes nothing."""
    from gradedchi import groebner

    ring, reducers = gb.ring, list(gb.reducers)
    out = []
    for i, (lm, lc, tail) in enumerate(reducers):
        work = dict(tail)
        work[lm] = lc
        r, _ = groebner._divide(ring, work, 1, reducers[:i] + reducers[i + 1 :])
        lm, lc, tail = groebner._make_reducer(ring, lm, r)
        out.append(groebner._scaled_poly(ring, dict(((lm, lc), *tail)), lc))
    return out


def eager_buchberger(gens, ring=None):
    """The pair loop with every S-polynomial fully reduced, then the basis
    minimalized and tail-reduced by reduced_generators: a GroebnerBasis
    whose reducers are already the reduced basis, in order of leading
    monomial."""
    from gradedchi import groebner
    from gradedchi.rings import mono_divides

    basis, ring = _pair_loop(gens, ring, lead_only=False)
    minimal = []
    for b in sorted(basis, key=lambda b: ring.key(b[0])):
        if not any(mono_divides(h[0], b[0]) for h in minimal):
            minimal.append(b)
    reduced = reduced_generators(groebner.GroebnerBasis(ring, minimal))
    return groebner.GroebnerBasis(ring, map(groebner._reducer, reduced))
