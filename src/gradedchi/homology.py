"""Brute-force truncated Tor computation by graded linear algebra.

A minimal graded free resolution of R/I over R is built one internal degree
at a time across all homological steps: each graded piece of the kernel of
the previous map is computed as the nullspace of an exact matrix over k on
standard-monomial bases, and minimal generators are the kernel vectors that
survive reduction against products of the generators already found
(degreewise Nakayama). In each degree, every step's products are
eliminated once for a rank, and a rank count tells which steps gain
generators: only there is a kernel computed (La Scala and Stillman, JSC
1998). Tensoring the truncated resolution with R/J and taking ranks gives
the graded Tor table, which cross-checks the closed-form chi.

The Tor table through step i_max needs the rank of d_{i_max+1} tensored
with R/J, but not a minimal F_{i_max+1}. By exactness im d_{i_max+1} =
ker d_{i_max}, so for any set S generating that kernel, its image in
F_{i_max} tensored with R/J is spanned in degree j by the u * s (s in S, u
a standard monomial of R/J of degree j - deg s), and the rank is that of
those products, whichever S is taken. The resolution keeps such an S: in
each degree, the kernel vectors of step i_max's built products. With the
multiples of the lower-degree ones they span the whole degree-j kernel,
since a skipped product's kernel vector is x times a lower-degree one up to
earlier products (see below). For i_max = 0, d_0 is F_0 -> R/I, whose
kernel is I, and S is the ideal's generators. The lowest degree of S is
where ker d_{i_max} starts, which is min deg F_{i_max+1}.

A step's product columns u * g come in order of g, then of u ascending in
the monomial order, and a column spanned by the ones before it is never
built: the syzygy criterion of F5 (Faugere, ISSAC 2002) in this
degree-major frame. If u' * g = sum c (v * h) over earlier columns, then
x * u' * g = sum c (x * v * h); normal-form terms of x * v are at most
x * v < x * u' (or h < g), so they are earlier columns too; and standard
monomials are closed under division, so every multiple of u' is reached
one variable at a time. Skipping such columns leaves the rank, the stored
span rows and every residual unchanged. At a generator cell the kernel is
taken over the built columns only: a skipped column's kernel vector is x
times a lower-degree one, up to kernel vectors of earlier columns, so the
products of earlier generators and the vectors tested before it span it,
and the minimal-generator test would reject it. The Tor ranks run the same
pass on the products over R/J, from F_1 up to the top set S: the argument
holds word for word with normal forms modulo J, whose standard monomials
are closed under division too, and the elements multiplied need not be
minimal generators.

The inner loop runs on coordinate data, not polynomials. A GradedBasis
keeps one normal-form table, monomial -> (monomial, coefficient) pairs.
While a resolution is built, each generator's image is a tuple of
(component, monomial, coefficient) terms read off its residual vector, and
the products u * image are summed from normal-form terms straight into
coordinate dicts. The finished resolution keeps the images in that form,
and the Tor ranks build their columns from them directly.

Everything here is exact: entries of the Tor table are true dimensions for
all internal degrees <= d_max, because a generator of internal degree above
d_max cannot affect a graded piece of degree <= d_max. Only the alternating
SERIES is truncation-sensitive, so its coefficients are reported exactly up
to the certified completeness bound and never beyond.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from .errors import AlgebraError
from .groebner import GroebnerBasis, reduce_against
from .linalg import EchelonSpan, kernel_of_columns
from .rings import GradedRing, Poly, homogeneous_gens, ideal_key, mono_mul, wdeg


class GradedBasis:
    """Deterministic standard-monomial bases of the graded pieces of a quotient.

    Wraps a Groebner basis with its own dicts of piece bases, monomial
    positions and one normal-form table, so repeated multiplications during
    resolution building reduce each distinct monomial only once. The table
    maps a monomial to its normal form as a tuple of (monomial, coefficient)
    pairs, with an integral QQ coefficient stored as a plain int. The ring
    memoises one instance per ideal (see _graded_basis).
    """

    __slots__ = ("gb", "ring", "_leads", "_basis", "_index", "_nf", "_up")

    def __init__(self, gb: GroebnerBasis):
        self.gb = gb
        self.ring = gb.ring
        self._leads = frozenset(gb.leading_monomials())
        self._basis: dict = {}
        self._index: dict = {}
        self._nf: dict = {}
        self._up: dict = {}

    def basis(self, j: int):
        """Standard monomials of degree j in ascending monomial order, as
        groebner.standard_monomials lists them. A monomial is standard when
        it is no leading monomial and each of its one-variable divisors is
        standard (a leading monomial dividing it properly would divide one
        of those), so degree j is built from the lower degrees' bases."""
        if j < 0:
            return ()
        b = self._basis.get(j)
        if b is None:
            below = [self.index(j - w) for w in self.ring.weights]
            if j:
                found = {m[:k] + (m[k] + 1,) + m[k + 1 :] for k, ms in enumerate(below) for m in ms}
            else:
                found = {(0,) * len(below)}
            b = [
                m
                for m in found
                if m not in self._leads
                and all(not a or m[:k] + (a - 1,) + m[k + 1 :] in below[k] for k, a in enumerate(m))
            ]
            b = self._basis[j] = tuple(sorted(b, key=self.ring.key))
            self._index[j] = {m: i for i, m in enumerate(b)}
        return b

    def dim(self, j: int) -> int:
        return len(self.basis(j))

    def index(self, j: int) -> dict:
        """Position of each basis monomial of degree j ({} below degree 0)."""
        if j < 0:
            return {}
        self.basis(j)
        return self._index[j]

    def nf_monomial(self, m) -> tuple:
        """Normal form of the monomial m, as (monomial, coefficient) pairs."""
        t = self._nf.get(m)
        if t is None:
            if m in self.index(wdeg(m, self.ring)):
                t = ((m, 1),)
            else:
                p = reduce_against(Poly(self.ring, {m: self.ring.field.one}), self.gb)
                t = tuple((m2, _int_if_integral(c)) for m2, c in p.terms.items())
            self._nf[m] = t
        return t

    def _multiples(self, marked, e: int) -> int:
        """Bit mask over basis(e) of the products x * m, for each (w, mask) in
        marked, each variable x of weight w and each monomial m of degree
        e - w whose bit is set in mask. Standard monomials are closed under
        division, so every standard such product is found from basis(e): per
        degree e, up[w][p] masks the products of the p-th monomial of degree
        e - w with the variables of weight w."""
        up = self._up.get(e)
        if up is None:
            weights = self.ring.weights
            up = self._up[e] = {w: [0] * self.dim(e - w) for w in weights}
            for q, m in enumerate(self.basis(e)):
                for k, a in enumerate(m):
                    if a:
                        w = weights[k]
                        up[w][self.index(e - w)[m[:k] + (a - 1,) + m[k + 1 :]]] |= 1 << q
        out = 0
        for w, mask in marked:
            steps = up[w]
            while mask:
                low = mask & -mask
                out |= steps[low.bit_length() - 1]
                mask ^= low
        return out

    def multiply_nf(self, u, p: Poly) -> Poly:
        """Normal form of (monomial u) * p; p need not be reduced."""
        acc: dict = {}
        for v, c in p.terms.items():
            for m2, c2 in self.nf_monomial(mono_mul(u, v)):
                acc[m2] = acc.get(m2, 0) + c * c2
        return Poly(self.ring, acc)


def _int_if_integral(c):
    """A QQ coefficient with denominator 1 as a plain int; others unchanged."""
    return c.numerator if isinstance(c, Fraction) and c.denominator == 1 else c


def _graded_basis(ring: GradedRing, gens=()) -> GradedBasis:
    """The ring's memoised GradedBasis of R/<gens>."""
    return ring.cached(("graded_basis", ideal_key(gens)), lambda: GradedBasis(ring.groebner(gens)))


def _validated_gens(ring: GradedRing, gens):
    gens = homogeneous_gens(ring, gens)
    for g in gens:
        if g.homogeneous_degree() == 0:
            raise AlgebraError(f"generator {g} is a unit; the quotient module is zero")
    return gens


@dataclass(frozen=True)
class TruncatedResolution:
    """A minimal graded free resolution of R/I over R, truncated at (i_max, d_max).

    degrees[i] lists the generator degrees of F_i (only generators of degree
    <= d_max are found; higher ones cannot influence graded pieces <= d_max).
    images[i][k] is the image of the k-th generator of F_i in F_{i-1}, in
    normal form, as a tuple of (component, monomial, coefficient) terms
    sorted by coordinate position: component indexes F_{i-1}'s generators,
    and coefficients are ints (primitive over QQ, in [0, p) over GF(p)).
    F_0 = R always, presenting the cyclic module R/I.

    top_images generates ker d_{i_max} through degree d_max, in terms over
    F_{i_max}'s generators like images, but not minimally: the kernel
    vectors of step i_max's built columns, degree by degree, with their
    degrees in top_degrees. Its lowest degree is that of the minimal
    F_{i_max+1}. For i_max = 0 the kernel is that of F_0 -> R/I, which is
    I, and top_images holds the ideal's generators in normal form, with
    field-element coefficients.
    """

    ring: GradedRing
    gens: tuple
    i_max: int
    d_max: int
    degrees: tuple
    images: tuple
    top_degrees: tuple
    top_images: tuple


def _image_columns(rb: GradedBasis, elems, pairs, tgt_degs, j: int) -> list:
    """Coordinate vectors, in the degree-j piece of the free module with
    generator degrees tgt_degs, of u * elems[g] for each (g, u) in pairs, in
    order. An element is a sequence of (component, monomial, coefficient)
    terms; products of coefficients are summed as plain numbers and only
    exact zeros are dropped: over GF(p) the spans that read the columns take
    their entries mod p."""
    where, off = [], 0
    for d in tgt_degs:
        idx = rb.index(j - d)
        where.append((off, idx))
        off += len(idx)
    cols = []
    for g, u in pairs:
        col: dict = {}
        for h, v, c in elems[g]:
            off, idx = where[h]
            for m2, c2 in rb.nf_monomial(mono_mul(u, v)):
                k = off + idx[m2]
                col[k] = col.get(k, 0) + c * c2
        cols.append({k: x for k, x in col.items() if x})
    return cols


def truncated_resolution(ring: GradedRing, gens, i_max: int = 8, d_max: int = 16):
    """Minimal graded free resolution of R/<gens> over R, exact in all
    internal degrees <= d_max through homological degree i_max; memoised on
    the ring."""
    if i_max < 0 or d_max < 0:
        raise AlgebraError("imax and dmax must be nonnegative")
    gens = _validated_gens(ring, gens)
    return ring.cached(
        ("resolution", ideal_key(gens), i_max, d_max),
        lambda: _resolve(ring, gens, i_max, d_max),
    )


def _rank_pass(rb: GradedBasis, elems, degs, tgt_degs, j: int, dead: dict):
    """Rank pass at internal degree j of one step, over the quotient of rb:
    the degree-j products u * elems[g] (g by degs, then u ascending in the
    monomial order) into the free module on tgt_degs, less the ones a dead
    mask of degree j - w marks as spanned by the products before them.
    dead maps a degree to one bit mask per g over rb.basis(j - degs[g]) of
    the u whose product was skipped or reduced to zero; the pass fills
    dead[j] and drops the degree no later pass steps down to, so degrees
    must come in ascending order. Returns the span of the built products,
    the products themselves, their positions among all products and the
    number of all products."""
    weights = sorted(set(rb.ring.weights))
    below = [(w, dead.get(j - w, ())) for w in weights]
    dead.pop(j - weights[-1], None)
    masks, offs, pairs, kept, n = [], [], [], [], 0
    for g, d in enumerate(degs):
        e = j - d
        basis = rb.basis(e)
        marked = [(w, m[g]) for w, m in below if g < len(m) and m[g]]
        skip = rb._multiples(marked, e) if marked else 0
        if skip:
            for q, u in enumerate(basis):
                if not skip >> q & 1:
                    pairs.append((g, u))
                    kept.append(n + q)
        else:
            pairs += [(g, u) for u in basis]
            kept += range(n, n + len(basis))
        masks.append(skip)
        offs.append(n)
        n += len(basis)
    cols = _image_columns(rb, elems, pairs, tgt_degs, j)
    span = EchelonSpan(rb.ring.field)
    for (g, _), k, col in zip(pairs, kept, cols):
        if not span.add(col):
            masks[g] |= 1 << (k - offs[g])
    dead[j] = masks
    return span, cols, kept, n


def _resolve(ring: GradedRing, gens, i_max: int, d_max: int) -> TruncatedResolution:
    rb = _graded_basis(ring)
    field = ring.field

    one = (0,) * ring.nvars
    candidates = [q for q in (rb.multiply_nf(one, g) for g in gens) if q]
    candidates.sort(key=lambda p: (p.homogeneous_degree(), p.canonical_key()))

    # At each (i, j), _rank_pass builds the degree-j products of F_i's
    # earlier generators, less those known to be spanned by the ones before
    # them. Their span is the minimal-generator span, and its row count is
    # their rank r_i. For i >= 2 they lie in ker d_{i-1}, of dimension
    # n_{i-1} - r_{i-1} (n_{i-1}: step i-1's full column count, skipped
    # columns included), so the difference counts the new generators at
    # (i, j). Only then is that kernel computed, over the kept columns, and
    # its vectors, mapped back to full positions through kept, are tested in
    # canonical order. A generator accepted at degree j is independent of
    # the products, so its own column adds no kernel vector. Generators
    # arrive in ascending degree, so offsets over the partial degree lists
    # are final for every degree <= j. Step i_max + 1 runs no rank pass: it
    # keeps every kernel vector of step i_max's kept columns, which exist
    # where that pass met a zero residual. images[i] keeps each vector as
    # (component, monomial, coefficient) terms.
    degrees = [[0]] + [[] for _ in range(i_max + 1)]
    images = [[] for _ in range(i_max + 2)]
    dead = [{} for _ in range(i_max + 1)]
    start = candidates[0].homogeneous_degree() if candidates else d_max + 1
    for j in range(start, d_max + 1):
        idx = rb.index(j)
        piece = [
            {idx[m]: c for m, c in p.terms.items()}
            for p in candidates
            if p.homogeneous_degree() == j
        ]
        # never leave the i-loop early: over an Artinian ring F_i can have
        # degree-j products, which step i + 1 needs, when F_{i-1} has none
        for i in range(1, i_max + 2):
            top = i > i_max
            if not top:
                span, cols, kept, n = _rank_pass(rb, images[i], degrees[i], degrees[i - 1], j, dead[i])
                rank = len(span.rows)
            if i > 1:
                new = len(prev_cols) - prev_rank if top else prev_n - prev_rank - rank
                kernel = kernel_of_columns(prev_cols, len(prev_cols), field) if new > 0 else []
                piece = [{prev_kept[k]: c for k, c in vec.items()} for vec in kernel]
            if piece:
                # position -> (component, monomial) in the degree-j piece of F_{i-1}
                slots = [(h, m) for h, d in enumerate(degrees[i - 1]) for m in rb.basis(j - d)]
                for vec in piece:
                    r = vec if top else span.add(vec)
                    if r:
                        degrees[i].append(j)
                        images[i].append(tuple((*slots[k], c) for k, c in sorted(r.items())))
            if not top:
                prev_cols, prev_rank, prev_n, prev_kept = cols, rank, n, kept

    degrees, images = tuple(map(tuple, degrees)), tuple(map(tuple, images))
    return TruncatedResolution(ring, gens, i_max, d_max, degrees[:-1], images[:-1], degrees[-1], images[-1])


# ---------------------------------------------------------------------------
# Tor tables


@dataclass(frozen=True)
class TorTable:
    """Graded Tor dimensions dim_k Tor_i(R/I, R/J)_j for i <= i_max, j <= d_max.

    All stored entries are exact; entries is read-only, since the ring's
    memo hands the same table to every caller. chi_complete_through is the
    largest degree whose alternating-sum coefficient is certified complete:
    below the smallest generator degree of F_{i_max+1}, no homological
    degree beyond i_max can contribute. betti lists the generator degrees
    of F_0 ... F_{i_max}: F_{i_max+1} is never resolved, and its lowest
    degree is read off a generating set of ker d_{i_max}.
    """

    i_max: int
    d_max: int
    entries: dict
    chi_complete_through: int
    betti: tuple

    def entry(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)

    def row_total(self, i: int) -> int:
        return sum(v for (ii, _), v in self.entries.items() if ii == i)

    def row_complete(self, i: int) -> bool:
        """Trailing-window heuristic: the top two computed degrees are zero."""
        if self.d_max < 1:
            return False
        return self.entry(i, self.d_max) == 0 and self.entry(i, self.d_max - 1) == 0


def tor_table(ring: GradedRing, I, J, i_max: int = 8, d_max: int = 16) -> TorTable:
    """Graded Tor table of (R/I, R/J), by tensoring the truncated minimal
    resolution of R/I with R/J and taking ranks per graded piece, the top
    ranks from the resolution's generating set of ker d_{i_max}; memoised
    on the ring, so a `check` after a `tor` on the same window reuses it."""
    if i_max < 0 or d_max < 0:
        raise AlgebraError("imax and dmax must be nonnegative")
    J = _validated_gens(ring, J)
    I = _validated_gens(ring, I)
    return ring.cached(
        ("tor", ideal_key(I), ideal_key(J), i_max, d_max),
        lambda: _tor_table(ring, I, J, i_max, d_max),
    )


def _tor_table(ring: GradedRing, I, J, i_max: int, d_max: int) -> TorTable:
    res = truncated_resolution(ring, I, i_max, d_max)
    nb = _graded_basis(ring, J)
    degrees = (*res.degrees, res.top_degrees)
    images = (*res.images, res.top_images)

    ranks: dict = {}
    for i in range(1, i_max + 2):
        dead: dict = {}
        for j in range(min(degrees[i], default=d_max + 1), d_max + 1):
            r = len(_rank_pass(nb, images[i], degrees[i], degrees[i - 1], j, dead)[0].rows)
            if r:
                ranks[(i, j)] = r

    entries: dict = {}
    for i in range(i_max + 1):
        counts = Counter(degrees[i]).items()
        for j in range(d_max + 1):
            dt = sum(n * nb.dim(j - d) for d, n in counts)
            e = dt - ranks.get((i, j), 0) - ranks.get((i + 1, j), 0)
            if e:
                entries[(i, j)] = e

    bound = min(d_max, min(res.top_degrees, default=d_max + 1) - 1)
    return TorTable(
        i_max=i_max,
        d_max=d_max,
        entries=MappingProxyType(entries),
        chi_complete_through=bound,
        betti=res.degrees,
    )


def chi_truncated(tt: TorTable):
    """Alternating-sum coefficients from the Tor table, one per certified
    complete degree."""
    out = []
    for j in range(tt.chi_complete_through + 1):
        c = 0
        for i in range(tt.i_max + 1):
            v = tt.entry(i, j)
            c += v if i % 2 == 0 else -v
        out.append(c)
    return out


def naive_series(tt: TorTable, n: int):
    """Coefficients of the divergent diagnostic series: (-1)^i times the total
    length of Tor_i, for i <= n. Purely a truncated report; no analytic
    continuation is attempted."""
    if n > tt.i_max:
        raise ValueError(f"naive series to order {n} needs i_max >= {n}")
    return [tt.row_total(i) * (1 if i % 2 == 0 else -1) for i in range(n + 1)]
