"""Brute-force truncated Tor computation by graded linear algebra.

A minimal graded free resolution of R/I over R is built one internal degree
at a time across all homological steps: each graded piece of the kernel of
the previous map is computed as the nullspace of an exact matrix over k on
standard-monomial bases, and minimal generators are the kernel vectors that
survive reduction against products of the generators already found
(degreewise Nakayama). In each degree, the products a step builds are
eliminated once, tagged, for their rank and kernel together, and a rank
count tells which steps gain generators: only there is a kernel read (La
Scala and Stillman, JSC 1998). Tensoring the truncated resolution with R/J
and taking ranks gives the graded Tor table, which cross-checks chi.

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
keeps a table of positions and skip masks per degree and one normal-form
table, monomial -> (monomial, coefficient) pairs.
While a resolution is built, each generator's image is a tuple of
(component, monomial, coefficient) terms read off its residual vector, and
the products u * image are summed from normal-form terms straight into
coordinate dicts. The finished resolution keeps the images in that form,
and the Tor ranks build their columns from them directly.

Most rank passes only confirm a rank that their products' leading terms
already prove, as in the Schreyer frames of La Scala and Stillman. An
image's lead (h0, m0) is taken on its first or on its last component h0,
with m0 the largest monomial there, its last term on h0, since terms are
sorted by coordinate position. If, for one of the two, every kept product
u * g has u * m0 standard and no two share (h0, u * m0), tested on bit
masks over the standard monomials (see GradedBasis._shift), the columns are
triangular under (component ascending, monomial descending), or under
(component descending, monomial descending) for the last: a product lies
on its generator's components only, and normal forms never exceed the
monomial they reduce. So they are independent: the pass takes their count
as its rank and its skip masks as its dead masks, and builds no column and
no span (see _independent). A resolution pass does so only where that count
reaches n_{i-1} - r_{i-1}, so that the cell gains no generator; the Tor
ranks do so wherever the certificate holds. Only the first order serves
two_planes, only the last the cubic cone's steps 2 to 5.

Each cell (i, j) keeps a Cell record of how it was served and what it
counted, and the resolution and the Tor table return theirs, in the order
they ran, as their cells. A cell of the resolution that reads what cell
(i - 2, j - s) read, every degree raised by s, copies its record (rank,
column and kept counts), dead masks (exactly the non-pivot columns, so
canonical) and new generators; a Tor step copies step i - 2's records
likewise (see _period). Cells are deterministic in what they read, so the
copy is exact. It fires over hypersurfaces, whose resolutions become
2-periodic with s the relation's degree (Eisenbud, Trans. AMS 260, 1980),
never where Betti numbers grow. A kernel read reruns the pass it reads
where that pass was copied. It never reads a certified pass: a resolution
pass certifies only where its kept count reaches need = n_{i-1} - r_{i-1},
and its rank is at most need, as its products lie in ker d_{i-1}, so kept =
rank = need and its kept columns have no kernel; step i + 1's need is then
the pass's skipped count, which products of lower generators meet, and the
top step reads only where kept > rank.

Everything here is exact: entries of the Tor table are true dimensions for
all internal degrees <= d_max, because a generator of internal degree above
d_max cannot affect a graded piece of degree <= d_max. Only the alternating
SERIES is truncation-sensitive, so its coefficients are reported exactly up
to the certified completeness bound and never beyond.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from operator import add
from types import MappingProxyType
from typing import NamedTuple

from .errors import AlgebraError
from .groebner import GroebnerBasis, reduce_against
from .linalg import EchelonSpan, kernel_of_columns
from .rings import GradedRing, Poly, homogeneous_gens, ideal_key, standard_step, wdeg

WINDOW = (8, 16)  # the default (i_max, d_max) of a resolution or Tor table


class GradedBasis:
    """Deterministic standard-monomial bases of the graded pieces of a quotient.

    Wraps a Groebner basis with two memos: a table per degree (see _piece),
    which basis, index and dim read, and a normal-form table mapping a
    monomial to (monomial, coefficient) pairs, an integral QQ coefficient
    stored as a plain int, so repeated multiplications during resolution
    building reduce each distinct monomial only once. The ring memoises one
    instance per ideal (see _graded_basis).
    """

    __slots__ = ("gb", "ring", "_leads", "_pieces", "_nf")

    def __init__(self, gb: GroebnerBasis):
        self.gb = gb
        self.ring = gb.ring
        self._leads = frozenset(gb.leading_monomials())
        self._pieces: dict = {}
        self._nf: dict = {}

    def _piece(self, j: int) -> tuple:
        """(basis, index, up, shifts) of degree j: the standard monomials,
        those no leading monomial divides, in ascending order, walked by
        standard_step from the lower degrees' tables; their positions; per
        weight w, up[w][p] masks the products of the p-th standard monomial
        of degree j - w with the variables of weight w; and the shift tables
        into degree j, filled by _shift."""
        t = self._pieces.get(j)
        if t is None:
            if j < 0:
                return (), {}, {}, {}
            weights = self.ring.weights
            below = [self._piece(j - w)[1] for w in weights]
            if j:
                basis = tuple(standard_step(below, self._leads))
            else:
                basis = tuple(m for m in [(0,) * len(weights)] if m not in self._leads)
            up = {w: [0] * len(idx) for w, idx in zip(weights, below)}
            for q, m in enumerate(basis):
                for i, a in enumerate(m):
                    if a:
                        up[weights[i]][below[i][m[:i] + (a - 1,) + m[i + 1 :]]] |= 1 << q
            t = self._pieces[j] = basis, {m: q for q, m in enumerate(basis)}, up, {}
        return t

    def _shift(self, j: int, m0) -> tuple:
        """(pos, ok, image) for u * m0, u over basis(j - deg m0): pos[q] is
        the position of the q-th u times m0 in basis(j), None where it is not
        standard; ok masks the q with a standard product, and image their
        positions. Filled once per (j, m0) in the table of degree j."""
        _, index, _, shifts = self._piece(j)
        t = shifts.get(m0)
        if t is None:
            pos = [index.get(tuple(map(add, u, m0))) for u in self.basis(j - wdeg(m0, self.ring))]
            ok = sum(1 << q for q, p in enumerate(pos) if p is not None)
            t = shifts[m0] = pos, ok, sum(1 << p for p in pos if p is not None)
        return t

    def basis(self, j: int):
        """Standard monomials of degree j in ascending monomial order."""
        return self._piece(j)[0]

    def dim(self, j: int) -> int:
        return len(self._piece(j)[0])

    def index(self, j: int) -> dict:
        """Position of each basis monomial of degree j ({} below degree 0)."""
        return self._piece(j)[1]

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

    def multiply_nf(self, u, p: Poly) -> Poly:
        """Normal form of (monomial u) * p; p need not be reduced."""
        acc: dict = {}
        for v, c in p.terms.items():
            for m2, c2 in self.nf_monomial(tuple(map(add, u, v))):
                acc[m2] = acc.get(m2, 0) + c * c2
        return Poly(self.ring, acc)


def _int_if_integral(c):
    """A QQ coefficient with denominator 1 as a plain int; others unchanged."""
    return c.numerator if isinstance(c, Fraction) and c.denominator == 1 else c


def _graded_basis(ring: GradedRing, gens=()) -> GradedBasis:
    """The ring's memoised GradedBasis of R/<gens>."""
    return ring.cached(("graded_basis", ideal_key(gens)), lambda: GradedBasis(ring.groebner(gens)))


class Cell(NamedTuple):
    """What cell (i, j) of a resolution, or of the Tor ranks, did. how is
    "copied" (from (i - 2, j - s)), "certified", "built" or "top" (i =
    i_max + 1: no rank pass). rank is its pass's rank; cols, kept and built
    count its products, the kept ones and the columns it built. read: it read
    step i - 1's kernel at j; rerun: it reran that pass, a copied one, to do
    so (a certified pass is never read); new: the generators (top vectors)
    it added. A copied cell repeats its source's record but for i, j and
    how: that work was done at the source."""

    i: int
    j: int
    how: str
    rank: int
    cols: int
    kept: int
    built: int
    read: bool
    rerun: bool
    new: int


class TruncatedResolution(NamedTuple):
    """A minimal graded free resolution of R/I over R, truncated at (i_max, d_max).

    degrees[i] lists the generator degrees of F_i (only generators of degree
    <= d_max are found; higher ones cannot influence graded pieces <= d_max).
    images[i][k] is the image of the k-th generator of F_i in F_{i-1}, in
    normal form, as a tuple of (component, monomial, coefficient) terms
    sorted by coordinate position: by component, which indexes F_{i-1}'s
    generators, then by monomial, ascending in the monomial order. The
    rank passes rely on that order: an image's largest monomial on its first
    or its last component is its last term there. Coefficients are ints
    (primitive over QQ, in [0, p) over GF(p)). F_0 = R always, presenting
    the cyclic module R/I.

    top_images generates ker d_{i_max} through degree d_max, in terms over
    F_{i_max}'s generators like images, but not minimally: the kernel
    vectors of step i_max's built columns, degree by degree, with their
    degrees in top_degrees. Its lowest degree is that of the minimal
    F_{i_max+1}. For i_max = 0 the kernel is that of F_0 -> R/I, which is
    I, and top_images holds the ideal's generators in normal form, with
    field-element coefficients. Either way its terms are sorted as images'.
    cells holds a Cell per (i, j), 1 <= i <= i_max + 1, from the ideal's
    lowest degree through d_max, degree-major: the order they ran in.
    """

    ring: GradedRing
    gens: tuple
    i_max: int
    d_max: int
    degrees: tuple
    images: tuple
    top_degrees: tuple
    top_images: tuple
    cells: tuple


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
            for m2, c2 in rb.nf_monomial(tuple(map(add, u, v))):
                k = off + idx[m2]
                col[k] = col.get(k, 0) + c * c2
        cols.append({k: x for k, x in col.items() if x})
    return cols


def truncated_resolution(ring: GradedRing, gens, i_max: int = WINDOW[0], d_max: int = WINDOW[1]):
    """Minimal graded free resolution of R/<gens> over R, exact in all
    internal degrees <= d_max through homological degree i_max; memoised on
    the ring."""
    if i_max < 0 or d_max < 0:
        raise AlgebraError("imax and dmax must be nonnegative")
    gens = homogeneous_gens(ring.ambient, gens, "generator")
    return ring.cached(
        ("resolution", ideal_key(gens), i_max, d_max),
        lambda: _resolve(ring, gens, i_max, d_max),
    )


def _independent(rb: GradedBasis, elems, kept, tgt_degs, j: int) -> bool:
    """True when the degree-j columns u * elems[g], u in the mask kept[g]
    over rb.basis(j - deg elems[g]), are certified independent without
    building them. Each generator's lead is (h0, m0), tried two ways: h0
    the first component of its image, or the last, and m0 the largest
    monomial on h0, which is its last term there, since terms are sorted by
    coordinate position. A product lies on its generator's components only,
    and normal forms never exceed the monomial they reduce; so if every
    kept u * m0 is standard in rb (kept[g] within rb._shift's ok mask) and
    the kept products' images on each h0 are disjoint, that entry is nonzero
    in its column and the column's other entries lie on components past h0
    (before h0 for the last), or on h0 at smaller monomials. The columns are
    then triangular under (component ascending, monomial descending), or
    under (component descending, monomial descending) for the last."""
    for first in (True, False):
        seen: dict = {}
        for elem, mask in zip(elems, kept):
            if not mask:
                continue
            k = len(elem)
            if first:
                k = 1
                while k < len(elem) and elem[k][0] == elem[0][0]:
                    k += 1
            h0, m0, _ = elem[k - 1]
            pos, ok, image = rb._shift(j - tgt_degs[h0], m0)
            if mask & ~ok:
                break
            gone = ok & ~mask  # the image of the kept u is the whole image less these
            while gone:
                low = gone & -gone
                image ^= 1 << pos[low.bit_length() - 1]
                gone ^= low
            hit = seen.get(h0, 0)
            if hit & image:
                break
            seen[h0] = hit | image
        else:
            return True
    return False


def _rank_pass(rb: GradedBasis, elems, degs, tgt_degs, j: int, dead: dict, need=None):
    """Rank pass at internal degree j of one step, over the quotient of rb:
    the degree-j products u * elems[g] (g by degs, then u ascending in the
    monomial order) into the free module on tgt_degs, less the ones a dead
    mask of degree j - w marks as spanned by the products before them.
    dead maps a degree to one bit mask per g over rb.basis(j - degs[g]) of
    the u whose product was skipped or reduced to zero; the pass reads the
    masks of degrees j - w and fills dead[j]. One lookup of rb's table of
    degree j - degs[g] gives g's basis and the masks up[w][p], and each dead
    bit p of degree j - w skips the products in up[w][p], the multiples of
    its u by the variables of weight w; g keeps the other u, a mask. Where
    at least need products are kept and _independent certifies the masks,
    their count is the rank and nothing is built (need None: always build).
    Else one elimination (kernel_of_columns) of the kept products gives
    their span, whose row count is the rank, and their kernel, whose
    vectors' largest indices are the dead columns. Returns the rank, the
    numbers of all and of kept products, and for a built pass (kept, kernel,
    span), kept the kept products' positions among all, else None."""
    below = [(w, dead.get(j - w, ())) for w in sorted(set(rb.ring.weights))]
    bases, masks, keep = [], [], []
    for g, d in enumerate(degs):
        basis, _, up, _ = rb._piece(j - d)
        skip = 0
        for w, marked in below:
            mask = marked[g] if g < len(marked) else 0
            while mask:
                low = mask & -mask
                skip |= up[w][low.bit_length() - 1]
                mask ^= low
        bases.append(basis)
        masks.append(skip)
        keep.append((1 << len(basis)) - 1 ^ skip)  # skip lies within g's basis
    dead[j] = masks
    nkept = sum(map(int.bit_count, keep))
    if need is not None and nkept >= need and _independent(rb, elems, keep, tgt_degs, j):
        return nkept, sum(map(len, bases)), nkept, None
    pairs, kept, offs, n = [], [], [], 0
    for g, (basis, mask) in enumerate(zip(bases, keep)):
        for q, u in enumerate(basis):
            if mask >> q & 1:
                pairs.append((g, u))
                kept.append(n + q)
        offs.append(n)
        n += len(basis)
    cols = _image_columns(rb, elems, pairs, tgt_degs, j)
    span = EchelonSpan(rb.ring.field)
    kernel = kernel_of_columns(cols, len(cols), span)
    for vec in kernel:
        k = max(vec)
        g = pairs[k][0]
        masks[g] |= 1 << (kept[k] - offs[g])
    return len(span.rows), n, nkept, (kept, kernel, span)


def _period(degrees, images, i: int, j: int, dead=None, weights=()):
    """The s > 0 by which all that step i reads below degree j is what
    step i - 2 reads below j - s, every degree raised by s; else None. A Tor
    step reads F_i with its images and F_{i-1}'s degrees. Given dead masks
    and weights, the cell (i, j) in _resolve reads F_i below j, F_{i-1} with
    its images and F_{i-2}'s degrees through j, and the masks of steps i and
    i - 1 at j - w."""
    if dead is None:
        reads, masked = ((i, j, True), (i - 1, j, False)), ()
    else:
        reads, masked = ((i, j, True), (i - 1, j + 1, True), (i - 2, j + 1, False)), (i - 1, i)
    if reads[-1][0] < 2 or not degrees[i - 1] or not degrees[i - 3]:
        return None
    s = degrees[i - 1][0] - degrees[i - 3][0]  # > 0: lowest degrees rise along a minimal resolution
    for k, below, imaged in reads:
        a, b = degrees[k], degrees[k - 2]
        n = bisect_left(a, below)
        if n != bisect_left(b, below - s) or any(x != y + s for x, y in zip(a[:n], b)):
            return None
        if imaged and images[k][:n] != images[k - 2][:n]:
            return None
    same = (dead[k].get(j - w, []) == dead[k - 2].get(j - s - w, []) for k in masked for w in weights)
    return s if all(same) else None


def _resolve(ring: GradedRing, gens, i_max: int, d_max: int) -> TruncatedResolution:
    rb = _graded_basis(ring)
    weights = sorted(set(ring.weights))

    one = (0,) * ring.nvars
    candidates = [q for q in (rb.multiply_nf(one, g) for g in gens) if q]
    candidates.sort(key=lambda p: (p.homogeneous_degree(), p.canonical_key()))

    # At each (i, j), _rank_pass builds the degree-j products of F_i's
    # earlier generators, less those known to be spanned by the ones before
    # them. Their span is the minimal-generator span, and its row count is
    # their rank r_i. For i >= 2 they lie in ker d_{i-1}, of dimension
    # n_{i-1} - r_{i-1} (n_{i-1}: step i-1's full column count, skipped
    # columns included), so the difference counts the new generators at
    # (i, j). Only then is the kernel of step i - 1's elimination read, and
    # its vectors, mapped back to full positions through kept, are tested in
    # canonical order. A generator accepted at degree j is independent of
    # the products, so its own column adds no kernel vector. Generators
    # arrive in ascending degree, so offsets over the partial degree lists
    # are final for every degree <= j. Step i_max + 1 runs no rank pass: it
    # keeps every kernel vector of step i_max's kept columns, which exist
    # where that pass met a zero residual. images[i] keeps each vector as
    # (component, monomial, coefficient) terms. cells[i, j] is the cell's
    # Cell, whose rank, cols and kept step i + 1 reads; a copied cell takes
    # it, dead[i][j] and its new generators from (i - 2, j - s). need is the
    # rank at which (i, j) gains no generator, n_{i-1} - r_{i-1} (step 1:
    # any rank, unless an ideal generator of degree j is tested). There a
    # certified pass, like a copied cell, builds no column and leaves built
    # None. A kernel read at (i + 1, j) reruns a copied pass; it never meets
    # a certified one (see the module docstring).
    degrees = [[0]] + [[] for _ in range(i_max + 1)]
    images = [[] for _ in range(i_max + 2)]
    dead = [{} for _ in range(i_max + 1)]
    cells: dict = {}

    def rank_pass(k, j, need=None):  # step k's pass at j, over its generators below j
        c = bisect_left(degrees[k], j)
        return _rank_pass(rb, images[k][:c], degrees[k][:c], degrees[k - 1], j, dead[k], need)

    start = candidates[0].homogeneous_degree() if candidates else d_max + 1
    for j in range(start, d_max + 1):
        idx = rb.index(j)
        piece = [
            {idx[m]: c for m, c in p.terms.items()}
            for p in candidates
            if p.homogeneous_degree() == j
        ]
        built = None  # step i - 1's (kept, kernel, span) at j; None where it built nothing
        # never leave the i-loop early: over an Artinian ring F_i can have
        # degree-j products, which step i + 1 needs, when F_{i-1} has none
        for i in range(1, i_max + 2):
            top = i > i_max
            prev = cells.get((i - 1, j))
            need = prev.cols - prev.rank if prev else (None if piece else 0)
            # a cell that reads what (i - 2, j - s) read, shifted, copies it
            s = None if top else _period(degrees, images, i, j, dead, weights)
            if s:
                built, src = None, cells[i - 2, j - s]
                cells[i, j], dead[i][j] = src._replace(i=i, j=j, how="copied"), dead[i - 2][j - s]
                lo = bisect_left(degrees[i - 2], j - s)
                degrees[i] += [j] * src.new
                images[i] += images[i - 2][lo : lo + src.new]
                continue
            rank, n, kept, new_built = (0, 0, 0, None) if top else rank_pass(i, j, need)
            read = prev is not None and (prev.kept - prev.rank if top else need - rank) > 0
            if read:  # step i - 1's kernel, rerunning its pass if it built nothing at j
                kept_at, kernel, _ = built or rank_pass(i - 1, j)[3]
                piece = [{kept_at[k]: c for k, c in vec.items()} for vec in kernel]
            had = len(degrees[i])
            if piece:
                # position -> (component, monomial) in the degree-j piece of F_{i-1}
                slots = [(h, m) for h, d in enumerate(degrees[i - 1]) for m in rb.basis(j - d)]
                for vec in piece:
                    r = vec if top else new_built[2].add(vec)  # the span of (i, j)
                    if r:
                        degrees[i].append(j)
                        images[i].append(tuple((*slots[k], c) for k, c in sorted(r.items())))
            how = "top" if top else "built" if new_built else "certified"
            rerun = read and built is None
            cells[i, j] = Cell(i, j, how, rank, n, kept, kept if new_built else 0, read, rerun, len(degrees[i]) - had)
            built, piece = new_built, []  # step i + 1 tests the kernel vectors it reads, if any

    degrees, images = tuple(map(tuple, degrees)), tuple(map(tuple, images))
    return TruncatedResolution(
        ring, gens, i_max, d_max, degrees[:-1], images[:-1], degrees[-1], images[-1], tuple(cells.values())
    )


# ---------------------------------------------------------------------------
# Tor tables


class TorTable(NamedTuple):
    """Graded Tor dimensions dim_k Tor_i(R/I, R/J)_j for i <= i_max, j <= d_max.

    All stored entries are exact; entries is read-only, since the ring's
    memo hands the same table to every caller. chi_complete_through is the
    largest degree whose alternating-sum coefficient is certified complete:
    below the smallest generator degree of F_{i_max+1}, no homological
    degree beyond i_max can contribute. betti lists the generator degrees
    of F_0 ... F_{i_max}: F_{i_max+1} is never resolved, and its lowest
    degree is read off a generating set of ker d_{i_max}. cells holds a Cell
    per rank pass over R/J, step-major, i = 1 ... i_max + 1 (the top set).
    """

    i_max: int
    d_max: int
    entries: dict
    chi_complete_through: int
    betti: tuple
    cells: tuple

    def entry(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)

    def row_total(self, i: int) -> int:
        return sum(v for (ii, _), v in self.entries.items() if ii == i)

    def row_complete(self, i: int) -> bool:
        """Trailing-window heuristic: the top two computed degrees are zero."""
        if self.d_max < 1:
            return False
        return self.entry(i, self.d_max) == 0 and self.entry(i, self.d_max - 1) == 0


def tor_table(ring: GradedRing, I, J, i_max: int = WINDOW[0], d_max: int = WINDOW[1]) -> TorTable:
    """Graded Tor table of (R/I, R/J), by tensoring the truncated minimal
    resolution of R/I with R/J and taking ranks per graded piece, the top
    ranks from the resolution's generating set of ker d_{i_max}; memoised
    on the ring, so a `check` after a `tor` on the same window reuses it."""
    if i_max < 0 or d_max < 0:
        raise AlgebraError("imax and dmax must be nonnegative")
    J = homogeneous_gens(ring.ambient, J, "generator")
    I = homogeneous_gens(ring.ambient, I, "generator")
    return ring.cached(
        ("tor", ideal_key(I), ideal_key(J), i_max, d_max),
        lambda: _tor_table(ring, I, J, i_max, d_max),
    )


def _tor_table(ring: GradedRing, I, J, i_max: int, d_max: int) -> TorTable:
    res = truncated_resolution(ring, I, i_max, d_max)
    nb = _graded_basis(ring, J)
    degrees = (*res.degrees, res.top_degrees)
    images = (*res.images, res.top_images)

    steps = [{} for _ in range(i_max + 2)]  # steps[i][j]: the Cell of step i at degree j
    for i in range(1, i_max + 2):
        s = _period(degrees, images, i, d_max + 1) if i <= i_max else None
        if s:
            shifted = ((j + s, c) for j, c in steps[i - 2].items() if j + s <= d_max)
            steps[i] = {j: c._replace(i=i, j=j, how="copied") for j, c in shifted}
            continue
        dead: dict = {}
        for j in range(min(degrees[i], default=d_max + 1), d_max + 1):
            r, n, kept, out = _rank_pass(nb, images[i], degrees[i], degrees[i - 1], j, dead, 0)
            steps[i][j] = Cell(i, j, "built" if out else "certified", r, n, kept, kept if out else 0, False, False, 0)

    entries: dict = {}
    for i in range(i_max + 1):
        counts = Counter(degrees[i]).items()
        for j in range(d_max + 1):
            dt = sum(n * nb.dim(j - d) for d, n in counts)
            e = dt - sum(step[j].rank for step in steps[i : i + 2] if j in step)
            if e:
                entries[(i, j)] = e

    bound = min(d_max, min(res.top_degrees, default=d_max + 1) - 1)
    return TorTable(
        i_max=i_max,
        d_max=d_max,
        entries=MappingProxyType(entries),
        chi_complete_through=bound,
        betti=res.degrees,
        cells=tuple(c for step in steps for c in step.values()),
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
