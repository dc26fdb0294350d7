"""Exact sparse linear algebra over QQ and GF(p): spans, ranks, kernels.

Vectors are dicts mapping column index to a nonzero coefficient (over GF(p)
any integer; it is taken mod p). Over the rationals every stored row is
scaled to a primitive integer vector whose leading (smallest-index) entry is
positive; over GF(p) the leading entry is 1. Scaling is invisible to row
spaces, so ranks and kernels are unaffected while entries stay small.

EchelonSpan.reduce is the one elimination loop, with one fraction-free step
for both fields: over GF(p) stored leads are 1, so the step rescales
nothing. The field shows only in normalisation and in taking updated
entries mod p. Kernels come from that loop by tracked reduction: columns are
reduced left to right, each tagged with an identity entry, and a column that
reduces to zero yields the unique relation expressing it through the
independent columns before it. That relation, scaled as above, does not
depend on how the reduction got there, so every kernel basis computed here
is canonical: identical inputs give identical output, entry for entry. The
same reduction fills the span it runs in with the rows an add loop over the
columns would store, so one elimination gives a set of columns' rank
(the span's row count), its span and its kernel.
"""

from __future__ import annotations

from math import gcd, lcm


def _primitive_int_row(row: dict) -> dict:
    """A new dict: the QQ row (int or Fraction entries) scaled to coprime
    integers with a positive leading entry, zero entries dropped. The
    caller's dict is never returned, since reduce updates its row in place."""
    try:
        num = gcd(*row.values())  # every entry an int: one C-level gcd
    except TypeError:  # a Fraction entry: clear denominators first
        den = lcm(*[v.denominator for v in row.values()])
        row = {c: v.numerator * (den // v.denominator) for c, v in row.items() if v}
        num = gcd(*row.values())
    if not num:
        return {}
    lead = min(row)
    if not row[lead]:
        lead = min(c for c, v in row.items() if v)
    if row[lead] < 0:
        num = -num
    if num == 1:
        return {c: v for c, v in row.items() if v}
    return {c: v // num for c, v in row.items() if v}


class EchelonSpan:
    """A growing row space kept in echelon form, for ranks and residuals.

    The lead of a row is its smallest column index. reduce() eliminates the
    lead of a vector against stored rows until it is either zero or a fresh
    lead; since stored rows and the normalization are canonical given the
    insertion history, residuals are deterministic.
    """

    __slots__ = ("field", "rows")

    def __init__(self, field):
        self.field = field
        self.rows: dict = {}  # lead column -> normalized row

    def reduce(self, vec: dict) -> dict:
        """Residual of vec modulo the current row space, canonically scaled."""
        p = self.field.p
        if p:
            v = {}
            for c, val in vec.items():
                val %= p
                if val:
                    v[c] = val
        else:
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
                if p:
                    nv %= p
                if nv:
                    v[c] = nv
                else:
                    v.pop(c, None)
            if not p:
                g = 0
                for val in v.values():
                    g = gcd(g, val)
                    if g == 1:
                        break
                if g > 1:
                    v = {c: val // g for c, val in v.items()}
        if not v:
            return {}
        if p:
            inv = pow(v[lead], -1, p)
            return v if inv == 1 else {c: val * inv % p for c, val in v.items()}
        if v[lead] < 0:
            v = {c: -val for c, val in v.items()}
        return v

    def add(self, vec: dict) -> dict:
        """Insert vec; the stored residual, or {} if vec was already spanned."""
        r = self.reduce(vec)
        if r:
            self.rows[min(r)] = r
        return r


def kernel_of_columns(cols, ncols: int, span: EchelonSpan):
    """Canonical basis of the nullspace {x : sum_j x_j * cols[j] = 0},
    eliminating the columns in span, which must be empty.

    Each nonempty column j is tagged with a unit entry at tag + j, past
    every row index, and reduced against the earlier columns: if its row
    part vanishes, the tagged residual is the unique relation
    e_j - sum x_p e_p over the earlier independent columns p; an empty
    column is e_j. One kernel vector per dependent column, in ascending
    column order, indexed by column position. A stored row's lead is a row
    entry and its row part stays proportional to what an add loop over the
    columns stores, so with the tags dropped and rescaled as add scales,
    span ends with that loop's rows, and their count is the rank.
    """
    tag = 1 + max((r for col in cols for r in col), default=-1)
    out = []
    for j in range(ncols):
        if j >= len(cols) or not cols[j]:
            out.append({j: 1})
            continue
        vec = dict(cols[j])
        vec[tag + j] = 1
        r = span.reduce(vec)
        lead = min(r)
        if lead >= tag:
            out.append({c - tag: v for c, v in r.items()})
        else:
            span.rows[lead] = r
    p = span.field.p
    for lead, r in span.rows.items():
        row = {c: v for c, v in r.items() if c < tag}
        span.rows[lead] = row if p else _primitive_int_row(row)
    return out
