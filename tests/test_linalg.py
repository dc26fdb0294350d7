"""Sparse ranks and kernels over QQ and GF(p), against a dense oracle."""

import random
from fractions import Fraction

import pytest

from gradedchi.linalg import EchelonSpan, _primitive_int_row, kernel_of_columns
from gradedchi.rings import QQ, field_from_name

from oracles import StepwiseQQSpan, dense_rank, stepwise_qq_kernel, tagged_kernel
from oracles import _primitive_int_row as reference_primitive_int_row

P = 32003
GF = field_from_name(f"fp:{P}")
FIELDS = [
    pytest.param(QQ, id="qq"),
    pytest.param(GF, id="gf32003"),
    # at small p a missing reduction mod p or a wrong zero test shows at once
    pytest.param(field_from_name("fp:2"), id="gf2"),
    pytest.param(field_from_name("fp:3"), id="gf3"),
]
PRIME_FIELDS = [f for f in FIELDS if f.values[0].p]


def random_coeff(rng, field):
    if field.p:
        return rng.randrange(1, field.p)
    return Fraction(rng.choice([-5, -3, -2, -1, 1, 2, 3, 4]), rng.choice([1, 1, 2, 3]))


def random_columns(rng, field, nrows, ncols):
    """Sparse columns mixing zero columns, repeated and rescaled columns, and
    combinations of a few random columns, so kernels are usually nontrivial."""
    basis = [
        {r: random_coeff(rng, field) for r in rng.sample(range(nrows), rng.randint(1, min(3, nrows)))}
        for _ in range(rng.randint(1, nrows))
    ]
    cols = []
    for _ in range(ncols):
        kind = rng.random()
        if kind < 0.1:
            col = {}
        elif kind < 0.25 and cols:
            col = dict(rng.choice(cols))
        elif kind < 0.35 and cols:
            c = random_coeff(rng, field)
            col = {r: v * c for r, v in rng.choice(cols).items()}
        else:
            col = {}
            for b in rng.sample(basis, rng.randint(1, min(2, len(basis)))):
                c = random_coeff(rng, field)
                for r, v in b.items():
                    col[r] = col.get(r, 0) + c * v
        if field.p:
            col = {r: v % field.p for r, v in col.items()}
        cols.append({r: v for r, v in col.items() if v})
    return cols


def dense(cols, nrows):
    return [[col.get(r, 0) for col in cols] for r in range(nrows)]


def span_rank(cols, field):
    """The row count of a span filled with add: how the resolution's rank
    pass reads a rank."""
    span = EchelonSpan(field)
    for col in cols:
        span.add(col)
    return len(span.rows)


def annihilates(vec, cols, field):
    acc: dict = {}
    for j, x in vec.items():
        for r, v in cols[j].items():
            acc[r] = acc.get(r, 0) + x * v
    if field.p:
        return all(v % field.p == 0 for v in acc.values())
    return all(v == 0 for v in acc.values())


def canonical_lead(vec, field):
    lead = vec[min(vec)]
    if field.p:
        return lead == 1 and all(0 < v < field.p for v in vec.values())
    return lead > 0 and all(isinstance(v, int) for v in vec.values())


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("seed", range(40))
def test_random_rank_and_kernel_against_dense_oracle(field, seed):
    rng = random.Random(seed)
    nrows, ncols = rng.randint(1, 8), rng.randint(1, 10)
    cols = random_columns(rng, field, nrows, ncols)
    rank = dense_rank(dense(cols, nrows), field.p)
    assert span_rank(cols, field) == rank

    kernel = kernel_of_columns(cols, ncols, EchelonSpan(field))
    assert len(kernel) + rank == ncols
    for vec in kernel:
        assert vec and annihilates(vec, cols, field)
        assert canonical_lead(vec, field)
    rows = [[vec.get(j, 0) for j in range(ncols)] for vec in kernel]
    assert dense_rank(rows, field.p) == len(kernel)


KERNEL_FIELDS = [
    pytest.param(QQ, id="qq"),
    pytest.param(field_from_name("fp:2"), id="gf2"),
    pytest.param(field_from_name("fp:7"), id="gf7"),
    pytest.param(GF, id="gf32003"),
]


@pytest.mark.parametrize("field", KERNEL_FIELDS)
@pytest.mark.parametrize("seed", range(30))
def test_kernel_fills_the_span_an_add_loop_fills(field, seed):
    """One tagged elimination gives the kernel and the span: the kernel is
    the tagged kernel of a span of its own (oracles.tagged_kernel), and the
    span's rows, tags dropped, are those an add loop over the same columns
    stores, so its row count is the rank; each kernel vector's largest index
    is a column that the loop finds spanned, an empty one giving its unit
    vector; neither depends on the order of a column's entries. Columns
    are random (empty, repeated and combined ones among them), and over QQ
    also rows whose leads collide, with Fraction entries."""
    rng = random.Random(900 + seed)
    if not field.p and seed % 2:
        ncols = rng.randint(1, 12)
        cols = random_qq_rows(rng, ncols, rng.randint(2, 6))
    else:
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 12)
        cols = random_columns(rng, field, nrows, ncols)
    ncols += seed % 3  # columns past len(cols) are empty
    span, ref = EchelonSpan(field), EchelonSpan(field)
    kernel = kernel_of_columns(cols, ncols, span)
    assert kernel == tagged_kernel(cols, ncols, field.p)
    spanned = [q for q in range(ncols) if not ref.add(cols[q] if q < len(cols) else {})]
    assert span.rows == ref.rows
    assert [max(vec) for vec in kernel] == spanned
    assert all({q: 1} in kernel for q in range(ncols) if q >= len(cols) or not cols[q])
    shuffled = [dict(rng.sample(list(col.items()), len(col))) for col in cols]
    again = EchelonSpan(field)
    assert kernel_of_columns(shuffled, ncols, again) == kernel and again.rows == span.rows


@pytest.mark.parametrize("field", PRIME_FIELDS)
@pytest.mark.parametrize("seed", range(20))
def test_unreduced_entries_give_the_reduced_rank_and_kernel(field, seed):
    # entries shifted by multiples of p, negative ones among them, and
    # nonzero multiples of p in extra rows: the span reduces mod p itself
    rng = random.Random(300 + seed)
    p = field.p
    nrows, ncols = rng.randint(1, 8), rng.randint(1, 10)
    cols = random_columns(rng, field, nrows, ncols)
    shifted = []
    for col in cols:
        col = {r: v + p * rng.randint(-3, 3) for r, v in col.items()}
        for r in rng.sample(range(nrows, nrows + 3), rng.randint(0, 2)):
            col[r] = p * rng.choice([-2, -1, 1, 2])
        shifted.append({r: v for r, v in col.items() if v})
    assert any(v < 0 or v >= p for col in shifted for v in col.values())
    assert span_rank(shifted, field) == dense_rank(dense(cols, nrows), p)
    assert kernel_of_columns(shifted, ncols, EchelonSpan(field)) == kernel_of_columns(cols, ncols, EchelonSpan(field))
    span, ref = EchelonSpan(field), EchelonSpan(field)
    for col, reduced in zip(shifted, cols):
        assert span.add(col) == ref.add(reduced)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("seed", range(10))
def test_kernel_is_independent_of_entry_order(field, seed):
    rng = random.Random(100 + seed)
    cols = random_columns(rng, field, 6, 9)
    shuffled = []
    for col in cols:
        items = list(col.items())
        rng.shuffle(items)
        shuffled.append(dict(items))
    want = kernel_of_columns(cols, 9, EchelonSpan(field))
    assert kernel_of_columns(shuffled, 9, EchelonSpan(field)) == want


@pytest.mark.parametrize("field", FIELDS)
def test_empty_and_zero_columns(field):
    assert kernel_of_columns([], 0, EchelonSpan(field)) == []
    assert kernel_of_columns([], 2, EchelonSpan(field)) == [{0: 1}, {1: 1}]
    assert kernel_of_columns([{}, {}], 2, EchelonSpan(field)) == [{0: 1}, {1: 1}]
    assert span_rank([], field) == 0
    assert span_rank([{}, {}], field) == 0


def test_pinned_kernel_qq():
    cols = [
        {0: 2, 2: -4},
        {},
        {0: -1, 2: 2},
        {1: Fraction(1, 2), 2: 3},
        {0: 1, 1: Fraction(3, 2), 2: 7},
        {1: 5},
    ]
    assert kernel_of_columns(cols, len(cols), EchelonSpan(QQ)) == [
        {1: 1},
        {0: 1, 2: 2},
        {0: 1, 3: 6, 4: -2},
    ]


def test_pinned_kernel_gf():
    cols = [{0: 3, 1: 5}, {0: 6, 1: 10}, {1: 7, 2: 2}, {}, {0: 3, 1: 12, 2: 2}, {2: 9}]
    assert kernel_of_columns(cols, len(cols), EchelonSpan(GF)) == [
        {0: 1, 1: 16001},
        {3: 1},
        {0: 1, 2: 1, 4: 32002},
    ]


# ---------------------------------------------------------------------------
# QQ elimination against the reducer that rescales after every step


def random_qq_rows(rng, nrows, width):
    """Sparse QQ rows over few columns, so leads collide and most rows need
    elimination steps: int and Fraction entries, either sign of lead, a
    common factor per row, and some rows that are combinations of earlier
    ones."""
    rows = []
    for _ in range(nrows):
        if len(rows) > 1 and rng.random() < 0.25:
            a, b = rng.sample(rows, 2)
            ca, cb = rng.choice([-2, 1, Fraction(1, 3)]), rng.choice([3, -1, Fraction(-5, 2)])
            row = {c: ca * a.get(c, 0) + cb * b.get(c, 0) for c in set(a) | set(b)}
        else:
            factor = rng.choice([1, 1, 2, 6, -10, Fraction(1, 4), Fraction(-3, 2)])
            row = {
                c: factor * Fraction(rng.choice([-7, -4, -3, -1, 1, 2, 5, 9]), rng.choice([1, 1, 1, 2, 3]))
                for c in rng.sample(range(width), rng.randint(2, min(4, width)))
            }
        row = {c: v.numerator if v.denominator == 1 and rng.random() < 0.5 else v for c, v in row.items()}
        rows.append({c: v for c, v in row.items() if v})
    return rows


def int_entries(vec):
    return all(type(v) is int for v in vec.values())


@pytest.mark.parametrize("seed", range(40))
def test_qq_reduce_matches_stepwise_oracle(seed):
    rng = random.Random(500 + seed)
    rows = random_qq_rows(rng, rng.randint(8, 14), rng.randint(3, 7))
    span, ref = EchelonSpan(QQ), StepwiseQQSpan()
    for k, row in enumerate(rows):
        if k % 3 == 2:  # a probe that is not inserted
            got, want = span.reduce(row), ref.reduce(row)
        else:
            got, want = span.add(row), ref.add(row)
        assert got == want and int_entries(got), (k, row)
    assert span.rows == ref.rows


@pytest.mark.parametrize("seed", range(40))
def test_qq_kernel_matches_stepwise_oracle(seed):
    rng = random.Random(600 + seed)
    if seed % 2:
        ncols = rng.randint(1, 12)
        cols = random_qq_rows(rng, ncols, rng.randint(2, 6))
    else:
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 10)
        cols = random_columns(rng, QQ, nrows, ncols)
    got = kernel_of_columns(cols, ncols, EchelonSpan(QQ))
    assert got == stepwise_qq_kernel(cols, ncols)
    assert all(int_entries(vec) for vec in got)


def test_primitive_int_row_matches_oracle_randomized():
    """The all-int fast path and the Fraction path scale as the reference
    does, and neither hands back (or changes) the caller's dict."""
    rng = random.Random(7419)
    kinds = set()
    for _ in range(3000):
        width = rng.randint(1, 6)
        factor = rng.choice([1, 1, -1, 2, -6, 15, Fraction(1, 2), Fraction(-4, 3)])
        row = {
            c: factor * rng.choice([-9, -4, -3, -2, -1, 0, 1, 2, 3, 6, 8])
            for c in rng.sample(range(12), width)
        }
        if rng.random() < 0.5:
            row = {c: v.numerator if isinstance(v, Fraction) and v.denominator == 1 else v for c, v in row.items()}
        before = dict(row)
        got = _primitive_int_row(row)
        kinds.add((int_entries(row), got == row))
        assert got == reference_primitive_int_row(row), row
        assert got is not row and row == before and int_entries(got)
    assert {(True, True), (True, False), (False, False)} <= kinds


@pytest.mark.parametrize("field", FIELDS)
def test_reduce_leaves_its_input_unchanged(field):
    """reduce updates its working row in place; the row it starts from must be
    a copy even when the input is already primitive (or monic)."""
    rng = random.Random(7420)
    span = EchelonSpan(field)
    for _ in range(300):
        vec = {c: random_coeff(rng, field) for c in rng.sample(range(8), rng.randint(1, 4))}
        if not field.p and rng.random() < 0.5:
            vec = {c: v.numerator for c, v in vec.items() if v.denominator == 1} or {0: 1}
        before = dict(vec)
        r = span.reduce(vec)
        assert vec == before and r is not vec
        span.add(vec)
        assert vec == before
