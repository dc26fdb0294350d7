"""Truncated minimal resolutions, Tor tables, the ambient alternating sum."""

import ast
import hashlib
import json
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from gradedchi import homology
from gradedchi.arith import series_expand
from gradedchi.chi import chi_series, gulliksen_chi
from gradedchi.cli import bundled_sessions, run
from gradedchi.errors import AlgebraError, ImproperIntersectionError
from gradedchi.groebner import reduce_against, standard_monomials
from gradedchi.hilbert import dim_and_mult, hilbert_series
from gradedchi.homology import (
    chi_truncated,
    naive_series,
    tor_table,
    truncated_resolution,
)
from gradedchi.rings import GradedRing, Poly, PolyRing, field_from_name, mono_mul
from gradedchi.session import parse_session

from oracles import (
    dense_rank,
    full_column_pass,
    ideal_piece_rows,
    max_wdeg,
    monomials_of_degree,
    poly_to_dict,
    quotient_dims,
    quotient_piece_dim,
    random_homogeneous_poly,
    random_monomial,
)


CUBIC_SESSION = """\
ring R { vars x, y, z; relations x^3 + y^3 + z^3; }
ideal I = (x + y, z);
"""


def cubic_cone():
    r = PolyRing(("x", "y", "z"))
    x, y, z = r.gens()
    R = GradedRing(r, [x**3 + y**3 + z**3])
    return R, (x + y, z), (y, x + z)


def two_planes():
    r = PolyRing(("x", "y", "z", "w"))
    x, y, z, w = r.gens()
    R = GradedRing(r, [x * z, x * w, y * z, y * w])
    return R, (x, y, w), (y, z, w)


def test_koszul_resolution_of_a_variable():
    r = PolyRing(("x",))
    R = GradedRing(r, ())
    res = truncated_resolution(R, (r.gen(0),), i_max=4, d_max=8)
    assert res.degrees[0] == (0,)
    assert res.degrees[1] == (1,)
    assert all(res.degrees[i] == () for i in range(2, 5))


def test_resolutions_are_memoised_per_session():
    a, b = parse_session(CUBIC_SESSION), parse_session(CUBIC_SESSION)
    res = truncated_resolution(a.ring, a.ideals["I"], i_max=4, d_max=8)
    assert truncated_resolution(a.ring, a.ideals["I"], i_max=4, d_max=8) is res
    other = truncated_resolution(b.ring, b.ideals["I"], i_max=4, d_max=8)
    assert other is not res
    assert (other.degrees, other.images) == (res.degrees, res.images)


def test_tor_tables_are_memoised_and_read_only():
    R, I, J = cubic_cone()
    tt = tor_table(R, I, J, 4, 8)
    assert tor_table(R, tuple(reversed(I)), J, 4, 8) is tt
    assert tor_table(R, I, J, 4, 9) is not tt
    with pytest.raises(TypeError):
        tt.entries[(0, 0)] = 2


def test_resolution_of_zero_ideal_is_rank_one():
    r = PolyRing(("x", "y"))
    R = GradedRing(r, ())
    res = truncated_resolution(R, (), i_max=3, d_max=6)
    assert res.degrees[0] == (0,)
    assert all(res.degrees[i] == () for i in range(1, 4))


def test_conic_cone_periodic_betti_degrees():
    r = PolyRing(("x0", "x1", "x2"))
    x0, x1, x2 = r.gens()
    R = GradedRing(r, [x0 * x2 - x1 * x1])
    res = truncated_resolution(R, (x0, x1), i_max=4, d_max=8)
    assert res.degrees == ((0,), (1, 1), (2, 2), (3, 3), (4, 4))


def test_two_planes_pell_betti_growth():
    R, I, J = two_planes()
    res = truncated_resolution(R, I, i_max=6, d_max=6)
    assert [len(d) for d in res.degrees] == [1, 3, 7, 17, 41, 99, 239]
    # all generator degrees are linear (degree i at step i)
    for i, degs in enumerate(res.degrees):
        assert all(d == i for d in degs)


def test_resolution_is_a_complex_and_minimal():
    rng = random.Random(2021)
    for trial in range(12):
        nv = rng.randrange(2, 4)
        ring = PolyRing(tuple(f"x{i}" for i in range(nv)))
        rels = {random_monomial(rng, ring, 2).leading_monomial() for _ in range(rng.randrange(0, 3))}
        R = GradedRing(ring, [ring.monomial(m) for m in rels])
        I = tuple({random_monomial(rng, ring, 3) for _ in range(rng.randrange(1, 3))})
        res = truncated_resolution(R, I, i_max=4, d_max=7)
        gb = R.groebner()
        for i in range(2, 5):
            for g, img in enumerate(res.images[i]):
                # minimality: no invertible entries
                for h, m, c in img:
                    assert c != 0
                    assert ring.wdeg(m) >= 1
                # complex: d_{i-1} ( d_i (basis g) ) = 0 in R
                composite = {}
                for h, m, c in img:
                    for hh, m2, c2 in res.images[i - 1][h]:
                        term = ring.monomial(mono_mul(m, m2), c * c2)
                        composite[hh] = composite.get(hh, ring.zero()) + term
                for hh, val in composite.items():
                    assert reduce_against(val, gb).is_zero


def test_tor_zero_row_is_quotient_of_sum():
    rng = random.Random(2022)
    for trial in range(10):
        nv = rng.randrange(2, 4)
        ring = PolyRing(tuple(f"x{i}" for i in range(nv)))
        rels = {random_monomial(rng, ring, 2).leading_monomial() for _ in range(rng.randrange(0, 2))}
        R = GradedRing(ring, [ring.monomial(m) for m in rels])
        I = tuple({random_monomial(rng, ring, 3) for _ in range(rng.randrange(1, 3))})
        J = tuple({random_monomial(rng, ring, 3) for _ in range(rng.randrange(1, 3))})
        tt = tor_table(R, I, J, i_max=0, d_max=6)
        rel_polys = [ring.monomial(m) for m in rels]
        dims = quotient_dims(
            ring.weights,
            [poly_to_dict(p) for p in list(rel_polys) + list(I) + list(J)],
            6,
        )
        assert [tt.entry(0, j) for j in range(7)] == dims


def test_cubic_cone_tor_concentration():
    R, I, J = cubic_cone()
    tt = tor_table(R, I, J, i_max=8, d_max=14)
    expected = {(i, (3 * i) // 2): 1 for i in range(9)}
    assert tt.entries == expected
    assert tt.chi_complete_through >= 10
    assert naive_series(tt, 5) == [1, -1, 1, -1, 1, -1]


def test_two_planes_tor_tables():
    R, I, J = two_planes()
    tt = tor_table(R, I, J, i_max=2, d_max=4)
    assert tt.entry(0, 0) == 1
    assert [j for j in range(5) if tt.entry(1, j)] == [1]
    assert tt.entry(1, 1) == 2
    assert naive_series(tt, 2) == [1, -2, 5]


def test_chi_truncated_equals_series_randomized():
    rng = random.Random(2023)
    done = 0
    while done < 12:
        nv = rng.randrange(2, 4)
        ring = PolyRing(tuple(f"x{i}" for i in range(nv)))
        rels = {random_monomial(rng, ring, 3).leading_monomial() for _ in range(rng.randrange(0, 3))}
        R = GradedRing(ring, [ring.monomial(m) for m in rels])
        I = tuple({random_monomial(rng, ring, 3) for _ in range(rng.randrange(1, 3))})
        J = tuple({random_monomial(rng, ring, 3) for _ in range(rng.randrange(1, 3))})
        tt = tor_table(R, I, J, i_max=5, d_max=8)
        trunc = chi_truncated(tt)
        chi = chi_series(R, I, J)
        k = tt.chi_complete_through
        assert [int(c) for c in series_expand(chi, k)] == trunc
        done += 1


def test_naive_series_window_guard():
    R, I, J = cubic_cone()
    tt = tor_table(R, I, J, i_max=2, d_max=6)
    with pytest.raises(ValueError):
        naive_series(tt, 3)


@pytest.mark.parametrize(
    "window",
    [
        pytest.param(lambda R, I, J: tor_table(R, I, J, -3, -3), id="tor-both"),
        pytest.param(lambda R, I, J: tor_table(R, I, J, -1, 3), id="tor-imax"),
        pytest.param(lambda R, I, J: truncated_resolution(R, I, -3, 3), id="resolution-imax"),
    ],
)
def test_negative_window_is_rejected(window):
    R, I, J = cubic_cone()
    with pytest.raises(AlgebraError, match="imax and dmax must be nonnegative"):
        window(R, I, J)


@pytest.mark.parametrize(
    "foreign",
    [
        pytest.param(PolyRing(("x", "y", "z"), field=field_from_name("fp:7")), id="gf7"),
        pytest.param(PolyRing(("x", "y", "z"), (1, 1, 2)), id="weights"),
    ],
)
def test_generators_from_another_ring_are_rejected(foreign):
    # the same variable names, so only the ring check can tell them apart
    ring = PolyRing(("x", "y", "z"))
    R = GradedRing(ring, ())
    x = ring.gen(0)
    u, v, w = foreign.gens()
    for I in ([u - v], [u * u + v * w]):
        with pytest.raises(ValueError, match="does not live in the ambient ring"):
            truncated_resolution(R, I, 2, 5)
        with pytest.raises(ValueError, match="does not live in the ambient ring"):
            tor_table(R, I, [x], 2, 5)
        with pytest.raises(ValueError, match="does not live in the ambient ring"):
            tor_table(R, [x], I, 2, 5)


def test_transverse_koszul_naive():
    ring = PolyRing(("x", "y"))
    R = GradedRing(ring, ())
    tt = tor_table(R, (ring.gen(0),), (ring.gen(1),), i_max=4, d_max=6)
    assert naive_series(tt, 4) == [1, 0, 0, 0, 0]
    assert chi_truncated(tt)[0:2] == [1, 0]


def test_gulliksen_cubic_cone_lines_vanish():
    r = PolyRing(("x", "y", "z"))
    x, y, z = r.gens()
    f = x**3 + y**3 + z**3
    assert gulliksen_chi(r, (f, x + y, z), (f, y, x + z)) == 0


def test_gulliksen_koszul_point():
    r = PolyRing(("x", "y"))
    assert gulliksen_chi(r, (r.gen(0),), (r.gen(1),)) == 1


def test_gulliksen_rejects_improper():
    r = PolyRing(("x", "y"))
    with pytest.raises(ImproperIntersectionError, match="over ambient ring"):
        gulliksen_chi(r, (r.gen(0),), (r.gen(0),))


def test_gulliksen_rejects_ambient_relations():
    r = PolyRing(("x", "y"))
    R = GradedRing(r, [r.gen(0) * r.gen(1)])
    with pytest.raises(ValueError, match="no relations"):
        gulliksen_chi(R, (r.gen(0),), (r.gen(1),))


def test_gulliksen_serre_vanishing_randomized():
    # over a regular ambient ring, defect < 0 forces the alternating sum to 0
    # and defect = 0 makes it the positive Koszul multiplicity
    rng = random.Random(2024)
    vanished = 0
    for _ in range(25):
        ring = PolyRing(("x", "y", "z"))
        x, y, z = ring.gens()
        S = GradedRing(ring, ())
        pick = rng.randrange(3)
        if pick == 0:
            I, J = (x, y), (y, z)  # two lines: 1 + 1 < 3
        elif pick == 1:
            I, J = (x, y), (x, z)
        else:
            a = rng.randrange(1, 3)
            I, J = (x**a, y), (y, z)
        total = gulliksen_chi(ring, I, J)
        sumdim = (
            dim_and_mult(hilbert_series(S, I)).dim
            + dim_and_mult(hilbert_series(S, J)).dim
        )
        if sumdim < 3:
            assert total == 0
            vanished += 1
    assert vanished > 0


def test_gulliksen_transverse_positive():
    ring = PolyRing(("x", "y", "z"))
    x, y, z = ring.gens()
    assert gulliksen_chi(ring, (x, y), (z,)) == 1
    assert gulliksen_chi(ring, (x**2, y), (z,)) == 2


# ---------------------------------------------------------------------------
# the brute-force ambient sum: a test oracle for the closed form


def brute_force_gulliksen(ambient: PolyRing, I, J) -> int:
    """The alternating sum of total Tor lengths over the ambient polynomial
    ring, read off truncated Tor tables.

    The resolution over the ambient ring has length at most the number of
    variables, so the sum is finite; the degree window grows geometrically
    until every Tor row ends in two zero degrees and no resolution generator
    sits near the ceiling.
    """
    S = GradedRing(ambient, ())
    nv = ambient.nvars
    maxdeg = max([max_wdeg(g) for g in tuple(I) + tuple(J)] or [1])
    d = max(8, 2 * maxdeg + nv * max(ambient.weights))
    while True:
        tt = tor_table(S, I, J, i_max=nv, d_max=d)
        top_gen = max((max(degs) for degs in tt.betti if degs), default=0)
        stable = top_gen <= d - 2 and all(tt.row_complete(i) for i in range(nv + 1))
        if stable:
            total = 0
            for i in range(nv + 1):
                v = tt.row_total(i)
                total += v if i % 2 == 0 else -v
            return total
        d *= 2
        if d > 4096:
            raise AlgebraError("alternating sum failed to stabilize; degree window exhausted")


def test_brute_force_oracle_on_known_sums():
    r = PolyRing(("x", "y", "z"))
    x, y, z = r.gens()
    f = x**3 + y**3 + z**3
    assert brute_force_gulliksen(r, (f, x + y, z), (f, y, x + z)) == 0
    assert brute_force_gulliksen(r, (x, y), (z,)) == 1
    assert brute_force_gulliksen(r, (x**2, y), (z,)) == 2


def _random_ambient_instance(rng, field):
    nv = rng.randrange(2, 5)
    weights = tuple(rng.choice((1, 2, 3)) for _ in range(nv))
    ring = PolyRing(tuple(f"x{i}" for i in range(nv)), weights, field=field)

    def ideal():
        gens = (
            random_homogeneous_poly(rng, ring, rng.randrange(1, 5))
            for _ in range(rng.randrange(1, nv))
        )
        return tuple(g for g in gens if g is not None)

    return ring, ideal(), ideal()


@pytest.mark.parametrize("field, seed", [("qq", 3), ("fp:32003", 1)])
def test_gulliksen_closed_form_matches_brute_force_randomized(field, seed):
    rng = random.Random(seed)
    values = []
    for _ in range(60):
        ring, I, J = _random_ambient_instance(rng, field_from_name(field))
        try:
            value = gulliksen_chi(ring, I, J)
        except ImproperIntersectionError:
            continue
        assert value == brute_force_gulliksen(ring, I, J), (ring.weights, I, J)
        values.append(value)
    assert len(values) >= 10
    assert 0 in values  # Serre vanishing: dim S/I + dim S/J < dim S
    assert any(v > 0 for v in values)


def test_oracles_import_no_gradedchi_at_module_level():
    """perfbench/run.py imports tests/oracles.py without src/ on sys.path, so
    an import of gradedchi that runs at import time would crash every
    closed-form benchmark run; imports inside functions are fine."""
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    imported = set()
    stack = list(ast.iter_child_nodes(tree))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue  # runs only when called
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
        stack.extend(ast.iter_child_nodes(node))
    assert imported and not {m for m in imported if m.split(".")[0] == "gradedchi"}


def test_homology_shares_no_module_with_the_closed_form():
    tree = ast.parse(Path(homology.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module)
            if node.module is None:
                imported.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
    forbidden = {"hilbert", "chi", "gradedchi.hilbert", "gradedchi.chi"}
    assert not imported & forbidden


# ---------------------------------------------------------------------------
# exactness and recorded resolutions on seeded random quotient rings


def _random_quotient(rng, field, artinian=False, ideals=1):
    """A random quotient of k[x0, x1(, x2)] with weights in {1, 2, 3}, and
    `ideals` ideals of it. An Artinian ring has every square of a variable as
    a relation; otherwise up to two random homogeneous relations."""
    nv = rng.randrange(2, 4)
    weights = tuple(rng.choice((1, 1, 2, 3)) for _ in range(nv))
    ring = PolyRing(tuple(f"x{i}" for i in range(nv)), weights, field=field)

    def polys(count, low, high):
        out = []
        while len(out) < count:
            p = random_homogeneous_poly(rng, ring, rng.randrange(low, high))
            if p is not None:
                out.append(p)
        return out

    rels = [x * x for x in ring.gens()] if artinian else polys(rng.randrange(0, 3), 2, 5)
    return (GradedRing(ring, rels), *(tuple(polys(rng.randrange(1, 3), 1, 4)) for _ in range(ideals)))


def _rank_mod_relations(weights, rel_dicts, degs, elems, tgt_degs, j, p):
    """Rank over k of the degree-j piece of the R-linear map sending the
    generators (degrees degs) to elems in the free R-module on tgt_degs:
    dense rows of every u * elems[g] in ambient-monomial coordinates, taken
    modulo rows spanning the relation submodule."""
    blocks = [monomials_of_degree(weights, j - d) for d in tgt_degs]
    offs = [sum(len(b) for b in blocks[:h]) for h in range(len(blocks))]
    width = sum(len(b) for b in blocks)
    index = [{m: offs[h] + k for k, m in enumerate(b)} for h, b in enumerate(blocks)]
    img = []
    for elem, d in zip(elems, degs):
        for u in monomials_of_degree(weights, j - d):
            row = [0] * width
            for h, m, c in elem:
                row[index[h][tuple(a + b for a, b in zip(m, u))]] += c
            img.append(row)
    rel = [
        [0] * off + r + [0] * (width - off - len(r))
        for off, d in zip(offs, tgt_degs)
        for r in ideal_piece_rows(weights, rel_dicts, j - d)[1]
    ]
    if p:
        img = [[int(a) for a in r] for r in img]
        rel = [[int(a) for a in r] for r in rel]
    return dense_rank(img + rel, p) - dense_rank(rel, p)


def _assert_exact(R, I, i_max, d_max):
    """ker d_i = im d_{i+1} in every degree <= d_max for 1 <= i < i_max, and
    coker d_1 = R/I, with ranks from dense elimination on ambient
    monomials: no GradedBasis, no library column code, no library
    elimination."""
    res = truncated_resolution(R, I, i_max, d_max)
    weights, p = R.ambient.weights, R.field.p
    rel_dicts = [poly_to_dict(r) for r in R.relations]
    gen_dicts = [poly_to_dict(g) for g in I]
    ranks = {}
    for i in range(1, i_max + 1):
        for j in range(d_max + 1):
            ranks[i, j] = _rank_mod_relations(
                weights, rel_dicts, res.degrees[i], res.images[i], res.degrees[i - 1], j, p
            )
    for j in range(d_max + 1):
        dim_R = quotient_piece_dim(weights, rel_dicts, j)
        assert dim_R - ranks[1, j] == quotient_piece_dim(weights, rel_dicts + gen_dicts, j)
        for i in range(1, i_max):
            dim_F = sum(quotient_piece_dim(weights, rel_dicts, j - d) for d in res.degrees[i])
            assert dim_F - ranks[i, j] == ranks[i + 1, j], (i, j, res.degrees)


@pytest.mark.parametrize("field, seed", [("qq", 5), ("fp:32003", 6)])
def test_resolution_is_exact_randomized(field, seed):
    rng = random.Random(seed)
    for trial in range(12):
        R, I = _random_quotient(rng, field_from_name(field), artinian=trial % 2 == 0)
        _assert_exact(R, I, i_max=4, d_max=6)


@pytest.mark.parametrize("field, seed", [("qq", 41), ("fp:32003", 42)])
def test_tor_is_symmetric_randomized(field, seed):
    """Tor_i(R/I, R/J)_j = Tor_i(R/J, R/I)_j, though the two sides resolve
    different modules and build their columns over different quotients."""
    rng = random.Random(seed)
    for trial in range(30):
        R, I, J = _random_quotient(rng, field_from_name(field), artinian=trial % 2 == 0, ideals=2)
        assert tor_table(R, I, J, 5, 8).entries == tor_table(R, J, I, 5, 8).entries, (R, I, J)


DENSE_CUBIC_CONE = """\
ring R { vars x, y, z; relations 3*x^3 - 5*x^2*y + 7*x*y^2 + 2*y^3 - 4*x^2*z + 6*x*y*z - 9*y^2*z + 8*x*z^2 - y*z^2 + 5*z^3; }
ideal I = (2*x + 3*y - 5*z, 7*x - y + 4*z);
ideal J = (5*x - 2*y + 3*z, x + 6*y - 7*z);
check I J --imax 8 --dmax 14;
"""


def test_dense_cubic_cone_mixes_int_and_fraction_columns():
    sessions = {field: parse_session(DENSE_CUBIC_CONE, field_from_name(field)) for field in ("qq", "fp:32003")}
    betti = {}
    for field, session in sessions.items():
        assert run(session).sections[0][0]["result"] == "PASS", field
        res = truncated_resolution(session.ring, session.ideals["I"], 9, 14)
        betti[field] = [len(d) for d in res.degrees]
    assert betti["qq"] == betti["fp:32003"]
    # over QQ the monic relation has fractional coefficients, so normal forms,
    # and with them the product columns, mix int and Fraction entries
    qq = sessions["qq"]
    rb = homology._graded_basis(qq.ring)
    kinds = {type(c) for m in monomials_of_degree(qq.ring.weights, 3) for _, c in rb.nf_monomial(m)}
    assert kinds == {int, Fraction}
    # the dense oracle takes about 100 s at (8,14); through degree 8 it sees
    # every step that has generators (degrees 0, 1 and 2) and their products
    _assert_exact(qq.ring, qq.ideals["I"], 8, 8)


@pytest.mark.parametrize("field", ["qq", "fp:32003"])
def test_images_are_int_coordinate_terms(field):
    """Each image is a tuple of (component, monomial, coefficient) terms in
    position order, with int coefficients: a primitive row with a positive
    lead over QQ (though normal forms there have Fraction entries), values
    in [0, p) over GF(p)."""
    session = parse_session(DENSE_CUBIC_CONE, field_from_name(field))
    res = truncated_resolution(session.ring, session.ideals["I"], 6, 10)
    p = session.ring.field.p
    assert res.images[0] == ()
    for i in range(1, 7):
        assert type(res.images[i]) is tuple and len(res.images[i]) == len(res.degrees[i])
        for img in res.images[i]:
            assert type(img) is tuple and img
            for term in img:
                assert type(term) is tuple and len(term) == 3
                h, m, c = term
                assert type(h) is int and 0 <= h < len(res.degrees[i - 1])
                assert type(m) is tuple and len(m) == session.ring.nvars
                assert type(c) is int and c != 0
                assert 0 < c < p if p else True
            if not p:
                assert img[0][2] > 0 and gcd(*(c for _, _, c in img)) == 1


def test_graded_basis_index_below_degree_zero_is_empty():
    R, I, J = cubic_cone()
    rb = homology._graded_basis(R, J)
    assert rb.index(-1) == {} and rb.basis(-1) == () and rb.dim(-1) == 0
    assert rb.index(2) == {m: k for k, m in enumerate(rb.basis(2))}
    assert rb.dim(2) == 1


def _basis_cases():
    """(ring, gens) for quotients R/<gens>: every bundled ring, alone and
    with each of its session's ideals, and seeded weighted and Artinian
    random quotients, each over QQ, GF(2) and GF(32003)."""
    cases = []
    for field in ("qq", "fp:2", "fp:32003"):
        for _, text in bundled_sessions():
            session = parse_session(text, field_from_name(field))
            cases += [(session.ring, gens) for gens in ((), *session.ideals.values())]
        rng = random.Random(1500)
        for k in range(6):
            R, I = _random_quotient(rng, field_from_name(field), artinian=k % 2 == 0)
            cases += [(R, ()), (R, I)]
    return cases


def test_graded_basis_matches_standard_monomials():
    """basis(j), built from the lower degrees' bases, is
    standard_monomials(gb, j) in the same order, whichever degree is asked
    first; nf_monomial, which answers a standard monomial by itself, is the
    normal form from reduce_against for every monomial."""
    for R, gens in _basis_cases():
        gb = R.groebner(gens)
        rb = homology.GradedBasis(gb)
        for j in (9, *range(9)):
            assert rb.basis(j) == tuple(standard_monomials(gb, j)), (R, gens, j)
        one = R.field.one
        for j in range(6):
            for m in monomials_of_degree(R.ambient.weights, j):
                nf = reduce_against(Poly(R.ambient, {m: one}), gb)
                assert dict(rb.nf_monomial(m)) == nf.terms, (R, gens, m)


RESOLUTION_GOLDENS = Path(__file__).parent / "goldens" / "resolutions.json"


def _resolution_cases():
    """(name, ring, ideal, i_max, d_max) for the recorded resolutions."""
    cases = []
    for field in ("qq", "fp:32003"):
        k = field_from_name(field)
        r = PolyRing(("x", "y", "z", "w"), field=k)
        x, y, z, w = r.gens()
        cases.append((f"two_planes-{field}", GradedRing(r, [x * z, x * w, y * z, y * w]), (x, y, w), 5, 7))
        r = PolyRing(("x", "y", "z"), field=k)
        x, y, z = r.gens()
        cases.append((f"cubic_cone-{field}", GradedRing(r, [x**3 + y**3 + z**3]), (x + y, z), 8, 14))
    for seed in range(20):
        field = ("qq", "fp:32003")[seed % 2]
        R, I = _random_quotient(random.Random(700 + seed), field_from_name(field), artinian=seed % 4 < 2)
        cases.append((f"random-{seed}-{field}", R, I, 4, 7))
    # over QQ the dense cone's normal forms mix int and Fraction entries
    for field in ("qq", "fp:32003"):
        session = parse_session(DENSE_CUBIC_CONE, field_from_name(field))
        cases.append((f"dense_cubic_cone-{field}", session.ring, session.ideals["I"], 6, 10))
    for seed in range(16):
        field = ("fp:2", "fp:7")[seed % 2]
        R, I = _random_quotient(random.Random(900 + seed), field_from_name(field), artinian=seed % 4 < 2)
        cases.append((f"random-{seed}-{field}", R, I, 4, 7))
    return cases


def _resolution_digest(res):
    """sha256 over the generator degrees and every image, entry for entry.
    Each image is keyed as its components' sorted (monomial, field element)
    pairs, component by component."""
    coerce = res.ring.field.coerce

    def key(img):
        comps = {}
        for h, m, c in img:
            comps.setdefault(h, []).append((m, coerce(c)))
        return tuple((h, tuple(sorted(t))) for h, t in sorted(comps.items()))

    images = tuple(tuple(map(key, step)) for step in res.images)
    return hashlib.sha256(repr((res.degrees, images)).encode()).hexdigest()


def _resolution_entry(R, I, i_max, d_max):
    res = truncated_resolution(R, I, i_max, d_max)
    return {"betti": [len(d) for d in res.degrees], "sha256": _resolution_digest(res)}


def record_resolution_goldens():
    """Append the cases that tests/goldens/resolutions.json lacks, from the
    current code; run as
    `PYTHONPATH=src:tests python -c "import test_homology as t; t.record_resolution_goldens()"`.
    Recorded entries are kept verbatim: if the current code would change one,
    this raises, naming the case, and writes nothing."""
    out = json.loads(RESOLUTION_GOLDENS.read_text())
    for name, R, I, i_max, d_max in _resolution_cases():
        got = _resolution_entry(R, I, i_max, d_max)
        if name not in out:
            out[name] = got
        elif got != out[name]:
            raise ValueError(f"recorded resolution {name!r} would change: {out[name]} -> {got}")
    lines = (f"  {json.dumps(name)}: {json.dumps(entry)}" for name, entry in out.items())
    RESOLUTION_GOLDENS.write_text("{\n" + ",\n".join(lines) + "\n}\n")


def test_resolutions_match_golden():
    """Generator degrees and images are the recorded ones, entry for entry."""
    golden = json.loads(RESOLUTION_GOLDENS.read_text())
    cases = _resolution_cases()
    assert sorted(golden) == sorted(name for name, *_ in cases)
    for name, R, I, i_max, d_max in cases:
        assert _resolution_entry(R, I, i_max, d_max) == golden[name], name


def test_golden_recorder_only_appends(tmp_path, monkeypatch):
    """The recorder adds a missing case after the recorded ones, leaves those
    byte for byte, and refuses to overwrite one that would change."""
    text = RESOLUTION_GOLDENS.read_text()
    golden = json.loads(text)
    last = list(golden)[-1]
    path = tmp_path / "resolutions.json"
    monkeypatch.setitem(globals(), "RESOLUTION_GOLDENS", path)
    path.write_text(text.replace(f",\n  {json.dumps(last)}: {json.dumps(golden[last])}", ""))
    assert last not in json.loads(path.read_text())
    record_resolution_goldens()
    assert path.read_text() == text
    name = "cubic_cone-qq"
    tampered = text.replace(golden[name]["sha256"], "0" * 64)
    path.write_text(tampered)
    with pytest.raises(ValueError, match=name):
        record_resolution_goldens()
    assert path.read_text() == tampered


@pytest.mark.parametrize("name", ["cubic_cone-qq", "cubic_cone-fp:32003", "two_planes-qq", "two_planes-fp:32003"])
def test_kernels_only_where_generators_appear(name, monkeypatch):
    """A kernel is computed at (i, j), 2 <= i <= i_max, only where the rank
    count (n_{i-1} - r_{i-1}) - r_i is positive, which is exactly where F_i
    gains a generator of degree j; and at (i_max + 1, j) only where step
    i_max's built columns are dependent, once per degree of the top
    generating set."""
    calls = []
    kernel = homology.kernel_of_columns

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(homology, "kernel_of_columns", counted)
    (R, I, i_max, d_max), = [case for n, *case in _resolution_cases() if n == name]
    res = truncated_resolution(R, I, i_max, d_max)
    cells = {(i, j) for i in range(2, i_max + 1) for j in res.degrees[i]}
    cells |= {(i_max + 1, j) for j in res.top_degrees}
    assert res.top_degrees and cells and len(calls) == len(cells)


# ---------------------------------------------------------------------------
# skipped product columns against a rank pass over every column

CRITERION_CASES = (
    "cubic_cone-qq",
    "cubic_cone-fp:32003",
    "two_planes-qq",
    "two_planes-fp:32003",
    "random-qq",
    "random-fp:2",
    "random-fp:3",
    "random-fp:32003",
)


def _criterion_cases(name):
    """(ring, ideal, i_max, d_max) cases: one resolution-golden case, or
    eight seeded random quotients over one field (weights in {1, 2, 3},
    every other one Artinian)."""
    if not name.startswith("random-"):
        return [case for n, *case in _resolution_cases() if n == name]
    field = name[len("random-") :]
    rng = random.Random(1300 + CRITERION_CASES.index(name))
    return [(*_random_quotient(rng, field_from_name(field), artinian=k % 2 == 0), 6, 10) for k in range(8)]


def _ambient_column(elem, u):
    """u * elem in coordinates (component, ambient monomial): no normal form."""
    col = {}
    for h, m, c in elem:
        key = (h, tuple(a + b for a, b in zip(u, m)))
        col[key] = col.get(key, 0) + c
    return col


def _relation_rows(R, tgt_degs, j, J=()):
    """Rows spanning the degree-j piece of the submodule generated by the
    relations and the generators of J in each component of the free module
    with generator degrees tgt_degs, in the coordinates above."""
    weights = R.ambient.weights
    rows = []
    for h, d in enumerate(tgt_degs):
        for r in (*R.relations, *J):
            for v in monomials_of_degree(weights, j - d - r.homogeneous_degree()):
                rows.append({(h, tuple(a + b for a, b in zip(v, m))): c for m, c in r.terms.items()})
    return rows


@pytest.mark.parametrize("name", CRITERION_CASES)
def test_skipped_columns_reduce_to_zero_in_a_full_pass(name, monkeypatch):
    """At every (i, j) the resolution builds a subsequence of the products of
    F_i's earlier generators; each one it leaves out reduces to zero against
    all the products before it, and the rank r_i of the built columns is
    the rank of all of them. The reference pass works on ambient monomials
    modulo the relations, with its own elimination."""
    calls = []
    build = homology._image_columns

    def recorded(rb, elems, pairs, tgt_degs, j):
        cols = build(rb, elems, pairs, tgt_degs, j)
        calls.append((j, list(pairs), cols))
        return cols

    monkeypatch.setattr(homology, "_image_columns", recorded)
    built = skipped = 0
    for R, I, i_max, d_max in _criterion_cases(name):
        calls.clear()
        res = truncated_resolution(R, I, i_max, d_max)
        rb = homology._graded_basis(R)
        p = R.field.p
        step = {}
        for j, pairs, cols in calls:
            i = step[j] = step.get(j, 0) + 1  # each degree visits steps 1..i_max in turn
            full = [(g, u) for g, d in enumerate(res.degrees[i]) if d < j for u in rb.basis(j - d)]
            kept = set(pairs)
            assert [q for q in full if q in kept] == pairs, (i, j)
            tgt_degs = [d for d in res.degrees[i - 1] if d <= j]
            rank, zero = full_column_pass(
                [_ambient_column(res.images[i][g], u) for g, u in full], p, _relation_rows(R, tgt_degs, j)
            )
            assert full_column_pass(cols, p)[0] == rank, (i, j)
            for q, z in zip(full, zero):
                if q not in kept:
                    assert z, (i, j, q)
            built += len(pairs)
            skipped += len(full) - len(pairs)
        assert set(step.values()) <= {i_max}
    assert skipped > 0 and built > 0


def _tor_criterion_cases(name):
    """(ring, I, J, i_max, d_max): each criterion case with a second ideal,
    the bundled sessions' J on the golden rings and one or two seeded random
    forms of degree 1 to 3 on the random quotients."""
    rng = random.Random(1400 + CRITERION_CASES.index(name))
    cases = []
    for R, I, i_max, d_max in _criterion_cases(name):
        if name.startswith("cubic_cone"):
            x, y, z = R.ambient.gens()
            J = (y, x + z)
        elif name.startswith("two_planes"):
            x, y, z, w = R.ambient.gens()
            J = (y, z, w)
        else:
            J, count = [], rng.randrange(1, 3)
            while len(J) < count:
                f = random_homogeneous_poly(rng, R.ambient, rng.randrange(1, 4))
                if f is not None:
                    J.append(f)
        cases.append((R, I, tuple(J), i_max, d_max))
    return cases


@pytest.mark.parametrize("name", CRITERION_CASES)
def test_skipped_tor_columns_reduce_to_zero_in_a_full_pass(name, monkeypatch):
    """The Tor ranks run the same criterion over R/J, on F_1 ... F_{i_max}
    and the top generating set: at every (i, j) each product left out
    reduces to zero against all the products before it, and the rank of
    the built products is the rank of all of them. The reference pass works
    on ambient monomials modulo the relations and J's multiples."""
    calls = []
    build = homology._image_columns

    def recorded(rb, elems, pairs, tgt_degs, j):
        cols = build(rb, elems, pairs, tgt_degs, j)
        calls.append((elems, j, list(pairs), cols))
        return cols

    monkeypatch.setattr(homology, "_image_columns", recorded)
    built = skipped = 0
    for R, I, J, i_max, d_max in _tor_criterion_cases(name):
        res = truncated_resolution(R, I, i_max, d_max)
        degrees = (*res.degrees, res.top_degrees)
        images = (*res.images, res.top_images)
        step = {id(e): i for i, e in enumerate(images) if e}
        calls.clear()  # the resolution is memoised: what follows are the Tor ranks
        tor_table(R, I, J, i_max, d_max)
        nb = homology._graded_basis(R, J)
        p = R.field.p
        for elems, j, pairs, cols in calls:
            i = step[id(elems)]
            full = [(g, u) for g, d in enumerate(degrees[i]) if d <= j for u in nb.basis(j - d)]
            kept = set(pairs)
            assert [q for q in full if q in kept] == pairs, (i, j)
            tgt_degs = [d for d in degrees[i - 1] if d <= j]
            rank, zero = full_column_pass(
                [_ambient_column(elems[g], u) for g, u in full], p, _relation_rows(R, tgt_degs, j, J)
            )
            assert full_column_pass(cols, p)[0] == rank, (i, j)
            for q, z in zip(full, zero):
                if q not in kept:
                    assert z, (i, j, q)
            built += len(pairs)
            skipped += len(full) - len(pairs)
    assert skipped > 0 and built > 0


# ---------------------------------------------------------------------------
# the top step against ranks over a minimal F_{i_max+1}


def _old_route_tor(R, I, J, i_max, d_max):
    """Tor entries and completeness bound from the minimal resolution one
    step further, truncated_resolution(R, I, i_max + 1, d_max): ranks over
    every product column of F_1 ... F_{i_max+1} over R/J, no criterion, and
    the bound below the lowest degree of F_{i_max+1}."""
    res = truncated_resolution(R, I, i_max + 1, d_max)
    nb = homology._graded_basis(R, J)
    ranks = {}
    for i in range(1, i_max + 2):
        for j in range(d_max + 1):
            pairs = [(g, u) for g, d in enumerate(res.degrees[i]) for u in nb.basis(j - d)]
            cols = homology._image_columns(nb, res.images[i], pairs, res.degrees[i - 1], j)
            ranks[i, j] = full_column_pass(cols, R.field.p)[0]
    entries = {}
    for i in range(i_max + 1):
        for j in range(d_max + 1):
            e = sum(nb.dim(j - d) for d in res.degrees[i]) - ranks.get((i, j), 0) - ranks[i + 1, j]
            if e:
                entries[i, j] = e
    return entries, min(d_max, min(res.degrees[i_max + 1], default=d_max + 1) - 1)


def _top_step_cases():
    """(label, ring, I, J, golden window) for the criterion cases and for
    every tor or check command of the bundled sessions over QQ and
    GF(32003)."""
    cases = [(name, *case) for name in CRITERION_CASES for case in _tor_criterion_cases(name)]
    for field in ("qq", "fp:32003"):
        for name, text in bundled_sessions():
            session = parse_session(text, field_from_name(field))
            for cmd in session.commands:
                if cmd.kind in ("tor", "check"):
                    I, J = (session.ideals[n] for n in cmd.idents)
                    window = cmd.flags["imax"], cmd.flags["dmax"]
                    cases.append((f"{name}-{field}", session.ring, I, J, *window))
    return cases


def test_top_step_matches_the_minimal_next_step():
    """tor_table reads the top ranks off a generating set of ker d_{i_max};
    its entries and completeness bound are those of the ranks over a minimal
    F_{i_max+1}, for i_max in {0, 1, 2} and the golden window. For
    i_max = 0 the top set is the ideal's generators (ker of F_0 -> R/I is
    I)."""
    seen = 0
    for label, R, I, J, i_max, d_max in _top_step_cases():
        for top in sorted({0, 1, 2, i_max}):
            tt = tor_table(R, I, J, top, d_max)
            old = _old_route_tor(R, I, J, top, d_max)
            assert (dict(tt.entries), tt.chi_complete_through) == old, (label, top)
            assert len(tt.betti) == top + 1
            seen += bool(truncated_resolution(R, I, top, d_max).top_degrees)
    assert seen
