"""Truncated minimal resolutions, Tor tables, the ambient alternating sum."""

import ast
import hashlib
import inspect
import json
import random
import re
import runpy
from collections import Counter
from fractions import Fraction
from math import gcd
from operator import mul
from pathlib import Path

import pytest

from gradedchi import homology
from gradedchi.arith import series_expand
from gradedchi.chi import chi_series, gulliksen_chi
from gradedchi.cli import bundled_sessions, run
from gradedchi.errors import AlgebraError, ImproperIntersectionError
from gradedchi.groebner import reduce_against
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
    enumerated_standard_monomials,
    full_column_pass,
    ideal_piece_rows,
    max_wdeg,
    monomials_of_degree,
    per_product_independent,
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


def _library_imports(name):
    """The gradedchi modules that gradedchi.<name> imports: (at import time,
    inside functions, when they are called)."""
    tree = ast.parse((Path(homology.__file__).parent / f"{name}.py").read_text())
    found = (set(), set())
    stack = [(node, False) for node in tree.body]
    while stack:
        node, deferred = stack.pop()
        if isinstance(node, ast.ImportFrom) and node.level:
            found[deferred].update([node.module.split(".")[0]] if node.module else [a.name for a in node.names])
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            paths = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module]
            found[deferred].update(p.split(".")[1] for p in paths if p.startswith("gradedchi."))
        deferred = deferred or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        stack += [(child, deferred) for child in ast.iter_child_nodes(node)]
    return found


def test_homology_shares_no_module_with_the_closed_form():
    """The import table of the layers. homology imports nothing from hilbert
    or chi, so the brute-force route stays independent of the closed form
    it checks. The rules both routes share sit in the bottom layers, where
    an import from a higher module would make a cycle: arith imports only
    errors; rings only errors and arith, but for GradedRing.groebner, which
    imports groebner when it is called; and groebner none of hilbert, chi,
    homology, session and cli."""
    table = {name: _library_imports(name) for name in ("arith", "rings", "groebner", "homology")}
    assert table["arith"][0] | table["arith"][1] <= {"errors"}
    assert table["rings"][0] <= {"errors", "arith"} and table["rings"][1] <= {"groebner"}
    assert not (table["groebner"][0] | table["groebner"][1]) & {"hilbert", "chi", "homology", "session", "cli"}
    assert table["homology"][0] and not (table["homology"][0] | table["homology"][1]) & {"hilbert", "chi"}


def test_tests_patch_only_the_shortcuts_and_the_eliminations():
    """Tests read what the resolution and the Tor ranks did from their cell
    logs. Every setattr(homology, name, ...) of a monkeypatch under tests/
    turns off a shortcut (_period, _independent) or counts eliminations
    (kernel_of_columns); only the two skipped-column tests record the built
    column lists (_image_columns), and pair them with the logs."""
    patched = set()
    for path in Path(__file__).parent.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                call = ast.unparse(node) if isinstance(node, ast.Call) else ""
                if re.match(r"[\w.]*setattr\(homology, ", call):
                    patched.add((getattr(top, "name", None), ast.literal_eval(node.args[1])))
    names = {name for _, name in patched}
    assert names and names <= {"_period", "_independent", "_image_columns", "kernel_of_columns"}
    assert {test for test, name in patched if name == "_image_columns"} == {
        "test_skipped_columns_reduce_to_zero_in_a_full_pass",
        "test_skipped_tor_columns_reduce_to_zero_in_a_full_pass",
    }


# ---------------------------------------------------------------------------
# exactness and recorded resolutions on seeded random quotient rings


def _random_quotient(rng, field, artinian=False, ideals=1, relations=None):
    """A random quotient of k[x0, x1(, x2)] with weights in {1, 2, 3}, and
    `ideals` ideals of it. An Artinian ring has every square of a variable as
    a relation; otherwise `relations` random homogeneous relations, or up to
    two when that is None."""
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

    if artinian:
        rels = [x * x for x in ring.gens()]
    else:
        rels = polys(rng.randrange(0, 3) if relations is None else relations, 2, 5)
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
    """basis(j), built from the lower degrees' bases, is the enumerated
    standard monomials of degree j in the same order, whichever degree is
    asked first; nf_monomial, which answers a standard monomial by itself,
    is the normal form from reduce_against for every monomial."""
    for R, gens in _basis_cases():
        gb = R.groebner(gens)
        rb = homology.GradedBasis(gb)
        for j in (9, *range(9)):
            assert rb.basis(j) == tuple(enumerated_standard_monomials(gb, j)), (R, gens, j)
        one = R.field.one
        for j in range(6):
            for m in monomials_of_degree(R.ambient.weights, j):
                nf = reduce_against(Poly(R.ambient, {m: one}), gb)
                assert dict(rb.nf_monomial(m)) == nf.terms, (R, gens, m)


WEIGHTED_HYPERSURFACE = """\
ring R { vars x:1, y:1, z:2; relations z^2 - x^4 - y^4; }
ideal I = (x, z - y^2);
ideal J = (y, z - x^2);
"""


def _table_cases():
    """(ring, gens) for quotients R/<gens>: seeded random quotients with
    weights in {1, 2, 3} and unweighted ones, each alone and with an ideal,
    and the weighted hypersurface, over QQ and GF(32003)."""
    cases = []
    for field in ("qq", "fp:32003"):
        k = field_from_name(field)
        rng = random.Random(2800)
        for n in range(4):
            R, I = _random_quotient(rng, k, artinian=n == 3)
            cases += [(R, ()), (R, I)]
        for _ in range(3):
            r = PolyRing(tuple(f"x{i}" for i in range(rng.randrange(2, 5))), field=k)
            rels = [random_homogeneous_poly(rng, r, rng.randrange(2, 4)) for _ in range(rng.randrange(1, 3))]
            R = GradedRing(r, rels)
            cases += [(R, ()), (R, (random_homogeneous_poly(rng, r, rng.randrange(1, 3)),))]
        session = parse_session(WEIGHTED_HYPERSURFACE, k)
        cases += [(session.ring, ()), (session.ring, session.ideals["I"])]
    return cases


def test_graded_basis_table_per_degree():
    """Each degree's table, built from the lower degrees' tables whichever
    degree is asked first: basis(j) is the enumerated standard monomials,
    index(j) their positions, and up[w][p] masks the positions of the
    standard products x * m, m the p-th standard monomial of degree j - w
    and x a variable of weight w. Some products are blocked by a lead. The
    shift table of (j, m0), filled once, places each u * m0 (u standard of
    degree j - deg m0) in basis(j), and masks the u whose product is
    standard and the positions they reach."""
    blocked = shifted = 0
    for R, gens in _table_cases():
        gb = R.groebner(gens)
        rb = homology.GradedBasis(gb)
        units = [tuple(int(i == k) for i in range(R.nvars)) for k in range(R.nvars)]
        for j in (12, *range(12)):
            basis, index, up, _ = rb._piece(j)
            assert basis == rb.basis(j) == tuple(enumerated_standard_monomials(gb, j)), (R, gens, j)
            assert index == rb.index(j) == {m: q for q, m in enumerate(basis)}
            assert sorted(up) == sorted(set(R.weights))
            for w, masks in up.items():
                assert len(masks) == rb.dim(j - w)
                for p, m in enumerate(rb.basis(j - w)):
                    products = [mono_mul(m, x) for x, wx in zip(units, R.weights) if wx == w]
                    assert masks[p] == sum(1 << index[xm] for xm in products if xm in index), (R, gens, j, w, m)
                    blocked += sum(xm not in index for xm in products)
            for m0 in (m for k in range(4) for m in rb.basis(k)):
                pos, ok, image = shift = rb._shift(j, m0)
                want = [index.get(mono_mul(u, m0)) for u in rb.basis(j - sum(map(mul, m0, R.weights)))]
                assert pos == want, (R, gens, j, m0)
                assert ok == sum(1 << q for q, p in enumerate(want) if p is not None)
                assert image == sum(1 << p for p in want if p is not None)
                assert rb._shift(j, m0) is shift
                shifted += ok != (1 << len(want)) - 1
    assert blocked > 0 and shifted > 0
    # z^2 - x^4 - y^4 has lead x^4: of the products of x^3, only y * x^3 is standard
    R = parse_session(WEIGHTED_HYPERSURFACE).ring
    rb = homology._graded_basis(R)
    assert rb._piece(4)[2][1][rb.index(3)[(3, 0, 0)]] == 1 << rb.index(4)[(3, 1, 0)]


@pytest.mark.parametrize("field", ["qq", "fp:32003"])
def test_weighted_hypersurface_check_passes(field):
    """A hypersurface with a variable of weight 2, resolved deep enough that
    cells repeat and the masks of both weights skip columns."""
    session = parse_session(WEIGHTED_HYPERSURFACE + "check I J --imax 12 --dmax 24;\n", field_from_name(field))
    assert run(session).sections[0][0]["result"] == "PASS"


def test_graded_basis_public_methods():
    """The benchmark's layer tracer wraps every public GradedBasis method but
    basis, dim, index and nf_monomial, so a new public helper on the hot
    path would be traced on every call; helpers stay private."""
    public = {n for n, v in vars(homology.GradedBasis).items() if not n.startswith("_") and inspect.isfunction(v)}
    assert public == {"basis", "dim", "index", "nf_monomial", "multiply_nf"}


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
    """With no cell copied from two steps back, kernel vectors are read at
    (i, j), 2 <= i <= i_max, only where the rank count (n_{i-1} - r_{i-1})
    - r_i is positive, which is exactly where F_i gains a generator of
    degree j; and at (i_max + 1, j) only where step i_max's built columns
    are dependent, once per degree of the top generating set. Each read
    kernel is that of step i - 1's pass at j, from the one elimination that
    gave the pass its rank (see _resolved)."""
    monkeypatch.setattr(homology, "_period", _never)
    (R, I, i_max, d_max), = [case for n, *case in _resolution_cases() if n == name]
    res, builds, reads, _ = _resolved(R, I, i_max, d_max)
    cells = {(i, j) for i in range(2, i_max + 1) for j in res.degrees[i]}
    cells |= {(i_max + 1, j) for j in res.top_degrees}
    assert res.top_degrees and cells and len(reads) == len(cells) and set(reads) == cells
    assert len(builds) > len(reads)


def _never(*args):
    """Stands in for homology._period (no cell or step is copied) or
    homology._independent (no rank pass is certified)."""
    return None


def _shortcuts_off(monkeypatch):
    """No certified rank: every rank pass that runs builds and eliminates
    its columns, as it did before the certificate existed. Whole cells and
    Tor steps are still copied from two steps back."""
    monkeypatch.setattr(homology, "_independent", _never)


def _eliminated(build):
    """build() and the number of eliminations (kernel_of_columns calls) it ran."""
    calls, kernel = [], homology.kernel_of_columns

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(homology, "kernel_of_columns", counted)
        return build(), len(calls)


def _work(cells):
    """(builds, reads, reruns) of a cell log in the order they ran: (i, j,
    columns) per pass that built its columns, a cell's own, then step i - 1's
    at j if the cell reran it; the cells (i, j) that read a kernel; the
    reruns, as (i - 1, j). A copied cell did none of the work it records."""
    builds, reads, reruns = [], [], []
    for prev, c in zip((None, *cells), cells):
        if c.how == "copied":
            continue
        if c.how == "built":
            builds.append((c.i, c.j, c.built))
        if c.rerun:
            builds.append((prev.i, prev.j, prev.kept))
            reruns.append((prev.i, prev.j))
        if c.read:
            reads.append((c.i, c.j))
    return builds, reads, reruns


def _resolved(R, I, i_max, d_max):
    """truncated_resolution(R, I, i_max, d_max), built afresh, and the _work
    of its cell log. Each pass the log says built its columns, a rerun
    included, ran exactly one elimination, and nothing else ran one."""
    res, eliminations = _eliminated(lambda: truncated_resolution(R, I, i_max, d_max))
    work = _work(res.cells)
    assert eliminations == len(work[0])
    return (res, *work)


@pytest.mark.parametrize("name", ["cubic_cone-qq", "cubic_cone-fp:32003", "two_planes-qq", "two_planes-fp:32003"])
def test_kernels_only_at_generator_cells_not_copied(name, monkeypatch):
    """A cell copied from two steps back reads no kernel; every other cell
    reads one exactly where F_i gains a generator, so the cells that read
    kernel vectors are the generator cells less the copied ones. Every built
    pass eliminates its columns once, for its rank and its kernel alike. Copying fires on the
    hypersurface and never on two_planes, whose Betti numbers grow. A copied
    cell builds no columns, so the top kernel reruns step i_max's pass at a
    copied cell, exactly where the top set gains vectors; no other pass
    reruns. That holds with certified ranks on, which never serve a
    generator cell, and with them off."""
    for shortcuts in (True, False):
        if not shortcuts:
            monkeypatch.undo()
            _shortcuts_off(monkeypatch)
        (R, I, i_max, d_max), = [case for n, *case in _resolution_cases() if n == name]
        res, _, reads, reruns = _resolved(R, I, i_max, d_max)
        copied = {(c.i, c.j) for c in res.cells if c.how == "copied"}
        cells = {(i, j) for i in range(2, i_max + 1) for j in res.degrees[i]}
        cells |= {(i_max + 1, j) for j in res.top_degrees}
        assert len(reads) == len(set(reads))
        assert set(reads) == cells - copied
        assert bool(copied) == name.startswith("cubic_cone")
        assert sorted(reruns) == sorted({(i_max, j) for j in res.top_degrees} & copied)
        assert bool(reruns) == name.startswith("cubic_cone")


@pytest.mark.parametrize("field", ["qq", "fp:32003"])
@pytest.mark.parametrize("window", [(12, 20), (24, 36)])
def test_periodic_steps_build_no_columns(field, window, monkeypatch):
    """Over the cubic cone the resolution is 2-periodic from step 4 on, so
    every cell of steps 6 to i_max is copied. Steps 6 to i_max - 1 build no
    product column and read no kernel; step i_max builds its columns only
    where the top kernel reads them, at the degrees of the top set. With
    certified ranks on, step 5, whose cells do not repeat step 3's, builds
    only where its columns feed a kernel of step 6; with them off, it builds
    for its other passes too."""
    i_max, d_max = window
    for shortcuts in (True, False):
        if not shortcuts:
            monkeypatch.undo()
            _shortcuts_off(monkeypatch)
        session = parse_session(CUBIC_SESSION, field_from_name(field))
        res, builds, reads, _ = _resolved(session.ring, session.ideals["I"], i_max, d_max)
        columns, degrees = Counter(), {}
        for i, j, n in builds:
            columns[i] += n
            degrees.setdefault(i, set()).update([j] if n else [])
        periodic = range(6, i_max)
        assert not [i for i in columns if i in periodic and columns[i]]
        assert not [cell for cell in reads if cell[0] in periodic]
        assert degrees.get(i_max, set()) == set(res.top_degrees)
        if shortcuts:
            assert columns[4] and degrees[5] == set(res.degrees[6])
        else:
            assert columns[5] and degrees[5] > set(res.degrees[6])


# ---------------------------------------------------------------------------
# cells copied from two steps back against cells computed


def _differential_cases():
    """(label, ring, I, J, i_max, d_max), built afresh on every call so no
    memo carries over: four bundled hypersurface sessions at deep windows and
    six seeded random one-relation quotients, each over QQ, GF(2), GF(3)
    and GF(32003)."""
    texts = {name.split(".")[0]: text for name, text in bundled_sessions()}
    sessions = (
        ("cubic_cone", "I", "J", 16, 24),
        ("quadric_cone", "I", "J", 12, 16),
        ("cuspidal_cubic", "D", "D2", 14, 20),
        ("conic_qcartier", "D", "C", 16, 22),
    )
    cases = []
    for field in ("qq", "fp:2", "fp:3", "fp:32003"):
        k = field_from_name(field)
        for name, a, b, i_max, d_max in sessions:
            session = parse_session(texts[name], k)
            cases.append((f"{name}-{field}", session.ring, session.ideals[a], session.ideals[b], i_max, d_max))
        rng = random.Random(f"one-relation-{field}")
        for n in range(6):
            R, I, J = _random_quotient(rng, k, ideals=2, relations=1)
            cases.append((f"random-{n}-{field}", R, I, J, 9, 14))
    return cases


def test_period_compares_everything_a_step_or_cell_reads():
    """homology._period on the cubic cone's resolution, 2-periodic with
    shift 3 from step 4 on, and on one change at a time. A Tor step i reads
    F_i with its images and F_{i-1}'s degrees; a cell (i, j) of the
    resolution reads F_i below j, F_{i-1} with its images through j, F_{i-2}'s
    degrees through j and the dead masks of steps i and i - 1 at j - w.
    Changing what is read stops the copy; changing anything else does not."""
    session = parse_session(CUBIC_SESSION, field_from_name("qq"))
    res = truncated_resolution(session.ring, session.ideals["I"], 12, 20)
    assert res.degrees[4:9] == ((5, 6), (7, 7), (8, 9), (10, 10), (11, 12))

    def period(change, i, j, masks=False):
        degrees, images = list(res.degrees), list(res.images)
        dead = [{} for _ in degrees]
        dead[8][9], dead[6][6], dead[7][9], dead[5][6] = [1], [1], [2, 0], [2, 0]
        change(degrees, images, dead)
        return homology._period(degrees, images, i, j, *((dead, (1,)) if masks else ()))

    def swap(images, k):
        images[k] = (images[k][1], images[k][0], *images[k][2:])

    def nothing(degrees, images, dead):
        pass

    # Tor step 8 through degree 20
    assert period(nothing, 8, 21) == 3
    assert period(lambda d, im, dead: swap(im, 8), 8, 21) is None
    assert period(lambda d, im, dead: d.__setitem__(8, (11, 11)), 8, 21) is None
    assert period(lambda d, im, dead: d.__setitem__(7, (10, 10, 20)), 8, 21) is None
    assert period(lambda d, im, dead: d.__setitem__(7, (10, 11)), 8, 21) is None
    assert period(lambda d, im, dead: swap(im, 7), 8, 21) == 3
    assert period(lambda d, im, dead: d.__setitem__(4, (5, 7)), 8, 21) == 3
    # cell (8, 10) of the resolution
    assert period(nothing, 8, 10, masks=True) == 3
    assert period(lambda d, im, dead: swap(im, 7), 8, 10, masks=True) is None
    assert period(lambda d, im, dead: d.__setitem__(4, (5, 7)), 8, 10, masks=True) is None
    assert period(lambda d, im, dead: dead[8].__setitem__(9, [3]), 8, 10, masks=True) is None
    assert period(lambda d, im, dead: dead[7].__setitem__(9, [2, 1]), 8, 10, masks=True) is None
    assert period(lambda d, im, dead: dead[8].__setitem__(8, [3]), 8, 10, masks=True) == 3
    assert period(lambda d, im, dead: swap(im, 8), 8, 10, masks=True) == 3
    # no step before 3, and no cell before step 4, has the steps to repeat
    assert period(nothing, 2, 21) is None and period(nothing, 3, 10, masks=True) is None


@pytest.mark.parametrize("copy", ["every step", "odd steps"])
def test_copied_cells_match_computed_ones(copy, monkeypatch):
    """Copying a cell or a Tor step from two steps back is an exact
    shortcut: with it on, resolutions and Tor tables equal those computed
    with it off and no rank certified, field for field. A kernel that reads
    a copied cell's columns reruns that cell's pass: with copying on every
    step, only the top kernel does, at step i_max; with copying on odd steps
    only, a computed cell's kernel does too. Both hold with certified ranks
    on and with them off."""

    def outputs(R, I, J, i_max, d_max):
        res, tt = truncated_resolution(R, I, i_max, d_max), tor_table(R, I, J, i_max, d_max)
        resolution = res.degrees, res.images, res.top_degrees, res.top_images
        return resolution, dict(tt.entries), tt.betti, tt.chi_complete_through

    monkeypatch.setattr(homology, "_period", _never)
    monkeypatch.setattr(homology, "_independent", _never)
    expected = [outputs(*case) for _, *case in _differential_cases()]
    for shortcuts in (True, False):
        monkeypatch.undo()
        if not shortcuts:
            _shortcuts_off(monkeypatch)
        if copy == "odd steps":
            period = homology._period

            def odd(degrees, images, i, *more):
                return i % 2 and period(degrees, images, i, *more)

            monkeypatch.setattr(homology, "_period", odd)
        reruns, copied = Counter(), Counter()
        for (label, R, I, J, i_max, d_max), want in zip(_differential_cases(), expected):
            res, _, _, rerun = _resolved(R, I, i_max, d_max)
            assert outputs(R, I, J, i_max, d_max) == want, label
            reruns.update("top" if i == i_max else "below" for i, _ in rerun)
            copied["cells"] += any(c.how == "copied" for c in res.cells)
            copied["tor steps"] += any(c.how == "copied" for c in tor_table(R, I, J, i_max, d_max).cells)
        assert copied["cells"] and copied["tor steps"] and reruns["top"]
        assert bool(reruns["below"]) == (copy == "odd steps")


# ---------------------------------------------------------------------------
# certified and copied rank passes against passes that build their columns


def _shortcut_cases():
    """(label, ring, I, J, i_max, d_max), built afresh on every call so no
    memo carries over: the recorded resolutions, each with J = I, and
    seeded random quotients with two ideals over QQ, GF(2), GF(7) and
    GF(32003)."""
    cases = [(name, R, I, I, i_max, d_max) for name, R, I, i_max, d_max in _resolution_cases()]
    for field in ("qq", "fp:2", "fp:7", "fp:32003"):
        rng = random.Random(f"certified-{field}")
        for n in range(6):
            R, I, J = _random_quotient(rng, field_from_name(field), artinian=n % 2 == 0, ideals=2)
            cases.append((f"random-{n}-{field}", R, I, J, 5, 8))
    return cases


def test_certified_and_copied_passes_match_built_ones(monkeypatch):
    """Certified ranks are an exact shortcut: with the certificate on, and
    with its ascending order alone, the generator degrees, the images (by
    digest), the top set, the Tor entries and the completeness bound are
    those of the route where every rank pass that runs builds and
    eliminates its columns. Cells and Tor steps are copied on every route.
    The certificate, and its descending order alone, fire on these cases,
    and on every pass the mask certificate gives the verdict of the one
    that tests the products one by one (oracles.per_product_independent)."""
    independent = homology._independent
    fired = Counter()

    ascending = _ascending(independent)

    def certify(*args):
        ok = independent(*args)
        assert ok == per_product_independent(*_per_product_args(*args))
        fired["certified"] += ok
        fired["descending only"] += ok and not ascending(*args)
        return ok

    def outputs(R, I, J, i_max, d_max):
        res, tt = truncated_resolution(R, I, i_max, d_max), tor_table(R, I, J, i_max, d_max)
        return res.degrees, _resolution_digest(res), res.top_degrees, res.top_images, dict(tt.entries), tt.chi_complete_through

    routes = {}
    for route, certificate in (("built", _never), ("certified", certify), ("ascending", ascending)):
        monkeypatch.setattr(homology, "_independent", certificate)
        routes[route] = [(label, outputs(*case)) for label, *case in _shortcut_cases()]
    built = routes.pop("built")
    for route in routes.values():
        for (label, got), (_, want) in zip(route, built):
            assert got == want, label
    assert fired["certified"] and fired["descending only"]


def _ascending(independent):
    """independent (homology._independent) with its ascending order alone:
    each element is cut to its terms on its first component, where its last
    term is the lead of both orders."""

    def ascending(rb, elems, *rest):
        return independent(rb, [tuple(t for t in elem if t[0] == elem[0][0]) for elem in elems], *rest)

    return ascending


def _random_elements(rng, rb, tgt_degs, degs):
    """Random nonzero elements of degrees degs in the free module over the
    quotient of rb on tgt_degs, in standard monomials, as (component,
    monomial, coefficient) terms sorted by coordinate position. Each is a
    sparse random element or, one time in three, a sum of two earlier
    elements' multiples, so that product columns often depend."""
    p = rb.ring.field.p
    coeff = (lambda: rng.randrange(1, p)) if p else (lambda: rng.choice((-3, -2, -1, 1, 2, 3)))
    elems = []
    for d in degs:
        terms = {}
        earlier = [k for k, e in enumerate(degs[: len(elems)]) if e <= d]
        if len(earlier) >= 2 and rng.randrange(3) == 0:
            for k in rng.sample(earlier, 2):
                u = rng.choice(rb.basis(d - degs[k]) or [None])
                for h, v, c in elems[k] if u else ():
                    for m, c2 in rb.nf_monomial(tuple(a + b for a, b in zip(u, v))):
                        terms[h, m] = terms.get((h, m), 0) + c * c2
        if not any(terms.values()):
            terms = {(h, m): coeff() for h, t in enumerate(tgt_degs) for m in rb.basis(d - t) if rng.random() < 0.4}
        place = {(h, m): (h, rb.index(d - tgt_degs[h])[m]) for h, m in terms}
        terms = {hm: c % p if p else c for hm, c in terms.items()}
        elem = tuple((h, m, c) for (h, m), c in sorted(terms.items(), key=lambda t: place[t[0]]) if c)
        elems.append(elem or ((0, rb.basis(d - tgt_degs[0])[0], 1),))
    return elems


def _dense_rank_of_columns(rb, cols, tgt_degs, j):
    width = sum(rb.dim(j - t) for t in tgt_degs)
    return dense_rank([[col.get(k, 0) for k in range(width)] for col in cols], rb.ring.field.p)


def _degree(rb, elem, tgt_degs):
    """The degree of an element of the free module on tgt_degs."""
    h, m, _ = elem[0]
    return tgt_degs[h] + sum(a * w for a, w in zip(m, rb.ring.weights))


def _kept_masks(rb, elems, pairs, tgt_degs, j):
    """The products (g, u) in pairs as one mask per g over the standard
    monomials u of degree j - deg elems[g]: _independent's argument."""
    kept = [0] * len(elems)
    for g, u in pairs:
        kept[g] |= 1 << rb.index(j - _degree(rb, elems[g], tgt_degs))[u]
    return kept


def _per_product_args(rb, elems, kept, tgt_degs, j):
    """_independent's arguments with the masks listed as products (g, u)."""
    pairs = [
        (g, u)
        for g, (elem, mask) in enumerate(zip(elems, kept))
        for q, u in enumerate(rb.basis(j - _degree(rb, elem, tgt_degs)))
        if mask >> q & 1
    ]
    return rb, elems, pairs, tgt_degs, j


def test_certificate_is_sound(monkeypatch):
    """Whenever _independent certifies the products u * elems[g], u in the
    mask of g, their columns are independent: a dense rank of the built
    columns equals their count. Its verdict is that of the certificate that
    tests the products one by one (oracles.per_product_independent).
    Inputs: every product of a resolution's generators over R and over R/J,
    and random halves of them, on the dense cubic cone and seeded random
    quotients; random elements, some of them sums of earlier elements'
    multiples, over random quotients; and every pass that a cubic cone Tor
    table asks about, where many verdicts come from the descending order
    alone."""
    rng = random.Random(2300)
    verdicts = Counter()

    def check(rb, elems, pairs, tgt_degs, j):
        kept = _kept_masks(rb, elems, pairs, tgt_degs, j)
        ok = homology._independent(rb, elems, kept, tgt_degs, j)
        assert ok == per_product_independent(rb, elems, pairs, tgt_degs, j), (elems, pairs, j)
        verdicts[ok] += 1
        verdicts["descending only"] += ok and not _ascending(homology._independent)(rb, elems, kept, tgt_degs, j)
        if ok:
            cols = homology._image_columns(rb, elems, pairs, tgt_degs, j)
            assert _dense_rank_of_columns(rb, cols, tgt_degs, j) == len(pairs), (elems, pairs, j)

    rings = []
    for field in ("qq", "fp:32003"):
        session = parse_session(DENSE_CUBIC_CONE, field_from_name(field))
        rings.append((session.ring, session.ideals["I"], session.ideals["J"]))
    for field in ("qq", "fp:2", "fp:7", "fp:32003"):
        for k in range(4):
            rings.append(_random_quotient(rng, field_from_name(field), artinian=k % 2 == 0, ideals=2))
    for R, I, J in rings:
        res = truncated_resolution(R, I, 4, 7)
        for rb in (homology._graded_basis(R), homology._graded_basis(R, J)):
            for i in range(1, 5):
                degs, elems, tgt = res.degrees[i], res.images[i], res.degrees[i - 1]
                for j in range(8):
                    pairs = [(g, u) for g, d in enumerate(degs) if d <= j for u in rb.basis(j - d)]
                    check(rb, elems, pairs, tgt, j)
                    check(rb, elems, [q for q in pairs if rng.random() < 0.5], tgt, j)
        rb = homology._graded_basis(R, J)
        for _ in range(20):
            tgt = sorted(rng.randrange(0, 3) for _ in range(rng.randrange(1, 4)))
            degs = sorted(tgt[0] + rng.randrange(1, 4) for _ in range(rng.randrange(1, 6)))
            if all(rb.dim(d - tgt[0]) for d in degs):
                elems = _random_elements(rng, rb, tgt, degs)
                for j in range(degs[0], degs[-1] + 3):
                    check(rb, elems, [(g, u) for g, d in enumerate(degs) for u in rb.basis(j - d)], tgt, j)
    independent, asked = homology._independent, []

    def record(*args):
        asked.append(args)
        return independent(*args)

    monkeypatch.setattr(homology, "_independent", record)
    for field in ("qq", "fp:32003"):
        tor_table(*_ladder_case("cubic_cone", field), 8, 14)
    monkeypatch.undo()
    for args in asked:
        check(*_per_product_args(*args))
    assert verdicts[True] > 100 and verdicts[False] > 100 and verdicts["descending only"] > 100


def test_images_are_sorted_by_coordinate_position():
    """Every image and every element of the top set lists its terms in
    strictly ascending coordinate position: by component, then by the
    monomial's place in the standard basis of its degree, ascending in the
    monomial order. _independent reads each generator's lead off that
    order. Checked on the recorded resolutions, and at i_max = 0, where the
    top set is the ideal's generators."""
    generators = 0
    for name, R, I, i_max, d_max in _resolution_cases():
        rb = homology._graded_basis(R)
        for top in (i_max, 0):
            res = truncated_resolution(R, I, top, d_max)
            steps = [(res.degrees[i], res.images[i], res.degrees[i - 1]) for i in range(1, top + 1)]
            steps.append((res.top_degrees, res.top_images, res.degrees[top]))
            generators += len(res.top_images) if top == 0 else 0
            for degs, elems, tgt_degs in steps:
                for d, elem in zip(degs, elems):
                    where = [(h, rb.index(d - tgt_degs[h])[m]) for h, m, _ in elem]
                    assert where == sorted(set(where)), (name, top, d)
    assert generators > len(_resolution_cases())


def _ladder_case(name, field):
    """(ring, I, J) of the benchmark's tor ladder, two_planes or the cubic
    cone, or of the quadric cone, over the named field."""
    k = field_from_name(field)
    if name == "two_planes":
        x, y, z, w = PolyRing(("x", "y", "z", "w"), field=k).gens()
        return GradedRing(x.ring, [x * z, x * w, y * z, y * w]), (x, y, w), (y, z, w)
    if name == "quadric_cone":
        x, y, z, w = PolyRing(("x", "y", "z", "w"), field=k).gens()
        return GradedRing(x.ring, [x * y - z * w]), (x, z), (y, w)
    x, y, z = PolyRing(("x", "y", "z"), field=k).gens()
    return GradedRing(x.ring, [x**3 + y**3 + z**3]), (x + y, z), (y, x + z)


# product columns built for a Tor table, resolution included: with every
# rank pass building its columns (certified ranks off), and with them on
COLUMNS_BUILT = {
    ("two_planes", 6, 8): (4836, 2607),
    ("cubic_cone", 12, 20): (2349, 88),
    ("cubic_cone", 24, 36): (8457, 77),
    ("quadric_cone", 16, 24): (18321, 54),
}


@pytest.mark.parametrize("field", ["qq", "fp:32003"])
@pytest.mark.parametrize("name, i_max, d_max", list(COLUMNS_BUILT))
def test_certified_passes_build_no_columns(name, i_max, d_max, field, monkeypatch):
    """A certified rank pass builds no product column, and with certified
    ranks on, a Tor table with its resolution builds the pinned number of
    columns, fewer than with them off. Read from the two cell logs; every
    pass they say built its columns, a rerun included, went through exactly
    one elimination."""

    def tor_work():
        R, I, J = _ladder_case(name, field)
        tt, eliminations = _eliminated(lambda: tor_table(R, I, J, i_max, d_max))
        logs = truncated_resolution(R, I, i_max, d_max).cells, tt.cells
        builds = [b for cells in logs for b in _work(cells)[0]]
        assert eliminations == len(builds)
        return builds, [c for cells in logs for c in cells if c.how == "certified"]

    builds, certified = tor_work()
    before, now = COLUMNS_BUILT[name, i_max, d_max]
    assert sum(n for *_, n in builds) == now < before
    assert len(certified) > (len(certified) + len(builds)) // 2
    assert not [c for c in certified if c.built]
    _shortcuts_off(monkeypatch)
    assert sum(n for *_, n in tor_work()[0]) == before


@pytest.mark.parametrize("field", ["qq", "fp:32003"])
@pytest.mark.parametrize("name, i_max, d_max", [("cubic_cone", 12, 20), ("cubic_cone", 24, 36), ("quadric_cone", 16, 24)])
def test_hypersurface_passes_build_only_for_generators(name, i_max, d_max, field, monkeypatch):
    """Over the cubic and quadric cones, a rank pass builds columns only
    where they serve a generator: at a cell (i, j) where F_i gains one,
    whose span tests it, or where F_{i+1} or, for i = i_max, the top set
    gains one, whose kernel reads step i's columns (a rerun included).
    Every other pass is certified or copied from two steps back. With the
    certificate's ascending order alone, passes of steps 2 to 5 on the
    cubic cone, and 2 to 4 on the quadric cone, build columns that serve no
    generator."""
    independent = homology._independent
    texts = {n.split(".")[0]: text for n, text in bundled_sessions()}
    for descending in (True, False):
        if not descending:
            monkeypatch.undo()
            monkeypatch.setattr(homology, "_independent", _ascending(independent))
        session = parse_session(texts[name], field_from_name(field))
        res, builds, _, _ = _resolved(session.ring, session.ideals["I"], i_max, d_max)
        generator_cells = {(i, j) for i in range(1, i_max + 1) for j in res.degrees[i]}
        generator_cells |= {(i_max + 1, j) for j in res.top_degrees}
        idle = {i for i, j, n in builds if n and not generator_cells & {(i, j), (i + 1, j)}}
        ascending_only = {2, 3, 4, 5} if name == "cubic_cone" else {2, 3, 4}
        assert idle == (set() if descending else ascending_only), idle


@pytest.mark.parametrize("field", ["qq", "fp:32003"])
@pytest.mark.parametrize(
    "name, i_max, d_max", [("cubic_cone", 12, 20), ("cubic_cone", 24, 36), ("quadric_cone", 16, 24), ("two_planes", 6, 8)]
)
def test_top_step_builds_only_at_top_set_degrees(name, i_max, d_max, field):
    """Step i_max builds product columns exactly at the degrees of the top
    set, whose kernel reads them. On the hypersurfaces its cells are copied
    from two steps back, and a copied cell's pass reruns only where the top
    set gains vectors; on two_planes its passes elsewhere are certified or
    empty. With (24, 36) the top set is empty below d_max, so step i_max
    builds nothing."""
    R, I, _ = _ladder_case(name, field)
    res, builds, _, _ = _resolved(R, I, i_max, d_max)
    assert {j for i, j, n in builds if i == i_max and n} == set(res.top_degrees)
    assert bool(res.top_degrees) == ((i_max, d_max) != (24, 36))


def test_cell_logs_say_what_each_cell_did():
    """The cell logs of the benchmark's tor ladder and of the cubic cone at
    (24, 36): per step i, the cells add F_i's generators degree by degree
    (the top cells, at i_max + 1, the top set's); a certified cell has rank
    = kept and builds nothing; a copied cell is its source (i - 2, j - s)
    but for i, j and how, in the resolution and in the Tor ranks alike.
    From the logs alone, the ladder's eight rungs build 7,714 product
    columns and the cubic cone 69 in its resolution and 8 in its Tor ranks."""
    ladder = runpy.run_path(str(Path(__file__).parents[1] / "perfbench" / "workloads.py"))["tor_ladder"](0)
    rungs = [(rung["text"], rung["field"], rung["imax"], rung["dmax"]) for rung in ladder]
    built, copied = [], 0
    for text, field, i_max, d_max in [*rungs, (CUBIC_SESSION + "ideal J = (y, x + z);", "qq", 24, 36)]:
        session = parse_session(text, field_from_name(field))
        tt = tor_table(session.ring, session.ideals["I"], session.ideals["J"], i_max, d_max)
        res = truncated_resolution(session.ring, session.ideals["I"], i_max, d_max)
        degrees = (*res.degrees, res.top_degrees)
        for i in range(1, i_max + 2):
            assert dict(Counter(degrees[i])) == {c.j: c.new for c in res.cells if c.i == i and c.new}
        assert {c.i for c in res.cells if c.how == "top"} == {i_max + 1}
        for log in (res.cells, tt.cells):
            at = {(c.i, c.j): c for c in log}
            for c in log:
                assert c.how != "certified" or (c.rank == c.kept and not c.built)
                if c.how == "copied":
                    s = degrees[c.i - 1][0] - degrees[c.i - 3][0]
                    assert at[c.i - 2, c.j - s]._replace(i=c.i, j=c.j, how="copied") == c
                    copied += 1
            built.append(sum(n for *_, n in _work(log)[0]))
    assert copied and sum(built[:-2]) == 7714 and built[-2:] == [69, 8]


def test_kernel_reads_never_rerun_a_certified_pass():
    """A resolution pass certifies only where its kept count reaches need =
    n_{i-1} - r_{i-1}, and its rank is at most need, since its products lie
    in ker d_{i-1}; so kept = rank = need and its kept columns have no
    kernel. Step i + 1's need is then the pass's skipped count, which the
    products of lower generators meet (the syzygy criterion), and the top
    step reads only where kept > rank. So a kernel read is of a built cell
    or, at the top step, reruns a copied one. Copied readers repeat their
    source's read and are skipped."""
    texts = {n.split(".")[0]: text for n, text in bundled_sessions()}
    texts["weighted_hypersurface"] = WEIGHTED_HYPERSURFACE
    windows = [
        ("two_planes", 5, 7),
        ("two_planes", 6, 8),
        ("two_planes", 9, 11),
        ("cubic_cone", 8, 14),
        ("cubic_cone", 12, 20),
        ("cubic_cone", 24, 36),
        ("quadric_cone", 16, 24),
        ("rational_normal_cone", 8, 10),
        ("weighted_hypersurface", 12, 24),
    ]
    reads = Counter()
    for field in ("qq", "fp:32003"):
        for name, i_max, d_max in windows:
            session = parse_session(texts[name], field_from_name(field))
            cells = truncated_resolution(session.ring, session.ideals["I"], i_max, d_max).cells
            at = {(c.i, c.j): c for c in cells}
            for c in cells:
                if c.read and c.how != "copied":
                    reads[c.how == "top", at[c.i - 1, c.j].how, c.rerun] += 1
    assert reads == {(False, "built", False): 102, (True, "built", False): 8, (True, "copied", True): 6}


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
    modulo the relations, with its own elimination. The column lists are
    paired in order with the passes the cell log says built, which name
    their steps; with no cell copied from two steps back and no rank
    certified, every degree visits steps 1..i_max in turn. With certified
    ranks on, the passes that still build their columns are checked the
    same way."""
    calls = []
    build = homology._image_columns

    def recorded(rb, elems, pairs, tgt_degs, j):
        cols = build(rb, elems, pairs, tgt_degs, j)
        calls.append((j, list(pairs), cols))
        return cols

    monkeypatch.setattr(homology, "_image_columns", recorded)
    certified, _ = _assert_criterion_on_passes(name, calls, False)
    _shortcuts_off(monkeypatch)
    for copying in (True, False):
        if not copying:
            monkeypatch.setattr(homology, "_period", _never)
        built, skipped = _assert_criterion_on_passes(name, calls, False, copying)
        assert skipped > 0 and built > 0
        if copying:
            assert 0 < certified < built


def _assert_criterion_on_passes(name, calls, tor, copying=True):
    """The checks of the two skipped-column tests on every pass that builds
    its columns in the resolutions (tor False) or the Tor ranks (tor True)
    of one criterion case, paired in order with the passes of the cell log
    that built; returns the columns built and skipped. A resolution pass at
    (i, j) multiplies F_i's generators below j over R, a Tor pass all of F_i
    over R/J."""
    built = skipped = 0
    for R, I, J, i_max, d_max in _tor_criterion_cases(name):
        calls.clear()
        res = truncated_resolution(R, I, i_max, d_max)
        if tor:
            calls.clear()  # the resolution is memoised: what follows are the Tor ranks
            log = tor_table(R, I, J, i_max, d_max).cells
        else:
            J, log = (), res.cells
        degrees, images = (*res.degrees, res.top_degrees), (*res.images, res.top_images)
        rb = homology._graded_basis(R, J)
        p = R.field.p
        builds = _work(log)[0]
        assert [(j, n) for _, j, n in builds] == [(j, len(pairs)) for j, pairs, _ in calls]
        for (i, j, _), (_, pairs, cols) in zip(builds, calls):
            full = [(g, u) for g, d in enumerate(degrees[i]) if d < j + tor for u in rb.basis(j - d)]
            kept = set(pairs)
            assert [q for q in full if q in kept] == pairs, (i, j)
            tgt_degs = [d for d in degrees[i - 1] if d <= j]
            rank, zero = full_column_pass(
                [_ambient_column(images[i][g], u) for g, u in full], p, _relation_rows(R, tgt_degs, j, J)
            )
            assert full_column_pass(cols, p)[0] == rank, (i, j)
            for q, z in zip(full, zero):
                if q not in kept:
                    assert z, (i, j, q)
            built += len(pairs)
            skipped += len(full) - len(pairs)
        if not copying:  # each degree visits steps 1..i_max in turn
            assert set(Counter(j for _, j, _ in builds).values()) <= {i_max}
    return built, skipped


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
    on ambient monomials modulo the relations and J's multiples. With
    certified ranks on, the passes that still build their columns are
    checked the same way, and they build fewer columns."""
    calls = []
    build = homology._image_columns

    def recorded(rb, elems, pairs, tgt_degs, j):
        cols = build(rb, elems, pairs, tgt_degs, j)
        calls.append((j, list(pairs), cols))
        return cols

    monkeypatch.setattr(homology, "_image_columns", recorded)
    certified, _ = _assert_criterion_on_passes(name, calls, True)
    _shortcuts_off(monkeypatch)
    built, skipped = _assert_criterion_on_passes(name, calls, True)
    assert skipped > 0 and built > 0
    assert 0 < certified < built


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
