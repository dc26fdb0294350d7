"""The library's record types, its public names, and what importing the
library and the test oracles loads.

Seven records are NamedTuples (RatFun, ChiResult, TruncatedResolution,
TorTable, Command, RunOptions, and homology.Cell, one entry of the cells
log that TruncatedResolution and TorTable carry as their last field);
HilbertSeries is an immutable __slots__ class that sorts its weights; Report
and Session are mutable __slots__ classes.
"""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import gradedchi
from gradedchi import (
    ChiResult,
    Command,
    GradedRing,
    HilbertSeries,
    IntPoly,
    PolyRing,
    RatFun,
    Session,
    TorTable,
    TruncatedResolution,
    compute_chi,
    tor_table,
)
from gradedchi.cli import Report, RunOptions
from gradedchi.homology import Cell

SRC = Path(gradedchi.__file__).resolve().parents[1]
TESTS = Path(__file__).resolve().parent


def _cone():
    r = PolyRing(("x0", "x1", "x2"))
    x0, x1, x2 = r.gens()
    return r, GradedRing(r, [x0 * x2 - x1 * x1]), (x0, x1), (x1, x2)


def _frozen_records():
    """(class, field values) for each immutable record."""
    r, cone, d, c = _cone()
    res = compute_chi(cone, d, c)
    one, t = IntPoly((1,)), IntPoly((0, 1))
    cells = (Cell(1, 1, "built", 1, 2, 2, 2, False, False, 1), Cell(2, 2, "top", 0, 0, 0, 0, True, True, 1))
    records = [
        (RatFun, (one, IntPoly((1, 1)))),
        (ChiResult, tuple(getattr(res, f) for f in ChiResult._fields)),
        (TruncatedResolution, (cone, d, 2, 4, ((0,), (1, 1)), ((), ()), (2,), ((),), cells)),
        (TorTable, (3, 5, {(0, 0): 1, (1, 2): 2}, 4, ((0,), (1, 1)), cells)),
        (Cell, tuple(cells[0])),
        (Command, ("chi", ("D", "C"), None, None, {"imax": 2}, 3, 1)),
        (RunOptions, (4, 9, 5)),
        (HilbertSeries, (one - t, (1, 1))),
    ]
    return [pytest.param(cls, values, id=cls.__name__) for cls, values in records]


@pytest.mark.parametrize("cls, values", _frozen_records())
def test_frozen_records_by_position_and_keyword(cls, values):
    fields = cls._fields if hasattr(cls, "_fields") else ("numerator", "weights")
    a = cls(*values)
    b = cls(**dict(zip(fields, values)))
    assert a == b
    try:
        hash(values)
    except TypeError:  # a dict field (TorTable.entries, Command.flags)
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    assert [getattr(a, f) for f in fields] == list(values)
    assert repr(a) == repr(b) and repr(a).startswith(f"{cls.__name__}(")
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(a, f, None)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert pickle.loads(pickle.dumps(a)) == a


def test_records_differ_when_a_field_differs():
    one = IntPoly((1,))
    assert RatFun(one, IntPoly((1, 1))) != RatFun(one, IntPoly((1, -1)))
    assert RunOptions() != RunOptions(imax=9)
    assert HilbertSeries(one, (1,)) != HilbertSeries(one, (2,))
    assert HilbertSeries(one, (1,)) != (one, (1,))


def test_record_defaults():
    assert RunOptions() == RunOptions(8, 16, 10)
    assert (RunOptions().imax, RunOptions().dmax, RunOptions().series_terms) == (8, 16, 10)
    cmd = Command("hilbert", ("I",))
    assert (cmd.poly, cmd.number, cmd.flags, cmd.line, cmd.col) == (None, None, {}, 0, 0)
    report = Report()
    assert (report.sections, report.check_failures, report.error_message) == ([], 0, None)


def test_mutable_defaults_are_not_shared():
    a, b = Report(), Report()
    a.sections.append(({}, ["x"]))
    assert b.sections == [] and a.sections is not b.sections
    c, d = Command("hilbert", ("I",)), Command(kind="hilbert", idents=("I",))
    c.flags["imax"] = 3
    assert d.flags == {} and c.flags is not d.flags
    flags = {"dmax": 5}
    assert Command("tor", ("I", "J"), flags=flags).flags is flags


def test_hilbert_series_sorts_its_weights():
    n = IntPoly((1, -1))
    hs = HilbertSeries(n, (2, 1))
    assert hs.weights == (1, 2)
    assert hs == HilbertSeries(n, [1, 2]) and hash(hs) == hash(HilbertSeries(n, (1, 2)))
    assert repr(hs) == f"HilbertSeries(numerator={n!r}, weights=(1, 2))"
    with pytest.raises(AttributeError):
        del hs.weights


def test_tor_tables_of_two_rings_compare_equal():
    tables = []
    for _ in range(2):
        _, cone, d, c = _cone()  # a fresh ring each time: no shared memo
        tables.append(tor_table(cone, d, c, i_max=3, d_max=5))
    a, b = tables
    assert a is not b and a == b
    assert a.cells and a == TorTable(a.i_max, a.d_max, dict(a.entries), a.chi_complete_through, a.betti, a.cells)


def test_report_and_session_are_mutable_with_the_same_parameters():
    report = Report([({}, ["x"])], 2, "boom")
    assert (report.sections, report.check_failures, report.error_message) == ([({}, ["x"])], 2, "boom")
    assert Report(sections=[], error_message="e").exit_code == 1
    report.check_failures += 1
    assert report.check_failures == 3
    with pytest.raises(AttributeError):
        report.extra = 1
    r, cone, d, c = _cone()
    s = Session("R", cone, {"D": d}, [])
    t = Session(ring_name="R", ring=cone, ideals={"D": d}, commands=[])
    assert (s.ring_name, s.ring, s.ideals, s.commands) == (t.ring_name, t.ring, t.ideals, t.commands)
    assert s.ambient is r
    s.commands.append(Command("hilbert", ("D",)))
    assert t.commands == []


def test_import_loads_no_dataclasses_inspect_or_argparse(tmp_path):
    def loaded(statement, path=SRC):
        code = f"import sys\n{statement}\nprint(' '.join(sys.modules))"
        done = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": str(path)},
            cwd=tmp_path,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        return set(done.stdout.split())

    # the baseline is a bare start of the same interpreter, so whatever its
    # site initialisation loads does not count against the library
    added = loaded("import gradedchi, gradedchi.cli") - loaded("pass")
    assert {"gradedchi", "gradedchi.cli"} <= added
    assert not added & {"dataclasses", "inspect", "argparse", "json"}
    # the oracles import without the library: the benchmark harness loads
    # them with only tests/ on its path
    added = loaded("import oracles", TESTS)
    assert "oracles" in added
    assert not {m for m in added if m == "gradedchi" or m.startswith("gradedchi.")}


_REMOVED = (
    "MonomialIdeal",
    "leading_ideal",
    "standard_monomials",
    "monomials_of_wdeg",
    "_tail_reduce",
)


def test_public_names_resolve_and_removed_ones_are_gone():
    from gradedchi import groebner, rings

    for name in gradedchi.__all__:
        assert getattr(gradedchi, name) is not None, name
    assert len(set(gradedchi.__all__)) == len(gradedchi.__all__)
    for name in _REMOVED:
        assert not hasattr(gradedchi, name) and not hasattr(groebner, name), name
    assert not hasattr(rings, "mono_div")
    for name in ("generators", "_generators", "__iter__", "__len__", "__eq__", "__repr__"):
        assert name not in vars(groebner.GroebnerBasis), name
