"""The command-line driver: reports, formats, exit codes, bundled suite."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from gradedchi import cli
from gradedchi.cli import Report, RunOptions, bundled_sessions, fmt_series, main, run
from gradedchi.session import parse_session

CONIC = """\
ring R { vars x0, x1, x2; relations x0*x2 - x1^2; }
ideal D = (x0, x1);
ideal C = (x1, x2);
chi D C;
cartier x0 2 C;
hilbert D;
"""

CUBIC_CHECK = """\
ring R { vars x, y, z; relations x^3 + y^3 + z^3; }
ideal I = (x + y, z);
ideal J = (y, x + z);
check I J --imax 4 --dmax 8;
"""


@pytest.mark.parametrize(
    "coeffs, order, var, text",
    [
        ([Fraction(1, 2), 0, -1, Fraction(-3, 2)], 5, "t", "1/2 - t^2 - 3/2*t^3 + O(t^5)"),
        ([], 0, "t", "0 + O(t^0)"),
        ([0, 0], 2, "t", "0 + O(t^2)"),
        ([-1, 1, Fraction(-1), Fraction(7, 3)], 4, "T", "-1 + T - T^2 + 7/3*T^3 + O(T^4)"),
        ([0, Fraction(-1, 3), 2], 3, "t", "-1/3*t + 2*t^2 + O(t^3)"),
        ([3, -2, 1], 3, "t", "3 - 2*t + t^2 + O(t^3)"),
        ([Fraction(4, 2), 0, Fraction(-1, 1)], 6, "t", "2 - t^2 + O(t^6)"),
        ([Fraction(5, 7)], 1, "T", "5/7 + O(T^1)"),
    ],
)
def test_fmt_series_golden(coeffs, order, var, text):
    # the bundled chi series are all integral, so fractions show only here
    assert fmt_series(coeffs, order, var=var) == text


def test_run_report_sections():
    report = run(parse_session(CONIC))
    assert report.exit_code == 0
    assert [d["command"] for d, _ in report.sections] == ["chi", "cartier", "hilbert"]
    chi_data = report.sections[0][0]
    assert chi_data["chi"] == "1 / (1 + t)"
    assert chi_data["value"] == "1/2"
    assert chi_data["class"] == "POSITIVE_FINITE"
    cart = report.sections[1][0]
    assert cart["length"] == 1 and cart["multiplicity"] == "1/2"
    hil = report.sections[2][0]
    assert hil["dim"] == 1 and hil["e_at_1"] == "1"


def test_text_report_lines():
    report = run(parse_session(CONIC))
    text = report.text()
    assert "== chi D C" in text
    assert "chi = 1 / (1 + t)" in text
    assert "value = 1/2" in text
    assert "class = POSITIVE_FINITE" in text
    assert "multiplicity = 1/2" in text
    assert "not checked" in text
    assert text.endswith("\n")


def test_check_report_pass():
    report = run(parse_session(CUBIC_CHECK))
    assert report.exit_code == 0
    data = report.sections[0][0]
    assert data["result"] == "PASS"
    assert data["agreement_through"] >= 4
    assert data["closed_form"][:4] == ["1", "-1", "0", "1"]
    text = report.text()
    assert "check PASS" in text


def test_check_after_tor_reuses_the_tor_table(monkeypatch):
    """The ring memoises the Tor table per window, so a `check` after a `tor`
    on the same window runs no rank pass, and both reports read as when each
    command runs alone. Counted as eliminations: the Tor table's cell log
    shows passes that build, each of which would eliminate again."""
    from gradedchi import homology

    calls = []
    kernel = homology.kernel_of_columns

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(homology, "kernel_of_columns", counted)
    tor_cmd = "tor I J --imax 4 --dmax 8;\n"
    check_cmd = "check I J --imax 4 --dmax 8;\n"
    prefix = CUBIC_CHECK.replace(check_cmd, "")
    session = parse_session(prefix + tor_cmd)
    alone = [run(session).sections[0]]
    tor_ranks = len(calls)
    tt = homology.tor_table(session.ring, session.ideals["I"], session.ideals["J"], 4, 8)  # the memoised table
    assert [c for c in tt.cells if c.how == "built"]
    alone.append(run(parse_session(prefix + check_cmd)).sections[0])
    calls.clear()
    both = run(parse_session(prefix + tor_cmd + check_cmd))
    assert len(calls) == tor_ranks > 0
    assert both.sections == alone


def test_series_terms_option():
    report = run(parse_session(CONIC), RunOptions(series_terms=4))
    text = report.text()
    assert "+ O(t^4)" in text


def test_error_stops_execution_with_section():
    bad = (
        "ring R { vars x, y; }\n"
        "ideal I = (x);\n"
        "gulliksen I I;\n"  # improper over the ambient ring
        "hilbert I;\n"
    )
    report = run(parse_session(bad))
    assert report.exit_code == 1
    assert report.error_message is not None
    assert "not proper" in report.error_message
    # the failing command produced a section; the rest never ran
    assert [d["command"] for d, _ in report.sections] == ["gulliksen"]
    assert "error" in report.sections[0][0]


def test_report_exit_codes_and_json_status():
    ok = Report(sections=[({}, ["x"])])
    assert ok.exit_code == 0 and ok.as_dict()["status"] == "ok"
    failed = Report(sections=[], check_failures=2)
    assert failed.exit_code == 2 and failed.as_dict()["status"] == "check-failed"
    err = Report(sections=[], error_message="boom")
    assert err.exit_code == 1 and err.as_dict()["status"] == "error"


def test_run_counts_check_failures(monkeypatch):
    session = parse_session(CUBIC_CHECK)

    def fake_check(sess, cmd, opts):
        return {"command": "check", "result": "FAIL"}, ["== check", "check FAIL"]

    monkeypatch.setitem(cli._EXEC, "check", fake_check)
    report = run(session)
    assert report.check_failures == 1
    assert report.exit_code == 2


def test_main_with_file_and_determinism(tmp_path, capsys):
    f = tmp_path / "conic.session"
    f.write_text(CONIC)
    assert main([str(f)]) == 0
    first = capsys.readouterr().out
    assert main([str(f)]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "== cartier f = x0, e = 2, curve = C" in first


def test_main_stdin(monkeypatch, capsys):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(CONIC))
    assert main(["-"]) == 0
    out = capsys.readouterr().out
    assert "== chi D C" in out


def test_main_json_format(tmp_path, capsys):
    f = tmp_path / "conic.session"
    f.write_text(CONIC)
    assert main([str(f), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "ok"
    assert payload["check_failures"] == 0
    assert payload["commands"][0]["value"] == "1/2"


def test_main_parse_error_exit_one(tmp_path, capsys):
    f = tmp_path / "bad.session"
    f.write_text("ring R { vars x; }\nhilbert Q;\n")
    assert main([str(f)]) == 1
    err = capsys.readouterr().err
    assert "unknown ideal 'Q'" in err


def test_main_missing_file_exit_one(tmp_path, capsys):
    assert main([str(tmp_path / "nope.session")]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_main_computation_error_exit_one(tmp_path, capsys):
    f = tmp_path / "improper.session"
    f.write_text("ring R { vars x, y; }\nideal I = (x);\ngulliksen I I;\n")
    assert main([str(f)]) == 1
    captured = capsys.readouterr()
    assert "error: intersection not proper" in captured.out
    assert "not proper" in captured.err


def test_main_zero_cartier_multiple_exit_one(tmp_path, capsys):
    f = tmp_path / "cartier0.session"
    f.write_text(CONIC.replace("cartier x0 2 C;", "cartier x0 0 C;"))
    assert main([str(f)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("gradedchi: error: line 5, col 12:")


def test_main_bad_field_exit_one(capsys):
    assert main(["--field", "fp:6", "-"]) == 1
    assert "error" in capsys.readouterr().err


def test_main_bad_flag_usage_exit_one(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["--format", "yaml", "-"])
    assert ei.value.code == 1


def test_main_help_exits_zero_with_usage(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["--help"])
    assert ei.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: gradedchi ")
    assert "--run-paper-suite" in out


def test_main_negative_series_terms_exit_one(tmp_path, capsys):
    f = tmp_path / "conic.session"
    f.write_text(CONIC)
    with pytest.raises(SystemExit) as ei:
        main(["--series-terms", "-1", str(f)])
    assert ei.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "gradedchi: error: argument --series-terms: must be non-negative, got -1" in captured.err


@pytest.mark.parametrize(
    "flag,value,command", [("--imax", "-1", "tor I J;"), ("--dmax", "-5", "chi I J;")]
)
def test_main_negative_window_exit_one(tmp_path, capsys, flag, value, command):
    f = tmp_path / "cubic.session"
    f.write_text(CUBIC_CHECK.replace("check I J --imax 4 --dmax 8;", command))
    with pytest.raises(SystemExit) as ei:
        main([flag, value, str(f)])
    assert ei.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"gradedchi: error: argument {flag}: must be non-negative, got {value}" in captured.err


def test_main_denominator_vanishing_mod_p_exit_one(tmp_path, capsys):
    f = tmp_path / "mod7.session"
    f.write_text("ring R { vars x, y; }\nideal I = (x + 1/7*y);\nhilbert I;\n")
    assert main(["--field", "fp:7", str(f)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("gradedchi: error: line 2, col 16: division by zero")


def test_prime_field_flag(tmp_path, capsys):
    f = tmp_path / "mod.session"
    f.write_text("ring R { vars x, y; }\nideal I = (x^2, x*y, y^2);\nhilbert I;\n")
    assert main([str(f), "--field", "fp:7"]) == 0
    out = capsys.readouterr().out
    assert "numerator = 1 - 3*t^2 + 2*t^3" in out


def test_large_prime_field_flag(tmp_path):
    """GF(2^61 - 1) is accepted at once: its primality test does not divide
    by every odd number up to the square root."""
    f = tmp_path / "mod.session"
    f.write_text("ring R { vars x, y; }\nideal I = (x^2, x*y, y^2);\nhilbert I;\n")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    argv = [sys.executable, "-m", "gradedchi", "--field", "fp:2305843009213693951", str(f)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "numerator = 1 - 3*t^2 + 2*t^3" in done.stdout


def test_bundled_sessions_inventory():
    names = [name for name, _ in bundled_sessions()]
    assert names == sorted(names)
    assert names == [
        "conic_qcartier.session",
        "cubic_cone.session",
        "cuspidal_cubic.session",
        "quadric_cone.session",
        "rational_normal_cone.session",
        "two_planes.session",
    ]


def test_run_paper_suite(capsys):
    assert main(["--run-paper-suite"]) == 0
    out = capsys.readouterr().out
    assert out.count("### ") == 6
    assert out.count("check PASS") == 3
    assert "check FAIL" not in out
    assert "suite: 6 sessions, 0 check failures" in out
    # the flagship numbers all appear
    assert "chi = 1 / (1 + t + t^2)" in out
    assert "chi = 1 / (1 + 3*t)" in out
    assert "chi = 1 / (1 + 2*t - t^2)" in out
    assert "169*t^6" in out
    assert "value = infinity" in out


@pytest.mark.parametrize("field", ["fp:2", "fp:3"])
def test_run_paper_suite_small_characteristic(field, capsys):
    assert main(["--run-paper-suite", "--field", field]) == 0
    assert "suite: 6 sessions, 0 check failures" in capsys.readouterr().out


def test_run_paper_suite_leaves_no_module_state(capsys):
    import importlib
    import pkgutil

    import gradedchi

    modules = [gradedchi] + [
        importlib.import_module(f"gradedchi.{m.name}")
        for m in pkgutil.iter_modules(gradedchi.__path__)
    ]

    def sizes():
        return {
            (mod.__name__, name): len(value)
            for mod in modules
            for name, value in vars(mod).items()
            if type(value) in (dict, list, set)
        }

    before = sizes()
    assert main(["--run-paper-suite"]) == 0
    capsys.readouterr()
    assert sizes() == before


def test_run_paper_suite_json(capsys):
    assert main(["--run-paper-suite", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["check_failures"] == 0
    assert len(payload["sessions"]) == 6
    assert all(s["status"] == "ok" for s in payload["sessions"])


GOLDENS = Path(__file__).parent / "goldens"


@pytest.mark.parametrize("fmt, ext", [("text", "txt"), ("json", "json")])
@pytest.mark.parametrize("field", ["qq", "fp:32003"])
def test_run_paper_suite_matches_golden(capsys, field, fmt, ext):
    """The bundled-suite reports are byte-identical to the recorded ones."""
    assert main(["--run-paper-suite", "--field", field, "--format", fmt]) == 0
    golden = GOLDENS / f"paper_suite_{field.replace(':', '')}.{ext}"
    assert capsys.readouterr().out == golden.read_text()


def test_tor_text_table(tmp_path, capsys):
    f = tmp_path / "tor.session"
    f.write_text(
        "ring R { vars x, y; }\nideal I = (x);\nideal J = (y);\ntor I J --imax 2 --dmax 4;\n"
    )
    assert main([str(f)]) == 0
    out = capsys.readouterr().out
    assert "== tor I J (imax 2, dmax 4)" in out
    assert " i\\j" in out
    assert "naive alternating lengths = 1, 0, 0 (all rows complete)" in out
