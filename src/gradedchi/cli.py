"""Command-line driver: parse a session, execute its commands, print a report.

Text reports are byte-deterministic; JSON reports carry the same data with
exact rationals rendered as strings. Exit codes: 0 success, 1 computation or
validation error, 2 at least one failed check. argparse, importlib.resources
and json load only in the functions that use them, not on import.
"""

from __future__ import annotations

import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from .arith import Infinity, IntPoly, format_t_coeffs, format_t_poly, series_expand
from .chi import chi_series, compute_chi, gulliksen_chi, qcartier_mult
from .errors import AlgebraError, SessionError
from .hilbert import dim_and_mult, hilbert_series
from .homology import WINDOW, chi_truncated, naive_series, tor_table
from .rings import field_from_name
from .session import Session, parse_session


class RunOptions(NamedTuple):
    imax: int = WINDOW[0]
    dmax: int = WINDOW[1]
    series_terms: int = 10


# ---------------------------------------------------------------------------
# formatting helpers


def fmt_q(v) -> str:
    """Exact scalar as text: integers bare, fractions as p/q, infinity named."""
    if isinstance(v, Infinity):
        return "infinity"
    f = Fraction(v)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def fmt_series(coeffs, order: int, var: str = "t") -> str:
    """Truncated power series with an explicit O(var^order) tail."""
    return f"{format_t_coeffs(coeffs, var)} + O({var}^{order})"


def fmt_denominator(weights) -> str:
    """The product form of prod_i (1 - t^{w_i}), grouped by weight."""
    counts = Counter(weights)
    parts = []
    for w in sorted(counts):
        base = "(1 - t)" if w == 1 else f"(1 - t^{w})"
        e = counts[w]
        parts.append(base if e == 1 else f"{base}^{e}")
    return " * ".join(parts)


def describe_ring(ring) -> str:
    names = ring.names
    ws = ring.weights
    if all(w == 1 for w in ws):
        vs = ", ".join(names)
    else:
        vs = ", ".join(f"{n}:{w}" for n, w in zip(names, ws))
    return f"{ring.field!r}[{vs}]"


# ---------------------------------------------------------------------------
# report


class Report:
    __slots__ = ("sections", "check_failures", "error_message")

    def __init__(self, sections=None, check_failures: int = 0, error_message: str | None = None):
        self.sections = [] if sections is None else sections  # (data dict, text lines)
        self.check_failures = check_failures
        self.error_message = error_message

    @property
    def exit_code(self) -> int:
        if self.error_message is not None:
            return 1
        return 2 if self.check_failures else 0

    def text(self) -> str:
        blocks = ["\n".join(lines) for _, lines in self.sections]
        return "\n\n".join(blocks) + "\n" if blocks else ""

    def as_dict(self) -> dict:
        if self.error_message is not None:
            status = "error"
        elif self.check_failures:
            status = "check-failed"
        else:
            status = "ok"
        return {
            "status": status,
            "check_failures": self.check_failures,
            "commands": [d for d, _ in self.sections],
        }

    def to_json(self) -> str:
        import json

        return json.dumps(self.as_dict(), indent=2) + "\n"


# ---------------------------------------------------------------------------
# command executors


def _cmd_hilbert(session: Session, cmd, opts: RunOptions):
    (name,) = cmd.idents
    hs = hilbert_series(session.ring, session.ideals[name])
    n = opts.series_terms
    coeffs = hs.series(n - 1)
    data = {
        "command": "hilbert",
        "ideal": name,
        "numerator": format_t_poly(hs.numerator),
        "denominator": fmt_denominator(hs.weights),
        "series": coeffs,
    }
    lines = [
        f"== hilbert {name}",
        f"numerator = {format_t_poly(hs.numerator)}",
        f"denominator = {fmt_denominator(hs.weights)}",
        f"series = {fmt_series(coeffs, n)}",
    ]
    if hs.is_zero:
        data["zero"] = True
        lines.append("module = 0 (unit ideal)")
    else:
        dm = dim_and_mult(hs)
        data["dim"] = dm.dim
        data["e_at_1"] = fmt_q(dm.mult)
        lines.append(f"dim = {dm.dim}")
        lines.append(f"e(1) = {fmt_q(dm.mult)}")
    return data, lines


def _cmd_chi(session: Session, cmd, opts: RunOptions):
    mname, nname = cmd.idents
    cr = compute_chi(session.ring, session.ideals[mname], session.ideals[nname])
    n = opts.series_terms
    coeffs = series_expand(cr.chi, n - 1)
    data = {
        "command": "chi",
        "M": mname,
        "N": nname,
        "chi": str(cr.chi),
        "series": [fmt_q(c) for c in coeffs],
        "dim_M": cr.dimM,
        "dim_N": cr.dimN,
        "dim_R": cr.dimR,
        "defect": cr.defect,
        "e": str(cr.e_MN),
        "e_at_1": fmt_q(cr.e_MN_at_1),
        "value": fmt_q(cr.value),
        "class": str(cr.trichotomy),
    }
    lines = [
        f"== chi {mname} {nname}",
        f"chi = {cr.chi}",
        f"series = {fmt_series(coeffs, n)}",
        f"dim M = {cr.dimM}, dim N = {cr.dimN}, dim R = {cr.dimR}, defect = {cr.defect}",
        f"e(t) = {cr.e_MN}",
        f"e(1) = {fmt_q(cr.e_MN_at_1)}",
        f"value = {fmt_q(cr.value)}",
        f"class = {cr.trichotomy}",
    ]
    return data, lines


def _tor_window(cmd, opts: RunOptions):
    return cmd.flags.get("imax", opts.imax), cmd.flags.get("dmax", opts.dmax)


def _tor_table_lines(tt) -> list:
    js = sorted({j for (_, j) in tt.entries})
    if not js:
        return ["Tor = 0 in the computed window"]
    jcols = list(range(js[-1] + 1))
    w = max(
        [len(str(j)) for j in jcols]
        + [len(str(v)) for v in tt.entries.values()]
    )
    lines = [" i\\j  " + " ".join(str(j).rjust(w) for j in jcols)]
    for i in range(tt.i_max + 1):
        cells = []
        for j in jcols:
            v = tt.entry(i, j)
            cells.append((str(v) if v else ".").rjust(w))
        lines.append(f"{i:>4}  " + " ".join(cells))
    return lines


def _cmd_tor(session: Session, cmd, opts: RunOptions):
    iname, jname = cmd.idents
    imax, dmax = _tor_window(cmd, opts)
    tt = tor_table(session.ring, session.ideals[iname], session.ideals[jname], i_max=imax, d_max=dmax)
    trunc = chi_truncated(tt)
    naive = naive_series(tt, imax)
    rows_complete = [tt.row_complete(i) for i in range(imax + 1)]
    betti_counts = [len(degs) for degs in tt.betti[: imax + 1]]
    data = {
        "command": "tor",
        "M": iname,
        "N": jname,
        "imax": imax,
        "dmax": dmax,
        "entries": [[i, j, v] for (i, j), v in sorted(tt.entries.items())],
        "betti": betti_counts,
        "chi_truncated": trunc,
        "chi_complete_through": tt.chi_complete_through,
        "naive": naive,
        "rows_complete": rows_complete,
    }
    incomplete = [str(i) for i, ok in enumerate(rows_complete) if not ok]
    naive_note = (
        "all rows complete"
        if not incomplete
        else "rows truncated at dmax: " + ", ".join(incomplete)
    )
    lines = [
        f"== tor {iname} {jname} (imax {imax}, dmax {dmax})",
        "graded Tor dimensions (dot = 0):",
    ]
    lines.extend(_tor_table_lines(tt))
    lines.append(f"betti = {', '.join(str(b) for b in betti_counts)}")
    lines.append(
        f"chi truncated = {format_t_poly(IntPoly(trunc))}"
        f" (complete through degree {tt.chi_complete_through})"
    )
    lines.append(
        "naive alternating lengths = "
        + ", ".join(str(v) for v in naive)
        + f" ({naive_note})"
    )
    return data, lines


def _cmd_check(session: Session, cmd, opts: RunOptions):
    iname, jname = cmd.idents
    imax, dmax = _tor_window(cmd, opts)
    chi = chi_series(session.ring, session.ideals[iname], session.ideals[jname])
    tt = tor_table(session.ring, session.ideals[iname], session.ideals[jname], i_max=imax, d_max=dmax)
    k = tt.chi_complete_through
    closed = series_expand(chi, k)
    trunc = chi_truncated(tt)
    ok = closed == trunc
    data = {
        "command": "check",
        "M": iname,
        "N": jname,
        "imax": imax,
        "dmax": dmax,
        "chi": str(chi),
        "agreement_through": k,
        "closed_form": [fmt_q(c) for c in closed],
        "truncated": trunc,
        "result": "PASS" if ok else "FAIL",
    }
    closed_txt = (
        format_t_coeffs(closed)
        if all(c.denominator == 1 for c in closed)
        else fmt_series(closed, k + 1)
    )
    lines = [
        f"== check {iname} {jname} (imax {imax}, dmax {dmax})",
        f"chi = {chi}",
        f"agreement through degree {k}",
        f"closed form = {closed_txt}",
        f"truncated   = {format_t_poly(IntPoly(trunc))}",
        f"check {'PASS' if ok else 'FAIL'}",
    ]
    return data, lines


def _cmd_gulliksen(session: Session, cmd, opts: RunOptions):
    iname, jname = cmd.idents
    ring = session.ring
    gi = tuple(ring.relations) + session.ideals[iname]
    gj = tuple(ring.relations) + session.ideals[jname]
    val = gulliksen_chi(ring.ambient, gi, gj)
    data = {
        "command": "gulliksen",
        "M": iname,
        "N": jname,
        "ambient": describe_ring(ring.ambient),
        "value": val,
    }
    lines = [
        f"== gulliksen {iname} {jname}",
        f"ambient = {describe_ring(ring.ambient)}",
        f"value = {val}",
    ]
    return data, lines


def _cmd_cartier(session: Session, cmd, opts: RunOptions):
    (cname,) = cmd.idents
    f = cmd.poly
    e = cmd.number
    mult = qcartier_mult(session.ring, f, e, session.ideals[cname])
    length = int(mult * e)
    note = "assumes the curve is integral and e*D is cut out by f (not checked)"
    data = {
        "command": "cartier",
        "f": str(f),
        "e": e,
        "curve": cname,
        "length": length,
        "multiplicity": fmt_q(mult),
        "note": note,
    }
    lines = [
        f"== cartier f = {f}, e = {e}, curve = {cname}",
        f"length = {length}",
        f"multiplicity = {fmt_q(mult)}",
        f"note: {note}",
    ]
    return data, lines


_EXEC = {
    "hilbert": _cmd_hilbert,
    "chi": _cmd_chi,
    "tor": _cmd_tor,
    "check": _cmd_check,
    "gulliksen": _cmd_gulliksen,
    "cartier": _cmd_cartier,
}


def run(session: Session, opts: RunOptions | None = None) -> Report:
    """Execute every command of a parsed session; stop at the first error."""
    opts = opts or RunOptions()
    report = Report()
    for cmd in session.commands:
        try:
            data, lines = _EXEC[cmd.kind](session, cmd, opts)
        except AlgebraError as exc:
            msg = str(exc)
            report.sections.append(
                (
                    {"command": cmd.kind, "line": cmd.line, "error": msg},
                    [f"== {cmd.kind} (line {cmd.line})", f"error: {msg}"],
                )
            )
            report.error_message = msg
            break
        if cmd.kind == "check" and data["result"] == "FAIL":
            report.check_failures += 1
        report.sections.append((data, lines))
    return report


# ---------------------------------------------------------------------------
# entry point


def build_arg_parser() -> argparse.ArgumentParser:
    # imported here, so that importing the library does not load argparse
    import argparse

    class _ArgumentParser(argparse.ArgumentParser):
        # usage errors are validation errors here, so exit 1 rather than
        # argparse's default 2 (reserved for failed checks)
        def error(self, message):
            self.print_usage(sys.stderr)
            sys.stderr.write(f"{self.prog}: error: {message}\n")
            raise SystemExit(1)

    p = _ArgumentParser(
        prog="gradedchi",
        description="Exact Euler characteristic and intersection multiplicity "
        "calculator for graded quotient rings.",
    )
    p.add_argument("session", nargs="?", help="session file path, or '-' for standard input")
    defaults = RunOptions()
    p.add_argument("--imax", type=int, default=defaults.imax, help="default homological degree cutoff")
    p.add_argument("--dmax", type=int, default=defaults.dmax, help="default internal degree cutoff")
    p.add_argument(
        "--series-terms",
        type=int,
        default=defaults.series_terms,
        dest="series_terms",
        help="number of power-series coefficients to display",
    )
    p.add_argument("--field", default="qq", help="coefficient field: qq or fp:P for prime P")
    p.add_argument("--format", choices=("text", "json"), default="text", help="report format")
    p.add_argument(
        "--run-paper-suite",
        action="store_true",
        dest="run_paper_suite",
        help="run every bundled example session and report all results",
    )
    return p


def bundled_sessions():
    """(name, text) pairs for the bundled example sessions, name-sorted."""
    # imported here: on Python 3.12 and later importlib.resources loads inspect
    from importlib import resources

    root = resources.files("gradedchi").joinpath("sessions")
    out = []
    for entry in root.iterdir():
        if entry.name.endswith(".session"):
            out.append((entry.name, entry.read_text()))
    out.sort(key=lambda pair: pair[0])
    return out


def _run_suite(field, opts: RunOptions, fmt: str) -> int:
    total_failures = 0
    errored = False
    suite = []
    sessions = bundled_sessions()
    for name, text in sessions:
        try:
            session = parse_session(text, field)
            report = run(session, opts)
        except SessionError as exc:
            report = Report(error_message=str(exc))
            report.sections.append(
                ({"command": "parse", "error": str(exc)}, [f"error: {exc}"])
            )
        total_failures += report.check_failures
        if report.error_message is not None:
            errored = True
        if fmt == "text":
            sys.stdout.write(f"### {name}\n")
            sys.stdout.write(report.text())
            sys.stdout.write("\n")
        else:
            suite.append({"name": name, **report.as_dict()})
    if fmt == "text":
        sys.stdout.write(f"suite: {len(sessions)} sessions, {total_failures} check failures\n")
    else:
        import json

        sys.stdout.write(
            json.dumps({"sessions": suite, "check_failures": total_failures}, indent=2) + "\n"
        )
    if errored:
        return 1
    return 2 if total_failures else 0


def main(argv=None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    for flag, value in (
        ("--imax", args.imax),
        ("--dmax", args.dmax),
        ("--series-terms", args.series_terms),
    ):
        if value < 0:
            parser.error(f"argument {flag}: must be non-negative, got {value}")
    try:
        field = field_from_name(args.field)
    except ValueError as exc:
        sys.stderr.write(f"gradedchi: error: {exc}\n")
        return 1
    opts = RunOptions(imax=args.imax, dmax=args.dmax, series_terms=args.series_terms)
    if args.run_paper_suite:
        return _run_suite(field, opts, args.format)
    if args.session is None or args.session == "-":
        text = sys.stdin.read()
    else:
        try:
            text = Path(args.session).read_text()
        except OSError as exc:
            sys.stderr.write(f"gradedchi: error: cannot read {args.session}: {exc}\n")
            return 1
    try:
        session = parse_session(text, field)
    except SessionError as exc:
        sys.stderr.write(f"gradedchi: error: {exc}\n")
        return 1
    report = run(session, opts)
    sys.stdout.write(report.text() if args.format == "text" else report.to_json())
    if report.error_message is not None:
        sys.stderr.write(f"gradedchi: error: {report.error_message}\n")
    return report.exit_code
