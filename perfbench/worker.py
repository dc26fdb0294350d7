"""One cold benchmark pass in a fresh process.

Reads a job (JSON) from stdin, imports gradedchi from the checkout's `src`,
sets up the workload's operations, then runs them in order. Progress goes to
stdout as one JSON event per line, so the parent can time set-up, enforce a
per-operation time cap and collect outputs:

    {"ev": "ready", "ops": n}                        set-up finished
    {"ev": "op", "i": k, "ms": ..., "error": ...}    as soon as operation k ends
    {"ev": "out", "outs": [...]}                     outputs, after the last op
    {"ev": "end", "rss_mb": ..., "trace": {...}}

Outputs are extracted from the operations' own results, with tracing paused,
only after the last operation has been reported, so checking them takes no
time inside the measured pass. A pass that does not finish reports no
outputs.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def _emit(event: dict) -> None:
    sys.stdout.write(json.dumps(event) + "\n")
    sys.stdout.flush()


def _tor_ladder_ops(gc, items):
    ops = []
    for item in items:
        session = gc.parse_session(item["text"], gc.field_from_name(item["field"]))

        def out(report):
            (tor, _), (check, _) = report.sections
            return {
                "result": check.get("result"),
                "agreement_through": check.get("agreement_through"),
                "betti": tor.get("betti"),
                "error": report.error_message,
            }

        ops.append((lambda s=session: gc.cli.run(s), out))
    return ops


def _closed_form_ops(gc, items, series_terms):
    ops = []
    for item in items:
        session = gc.parse_session(item["text"], gc.field_from_name(item["field"]))
        for a, b in item["pairs"]:
            ops.append(
                (
                    lambda s=session, a=a, b=b: gc.compute_chi(s.ring, s.ideals[a], s.ideals[b]),
                    lambda cr: {
                        "chi": str(cr.chi),
                        "value": gc.cli.fmt_q(cr.value),
                        "class": str(cr.trichotomy),
                        "series": [str(c) for c in gc.series_expand(cr.chi, series_terms)],
                    },
                )
            )
    return ops


def main() -> int:
    job = json.loads(sys.stdin.read())
    root = Path(job["root"])
    sys.path.insert(0, str(root / "src"))
    import gradedchi
    import gradedchi.cli

    if Path(gradedchi.__file__).resolve().parent != (root / "src" / "gradedchi").resolve():
        sys.stderr.write(f"worker: imported gradedchi from {gradedchi.__file__}\n")
        return 2

    tracer = None
    if job["trace"]:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.active = True

    gc = gradedchi  # attributes are looked up per call, so wrappers are seen
    if job["workload"] == "tor-ladder":
        ops = _tor_ladder_ops(gc, job["items"])
    else:
        ops = _closed_form_ops(gc, job["items"], job["series_terms"])
    _emit({"ev": "ready", "ops": len(ops)})
    if job["setup_only"]:
        return 0

    clock = time.perf_counter
    results = []
    for k, (run, _) in enumerate(ops):
        if tracer is not None:
            tracer.op = k
        t0 = clock()
        try:
            result = run()
            error = None
        except Exception as exc:  # a failed operation is reported, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        ms = (clock() - t0) * 1e3
        _emit({"ev": "op", "i": k, "ms": ms, "error": error})
        results.append(result)

    end = {"ev": "end", "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        tracer.active = False
        end["trace"] = tracer.metrics()
    outs = [None if r is None else extract(r) for r, (_, extract) in zip(results, ops)]
    _emit({"ev": "out", "outs": outs})
    if tracer is not None and job.get("spans_out"):
        tracer.write_spans(job["spans_out"])
    _emit(end)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
