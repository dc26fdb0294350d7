"""gradedchi benchmark: cold passes of one workload, timed from outside.

    python3 perfbench/run.py --workload tor-ladder --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout. Each pass is a fresh worker process
(perfbench/worker.py) that imports gradedchi from `src/`, sets up the
workload's inputs and runs its operations once; the library's memo caches
are module globals, so every pass starts cold. Passes run one at a time.

--trace 0 reports the end-to-end metrics over the passes that fit in
--seconds. Every cold pass does the same work, and other load on the host
only ever adds time to it, so each operation is timed as its best over the
run's passes; see end_to_end(). --trace 1 runs the same untraced passes,
then two traced passes (see layertrace.py), and reports the per-layer
metrics of the first; the two traced passes must give identical work
counters. Outputs of every pass are checked against goldens recorded at a
known-good commit (and, for closed-form, against the dense oracle in
tests/oracles.py); each wrong, raised, time-capped or failed-check
operation counts as failed.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. Exit status 0 when a result was printed, 2 when the checkout is not
usable.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import selectors
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDENS = HERE / "goldens"
OUT_DIR = ROOT / ".perfbench_out"
WORKER = HERE / "worker.py"

OP_CAP_S = 60.0  # longest one operation (or set-up) may run before the worker is killed
RUN_CAP_S = 150.0  # no new pass starts after this much time in one run
SETUP_PROBES = 8  # set-up-only workers per run, on top of one per pass

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
}
TIME_LAYER_SUFFIXES = (".self_s", ".total_s")


@dataclass
class Pass:
    """What one worker process reported, as seen from the parent."""

    n_ops: int = 0
    setup_s: float | None = None
    wall_s: float | None = None
    op_ms: list = field(default_factory=list)
    outputs: list = field(default_factory=list)  # per op: dict or None; empty unless the pass finished
    errors: list = field(default_factory=list)  # per op: str or None
    rss_mb: float | None = None
    trace: dict | None = None
    calib_ms: float = 0.0
    killed: str | None = None


def calibrate() -> float:
    """A fixed pure-Python loop, in ms: a diagnostic of host speed only."""
    t0 = time.perf_counter()
    s = 0
    for i in range(200_000):
        s += i * i % 7
    return (time.perf_counter() - t0) * 1e3


def run_pass(job: dict, *, setup_only=False, trace=False, spans_out=None) -> Pass:
    """Start one worker, feed it the job, and follow its events under the cap."""
    p = Pass(calib_ms=calibrate())
    payload = json.dumps(
        {**job, "setup_only": setup_only, "trace": trace, "spans_out": spans_out}
    ).encode()
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        cwd=ROOT,
    )
    try:
        proc.stdin.write(payload)
        proc.stdin.close()
        _follow(proc, p, t0, setup_only)
        if p.killed is None:
            proc.wait(timeout=OP_CAP_S)
    except subprocess.TimeoutExpired:
        p.killed = f"worker did not exit within {OP_CAP_S:g} s"
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if p.killed is None and proc.returncode != 0:
        p.killed = f"worker exited with status {proc.returncode}"
    return p


def _follow(proc, p: Pass, t0: float, setup_only: bool) -> None:
    fd = proc.stdout.fileno()
    sel = selectors.DefaultSelector()
    sel.register(fd, selectors.EVENT_READ)
    buf = b""
    deadline = t0 + OP_CAP_S
    try:
        while True:
            while b"\n" not in buf:
                left = deadline - time.perf_counter()
                if left <= 0 or not sel.select(left):
                    p.killed = f"operation {len(p.op_ms)} exceeded {OP_CAP_S:g} s"
                    return
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    p.killed = p.killed or "worker ended early"
                    return
                buf += chunk
            line, buf = buf.split(b"\n", 1)
            now = time.perf_counter()
            ev = json.loads(line)
            if ev["ev"] == "ready":
                p.setup_s = now - t0
                p.n_ops = ev["ops"]
                if setup_only:
                    return
            elif ev["ev"] == "op":
                p.op_ms.append(ev["ms"])
                p.errors.append(ev["error"])
                p.wall_s = now - t0
            elif ev["ev"] == "out":
                p.outputs = ev["outs"]
            elif ev["ev"] == "end":
                p.rss_mb = ev["rss_mb"]
                p.trace = ev.get("trace")
                return
            deadline = now + OP_CAP_S
    finally:
        sel.close()


# ---------------------------------------------------------------------------
# correctness


def _oracle_ok(items, outputs) -> list:
    """For QQ closed-form instances: chi * HS_R == HS_M * HS_N through
    ORACLE_DEGREE, with every Hilbert series from tests/oracles.quotient_dims."""
    sys.path.insert(0, str(ROOT / "tests"))
    from oracles import quotient_dims

    ok, k, n = [], 0, workloads.ORACLE_DEGREE
    for item in items:
        qq = item["field"] == "qq"
        if qq:
            nv = len(next(iter(item["relations"][0])))
            w = (1,) * nv
            rels = [{m: Fraction(c) for m, c in r.items()} for r in item["relations"]]

            def dims(gens):
                return quotient_dims(w, rels + [{m: Fraction(c) for m, c in g.items()} for g in gens], n)

            hs_r = dims([])
        for a, b in item["pairs"]:
            o = outputs[k]
            k += 1
            if not qq or o is None:
                ok.append(o is not None)
                continue
            chi = [Fraction(c) for c in o["series"]]
            hs_m, hs_n = dims(item["ideals"][a]), dims(item["ideals"][b])
            ok.append(
                all(
                    sum(chi[i] * hs_r[d - i] for i in range(d + 1))
                    == sum(hs_m[i] * hs_n[d - i] for i in range(d + 1))
                    for d in range(n + 1)
                )
            )
    return ok


_CLASS_OF_VALUE = {"infinity": "INFINITE", "0": "ZERO"}


class Checker:
    """Decides, per operation, whether a pass's output is right."""

    def __init__(self, workload: str, seed: int, items: list):
        self.workload = workload
        self.items = items
        self.first = None  # closed-form: outputs of the first complete pass
        self.oracle = None
        if workload == "tor-ladder":
            golden = json.loads((GOLDENS / "tor-ladder.json").read_text())
            self.reference = [golden[item["name"]] for item in items]
        else:
            golden = json.loads((GOLDENS / "closed-form.json").read_text())
            self.reference = golden.get(str(seed))

    def op_ok(self, p: Pass, n_ops: int) -> list:
        """One verdict per operation of the workload; an operation the pass
        never finished, or whose output never arrived, is wrong."""
        outs = p.outputs + [None] * (n_ops - len(p.outputs))
        return [o is not None and self._ok(k, o, outs) for k, o in enumerate(outs)]

    def _ok(self, k: int, o: dict, outs: list) -> bool:
        if self.workload == "tor-ladder":
            ref = self.reference[k]
            return o["error"] is None and all(o[key] == ref[key] for key in ref)
        if self.first is None:
            self.first = outs
            self.oracle = _oracle_ok(self.items, outs)
        first = self.first[k]
        if first is None:
            return False
        got = [o["chi"], o["value"], o["class"]]
        ref = self.reference[k] if self.reference else [first["chi"], first["value"], first["class"]]
        return (
            got == ref
            and o["series"] == first["series"]
            and self.oracle[k]
            and _CLASS_OF_VALUE.get(o["value"], "POSITIVE_FINITE") == o["class"]
        )


# ---------------------------------------------------------------------------
# metrics


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _p90(xs):
    """Interpolated between the two nearest samples, never beyond the data:
    a pass of tor-ladder has only eight operations."""
    return statistics.quantiles(xs, n=10, method="inclusive")[-1] if len(xs) > 1 else xs[0]


def best_op_ms(passes) -> list:
    """Each operation's best time over the run's complete passes."""
    done = [p for p in passes if p.killed is None and p.op_ms]
    return [min(ms) for ms in zip(*(p.op_ms for p in done))]


def end_to_end(passes, probes, attempted, failed) -> dict:
    """setup_s is the median over every set-up of the run. The operation
    metrics use each operation's best time over the passes: on a shared
    host, how much other load slows a pass drifts by a quarter within
    minutes, while the best of several cold passes stays within a few
    percent. wall_s is the sum of the best times, the time of a cold pass
    after set-up; op_ms.p50 and op_ms.p90 are taken over the operations."""
    best = best_op_ms(passes)
    return {
        "setup_s": _median([p.setup_s for p in passes + probes if p.setup_s is not None]),
        "wall_s": sum(best) / 1e3,
        "op_ms.p50": _median(best),
        "op_ms.p90": _p90(best) if best else 0.0,
        "peak_rss_mb": _median([p.rss_mb for p in passes if p.killed is None and p.op_ms]),
        "success_ratio": (attempted - failed) / attempted if attempted else 0.0,
    }


def _work_counters(trace: dict) -> dict:
    """The traced metrics that must repeat exactly: everything but times."""
    return {k: v for k, v in trace.items() if not k.endswith(TIME_LAYER_SUFFIXES)}


def per_layer_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


# ---------------------------------------------------------------------------


def make_job(workload: str, seed: int):
    """The seeded inputs, and the job a worker receives: the same inputs
    without the oracle's copy of the polynomials."""
    items = workloads.make_inputs(workload, seed)
    job = {
        "root": str(ROOT),
        "workload": workload,
        "series_terms": workloads.ORACLE_DEGREE,
        "items": [{k: v for k, v in it.items() if k not in ("relations", "ideals")} for it in items],
    }
    return items, job


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # turn SIGTERM into an exception, so the running worker is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "gradedchi" / "__init__.py").is_file():
        sys.stderr.write(f"run.py: no gradedchi sources under {ROOT / 'src'}\n")
        return 2
    # byte-compile once, so no pass pays for it inside its set-up time
    compileall.compile_dir(ROOT / "src", quiet=2)

    items, job = make_job(args.workload, args.seed)
    run_start = time.perf_counter()

    probes = [run_pass(job, setup_only=True) for _ in range(SETUP_PROBES)]
    if any(p.setup_s is None for p in probes):
        sys.stderr.write("run.py: the worker could not set up the workload\n")
        return 2
    n_ops = probes[0].n_ops

    checker = Checker(args.workload, args.seed, items)
    passes = []
    attempted = failed = 0
    measure_start = time.perf_counter()
    while True:
        p = run_pass(job)
        passes.append(p)
        attempted += n_ops
        failed += checker.op_ok(p, n_ops).count(False)
        now = time.perf_counter()
        walls = [q.wall_s for q in passes if q.killed is None and q.op_ms]
        expected = _median(walls) if walls else OP_CAP_S
        # stop at the pass boundary nearest to --seconds
        if now - measure_start + expected / 2 > args.seconds or now - run_start + expected > RUN_CAP_S:
            break

    traced, counters_repeat = [], True
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        spans_out = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.csv.gz"
        for spans in (str(spans_out), None):
            p = run_pass(job, trace=True, spans_out=spans)
            traced.append(p)
            attempted += n_ops
            failed += checker.op_ok(p, n_ops).count(False)
        if any(p.trace is None for p in traced):
            counters_repeat = False
        else:
            counters_repeat = _work_counters(traced[0].trace) == _work_counters(traced[1].trace)

    metrics = end_to_end(passes, probes, attempted, failed)
    calib = _median([p.calib_ms for p in passes + traced])
    n_done = sum(1 for p in passes if p.killed is None and p.op_ms)
    print(
        f"workload {args.workload} seed {args.seed}: {len(passes)} passes of {n_ops} operations, "
        f"op_ms over {len(best_op_ms(passes))} operations, each the best of {n_done} passes; "
        f"{len(passes) + len(probes)} set-ups, host.calib_ms {calib:.2f}"
    )
    for p in passes + traced:
        ops = " ".join(f"{ms:.1f}" for ms in p.op_ms) if len(p.op_ms) <= 8 else f"{len(p.op_ms)} ops"
        print(f"  pass: setup {p.setup_s or 0:.4f} s, wall {p.wall_s or 0:.4f} s, calib {p.calib_ms:.2f} ms, {ops}")
        if p.killed:
            print(f"  pass killed: {p.killed}")
        for k, err in enumerate(p.errors):
            if err is not None:
                print(f"  operation {k} raised {err}")
    for name, unit in END_TO_END_UNITS.items():
        print(f"  {name:<14} {metrics[name]:.6g} {unit}")

    if args.trace:
        units = per_layer_units()
        tr = traced[0].trace or {}
        # one traced pass against the median untraced one, both after set-up
        untraced = _median([sum(p.op_ms) for p in passes if p.killed is None and p.op_ms])
        layer = {k: v for k, v in tr.items() if k in units}
        layer["host.calib_ms"] = calib
        layer["trace.overhead"] = sum(traced[0].op_ms) / untraced if traced[0].op_ms and untraced else 0.0
        print(f"  traced pass: {tr.get('trace.spans', 0)} spans, counters repeat: {counters_repeat}")
        for name in units:
            print(f"  {name:<36} {layer.get(name, 0):.6g} {units[name]}")
        out_metrics = {name: {"value": layer.get(name, 0), "unit": unit} for name, unit in units.items()}
    else:
        out_metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}

    correct = failed == 0 and counters_repeat
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
