"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_goldens.py

Run from the root of a checkout at a commit whose outputs are known to be
right. Writes perfbench/goldens/:

* tor-ladder.json  -- per rung: check result, agreement_through, Betti counts;
* closed-form.json -- per seed in CLOSED_FORM_SEEDS: (chi, value, class) of
                      every operation.
"""

from __future__ import annotations

import json

import run

CLOSED_FORM_SEEDS = range(20)


def _outputs(workload: str, seed: int) -> tuple:
    items, job = run.make_job(workload, seed)
    p = run.run_pass(job)
    if p.killed or any(e is not None for e in p.errors):
        raise SystemExit(f"{workload} seed {seed}: {p.killed or p.errors}")
    return items, p.outputs


def main() -> int:
    run.GOLDENS.mkdir(exist_ok=True)
    items, outs = _outputs("tor-ladder", 0)
    ladder = {
        it["name"]: {k: o[k] for k in ("result", "agreement_through", "betti")}
        for it, o in zip(items, outs)
    }
    (run.GOLDENS / "tor-ladder.json").write_text(json.dumps(ladder, indent=1, sort_keys=True) + "\n")

    closed = {}
    for seed in CLOSED_FORM_SEEDS:
        _, outs = _outputs("closed-form", seed)
        closed[str(seed)] = [[o["chi"], o["value"], o["class"]] for o in outs]
    (run.GOLDENS / "closed-form.json").write_text(json.dumps(closed, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
