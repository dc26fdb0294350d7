"""Checks of the benchmark's own accounting; nothing here is timed.

    python3 perfbench/selfcheck.py

Run from the root of a source checkout. Exits 0 when every check holds.
"""

from __future__ import annotations

import run


def killed_before_ready() -> None:
    """A worker killed during set-up finished none of its operations, so
    every operation of its pass counts as failed."""
    items, job = run.make_job("tor-ladder", 0)
    checker = run.Checker("tor-ladder", 0, items)
    cap, run.OP_CAP_S = run.OP_CAP_S, 0.01  # far shorter than interpreter start-up
    try:
        p = run.run_pass(job)
    finally:
        run.OP_CAP_S = cap
    assert p.killed and p.setup_s is None and p.n_ops == 0, p
    assert checker.op_ok(p, len(items)) == [False] * len(items)


def p90_within_data() -> None:
    """The p90 of a small pass lies between its samples, and speeding up an
    operation never raises it."""
    ops = [400.0, 1100.0, 1300.0, 2700.0]
    p90 = run._p90(ops)
    assert ops[2] <= p90 <= ops[3], p90
    faster = [400.0, 1100.0, 900.0, 2700.0]
    assert run._p90(faster) <= p90


def main() -> int:
    for check in (killed_before_ready, p90_within_data):
        check()
        print(f"ok  {check.__name__}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
