#!/usr/bin/env python3
"""Sensitivity self-test: proves the benchmark measures the program.

    python3 perfbench/selftest.py [--seed N]

Run from the repository root (about three minutes).  Injects a fixed
wall-clock burn after every micro-op of one kind, from outside the
program, through the worker op probe (bench.exe --burn OP:NS), and
checks for each (op, exercising workload, bypassing workload):

  - the exercising workload's wall time grows by about count x burn,
    so its sim_rate drops;
  - the bypassing workload's sim_rate drops much less;
  - every virtual figure and every count stays bit-identical;
  - the traced run charges the added time to that op's self time.

The baseline of each comparison runs the same probe with a 0 ns burn, so
only the burn differs.  Exits 0 when every check holds, 1 otherwise.
"""

import argparse
import statistics
import sys

sys.dont_write_bytecode = True
import run as bench  # noqa: E402  (perfbench/run.py)

REPS = 3
# (op, burn ns, workload that runs it a lot, workload that barely does,
#  traced per-layer metric that must absorb the burn)
CASES = [
    ("record_read", 500, "mixed", "durable", "storage.op_ns.record_read"),
    ("commit_wait", 20000, "durable", "mixed", "durability.op_ns.commit_wait"),
]


def wall(workload, seed, op, ns):
    """Median wall time of REPS episodes, plus the episode figures."""
    eps = [bench.episode(workload, seed, extra=["--burn", "%s:%d" % (op, ns)])
           for _ in range(REPS)]
    for ep in eps[1:]:
        bench.same(eps[0], ep, ["virtual", "counts"], "repeat")
    return statistics.median(ep["wall_s"] for ep in eps), eps[0]


def check(cond, msg, failures):
    print(("  ok    " if cond else "  FAIL  ") + msg)
    if not cond:
        failures.append(msg)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    bench.build()
    failures = []
    for op, ns, hot, cold, layer_metric in CASES:
        print("burn %d ns after every %s:" % (ns, op))
        rel = {}
        for wl in (hot, cold):
            base_wall, base = wall(wl, args.seed, op, 0)
            burn_wall, burned = wall(wl, args.seed, op, ns)
            bench.same(base, burned, ["virtual", "counts", "attempted", "failed"],
                       "%s burn vs no burn" % wl)
            added = burn_wall - base_wall
            predicted = burned["burned_ops"] * ns / 1e9
            rel[wl] = added / base_wall
            print("  %-8s %9d burns  predicted +%.3f s  measured +%.3f s  sim_rate %.0f -> %.0f"
                  % (wl, burned["burned_ops"], predicted, added,
                     base["horizon_us"] / base_wall, burned["horizon_us"] / burn_wall))
            if wl == hot:
                check(0.8 * predicted <= added <= 2.0 * predicted,
                      "%s: wall grew by about count x burn" % wl, failures)
        check(rel[cold] < rel[hot] / 3,
              "%s sim_rate drops much less than %s's (%.1f%% vs %.1f%%)"
              % (cold, hot, 100 * rel[cold], 100 * rel[hot]), failures)
        t_base = bench.episode(hot, args.seed, trace=True, extra=["--burn", "%s:0" % op])
        t_burn = bench.episode(hot, args.seed, trace=True, extra=["--burn", "%s:%d" % (op, ns)])
        bench.same(t_base, t_burn, ["virtual", "counts", "attempted", "failed"],
                   "%s traced burn vs no burn" % hot)
        grew = (t_burn["trace"]["metrics"][layer_metric]
                - t_base["trace"]["metrics"][layer_metric])
        check(0.8 * ns <= grew <= 2.0 * ns,
              "traced %s: %s grew by %.0f ns per op (burn %d ns)"
              % (hot, layer_metric, grew, ns), failures)
    if failures:
        print("selftest: %d check(s) failed" % len(failures))
        sys.exit(1)
    print("selftest: PASS")


if __name__ == "__main__":
    try:
        main()
    except bench.Failure as e:
        print("selftest: %s" % e, file=sys.stderr)
        sys.exit(1)
