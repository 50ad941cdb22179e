#!/usr/bin/env python3
"""Two-clock benchmark of the PreemptDB simulator.

    python3 perfbench/run.py --workload mixed|durable|shard --seed N \
        --seconds S --trace 0|1

Run from the repository root.  Builds perfbench/bench.exe with dune, then
runs fixed-virtual-horizon episodes of the workload, each in a fresh
process, until S wall seconds have passed (at least two).  The first
episode also checks the program's outputs; every episode of the seed
must agree with it exactly on every virtual figure, count, allocation and
GC figure.

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  sim_rate
divides the virtual horizon by the sum, over 40 equal virtual slices of
the run, of each slice's fastest episode: every episode runs the same
events, and contention on a shared host only ever slows a slice.
setup_s is the median of every set-up in the run: one per episode plus
nine set-up-only processes.  peak_heap_mb and the virtual
latency/throughput figures are identical in every episode.

--trace 1 alternates untraced and traced episodes and prints the
per-layer metrics: exact counts from the untraced episodes, self times
from the traced ones (medians), and the tracing overhead.  The traced
episodes must reproduce the untraced virtual figures and counts exactly.

The last line of standard output is one JSON object.  On any failed
check the script prints the reason on standard error and exits 1
without a result.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
OUT_DIR = ".perfbench_out"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
MIN_EPISODES = 2
# Set-up-only processes per --trace 0 run, three before each of the
# first three episodes, so that setup_s is a median of at least eleven
# set-ups even on a workload whose episodes are long.
SETUP_ONLY = 9
# Stay inside the 180 s a run may take once built.  Only the first
# episode runs the oracles, which can take tens of seconds; the rest are
# short, so a slow first episode still leaves room for the second.
EPISODE_TIMEOUT_S = 100
RUN_BUDGET_S = 150


class Failure(Exception):
    pass


def build():
    if shutil.which("dune"):
        dune = ["dune"]
    elif shutil.which("opam"):
        dune = ["opam", "exec", "--", "dune"]
    else:
        raise Failure("neither dune nor opam is on PATH")
    cmd = dune + ["build", "--root", ".", "--build-dir", BUILD_DIR,
                  "--cache=disabled", "--display", "quiet", "./perfbench/bench.exe"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, timeout=850)
    if proc.returncode != 0:
        raise Failure("build failed:\n" + proc.stdout[-4000:])


def bench_json(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=EPISODE_TIMEOUT_S)
    if proc.returncode != 0:
        raise Failure("episode %s exited %d:\n%s" % (" ".join(cmd), proc.returncode,
                                                     proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_only(workload, seed):
    return bench_json([EXE, "--workload", workload, "--seed", str(seed), "--setup-only"])


def episode(workload, seed, trace=False, check=False, extra=()):
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--check", "1" if check else "0"]
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        cmd += ["--trace", "--spans",
                os.path.join(OUT_DIR, "spans-%s-%d.csv" % (workload, seed))]
    cmd += list(extra)
    ep = bench_json(cmd)
    if ep["violations"]:
        raise Failure("output check failed on %s seed %d:\n  %s"
                      % (workload, seed, "\n  ".join(ep["violations"])))
    if trace:
        tr = ep["trace"]
        if sum(tr["buckets"].values()) != tr["total_ns"]:
            raise Failure("traced self times sum to %d ns, traced wall is %d ns"
                          % (sum(tr["buckets"].values()), tr["total_ns"]))
        if not tr["queue_replay_ok"]:
            raise Failure("event-queue replay diverged from the recorded pops")
    return ep


def same(a, b, keys, what):
    for key in keys:
        if a[key] != b[key]:
            diff = sorted(k for k in a[key] if a[key][k] != b[key].get(k)) \
                if isinstance(a[key], dict) else [key]
            raise Failure("%s: episodes disagree on %s %s" % (what, key, diff[:8]))


def run_episodes(args, traced_too):
    """Episodes until the measuring time is spent; with traced_too each
    untraced episode is followed by a traced one, otherwise the first
    three are preceded by set-up-only processes."""
    plain, traced, setups = [], [], []
    start = time.monotonic()
    while True:
        lap = time.monotonic()
        if not traced_too and len(setups) < SETUP_ONLY:
            setups += [setup_only(args.workload, args.seed) for _ in range(3)]
        # The output oracles are deterministic for a seed: they run in the
        # first episode, and every other episode must reproduce its figures.
        plain.append(episode(args.workload, args.seed, check=not plain))
        if traced_too:
            traced.append(episode(args.workload, args.seed, trace=True))
        now = time.monotonic()
        spent = now - start
        if len(plain) >= MIN_EPISODES and (
                spent >= args.seconds or spent + (now - lap) > RUN_BUDGET_S):
            break
    # Determinism: a fresh process with the same seed reproduces every
    # virtual figure and count, and the allocation, GC and heap figures.
    for ep in plain[1:]:
        same(plain[0], ep, ["virtual", "counts", "host", "attempted", "failed",
                            "rows_loaded"], "untraced")
    # Neutrality: tracing changes no virtual figure and no count.
    for ep in traced:
        same(plain[0], ep, ["virtual", "counts", "attempted", "failed"], "traced vs untraced")
    for su in setups:
        same(plain[0], su, ["rows_loaded"], "set-up-only vs episode")
    return plain, traced, setups


def fastest_slices_s(plain):
    """Wall time of the run made of each slice's fastest episode."""
    return sum(min(col) for col in zip(*(ep["slices_ns"] for ep in plain))) / 1e9


def metric(name, value, unit):
    if value is None:
        raise Failure("metric %s was not measured" % name)
    return {"value": value, "unit": unit}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["mixed", "durable", "shard"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    build()
    plain, traced, setup_runs = run_episodes(args, traced_too=args.trace == 1)
    first = plain[0]
    attempted = sum(ep["attempted"] for ep in plain + traced)
    failed = sum(ep["failed"] for ep in plain + traced)

    setups = [ep["setup_s"] for ep in plain + setup_runs]
    for ep in plain:
        print("episode: sim_rate %.0f vus/s  wall %.3f s  setup %.3f s"
              % (ep["sim_rate"], ep["wall_s"], ep["setup_s"]))
    print("setup: median %.4f s, fastest %.4f s, over %d set-ups, %d rows loaded each"
          % (statistics.median(setups), min(setups), len(setups), first["rows_loaded"]))

    if args.trace == 0:
        values = dict(first["virtual"])
        fastest = fastest_slices_s(plain)
        print("sim_rate: %.0f vus/s from each slice's fastest of %d episodes (%.3f s)"
              % (first["horizon_us"] / fastest, len(plain), fastest))
        values["sim_rate"] = first["horizon_us"] / fastest
        values["setup_s"] = statistics.median(setups)
        values["peak_heap_mb"] = first["host"]["peak_heap_mb"]
        wanted = spec["end_to_end"]
    else:
        values = dict(first["counts"])
        host = first["host"]
        values["host.alloc_words_per_commit"] = host["alloc_words_per_commit"]
        values["host.minor_gcs"] = host["minor_gcs"]
        values["host.major_gcs"] = host["major_gcs"]
        names = traced[0]["trace"]["metrics"].keys()
        for name in names:
            values[name] = statistics.median(ep["trace"]["metrics"][name] for ep in traced)
        wall_plain = statistics.median(ep["wall_s"] for ep in plain)
        wall_traced = statistics.median(ep["wall_s"] for ep in traced)
        values["host.trace_overhead_pct"] = 100.0 * (wall_traced / wall_plain - 1.0)
        tr = traced[0]["trace"]
        split = sorted(tr["buckets"].items(), key=lambda kv: -kv[1])
        print("traced wall split: " + ", ".join(
            "%s %.1f%%" % (name, 100.0 * ns / tr["total_ns"]) for name, ns in split if ns))
        wanted = spec["per_layer"]

    metrics = {m["name"]: metric(m["name"], values.get(m["name"]), m["unit"]) for m in wanted}
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the
    # running episode before the exception propagates.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        main()
    except (Failure, OSError, ValueError, KeyError, subprocess.SubprocessError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        sys.exit(1)
