#!/usr/bin/env python3
"""Benchmark of the IRON reproduction's user-facing runs.

Run from the repository root:

    python3 perfbench/run.py --workload crash --seed 7 --seconds 25 --trace 0

It builds perfbench/bench.exe with dune, then starts one fresh process
per repetition (so every repetition is as cold as `iron <cmd>`) until
--seconds have passed, and prints one JSON object as its last line of
output. --trace 0 alternates repetitions with a fixed reference loop
and reports the end-to-end metrics; --trace 1 alternates untraced and
traced repetitions and reports the per-layer metrics plus the tracing
overhead. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ("campaign", "crash", "traffic", "fuzz")
# Set-up is a few milliseconds, so it is sampled in extra processes that
# stop before the first measured call until there are this many samples.
SETUP_SAMPLES = 21
# A repetition that has not finished after this long fails every check.
REP_CAP_S = 150.0
# run_s is reported in seconds of a host on which the reference loop
# (bench.exe reference) takes this long.
REF_S = 0.2

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    for need in ("dune-project", "lib", "golden", "perfbench/dune"):
        if not os.path.exists(os.path.join(ROOT, need)):
            log("not a checkout of the repository (missing %s)" % need)
            sys.exit(2)
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "./perfbench/bench.exe"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    except FileNotFoundError:
        log("dune not found")
        sys.exit(2)
    if done.returncode != 0:
        log("build failed")
        sys.exit(3)


def child(args, deadline):
    """Run bench.exe once; returns (spawn time, parsed last line or None)."""
    t0 = time.time()
    try:
        done = subprocess.run(
            [EXE] + args,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - time.time()),
        )
    except subprocess.TimeoutExpired:
        log("repetition overran its time cap")
        return t0, None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log("repetition exited with code %d" % done.returncode)
        return t0, None
    return t0, json.loads(lines[-1])


def median(xs):
    return statistics.median(xs)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0xF1D0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args()

    build()
    base = ["--workload", opts.workload, "--seed", str(opts.seed)]
    start = time.time()
    cap = start + REP_CAP_S
    reps = {False: [], True: []}  # traced? -> results
    history = []
    attempted = failed = 0
    first_digests = None
    last_checks = 1

    def account(res, traced):
        nonlocal attempted, failed, first_digests, last_checks
        if res is None:
            attempted += last_checks
            failed += last_checks
            return
        attempted += res["attempted"]
        failed += res["failed"]
        last_checks = max(1, res["attempted"])
        digests = res["artifacts"]
        if first_digests is None:
            first_digests = digests
        else:
            # Every repetition, traced or not, must reproduce the first
            # one's artifacts byte for byte.
            for name in sorted(set(first_digests) | set(digests)):
                attempted += 1
                if first_digests.get(name) != digests.get(name):
                    failed += 1
                    log("%s differs from the first repetition" % name)
        reps[traced].append(res)
        history.append(res)

    # Start another round while it would end nearer to --seconds than
    # stopping now does, so a run lasts about --seconds whatever the
    # length of one repetition.
    run = ["run", "--root", ROOT] + base
    kinds = ["plain", "traced"] if opts.trace else ["reference", "plain"]
    refs = []
    rounds = 0
    while True:
        for kind in kinds:
            if kind == "reference":
                _, res = child(["reference"], cap)
                if res is None:
                    sys.exit(1)
                refs.append(res["ref_s"])
                continue
            t0, res = child(run + (["--trace"] if kind == "traced" else []), cap)
            if res is not None:
                res["setup_s"] = res["t_first"] - t0
            account(res, kind == "traced")
        kinds.reverse()
        rounds += 1
        elapsed = time.time() - start
        if elapsed + 0.5 * elapsed / rounds >= opts.seconds or time.time() >= cap:
            break

    if not reps[False] or (opts.trace and not reps[True]):
        log("no repetition finished")
        sys.exit(1)
    untraced = reps[False]
    log(
        "%d repetitions; run_s first %.4f, last %.4f; artifacts of first and last agree"
        % (len(history), history[0]["run_s"], history[-1]["run_s"])
        if failed == 0
        else "%d repetitions; %d of %d checks failed" % (len(history), failed, attempted)
    )

    if opts.trace:
        traced = reps[True]
        names = list(traced[0]["layers"])
        metrics = {
            n: {"value": median([r["layers"][n][0] for r in traced]), "unit": traced[0]["layers"][n][1]}
            for n in names
        }
        metrics["trace.overhead_s"] = {
            "value": median([r["run_s"] for r in traced]) - median([r["run_s"] for r in untraced]),
            "unit": "s",
        }
    else:
        setups = [r["setup_s"] for r in untraced]
        while len(setups) < SETUP_SAMPLES and time.time() < cap:
            t0, res = child(run + ["--setup-only"], cap)
            if res is None:
                break
            setups.append(res["t_first"] - t0)
        wall = median([r["run_s"] for r in untraced])
        log("run_s %.4f s wall, reference loop %.4f s" % (wall, median(refs)))
        metrics = {
            "setup_s": {"value": median(setups), "unit": "s"},
            "run_s": {"value": wall * REF_S / median(refs), "unit": "s"},
            "peak_rss_mb": {"value": median([r["peak_rss_mb"] for r in untraced]), "unit": "MB"},
            "passed_frac": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )


if __name__ == "__main__":
    main()
