#!/usr/bin/env python3
"""Measure the benchmark's own run-to-run spread.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--workload NAME ...]

Runs `perfbench/run.py --trace 0` once per seed (first-seed, first-seed+1,
...) on each workload and prints, for every end-to-end metric, the median
and the inter-quartile distance as a share of the median (the quartiles
of statistics.quantiles(values, n=4)), against the metric's bound in
BENCHMARK.json.  A spread passes when it is within a third of the bound
(setup_s is reported but exempt).  With --json FILE it also writes the
raw values, so two sets can be compared with --compare A B, which checks
that the second set's medians are not worse than the first's by more
than the bounds.
"""

import argparse
import json
import os
import re
import subprocess
import sys

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import stats  # noqa: E402

ROOT = os.path.dirname(HERE)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def measure(workload, seeds, seconds):
    values = {}
    for seed in seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True)
        if r.returncode != 0:
            sys.exit("%s seed %d: benchmark exited %d" % (workload, seed, r.returncode))
        res = json.loads(r.stdout.strip().splitlines()[-1])
        if not res["correct"]:
            sys.exit("%s seed %d: outputs incorrect (%d/%d tables failed)"
                     % (workload, seed, res["failed"], res["attempted"]))
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        steal = re.search(r"host steal time during the run: ([0-9.]+)%", r.stderr)
        print("%s seed %d: %s steal %s%%" % (workload, seed, json.dumps(
            {k: round(v["value"], 6) for k, v in res["metrics"].items()}),
            steal.group(1) if steal else "?"), flush=True)
    return values


def report(workload, values, metrics):
    ok = True
    for name, (s, passed) in stats.spread_verdicts(metrics, values, margin=1 / 3).items():
        bound = next(m["bound"] for m in metrics if m["name"] == name)
        ok = ok and passed
        print("%-15s %-12s median %-12.6g spread %6.3f  bound/3 %5.3f  %s" % (
            workload, name, stats.median(values[name]), s, bound / 3,
            "ok" if passed else ("exempt" if name == "setup_s" else "TOO WIDE")))
    return ok


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--json")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    a = ap.parse_args()
    b = spec()
    metrics = b["end_to_end"]
    if a.compare:
        first, second = (json.load(open(p)) for p in a.compare)
        ok = True
        for w in first:
            for name, (worse, passed) in stats.median_verdicts(metrics, first[w], second[w]).items():
                ok = ok and passed
                print("%-15s %-12s second median worse by %+.3f  %s" % (
                    w, name, worse, "ok" if passed else "BEYOND BOUND"))
        return 0 if ok else 1
    workloads = a.workload or [w["name"] for w in b["workloads"]]
    seeds = range(a.first_seed, a.first_seed + a.runs)
    all_values = {}
    ok = True
    for w in workloads:
        all_values[w] = measure(w, seeds, b["run_seconds"])
    for w in workloads:
        ok = report(w, all_values[w], metrics) and ok
    if a.json:
        with open(a.json, "w") as f:
            json.dump(all_values, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
