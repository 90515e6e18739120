#!/usr/bin/env python3
"""The repository benchmark: four paper-shaped workloads of the simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]   # default: both seeds
    python3 perfbench/run.py --record-reference

Run from the root of a source checkout.  The benchmark builds the
simulator from source (dune), then repeats the workload for about S
seconds, one repetition ("rep") after another, every pass of a rep in a
fresh process (perfbench/driver.exe or bin/ckpt.exe), and prints one JSON
object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
each the median over the run's samples; with --trace 1 they are the
per-layer metrics of a traced pass (see README.md).  Progress, provenance
and the per-rep numbers go to stderr.  Outputs land under .perfbench/ in
the checkout.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import stats  # noqa: E402

ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
DRIVER = os.path.join(ROOT, "_build", "default", "perfbench", "driver.exe")
CKPT = os.path.join(ROOT, "_build", "default", "bin", "ckpt.exe")
REFERENCE = os.path.join(HERE, "reference.json")

# The repository's default CKPT_SEED (0x5EED): reference digests are
# recorded at this seed.  CONFIRM_SEED is the second seed a performance
# claim is re-checked on, data the change was not written against.
REFERENCE_SEED = 24301
CONFIRM_SEED = 1729

# Per workload: domains (CKPT_DOMAINS; part of the workload's definition),
# worker processes, extra set-up-only passes and resume passes per rep
# (set-up and resume are cheap on some workloads, so several samples per
# rep steady their medians), and extra CKPT_* settings.
WORKLOADS = {
    "peta-weibull": {"domains": 2, "workers": 0, "setup_passes": 0, "resume_passes": 1},
    "exa-periodic": {"domains": 1, "workers": 0, "setup_passes": 9, "resume_passes": 5},
    "seq-weibull-dp": {"domains": 1, "workers": 0, "setup_passes": 0, "resume_passes": 5},
    "sweep-workers": {"domains": 2, "workers": 2, "setup_passes": 0, "resume_passes": 1,
                      "env": {"CKPT_SWEEP_STRIPE": "4"}, "replicates": 48},
}

PASS_TIMEOUT = 170


class BenchError(Exception):
    pass


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


# -- building --------------------------------------------------------------------

def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        raise BenchError("no simulator sources next to perfbench/ (dune-project, lib/)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ROOT, "perfbench/driver.exe", "bin/ckpt.exe"]
    r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0 or not (os.path.isfile(DRIVER) and os.path.isfile(CKPT)):
        raise BenchError("build failed: " + " ".join(cmd))


# -- processes -------------------------------------------------------------------

def clean_env(spec, results_dir, seed=None):
    """A child environment carrying only the workload's own CKPT_* knobs."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("CKPT_")}
    env["CKPT_DOMAINS"] = str(spec["domains"])
    env["CKPT_RESULTS_DIR"] = results_dir
    env.update(spec.get("env", {}))
    if seed is not None:
        env["CKPT_SEED"] = str(seed)
    return env


# Process groups of the passes running now, killed if the benchmark is
# itself terminated.
ACTIVE = []


def terminate(signum, frame):
    for pgid in ACTIVE:
        try:
            os.killpg(pgid, signal.SIGKILL)
            os.waitpid(pgid, 0)
        except OSError:
            pass
    sys.exit(128 + signum)


def spawn(cmd, env, stdout_path):
    """Run one pass to completion; returns (wall seconds, peak RSS in MB,
    stdout text).  The peak RSS is ru_maxrss from wait4, which covers
    the process and every child it waited for.  A pass still running
    after PASS_TIMEOUT seconds is killed with its process group."""
    with open(stdout_path, "wb") as out:
        t0 = time.monotonic()
        p = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=out, stderr=subprocess.STDOUT,
                             start_new_session=True)
        ACTIVE.append(p.pid)
        watchdog = threading.Timer(PASS_TIMEOUT, os.killpg, (p.pid, signal.SIGKILL))
        watchdog.start()
        try:
            _, status, usage = os.wait4(p.pid, 0)
        finally:
            watchdog.cancel()
            ACTIVE.remove(p.pid)
        wall = time.monotonic() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
    with open(stdout_path, "r", errors="replace") as f:
        text = f.read()
    if p.returncode != 0:
        raise BenchError("pass failed (exit %d%s): %s\n%s" % (
            p.returncode, ", timed out" if wall >= PASS_TIMEOUT else "", " ".join(cmd),
            text[-2000:]))
    return wall, usage.ru_maxrss / 1024.0, text


def driver_pass(spec, workload, seed, rep_dir, tag, phase, store=None, extra=()):
    results = os.path.join(rep_dir, "results-" + tag)
    out = os.path.join(rep_dir, tag + ".json")
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed), "--phase", phase, "--out", out]
    if store:
        cmd += ["--store", store]
    cmd += list(extra)
    _, rss, _ = spawn(cmd, clean_env(spec, results), os.path.join(rep_dir, tag + ".stdout"))
    with open(out) as f:
        res = json.load(f)
    res["rss_mb"] = rss
    res["results"] = results
    return res


def ckpt_sweep(spec, seed, rep_dir, tag, workers):
    results = os.path.join(rep_dir, "results-" + tag)
    store = os.path.join(rep_dir, "store")
    cmd = [CKPT, "sweep", "--resume", store, "--traces", str(spec["replicates"])]
    if workers > 1:
        cmd += ["--workers", str(workers)]
    cmd.append("sweep-smoke")
    wall, rss, text = spawn(cmd, clean_env(spec, results, seed), os.path.join(rep_dir, tag + ".stdout"))
    counts = {"skipped": 0, "computed": 0, "invalidated": 0}
    for line in text.splitlines():
        if line.startswith("sweep store ") and "units skipped" in line:
            parts = line.split(": ", 1)[1].split(", ")
            counts = {p.split()[-1]: int(p.split()[0]) for p in parts}
    return {"wall_s": wall, "rss_mb": rss, "store": counts, "results": results}


# -- checks ----------------------------------------------------------------------

def csv_files(results_dir):
    if not os.path.isdir(results_dir):
        return {}
    return {n: open(os.path.join(results_dir, n), "rb").read()
            for n in sorted(os.listdir(results_dir)) if n.endswith(".csv")}


def sha(data):
    return hashlib.sha256(data).hexdigest()


class Checks:
    """Per-table pass/fail bookkeeping of one run: every table of every
    pass counts once.  A table fails if it raised, broke an invariant,
    or differs from what a rule expects of it."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def tables(self, where, tables, *rules):
        """rules: (label, expect, csv, csv_expect) tuples.  expect maps
        table names to the digests the tables must have; csv, when not
        None, must be byte-identical to csv_expect, else every table of
        the pass fails."""
        for t in tables:
            self.attempted += 1
            problem = None if t["ok"] else t["error"]
            for label, expect, csv, csv_expect in rules:
                if problem:
                    break
                if expect is not None and expect.get(t["name"]) != t["digest"]:
                    problem = "%s: digest %s, expected %s" % (
                        label, t["digest"], expect.get(t["name"]))
                elif csv is not None and csv != csv_expect:
                    problem = "%s: CSVs differ (%s vs %s)" % (
                        label, sorted(csv), sorted(csv_expect))
            if problem:
                self.failed += 1
                self.problems.append("%s %s: %s" % (where, t["name"], problem))
                log("CHECK FAILED %s %s: %s" % (where, t["name"], problem))

    def fail(self, where, problem):
        self.attempted += 1
        self.failed += 1
        self.problems.append("%s: %s" % (where, problem))
        log("CHECK FAILED %s: %s" % (where, problem))


def load_reference():
    with open(REFERENCE) as f:
        return json.load(f)


def reference_for(workload, seed):
    if seed != REFERENCE_SEED:
        return None
    return load_reference()["workloads"].get(workload)


def digests(tables):
    return {t["name"]: t["digest"] for t in tables}


def csv_digests(results_dir):
    return {n: sha(b) for n, b in csv_files(results_dir).items()}


def reference_rules(ref, results_dir):
    """At the reference seed, tables and CSVs must match the recorded digests."""
    if ref is None:
        return []
    return [("reference", ref["tables"], csv_digests(results_dir), ref["csv"])]


# -- one rep -----------------------------------------------------------------------

def rep_in_process(spec, workload, seed, rep_dir, checks, traced):
    """Cold pass, resume passes and set-up passes of an in-process workload
    (a traced rep replaces the resume and set-up passes by one traced pass)."""
    store = os.path.join(rep_dir, "store")
    cold = driver_pass(spec, workload, seed, rep_dir, "cold", "run", store=store)
    sample = {"wall_s": cold["wall_s"], "peak_rss_mb": cold["rss_mb"],
              "setup_s": [cold["setup_s"]], "resume_s": []}
    units = cold["store"]["computed"]
    ref = reference_for(workload, seed)
    cold_csv = csv_files(cold["results"])
    checks.tables("cold", cold["tables"], *reference_rules(ref, cold["results"]))
    if not traced:
        for k in range(spec["resume_passes"]):
            res = driver_pass(spec, workload, seed, rep_dir, "resume-%d" % k, "run", store=store)
            sample["resume_s"].append(res["wall_s"])
            sample["setup_s"].append(res["setup_s"])
            checks.tables("resume", res["tables"], ("cold pass", digests(cold["tables"]),
                                                    csv_files(res["results"]), cold_csv))
            if res["store"]["computed"] != 0 or res["store"]["skipped"] != units:
                checks.fail("resume", "computed %d, loaded %d of %d units" % (
                    res["store"]["computed"], res["store"]["skipped"], units))
        for k in range(spec["setup_passes"]):
            res = driver_pass(spec, workload, seed, rep_dir, "setup-%d" % k, "setup")
            sample["setup_s"].append(res["setup_s"])
        return sample
    tr = driver_pass(spec, workload, seed, rep_dir, "traced", "traced",
                     extra=["--load-store", store, "--replay-dir", os.path.join(rep_dir, "replay")])
    check_traced(checks, cold, tr, cold_csv)
    layers = dict(tr["layers"])
    layers.update({
        "sweep_store.units_computed": units,
        "sweep_store.units_skipped": tr["store"]["skipped"],
        "sweep_store.units_invalidated": cold["store"]["invalidated"] + tr["store"]["invalidated"],
        "trace.overhead_frac": tr["wall_s"] / cold["wall_s"] - 1.0,
    })
    layers.update(no_workers())
    sample["layers"] = layers
    return sample


def check_traced(checks, untraced, tr, untraced_csv):
    checks.tables("traced", tr["tables"], ("untraced pass", digests(untraced["tables"]),
                                           csv_files(tr["results"]), untraced_csv))
    if tr["load_check"]:
        checks.fail("traced load step", tr["load_check"])


def no_workers():
    return {"sweep_workers.worker_s.max": 0.0, "sweep_workers.worker_s.mean": 0.0,
            "sweep_workers.claims_won": 0, "sweep_workers.claims_busy": 0,
            "sweep_workers.claims_reaped": 0, "sweep_workers.busy_claim_ratio": 0.0}


def worker_layers(store):
    ws = []
    for n in sorted(os.listdir(store)):
        if n.startswith("worker-") and n.endswith(".stats.json"):
            with open(os.path.join(store, n)) as f:
                ws.append(json.load(f))
    if not ws:
        raise BenchError("no worker stats files in " + store)
    won = sum(w["claimed"] for w in ws)
    busy = sum(w["busy"] for w in ws)
    secs = [w["seconds"] for w in ws]
    return {"sweep_workers.worker_s.max": max(secs),
            "sweep_workers.worker_s.mean": sum(secs) / len(secs),
            "sweep_workers.claims_won": won, "sweep_workers.claims_busy": busy,
            "sweep_workers.claims_reaped": sum(w["reaped"] for w in ws),
            "sweep_workers.busy_claim_ratio": busy / (won + busy) if won + busy else 0.0}, ws


def rep_sweep(spec, workload, seed, rep_dir, checks, traced):
    """sweep-workers: a cold `ckpt sweep --workers N` over a fresh store, then
    `ckpt sweep --resume` passes; the driver checks the tables by loading
    them from the store, and times the set-up every worker repeats."""
    store = os.path.join(rep_dir, "store")
    cold = ckpt_sweep(spec, seed, rep_dir, "cold", spec["workers"])
    wl, ws = worker_layers(store)
    units = cold["store"]["computed"] + sum(w["computed"] for w in ws)
    sample = {"wall_s": cold["wall_s"], "peak_rss_mb": cold["rss_mb"], "setup_s": [], "resume_s": []}
    cold_csv = csv_files(cold["results"])
    check = driver_pass(spec, workload, seed, rep_dir, "check", "run", store=store)
    sample["setup_s"].append(check["setup_s"])
    checks.tables("check", check["tables"],
                  ("%d-worker sweep" % spec["workers"], None, csv_files(check["results"]), cold_csv),
                  *reference_rules(reference_for(workload, seed), cold["results"]))
    if check["store"]["computed"] != 0:
        checks.fail("check", "the cold sweep left %d units uncomputed" % check["store"]["computed"])
    if not traced:
        for k in range(spec["resume_passes"]):
            res = ckpt_sweep(spec, seed, rep_dir, "resume-%d" % k, 1)
            sample["resume_s"].append(res["wall_s"])
            if csv_files(res["results"]) != cold_csv:
                checks.fail("resume", "resume CSVs differ from the %d-worker CSVs" % spec["workers"])
            if res["store"]["computed"] != 0 or res["store"]["skipped"] != units:
                checks.fail("resume", "computed %d, loaded %d of %d units" % (
                    res["store"]["computed"], res["store"]["skipped"], units))
        for k in range(spec["setup_passes"]):
            res = driver_pass(spec, workload, seed, rep_dir, "setup-%d" % k, "setup")
            sample["setup_s"].append(res["setup_s"])
        return sample
    # Traced: an untraced in-process pass over a fresh store is the
    # reference for the trace overhead; the traced pass then loads the
    # store the workers wrote.
    inproc = driver_pass(spec, workload, seed, rep_dir, "inproc", "run",
                         store=os.path.join(rep_dir, "store-inproc"))
    checks.tables("in-process", inproc["tables"], ("check pass", digests(check["tables"]), None, None))
    tr = driver_pass(spec, workload, seed, rep_dir, "traced", "traced",
                     extra=["--load-store", store, "--replay-dir", os.path.join(rep_dir, "replay")])
    check_traced(checks, inproc, tr, cold_csv)
    layers = dict(tr["layers"])
    layers.update(wl)
    layers.update({
        "sweep_store.units_computed": units,
        "sweep_store.units_skipped": tr["store"]["skipped"],
        "sweep_store.units_invalidated": cold["store"]["invalidated"]
        + sum(w["invalidated"] for w in ws) + tr["store"]["invalidated"],
        "trace.overhead_frac": tr["wall_s"] / inproc["wall_s"] - 1.0,
    })
    sample["layers"] = layers
    return sample


# -- one run -------------------------------------------------------------------------

def source_digest():
    """sha256 over the simulator and benchmark sources, which identifies
    the code when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("bin", "lib", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for n in sorted(files):
                if n.endswith((".ml", ".mli", "dune", ".py", ".json")):
                    path = os.path.join(d, n)
                    h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()


def provenance(workload, spec, seed, trace):
    rev = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True).stdout.strip() or rev
    return {"git_rev": rev, "source_sha256": source_digest(), "nproc": os.cpu_count(),
            "workload": workload, "seed": seed, "trace": trace,
            "domains": spec["domains"], "workers": spec["workers"],
            "ckpt_env": {k: v for k, v in clean_env(spec, "<per pass>", seed if spec["workers"] else None).items()
                         if k.startswith("CKPT_")}}


def cpu_ticks():
    """(steal, total) jiffies of all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def steal_frac(before, after):
    """Share of CPU time the hypervisor took from this host in between:
    runs taken under heavy steal time are slow for reasons outside the code."""
    if before is None or after is None or after[1] == before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def require_cores(workload, spec):
    need = max(spec["domains"], spec["workers"])
    have = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if have < need:
        raise BenchError(
            "HOST TOO SMALL: workload %s needs %d cores, this host offers %d; "
            "refusing to report a number" % (workload, need, have))


def run(workload, seed, seconds, trace):
    spec = WORKLOADS[workload]
    require_cores(workload, spec)
    build()
    prov = provenance(workload, spec, seed, trace)
    log("provenance " + json.dumps(prov, sort_keys=True))
    run_dir = os.path.join(OUT, "%s-s%d-t%d-%d" % (workload, seed, trace, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    rep_fn = rep_sweep if spec["workers"] else rep_in_process
    checks = Checks()
    samples = []
    start = time.monotonic()
    ticks = cpu_ticks()
    while True:
        t0 = time.monotonic()
        rep_dir = os.path.join(run_dir, "rep-%02d" % len(samples))
        os.makedirs(rep_dir)
        s = rep_fn(spec, workload, seed, rep_dir, checks, trace)
        samples.append(s)
        log("rep %d: %s" % (len(samples), json.dumps(
            {k: v for k, v in s.items() if k != "layers"})))
        if trace:
            # The traced pass's spans outlive the rep.
            os.replace(os.path.join(rep_dir, "traced.json"),
                       os.path.join(run_dir, "traced-%02d.json" % len(samples)))
        shutil.rmtree(rep_dir, ignore_errors=True)
        took = time.monotonic() - t0
        if time.monotonic() - start + took > seconds:
            break
    if trace:
        metrics = aggregate_layers(samples)
    else:
        metrics = aggregate_e2e(samples)
    for name in metrics:
        if not stats.valid_name(name):
            raise BenchError("invalid metric name %r" % name)
    result = {"correct": checks.failed == 0, "attempted": checks.attempted,
              "failed": checks.failed, "metrics": metrics}
    steal = steal_frac(ticks, cpu_ticks())
    if steal is not None:
        log("host steal time during the run: %.1f%% of CPU time%s" % (
            100 * steal, " -- timings are not comparable" if steal > 0.05 else ""))
    with open(os.path.join(run_dir, "result.json"), "w") as f:
        json.dump({"result": result, "provenance": prov, "problems": checks.problems,
                   "reps": len(samples), "host_steal_frac": steal}, f, indent=2, sort_keys=True)
    return result


def spec_metrics(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)[kind]


def aggregate_e2e(samples):
    values = {
        "wall_s": [s["wall_s"] for s in samples],
        "setup_s": [x for s in samples for x in s["setup_s"]],
        "resume_s": [x for s in samples for x in s["resume_s"]],
        "peak_rss_mb": [s["peak_rss_mb"] for s in samples],
    }
    return {m["name"]: {"value": stats.median(values[m["name"]]), "unit": m["unit"]}
            for m in spec_metrics("end_to_end")}


def aggregate_layers(samples):
    out = {}
    for m in spec_metrics("per_layer"):
        vals = [s["layers"][m["name"]] for s in samples]
        out[m["name"]] = {"value": stats.median(vals), "unit": m["unit"]}
    return out


# -- helpers for people -------------------------------------------------------------

def run_all(seeds, seconds):
    """Every workload at every seed, untraced, one summary line per metric."""
    ok = True
    for seed in seeds:
        for w in WORKLOADS:
            r = run(w, seed, seconds, 0)
            ok = ok and r["correct"]
            print("seed %-6d %-15s %-12s %12.6g %s" % (
                seed, w, "error_rate", r["failed"] / r["attempted"], "ratio"), flush=True)
            for name, m in r["metrics"].items():
                print("seed %-6d %-15s %-12s %12.6g %s" % (seed, w, name, m["value"], m["unit"]),
                      flush=True)
    return ok


def record_reference():
    """Record the table and CSV digests at REFERENCE_SEED, after checking
    that the benchmark's CSVs are byte-identical to the registry entries'
    (`ckpt experiment fig4`, `table3`, `sweep-smoke`) at that seed."""
    cli = {"peta-weibull": ("fig4", 8), "seq-weibull-dp": ("table3", 8),
           "sweep-workers": ("sweep-smoke", 48)}
    build()
    ref = {"reference_seed": REFERENCE_SEED, "workloads": {}}
    base = os.path.join(OUT, "reference")
    shutil.rmtree(base, ignore_errors=True)
    for w, spec in WORKLOADS.items():
        d = os.path.join(base, w)
        os.makedirs(d)
        res = driver_pass(spec, w, REFERENCE_SEED, d, "cold", "run", store=os.path.join(d, "store"))
        bad = [t for t in res["tables"] if not t["ok"]]
        if bad:
            raise BenchError("%s: tables failed their invariants: %s" % (w, bad))
        if w in cli:
            exp_id, traces = cli[w]
            results = os.path.join(d, "results-cli")
            spawn([CKPT, "experiment", exp_id, "--traces", str(traces)],
                  clean_env(spec, results, REFERENCE_SEED), os.path.join(d, "cli.stdout"))
            # Every CSV the benchmark writes must be the registry entry's,
            # byte for byte; the entry may write more (table3's 1-hour row).
            cli_csv, bench_csv = csv_files(results), csv_files(res["results"])
            if not bench_csv or any(cli_csv.get(n) != b for n, b in bench_csv.items()):
                raise BenchError("%s: CSVs differ from `ckpt experiment %s`" % (w, exp_id))
            log("%s: CSVs %s byte-identical to `ckpt experiment %s`%s" % (
                w, ", ".join(sorted(bench_csv)), exp_id,
                "" if len(cli_csv) == len(bench_csv)
                else " (not written by the benchmark: %s)" % ", ".join(sorted(set(cli_csv) - set(bench_csv)))))
        ref["workloads"][w] = {"tables": digests(res["tables"]), "csv": csv_digests(res["results"])}
    with open(REFERENCE, "w") as f:
        json.dump(ref, f, indent=2, sort_keys=True)
        f.write("\n")
    log("wrote " + REFERENCE)


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None,
                    help="default: %d; --all runs %d and %d" % (
                        REFERENCE_SEED, REFERENCE_SEED, CONFIRM_SEED))
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload, print a summary")
    ap.add_argument("--record-reference", action="store_true")
    a = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, terminate)
    signal.signal(signal.SIGINT, terminate)
    try:
        if a.record_reference:
            record_reference()
            return 0
        seconds = a.seconds if a.seconds is not None else json.load(
            open(os.path.join(ROOT, "BENCHMARK.json")))["run_seconds"]
        if a.all:
            seeds = [REFERENCE_SEED, CONFIRM_SEED] if a.seed is None else [a.seed]
            return 0 if run_all(seeds, seconds) else 1
        if not a.workload:
            ap.error("--workload is required (or --all)")
        seed = REFERENCE_SEED if a.seed is None else a.seed
        print(json.dumps(run(a.workload, seed, seconds, a.trace)), flush=True)
        return 0
    except (BenchError, OSError, KeyError, ValueError) as e:
        log("ERROR: %s" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
