"""Pure helpers of the benchmark: metric names, aggregation, bound checks.

Kept free of I/O so test_stats.py can pin them down.
"""

import re
import statistics

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def valid_name(name):
    """A metric or workload name: a letter or digit first, then at most
    63 more letters, digits, '_', '.' or '-'."""
    return isinstance(name, str) and NAME_RE.fullmatch(name) is not None


def valid_unit(unit):
    return isinstance(unit, str) and UNIT_RE.fullmatch(unit) is not None


def median(values):
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def quartiles(values):
    """(Q1, median, Q3) as statistics.quantiles(values, n=4) gives them
    (the 'exclusive' method).  Needs at least two values."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0:
        raise ValueError("spread of values whose median is 0")
    return (q3 - q1) / abs(q2)


def worsening(parent_median, median_value, better):
    """How much worse median_value is than parent_median, as a share of
    parent_median; negative when it is better."""
    if parent_median == 0:
        raise ValueError("worsening against a zero median")
    change = (median_value - parent_median) / abs(parent_median)
    return change if better == "lower" else -change


def spread_verdicts(metrics, samples, exempt=("setup_s",), margin=1.0):
    """For each end-to-end metric (dicts with name and bound), whether
    the spread of its samples stays within margin * bound.  Metrics
    named in exempt are reported but always pass."""
    out = {}
    for m in metrics:
        s = spread(samples[m["name"]])
        ok = m["name"] in exempt or s <= margin * m["bound"]
        out[m["name"]] = (s, ok)
    return out


def median_verdicts(metrics, first, second):
    """For each metric, whether the median of second is not worse than
    the median of first by more than the metric's bound."""
    out = {}
    for m in metrics:
        w = worsening(median(first[m["name"]]), median(second[m["name"]]), m["better"])
        out[m["name"]] = (w, w <= m["bound"])
    return out


def validate_benchmark(spec):
    """Problems with a BENCHMARK.json document, as a list of strings
    (empty when it is well formed)."""
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        problems.append("keys must be exactly %s" % sorted(keys))
        return problems
    names = []
    for w in spec["workloads"]:
        if set(w) != {"name", "why"}:
            problems.append("workload keys must be name and why: %r" % w)
        names.append(w.get("name"))
        if len(w.get("why", "")) > 200 or "\n" in w.get("why", ""):
            problems.append("workload why too long or multi-line: %r" % w.get("name"))
    if not 2 <= len(spec["workloads"]) <= 8:
        problems.append("2 to 8 workloads")
    for kind, lo, hi, mkeys in (
        ("end_to_end", 1, 16, {"name", "unit", "better", "bound"}),
        ("per_layer", 1, 128, {"name", "unit", "better"}),
    ):
        ms = spec[kind]
        if not lo <= len(ms) <= hi:
            problems.append("%s: %d to %d metrics" % (kind, lo, hi))
        for m in ms:
            if set(m) != mkeys:
                problems.append("%s keys must be %s: %r" % (kind, sorted(mkeys), m))
            if not valid_unit(m.get("unit")):
                problems.append("bad unit: %r" % m.get("unit"))
            if m.get("better") not in ("lower", "higher"):
                problems.append("better must be lower or higher: %r" % m.get("name"))
            if kind == "end_to_end" and not 0 < m.get("bound", -1) <= 0.25:
                problems.append("bound must be in (0, 0.25]: %r" % m.get("name"))
            names.append(m.get("name"))
    for n in names:
        if not valid_name(n):
            problems.append("bad name: %r" % n)
    dups = {n for n in names if names.count(n) > 1}
    if dups:
        problems.append("names used more than once: %s" % sorted(dups))
    setup = [m for m in spec["end_to_end"] if m.get("name") == "setup_s"]
    if not setup or setup[0].get("unit") != "s" or setup[0].get("better") != "lower":
        problems.append("end_to_end must hold setup_s in s, lower is better")
    elif setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        problems.append("setup_s must carry the largest bound")
    if not (isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60):
        problems.append("run_seconds must be a whole number from 1 to 60")
    return problems
