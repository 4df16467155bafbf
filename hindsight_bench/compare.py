#!/usr/bin/env python3
"""Compares two sets of bench_hindsight results (parent vs change).

    python3 hindsight_bench/compare.py PARENT CHANGE [--benchmark PATH]
    python3 hindsight_bench/compare.py --self-check

PARENT and CHANGE hold run records as written by `run.py --out` (one JSON
object per line, or one JSON array): {"workload", "seed", "trace",
"result"}. Run i of one side is paired with run i of the other, so run the
two sides alternately. Per workload and metric the report gives each
side's median and quartiles over its runs, the fraction of pairs the
change wins (ties count for neither), and a verdict:

  gain        at least 10 pairs, the change wins at least 9/10 of them,
              and the medians differ by more than the parent's quartile
              spread;
  REGRESSION  an end-to-end metric's change median is worse than the
              parent's by more than the metric's bound in BENCHMARK.json;
  unresolved  the parent's own spread ((q3 - q1) / median) exceeds the
              bound and not every change run beats every parent run;
  ok          none of the above.

Per-layer metrics have no bound: they get gain / worse / same by the same
pair rule, so fewer than 10 pairs always read "same". Exit status: 1 if any REGRESSION, 2 on malformed input, else 0.
"""

import argparse
import json
import os
import statistics
import sys

MIN_PAIRS = 10


def load_runs(path):
    with open(path) as f:
        text = f.read().strip()
    if text.startswith("["):
        records = json.loads(text)
    else:
        records = [json.loads(line) for line in text.splitlines() if line]
    runs = {}
    for r in records:
        key = (r["workload"], int(r["trace"]))
        metrics = {k: float(v["value"])
                   for k, v in r["result"]["metrics"].items()}
        runs.setdefault(key, []).append(metrics)
    return runs


def load_definitions(path):
    with open(path) as f:
        bench = json.load(f)
    defs = {}
    for m in bench["end_to_end"]:
        defs[m["name"]] = (m["better"], float(m["bound"]))
    for m in bench["per_layer"]:
        defs[m["name"]] = (m["better"], None)
    return defs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """Returns (verdict, detail dict) for one metric on one workload."""
    sign = 1.0 if better == "lower" else -1.0
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    win_frac = wins / len(pairs) if pairs else 0.0
    detail = {"parent": (pmed, pq1, pq3), "change": (cmed, cq1, cq3),
              "wins": win_frac, "pairs": len(pairs)}
    improved = sign * (cmed - pmed) < 0
    separated = abs(cmed - pmed) > (pq3 - pq1)
    if (len(pairs) >= MIN_PAIRS and win_frac >= 0.9 and improved
            and separated):
        return "gain", detail
    if bound is None:
        worse = (len(pairs) >= MIN_PAIRS and sign * (cmed - pmed) > 0
                 and separated and win_frac <= 0.1)
        return ("worse" if worse else "same"), detail
    scale = abs(pmed) if pmed != 0 else 1.0
    if sign * (cmed - pmed) / scale > bound:
        return "REGRESSION", detail
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if (pq3 - pq1) / scale > bound and not all_better:
        return "unresolved", detail
    return "ok", detail


def compare(parent_runs, change_runs, defs):
    """Yields (workload, trace, metric, verdict, detail)."""
    for key in sorted(set(parent_runs) & set(change_runs)):
        p_runs, c_runs = parent_runs[key], change_runs[key]
        names = sorted(set(p_runs[0]) & set(c_runs[0]))
        for name in names:
            if name not in defs:
                continue
            better, bound = defs[name]
            v, d = verdict([r[name] for r in p_runs],
                           [r[name] for r in c_runs], better, bound)
            yield key[0], key[1], name, v, d


def report(rows):
    regressions = 0
    print("%-18s %-28s %-36s %-36s %6s  %s" %
          ("workload", "metric", "parent median [q1, q3]",
           "change median [q1, q3]", "wins", "verdict"))
    for workload, trace, name, v, d in rows:
        regressions += v == "REGRESSION"
        fmt = "%.5g [%.5g, %.5g]"
        print("%-18s %-28s %-36s %-36s %5.0f%%  %s" %
              (workload + ("*" if trace else ""), name, fmt % d["parent"],
               fmt % d["change"], 100 * d["wins"], v))
    print("(* = traced run; wins = share of paired runs the change wins)")
    return 1 if regressions else 0


def self_check():
    defs = {"op_s": ("lower", 0.1), "ops": ("higher", 0.1),
            "layer": ("lower", None)}

    def runs(values, name="op_s"):
        return {("w", 0): [{name: v} for v in values]}

    def one(parent, change, name="op_s"):
        rows = list(compare(runs(parent, name), runs(change, name), defs))
        return rows[0][3] if len(rows) == 1 else "no row"

    base = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.01]
    checks = [
        (one(base, base), "ok"),
        (one(base, [v * 1.3 for v in base]), "REGRESSION"),
        (one(base, [v * 0.8 for v in base]), "gain"),
        (one(base, [v * 1.05 for v in base]), "ok"),
        (one([0.7, 1.3, 0.8, 1.2, 1.0, 0.75, 1.25, 0.9, 1.1, 1.0],
             [v * 1.02 for v in base]), "unresolved"),
        (one(base, [v * 1.3 for v in base], "ops"), "gain"),
        (one(base, [v * 0.7 for v in base], "ops"), "REGRESSION"),
        (one(base, [v * 1.5 for v in base], "layer"), "worse"),
        (one(base, base, "layer"), "same"),
        (one(base[:9], [v * 0.8 for v in base[:9]]), "ok"),
    ]
    failed = [(i, got, want) for i, (got, want) in enumerate(checks)
              if got != want]
    for i, got, want in failed:
        print("self-check case %d: got %s, want %s" % (i, got, want))
    print("compare.py self-check: %d of %d cases passed" %
          (len(checks) - len(failed), len(checks)))
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--benchmark", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCHMARK.json"))
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if args.self_check:
        return self_check()
    if not args.parent or not args.change:
        parser.error("PARENT and CHANGE are required")
    try:
        defs = load_definitions(args.benchmark)
        parent, change = load_runs(args.parent), load_runs(args.change)
    except (OSError, ValueError, KeyError, TypeError) as e:
        print("compare.py: malformed input: %s" % e, file=sys.stderr)
        return 2
    return report(compare(parent, change, defs))


if __name__ == "__main__":
    sys.exit(main())
