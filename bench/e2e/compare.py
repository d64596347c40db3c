#!/usr/bin/env python3
"""Compares two sets of bench_e2e --json results, parent vs change.

    python3 bench/e2e/compare.py --parent p1.json p2.json ... --change c1.json c2.json ...

Run the two commits as alternating pairs (parent first in odd pairs, change
first in even ones) with identical settings and seeds; the i-th parent file
pairs with the i-th change file. For every workload and metric in spec.json:

  gain        the change wins at least 9/10 of the pairs (ties count for
              neither side) and its median differs from the parent's by more
              than the parent's interquartile range; needs 10 or more pairs
  regression  the change's median is worse than the parent's by more than the
              metric's bound
  unresolved  the parent's own spread is wider than the bound and not every
              change run beats every parent run
  changed     a modeled (deterministic) metric differs at all
  same        none of the above

Per-layer metrics carry no bound: they can show a gain, never a regression.
Exits 1 when any metric regressed or a modeled metric changed.
"""
import argparse
import json
import os
import statistics
import sys

SPEC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "spec.json")


def load(paths):
    """{(workload, metric): [value per file]} over the files, in order."""
    values = {}
    for path in paths:
        with open(path) as f:
            for result in json.load(f)["results"]:
                for name, m in result["metrics"].items():
                    values.setdefault((result["workload"], name), []).append(m["value"])
    return values


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(parent, change, metric):
    if metric["modeled"]:
        return "same" if parent == change else "changed"
    sign = 1 if metric["better"] == "higher" else -1
    p_med, c_med = statistics.median(parent), statistics.median(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    q1, q3 = quartiles(parent)
    iqr = q3 - q1
    bound = metric["bound"]
    limit = float("inf") if bound is None else bound * abs(p_med)
    if len(parent) >= 10 and wins >= 0.9 * len(parent) and sign * (c_med - p_med) > iqr:
        return "gain"
    if sign * (p_med - c_med) > limit:
        return "regression"
    if iqr > limit and not min(sign * c for c in change) > max(sign * p for p in parent):
        return "unresolved"
    return "same"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args()
    if len(args.parent) != len(args.change):
        sys.exit("compare.py: --parent and --change need the same number of files")
    with open(SPEC) as f:
        metrics = {m["name"]: m for m in json.load(f)["metrics"]}
    parent, change = load(args.parent), load(args.change)

    print(f"{'workload':<11} {'metric':<38} {'parent':>12} {'change':>12} {'iqr':>10}  verdict")
    failed = 0
    for key in sorted(parent.keys() & change.keys()):
        workload, name = key
        m = metrics.get(name)
        if m is None or m["kind"] == "host" or len(parent[key]) != len(change[key]):
            continue
        v = verdict(parent[key], change[key], m)
        failed += v in ("regression", "changed")
        q1, q3 = quartiles(parent[key])
        print(f"{workload:<11} {name:<38} {statistics.median(parent[key]):>12.6g} "
              f"{statistics.median(change[key]):>12.6g} {q3 - q1:>10.4g}  {v}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
