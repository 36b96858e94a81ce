"""Compare two sets of benchmark runs, metric by metric.

    python3 benchmarks/e2e/compare.py PARENT_DIR CHANGE_DIR [--claim METRIC:WORKLOAD ...]

Each directory holds the records ``run.py --out DIR`` writes, one per
(workload, seed).  For every workload and end-to-end metric in
``BENCHMARK.json`` it prints each side's median and quartiles and a
verdict against the metric's bound:

worse       the change's median is worse than the parent's by more than the bound
better      the median is better by more than the bound, or every run of the
            change beats every run of the parent
same        neither, and the parent's spread (interquartile range over the
            median) is within the bound
unresolved  the parent's spread is wider than the bound and not every run of
            the change beats every run of the parent

A workload on which a larger share of the change's ops failed or was
refused than of the parent's is ``worse`` on every metric, whatever the
numbers say.

``--claim METRIC:WORKLOAD`` applies the rule for claiming a gain: pair the
runs by seed, and require the change to win at least nine tenths of the
pairs (ties count for neither side), at least ten pairs, the medians to
differ by more than the parent's interquartile range, and no more failed
ops than at the parent.

Exits 1 when any verdict is ``worse`` or any claim is not met.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load(directory: Path):
    """From one directory of records: ``{(workload, metric): {seed: value}}``
    and ``{workload: share of attempted ops that failed}``."""
    values: dict = {}
    ops: dict = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        if "setup_runs_s" not in record:  # a --trace 1 run: no set-up measured
            continue
        for metric, value in record.get("end_to_end", {}).items():
            values.setdefault((record["workload"], metric), {})[record["seed"]] = value
        failed, attempted = ops.get(record["workload"], (0, 0))
        ops[record["workload"]] = (failed + record["failed"], attempted + record["attempted"])
    return values, {w: failed / attempted for w, (failed, attempted) in ops.items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def is_better(a: float, b: float, higher: bool) -> bool:
    """Does ``b`` read better than ``a``?"""
    return b > a if higher else b < a


def verdict(parent, change, higher: bool, bound: float) -> str:
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    worse_by = (pm - cm) / pm if higher else (cm - pm) / pm
    all_better = all(is_better(p, c, higher) for p in parent for c in change)
    if worse_by > bound:
        return "worse"
    if -worse_by > bound or all_better:
        return "better"
    if (p3 - p1) / pm > bound:
        return "unresolved"
    return "same"


def claim(parent: dict, change: dict, higher: bool):
    """The pairwise rule for a claimed gain; returns (met, explanation)."""
    seeds = sorted(set(parent) & set(change))
    wins = sum(is_better(parent[s], change[s], higher) for s in seeds)
    p1, pm, p3 = quartiles(list(parent.values()))
    cm = statistics.median(change.values())
    gap = abs(cm - pm)
    met = (len(seeds) >= 10 and wins >= 0.9 * len(seeds)
           and is_better(pm, cm, higher) and gap > p3 - p1)
    return met, (f"{wins}/{len(seeds)} pairs won, median {pm:.6g} -> {cm:.6g}, "
                 f"difference {gap:.6g} vs parent IQR {p3 - p1:.6g}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--claim", action="append", default=[], metavar="METRIC:WORKLOAD")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    (parent, parent_failed), (change, change_failed) = load(args.parent), load(args.change)
    more_failures = {w for w, share in change_failed.items()
                     if share > parent_failed.get(w, 0.0)}
    status = 0

    print(f"{'workload':<12} {'metric':<17} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'bound':>6}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        if workload in more_failures:
            print(f"{workload:<12} failed ops: {parent_failed.get(workload, 0.0):.6g} of "
                  f"attempted at the parent, {change_failed[workload]:.6g} at the change")
        for name, m in metrics.items():
            a = list(parent.get((workload, name), {}).values())
            b = list(change.get((workload, name), {}).values())
            if not a or not b:
                print(f"{workload:<12} {name:<17} {'(no runs)':>34}")
                continue
            higher = m["better"] == "higher"
            v = "worse" if workload in more_failures else verdict(a, b, higher, m["bound"])
            status |= v == "worse"
            cells = []
            for values in (a, b):
                q1, med, q3 = quartiles(values)
                cells.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}")
            print(f"{workload:<12} {name:<17} {cells[0]:>34} {cells[1]:>34} "
                  f"{m['bound']:>6}  {v}")

    for item in args.claim:
        name, _, workload = item.partition(":")
        if name not in metrics or (workload, name) not in parent:
            print(f"claim {item}: unknown metric or workload, or no parent runs")
            status = 1
            continue
        met, why = claim(parent[(workload, name)], change.get((workload, name), {}),
                         metrics[name]["better"] == "higher")
        if workload in more_failures:
            met, why = False, why + "; more failed ops than at the parent"
        print(f"claim {name} on {workload}: {'met' if met else 'NOT met'} ({why})")
        status |= not met
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
