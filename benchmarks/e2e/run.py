"""End-to-end benchmark: five workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload solve_small --seed 3 --trace 0
    python3 benchmarks/e2e/run.py --seed 0                         # all five workloads

With ``--workload NAME`` it runs one workload: ``--trace 0`` measures
the end-to-end metrics (the timed phase, and set-up time from five cold
child processes), ``--trace 1`` the per-layer metrics (timed phase, then
the traced phase).  Without ``--workload`` it runs all five, each with
set-up, timed and traced phases, and prints every metric.

Every metric is printed as ``workload metric value unit``; the last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  Each workload runs in fresh child processes
(``child.py``), so process-global state (kernel tier, metrics registry,
shard pools) cannot leak from one measurement into the next.  Any wrong
answer or ledger snapshot is reported on stderr and the exit code is 1.

``--out DIR`` keeps each run's full record for ``compare.py``;
``--spans PATH`` writes the traced phase's spans as JSONL.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"
SNAPSHOTS = HERE / "snapshots_seed0.json"

#: cold child processes whose median is ``setup_s``
SETUP_RUNS = 5
#: a single-workload run gives up (exit 1) after this many seconds
RUN_BUDGET_S = 170.0
#: keep NumPy's thread pools at one thread: the load is this process.
#: Children keep their bytecode in the benchmark's own cache and write it
#: whatever the caller's environment says, so a cold start reads compiled
#: modules, as an installed library does, on every host and every run.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
             "PYTHONPYCACHEPREFIX": str(ROOT / ".bench_build" / "pycache")}


class ChildError(RuntimeError):
    """A child process failed, timed out, or printed no result."""


def spawn(args, deadline: float) -> dict:
    """Run ``child.py`` with ``args`` and return its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildError("out of time before starting " + " ".join(args))
    env = {**os.environ, **CHILD_ENV}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise ChildError(f"child {' '.join(args)} timed out after {timeout:.0f}s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"child {' '.join(args)} exited {proc.returncode}:\n"
                         + proc.stderr[-4000:])
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, *, setup: bool, trace: bool,
                 spans, deadline: float) -> dict:
    def setups(count):
        return [spawn(["setup", name, str(seed)], deadline)
                for _ in range(count if setup else 0)]

    # an untimed first start fills the bytecode cache; then half the cold
    # starts run before the measurement and half after, so the median
    # spans two moments of a host whose speed drifts
    setups(1)
    runs = setups(SETUP_RUNS // 2)
    args = ["measure", name, str(seed), repr(seconds), "1" if trace else "0"]
    if spans is not None:
        args.append(str(spans))
    record = spawn(args, deadline)
    runs += setups(SETUP_RUNS - SETUP_RUNS // 2)
    if setup:
        record["setup_runs_s"] = [r["setup_s"] for r in runs]
        record["end_to_end"]["setup_s"] = statistics.median(record["setup_runs_s"])
        record["context"]["raw_setup_s"] = statistics.median(r["raw_setup_s"] for r in runs)
    return record


def metric_lines(name: str, record: dict, specs: dict) -> list:
    """``(metric, value, unit)`` for every declared metric the record holds."""
    values = {**record.get("end_to_end", {}), **record.get("per_layer", {})}
    return [(metric, values[metric], specs[metric]) for metric in specs if metric in values]


def main(argv=None) -> int:
    spec = json.loads(BENCHMARK.read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=names + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="size of the timed phase: a fixed op count that takes about this "
                         "long (default: run_seconds in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="single workload: 0 reports end-to-end metrics, 1 per-layer")
    ap.add_argument("--out", type=Path, default=None, help="directory for run records")
    ap.add_argument("--spans", type=Path, default=None, help="JSONL file for traced spans")
    ap.add_argument("--pin-snapshots", action="store_true",
                    help=f"write {SNAPSHOTS.name} from a seed-0 run (the file must not exist)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no library source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    if args.pin_snapshots and (args.seed != 0 or SNAPSHOTS.exists()):
        print(f"error: --pin-snapshots needs --seed 0 and no existing {SNAPSHOTS}",
              file=sys.stderr)
        return 2

    single = args.workload != "all"
    if single:
        names = [args.workload]
        setup, trace = not args.trace, bool(args.trace)
        declared = spec["per_layer"] if trace else spec["end_to_end"]
    else:
        setup, trace = True, True
        declared = spec["end_to_end"] + spec["per_layer"]
    declared = {m["name"]: m["unit"] for m in declared}
    if args.spans is not None:
        args.spans.write_text("")
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)

    correct, attempted, failed, metrics, pins = True, 0, 0, {}, {}
    for name in names:
        deadline = time.monotonic() + (RUN_BUDGET_S if single else 2 * RUN_BUDGET_S)
        try:
            record = run_workload(name, args.seed, seconds, setup=setup, trace=trace,
                                  spans=args.spans, deadline=deadline)
        except ChildError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        for message in record["mismatches"] + record["failures"]:
            print(f"{name}: {message}", file=sys.stderr)
        correct = correct and record["correct"]
        attempted += record["attempted"]
        failed += record["failed"]
        pins[name] = record.pop("digests")
        for key, value in record["context"].items():
            print(f"{name} context.{key} {value!r}")
        for metric, value, unit in metric_lines(name, record, declared):
            print(f"{name} {metric} {value!r} {unit}")
            metrics[metric if single else f"{name}.{metric}"] = {"value": value, "unit": unit}
        if args.out is not None:
            path = args.out / f"{name}-seed{args.seed}-trace{int(trace)}.json"
            path.write_text(json.dumps(record, indent=1))

    if args.pin_snapshots and correct:
        SNAPSHOTS.write_text(json.dumps(pins, indent=0, sort_keys=True) + "\n")
        print(f"wrote {SNAPSHOTS}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
