"""Batched-vs-serial throughput for the ``solve_many`` pipeline.

Measures ``B`` same-shape ``rowmin`` queries answered two ways on a
CRCW engine session:

``serial``
    ``B`` independent :meth:`Session.solve` calls — one machine
    allocation, one ledger sub-account, one fused-kernel sweep *per
    query*;
``batched``
    one :meth:`Session.solve_many` call — the planner buckets all ``B``
    queries into a single fused sweep
    (:func:`repro.core.rowmin_pram.batched_row_extrema`) whose
    :class:`~repro.kernels.chargefan.ChargeFan` replays each query's serial
    charges.

Equivalence is asserted on every run, smoke or full: values and
witnesses bit-identical, and every query's ledger sub-account snapshot
equal to its serial twin (the batched ledger is *derivable*
from the serial path — here it is byte-equal).  The harness refuses to
emit a baseline that violates this.  Wall-clock is best-of-``--repeats``
per side; the JSON lands in ``BENCH_batch.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_batch.py            # full matrix
    PYTHONPATH=src python benchmarks/bench_batch.py --smoke    # fast CI smoke
    PYTHONPATH=src python benchmarks/bench_batch.py --out /tmp/b.json

Under pytest the smoke matrix runs with the equivalence assertions.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List, Tuple

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro.engine import Session
from repro.monge.generators import random_monge
from repro.obs import reset_metrics
from repro.obs import snapshot as obs_snapshot
from repro.perf import Timer, emit_json, environment_fingerprint, throughput

DEFAULT_OUT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "BENCH_batch.json")


def make_batch(B: int, n: int) -> list:
    """``B`` independent n×n Monge instances (distinct seeds)."""
    return [random_monge(n, n, np.random.default_rng(1000 * n + k)) for k in range(B)]


def solve_serial(arrays) -> Tuple[Session, list]:
    s = Session("pram-crcw")
    return s, [s.solve("rowmin", a) for a in arrays]


def solve_batched(arrays) -> Tuple[Session, object]:
    s = Session("pram-crcw")
    return s, s.solve_many("rowmin", arrays)


def check_equivalence(serial_results, batch) -> List[str]:
    """Bit-identity violations between the two execution paths."""
    problems = []
    if batch.fused_queries != len(serial_results):
        problems.append(
            f"only {batch.fused_queries}/{len(serial_results)} queries fused"
        )
    for k, (ref, got) in enumerate(zip(serial_results, batch)):
        if not np.array_equal(ref.values, got.values):
            problems.append(f"query {k}: values differ")
        if not np.array_equal(ref.witnesses, got.witnesses):
            problems.append(f"query {k}: witnesses differ")
        if ref.snapshot != got.snapshot:
            problems.append(f"query {k}: ledger snapshots differ")
    return problems


def run_workload(B: int, n: int, repeats: int) -> Dict:
    arrays = make_batch(B, n)
    best = {"serial": float("inf"), "batched": float("inf")}
    serial_results = batch = None
    # interleave the two sides within each repeat so both sample the
    # same host-load epochs (stable ratios on noisy machines)
    for _ in range(repeats):
        with Timer() as t:
            _, serial_results = solve_serial(arrays)
        best["serial"] = min(best["serial"], t.seconds)
        with Timer() as t:
            _, batch = solve_batched(arrays)
        best["batched"] = min(best["batched"], t.seconds)
    violations = check_equivalence(serial_results, batch)
    speedup = best["serial"] / max(best["batched"], 1e-12)
    return {
        "params": {"B": B, "n": n, "model": "CRCW", "problem": "rowmin"},
        "wall_s": {k: round(v, 6) for k, v in best.items()},
        "speedup_batched": round(speedup, 3),
        "queries_per_s_serial": round(throughput(B, best["serial"]), 1),
        "queries_per_s_batched": round(throughput(B, best["batched"]), 1),
        "fused_queries": batch.fused_queries,
        "rounds_per_query": batch.snapshots[0]["rounds"],
        "identical": not violations,
        "violations": violations,
    }


def matrix(smoke: bool) -> List[Tuple[int, int]]:
    """(B, n) sizes; the full matrix covers the n≥512 acceptance point."""
    if smoke:
        return [(8, 48), (16, 64)]
    return [(16, 128), (16, 256), (16, 512), (32, 512)]


def run_matrix(smoke: bool, repeats: int) -> Dict:
    reset_metrics()
    workloads = {}
    for B, n in matrix(smoke):
        workloads[f"rowmin_B{B}_n{n}"] = run_workload(B, n, repeats)
    bad = [name for name, w in workloads.items() if not w["identical"]]
    if bad:
        raise RuntimeError(
            f"batched/serial equivalence violated by: {', '.join(bad)} — "
            "refusing to emit a baseline"
        )
    return {
        "meta": {**environment_fingerprint(), "smoke": smoke, "repeats": repeats},
        "workloads": workloads,
        # process-wide engine counters — batch fusion rate lives here
        "metrics": obs_snapshot(),
    }


def _print_table(payload: Dict) -> None:
    print(f"{'workload':<22} {'serial(s)':>10} {'batched(s)':>11} {'x':>6} "
          f"{'q/s batched':>12} {'fused':>6}")
    for name, w in payload["workloads"].items():
        ws = w["wall_s"]
        print(f"{name:<22} {ws['serial']:>10.4f} {ws['batched']:>11.4f} "
              f"{w['speedup_batched']:>6.2f} {w['queries_per_s_batched']:>12.1f} "
              f"{w['fused_queries']:>6}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="small sizes, 1 repeat (CI equivalence smoke)")
    ap.add_argument("--repeats", type=int, default=None, help="timing repeats (best-of)")
    ap.add_argument("--out", default=None, help=f"output JSON path (default {DEFAULT_OUT})")
    args = ap.parse_args(argv)
    repeats = args.repeats if args.repeats is not None else (1 if args.smoke else 5)
    payload = run_matrix(args.smoke, repeats)
    _print_table(payload)
    if args.out is not None:
        out = args.out
    elif args.smoke:
        # never let a smoke run silently replace the pinned full baseline
        out = DEFAULT_OUT.replace(".json", "_smoke.json")
    else:
        out = DEFAULT_OUT
    emit_json(out, payload)
    print(f"\nwrote {out}")
    return 0


# --------------------------------------------------------------------- #
# pytest face: smoke equivalence + acceptance speedup
# --------------------------------------------------------------------- #
def test_smoke_equivalence(tmp_path):
    payload = run_matrix(smoke=True, repeats=1)
    emit_json(str(tmp_path / "BENCH_batch_smoke.json"), payload)
    for name, w in payload["workloads"].items():
        assert w["identical"], (name, w["violations"])
        assert w["fused_queries"] == w["params"]["B"], name


def test_batched_speedup_acceptance():
    """Acceptance: ≥2× over serial for 16 same-shape queries at n=512."""
    rec = run_workload(16, 512, repeats=3)
    assert rec["identical"], rec["violations"]
    assert rec["speedup_batched"] >= 2.0, (
        f"speedup {rec['speedup_batched']:.2f} < 2.0"
    )


if __name__ == "__main__":
    raise SystemExit(main())
