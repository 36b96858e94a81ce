"""Served-vs-unbatched throughput and latency for ``repro.serve``.

Two load shapes against a live :class:`~repro.serve.QueryService`
(production wiring: monotonic clock + worker-thread executor):

``closed``
    ``C`` concurrent clients each submit ``R`` same-shape ``rowmin``
    queries back-to-back (a new request the moment the previous answer
    lands).  Run twice — ``fused`` (the default policy: dispatch when
    idle) vs ``unbatched`` (``max_batch=1``: every request is its own
    bucket) — and compare throughput.  The speedup is the service's
    reason to exist: requests that queue together execute as one fused
    sweep.
``open``
    Requests arrive on a fixed schedule (one every ``gap`` seconds)
    regardless of completions; per-request latency is sampled raw
    (submit → result) and summarized as exact p50/p99 alongside the
    ``serve.*`` counters (shed / expired / fusion width).

Equivalence is asserted on every run, smoke or full: every served
answer — both load shapes, both policies — must be bit-identical
(values, witnesses, ledger snapshot) to a direct :meth:`Session.solve`
of the same instance.  The harness refuses to emit a baseline that
violates this.  The JSON lands in ``BENCH_serve.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py            # full matrix
    PYTHONPATH=src python benchmarks/bench_serve.py --smoke    # fast CI smoke
    PYTHONPATH=src python benchmarks/bench_serve.py --out /tmp/s.json

Under pytest the smoke matrix runs with the equivalence assertions.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import sys
import time
from typing import Dict, List, Tuple

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro.engine import Session
from repro.monge.generators import random_monge
from repro.obs import metrics, reset_metrics
from repro.obs import snapshot as obs_snapshot
from repro.perf import emit_json, environment_fingerprint, throughput
from repro.serve import QueryService, ServiceConfig

DEFAULT_OUT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "BENCH_serve.json")

#: The policy under test: the default (dispatch when idle; requests that
#: queue while the executor is busy run as one fused bucket).
FUSED = ServiceConfig()
#: The comparison policy: ``max_batch=1``, so every request is its own
#: bucket — the service still admits/schedules, but fusion is off.
UNBATCHED = ServiceConfig(max_batch=1)


def make_requests(total: int, n: int) -> list:
    """``total`` independent n×n Monge instances (distinct seeds)."""
    return [random_monge(n, n, np.random.default_rng(9000 * n + k))
            for k in range(total)]


def reference_results(arrays) -> list:
    s = Session("pram-crcw")
    return [s.solve("rowmin", a) for a in arrays]


def check_equivalence(refs, served, label: str) -> List[str]:
    problems = []
    for k, (ref, got) in enumerate(zip(refs, served)):
        if got is None:
            problems.append(f"{label} request {k}: no result")
            continue
        if not np.array_equal(ref.values, got.values):
            problems.append(f"{label} request {k}: values differ")
        if not np.array_equal(ref.witnesses, got.witnesses):
            problems.append(f"{label} request {k}: witnesses differ")
        if ref.snapshot != got.snapshot:
            problems.append(f"{label} request {k}: ledger snapshots differ")
    return problems


# --------------------------------------------------------------------- #
# closed loop
# --------------------------------------------------------------------- #
async def _closed_loop(policy: ServiceConfig, arrays, clients: int):
    """C clients round-robin the request list back-to-back; returns
    (results_in_submission_order, wall_seconds)."""
    results = [None] * len(arrays)

    async def client(cid: int, svc: QueryService):
        for k in range(cid, len(arrays), clients):
            results[k] = await svc.solve("rowmin", arrays[k])

    async with QueryService("pram-crcw", policy=policy) as svc:
        start = time.perf_counter()
        await asyncio.gather(*(client(c, svc) for c in range(clients)))
        wall = time.perf_counter() - start
    return results, wall


def run_closed(n: int, clients: int, per_client: int, repeats: int) -> Dict:
    total = clients * per_client
    arrays = make_requests(total, n)
    refs = reference_results(arrays)
    best = {"fused": float("inf"), "unbatched": float("inf")}
    violations: List[str] = []
    fused_stats: Dict = {}
    # interleave the two policies within each repeat so both sample the
    # same host-load epochs (stable ratios on noisy machines)
    for _ in range(repeats):
        for label, policy in (("fused", FUSED), ("unbatched", UNBATCHED)):
            reset_metrics()
            results, wall = asyncio.run(_closed_loop(policy, arrays, clients))
            best[label] = min(best[label], wall)
            violations += check_equivalence(refs, results, f"closed/{label}")
            if label == "fused":
                width = metrics().histogram("serve.fusion_width")
                counters = metrics().snapshot()["counters"]
                fused_stats = {
                    "buckets": counters.get("serve.buckets", 0),
                    "fused_requests": counters.get("serve.fused_requests", 0),
                    "max_fusion_width": width.max,
                    "mean_fusion_width": round(width.mean or 0.0, 2),
                }
    speedup = best["unbatched"] / max(best["fused"], 1e-12)
    return {
        "params": {"n": n, "clients": clients, "per_client": per_client,
                   "total": total, "model": "CRCW", "problem": "rowmin"},
        "wall_s": {k: round(v, 6) for k, v in best.items()},
        "speedup_fused": round(speedup, 3),
        "requests_per_s_fused": round(throughput(total, best["fused"]), 1),
        "requests_per_s_unbatched": round(throughput(total, best["unbatched"]), 1),
        **fused_stats,
        "identical": not violations,
        "violations": violations,
    }


# --------------------------------------------------------------------- #
# open loop
# --------------------------------------------------------------------- #
async def _open_loop(policy: ServiceConfig, arrays, gap: float):
    """Fixed-schedule arrivals every ``gap`` seconds; returns
    (results, raw_latency_samples_seconds)."""
    latencies = [0.0] * len(arrays)
    results = [None] * len(arrays)

    async def one(k: int, svc: QueryService):
        t0 = time.perf_counter()
        results[k] = await svc.solve("rowmin", arrays[k])
        latencies[k] = time.perf_counter() - t0

    async with QueryService("pram-crcw", policy=policy) as svc:
        tasks = []
        for k in range(len(arrays)):
            tasks.append(asyncio.get_running_loop().create_task(one(k, svc)))
            await asyncio.sleep(gap)
        await asyncio.gather(*tasks)
    return results, latencies


def run_open(n: int, total: int, gap: float) -> Dict:
    arrays = make_requests(total, n)
    refs = reference_results(arrays)
    reset_metrics()
    results, lat = asyncio.run(_open_loop(FUSED, arrays, gap))
    violations = check_equivalence(refs, results, "open/fused")
    ordered = sorted(lat)

    def q(p: float) -> float:
        return ordered[min(len(ordered) - 1, int(p * (len(ordered) - 1)))]

    counters = metrics().snapshot()["counters"]
    return {
        "params": {"n": n, "total": total, "arrival_gap_s": gap,
                   "offered_rps": round(1.0 / gap, 1)},
        "latency_s": {"p50": round(q(0.50), 6), "p99": round(q(0.99), 6),
                      "max": round(ordered[-1], 6)},
        "shed": counters.get("serve.shed", 0),
        "expired": counters.get("serve.expired", 0),
        "buckets": counters.get("serve.buckets", 0),
        "fused_requests": counters.get("serve.fused_requests", 0),
        "identical": not violations,
        "violations": violations,
    }


# --------------------------------------------------------------------- #
# harness
# --------------------------------------------------------------------- #
def matrix(smoke: bool) -> List[Tuple[str, Dict]]:
    """Workload list; the full matrix covers the n=512 acceptance point."""
    if smoke:
        return [
            ("closed_n48", dict(kind="closed", n=48, clients=8, per_client=2)),
            ("open_n48", dict(kind="open", n=48, total=16, gap=0.002)),
        ]
    return [
        ("closed_n128", dict(kind="closed", n=128, clients=16, per_client=4)),
        ("closed_n256", dict(kind="closed", n=256, clients=16, per_client=4)),
        ("closed_n512", dict(kind="closed", n=512, clients=16, per_client=4)),
        ("open_n256", dict(kind="open", n=256, total=48, gap=0.001)),
    ]


def run_matrix(smoke: bool, repeats: int) -> Dict:
    workloads = {}
    for name, spec in matrix(smoke):
        if spec["kind"] == "closed":
            workloads[name] = run_closed(
                spec["n"], spec["clients"], spec["per_client"], repeats
            )
        else:
            workloads[name] = run_open(spec["n"], spec["total"], spec["gap"])
    bad = [name for name, w in workloads.items() if not w["identical"]]
    if bad:
        raise RuntimeError(
            f"served/direct equivalence violated by: {', '.join(bad)} — "
            "refusing to emit a baseline"
        )
    return {
        "meta": {**environment_fingerprint(), "smoke": smoke, "repeats": repeats,
                 "policy_fused": {"max_batch": FUSED.max_batch},
                 "policy_unbatched": {"max_batch": UNBATCHED.max_batch}},
        "workloads": workloads,
        "metrics": obs_snapshot(),
    }


def _print_table(payload: Dict) -> None:
    print(f"{'workload':<14} {'fused(s)':>9} {'unbat(s)':>9} {'x':>6} "
          f"{'req/s fused':>12} {'p99(s)':>9}")
    for name, w in payload["workloads"].items():
        if "wall_s" in w:
            ws = w["wall_s"]
            print(f"{name:<14} {ws['fused']:>9.4f} {ws['unbatched']:>9.4f} "
                  f"{w['speedup_fused']:>6.2f} {w['requests_per_s_fused']:>12.1f} "
                  f"{'-':>9}")
        else:
            print(f"{name:<14} {'-':>9} {'-':>9} {'-':>6} "
                  f"{w['params']['offered_rps']:>12.1f} "
                  f"{w['latency_s']['p99']:>9.4f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="small sizes, 1 repeat (CI equivalence smoke)")
    ap.add_argument("--repeats", type=int, default=None,
                    help="timing repeats (best-of) for closed loops")
    ap.add_argument("--out", default=None,
                    help=f"output JSON path (default {DEFAULT_OUT})")
    args = ap.parse_args(argv)
    repeats = args.repeats if args.repeats is not None else (1 if args.smoke else 3)
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
    emit_json(str(tmp_path / "BENCH_serve_smoke.json"), payload)
    for name, w in payload["workloads"].items():
        assert w["identical"], (name, w["violations"])
    closed = payload["workloads"]["closed_n48"]
    assert closed["fused_requests"] > 0  # fusion actually engaged


def test_served_speedup_acceptance():
    """Acceptance: fused service ≥1.5× the ``max_batch=1`` service for
    16 closed-loop clients at n=512."""
    rec = run_closed(512, clients=16, per_client=4, repeats=3)
    assert rec["identical"], rec["violations"]
    assert rec["speedup_fused"] >= 1.5, (
        f"speedup {rec['speedup_fused']:.2f} < 1.5"
    )


if __name__ == "__main__":
    raise SystemExit(main())
