"""Observability overhead budget: disabled tracing must cost < 5%.

The §10 observability layer adds two permanent touch points to the
charge hot path — an ``observer`` test in :meth:`CostLedger.charge` and
the :func:`notify_kernel` chokepoint in the fused kernels.  This harness
measures what they cost when nobody is listening, against a *stripped*
baseline in which both are monkeypatched away entirely (the pre-§10
hot path), and what full span tracing costs on top.

Three configurations over a pinned Table-1.1 workload:

``stripped``
    ``CostLedger.charge`` without the observer/hook dispatch block and
    ``notify_kernel`` replaced by a no-op at every import site;
``off``
    the real code with tracing disabled (the production default);
``traced``
    ``trace=True`` — full span tree, charge attribution, exporters live.

Acceptance (ISSUE 5): ``overhead_disabled_pct < 5``.  The JSON lands in
``BENCH_obs.json``; ``--trace-out trace.json`` additionally exports the
traced run's Chrome trace (the CI smoke artifact).

Usage::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py            # full
    PYTHONPATH=src python benchmarks/bench_obs_overhead.py --smoke
    PYTHONPATH=src python benchmarks/bench_obs_overhead.py --trace-out trace.json

Under pytest the smoke matrix runs with a noise-tolerant gate.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import Dict

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from _common import Timer, emit_json, environment_fingerprint

from repro.engine import Session
from repro.monge.generators import random_monge
from repro.pram.ledger import CostLedger, ProcessorBudgetExceeded

DEFAULT_OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_obs.json")

#: modules that imported ``notify_kernel`` by name — the stripped
#: baseline must replace the reference at every one of these sites.
_KERNEL_SITES = ("repro.pram.primitives", "repro.pram.machine", "repro.core.network_machine")


def _charge_stripped(self, rounds=1, processors=1, work=None):
    """`CostLedger.charge` as it was before §10: no observer, no hooks."""
    if rounds < 0 or processors < 0:
        raise ValueError("rounds and processors must be nonnegative")
    if rounds == 0:
        return
    if processors == 0:
        processors = 1
    if self.processor_limit is not None and processors > self.processor_limit:
        raise ProcessorBudgetExceeded(
            f"a round requested {processors} processors, "
            f"but the budget is {self.processor_limit}"
        )
    if work is None:
        work = rounds * processors
    self.rounds += rounds
    self.work += work
    self.peak_processors = max(self.peak_processors, processors)
    for name in self._open_phases:
        self.phases[name].add(rounds, processors, work)


@contextlib.contextmanager
def stripped_observability():
    """Temporarily remove the (disabled) observability touch points."""
    import importlib

    saved_charge = CostLedger.charge
    saved_refs = {}
    CostLedger.charge = _charge_stripped
    try:
        for modname in _KERNEL_SITES:
            mod = importlib.import_module(modname)
            saved_refs[modname] = mod.notify_kernel
            mod.notify_kernel = lambda *a, **k: None
        yield
    finally:
        CostLedger.charge = saved_charge
        for modname, ref in saved_refs.items():
            sys.modules[modname].notify_kernel = ref


# --------------------------------------------------------------------- #
def run_workload(n: int, queries: int, repeats: int) -> Dict:
    rng = np.random.default_rng(0)
    arrays = [random_monge(n, n, rng) for _ in range(queries)]
    session = Session("pram-crcw")

    def run(trace: bool):
        return [session.solve("rowmin", a, trace=trace) for a in arrays]

    expected = [tuple(map(tuple, (np.asarray(r.values), np.asarray(r.witnesses))))
                for r in run(False)]

    def check(results):
        got = [tuple(map(tuple, (np.asarray(r.values), np.asarray(r.witnesses))))
               for r in results]
        if got != expected:
            raise RuntimeError("observability configuration changed the answers")

    # Interleave configs within each repeat so they sample the same
    # host-load epochs and the overhead ratios stay stable on noisy hosts.
    best = {"stripped": float("inf"), "off": float("inf"), "traced": float("inf")}
    last_traced = None
    for _ in range(repeats):
        with stripped_observability():
            with Timer() as t:
                out = run(False)
        check(out)
        best["stripped"] = min(best["stripped"], t.seconds)

        with Timer() as t:
            out = run(False)
        check(out)
        best["off"] = min(best["off"], t.seconds)

        with Timer() as t:
            out = run(True)
        check(out)
        best["traced"] = min(best["traced"], t.seconds)
        last_traced = out

    rounds = last_traced[0].snapshot["rounds"]
    assert last_traced[0].trace.totals()["rounds"] == rounds  # bit-identity spot check
    return {
        "params": {"n": n, "queries": queries, "problem": "rowmin", "model": "CRCW"},
        "wall_s": {k: round(v, 6) for k, v in best.items()},
        "overhead_disabled_pct": round(100.0 * (best["off"] / best["stripped"] - 1.0), 2),
        "overhead_traced_pct": round(100.0 * (best["traced"] / best["off"] - 1.0), 2),
        "rounds_per_query": rounds,
        "spans_per_query": len(last_traced[0].trace.spans()),
    }, last_traced[0].trace


def run_matrix(smoke: bool, repeats: int) -> Dict:
    sizes = [(96, 6)] if smoke else [(128, 8), (256, 6), (512, 4)]
    workloads = {}
    trace = None
    for n, q in sizes:
        workloads[f"rowmin_n{n}_q{q}"], trace = run_workload(n, q, repeats)
    worst = max(w["overhead_disabled_pct"] for w in workloads.values())
    return {
        "meta": {**environment_fingerprint(), "smoke": smoke, "repeats": repeats},
        "workloads": workloads,
        "overhead_disabled_pct": worst,
    }, trace


def _print_table(payload: Dict) -> None:
    print(f"{'workload':<24} {'stripped':>9} {'off':>9} {'traced':>9} "
          f"{'disabled%':>10} {'traced%':>9}")
    for name, w in payload["workloads"].items():
        ws = w["wall_s"]
        print(f"{name:<24} {ws['stripped']:>9.4f} {ws['off']:>9.4f} {ws['traced']:>9.4f} "
              f"{w['overhead_disabled_pct']:>10.2f} {w['overhead_traced_pct']:>9.2f}")
    print(f"worst disabled-tracer overhead: {payload['overhead_disabled_pct']:.2f}% (budget 5%)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true", help="small fast matrix")
    ap.add_argument("--repeats", type=int, default=None)
    ap.add_argument("--out", default=None, help="JSON output path (default BENCH_obs.json)")
    ap.add_argument("--trace-out", default=None,
                    help="also export the last traced run as a Chrome trace")
    args = ap.parse_args(argv)
    repeats = args.repeats or (3 if args.smoke else 5)

    payload, trace = run_matrix(args.smoke, repeats)
    _print_table(payload)
    if args.trace_out:
        trace.to_chrome(args.trace_out)
        print(f"chrome trace -> {args.trace_out}")
    out = os.path.abspath(args.out or DEFAULT_OUT)
    emit_json(out, payload)
    print(f"wrote {out}")
    if payload["overhead_disabled_pct"] >= 5.0:
        print("FAIL: disabled-tracer overhead exceeds the 5% budget", file=sys.stderr)
        return 1
    return 0


# --------------------------------------------------------------------- #
def test_obs_overhead_smoke(tmp_path):
    payload, trace = run_matrix(smoke=True, repeats=2)
    emit_json(str(tmp_path / "BENCH_obs_smoke.json"), payload)
    trace.to_chrome(str(tmp_path / "trace_smoke.json"))
    assert json.loads((tmp_path / "trace_smoke.json").read_text())["traceEvents"]
    # generous gate: shared CI boxes are noisy; the committed
    # BENCH_obs.json records the quiet-host < 5% number
    assert payload["overhead_disabled_pct"] < 25.0


if __name__ == "__main__":
    raise SystemExit(main())
