"""Perf-regression harness: the repo's wall-clock baseline.

Runs a pinned workload matrix — the Table 1.1–1.3 algorithm paths plus
the string-editing application (A4) — through two simulator
configurations, each pinned to a kernel tier (DESIGN.md §13):

``ref``
    the ``reference`` tier: primitives execute their round-by-round
    NumPy loops;
``fast``
    the ``fused`` tier — vectorized grouped-extremum kernels + charge
    replay (the default).

For every workload both configurations must produce bit-identical
results *and* bit-identical ledger snapshots (rounds, work, peak
processors, phases) — the fused-kernel invariant; the harness verifies
this on every run and refuses to emit a baseline that violates it.
Wall-clock is best-of-``--repeats``; the JSON lands in
``BENCH_hotpath.json`` (see EXPERIMENTS.md "Wall-clock baseline").

Usage::

    PYTHONPATH=src python benchmarks/bench_regress.py            # full matrix
    PYTHONPATH=src python benchmarks/bench_regress.py --smoke    # fast CI smoke
    PYTHONPATH=src python benchmarks/bench_regress.py --out /tmp/b.json

Under pytest (``pytest benchmarks/bench_regress.py``) the smoke matrix
runs and the invariant + T1.1 speedup are asserted.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from _common import crcw_session, crew_session

from repro.apps.string_edit import edit_distance_dag_parallel
from repro.engine import Session
from repro.obs import reset_metrics
from repro.obs import snapshot as obs_snapshot
from repro.monge.generators import (
    random_composite,
    random_monge,
    random_staircase_monge,
)
from repro.kernels import tier_context
from repro.perf import Timer, WorkloadRecord, emit_json, environment_fingerprint

#: (config name, kernel tier)
CONFIGS: Tuple[Tuple[str, str], ...] = (
    ("ref", "reference"),
    ("fast", "fused"),
)

DEFAULT_OUT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "BENCH_hotpath.json")


# --------------------------------------------------------------------- #
# Pinned workloads.  Each returns (run, params): ``run()`` executes
# on a fresh machine and returns (result_arrays, ledger_snapshot, evals).
# Instance construction happens once, outside the timed region.
# --------------------------------------------------------------------- #
def _wl_rowmin_crcw(n: int):
    a = random_monge(n, n, np.random.default_rng(n))

    def run():
        before = a.eval_count
        r = crcw_session(n).solve("rowmin", a)
        return (r.values, r.witnesses), r.snapshot, a.eval_count - before

    return run, {"n": n, "model": "CRCW", "algorithm": "rowmin"}


def _wl_rowmin_crew(n: int):
    a = random_monge(n, n, np.random.default_rng(n))

    def run():
        before = a.eval_count
        r = crew_session(n).solve("rowmin", a)
        return (r.values, r.witnesses), r.snapshot, a.eval_count - before

    return run, {"n": n, "model": "CREW", "algorithm": "rowmin"}


def _wl_staircase_crcw(n: int):
    a = random_staircase_monge(n, n, np.random.default_rng(n))

    def run():
        before = a.eval_count
        r = crcw_session(n).solve("staircase_min", a)
        return (r.values, r.witnesses), r.snapshot, a.eval_count - before

    return run, {"n": n, "model": "CRCW", "algorithm": "staircase_min"}


def _wl_tube_crcw(n: int):
    c = random_composite(n, n, n, np.random.default_rng(n))

    def run():
        before = c.D.eval_count + c.E.eval_count
        r = crcw_session(n * n).solve("tube_min", c)
        return (r.values, r.witnesses), r.snapshot, c.D.eval_count + c.E.eval_count - before

    return run, {"n": n, "model": "CRCW", "algorithm": "tube_min"}


def _wl_string_edit(length: int):
    rng = np.random.default_rng(length)
    alphabet = "acgt"
    x = "".join(rng.choice(list(alphabet), size=length))
    y = "".join(rng.choice(list(alphabet), size=length))

    def run():
        s = Session("pram-crcw")
        d = edit_distance_dag_parallel(x, y, session=s)
        snap = s.ledger.snapshot()
        return (np.array([d]),), snap, snap["work"]

    return run, {"len": length, "model": "CRCW", "algorithm": "edit_distance_dag_parallel"}


def workload_matrix(smoke: bool) -> List[Tuple[str, Callable, Dict]]:
    """The pinned matrix (Tables 1.1–1.3 sizes + string-edit A4)."""
    if smoke:
        specs = [
            ("t1.1_rowmin_crcw_n128", _wl_rowmin_crcw(128)),
            ("t1.1_rowmin_crew_n128", _wl_rowmin_crew(128)),
            ("t1.2_staircase_crcw_n64", _wl_staircase_crcw(64)),
            ("t1.3_tube_crcw_n16", _wl_tube_crcw(16)),
            ("a4_string_edit_len12", _wl_string_edit(12)),
        ]
    else:
        specs = [
            ("t1.1_rowmin_crcw_n256", _wl_rowmin_crcw(256)),
            ("t1.1_rowmin_crcw_n1024", _wl_rowmin_crcw(1024)),
            ("t1.1_rowmin_crcw_n2048", _wl_rowmin_crcw(2048)),
            ("t1.1_rowmin_crew_n1024", _wl_rowmin_crew(1024)),
            ("t1.2_staircase_crcw_n256", _wl_staircase_crcw(256)),
            ("t1.3_tube_crcw_n64", _wl_tube_crcw(64)),
            ("a4_string_edit_len48", _wl_string_edit(48)),
        ]
    return [(name, run, params) for name, (run, params) in specs]


# --------------------------------------------------------------------- #
def _results_equal(a, b) -> bool:
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


def run_workload(name: str, run: Callable, params: Dict, repeats: int) -> WorkloadRecord:
    rec = WorkloadRecord(
        name=name, params=params,
        kernel_tiers=dict(CONFIGS),
    )
    outputs = {}
    # Interleave configurations within each repeat (rather than best-of
    # per config sequentially) so all configs sample the same host-load
    # epochs — speedup ratios stay stable on noisy machines.
    best: Dict[str, float] = {config: float("inf") for config, _ in CONFIGS}
    for _ in range(repeats):
        for config, tier in CONFIGS:
            with tier_context(tier):
                with Timer() as t:
                    outputs[config] = run()
            best[config] = min(best[config], t.seconds)
    rec.wall_s.update(best)
    ref_result, ref_snapshot, ref_evals = outputs["ref"]
    rec.rounds = ref_snapshot["rounds"]
    rec.work = ref_snapshot["work"]
    rec.peak_processors = ref_snapshot["peak_processors"]
    rec.evals = ref_evals
    rec.ledger_identical = all(outputs[c][1] == ref_snapshot for c, _ in CONFIGS)
    rec.results_identical = all(
        _results_equal(outputs[c][0], ref_result) for c, _ in CONFIGS
    )
    return rec


def run_matrix(smoke: bool, repeats: int) -> Dict:
    reset_metrics()
    records = [run_workload(name, run, params, repeats)
               for name, run, params in workload_matrix(smoke)]
    violations = [r.name for r in records if not (r.ledger_identical and r.results_identical)]
    if violations:
        raise RuntimeError(
            f"fused-kernel invariant violated by: {', '.join(violations)} — "
            "refusing to emit a baseline"
        )
    return {
        "meta": {**environment_fingerprint(), "smoke": smoke, "repeats": repeats,
                 "configs": [c for c, _ in CONFIGS],
                 "kernel_tiers": dict(CONFIGS)},
        "workloads": {r.name: r.as_json() for r in records},
        # process-wide engine counters for the whole matrix
        # (DESIGN.md §10.2): rounds/query, certification counts
        "metrics": obs_snapshot(),
    }


def load_baseline(path: str) -> Optional[Dict]:
    """Load a prior baseline JSON, fail-soft.

    Returns ``None`` (with a one-line notice on stderr) when the file is
    missing, unparsable, or doesn't carry the expected schema — a fresh
    checkout or a schema bump must not crash the harness.
    """
    if not os.path.exists(path):
        print(f"[bench] no baseline at {path}; skipping comparison", file=sys.stderr)
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"[bench] unreadable baseline {path} ({exc}); skipping comparison",
              file=sys.stderr)
        return None
    workloads = payload.get("workloads") if isinstance(payload, dict) else None
    if not isinstance(payload.get("meta") if isinstance(payload, dict) else None, dict) \
            or not isinstance(workloads, dict) \
            or not all(isinstance(w, dict) and isinstance(w.get("wall_s"), dict)
                       for w in workloads.values()):
        print(f"[bench] baseline {path} has an unrecognised schema; skipping comparison",
              file=sys.stderr)
        return None
    return payload


def compare_to_baseline(payload: Dict, baseline: Optional[Dict]) -> None:
    """Print per-workload wall-clock deltas against a prior baseline.

    Purely informational: unknown workloads and missing configs are
    skipped, never raised on.
    """
    if baseline is None:
        return
    rows = []
    for name, w in payload["workloads"].items():
        old = baseline["workloads"].get(name)
        if not isinstance(old, dict) or not isinstance(old.get("wall_s"), dict):
            continue
        for config in w["wall_s"]:
            new_s, old_s = w["wall_s"][config], old["wall_s"].get(config)
            if not isinstance(old_s, (int, float)) or old_s <= 0:
                continue
            rows.append((name, config, old_s, new_s, new_s / old_s))
    if not rows:
        print("[bench] baseline shares no comparable workloads; nothing to compare",
              file=sys.stderr)
        return
    print(f"\nvs baseline ({baseline['meta'].get('smoke', '?')!s} smoke, "
          f"{len(rows)} comparable timings):")
    print(f"{'workload':<28} {'config':<11} {'old(s)':>9} {'new(s)':>9} {'ratio':>7}")
    for name, config, old_s, new_s, ratio in rows:
        flag = "  <-- slower" if ratio > 1.25 else ""
        print(f"{name:<28} {config:<11} {old_s:>9.4f} {new_s:>9.4f} {ratio:>7.2f}{flag}")


def _print_table(payload: Dict) -> None:
    print(f"{'workload':<28} {'ref(s)':>9} {'fast(s)':>9} {'x':>6} "
          f"{'rounds':>8} {'evals':>10}")
    for name, w in payload["workloads"].items():
        ws = w["wall_s"]
        print(f"{name:<28} {ws['ref']:>9.4f} {ws['fast']:>9.4f} "
              f"{w.get('speedup_fast', 0):>6.2f} "
              f"{w['rounds']:>8} {w['evals']:>10}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true", help="small sizes, 1 repeat (CI smoke)")
    ap.add_argument("--repeats", type=int, default=None, help="timing repeats (best-of)")
    ap.add_argument("--out", default=None, help=f"output JSON path (default {DEFAULT_OUT})")
    ap.add_argument("--baseline", default=None,
                    help=f"prior baseline JSON to diff against (default {DEFAULT_OUT}; "
                         "missing or schema-mismatched baselines are skipped, not fatal)")
    args = ap.parse_args(argv)
    repeats = args.repeats if args.repeats is not None else (1 if args.smoke else 5)
    payload = run_matrix(args.smoke, repeats)
    _print_table(payload)
    compare_to_baseline(payload, load_baseline(args.baseline or DEFAULT_OUT))
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
# pytest face: smoke matrix + invariant + T1.1 speedup assertions
# --------------------------------------------------------------------- #
def test_smoke_invariant(tmp_path):
    payload = run_matrix(smoke=True, repeats=1)
    emit_json(str(tmp_path / "BENCH_hotpath_smoke.json"), payload)
    for name, w in payload["workloads"].items():
        assert w["ledger_identical"], name
        assert w["results_identical"], name


def test_t1_1_speedup_full_size():
    """Acceptance: ≥2× on the grouped-extremum-dominated T1.1 path, n ≥ 1024.

    Measured at n=2048, where the grouped-extremum kernels dominate the
    frontier bookkeeping enough that the ratio is stable run-to-run
    (n=1024 sits near 1.8–2.1× depending on host noise).
    """
    rec = run_workload("t1.1_rowmin_crcw_n2048", *_wl_rowmin_crcw(2048), repeats=5)
    assert rec.ledger_identical and rec.results_identical
    assert rec.speedup("fast") >= 2.0, f"speedup {rec.speedup('fast'):.2f} < 2.0"


if __name__ == "__main__":
    raise SystemExit(main())
