"""Tracing, metrics, and profiling hooks (DESIGN.md §10).

The central invariant: a traced query's span-tree totals are
bit-identical to its ledger snapshot — the spans are built from the very
same committed charges the snapshot summarizes, across the serial path,
fused batches, and network backends.
"""

import json
import sys
import threading

import numpy as np
import pytest

import repro
from repro.obs import (
    Tracer,
    clear_hooks,
    kernel_hook,
    metrics,
    reset_metrics,
    round_hook,
)
from repro.obs.metrics import MetricsRegistry
from repro.pram import CostLedger


@pytest.fixture(autouse=True)
def _clean_obs():
    reset_metrics()
    clear_hooks()
    yield
    reset_metrics()
    clear_hooks()


def _monge(m, n, seed=0):
    return repro.generators.random_monge(m, n, np.random.default_rng(seed))


def _assert_totals_match(result):
    tt = result.trace.totals()
    snap = result.snapshot
    assert tt["rounds"] == snap["rounds"]
    assert tt["work"] == snap["work"]
    assert tt["peak_processors"] == snap["peak_processors"]


# --------------------------------------------------------------------- #
# Charge identity: trace totals == ledger snapshot, bit for bit
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", ["pram-crcw", "pram-crew", "hypercube"])
def test_solve_trace_totals_match_snapshot(backend):
    r = repro.solve("rowmin", _monge(40, 33), backend=backend, trace=True)
    assert r.trace is not None
    _assert_totals_match(r)


@pytest.mark.parametrize(
    "problem,data_fn",
    [
        ("rowmin", lambda rng: repro.generators.random_monge(24, 17, rng)),
        ("rowmax", lambda rng: repro.generators.random_monge(19, 23, rng)),
        ("staircase_min", lambda rng: repro.generators.random_staircase_monge(21, 21, rng)),
        ("tube_min", lambda rng: repro.generators.random_composite(6, 7, 5, rng)),
    ],
)
def test_trace_totals_across_problem_families(problem, data_fn):
    r = repro.solve(problem, data_fn(np.random.default_rng(3)), trace=True)
    _assert_totals_match(r)


def test_batch_fused_traces_match_per_query_snapshots():
    arrs = [_monge(16, 16, seed=s) for s in range(4)]
    br = repro.solve_many("rowmin", arrs, trace=True, kernel_tier="fused")
    assert any(g["fused"] for g in br.groups)
    for r in br:
        assert r.trace is not None
        _assert_totals_match(r)
        # fused query spans carry the fusion marker
        assert r.trace.root.attrs.get("fused") is True


def test_fused_trace_equals_serial_trace_structure():
    """A fused query's replayed charge sequence matches its serial run."""
    arrs = [_monge(20, 20, seed=s) for s in range(3)]
    serial = [repro.solve("rowmin", a, trace=True) for a in arrs]
    batch = repro.solve_many("rowmin", arrs, trace=True, kernel_tier="fused")
    assert any(g["fused"] for g in batch.groups)
    for s, b in zip(serial, batch):
        assert s.snapshot == b.snapshot
        st, bt = s.trace.totals(), b.trace.totals()
        for key in ("rounds", "work", "peak_processors", "charges"):
            assert st[key] == bt[key]


def test_trace_disabled_by_default():
    a = _monge(10, 10)
    r = repro.solve("rowmin", a)
    assert r.trace is None
    assert r.ledger.observer is None


def test_tracer_unbound_after_solve():
    r = repro.solve("rowmin", _monge(12, 12), trace=True)
    assert r.ledger.observer is None  # no dangling observer on the sub-account


# --------------------------------------------------------------------- #
# Span tree shape and exports
# --------------------------------------------------------------------- #
def test_span_tree_well_formed():
    r = repro.solve("rowmin", _monge(40, 40), trace=True)
    root = r.trace.root
    assert root.kind == "solve"
    assert root.attrs["problem"] == "rowmin"
    assert root.attrs["backend"] == "pram-crcw"
    assert root.attrs["shape"] == (40, 40)
    for span in r.trace.spans():
        assert span.t1 >= span.t0
        for child in span.children:
            assert child.parent is span
    phases = {s.name for s in r.trace.spans() if s.kind == "phase"}
    assert {"sampled-rows", "interior-blocks"} <= phases
    kernels = {e.name for s in r.trace.spans() for e in s.events if e.kind == "kernel"}
    assert "eval" in kernels
    assert any(k.startswith("grouped-min:") for k in kernels)


def test_network_trace_kernels():
    r = repro.solve("rowmin", _monge(12, 12), backend="hypercube", trace=True)
    kernels = {e.name for s in r.trace.spans() for e in s.events if e.kind == "kernel"}
    assert {"net-eval", "net-grouped-min"} <= kernels


def test_jsonl_export_roundtrips(tmp_path):
    r = repro.solve("rowmin", _monge(20, 20), trace=True)
    path = tmp_path / "trace.jsonl"
    r.trace.to_jsonl(str(path))
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(rows) == len(r.trace.spans())
    assert rows[0]["parent"] is None
    ids = {row["id"] for row in rows}
    for row in rows[1:]:
        assert row["parent"] in ids
    assert sum(row["rounds"] for row in rows) == r.snapshot["rounds"]


def test_chrome_export_shape(tmp_path):
    r = repro.solve("rowmin", _monge(20, 20), trace=True)
    path = tmp_path / "trace.json"
    r.trace.to_chrome(str(path))
    payload = json.loads(path.read_text())
    events = payload["traceEvents"]
    span_events = [e for e in events if e["ph"] == "X"]
    instant_events = [e for e in events if e["ph"] == "i"]
    assert len(span_events) == len(r.trace.spans())
    assert instant_events, "round/kernel events must export as instants"
    for e in events:
        assert e["ts"] >= 0
        assert {"name", "cat", "pid", "tid"} <= set(e)


def test_tracer_direct_api():
    tracer = Tracer()
    ledger = CostLedger()
    with tracer.span("solve", "solve") as root:
        tracer.bind(ledger, root)
        ledger.charge(rounds=3, processors=5)
        with ledger.phase("inner"):
            ledger.charge(rounds=2, processors=7)
        tracer.unbind(ledger)
    assert ledger.observer is None
    t = tracer.trace(root)
    assert t.totals()["rounds"] == ledger.rounds == 5
    assert t.totals()["peak_processors"] == 7
    inner = [s for s in t.spans() if s.name == "inner"]
    assert len(inner) == 1 and inner[0].kind == "phase"
    assert inner[0].rounds == 2


def test_observed_phase_does_not_touch_ledger_phases():
    from repro.pram.ledger import observed_phase

    tracer = Tracer()
    ledger = CostLedger()
    root = tracer.begin("solve", "solve")
    tracer.bind(ledger, root)
    with observed_phase(ledger, "marker"):
        ledger.charge(rounds=1, processors=1)
    tracer.unbind(ledger)
    assert ledger.phases == {}  # pinned snapshots see no new phase
    assert [s.name for s in root.children] == ["marker"]


# --------------------------------------------------------------------- #
# Metrics registry
# --------------------------------------------------------------------- #
def test_metrics_counters_after_solves():
    repro.solve("rowmin", _monge(16, 16))
    repro.solve("rowmin", _monge(16, 16, seed=1))
    snap = repro.obs.snapshot()
    assert snap["counters"]["engine.queries"] == 2
    assert snap["counters"]["engine.rounds"] > 0
    assert snap["histograms"]["engine.rounds_per_query"]["count"] == 2
    assert snap["derived"]["rounds_per_query"] == snap["counters"]["engine.rounds"] / 2


def test_metrics_batch_fusion_rate():
    arrs = [_monge(16, 16, seed=s) for s in range(3)]
    repro.solve_many("rowmin", arrs, kernel_tier="fused")
    snap = repro.obs.snapshot()
    assert snap["counters"]["engine.batch.calls"] == 1
    assert snap["counters"]["engine.batch.queries"] == 3
    assert snap["counters"]["engine.batch.fused_queries"] == 3
    assert snap["derived"]["batch_fusion_rate"] == 1.0


def test_metrics_certify_counters():
    session = repro.Session("pram-crcw")
    r = session.solve("rowmin", _monge(30, 30), certify=True)
    snap = repro.obs.snapshot()
    assert snap["counters"]["engine.certified"] == 1
    assert snap["counters"]["engine.certify_evals"] == r.certificate.evals > 0


def test_metrics_reset_and_instrument_semantics():
    m = metrics()
    m.counter("x").inc(3)
    with pytest.raises(ValueError):
        m.counter("x").inc(-1)
    m.gauge("g").set(2.5)
    h = m.histogram("h")
    for v in (0, 1, 5, 9):
        h.observe(v)
    snap = m.snapshot()
    assert snap["counters"]["x"] == 3
    assert snap["gauges"]["g"] == 2.5
    assert snap["histograms"]["h"]["count"] == 4
    assert snap["histograms"]["h"]["buckets"]["0"] == 1
    assert snap["histograms"]["h"]["buckets"]["2^0"] == 1
    assert snap["histograms"]["h"]["buckets"]["2^2"] == 1
    assert snap["histograms"]["h"]["buckets"]["2^3"] == 1
    reset_metrics()
    assert metrics().snapshot()["counters"] == {}


def test_metrics_snapshot_while_another_thread_creates_instruments():
    """A snapshot taken while another thread creates first-time
    instruments must not fail with "dictionary changed size during
    iteration"."""
    m = MetricsRegistry()
    created = 100_000
    done = threading.Event()
    errors = []

    def writer():
        try:
            for i in range(created):
                m.counter(f"c.{i}").inc()
        finally:
            done.set()

    def reader():
        try:
            while not done.is_set():
                m.snapshot()
        except RuntimeError as exc:
            errors.append(exc)

    threads = [threading.Thread(target=reader), threading.Thread(target=writer)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(m.snapshot()["counters"]) == created


# --------------------------------------------------------------------- #
# Profiling hooks
# --------------------------------------------------------------------- #
def test_round_hook_is_a_charge_oracle():
    seen = {"rounds": 0, "work": 0, "calls": 0}

    def on_round(ledger, rounds, processors, work):
        seen["rounds"] += rounds
        seen["work"] += work
        seen["calls"] += 1

    with round_hook(on_round):
        r = repro.solve("rowmin", _monge(32, 32))
    assert seen["rounds"] == r.snapshot["rounds"]
    assert seen["work"] == r.snapshot["work"]
    assert seen["calls"] > 0
    before = seen["calls"]
    repro.solve("rowmin", _monge(8, 8))  # hook removed: no further counts
    assert seen["calls"] == before


def test_kernel_hook_sees_eval_and_grouped_min():
    names = []

    def on_kernel(ledger, name, size):
        names.append((name, size))

    with kernel_hook(on_kernel):
        repro.solve("rowmin", _monge(24, 24))
    kinds = {n for n, _ in names}
    assert "eval" in kinds
    assert any(k.startswith("grouped-min:") for k in kinds)
    assert all(size >= 0 for _, size in names)


def test_hooks_fire_for_untraced_and_traced_alike():
    counts = []

    def on_round(ledger, rounds, processors, work):
        counts.append(rounds)

    with round_hook(on_round):
        repro.solve("rowmin", _monge(12, 12))
        plain = sum(counts)
        counts.clear()
        repro.solve("rowmin", _monge(12, 12), trace=True)
        traced = sum(counts)
    assert plain == traced > 0


def test_clear_hooks_removes_everything():
    calls = []
    from repro.obs import add_kernel_hook, add_round_hook

    add_round_hook(lambda *a: calls.append("r"))
    add_kernel_hook(lambda *a: calls.append("k"))
    clear_hooks()
    repro.solve("rowmin", _monge(8, 8))
    assert calls == []
