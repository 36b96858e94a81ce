"""Fault-injection layer: determinism, retry accounting, conflict ghosts."""

import numpy as np
import pytest

from repro.core import monge_row_minima_pram, monge_row_minima_network
from repro.monge.generators import random_monge
from repro.networks import CubeConnectedCycles, Hypercube, ShuffleExchange
from repro.pram import (
    CRCW_ARBITRARY,
    CRCW_COMMON,
    CRCW_PRIORITY,
    CREW,
    EREW,
    CostLedger,
    Pram,
)
from repro.resilience import FaultPlan, FaultRetriesExhausted

ALL_MODELS = [EREW, CREW, CRCW_COMMON, CRCW_ARBITRARY, CRCW_PRIORITY]


# --------------------------------------------------------------------- #
# FaultPlan mechanics
# --------------------------------------------------------------------- #
def test_plan_rejects_bad_rates():
    with pytest.raises(ValueError):
        FaultPlan(processor_drop=-0.1)
    with pytest.raises(ValueError):
        FaultPlan(link_drop=1.5)


def test_plan_deterministic_same_seed():
    def drive(plan):
        fired = []
        for i in range(200):
            fired.append(plan.fires("processor_drop", site="s", round_index=i))
        return fired

    a = FaultPlan(seed=42, processor_drop=0.1)
    b = FaultPlan(seed=42, processor_drop=0.1)
    assert drive(a) == drive(b)
    assert a.counts() == b.counts()
    assert [e.round_index for e in a.events] == [e.round_index for e in b.events]
    c = FaultPlan(seed=43, processor_drop=0.1)
    assert drive(a) != drive(c)  # astronomically unlikely to coincide


def test_zero_rate_kind_consumes_no_draws():
    # Interleaving a zero-rate kind must not perturb the stream of a
    # live kind: the sequences below agree draw-for-draw.
    a = FaultPlan(seed=7, processor_drop=0.2)
    b = FaultPlan(seed=7, processor_drop=0.2)
    seq_a, seq_b = [], []
    for i in range(100):
        seq_a.append(a.fires("processor_drop", round_index=i))
        b.fires("link_drop", round_index=i)  # rate 0: no rng draw
        seq_b.append(b.fires("processor_drop", round_index=i))
    assert seq_a == seq_b


def test_disarmed_plan_never_fires():
    plan = FaultPlan(seed=1, processor_drop=1.0)
    plan.disarm()
    assert not plan.fires("processor_drop")
    assert plan.total_fired == 0
    plan.arm()
    assert plan.fires("processor_drop")


def test_reset_restores_stream():
    plan = FaultPlan(seed=5, link_drop=0.3)
    first = [plan.fires("link_drop", round_index=i) for i in range(50)]
    plan.reset()
    assert plan.total_fired == 0 and plan.events == []
    assert [plan.fires("link_drop", round_index=i) for i in range(50)] == first


def test_corrupt_perturbs_one_element_of_a_copy():
    plan = FaultPlan(seed=3, message_corrupt=1.0)
    vals = np.arange(8, dtype=np.float64)
    out = plan.corrupt(vals, site="x")
    assert out is not vals
    assert np.array_equal(vals, np.arange(8, dtype=np.float64))  # input untouched
    assert (out != vals).sum() == 1
    assert plan.counts()["message_corrupt"] == 1
    # zero-rate corrupt passes values through untouched (same object ok)
    quiet = FaultPlan(seed=3)
    same = quiet.corrupt(vals)
    assert np.array_equal(same, vals)


def test_event_log_caps_but_counts_do_not():
    plan = FaultPlan(seed=0, processor_drop=1.0, max_events=5)
    for i in range(20):
        plan.fires("processor_drop", round_index=i)
    assert len(plan.events) == 5
    assert plan.counts()["processor_drop"] == 20


# --------------------------------------------------------------------- #
# Processor-drop replay on Pram / ledger retry account
# --------------------------------------------------------------------- #
def _run_rowmin(faults=None, retry_limit=8):
    a = random_monge(24, 24, np.random.default_rng(0))
    m = Pram(CRCW_COMMON, 1 << 32, ledger=CostLedger(), faults=faults,
             retry_limit=retry_limit)
    v, c = monge_row_minima_pram(m, a)
    return (v, c), m.ledger.snapshot()


def test_drop_only_faults_preserve_results_and_paper_charges():
    ref_res, ref_snap = _run_rowmin()
    res, snap = _run_rowmin(FaultPlan(seed=11, processor_drop=0.05))
    np.testing.assert_array_equal(res[0], ref_res[0])
    np.testing.assert_array_equal(res[1], ref_res[1])
    retry = snap.pop("retry")
    assert snap == ref_snap  # paper-bound accounting untouched
    assert retry["charges"] > 0
    assert set(retry["by_kind"]) == {"processor_drop"}


def test_no_fault_snapshot_has_no_retry_key():
    _, snap = _run_rowmin()
    assert "retry" not in snap
    # a bound-but-silent plan also leaves the snapshot bit-identical
    _, quiet = _run_rowmin(FaultPlan(seed=1))
    assert quiet == snap


def test_certain_drops_exhaust_retries():
    with pytest.raises(FaultRetriesExhausted):
        _run_rowmin(FaultPlan(seed=2, processor_drop=1.0), retry_limit=4)


def test_sub_machine_shares_fault_plan():
    plan = FaultPlan(seed=9, processor_drop=0.5)
    m = Pram(CREW, 64, ledger=CostLedger(), faults=plan, retry_limit=64)
    sub = m.sub(8)
    assert sub.faults is plan
    for _ in range(40):
        sub.charge(rounds=1, processors=4)
    assert m.ledger.retry_charges > 0


# --------------------------------------------------------------------- #
# Write-conflict ghosts (validate-mode scatter) across all five models
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
def test_ghost_write_conflict_leaves_memory_intact(model):
    plan = FaultPlan(seed=13, write_conflict=1.0)
    m = Pram(model, 16, ledger=CostLedger(), validate=True, faults=plan)
    mem = np.zeros(16)
    addresses = np.arange(8)
    values = np.arange(8, dtype=np.float64) + 1.0
    m.scatter(mem, addresses, values)
    expect = np.zeros(16)
    expect[:8] = values
    np.testing.assert_array_equal(mem, expect)  # ghost never lands
    assert plan.counts()["write_conflict"] == 1
    snap = m.ledger.snapshot()
    if model.write_policy.name in ("EXCLUSIVE", "COMMON"):
        # detected conflict: one retried round in the separate account
        assert snap["retry"]["by_kind"]["write_conflict"]["rounds"] == 1
    else:
        # arbitrary/priority resolve the collision legally: no retry
        assert "retry" not in snap


def test_ghost_conflicts_silent_without_validate():
    plan = FaultPlan(seed=13, write_conflict=1.0)
    m = Pram(EREW, 16, ledger=CostLedger(), faults=plan)
    mem = np.zeros(16)
    m.scatter(mem, np.arange(4), np.ones(4))
    assert plan.counts().get("write_conflict", 0) == 0  # injection sits in validate mode


# --------------------------------------------------------------------- #
# Network link drops and message corruption
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("cls", [Hypercube, CubeConnectedCycles, ShuffleExchange])
def test_link_drop_replays_charges_only(cls):
    dim = 4
    ref = cls(dim, ledger=CostLedger())
    vals = np.arange(ref.size, dtype=np.float64)
    ref_out = ref.exchange(vals.copy(), 2)
    ref_snap = ref.ledger.snapshot()

    plan = FaultPlan(seed=21, link_drop=1.0)
    net = cls(dim, ledger=CostLedger(), faults=plan, retry_limit=3)
    with pytest.raises(FaultRetriesExhausted):
        net.exchange(vals.copy(), 2)
    assert net.ledger.retry_by_kind["link_drop"].rounds > 0

    plan2 = FaultPlan(seed=21, link_drop=0.0)  # quiet plan: identical behaviour
    net2 = cls(dim, ledger=CostLedger(), faults=plan2)
    out2 = net2.exchange(vals.copy(), 2)
    np.testing.assert_array_equal(out2, ref_out)
    assert net2.ledger.snapshot() == ref_snap


def test_message_corruption_fires_end_to_end():
    plan = FaultPlan(seed=4, message_corrupt=1.0)
    net = Hypercube(3, ledger=CostLedger(), faults=plan)
    vals = np.arange(net.size, dtype=np.float64)
    out = net.exchange(vals.copy(), 0)
    clean = Hypercube(3, ledger=CostLedger()).exchange(vals.copy(), 0)
    assert (out != clean).sum() == 1
    assert plan.events[0].kind == "message_corrupt"
    assert "exchange" in plan.events[0].site


def test_network_run_without_faults_bit_identical_to_plan_none():
    a = random_monge(16, 16, np.random.default_rng(3))
    v0, c0, l0 = monge_row_minima_network(a)
    v1, c1, l1 = monge_row_minima_network(a, faults=FaultPlan(seed=8))
    np.testing.assert_array_equal(v0, v1)
    np.testing.assert_array_equal(c0, c1)
    assert l0.snapshot() == l1.snapshot()
