"""The staged query lifecycle: executor chain, admission, fallback.

:mod:`repro.engine.lifecycle` replaced the ``Session._execute_*``
branches with two :class:`~repro.engine.lifecycle.Executor`
implementations walked in priority order (fused → serial).
These tests pin the chain's contract: admission decisions, group-dict
contents, metric ordering, error propagation, and the
ledger/tracing stage wrappers — independent of the bit-identity
snapshots (tests/test_engine_snapshots.py covers those).
"""

import numpy as np
import pytest

from repro.engine import Session
from repro.engine.lifecycle import (
    EXECUTORS,
    SERIAL,
    FusedExecutor,
    SerialExecutor,
    execute_bucket,
    fused_ready,
    ledger_swap,
    run_plans,
)
from repro.engine.planner import plan_query
from repro.monge.generators import random_monge
from repro.obs import reset_metrics, snapshot
from repro.pram.ledger import CostLedger


def _plans(session, count, n=6, cfg=None, problem="rowmin"):
    cfg = cfg if cfg is not None else session._derive_config(None, {})
    return [
        plan_query(problem, random_monge(n, n, np.random.default_rng(50 + i)),
                   cfg, session.backend, index=i,
                   session_faults=session.faults)
        for i in range(count)
    ]


def _fused_cfg(session):
    """Pin the fused tier for tests about fusion: the ``reference`` tier
    has no stacked-sweep kernel, and CI runs the suite under every tier."""
    return session._derive_config(None, {"kernel_tier": "fused"})


def _counters():
    return snapshot()["counters"]


# --------------------------------------------------------------------- #
# chain shape
# --------------------------------------------------------------------- #
class TestChain:
    def test_priority_order(self):
        assert [type(e) for e in EXECUTORS] == [FusedExecutor, SerialExecutor]

    def test_serial_is_terminal_and_admits_everything(self):
        s = Session("sequential")
        assert EXECUTORS[-1] is SERIAL
        assert SERIAL.admit(s, _plans(s, 1)) == {}
        assert SERIAL.fused is False


# --------------------------------------------------------------------- #
# admission
# --------------------------------------------------------------------- #
class TestAdmission:
    def test_singleton_bucket_never_fuses(self):
        s = Session("pram-crcw")
        bucket = _plans(s, 1)
        assert FusedExecutor().admit(s, bucket) is None
        results, group = execute_bucket(s, bucket)
        assert group["fused"] is False

    def test_pair_bucket_fuses(self):
        s = Session("pram-crcw")
        bucket = _plans(s, 2, cfg=_fused_cfg(s))
        assert FusedExecutor().admit(s, bucket) == {}

    def test_reference_tier_stays_serial(self):
        s = Session("pram-crcw")
        cfg = s._derive_config(None, {"kernel_tier": "reference"})
        bucket = _plans(s, 2, cfg=cfg)
        # plan-level key survives (the tier is part of the fingerprint),
        # but machine-level admission rejects: no stacked-sweep kernel
        assert all(p.fused_key is not None for p in bucket)
        assert fused_ready(s, bucket[0]) is False
        assert FusedExecutor().admit(s, bucket) is None

    def test_processor_budget_disqualifies_fusion(self):
        s = Session("pram-crcw", physical_processors=64)
        bucket = _plans(s, 2)
        assert fused_ready(s, bucket[0]) is False


# --------------------------------------------------------------------- #
# execution + group dicts + metrics
# --------------------------------------------------------------------- #
class TestExecuteBucket:
    def test_fused_group_dict_and_metric(self):
        reset_metrics()
        s = Session("pram-crcw")
        bucket = _plans(s, 3, cfg=_fused_cfg(s))
        results, group = execute_bucket(s, bucket)
        assert len(results) == 3
        assert group == {
            "problem": "rowmin",
            "backend": "pram-crcw",
            "strategy": "sqrt",
            "shape": (6, 6),
            "count": 3,
            "fused": True,
        }
        assert _counters().get("engine.batch.fused_queries") == 3

    def test_run_plans_restores_input_order(self):
        reset_metrics()
        s = Session("pram-crcw")
        plans = _plans(s, 4)
        # interleave two shapes so grouping splits, then reassembles
        odd = _plans(s, 2, n=7)
        plans[1], plans[3] = odd[0], odd[1]
        plans[1].index, plans[3].index = 1, 3
        results, groups = run_plans(s, plans)
        assert len(results) == 4 and len(groups) == 2
        for plan, result in zip(plans, [results[p.index] for p in plans]):
            assert result.values.shape[0] == plan.shape[0]
        c = _counters()
        assert c.get("engine.batch.calls") == 1
        assert c.get("engine.batch.queries") == 4

    def test_serial_results_match_fused(self):
        s1, s2 = Session("pram-crcw"), Session("pram-crcw")
        bucket = _plans(s1, 3, cfg=_fused_cfg(s1))
        fused_results, group = execute_bucket(s1, bucket)
        assert group["fused"] is True
        for plan, got in zip(bucket, fused_results):
            ref = SERIAL.execute_plan(s2, plan)
            np.testing.assert_array_equal(ref.values, got.values)
            np.testing.assert_array_equal(ref.witnesses, got.witnesses)
            assert ref.snapshot == got.snapshot


# --------------------------------------------------------------------- #
# no fallback: executor errors propagate
# --------------------------------------------------------------------- #
class TestFallback:
    def test_non_recoverable_error_propagates(self, monkeypatch):
        s = Session("pram-crcw")
        bucket = _plans(s, 2, cfg=_fused_cfg(s))

        def boom(self, session, bucket, admission):
            raise RuntimeError("genuine bug")

        monkeypatch.setattr(FusedExecutor, "execute", boom)
        with pytest.raises(RuntimeError, match="genuine bug"):
            execute_bucket(s, bucket)


# --------------------------------------------------------------------- #
# stage wrappers
# --------------------------------------------------------------------- #
class TestLedgerSwap:
    def test_swaps_and_restores(self):
        s = Session("pram-crcw")
        machine = s.machine(4)
        original = machine.ledger
        sub = CostLedger(processor_limit=original.processor_limit)
        with ledger_swap(machine, sub, None):
            assert machine.ledger is sub
            machine.charge(rounds=1, processors=2)
        assert machine.ledger is original
        assert sub.rounds == 1 and original.rounds == 0

    def test_restores_on_error(self):
        s = Session("pram-crcw")
        machine = s.machine(4)
        original = machine.ledger
        with pytest.raises(ValueError):
            with ledger_swap(machine, CostLedger(), None):
                raise ValueError("boom")
        assert machine.ledger is original

    def test_none_machine_is_noop(self):
        with ledger_swap(None, None, None):
            pass

    def test_covers_network_ledger(self):
        s = Session("hypercube")
        machine = s.machine(8)
        if not hasattr(machine, "network"):
            pytest.skip("backend exposes no network attribute")
        sub = CostLedger()
        with ledger_swap(machine, sub, None):
            assert machine.network.ledger is sub
        assert machine.network.ledger is machine.ledger
