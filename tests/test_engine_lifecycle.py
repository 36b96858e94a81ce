"""The query lifecycle: fusion admission, group dicts, error
propagation and the sub-account step.

:mod:`repro.engine.lifecycle` runs a bucket as one fused stacked sweep
when it holds at least two plans and :func:`fused_ready` admits its
machine, else plan by plan.  These tests pin that condition, the
group-dict contents, metric ordering, error propagation, and the
ledger swap — independent of the bit-identity snapshots
(tests/test_engine_snapshots.py covers those).
"""

import importlib
import threading
import warnings

import numpy as np
import pytest

from repro.engine import Session
from repro.engine import lifecycle
from repro.engine.lifecycle import (
    execute_bucket,
    execute_plan,
    fused_ready,
    ledger_swap,
    run_plans,
)
from repro.engine.planner import plan_query
from repro.monge.arrays import ImplicitArray
from repro.monge.generators import random_monge
from repro.obs import reset_metrics, snapshot
from repro.pram.ledger import CostLedger
from repro.resilience.certify import CertificationError


def _plans(session, count, n=6, cfg=None, problem="rowmin"):
    cfg = cfg if cfg is not None else session._derive_config(None, {})
    return [
        plan_query(problem, random_monge(n, n, np.random.default_rng(50 + i)),
                   cfg, session.backend, index=i)
        for i in range(count)
    ]


def _fused_cfg(session):
    """Pin the fused tier for tests about fusion: the ``reference`` tier
    has no stacked-sweep kernel, and CI runs the suite under every tier."""
    return session._derive_config(None, {"kernel_tier": "fused"})


def _counters():
    return snapshot()["counters"]


# --------------------------------------------------------------------- #
# admission
# --------------------------------------------------------------------- #
class TestAdmission:
    def test_singleton_bucket_never_fuses(self):
        s = Session("pram-crcw")
        bucket = _plans(s, 1, cfg=_fused_cfg(s))
        # the machine would admit a sweep; one plan alone still runs serially
        assert fused_ready(s, bucket[0]) is True
        results, group = execute_bucket(s, bucket)
        assert group["fused"] is False

    def test_pair_bucket_fuses(self):
        s = Session("pram-crcw")
        bucket = _plans(s, 2, cfg=_fused_cfg(s))
        assert fused_ready(s, bucket[0]) is True
        results, group = execute_bucket(s, bucket)
        assert group["fused"] is True

    def test_reference_tier_stays_serial(self):
        s = Session("pram-crcw")
        cfg = s._derive_config(None, {"kernel_tier": "reference"})
        bucket = _plans(s, 2, cfg=cfg)
        # plan-level key survives (the tier is part of the fingerprint),
        # but machine-level admission rejects: no stacked-sweep kernel
        assert all(p.fused_key is not None for p in bucket)
        assert fused_ready(s, bucket[0]) is False
        results, group = execute_bucket(s, bucket)
        assert group["fused"] is False

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
            ref = execute_plan(s2, plan)
            np.testing.assert_array_equal(ref.values, got.values)
            np.testing.assert_array_equal(ref.witnesses, got.witnesses)
            assert ref.snapshot == got.snapshot


# --------------------------------------------------------------------- #
# no fallback: errors of the fused path propagate
# --------------------------------------------------------------------- #
class TestFallback:
    def test_non_recoverable_error_propagates(self, monkeypatch):
        s = Session("pram-crcw")
        bucket = _plans(s, 2, cfg=_fused_cfg(s))

        def boom(session, bucket):
            raise RuntimeError("genuine bug")

        monkeypatch.setattr(lifecycle, "execute_fused", boom)
        with pytest.raises(RuntimeError, match="genuine bug"):
            execute_bucket(s, bucket)


# --------------------------------------------------------------------- #
# a failing certificate raises before its sub-account merges
# --------------------------------------------------------------------- #
def _corrupt(values):
    values = values.copy()
    values[1] -= 1.0
    return values


class TestFailingCertificate:
    def test_serial_solve_merges_nothing(self, monkeypatch):
        # the package re-exports the registry instance under the module's name
        registry_module = importlib.import_module("repro.engine.registry")
        body = registry_module._row_minima_impl

        def wrong(machine, data, strategy):
            values, witnesses = body(machine, data, strategy=strategy)
            return _corrupt(values), witnesses

        monkeypatch.setattr(registry_module, "_row_minima_impl", wrong)
        s = Session("pram-crcw")
        with pytest.raises(CertificationError):
            s.solve("rowmin", random_monge(8, 8, np.random.default_rng(3)), certify=True)
        assert s.ledger.snapshot() == CostLedger().snapshot()
        assert s.queries == []

    def test_fused_bucket_merges_nothing(self, monkeypatch):
        sweep = lifecycle.rowmin_pram.batched_row_extrema

        def wrong(*args):
            outs = sweep(*args)
            values, witnesses = outs[1]
            outs[1] = (_corrupt(values), witnesses)
            return outs

        monkeypatch.setattr(lifecycle.rowmin_pram, "batched_row_extrema", wrong)
        s = Session("pram-crcw")
        arrays = [random_monge(8, 8, np.random.default_rng(3 + i)) for i in range(3)]
        with pytest.raises(CertificationError):
            s.solve_many("rowmin", arrays, certify=True, kernel_tier="fused")
        assert s.ledger.snapshot() == CostLedger().snapshot()
        assert s.queries == []


# --------------------------------------------------------------------- #
# the ledger swap inside the sub-account step
# --------------------------------------------------------------------- #
class TestLedgerSwap:
    def test_swaps_and_restores(self):
        s = Session("pram-crcw")
        machine = s.machine(4)
        original = machine.ledger
        sub = CostLedger(processor_limit=original.processor_limit)
        with ledger_swap(machine, sub):
            assert machine.ledger is sub
            machine.charge(rounds=1, processors=2)
        assert machine.ledger is original
        assert sub.rounds == 1 and original.rounds == 0

    def test_restores_on_error(self):
        s = Session("pram-crcw")
        machine = s.machine(4)
        original = machine.ledger
        with pytest.raises(ValueError):
            with ledger_swap(machine, CostLedger()):
                raise ValueError("boom")
        assert machine.ledger is original

    def test_none_machine_is_noop(self):
        with ledger_swap(None, None):
            pass

    def test_covers_network_ledger(self):
        s = Session("hypercube")
        machine = s.machine(8)
        if not hasattr(machine, "network"):
            pytest.skip("backend exposes no network attribute")
        sub = CostLedger()
        with ledger_swap(machine, sub):
            assert machine.network.ledger is sub
        assert machine.network.ledger is machine.ledger


class TestProcessWideState:
    def test_serial_solve_leaves_other_threads_warnings_alone(self):
        """A solve on another thread must not swap the process-wide
        warning filters: while it is parked inside its first entry
        evaluation, this thread's ``error`` filter still raises, and the
        solve returns the undisturbed answer and snapshot."""
        dense = random_monge(16, 16, np.random.default_rng(61))
        entered, release = threading.Event(), threading.Event()

        def entries(rows, cols):
            if not entered.is_set():
                entered.set()
                release.wait(10)
            return dense.eval(rows, cols)

        parked = ImplicitArray(entries, dense.shape)
        out = {}

        def solve():
            try:
                out["result"] = Session("pram-crcw").solve("rowmin", parked)
            except Exception as exc:  # reported below, on the test thread
                out["error"] = exc

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            worker = threading.Thread(target=solve)
            worker.start()
            try:
                assert entered.wait(10), "the solve never evaluated an entry"
                with pytest.raises(UserWarning, match="test thread"):
                    warnings.warn("test thread", UserWarning)
            finally:
                release.set()
                worker.join(10)
        assert not worker.is_alive()
        assert "error" not in out, out.get("error")
        want = Session("pram-crcw").solve("rowmin", dense)
        got = out["result"]
        np.testing.assert_array_equal(got.values, want.values)
        np.testing.assert_array_equal(got.witnesses, want.witnesses)
        assert got.snapshot == want.snapshot
