"""Fused-key edge cases in :mod:`repro.engine.planner` (DESIGN.md §9).

The fused key decides which queries may share one stacked sweep; these
tests pin the two boundaries the lifecycle refactor must not move:

- mixed ``kernel_tier`` never fuses — one bucket runs under exactly
  one tier — while a query that names the tier it would get by default
  fuses with the queries that get it by default;
- the ``prepare`` entry shape never reaches a fused bucket —
  ``submatrix_max`` is not batchable, so its plans are always
  singleton buckets and a prepared handle never appears in
  ``solve_many`` at all.
"""

import numpy as np
import pytest

import repro
from repro.engine import ExecutionConfig, Session
from repro.engine.planner import group_plans, plan_query, shape_of
from repro.kernels import tier_context
from repro.monge.generators import random_monge


def _plan(cfg, *, index=0, problem="rowmin", backend="pram-crcw", n=6):
    a = random_monge(n, n, np.random.default_rng(7 + index))
    return plan_query(problem, a, cfg, backend, index=index)


def _buckets(plans):
    return group_plans(plans)


# --------------------------------------------------------------------- #
# kernel tier
# --------------------------------------------------------------------- #
class TestMixedTierNeverFuses:
    def test_same_tier_fuses(self):
        cfg = ExecutionConfig(kernel_tier="fused")
        plans = [_plan(cfg, index=i) for i in range(3)]
        assert all(p.fused_key is not None for p in plans)
        assert len(_buckets(plans)) == 1

    def test_mixed_tier_splits_buckets(self):
        fused = ExecutionConfig(kernel_tier="fused")
        reference = ExecutionConfig(kernel_tier="reference")
        plans = [_plan(fused, index=0), _plan(reference, index=1),
                 _plan(fused, index=2)]
        buckets = _buckets(plans)
        # fused keys differ, so the reference query cannot join: 2
        # buckets, and the two fused-tier plans still share one.
        assert len(buckets) == 2
        assert sorted(len(b) for b in buckets) == [1, 2]
        assert plans[0].fused_key != plans[1].fused_key
        assert plans[0].fused_key == plans[2].fused_key

    def test_default_tier_fuses_with_itself(self):
        cfg = ExecutionConfig()
        plans = [_plan(cfg, index=i) for i in range(2)]
        assert len(_buckets(plans)) == 1

    def test_caller_tier_context_resolves_at_plan_time(self):
        cfg = ExecutionConfig()
        outside = _plan(cfg, index=0)
        # whichever tier the environment does not default to
        scoped = "reference" if outside.kernel == "fused" else "fused"
        with tier_context(scoped):
            inside = _plan(cfg, index=1)
            explicit = _plan(ExecutionConfig(kernel_tier=outside.kernel), index=2)
        assert inside.kernel == scoped
        assert explicit.kernel == outside.kernel  # the config beats the scope
        assert inside.fused_key != outside.fused_key
        assert len(_buckets([outside, inside])) == 2

    def test_naming_the_default_tier_still_fuses(self):
        """The fused key carries the resolved tier, not the raw setting:
        ``kernel_tier="fused"`` joins the default bucket exactly when
        the default resolves to ``fused``."""
        explicit = ExecutionConfig(kernel_tier="fused")
        with tier_context("fused"):
            plans = [_plan(ExecutionConfig(), index=0), _plan(explicit, index=1)]
        assert plans[0].fused_key == plans[1].fused_key
        assert len(_buckets(plans)) == 1
        with tier_context("reference"):
            plans = [_plan(ExecutionConfig(), index=0), _plan(explicit, index=1)]
        assert plans[0].fused_key != plans[1].fused_key
        assert len(_buckets(plans)) == 2


# --------------------------------------------------------------------- #
# the prepare entry shape stays out of solve_many buckets
# --------------------------------------------------------------------- #
class TestPreparedNeverFuses:
    def _rect(self, n=8, seed=0):
        a = random_monge(n, n, np.random.default_rng(seed))
        return (a, (1, n - 1), (0, n))

    def test_submatrix_max_plans_are_never_fusable(self):
        cfg = ExecutionConfig()
        plans = [
            plan_query("submatrix_max", self._rect(seed=i), cfg,
                       "pram-crcw", index=i)
            for i in range(3)
        ]
        assert all(p.fused_key is None for p in plans)
        buckets = _buckets(plans)
        assert len(buckets) == 3
        assert all(len(b) == 1 for b in buckets)

    def test_solve_many_runs_submatrix_max_serially(self):
        s = Session("pram-crcw")
        rects = [self._rect(seed=i) for i in range(3)]
        batch = s.solve_many("submatrix_max", rects)
        assert batch.fused_queries == 0
        for rect, r in zip(rects, batch):
            want_v, want_w = repro.core.monge_submatrix_maximum(*rect)
            assert float(r.values) == float(want_v)
            np.testing.assert_array_equal(np.asarray(r.witnesses), want_w)

    def test_prepared_handle_never_enters_a_bucket(self):
        s = Session("pram-crcw")
        a = random_monge(8, 8, np.random.default_rng(11))
        handle = s.prepare(a)
        before = len(s.queries)
        handle.query((0, 8), (0, 8))
        # prepared work bypasses plan/group entirely: no query record,
        # and the handle type is not plannable data at all
        assert len(s.queries) == before
        with pytest.raises(TypeError):
            shape_of("submatrix_max", (handle, (0, 8)))

    def test_shape_of_rejects_malformed_triples(self):
        a = random_monge(4, 4, np.random.default_rng(0))
        with pytest.raises(TypeError, match="triple"):
            shape_of("submatrix_max", (a, (0, 2)))
        assert shape_of("submatrix_max", (a, (0, 2), (0, 2))) == (4, 4)
        assert shape_of("submatrix_max", a) == (4, 4)


# --------------------------------------------------------------------- #
# the classic disqualifiers keep holding after the refactor
# --------------------------------------------------------------------- #
class TestClassicDisqualifiers:
    @pytest.mark.parametrize("cfg", [
        ExecutionConfig(strategy="halving"),
    ], ids=["halving"])
    def test_never_fuses(self, cfg):
        assert _plan(cfg).fused_key is None

    def test_shape_mismatch_splits(self):
        cfg = ExecutionConfig()
        a = random_monge(6, 6, np.random.default_rng(1))
        b = random_monge(6, 7, np.random.default_rng(2))
        plans = [plan_query("rowmin", a, cfg, "pram-crcw", index=0),
                 plan_query("rowmin", b, cfg, "pram-crcw", index=1)]
        assert plans[0].fused_key != plans[1].fused_key
        assert len(_buckets(plans)) == 2


# --------------------------------------------------------------------- #
# grouping stability: the serving front-end's bucketing contract
# --------------------------------------------------------------------- #
class TestGroupingStability:
    """The query service buckets *incrementally* as requests arrive and
    relies on the planner's stability contract (planner docstring,
    DESIGN.md §15): re-lowering a request yields an identical fused key,
    and interleaved arrivals partition exactly as one batch call would.
    """

    def test_replanning_yields_identical_fused_key(self):
        cfg = ExecutionConfig()
        a = random_monge(6, 6, np.random.default_rng(3))
        keys = [
            plan_query("rowmin", a, cfg, "pram-crcw", index=i).fused_key
            for i in range(5)
        ]
        assert keys[0] is not None
        assert all(k == keys[0] for k in keys)
        # a structurally equal (but distinct) config produces the same key
        other = ExecutionConfig().with_overrides()
        assert plan_query("rowmin", a, other, "pram-crcw").fused_key == keys[0]

    def test_interleaved_arrivals_group_like_batch(self):
        """Incremental dict-by-key bucketing == one group_plans call."""
        cfg = ExecutionConfig()
        plans = []
        for i in range(12):
            n = 5 + (i % 3)  # three interleaved shape classes
            a = random_monge(n, n, np.random.default_rng(100 + i))
            plans.append(plan_query("rowmin", a, cfg, "pram-crcw", index=i))

        incremental: dict = {}
        for plan in plans:  # what the service does, one arrival at a time
            incremental.setdefault(plan.fused_key, []).append(plan)
        batch = group_plans(plans)

        batch_partition = [[p.index for p in bucket] for bucket in batch]
        incr_partition = [[p.index for p in bucket]
                          for bucket in incremental.values()]
        assert sorted(batch_partition) == sorted(incr_partition)

    def test_repeated_group_plans_calls_are_stable(self):
        cfg = ExecutionConfig()
        plans = []
        for i in range(8):
            n = 6 + (i % 2)
            a = random_monge(n, n, np.random.default_rng(200 + i))
            plans.append(plan_query("rowmin", a, cfg, "pram-crcw", index=i))
        first = [[p.index for p in b] for b in group_plans(plans)]
        second = [[p.index for p in b] for b in group_plans(plans)]
        assert first == second

    def test_run_plans_accepts_arbitrary_distinct_indices(self):
        """run_plans reassembles by argument position, not plan.index —
        the service plans with a service-lifetime sequence number."""
        from repro.engine.lifecycle import run_plans

        cfg = ExecutionConfig()
        arrays = [random_monge(6, 6, np.random.default_rng(300 + i))
                  for i in range(3)]
        plans = [plan_query("rowmin", a, cfg, "pram-crcw", index=idx)
                 for a, idx in zip(arrays, (7, 3, 11))]

        s = Session("pram-crcw")
        results, groups = run_plans(s, plans)
        assert len(results) == 3 and all(r is not None for r in results)
        # fused as one bucket despite the odd indices
        assert [g["count"] for g in groups] == [3]
        ref = Session("pram-crcw")
        for a, got in zip(arrays, results):  # argument order, bit-identical
            want = ref.solve("rowmin", a)
            assert np.array_equal(want.values, got.values)
            assert np.array_equal(want.witnesses, got.witnesses)
            assert want.snapshot == got.snapshot
