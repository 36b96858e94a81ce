"""Real-asyncio serving smoke: concurrency and ordering.

The virtual-clock suite (``test_serve_service.py``) pins the dispatch /
admission / deadline state machine; this one runs the *production*
wiring — :class:`MonotonicClock` + :class:`ThreadExecutor` + the default
policy — under real concurrent clients.  Every check is against a
deterministic reference (direct :class:`Session` answers), never against
wall-clock timing.
"""

import asyncio

import numpy as np
import pytest

from repro.engine import Session
from repro.kernels import current_tier, resolve_kernel_tier, tier_context
from repro.monge.generators import random_monge, random_staircase_monge
from repro.obs import kernel_hook, metrics, reset_metrics
from repro.serve import QueryService, serve_solve

@pytest.fixture(autouse=True)
def _fresh_metrics():
    reset_metrics()
    yield


def _assert_same(want, got):
    np.testing.assert_array_equal(want.values, got.values)
    np.testing.assert_array_equal(want.witnesses, got.witnesses)
    assert want.snapshot == got.snapshot


def _fused(count):
    """How many of ``count`` fusable requests run fused: all of them, or
    none when the default kernel tier has no stacked-sweep kernel (CI
    also runs this module under ``REPRO_KERNEL_TIER=reference``)."""
    return count if current_tier() == "fused" else 0


# --------------------------------------------------------------------- #
# many concurrent clients, mixed problems
# --------------------------------------------------------------------- #
def test_concurrent_clients_get_their_own_answers():
    """N clients race mixed problems/shapes through one service; each
    must get the answer for *its* input (no cross-wiring inside fused
    buckets), bit-identical to a direct Session solve."""
    specs = []
    for k in range(6):
        specs.append(("rowmin", random_monge(10, 8, np.random.default_rng(k))))
    for k in range(4):
        specs.append(("rowmax", random_monge(7, 7, np.random.default_rng(40 + k))))
    for k in range(2):
        specs.append(
            ("staircase_min",
             random_staircase_monge(9, 9, np.random.default_rng(80 + k)))
        )

    async def body():
        async with QueryService("pram-crcw") as svc:
            return await asyncio.gather(
                *(svc.solve(problem, data) for problem, data in specs)
            )

    results = asyncio.run(body())
    ref = Session("pram-crcw")
    for (problem, data), got in zip(specs, results):
        assert got.problem == problem
        _assert_same(ref.solve(problem, data), got)
    counters = metrics().snapshot()["counters"]
    assert counters["serve.completed"] == len(specs)
    # the six same-shape rowmins and four rowmaxes each fused
    assert counters["serve.fused_requests"] == _fused(10)


def test_request_keeps_its_submitters_tier():
    """A request runs under the tier its submitter's ``tier_context``
    set at admission, although it executes later on the worker thread,
    and requests planned under different tiers never share a bucket."""
    data = [random_monge(10, 10, np.random.default_rng(700 + k)) for k in range(6)]
    tiers = ["reference", None, "fused"] * 2
    expected = {tier or resolve_kernel_tier(None) for tier in tiers}
    seen = set()

    async def client(svc, a, tier):
        if tier is None:
            return await svc.solve("rowmin", a)
        with tier_context(tier):
            return await svc.solve("rowmin", a)

    async def body():
        async with QueryService("pram-crcw") as svc:
            return await asyncio.gather(
                *(client(svc, a, tier) for a, tier in zip(data, tiers))
            )

    with kernel_hook(lambda ledger, name, size: seen.add(current_tier())):
        results = asyncio.run(body())
    assert seen == expected
    assert metrics().snapshot()["counters"]["serve.buckets"] >= len(expected)
    ref = Session("pram-crcw")
    for a, got in zip(data, results):
        _assert_same(ref.solve("rowmin", a), got)


def test_burst_fuses_into_one_bucket():
    """A same-key burst submitted together executes as a single fused
    bucket (the service's whole reason to exist): ``gather`` queues all
    eight submits before the batcher wakes to dispatch them."""
    data = [random_monge(12, 12, np.random.default_rng(200 + k)) for k in range(8)]

    async def body():
        async with QueryService("pram-crcw") as svc:
            return await asyncio.gather(*(svc.solve("rowmin", a) for a in data))

    results = asyncio.run(body())
    assert len(results) == 8
    counters = metrics().snapshot()["counters"]
    assert counters["serve.buckets"] == 1
    assert metrics().histogram("serve.fusion_width").max == 8
    hist = metrics().histogram("serve.latency_s")
    assert hist.count == 8 and hist.quantile(0.99) is not None


def test_solve_many_preserves_input_order_across_interleaved_shapes():
    """Interleaved shapes land in different buckets that may finish in
    any order; the client list must still come back in input order."""
    rng = np.random.default_rng(7)
    queries = []
    for k in range(10):
        n = 6 + (k % 3)  # 6,7,8,6,7,8,... -> three interleaved buckets
        queries.append(("rowmin", random_monge(n, n, rng)))

    async def body():
        async with QueryService("pram-crcw") as svc:
            return await svc.solve_many(queries)

    results = asyncio.run(body())
    ref = Session("pram-crcw")
    for (problem, data), got in zip(queries, results):
        assert got.values.shape == (data.shape[0],)
        _assert_same(ref.solve(problem, data), got)


def test_serve_solve_one_shot():
    a = random_monge(9, 9, np.random.default_rng(31))
    got = asyncio.run(serve_solve("rowmin", a, "pram-crcw"))
    _assert_same(Session("pram-crcw").solve("rowmin", a), got)


def test_concurrent_prepare_and_solve_share_the_executor_safely():
    a = random_monge(10, 10, np.random.default_rng(600))
    others = [random_monge(8, 8, np.random.default_rng(610 + k)) for k in range(3)]

    async def body():
        async with QueryService("pram-crcw") as svc:
            handle_t = asyncio.create_task(svc.prepare(a))
            solves = [asyncio.create_task(svc.solve("rowmin", b)) for b in others]
            handle = await handle_t
            sub = await svc.query(handle, (2, 9), (1, 10))
            return sub, await asyncio.gather(*solves)

    sub, results = asyncio.run(body())
    want = Session("pram-crcw").prepare(a).query((2, 9), (1, 10))
    assert sub.values == want.values
    ref = Session("pram-crcw")
    for b, got in zip(others, results):
        _assert_same(ref.solve("rowmin", b), got)
