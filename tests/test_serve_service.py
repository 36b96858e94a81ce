"""Deterministic virtual-clock tests for :mod:`repro.serve` (DESIGN.md §15).

Every test drives the service through a :class:`VirtualClock` (time
moves only via ``await clock.advance(dt)``) and an inline executor
(buckets execute synchronously on the loop thread) — **no wall-clock
sleeps anywhere**, so dispatch, deadline, admission, and drain behavior
replays identically on every run.  A test that needs requests to queue
holds the executor shut with :class:`_GateExecutor`: the service
dispatches a bucket as soon as nothing is in flight, so only a busy
executor keeps work waiting.
"""

import asyncio
import contextlib
import dataclasses

import numpy as np
import pytest

from repro.engine import Session
from repro.monge.generators import random_monge, random_staircase_monge
from repro.obs import metrics, reset_metrics
from repro.serve import (
    InlineExecutor,
    QueryService,
    RequestExpiredError,
    ServiceClosedError,
    ServiceConfig,
    ServiceOverloadedError,
    VirtualClock,
)


def run(coro):
    """Run one async test body on a fresh event loop."""
    return asyncio.run(coro)


def arrays(count, n, base_seed=0):
    return [random_monge(n, n, np.random.default_rng(base_seed + k))
            for k in range(count)]


def make_service(clock, **policy_kw):
    policy = ServiceConfig(**policy_kw)
    return QueryService("pram-crcw", policy=policy, clock=clock,
                        executor=InlineExecutor())


class _GateExecutor(InlineExecutor):
    """An executor the test can hold shut: calls wait at an asyncio gate
    before running inline, so whatever reaches it stays in flight and
    later arrivals queue behind it without wall-clock time."""

    def __init__(self):
        self.gate = asyncio.Event()

    async def call(self, fn):
        await self.gate.wait()
        return fn()


@contextlib.asynccontextmanager
async def gated_service(clock, **policy_kw):
    """A running service on a :class:`_GateExecutor`; yields
    ``(service, gate)``.  On exit the gate opens before the drain, so a
    failed assertion fails the test instead of hanging it."""
    gate = _GateExecutor()
    svc = QueryService("pram-crcw", policy=ServiceConfig(**policy_kw),
                       clock=clock, executor=gate)
    svc.start()
    try:
        yield svc, gate
    finally:
        gate.gate.set()
        await svc.drain()


@pytest.fixture(autouse=True)
def _fresh_metrics():
    reset_metrics()
    yield


def serve_counter(name):
    return metrics().counter(name).value


# --------------------------------------------------------------------- #
# dispatch: at once when idle, accumulated while busy, capped at max_batch
# --------------------------------------------------------------------- #
class TestFusionWindow:
    """The fusion window is the executor's busy time: a bucket is
    dispatched when nothing is in flight or when it is ``max_batch``
    wide, so requests that arrive during an execution fuse."""

    def test_lone_request_on_idle_service_runs_at_once(self):
        async def body():
            clock = VirtualClock()
            svc = make_service(clock)
            async with svc:
                task = asyncio.create_task(svc.solve("rowmin", arrays(1, 6)[0]))
                await clock.advance(0.0)
                assert task.done()  # no timer: an idle executor runs it now
                result = await task
                assert result.problem == "rowmin"
                assert clock.now() == 0.0
            assert serve_counter("serve.buckets") == 1

        run(body())

    def test_arrivals_while_busy_fuse_into_one_bucket(self):
        k = 5

        async def body():
            clock = VirtualClock()
            async with gated_service(clock) as (svc, gate):
                first = asyncio.create_task(svc.solve("rowmin", arrays(1, 6)[0]))
                await clock.advance(0.0)  # dispatched at once, held at the gate
                tasks = []
                for a in arrays(k, 6, base_seed=10):  # staggered arrivals
                    tasks.append(asyncio.create_task(svc.solve("rowmin", a)))
                    await clock.advance(0.001)
                (queued,) = svc._buckets.values()
                assert len(queued) == k
                assert not any(t.done() for t in tasks)
                gate.gate.set()
                await clock.advance(0.0)
                assert all(t.done() for t in tasks)  # ran as the executor freed
                await asyncio.gather(first, *tasks)
            width = metrics().histogram("serve.fusion_width")
            assert serve_counter("serve.buckets") == 2
            assert (width.min, width.max) == (1, k)

        run(body())

    def test_buckets_queued_together_dispatch_together(self):
        """Idleness is read once per batcher pass, so a rowmin and a
        rowmax bucket that queued together are both dispatched."""
        async def body():
            clock = VirtualClock()
            async with gated_service(clock) as (svc, gate):
                tasks = [asyncio.create_task(svc.solve(problem, a))
                         for problem, a in zip(["rowmin", "rowmax"] * 2, arrays(4, 6))]
                await clock.advance(0.0)
                assert not svc._buckets
                assert len(svc._inflight) == 2
                gate.gate.set()
                await asyncio.gather(*tasks)
            assert serve_counter("serve.buckets") == 2
            assert metrics().histogram("serve.fusion_width").max == 2

        run(body())

    def test_full_bucket_dispatches_while_busy(self):
        async def body():
            clock = VirtualClock()
            async with gated_service(clock, max_batch=3) as (svc, gate):
                blocker = asyncio.create_task(
                    svc.solve("rowmin", arrays(1, 7, base_seed=5)[0]))
                await clock.advance(0.0)
                tasks = [asyncio.create_task(svc.solve("rowmin", a))
                         for a in arrays(2, 6)]
                await clock.advance(0.001)
                assert len(svc._buckets) == 1  # below the cap: it waits
                tasks.append(asyncio.create_task(
                    svc.solve("rowmin", arrays(1, 6, base_seed=2)[0])))
                await clock.advance(0.0)
                # at the cap: dispatched without waiting for the executor
                assert not svc._buckets
                assert len(svc._inflight) == 2
                tasks += [asyncio.create_task(svc.solve("rowmin", a))
                          for a in arrays(4, 6, base_seed=20)]
                await clock.advance(0.0)
                # four queued at once: dispatched, split 3 + 1
                assert not svc._buckets
                assert len(svc._inflight) == 4
                gate.gate.set()
                await asyncio.gather(blocker, *tasks)
            assert serve_counter("serve.buckets") == 4
            assert metrics().histogram("serve.fusion_width").max == 3

        run(body())

    def test_size_cap_flushes_without_time_passing(self):
        async def body():
            clock = VirtualClock()
            svc = make_service(clock, max_batch=4)
            async with svc:
                tasks = [asyncio.create_task(svc.solve("rowmin", a))
                         for a in arrays(4, 6)]
                await clock.advance(0.0)  # drain the loop; no time passes
                assert all(t.done() for t in tasks)
                await asyncio.gather(*tasks)
                assert clock.now() == 0.0
            hist = metrics().histogram("serve.fusion_width")
            assert hist.max == 4

        run(body())

    def test_overgrown_bucket_splits_at_max_batch(self):
        """Requests can pile past ``max_batch`` before the batcher runs;
        the cap bounds *execution* width, so the bucket must split into
        max_batch-wide chunks rather than execute oversized."""
        async def body():
            clock = VirtualClock()
            svc = make_service(clock, max_batch=2)
            async with svc:
                tasks = [asyncio.create_task(svc.solve("rowmin", a))
                         for a in arrays(5, 6)]
                await clock.advance(0.0)
                await asyncio.gather(*tasks)
            assert serve_counter("serve.buckets") == 3  # 2 + 2 + 1
            assert metrics().histogram("serve.fusion_width").max == 2

        run(body())

    def test_unfusable_requests_flush_immediately(self):
        async def body():
            clock = VirtualClock()
            svc = make_service(clock)
            stair = random_staircase_monge(6, 6, np.random.default_rng(3))
            async with svc:
                task = asyncio.create_task(svc.solve("staircase_min", stair))
                await clock.advance(0.0)
                assert task.done()  # an idle service runs it at once
                await task

        run(body())

    def test_unfusable_request_waits_while_busy(self):
        stair = random_staircase_monge(6, 6, np.random.default_rng(3))

        async def body():
            clock = VirtualClock()
            async with gated_service(clock) as (svc, gate):
                blocker = asyncio.create_task(svc.solve("rowmin", arrays(1, 6)[0]))
                await clock.advance(0.0)
                task = asyncio.create_task(svc.solve("staircase_min", stair))
                await clock.advance(0.001)
                assert not task.done()  # queued like any other request
                assert [key[0] for key in svc._buckets] == ["serial"]
                gate.gate.set()
                await clock.advance(0.0)
                assert task.done()
                await blocker
                return await task

        got = run(body())
        want = Session("pram-crcw").solve("staircase_min", stair)
        assert np.array_equal(want.values, got.values)
        assert want.snapshot == got.snapshot
        assert serve_counter("serve.buckets") == 2
        assert serve_counter("serve.fused_requests") == 0

    def test_queue_time_recorded_per_request(self):
        async def body():
            clock = VirtualClock()
            async with gated_service(clock) as (svc, gate):
                blocker = asyncio.create_task(svc.solve("rowmin", arrays(1, 6)[0]))
                await clock.advance(0.0)
                held = asyncio.create_task(
                    svc.solve("rowmin", arrays(1, 6, base_seed=9)[0]))
                await clock.advance(0.005)  # queued behind the gated bucket
                gate.gate.set()
                await asyncio.gather(blocker, held)
            queued = metrics().histogram("serve.queue_s")
            assert queued.count == 2
            assert (queued.min, queued.max) == (0.0, 0.005)

        run(body())


# --------------------------------------------------------------------- #
# admission control: shedding and backpressure
# --------------------------------------------------------------------- #
class TestAdmission:
    def test_queue_full_sheds_immediately(self):
        async def body():
            clock = VirtualClock()
            async with gated_service(clock, max_pending=2, admission_wait=0.0) as (svc, gate):
                data = arrays(3, 6)
                t1 = asyncio.create_task(svc.solve("rowmin", data[0]))
                t2 = asyncio.create_task(svc.solve("rowmin", data[1]))
                await clock.advance(0.0)
                assert svc.pending == 2
                with pytest.raises(ServiceOverloadedError, match="queue full"):
                    await svc.solve("rowmin", data[2])
                assert serve_counter("serve.shed") == 1
                gate.gate.set()
                await asyncio.gather(t1, t2)
            snap = metrics().snapshot()
            assert snap["derived"]["serve_shed_rate"] == pytest.approx(1 / 3)
            assert snap["gauges"]["serve.queue_depth"] == 0

        run(body())

    def test_backpressure_admits_when_slot_frees(self):
        async def body():
            clock = VirtualClock()
            async with gated_service(clock, max_pending=2, admission_wait=0.100) as (svc, gate):
                data = arrays(3, 6)
                t1 = asyncio.create_task(svc.solve("rowmin", data[0]))
                t2 = asyncio.create_task(svc.solve("rowmin", data[1]))
                await clock.advance(0.0)
                t3 = asyncio.create_task(svc.solve("rowmin", data[2]))
                await clock.advance(0.0)
                assert not t3.done()  # waiting for admission, not shed
                await clock.advance(0.010)
                assert not t3.done()
                # the first bucket executes, freeing both slots
                gate.gate.set()
                await asyncio.gather(t1, t2)
                # t3 was admitted into an idle service; it runs at once
                await clock.advance(0.0)
                await t3
                assert serve_counter("serve.shed") == 0
                assert serve_counter("serve.completed") == 3

        run(body())

    def test_backpressure_sheds_after_admission_wait(self):
        async def body():
            clock = VirtualClock()
            async with gated_service(clock, max_pending=1, admission_wait=0.005) as (svc, gate):
                data = arrays(2, 6)
                t1 = asyncio.create_task(svc.solve("rowmin", data[0]))
                await clock.advance(0.0)
                t2 = asyncio.create_task(svc.solve("rowmin", data[1]))
                await clock.advance(0.0)
                assert not t2.done()
                await clock.advance(0.006)  # admission wait expires
                with pytest.raises(ServiceOverloadedError):
                    await t2
                assert serve_counter("serve.shed") == 1
                gate.gate.set()
                await t1

        run(body())


# --------------------------------------------------------------------- #
# deadlines: expiry before and during execution
# --------------------------------------------------------------------- #
class TestDeadlines:
    def test_expires_before_execution(self):
        async def body():
            clock = VirtualClock()
            async with gated_service(clock) as (svc, gate):
                # an index build holds the executor (it takes no admission
                # slot and completes no request)
                build = asyncio.create_task(svc.prepare(arrays(1, 6, base_seed=3)[0]))
                await clock.advance(0.0)
                task = asyncio.create_task(
                    svc.solve("rowmin", arrays(1, 6)[0], deadline=0.005))
                # when the executor frees (10 ms) the deadline (5 ms) has passed
                await clock.advance(0.010)
                gate.gate.set()
                with pytest.raises(RequestExpiredError, match="deadline"):
                    await task
                await build
                assert serve_counter("serve.expired") == 1
                assert serve_counter("serve.completed") == 0
                assert svc.pending == 0  # the slot was released

        run(body())

    def test_expires_while_earlier_bucket_executes(self):
        async def body():
            clock = VirtualClock()
            async with gated_service(clock) as (svc, gate):
                a = arrays(1, 6)[0]
                b = arrays(1, 7, base_seed=5)[0]  # different shape: own bucket
                first = asyncio.create_task(svc.solve("rowmin", a))
                await clock.advance(0.001)  # bucket A dispatched, held at gate
                second = asyncio.create_task(
                    svc.solve("rowmin", b, deadline=0.004))
                await clock.advance(0.001)  # bucket B queued behind it
                assert not first.done() and not second.done()
                await clock.advance(0.010)  # B's deadline passes in the queue
                gate.gate.set()  # release the executor
                await clock.advance(0.0)
                assert np.array_equal(
                    (await first).values, Session("pram-crcw").solve("rowmin", a).values
                )
                with pytest.raises(RequestExpiredError):
                    await second
                assert serve_counter("serve.expired") == 1
                assert serve_counter("serve.completed") == 1

        run(body())

    def test_default_deadline_from_policy(self):
        async def body():
            clock = VirtualClock()
            async with gated_service(clock, default_deadline=0.005) as (svc, gate):
                build = asyncio.create_task(svc.prepare(arrays(1, 6, base_seed=3)[0]))
                await clock.advance(0.0)
                task = asyncio.create_task(svc.solve("rowmin", arrays(1, 6)[0]))
                await clock.advance(0.020)
                gate.gate.set()
                with pytest.raises(RequestExpiredError):
                    await task
                await build

        run(body())

    def test_invalid_deadline_rejected(self):
        async def body():
            clock = VirtualClock()
            async with gated_service(clock, max_pending=1) as (svc, gate):
                with pytest.raises(ValueError, match="deadline"):
                    await svc.solve("rowmin", arrays(1, 6)[0], deadline=0.0)
                assert svc.pending == 0  # no admission slot was taken
                assert serve_counter("serve.requests") == 0
                # with the queue full the request is malformed, not shed
                held = asyncio.create_task(svc.solve("rowmin", arrays(1, 6)[0]))
                await clock.advance(0.0)
                assert svc.pending == 1
                with pytest.raises(ValueError, match="deadline"):
                    await svc.solve("rowmin", arrays(1, 6)[0], deadline=0.0)
                assert serve_counter("serve.shed") == 0
                assert serve_counter("serve.requests") == 1  # the held one only
                gate.gate.set()
                await held

        run(body())

    def test_cancelled_client_releases_slot(self):
        async def body():
            clock = VirtualClock()
            async with gated_service(clock, max_pending=1) as (svc, gate):
                build = asyncio.create_task(svc.prepare(arrays(1, 6, base_seed=3)[0]))
                await clock.advance(0.0)
                task = asyncio.create_task(svc.solve("rowmin", arrays(1, 6)[0]))
                await clock.advance(0.0)
                task.cancel()
                gate.gate.set()
                await clock.advance(0.0)  # the executor frees; reaps the abandonment
                await build
                assert svc.pending == 0
                assert serve_counter("serve.cancelled") == 1

        run(body())


# --------------------------------------------------------------------- #
# drain semantics
# --------------------------------------------------------------------- #
class TestDrain:
    def test_drain_flushes_open_buckets_immediately(self):
        async def body():
            clock = VirtualClock()
            async with gated_service(clock) as (svc, gate):
                data = arrays(3, 6)
                tasks = [asyncio.create_task(svc.solve("rowmin", data[0]))]
                await clock.advance(0.0)  # dispatched at once, held at the gate
                tasks += [asyncio.create_task(svc.solve("rowmin", a)) for a in data[1:]]
                await clock.advance(0.0)
                assert not any(t.done() for t in tasks)  # queued behind the gate
                drain = asyncio.create_task(svc.drain())
                await clock.advance(0.0)
                assert not svc._buckets  # drain dispatched the open bucket
                gate.gate.set()
                await drain  # no clock advance: drain must not wait
                results = await asyncio.gather(*tasks)
                assert len(results) == 3
                assert clock.now() == 0.0
                assert serve_counter("serve.completed") == 3

        run(body())

    def test_submit_after_drain_is_refused(self):
        async def body():
            clock = VirtualClock()
            svc = make_service(clock)
            svc.start()
            await svc.drain()
            with pytest.raises(ServiceClosedError):
                await svc.solve("rowmin", arrays(1, 6)[0])
            with pytest.raises(ServiceClosedError):
                await svc.prepare(arrays(1, 6)[0])
            with pytest.raises(ServiceClosedError):
                svc.start()

        run(body())

    def test_drain_is_idempotent(self):
        async def body():
            clock = VirtualClock()
            svc = make_service(clock)
            async with svc:
                pass
            await svc.drain()
            await svc.close()

        run(body())

    def test_drain_wakes_admission_waiters(self):
        async def body():
            clock = VirtualClock()
            async with gated_service(clock, max_pending=1, admission_wait=10.0) as (svc, gate):
                t1 = asyncio.create_task(svc.solve("rowmin", arrays(1, 6)[0]))
                await clock.advance(0.0)
                t2 = asyncio.create_task(
                    svc.solve("rowmin", arrays(1, 6, base_seed=4)[0]))
                await clock.advance(0.0)
                drain = asyncio.create_task(svc.drain())
                await clock.advance(0.0)
                gate.gate.set()
                await t1  # the held request is served at drain
                with pytest.raises(ServiceClosedError):
                    await t2  # the waiter is refused, not stranded
                await drain

        run(body())


# --------------------------------------------------------------------- #
# served results are bit-identical to direct Session.solve
# --------------------------------------------------------------------- #
class TestBitIdentity:
    def test_fused_buckets_match_serial_twins(self):
        B = 6
        data = arrays(B, 8) + arrays(2, 5, base_seed=50)
        stair = random_staircase_monge(7, 7, np.random.default_rng(8))

        async def body():
            clock = VirtualClock()
            svc = make_service(clock, max_batch=64)
            async with svc:
                # pinned to the fused tier: this test is about fusion
                tasks = [asyncio.create_task(
                    svc.solve("rowmin", a, kernel_tier="fused")) for a in data]
                tasks.append(asyncio.create_task(
                    svc.solve("staircase_min", stair)))
                await clock.advance(0.0)
                return await asyncio.gather(*tasks)

        results = run(body())
        ref = Session("pram-crcw")
        for a, got in zip(data, results[:-1]):
            want = ref.solve("rowmin", a)
            assert np.array_equal(want.values, got.values)
            assert np.array_equal(want.witnesses, got.witnesses)
            assert want.snapshot == got.snapshot  # ledger bit-identity
        want = ref.solve("staircase_min", stair)
        got = results[-1]
        assert np.array_equal(want.values, got.values)
        assert np.array_equal(want.witnesses, got.witnesses)
        assert want.snapshot == got.snapshot
        # the two shape classes each fused; the staircase ran serially
        assert serve_counter("serve.fused_requests") == 8
        assert metrics().histogram("serve.fusion_width").max == 6

    def test_solve_many_convenience_preserves_input_order(self):
        data = arrays(4, 6, base_seed=70)

        async def body():
            clock = VirtualClock()
            svc = make_service(clock)
            async with svc:
                gathered = asyncio.create_task(
                    svc.solve_many([("rowmin", a) for a in data]))
                await clock.advance(0.0)
                return await gathered

        results = run(body())
        ref = Session("pram-crcw")
        for a, got in zip(data, results):
            want = ref.solve("rowmin", a)
            assert np.array_equal(want.values, got.values)
            assert np.array_equal(want.witnesses, got.witnesses)

    def test_session_query_log_records_served_requests(self):
        data = arrays(3, 6, base_seed=90)

        async def body():
            clock = VirtualClock()
            svc = make_service(clock)
            async with svc:
                tasks = [asyncio.create_task(svc.solve("rowmin", a))
                         for a in data]
                await clock.advance(0.0)
                await asyncio.gather(*tasks)
                return svc.session

        session = run(body())
        assert len(session.queries) == 3
        assert all(q.problem == "rowmin" for q in session.queries)
        assert session.ledger.rounds > 0  # sub-accounts merged back


# --------------------------------------------------------------------- #
# the bucketing contract is asserted at execution
# --------------------------------------------------------------------- #
class TestStableKeyGuard:
    def test_drifted_key_fails_the_bucket_loudly(self):
        async def body():
            clock = VirtualClock()
            async with gated_service(clock) as (svc, gate):
                blocker = asyncio.create_task(
                    svc.solve("rowmin", arrays(1, 7, base_seed=5)[0]))
                await clock.advance(0.0)  # holds the executor at the gate
                tasks = [asyncio.create_task(svc.solve("rowmin", a))
                         for a in arrays(2, 6)]
                await clock.advance(0.0)
                # sabotage one queued plan: simulate a planner whose
                # fused key is not stable across lowerings
                (queued,) = svc._buckets.values()
                queued[1].plan.fused_key = ("drifted",)
                gate.gate.set()
                await blocker
                with pytest.raises(AssertionError, match="fused key"):
                    await asyncio.gather(*tasks)

        run(body())

    def test_prepare_and_query_through_the_service(self):
        a = random_monge(8, 8, np.random.default_rng(21))

        async def body():
            clock = VirtualClock()
            svc = make_service(clock)
            async with svc:
                handle = await svc.prepare(a)
                return await svc.query(handle, (1, 7), (2, 8))

        got = run(body())
        want = Session("pram-crcw").prepare(a).query((1, 7), (2, 8))
        assert got.values == want.values
        assert np.array_equal(got.witnesses, want.witnesses)
        assert serve_counter("serve.prepares") == 1
        assert serve_counter("serve.index_queries") == 1


# --------------------------------------------------------------------- #
# service configuration validation
# --------------------------------------------------------------------- #
class TestServiceConfig:
    @pytest.mark.parametrize("kw", [
        dict(max_batch=0),
        dict(max_pending=0),
        dict(admission_wait=-1.0),
        dict(default_deadline=0.0),
    ])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            ServiceConfig(**kw)

    def test_timed_window_fields_are_gone(self):
        assert [f.name for f in dataclasses.fields(ServiceConfig)] == [
            "max_batch", "max_pending", "admission_wait", "default_deadline",
            "verify_keys",
        ]
        for name in ("min_window", "max_window", "target_width", "ewma_alpha"):
            with pytest.raises(TypeError):
                ServiceConfig(**{name: 0.01})


# --------------------------------------------------------------------- #
# the virtual clock itself
# --------------------------------------------------------------------- #
class TestVirtualClock:
    def test_sleepers_fire_in_deadline_order(self):
        async def body():
            clock = VirtualClock()
            order = []

            async def sleeper(tag, delay):
                await clock.sleep(delay)
                order.append((tag, clock.now()))

            tasks = [asyncio.create_task(sleeper("b", 0.02)),
                     asyncio.create_task(sleeper("a", 0.01)),
                     asyncio.create_task(sleeper("c", 0.03))]
            await clock.advance(0.05)
            await asyncio.gather(*tasks)
            assert order == [("a", 0.01), ("b", 0.02), ("c", 0.03)]
            assert clock.now() == 0.05

        run(body())

    def test_nested_sleep_fires_within_one_advance(self):
        async def body():
            clock = VirtualClock()
            hits = []

            async def chain():
                await clock.sleep(0.01)
                hits.append(clock.now())
                await clock.sleep(0.01)  # scheduled *during* the advance
                hits.append(clock.now())

            task = asyncio.create_task(chain())
            await clock.advance(0.05)
            await task
            assert hits == [0.01, pytest.approx(0.02)]

        run(body())

    def test_zero_or_negative_sleep_just_yields(self):
        async def body():
            clock = VirtualClock()
            await clock.sleep(0)
            await clock.sleep(-1)
            assert clock.now() == 0.0
            with pytest.raises(ValueError):
                await clock.advance(-0.1)

        run(body())

    def test_cancelled_sleeper_is_discarded(self):
        async def body():
            clock = VirtualClock()
            task = asyncio.create_task(clock.sleep(1.0))
            await asyncio.sleep(0)
            task.cancel()
            await asyncio.gather(task, return_exceptions=True)
            assert clock.pending_sleepers == 0
            await clock.advance(2.0)  # must not trip on the corpse

        run(body())
