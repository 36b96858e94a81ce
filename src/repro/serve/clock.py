"""The scheduler seam: wall clocks and the deterministic virtual clock.

Every time-dependent decision in :mod:`repro.serve` — per-request
deadlines, admission-wait backpressure, queue-time metrics — goes
through a :class:`Clock` rather than ``time.monotonic`` /
``asyncio.sleep`` directly.  Production uses :class:`MonotonicClock`;
the test suite uses :class:`VirtualClock`, which only moves when a test
calls :meth:`~VirtualClock.advance`, so every deadline/shedding
behavior is exercised deterministically with **no wall-clock sleeps**
(tests/test_serve_service.py pins this; DESIGN.md §15).
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import time

__all__ = ["Clock", "MonotonicClock", "VirtualClock"]


class Clock:
    """What the service needs from a time source.

    ``now()`` is a monotonically non-decreasing float of seconds;
    ``sleep(delay)`` is an awaitable that resolves once ``now()`` has
    advanced by at least ``delay``.  Sleeps must tolerate cancellation
    (admission waits race them against a slot-free event).
    """

    def now(self) -> float:
        raise NotImplementedError

    async def sleep(self, delay: float) -> None:
        raise NotImplementedError


class MonotonicClock(Clock):
    """The production clock: ``time.monotonic`` + ``asyncio.sleep``."""

    def now(self) -> float:
        return time.monotonic()

    async def sleep(self, delay: float) -> None:
        await asyncio.sleep(max(0.0, delay))


class VirtualClock(Clock):
    """A manually advanced clock for deterministic asyncio tests.

    Time starts at ``0.0`` and moves only inside
    :meth:`advance`: pending :meth:`sleep` calls whose deadlines fall
    inside the advanced span are woken **in deadline order**, and the
    event loop is drained between wake-ups so tasks observe
    intermediate times exactly as they would under a real clock —
    a sleeper that schedules a *new* shorter sleep inside the span is
    woken within the same ``advance`` call.

    Usage::

        clock = VirtualClock()
        service = QueryService("pram-crcw", clock=clock, ...)
        task = asyncio.create_task(service.solve("rowmin", a, deadline=0.05))
        await clock.advance(0.01)        # time moves only here
        result = await task
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list = []  # (deadline, seq, future)
        self._seq = itertools.count()

    def now(self) -> float:
        return self._now

    async def sleep(self, delay: float) -> None:
        if delay <= 0:
            await asyncio.sleep(0)
            return
        fut = asyncio.get_running_loop().create_future()
        heapq.heappush(self._heap, (self._now + float(delay), next(self._seq), fut))
        await fut

    # ------------------------------------------------------------------ #
    async def _drain(self, rounds: int = 12) -> None:
        """Yield to the loop until ready callbacks have run.

        A bounded number of zero-sleep yields is enough for the service
        (each wake-up triggers a short, non-reentrant cascade: batcher
        cycle → dispatch → inline execution → future callbacks)."""
        for _ in range(rounds):
            await asyncio.sleep(0)

    def _pop_cancelled(self) -> None:
        while self._heap and self._heap[0][2].cancelled():
            heapq.heappop(self._heap)

    async def advance(self, delay: float) -> None:
        """Move time forward by ``delay`` seconds, firing due sleepers.

        Every sleeper whose deadline lands inside the span fires at its
        exact deadline (``now()`` reads that deadline while it runs);
        sleepers scheduled *during* the advance are honored too when
        they fall inside the remaining span."""
        if delay < 0:
            raise ValueError(f"cannot advance a clock backwards (delay={delay})")
        target = self._now + float(delay)
        while True:
            await self._drain()
            self._pop_cancelled()
            if not self._heap or self._heap[0][0] > target:
                break
            when, _, fut = heapq.heappop(self._heap)
            self._now = max(self._now, when)
            if not fut.done():
                fut.set_result(None)
            await self._drain()
        self._now = target
        await self._drain()

    @property
    def pending_sleepers(self) -> int:
        """Live (uncancelled) sleeps waiting on this clock (test aid)."""
        self._pop_cancelled()
        return sum(1 for _, _, fut in self._heap if not fut.cancelled())
