"""Async query serving with adaptive micro-batching (DESIGN.md §15).

The paper's premise is that grouped Monge searches are cheaper together
than apart; :meth:`Session.solve_many` proves it offline
(BENCH_batch.json).  :class:`QueryService` makes real concurrent
traffic get that speedup automatically: an asyncio front door that
holds compatible requests for a short adaptive fusion window — the
hardware fan-in-arbiter trade of a bounded hold for throughput — and
lowers each bucket through the existing planner and staged lifecycle,
so served answers are bit-identical to direct :meth:`Session.solve`
calls and inherit kernel tiers, resilience, and tracing unchanged.

Quickstart::

    import asyncio, repro
    from repro.serve import QueryService

    async def client(service, a):
        r = await service.solve("rowmin", a, deadline=0.5)
        return r.values

    async def main(arrays):
        async with QueryService("pram-crcw") as service:
            return await asyncio.gather(*(client(service, a) for a in arrays))

    asyncio.run(main(arrays))

Determinism seams for tests: a :class:`VirtualClock` (time moves only
via ``await clock.advance(dt)``) and an :class:`InlineExecutor`
(buckets run synchronously on the loop thread) make every window,
deadline, and shedding path reproducible without wall-clock sleeps.
"""

from repro.serve.clock import Clock, MonotonicClock, VirtualClock
from repro.serve.service import (
    InlineExecutor,
    QueryService,
    RequestExpiredError,
    ServeError,
    ServiceClosedError,
    ServiceConfig,
    ServiceOverloadedError,
    ThreadExecutor,
    serve_solve,
)
from repro.serve.window import WindowController

__all__ = [
    "QueryService",
    "ServiceConfig",
    "WindowController",
    "Clock",
    "MonotonicClock",
    "VirtualClock",
    "InlineExecutor",
    "ThreadExecutor",
    "serve_solve",
    "ServeError",
    "ServiceOverloadedError",
    "RequestExpiredError",
    "ServiceClosedError",
]
