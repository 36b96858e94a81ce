"""Async query serving with micro-batching (DESIGN.md §15).

The paper's premise is that grouped Monge searches are cheaper together
than apart; :meth:`Session.solve_many` proves it offline
(BENCH_batch.json).  :class:`QueryService` makes real concurrent
traffic get that speedup automatically: an asyncio front door that
buckets compatible requests and dispatches a bucket as soon as the
executor is idle, so requests that arrive while it is busy run as one
fused sweep and a request on an idle service runs at once.  Each bucket
is lowered through the existing planner and staged lifecycle, so served
answers are bit-identical to direct :meth:`Session.solve` calls and
inherit kernel tiers, resilience, and tracing unchanged.

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
(buckets run synchronously on the loop thread) make every dispatch,
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

__all__ = [
    "QueryService",
    "ServiceConfig",
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
