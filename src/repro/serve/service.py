"""The async query service: micro-batching over the engine.

:class:`QueryService` is the long-running front door (DESIGN.md §15).
Many concurrent clients ``await service.solve(...)``; the service plans
each request immediately (capability errors surface at submit time) and
buckets fusable plans by the planner's **fused key** — the same key
:func:`repro.engine.planner.group_plans` uses, so incremental bucketing
cannot drift from batch semantics.  A bucket is dispatched as soon as
nothing is in flight, when it reaches the ``max_batch`` size cap, or at
drain: requests that arrive while the executor is busy accumulate and
run as one fused bucket when it frees, so load sets the batch width and
an idle service runs a request at once.  Dispatched buckets run through
the ordinary staged lifecycle (:func:`repro.engine.lifecycle.run_plans`),
so fused buckets inherit kernel tiers, certification, and tracing
unchanged, and every answer is bit-identical to a direct
:meth:`Session.solve`.

Admission control is a bounded queue: past ``max_pending`` in-flight
requests a submit either sheds immediately
(:class:`ServiceOverloadedError`) or, with ``admission_wait > 0``,
backpressures for up to that long before shedding.  Per-request
deadlines drop expired work *before* execution (when its bucket reaches
the executor) with :class:`RequestExpiredError`.
:meth:`QueryService.drain` stops intake, dispatches everything
immediately, and waits for in-flight work.

Every time-dependent decision goes through the injectable
:class:`~repro.serve.clock.Clock`, and execution goes through an
injectable executor (:class:`ThreadExecutor` by default — one worker
thread keeps the event loop responsive while the CPU-bound sweep runs;
:class:`InlineExecutor` for deterministic tests), so the whole
dispatch/deadline/shedding state machine is testable without wall-clock
sleeps.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import itertools
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.engine.config import ExecutionConfig
from repro.engine.lifecycle import run_plans
from repro.engine.planner import QueryPlan, plan_query
from repro.engine.result import SearchResult
from repro.engine.session import Session
from repro.kernels.registry import tier_context
from repro.obs.metrics import metrics
from repro.serve.clock import Clock, MonotonicClock

__all__ = [
    "ServiceConfig",
    "QueryService",
    "InlineExecutor",
    "ThreadExecutor",
    "ServeError",
    "ServiceOverloadedError",
    "RequestExpiredError",
    "ServiceClosedError",
]


# --------------------------------------------------------------------- #
# errors
# --------------------------------------------------------------------- #
class ServeError(RuntimeError):
    """Base class for service-level request failures."""


class ServiceOverloadedError(ServeError):
    """Admission control shed this request (queue full past the wait)."""


class RequestExpiredError(ServeError):
    """The request's deadline passed before it reached execution."""


class ServiceClosedError(ServeError):
    """The service is draining or closed and accepts no new work."""


# --------------------------------------------------------------------- #
# execution seam
# --------------------------------------------------------------------- #
class InlineExecutor:
    """Run bucket work synchronously on the event-loop thread.

    Deterministic (no thread handoff, no scheduling jitter) — the
    executor the serve test-suite injects.  Unsuitable for production
    traffic: a large sweep would stall the loop."""

    async def call(self, fn: Callable):
        return fn()

    def shutdown(self) -> None:  # symmetry with ThreadExecutor
        pass


class ThreadExecutor:
    """Run bucket work on a single dedicated worker thread (default).

    One worker serializes all engine execution (a :class:`Session` is
    not thread-safe) while the event loop stays free to admit, bucket,
    and shed; the service additionally holds its executor lock across
    each call, so a custom multi-worker executor still sees one bucket
    at a time per service."""

    def __init__(self) -> None:
        self._pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve"
        )

    async def call(self, fn: Callable):
        return await asyncio.get_running_loop().run_in_executor(self._pool, fn)

    def shutdown(self) -> None:
        self._pool.shutdown(wait=True)


# --------------------------------------------------------------------- #
# configuration
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs for one :class:`QueryService`.

    ``max_batch``
        Size cap on a bucket's execution width: a bucket this wide is
        dispatched even while the executor is busy, and a wider one is
        split into ``max_batch``-wide chunks.  ``1`` turns fusion off:
        every request runs as its own bucket.
    ``max_pending``
        Admission bound on in-flight requests (admitted, not yet
        settled).
    ``admission_wait``
        Seconds a submit may backpressure-wait for a free slot before
        shedding; ``0`` sheds immediately when the queue is full.
    ``default_deadline``
        Deadline (seconds from submission) applied to requests that
        pass none; ``None`` means no implicit deadline.
    """

    max_batch: int = 64
    max_pending: int = 1024
    admission_wait: float = 0.0
    default_deadline: Optional[float] = None

    def __post_init__(self) -> None:
        if not isinstance(self.max_batch, int) or self.max_batch < 1:
            raise ValueError(f"max_batch must be an int >= 1, got {self.max_batch!r}")
        if not isinstance(self.max_pending, int) or self.max_pending < 1:
            raise ValueError(
                f"max_pending must be an int >= 1, got {self.max_pending!r}"
            )
        if self.admission_wait < 0:
            raise ValueError(
                f"admission_wait must be >= 0 seconds, got {self.admission_wait}"
            )
        if self.default_deadline is not None and not self.default_deadline > 0:
            raise ValueError(
                f"default_deadline must be > 0 seconds or None, "
                f"got {self.default_deadline}"
            )


# --------------------------------------------------------------------- #
# request bookkeeping
# --------------------------------------------------------------------- #
class _Request:
    __slots__ = ("plan", "future", "arrival", "expires")

    def __init__(self, plan: QueryPlan, future: "asyncio.Future",
                 arrival: float, expires: Optional[float]) -> None:
        self.plan = plan
        self.future = future
        self.arrival = arrival
        self.expires = expires

    def expired(self, now: float) -> bool:
        return self.expires is not None and now >= self.expires


# --------------------------------------------------------------------- #
# the service
# --------------------------------------------------------------------- #
class QueryService:
    """An asyncio front door that micro-batches engine queries.

    Parameters
    ----------
    backend:
        Engine backend for the owned session (ignored when ``session=``
        is passed).
    session:
        Adopt an existing :class:`~repro.engine.session.Session`
        instead of owning a fresh one (its config becomes the
        per-request default).
    policy:
        The :class:`ServiceConfig` (batch cap, admission, deadlines).
    config:
        Default :class:`ExecutionConfig` override for the owned session.
    clock:
        A :class:`~repro.serve.clock.Clock`; defaults to the monotonic
        wall clock.  Tests inject a
        :class:`~repro.serve.clock.VirtualClock`.
    executor:
        The execution seam — any object with ``async call(fn)`` and
        ``shutdown()``.  Defaults to a private :class:`ThreadExecutor`.

    Usage::

        service = QueryService("pram-crcw")
        async with service:
            results = await asyncio.gather(
                *(service.solve("rowmin", a) for a in arrays)
            )
    """

    def __init__(
        self,
        backend: str = "auto",
        *,
        session: Optional[Session] = None,
        policy: Optional[ServiceConfig] = None,
        config: Optional[ExecutionConfig] = None,
        clock: Optional[Clock] = None,
        executor=None,
    ) -> None:
        self.policy = policy if policy is not None else ServiceConfig()
        if session is not None:
            self._session = session
        else:
            self._session = Session(backend, config=config)
        self._clock = clock if clock is not None else MonotonicClock()
        self._owns_executor = executor is None
        self._executor = executor if executor is not None else ThreadExecutor()
        self._buckets: dict = {}  # bucket key -> queued requests
        self._inflight: set = set()
        self._pending = 0
        self._closed = False
        self._batcher: Optional[asyncio.Task] = None
        self._wakeup = asyncio.Event()
        self._slot_free = asyncio.Event()
        self._exec_lock = asyncio.Lock()
        self._seq = itertools.count()

    # -- introspection -------------------------------------------------- #
    @property
    def session(self) -> Session:
        """The engine session answering this service's requests."""
        return self._session

    @property
    def clock(self) -> Clock:
        return self._clock

    @property
    def pending(self) -> int:
        """Requests admitted and not yet settled."""
        return self._pending

    @property
    def closed(self) -> bool:
        return self._closed

    # -- lifecycle ------------------------------------------------------ #
    async def __aenter__(self) -> "QueryService":
        self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.drain()

    def start(self) -> None:
        """Start the batcher task (idempotent; submits also auto-start)."""
        if self._closed:
            raise ServiceClosedError("service is closed")
        if self._batcher is None or self._batcher.done():
            self._batcher = asyncio.get_running_loop().create_task(
                self._batch_loop()
            )

    async def drain(self) -> None:
        """Graceful shutdown: refuse new work, dispatch every open bucket
        immediately, wait for in-flight executions, release the
        executor.  Idempotent; queued requests are *served*, not dropped
        (deadlines still apply at execution)."""
        self._closed = True
        self._wakeup.set()
        self._slot_free.set()  # admission waiters observe the close
        if self._batcher is not None:
            await self._batcher
            self._batcher = None
        while self._inflight:
            await asyncio.gather(*list(self._inflight), return_exceptions=True)
        if self._owns_executor:
            self._executor.shutdown()

    async def close(self) -> None:
        """Alias for :meth:`drain`."""
        await self.drain()

    # -- submission ----------------------------------------------------- #
    async def solve(
        self,
        problem: str,
        data,
        config: Optional[ExecutionConfig] = None,
        *,
        deadline: Optional[float] = None,
        **overrides,
    ) -> SearchResult:
        """Submit one query; resolves to its :class:`SearchResult`.

        ``deadline`` is seconds from *now* (defaults to the policy's
        ``default_deadline``); a request still unexecuted when it
        expires fails with :class:`RequestExpiredError`.  Raises
        :class:`ValueError` for a deadline that is not positive (before
        admission, so the request is neither counted nor shed),
        :class:`ServiceOverloadedError` when admission sheds it and
        :class:`ServiceClosedError` after :meth:`drain`.
        """
        if self._closed:
            raise ServiceClosedError("service is draining; no new work accepted")
        self.start()
        cfg = self._session._derive_config(config, overrides)
        # plan immediately: capability errors belong to the submitter,
        # not to whichever bucket the request would have joined
        plan = self._session._plan(problem, data, cfg, index=next(self._seq))
        if deadline is None:
            deadline = self.policy.default_deadline
        # a malformed request is the caller's error, not admitted traffic:
        # reject it before it can be shed or counted
        if deadline is not None and not deadline > 0:
            raise ValueError(f"deadline must be > 0 seconds, got {deadline}")
        await self._admit()

        now = self._clock.now()
        metrics().counter("serve.requests").inc()
        expires = None if deadline is None else now + deadline

        request = _Request(
            plan, asyncio.get_running_loop().create_future(), now, expires
        )
        self._enqueue(request)
        return await request.future

    async def solve_many(
        self,
        queries: Sequence,
        config: Optional[ExecutionConfig] = None,
        **overrides,
    ) -> List[SearchResult]:
        """Submit ``(problem, data)`` / ``(problem, data, config)`` tuples
        concurrently; resolves to their results in input order.

        Unlike :meth:`Session.solve_many` this is just a convenience
        fan-out: each query is admitted (and shed / expired)
        individually, and fusion happens through ordinary bucketing."""
        coros = []
        for item in queries:
            if len(item) == 2:
                qproblem, qdata = item
                qcfg = config
            elif len(item) == 3:
                qproblem, qdata, qcfg = item
                if qcfg is None:
                    qcfg = config
            else:
                raise TypeError(
                    "solve_many query items must be (problem, data) or "
                    "(problem, data, config) tuples"
                )
            coros.append(self.solve(qproblem, qdata, qcfg, **overrides))
        return list(await asyncio.gather(*coros))

    async def prepare(self, problem, data=None,
                      config: Optional[ExecutionConfig] = None, **overrides):
        """Build (or fetch) a prepared handle through the service.

        ``prepare`` bypasses bucketing — index builds are not fusable —
        but runs on the service executor behind the same serialization
        lock as bucket execution."""
        if self._closed:
            raise ServiceClosedError("service is draining; no new work accepted")
        metrics().counter("serve.prepares").inc()
        async with self._exec_lock:
            return await self._executor.call(
                lambda: self._session.prepare(problem, data, config, **overrides)
            )

    async def query(self, handle, rows, cols) -> SearchResult:
        """Answer one rectangle query on a prepared handle (executor-run)."""
        if self._closed:
            raise ServiceClosedError("service is draining; no new work accepted")
        metrics().counter("serve.index_queries").inc()
        async with self._exec_lock:
            return await self._executor.call(lambda: handle.query(rows, cols))

    # -- admission ------------------------------------------------------ #
    def _release_slot(self) -> None:
        self._pending -= 1
        metrics().gauge("serve.queue_depth").set(self._pending)
        self._slot_free.set()

    async def _admit(self) -> None:
        m = metrics()
        if self._pending < self.policy.max_pending:
            self._pending += 1
            m.gauge("serve.queue_depth").set(self._pending)
            return
        wait = self.policy.admission_wait
        give_up = self._clock.now() + wait
        while wait > 0:
            remaining = give_up - self._clock.now()
            if remaining <= 0:
                break
            self._slot_free.clear()
            if self._pending < self.policy.max_pending:
                self._pending += 1
                m.gauge("serve.queue_depth").set(self._pending)
                return
            await self._race_event(self._slot_free, remaining)
            if self._closed:
                raise ServiceClosedError(
                    "service drained while this request waited for admission"
                )
            if self._pending < self.policy.max_pending:
                self._pending += 1
                m.gauge("serve.queue_depth").set(self._pending)
                return
        m.counter("serve.shed").inc()
        raise ServiceOverloadedError(
            f"queue full ({self._pending}/{self.policy.max_pending} pending"
            + (f", waited {wait}s" if wait > 0 else "")
            + "); retry later or raise max_pending/admission_wait"
        )

    async def _race_event(self, event: asyncio.Event, timeout: float) -> None:
        """Wait until ``event`` is set or ``timeout`` clock-seconds pass."""
        waiter = asyncio.ensure_future(event.wait())
        sleeper = asyncio.ensure_future(self._clock.sleep(timeout))
        try:
            await asyncio.wait(
                {waiter, sleeper}, return_when=asyncio.FIRST_COMPLETED
            )
        finally:
            for task in (waiter, sleeper):
                if not task.done():
                    task.cancel()
            await asyncio.gather(waiter, sleeper, return_exceptions=True)

    # -- bucketing ------------------------------------------------------ #
    def _enqueue(self, request: _Request) -> None:
        plan = request.plan
        # unfusable plans get a bucket of their own and run serially
        key = plan.fused_key if plan.fused_key is not None else ("serial", plan.index)
        self._buckets.setdefault(key, []).append(request)
        self._wakeup.set()

    async def _batch_loop(self) -> None:
        # woken by every submit and every finished bucket (``_settled``)
        while True:
            self._wakeup.clear()
            for bucket in self._ready_buckets():
                self._dispatch(bucket)
            if self._closed:
                return
            await self._wakeup.wait()

    def _ready_buckets(self) -> List[List[_Request]]:
        """Every bucket when the service is closed or nothing is in
        flight, else only those already ``max_batch`` wide.  Idleness is
        read once per pass, so buckets that queued together (a rowmin
        and a rowmax bucket, say) are dispatched together."""
        idle = not self._inflight
        ready = [
            key for key, requests in self._buckets.items()
            if self._closed or idle or len(requests) >= self.policy.max_batch
        ]
        return [self._buckets.pop(key) for key in ready]

    def _dispatch(self, bucket: List[_Request]) -> None:
        # a bucket may outgrow ``max_batch`` between batcher passes
        # (submissions keep landing while earlier work holds the
        # executor); the cap bounds *execution* width, so oversized
        # buckets are split into max_batch-wide chunks here
        cap = self.policy.max_batch
        for i in range(0, len(bucket), cap):
            task = asyncio.get_running_loop().create_task(
                self._run_bucket(bucket[i:i + cap])
            )
            self._inflight.add(task)
            task.add_done_callback(self._settled)

    def _settled(self, task: asyncio.Task) -> None:
        self._inflight.discard(task)
        self._wakeup.set()  # the executor may be idle: dispatch what queued

    # -- execution ------------------------------------------------------ #
    def _expire(self, request: _Request, now: float) -> None:
        metrics().counter("serve.expired").inc()
        self._release_slot()
        if not request.future.done():
            request.future.set_exception(RequestExpiredError(
                f"deadline passed {now - request.expires:.6f}s before "
                f"execution (submitted at {request.arrival:.6f}, expired at "
                f"{request.expires:.6f})"
            ))

    def _reap(self, requests: List[_Request], now: float) -> List[_Request]:
        """Drop expired / abandoned requests; return the live ones."""
        live: List[_Request] = []
        for request in requests:
            if request.future.cancelled():
                metrics().counter("serve.cancelled").inc()
                self._release_slot()
            elif request.expired(now):
                self._expire(request, now)
            else:
                live.append(request)
        return live

    def _check_stable_keys(self, requests: List[_Request]) -> None:
        """The bucketing contract: what we grouped incrementally must be
        exactly what the planner would group in one ``solve_many`` call.
        Re-lower every plan, under the kernel tier it was planned with
        (the bucket runs outside the submitter's ``tier_context``), and
        require an identical fused key (and one shared key across the
        bucket)."""
        keys = {r.plan.fused_key for r in requests}
        if len(keys) != 1:
            raise AssertionError(
                f"bucket holds {len(keys)} distinct fused keys: {keys}"
            )
        for r in requests:
            with tier_context(r.plan.kernel):
                replanned = plan_query(
                    r.plan.problem, r.plan.data, r.plan.config,
                    self._session.backend, index=r.plan.index,
                )
            if replanned.fused_key != r.plan.fused_key:
                raise AssertionError(
                    f"fused key drifted between admission and execution for "
                    f"request {r.plan.index}: {r.plan.fused_key!r} -> "
                    f"{replanned.fused_key!r}; group_plans must be stable "
                    f"under repeated invocation (DESIGN.md §15)"
                )

    async def _run_bucket(self, requests: List[_Request]) -> None:
        m = metrics()
        async with self._exec_lock:
            # deadlines are checked *here* — a request may expire while
            # earlier buckets hold the executor
            now = self._clock.now()
            live = self._reap(requests, now)
            if not live:
                return
            queued = m.histogram("serve.queue_s")
            for request in live:
                queued.observe(now - request.arrival)
            try:
                self._check_stable_keys(live)
                plans = [r.plan for r in live]
                m.counter("serve.buckets").inc()
                m.histogram("serve.fusion_width").observe(len(live))
                results, groups = await self._executor.call(
                    lambda: run_plans(self._session, plans)
                )
            except Exception as exc:  # engine errors belong to the callers
                for request in live:
                    self._release_slot()
                    if not request.future.done():
                        request.future.set_exception(exc)
                return
        m.counter("serve.fused_requests").inc(
            sum(g["count"] for g in groups if g.get("fused"))
        )
        end = self._clock.now()
        for request, result in zip(live, results):
            self._session._record(request.plan, result)
            m.histogram("serve.latency_s").observe(end - request.arrival)
            m.counter("serve.completed").inc()
            self._release_slot()
            if not request.future.done():
                request.future.set_result(result)


# --------------------------------------------------------------------- #
# one-shot convenience
# --------------------------------------------------------------------- #
async def serve_solve(
    problem: str,
    data,
    backend: str = "auto",
    *,
    policy: Optional[ServiceConfig] = None,
    **overrides,
) -> SearchResult:
    """Spin a throwaway service for one query (mainly for smoke tests).

    Real deployments keep one :class:`QueryService` alive — fusion only
    pays off across many concurrent submitters."""
    service = QueryService(backend, policy=policy)
    async with service:
        return await service.solve(problem, data, **overrides)
