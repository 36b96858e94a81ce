"""The query lifecycle: from a plan to the algorithm, on a sub-account.

A query moves through four stages (DESIGN.md §14): **plan** (lower the
request to a :class:`~repro.engine.planner.QueryPlan`), **group**
(:func:`~repro.engine.planner.group_plans` buckets compatible plans),
**execute** (:func:`execute_bucket` runs a bucket as one fused stacked
sweep when it can, else plan by plan) and **settle** (snapshot each
query's sub-account, merge it into the session ledger, record the
query).  The :class:`~repro.engine.session.Session` owns machine
construction and bookkeeping; how a bucket runs is decided here, by one
condition.

Every query charges its own :class:`~repro.pram.ledger.CostLedger`
sub-account, and :class:`SubAccount` is the one step that opens, runs
and settles it.  Four paths use it: a serial solve
(:func:`execute_plan`), a fused bucket (:func:`execute_fused`: one per
owner plus the sweep's scratch ledger), and the prepared index's build
and query (:mod:`repro.engine.prepared`).  The fused path preserves
the serial path's observable behavior bit for bit (values, witnesses,
per-query ledger snapshots, trace totals —
``tests/data/pre_refactor_snapshots.json`` and
``tests/test_engine_batch.py`` pin this).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import List, Optional, Tuple

from repro.core import rowmin_pram
from repro.engine.planner import QueryPlan, group_plans
from repro.engine.result import SearchResult
from repro.kernels.chargefan import ChargeFan
from repro.kernels.registry import tier_context
from repro.obs.metrics import metrics
from repro.obs.tracer import Tracer
from repro.pram.ledger import CostLedger
from repro.pram.machine import Pram

__all__ = [
    "SubAccount",
    "execute_plan",
    "execute_fused",
    "execute_bucket",
    "run_plans",
    "fused_ready",
    "ledger_swap",
]


@contextmanager
def ledger_swap(machine, qledger):
    """Swap a machine's ledger for a query sub-account.

    Covers the network ledger too (cube machines charge through it);
    restores the saved ledger(s) on exit, success or not.  A ``None``
    machine (sequential backend) is a no-op.
    """
    if machine is None:
        yield
        return
    saved = machine.ledger
    machine.ledger = qledger
    has_net = hasattr(machine, "network")
    if has_net:
        saved_net = machine.network.ledger
        machine.network.ledger = qledger
    try:
        yield
    finally:
        machine.ledger = saved
        if has_net:
            machine.network.ledger = saved_net


class SubAccount:
    """One query's ledger sub-account on the session machine.

    Construction builds the sub-ledger with the machine's processor
    budget and, when tracing, binds it to ``span``; :meth:`run` swaps it
    into the machine under the query's kernel tier, then unbinds and
    ends the span; :meth:`settle` snapshots it and merges it into the
    session ledger, and :meth:`result` does so for a query that returns
    a :class:`~repro.engine.result.SearchResult`.  The caller builds
    ``tracer`` and ``span`` only when the query traces, so an untraced
    query pays for no span.  A ``None`` machine (sequential backend) has
    no sub-ledger.
    """

    __slots__ = ("machine", "ledger", "tracer", "span")

    def __init__(self, machine, tracer: Optional[Tracer] = None, span=None) -> None:
        self.machine = machine
        self.tracer = tracer
        self.span = span
        ledger = None
        if machine is not None:
            ledger = CostLedger(processor_limit=machine.ledger.processor_limit)
            if tracer is not None:
                tracer.bind(ledger, span)
        self.ledger = ledger

    def run(self, tier: Optional[str], fn, *args):
        """``fn(*args)`` charged to this sub-account, under kernel tier
        ``tier`` (``None`` keeps the tier in force).  The span is closed
        whether ``fn`` returns or raises."""
        try:
            with ledger_swap(self.machine, self.ledger):
                if tier is None:
                    return fn(*args)
                with tier_context(tier):
                    return fn(*args)
        finally:
            if self.tracer is not None:
                self.close()

    def close(self) -> None:
        """Unbind the span from the sub-ledger and end it; tracing only."""
        if self.ledger is not None:
            self.tracer.unbind(self.ledger)
        self.tracer.end(self.span)

    def settle(self, session) -> Optional[dict]:
        """Snapshot the sub-account and merge it into the session ledger."""
        ledger = self.ledger
        if ledger is None:
            return None
        snapshot = ledger.snapshot()
        session.ledger.merge(ledger)
        return snapshot

    def result(self, session, problem: str, strategy: str, values, witnesses,
               certificate=None) -> SearchResult:
        """Settle the query into its :class:`SearchResult`; when tracing,
        the span records the certificate's verdict."""
        snapshot = self.settle(session)
        trace = None
        if self.tracer is not None:
            if certificate is not None:
                self.span.attrs["certified"] = bool(certificate.ok)
                self.span.attrs["certify_evals"] = int(certificate.evals)
            trace = self.tracer.trace(self.span)
        return SearchResult(
            values=values,
            witnesses=witnesses,
            problem=problem,
            backend=session.backend,
            strategy=strategy,
            snapshot=snapshot,
            ledger=self.ledger,
            certificate=certificate,
            trace=trace,
        )


# --------------------------------------------------------------------- #
# the serial path
# --------------------------------------------------------------------- #
def _solve(machine, plan: QueryPlan):
    """The registered solver, then the certificate when the config asks
    for one: a failing certificate raises before the sub-account merges."""
    values, witnesses = plan.spec.fn(machine, plan.data, plan.config, plan.strategy)
    certificate = None
    if plan.config.certify:
        certificate = plan.spec.certifier(plan.data, values, witnesses)
        certificate.require()
    return values, witnesses, certificate


def execute_plan(session, plan: QueryPlan) -> SearchResult:
    """Run one plan on its own sub-account and settle it."""
    machine = session.machine(plan.spec.nodes(plan.shape))
    tracer = span = None
    if plan.config.trace:
        tracer = Tracer()
        span = tracer.begin(
            "solve",
            "solve",
            problem=plan.problem,
            backend=session.backend,
            strategy=plan.strategy,
            shape=plan.shape,
            kernel_tier=plan.kernel,
        )
    account = SubAccount(machine, tracer, span)
    values, witnesses, certificate = account.run(plan.kernel, _solve, machine, plan)
    return account.result(session, plan.problem, plan.strategy, values, witnesses,
                          certificate)


# --------------------------------------------------------------------- #
# the fused path
# --------------------------------------------------------------------- #
def fused_ready(session, plan: QueryPlan) -> bool:
    """Machine-level fusion conditions.  A bucket that fails these runs
    serially — same results, same per-query snapshots, just no shared
    sweep."""
    if plan.fused_key is None:
        return False
    if plan.kernel != "fused":
        # the reference tier has no stacked-sweep kernel: every query
        # runs its own round-by-round simulation
        return False
    machine = session.machine(plan.spec.nodes(plan.shape))
    if machine is None or type(machine) is not Pram:
        # Brent machines time-slice charges and NetworkMachines execute
        # genuinely on the network — both stay per-query.
        return False
    if machine.ledger.processor_limit is not None or machine.processors < (1 << 40):
        # fused sweeps charge global (summed) sizes against the
        # throwaway ledger; a bounded budget could reject a batch whose
        # individual queries all fit.
        return False
    return True


def execute_fused(session, bucket: List[QueryPlan]) -> List[SearchResult]:
    """One stacked multi-query sweep for a whole bucket.

    The sweep charges its global (summed) sizes to a scratch
    sub-account that never merges; a
    :class:`~repro.kernels.chargefan.ChargeFan` replays each owner's
    serial charge sequence into that owner's own sub-account, so every
    snapshot comes out bit-identical to the serial path's.
    """
    first = bucket[0]
    spec = first.spec
    machine = session.machine(spec.nodes(first.shape))
    # trace is part of the fusion fingerprint, so the whole bucket
    # agrees; the sweep's global charges land on a "stacked-sweep" span
    # while each owner's replayed charges land on its own solve span.
    tracer = bucket_span = sweep_span = None
    owner_spans = [None] * len(bucket)
    if first.config.trace:
        tracer = Tracer()
        bucket_span = tracer.begin(
            "bucket",
            "bucket",
            problem=spec.problem,
            backend=session.backend,
            strategy=first.strategy,
            shape=first.shape,
            count=len(bucket),
            fused=True,
            kernel_tier=first.kernel,
        )
        sweep_span = tracer.begin("stacked-sweep", "sweep", parent=bucket_span)
        owner_spans = [
            tracer.begin(
                "solve",
                "solve",
                parent=bucket_span,
                problem=plan.problem,
                backend=session.backend,
                strategy=plan.strategy,
                shape=plan.shape,
                fused=True,
            )
            for plan in bucket
        ]
    scratch = SubAccount(machine, tracer, sweep_span)
    owners = [SubAccount(machine, tracer, span) for span in owner_spans]
    fan = ChargeFan(
        [owner.ledger for owner in owners],
        crcw=machine.model.is_crcw,
        budget=machine.processors,
    )
    try:
        # looked up at call time: tools that time the sweep patch the
        # module attribute
        outs = scratch.run(first.kernel, rowmin_pram.batched_row_extrema,
                           machine, [p.data for p in bucket], spec.problem, fan)
    finally:
        if tracer is not None:
            for owner in owners:
                owner.close()
            tracer.end(bucket_span)

    # every requested certificate exists before the first one raises
    certificates = [
        spec.certifier(plan.data, values, witnesses) if plan.config.certify else None
        for plan, (values, witnesses) in zip(bucket, outs)
    ]
    for certificate in certificates:
        if certificate is not None:
            certificate.require()
    return [
        owner.result(session, plan.problem, plan.strategy, values, witnesses, certificate)
        for plan, (values, witnesses), owner, certificate
        in zip(bucket, outs, owners, certificates)
    ]


# --------------------------------------------------------------------- #
# buckets and batches
# --------------------------------------------------------------------- #
def execute_bucket(session, bucket: List[QueryPlan]
                   ) -> Tuple[List[SearchResult], dict]:
    """Run one bucket: as one fused stacked sweep when it holds at least
    two plans and :func:`fused_ready` admits its machine, else plan by
    plan.  Returns the results plus the group dict recording what ran
    (the ``fused`` flag).
    """
    fused = len(bucket) >= 2 and fused_ready(session, bucket[0])
    if fused:
        results = execute_fused(session, bucket)
        metrics().counter("engine.batch.fused_queries").inc(len(bucket))
    else:
        results = [execute_plan(session, plan) for plan in bucket]
    return results, {
        "problem": bucket[0].problem,
        "backend": session.backend,
        "strategy": bucket[0].strategy,
        "shape": bucket[0].shape,
        "count": len(bucket),
        "fused": fused,
    }


def run_plans(session, plans: List[QueryPlan]
              ) -> Tuple[List[SearchResult], List[dict]]:
    """Group and execute a batch: bucket the plans, run each bucket with
    :func:`execute_bucket`, and return results (input order) plus the
    group dicts (bucket order).

    ``plans`` may carry *any* distinct indices — results are reassembled
    by each plan's **position in the argument list**, not by
    ``plan.index``.  The pre-serve implementation assumed buckets are
    built once per ``solve_many`` call with contiguous ``0..n-1``
    indices; the query service violates that (it plans each request at
    admission with a service-lifetime sequence number and flushes
    arbitrary subsets per window), so the assumption is gone and
    tests/test_engine_planner.py pins the interleaved-arrival case.
    """
    position = {id(plan): i for i, plan in enumerate(plans)}
    buckets = group_plans(plans)
    m = metrics()
    m.counter("engine.batch.calls").inc()
    m.counter("engine.batch.queries").inc(len(plans))
    results: List[Optional[SearchResult]] = [None] * len(plans)
    groups: List[dict] = []
    for bucket in buckets:
        outs, group = execute_bucket(session, bucket)
        for plan, result in zip(bucket, outs):
            results[position[id(plan)]] = result
        groups.append(group)
    return results, groups
