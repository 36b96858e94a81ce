"""The staged query lifecycle: executors behind one interface.

A query moves through five stages (DESIGN.md §14): **plan** (lower the
request to a :class:`~repro.engine.planner.QueryPlan`), **admit** (each
:class:`Executor` inspects a bucket and claims it or passes), **group**
(:func:`~repro.engine.planner.group_plans` buckets compatible plans),
**execute** (the claiming executor runs the bucket), and **settle**
(merge sub-accounts, record the query).  The :class:`~repro.engine.session.Session`
owns machine construction and bookkeeping; *how* a bucket runs — serially, or as one fused stacked
sweep — is decided here, by walking :data:`EXECUTORS` in priority
order and taking the first executor whose :meth:`~Executor.admit`
accepts the bucket.

The two executors are ports of the former ``Session._execute_*``
branches and preserve their observable behavior bit-for-bit (values,
witnesses, per-query ledger snapshots, trace totals —
``tests/data/pre_refactor_snapshots.json`` pins this):

* :class:`SerialExecutor` — the unchanged per-query path: a private
  :class:`~repro.pram.ledger.CostLedger` sub-account per query, with
  certification and tracing applied inline and as stage wrappers
  (:func:`ledger_swap`, :class:`_SerialTrace`).
* :class:`FusedExecutor` — one stacked multi-query sweep per bucket,
  per-query charges replayed by a
  :class:`~repro.kernels.chargefan.ChargeFan`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import List, Optional, Tuple

from repro.engine.planner import QueryPlan, group_plans
from repro.engine.result import SearchResult
from repro.kernels.registry import tier_context
from repro.obs.metrics import metrics
from repro.obs.tracer import Tracer
from repro.pram.ledger import CostLedger

__all__ = [
    "Executor",
    "SerialExecutor",
    "FusedExecutor",
    "EXECUTORS",
    "SERIAL",
    "execute_bucket",
    "run_plans",
    "fused_ready",
    "ledger_swap",
]


# --------------------------------------------------------------------- #
# stage wrappers (tracing / ledger sub-accounts)
# --------------------------------------------------------------------- #
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


class _SerialTrace:
    """Tracing stage for the serial path: the solve span, bound to the
    query's sub-account, and the final :class:`Trace` assembly.  Every
    method is a no-op when tracing is off."""

    def __init__(self, plan: QueryPlan, backend: str, qledger) -> None:
        self.tracer = Tracer() if plan.config.trace else None
        self.qledger = qledger
        self.solve_span = None
        if self.tracer is not None:
            self.solve_span = self.tracer.begin(
                "solve",
                "solve",
                problem=plan.problem,
                backend=backend,
                strategy=plan.strategy,
                shape=plan.shape,
                kernel_tier=plan.kernel,
            )
            if qledger is not None:
                self.tracer.bind(qledger, self.solve_span)

    def unbind(self) -> None:
        if self.tracer is not None and self.qledger is not None:
            self.tracer.unbind(self.qledger)

    def finalize(self, certificate):
        if self.tracer is None:
            return None
        if certificate is not None:
            self.solve_span.attrs["certified"] = bool(certificate.ok)
            self.solve_span.attrs["certify_evals"] = int(certificate.evals)
        self.tracer.end(self.solve_span)
        return self.tracer.trace(self.solve_span)


# --------------------------------------------------------------------- #
# admission predicates (machine-level; plan-level ones live in planner)
# --------------------------------------------------------------------- #
def fused_ready(session, plan: QueryPlan) -> bool:
    """Machine-level fusion conditions.  A bucket that fails these runs
    serially — same results, same per-query snapshots, just no shared
    sweep."""
    from repro.pram.machine import Pram

    if plan.fused_key is None:
        return False
    if plan.kernel != "fused":
        # the reference tier has no stacked-sweep kernel: every query
        # runs its own round-by-round simulation
        return False
    nodes = plan.spec.nodes_for(plan.shape) if plan.spec.nodes_for is not None else 2
    machine = session.machine(nodes)
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


# --------------------------------------------------------------------- #
# the executor interface and its two implementations
# --------------------------------------------------------------------- #
class Executor:
    """One way to run a bucket of compatible plans.

    ``admit`` inspects a bucket and returns an admission dict (possibly
    empty) to claim it, or ``None`` to pass; ``execute`` runs a claimed
    bucket.  :func:`execute_bucket` walks :data:`EXECUTORS` in priority
    order and dispatches to the first claimant.
    """

    name = "executor"
    #: the ``fused`` flag of the group dict :func:`execute_bucket` returns
    fused = False

    def admit(self, session, bucket: List[QueryPlan]) -> Optional[dict]:
        raise NotImplementedError

    def execute(self, session, bucket: List[QueryPlan], admission: dict
                ) -> List[SearchResult]:
        raise NotImplementedError

    def on_success(self, bucket: List[QueryPlan]) -> None:
        """Per-executor metrics, bumped after a successful execution."""


class SerialExecutor(Executor):
    """The unchanged per-query path; admits every bucket (it is the
    chain's terminal executor) and runs each plan on its own ledger
    sub-account, certifying and tracing it when its config asks."""

    name = "serial"
    fused = False

    def admit(self, session, bucket: List[QueryPlan]) -> Optional[dict]:
        return {}

    def execute(self, session, bucket, admission) -> List[SearchResult]:
        return [self.execute_plan(session, plan) for plan in bucket]

    def execute_plan(self, session, plan: QueryPlan) -> SearchResult:
        """Run one plan serially and settle it into a SearchResult."""
        spec, cfg, data = plan.spec, plan.config, plan.data
        nodes = spec.nodes_for(plan.shape) if spec.nodes_for is not None else 2
        machine = session.machine(nodes)
        qledger = None
        if machine is not None:
            qledger = CostLedger(processor_limit=machine.ledger.processor_limit)
        tracing = _SerialTrace(plan, session.backend, qledger)

        certificate = None
        with ledger_swap(machine, qledger):
            try:
                with tier_context(plan.kernel):
                    values, witnesses = spec.fn(machine, data, cfg, plan.strategy)
                    if cfg.certify:
                        certificate = spec.certifier(data, values, witnesses)
                        certificate.require()
            finally:
                tracing.unbind()

        snapshot = qledger.snapshot() if qledger is not None else None
        if qledger is not None:
            session.ledger.merge(qledger)
        trace = tracing.finalize(certificate)

        return SearchResult(
            values=values,
            witnesses=witnesses,
            problem=plan.problem,
            backend=session.backend,
            strategy=plan.strategy,
            snapshot=snapshot,
            ledger=qledger,
            certificate=certificate,
            trace=trace,
        )


class FusedExecutor(Executor):
    """One stacked multi-query sweep per bucket.  Per-query ledgers are
    populated by a :class:`~repro.kernels.chargefan.ChargeFan` replaying
    each owner's serial charge sequence — snapshots come out
    bit-identical to the serial path's (tests/test_engine_batch.py pins
    this)."""

    name = "fused"
    fused = True

    def admit(self, session, bucket: List[QueryPlan]) -> Optional[dict]:
        if len(bucket) >= 2 and fused_ready(session, bucket[0]):
            return {}
        return None

    def on_success(self, bucket: List[QueryPlan]) -> None:
        metrics().counter("engine.batch.fused_queries").inc(len(bucket))

    def execute(self, session, bucket, admission) -> List[SearchResult]:
        from repro.core.rowmin_pram import batched_row_extrema
        from repro.kernels.chargefan import ChargeFan

        spec = bucket[0].spec
        cfg = bucket[0].config
        nodes = spec.nodes_for(bucket[0].shape) if spec.nodes_for is not None else 2
        machine = session.machine(nodes)
        limit = machine.ledger.processor_limit
        qledgers = [CostLedger(processor_limit=limit) for _ in bucket]
        fan = ChargeFan(
            qledgers, crcw=machine.model.is_crcw, budget=machine.processors
        )
        scratch = CostLedger(processor_limit=limit)

        # trace is part of the fusion fingerprint, so the whole bucket
        # agrees; the sweep's global charges land on a "stacked-sweep"
        # span while each owner's replayed charges land on its own solve
        # span — per-query totals stay bit-identical to the serial path.
        tracer = Tracer() if cfg.trace else None
        qspans: List = []
        if tracer is not None:
            bucket_span = tracer.begin(
                "bucket",
                "bucket",
                problem=spec.problem,
                backend=session.backend,
                strategy=bucket[0].strategy,
                shape=bucket[0].shape,
                count=len(bucket),
                fused=True,
                kernel_tier=bucket[0].kernel,
            )
            sweep_span = tracer.begin("stacked-sweep", "sweep", parent=bucket_span)
            tracer.bind(scratch, sweep_span)
            for plan, qledger in zip(bucket, qledgers):
                qspan = tracer.begin(
                    "solve",
                    "solve",
                    parent=bucket_span,
                    problem=plan.problem,
                    backend=session.backend,
                    strategy=plan.strategy,
                    shape=plan.shape,
                    fused=True,
                )
                tracer.bind(qledger, qspan)
                qspans.append(qspan)

        with ledger_swap(machine, scratch):
            try:
                with tier_context(bucket[0].kernel):
                    outs = batched_row_extrema(
                        machine,
                        [p.data for p in bucket],
                        problem=spec.problem,
                        fan=fan,
                    )
            finally:
                if tracer is not None:
                    tracer.unbind(scratch)
                    tracer.end(sweep_span)
                    for qledger, qspan in zip(qledgers, qspans):
                        tracer.unbind(qledger)
                        tracer.end(qspan)
                    tracer.end(bucket_span)

        certificates = _certify_bucket(spec, bucket, outs)

        results: List[SearchResult] = []
        for i, (plan, (values, witnesses), qledger, certificate) in enumerate(zip(
            bucket, outs, qledgers, certificates
        )):
            session.ledger.merge(qledger)
            trace = None
            if tracer is not None:
                if certificate is not None:
                    qspans[i].attrs["certified"] = bool(certificate.ok)
                    qspans[i].attrs["certify_evals"] = int(certificate.evals)
                trace = tracer.trace(qspans[i])
            results.append(_settle(session, plan, values, witnesses, qledger,
                                   certificate, trace))
        return results


def _certify_bucket(spec, bucket: List[QueryPlan], outs) -> List:
    """Compute every requested certificate first, then require() them —
    a failing query reports after all certificates exist (matches the
    pre-refactor two-loop behavior)."""
    certificates: List = []
    for plan, (values, witnesses) in zip(bucket, outs):
        if plan.config.certify:
            certificates.append(spec.certifier(plan.data, values, witnesses))
        else:
            certificates.append(None)
    for certificate in certificates:
        if certificate is not None:
            certificate.require()
    return certificates


def _settle(session, plan: QueryPlan, values, witnesses, qledger,
            certificate, trace) -> SearchResult:
    """The settle stage for fused results (the qledger is already
    merged by the caller, which interleaves merging with span reads)."""
    return SearchResult(
        values=values,
        witnesses=witnesses,
        problem=plan.problem,
        backend=session.backend,
        strategy=plan.strategy,
        snapshot=qledger.snapshot(),
        ledger=qledger,
        certificate=certificate,
        trace=trace,
    )


#: Priority-ordered executor chain; the terminal SerialExecutor admits
#: everything, so the walk in :func:`execute_bucket` always terminates.
SERIAL = SerialExecutor()
EXECUTORS: Tuple[Executor, ...] = (FusedExecutor(), SERIAL)


def execute_bucket(session, bucket: List[QueryPlan]
                   ) -> Tuple[List[SearchResult], dict]:
    """Run one bucket through the executor chain.

    Walks :data:`EXECUTORS` in priority order and dispatches to the
    first executor that admits the bucket.  Returns the results plus the
    group dict recording what actually ran (the ``fused`` flag).
    """
    for executor in EXECUTORS:
        admission = executor.admit(session, bucket)
        if admission is None:
            continue
        results = executor.execute(session, bucket, admission)
        executor.on_success(bucket)
        return results, {
            "problem": bucket[0].problem,
            "backend": session.backend,
            "strategy": bucket[0].strategy,
            "shape": bucket[0].shape,
            "count": len(bucket),
            "fused": executor.fused,
        }
    raise AssertionError("executor chain exhausted (SerialExecutor admits all)")


def run_plans(session, plans: List[QueryPlan]
              ) -> Tuple[List[SearchResult], List[dict]]:
    """Stages 2–4 for a batch: group the plans, walk the buckets through
    the executor chain, and return results (input order) plus the group
    dicts (bucket order).

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
