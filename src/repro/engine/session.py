"""Sessions and the ``solve`` / ``solve_many`` front doors.

A :class:`Session` owns machine construction and reuse for one backend
and answers repeated :meth:`~Session.solve` calls.  Each query runs on a
private :class:`~repro.pram.ledger.CostLedger` sub-account (the session
swaps the machine's ledger in for the duration of the query and merges
the sub-account back afterwards), so callers get both the per-query
snapshot on the :class:`~repro.engine.result.SearchResult` and a running
session total on :attr:`Session.ledger`.

Queries execute through the staged lifecycle (DESIGN.md §14):
:func:`~repro.engine.planner.plan_query` lowers each request to a
declarative :class:`~repro.engine.planner.QueryPlan`,
:func:`~repro.engine.planner.group_plans` buckets compatible plans, and
:func:`repro.engine.lifecycle.run_plans` runs each bucket as one fused
sweep or plan by plan — the session itself never branches on *how* a
bucket runs.  :meth:`Session.solve` runs its one plan through
:func:`~repro.engine.lifecycle.execute_plan`, and
:meth:`Session.prepare` is the build-once entry of the precompute-once
path (:mod:`repro.engine.prepared`).

:func:`solve` / :func:`solve_many` are the one-shot module-level
entries: they resolve a backend (``"auto"`` picks the CRCW PRAM, the
Tables' best bounds), spin up a throwaway session, and return the
result(s).
"""

from __future__ import annotations

import operator
from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from repro.engine.config import ExecutionConfig
from repro.engine.lifecycle import execute_plan, run_plans
from repro.engine.machines import backend_of, build_machine
from repro.engine.planner import QueryPlan, plan_query
from repro.engine.registry import BACKENDS, CapabilityError, SolverSpec
from repro.engine.result import BatchResult, SearchResult
from repro.obs.metrics import metrics
from repro.pram.ledger import CostLedger

__all__ = ["Session", "QueryRecord", "solve", "solve_many"]


@dataclass
class QueryRecord:
    """One row of a session's query log."""

    index: int
    problem: str
    backend: str
    strategy: str
    shape: Tuple[int, ...]
    snapshot: Optional[dict]
    certified: Optional[bool]
    within_bound: bool


class Session:
    """A reusable solving context bound to one backend.

    Parameters
    ----------
    backend:
        An engine backend key (``"auto"`` resolves to ``"pram-crcw"``),
        or pass ``machine=`` to adopt an existing machine and infer the
        backend from it.
    processors, physical_processors, validate:
        Machine-construction knobs forwarded to
        :func:`repro.engine.machines.build_machine`.  A
        ``physical_processors`` budget yields a Brent-scheduled PRAM.
    config:
        Session-default :class:`ExecutionConfig` (per-query configs /
        keyword overrides derive from it).
    index_cache:
        How many prepared handles the session keeps (an int ``>= 0``;
        ``0`` keeps none).
    """

    def __init__(
        self,
        backend: str = "auto",
        *,
        machine=None,
        processors: Optional[int] = None,
        physical_processors: Optional[int] = None,
        validate: bool = False,
        config: Optional[ExecutionConfig] = None,
        index_cache: int = 8,
    ) -> None:
        if machine is not None:
            backend = backend_of(machine)
        elif backend == "auto":
            backend = "pram-crcw"
        if backend not in BACKENDS:
            raise CapabilityError(
                f"unknown backend {backend!r}; expected one of {BACKENDS} or 'auto'"
            )
        try:
            index_cache = operator.index(index_cache)
        except TypeError:
            raise TypeError(
                f"index_cache must be an int >= 0, got {index_cache!r}"
            ) from None
        if index_cache < 0:
            raise ValueError(f"index_cache must be an int >= 0, got {index_cache}")
        self.backend = backend
        self.config = config if config is not None else ExecutionConfig()
        self.processors = processors
        self.physical_processors = physical_processors
        self.validate = validate
        #: Session-lifetime aggregate of every query's sub-account.
        self.ledger = CostLedger()
        #: One :class:`QueryRecord` per completed query.
        self.queries: List[QueryRecord] = []
        #: LRU capacity for prepared handles (repro.engine.prepared).
        self.index_cache = index_cache
        self._prepared: "OrderedDict" = OrderedDict()
        self._machine = machine
        self._adopted = machine is not None

    # ------------------------------------------------------------------ #
    def machine(self, nodes: int = 2):
        """The session's machine, (re)built to cover ``nodes`` logical nodes.

        PRAM machines are unbounded by default and built once; network
        machines are rebuilt only when a query needs a larger cube
        dimension (growing preserves the session ledger — sub-accounts
        are swapped in per query regardless).  Sequential sessions have
        no machine (returns ``None``).
        """
        if self.backend == "sequential":
            return None
        if self._adopted:
            return self._machine
        if self._machine is not None and self.backend in ("pram-crcw", "pram-crew"):
            return self._machine
        if self._machine is not None and self._machine.network.size >= max(2, nodes):
            return self._machine
        self._machine = build_machine(
            self.backend,
            nodes,
            processors=self.processors,
            physical_processors=self.physical_processors,
            validate=self.validate,
            ledger=self.ledger,
        )
        return self._machine

    # ------------------------------------------------------------------ #
    def _capability_check(self, spec: SolverSpec, cfg: ExecutionConfig) -> None:
        if cfg.certify and spec.certifier is None:
            raise CapabilityError(
                f"({spec.problem}, {spec.backend}) declares no certifier; "
                "only the minima problems self-certify (certify.py derives "
                "its witnesses from leftmost-minimum structure)"
            )
        spec.check_kernel_tier(cfg.kernel_tier)

    def _derive_config(self, config, overrides) -> ExecutionConfig:
        cfg = config if config is not None else self.config
        if overrides:
            cfg = cfg.with_overrides(**overrides)
        return cfg

    # -- stage 1: plan -------------------------------------------------- #
    def _plan(self, problem: str, data, cfg: ExecutionConfig, index: int = 0) -> QueryPlan:
        plan = plan_query(problem, data, cfg, self.backend, index=index)
        self._capability_check(plan.spec, cfg)
        return plan

    # -- bookkeeping ----------------------------------------------------- #
    def _record(self, plan: QueryPlan, result: SearchResult) -> None:
        within_bound = plan.spec.within_bound(result.snapshot, plan.shape)
        self.queries.append(QueryRecord(
            index=len(self.queries),
            problem=plan.problem,
            backend=self.backend,
            strategy=plan.strategy,
            shape=plan.shape,
            snapshot=result.snapshot,
            certified=None if result.certificate is None else bool(result.certificate.ok),
            within_bound=within_bound,
        ))
        m = metrics()
        m.counter("engine.queries").inc()
        m.counter(f"kernel.tier.{plan.kernel}").inc()
        snap = result.snapshot
        if snap is not None:
            m.counter("engine.rounds").inc(snap["rounds"])
            m.counter("engine.work").inc(snap["work"])
            m.histogram("engine.rounds_per_query").observe(snap["rounds"])
        if result.certificate is not None:
            m.counter("engine.certified").inc(int(bool(result.certificate.ok)))
            m.counter("engine.certify_evals").inc(int(result.certificate.evals))
        if not within_bound:
            m.counter("engine.bound_violations").inc()

    # ------------------------------------------------------------------ #
    def solve(
        self,
        problem: str,
        data,
        config: Optional[ExecutionConfig] = None,
        **overrides,
    ) -> SearchResult:
        """Solve one query and return a :class:`SearchResult`.

        ``config`` (default: the session config) may be refined with
        keyword overrides, e.g. ``session.solve("rowmin", a,
        strategy="halving", certify=True)``.
        """
        cfg = self._derive_config(config, overrides)
        plan = self._plan(problem, data, cfg)
        result = execute_plan(self, plan)
        self._record(plan, result)
        return result

    def prepare(
        self,
        problem,
        data=None,
        config: Optional[ExecutionConfig] = None,
        **overrides,
    ):
        """Build a precompute-once index and return a query handle.

        Two calling forms::

            session.prepare("submatrix_max", array)
            session.prepare(array)            # problem defaults

        The handle's ``query((r0, r1), (c0, c1))`` answers half-open
        rectangle maxima against the built
        :class:`~repro.monge.index.MongeIndex`, charging the session
        ledger like any solve (see :mod:`repro.engine.prepared`).
        Handles are LRU-cached per session (``index_cache`` capacity);
        requires the registry pair to declare a ``prepare`` capability
        (:class:`CapabilityError` otherwise).
        """
        from repro.engine.prepared import prepare_handle

        if not isinstance(problem, str):
            if data is not None:
                raise TypeError(
                    "prepare(data) and prepare(problem, data) are the only "
                    "calling forms: the first argument must be a problem key "
                    "when data is passed separately"
                )
            problem, data = "submatrix_max", problem
        elif data is None:
            raise TypeError(
                "prepare(problem, data) requires the data argument when the "
                "first argument is a problem key"
            )
        cfg = self._derive_config(config, overrides)
        return prepare_handle(self, problem, data, cfg)

    def solve_many(
        self,
        problem: Union[str, Sequence],
        datas: Optional[Sequence] = None,
        config: Optional[ExecutionConfig] = None,
        **overrides,
    ) -> BatchResult:
        """Solve many queries through the plan → group → execute pipeline.

        Two calling forms::

            session.solve_many("rowmin", [a1, a2, ...])
            session.solve_many([("rowmin", a1), ("tube_min", comp), ...])

        Results come back in **input order** regardless of how the
        planner grouped the queries.  Same-shape row-extremum queries
        (``sqrt`` strategy) share one machine allocation and one fused
        stacked sweep; each result still carries its own ledger
        sub-account snapshot, bit-identical to what a serial
        :meth:`solve` would have charged.  Everything else — mixed
        shapes, staircase/tube problems, the ``halving`` strategy — runs
        through the serial path unchanged.
        """
        cfg = self._derive_config(config, overrides)
        if isinstance(problem, str):
            if datas is None:
                raise TypeError(
                    "solve_many(problem, datas) requires a sequence of data "
                    "arrays when the first argument is a problem key"
                )
            queries = [(problem, data, cfg) for data in datas]
        else:
            if datas is not None:
                raise TypeError(
                    "solve_many([...]) takes no separate datas argument: pass "
                    "(problem, data) pairs in the first argument"
                )
            queries = []
            for item in problem:
                if len(item) == 2:
                    qproblem, qdata = item
                    qcfg = cfg
                elif len(item) == 3:
                    qproblem, qdata, qcfg = item
                    if qcfg is None:
                        qcfg = cfg
                else:
                    raise TypeError(
                        "solve_many query items must be (problem, data) or "
                        "(problem, data, config) tuples"
                    )
                queries.append((qproblem, qdata, qcfg))

        plans = [
            self._plan(qproblem, qdata, qcfg, index=i)
            for i, (qproblem, qdata, qcfg) in enumerate(queries)
        ]
        results, groups = run_plans(self, plans)
        # the query log mirrors input order, not bucket order
        for plan in sorted(plans, key=lambda p: p.index):
            self._record(plan, results[plan.index])
        return BatchResult(results=list(results), groups=groups)


def solve(
    problem: str,
    data,
    backend: str = "auto",
    config: Optional[ExecutionConfig] = None,
    *,
    machine=None,
    **overrides,
) -> SearchResult:
    """One-shot front door: solve ``problem`` over ``data`` on ``backend``.

    Equivalent to ``Session(backend).solve(problem, data, config,
    **overrides)``; pass ``machine=`` to run on an existing machine (its
    model/topology decides the backend).
    """
    session = Session(backend, machine=machine)
    return session.solve(problem, data, config, **overrides)


def solve_many(
    problem: Union[str, Sequence],
    datas: Optional[Sequence] = None,
    backend: str = "auto",
    config: Optional[ExecutionConfig] = None,
    *,
    machine=None,
    **overrides,
) -> BatchResult:
    """One-shot batched front door (see :meth:`Session.solve_many`).

    ``repro.solve_many("rowmin", [a1, a2, ...])`` plans, groups, and
    executes the whole batch on a throwaway session and returns a
    :class:`~repro.engine.result.BatchResult` in input order.
    """
    session = Session(backend, machine=machine)
    return session.solve_many(problem, datas, config, **overrides)
