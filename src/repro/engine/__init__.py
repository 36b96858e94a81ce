"""The unified solver engine (DESIGN.md §8).

Layering: the :mod:`~repro.engine.registry` declares what can run where
(``(problem, backend)`` → :class:`SolverSpec` with capabilities and
Table-1.x bound predicates); an :class:`ExecutionConfig` says how to run
it; a :class:`Session` owns machines and per-query ledger sub-accounts;
every query returns a structured :class:`SearchResult` that still
unpacks as ``(values, witnesses)``.  Batches of queries go through
the plan → group → execute pipeline (DESIGN.md §9):
:meth:`Session.solve_many` lowers each query to a
:class:`~repro.engine.planner.QueryPlan`, groups compatible plans,
and :func:`repro.engine.lifecycle.run_plans` runs each bucket as one
fused stacked sweep or plan by plan, returning a
:class:`BatchResult` in input order.  :meth:`Session.prepare` is the
build-once entry: it returns a :class:`PreparedHandle` answering many
queries against one precomputed index (DESIGN.md §14).

Quick start::

    import repro

    result = repro.solve("rowmin", array)                 # CRCW PRAM
    values, cols = result                                  # tuple-compat
    result.rounds, result.snapshot                         # this query's cost

    from repro import ExecutionConfig, Session
    s = Session("hypercube")
    r = s.solve("tube_min", comp, config=ExecutionConfig(certify=True))
    r.certified, s.ledger                                  # verdict + totals
"""

from repro.engine.config import ROW_STRATEGIES, TUBE_STRATEGIES, ExecutionConfig
from repro.engine.machines import (
    backend_of,
    build_machine,
    charge_parallel,
    fresh_clone,
)
from repro.engine.registry import (
    BACKENDS,
    NETWORK_BACKENDS,
    PRAM_BACKENDS,
    PROBLEMS,
    CapabilityError,
    SolverRegistry,
    SolverSpec,
    register,
    registry,
)
from repro.engine.lifecycle import execute_bucket, run_plans
from repro.engine.planner import QueryPlan, group_plans, plan_query
from repro.engine.prepared import PreparedHandle, prepare
from repro.engine.result import BatchResult, SearchResult
from repro.engine.session import QueryRecord, Session, solve, solve_many

__all__ = [
    "solve",
    "solve_many",
    "prepare",
    "PreparedHandle",
    "Session",
    "QueryRecord",
    "QueryPlan",
    "plan_query",
    "group_plans",
    "execute_bucket",
    "run_plans",
    "BatchResult",
    "ExecutionConfig",
    "SearchResult",
    "SolverRegistry",
    "SolverSpec",
    "CapabilityError",
    "registry",
    "register",
    "backend_of",
    "build_machine",
    "fresh_clone",
    "charge_parallel",
    "PROBLEMS",
    "BACKENDS",
    "PRAM_BACKENDS",
    "NETWORK_BACKENDS",
    "ROW_STRATEGIES",
    "TUBE_STRATEGIES",
]
