"""Query planning and grouping: the *plan → group* half of the pipeline.

The engine executes every query in three stages (DESIGN.md §9):

**plan**
    :func:`plan_query` lowers one ``(problem, data, config)`` request to
    a declarative :class:`QueryPlan` — the registry spec, the resolved
    strategy, the shape class, the resolved kernel tier, and a *fused
    key* saying which batch bucket (if any) the query may share.

**group**
    :func:`group_plans` buckets compatible plans.  Plans with equal,
    non-``None`` fused keys execute as one stacked sweep on one machine
    allocation; everything else becomes a singleton bucket and runs
    through the unchanged serial path.

**execute**
    :meth:`repro.engine.session.Session.solve_many` walks the buckets.

Batch-compatibility rules
-------------------------
A plan is *fusable* (``fused_key is not None``) iff all of:

- the registry spec declares ``batchable`` (row-extremum family on the
  simulated PRAMs — their ``sqrt`` recursion has data-independent row
  structure, which makes per-query charge replay exact);
- the resolved strategy is ``"sqrt"`` (the ``halving`` ablation
  localizes rows between *neighbors'* minima, which would couple
  stacked queries across owner boundaries);
- a genuine 2-D shape with at least one row and column (edge shapes
  keep the serial error/empty contracts).

Two fusable plans share a bucket iff their keys agree: same problem,
backend, strategy, shape, :meth:`ExecutionConfig.fingerprint`, and
resolved kernel tier, so mixed-tier queries never fuse: one bucket runs
under exactly one kernel tier (DESIGN.md §13).  The tier is resolved
here, once per query — config, else the caller's
:func:`~repro.kernels.registry.tier_context`, else the environment —
and the lifecycle scopes it around the execution.  A query that names
the tier it would get by default therefore shares its bucket.
The lifecycle adds machine-level conditions at execution time (plain
:class:`~repro.pram.machine.Pram`, the ``fused`` kernel tier, unbounded
processor budget); a bucket that fails those simply runs serially —
grouping never changes results, only wall-clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from repro.engine.config import ExecutionConfig
from repro.engine.registry import SolverSpec
from repro.engine.registry import registry as _global_registry
from repro.kernels.registry import resolve_kernel_tier

__all__ = ["QueryPlan", "shape_of", "plan_query", "group_plans"]

#: Problems whose data is an ``(array, lo, hi)`` window triple.
_WINDOW_PROBLEMS = ("banded_min", "banded_max", "windowed_min")


def shape_of(problem: str, data) -> Tuple[int, ...]:
    """The problem-family shape key used for machine sizing, bounds, and
    batch grouping."""
    if problem.startswith("tube"):
        from repro.core.tube_pram import _as_composite

        return tuple(_as_composite(data).shape)
    from repro.monge.arrays import as_search_array

    if problem in _WINDOW_PROBLEMS:
        if not isinstance(data, (tuple, list)) or len(data) != 3:
            raise TypeError(
                f"{problem!r} data must be an (array, lo, hi) triple: the "
                "search array plus per-row column windows"
            )
        return tuple(as_search_array(data[0]).shape)
    if problem == "submatrix_max" and isinstance(data, (tuple, list)):
        # one-shot form: (array, (r0, r1), (c0, c1)); the shape key is
        # the full array's — the rectangle is query state, not shape
        # class.  A bare array (the prepare entry) falls through below.
        if len(data) != 3:
            raise TypeError(
                "'submatrix_max' data must be an (array, (r0, r1), (c0, c1)) "
                "triple: the search array plus a half-open query rectangle"
            )
        return tuple(as_search_array(data[0]).shape)
    return tuple(as_search_array(data).shape)


@dataclass
class QueryPlan:
    """One query lowered to its declarative execution plan."""

    index: int
    problem: str
    data: Any
    backend: str
    strategy: str
    shape: Tuple[int, ...]
    spec: SolverSpec
    config: ExecutionConfig
    #: The resolved kernel tier name the query runs under.
    kernel: str
    #: Batch-compatibility bucket key; ``None`` means "must run serially".
    fused_key: Optional[Tuple] = None


def _fused_key(
    spec: SolverSpec,
    strategy: str,
    shape: Tuple[int, ...],
    cfg: ExecutionConfig,
    kernel: str,
) -> Optional[Tuple]:
    """Apply the batch-compatibility rules (module docstring)."""
    if not spec.batchable:
        return None
    if strategy != "sqrt":
        return None
    if len(shape) != 2 or shape[0] < 1 or shape[1] < 1:
        return None
    return (spec.problem, spec.backend, strategy, shape, cfg.fingerprint(), kernel)


def plan_query(
    problem: str,
    data,
    cfg: ExecutionConfig,
    backend: str,
    *,
    index: int = 0,
    registry=None,
) -> QueryPlan:
    """Lower one query to a :class:`QueryPlan` (stage one of the pipeline).

    Raises :class:`~repro.engine.registry.CapabilityError` exactly where
    a serial :meth:`Session.solve` would: unknown pairs and undeclared
    strategies fail at plan time, before any machine is built.
    """
    reg = registry if registry is not None else _global_registry
    spec = reg.lookup(problem, backend)
    shape = shape_of(problem, data)
    strategy = cfg.resolve_strategy(problem, backend == "pram-crcw")
    spec.check_strategy(strategy)
    kernel = resolve_kernel_tier(cfg.kernel_tier)
    return QueryPlan(
        index=index,
        problem=problem,
        data=data,
        backend=backend,
        strategy=strategy,
        shape=shape,
        spec=spec,
        config=cfg,
        kernel=kernel,
        fused_key=_fused_key(spec, strategy, shape, cfg, kernel),
    )


def group_plans(plans: Sequence[QueryPlan]) -> List[List[QueryPlan]]:
    """Bucket plans for execution (stage two of the pipeline).

    Fusable plans with equal keys share one bucket, kept in first-
    appearance order; every unfusable plan is its own singleton bucket.
    Result order within a bucket follows input order, and
    :func:`~repro.engine.lifecycle.run_plans` reassembles results by
    argument position, so grouping never reorders results.

    **Stability contract (DESIGN.md §15).**  Grouping is stateless and
    deterministic: re-lowering the same ``(problem, data, config)``
    request under the same kernel tier always yields an identical fused
    key (the key is built purely from declarative plan fields — never
    from ``id()``\\ s, arrival order, or planner state), and calling
    this function repeatedly over interleaved arrivals partitions
    exactly as one all-at-once call would.  The query service depends
    on this to bucket *incrementally* as requests arrive: the fused key
    is the bucketing contract, and ``QueryService`` re-lowers each plan
    at flush time, under the plan's own kernel tier, and asserts the key
    unchanged (tests/test_engine_planner.py pins both properties).
    """
    buckets: List[List[QueryPlan]] = []
    by_key: dict = {}
    for plan in plans:
        if plan.fused_key is None:
            buckets.append([plan])
            continue
        slot = by_key.get(plan.fused_key)
        if slot is None:
            by_key[plan.fused_key] = len(buckets)
            buckets.append([plan])
        else:
            buckets[slot].append(plan)
    return buckets
