"""The kernel-tier registry — named execution tiers for the hot paths.

``reference``
    The round-by-round simulation — one Python-level round per charged
    round.  Slowest, and the ground truth the fused-kernel invariant is
    stated against.
``fused``
    The NumPy fast path: primitives compute with vectorized kernels
    while charging the ledger the exact reference charge sequence.
``blocked``
    Out-of-core variant of ``fused``: the grouped-extremum and
    staircase sweeps stream their candidate tensors through row tiles
    bounded by a byte budget (``tile_bytes`` /
    ``REPRO_TILE_BYTES``, default 64 MiB), so stacked tensors larger
    than RAM never materialize.  Charges, values, witnesses, traces,
    and certificates are bit-identical to ``fused`` and ``reference``.

Selection precedence for the ``(tier, tile_bytes)`` pair (first match
wins, per field):

1. ``ExecutionConfig.kernel_tier`` / ``ExecutionConfig.tile_bytes``;
2. the caller's :func:`tier_context` scope;
3. ``REPRO_KERNEL_TIER`` / ``REPRO_TILE_BYTES``, read once per process
   and validated with a ``ValueError`` naming the variable;
4. ``fused`` / :data:`DEFAULT_TILE_BYTES`.

The engine resolves the pair once per query, when it plans the query,
and its executors scope the resolved pair around the execution with
:func:`tier_context`.  The scope lives in a :class:`~contextvars.ContextVar`,
so concurrent threads and asyncio tasks each see their own tier; no
query writes process-wide state.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Tuple

from repro._util.env import env_choice, env_int

__all__ = [
    "KernelTier",
    "get_tier",
    "all_tiers",
    "current_tier",
    "resolve_kernel_tier",
    "resolve_tile_bytes",
    "tier_context",
    "DEFAULT_TILE_BYTES",
]

#: Default byte budget for one resident tile in the ``blocked`` tier.
DEFAULT_TILE_BYTES = 64 * 1024 * 1024


@dataclass(frozen=True)
class KernelTier:
    """One named execution tier.

    ``fused`` says whether primitives may use the vectorized fast-path
    kernels (with charge replay); ``out_of_core`` says whether the
    grouped-extremum chokepoint streams candidate tensors through
    byte-budgeted tiles instead of materializing them whole.
    """

    name: str
    description: str
    fused: bool
    out_of_core: bool = False
    #: Preference-ordered fallback suggestions for CapabilityErrors.
    proximity: Tuple[str, ...] = field(default=())


_TIERS: Dict[str, KernelTier] = {
    tier.name: tier
    for tier in (
        KernelTier(
            name="reference",
            description="round-by-round simulation (ground truth)",
            fused=False,
            proximity=("fused", "blocked"),
        ),
        KernelTier(
            name="fused",
            description="vectorized NumPy kernels with ledger charge replay",
            fused=True,
            proximity=("blocked", "reference"),
        ),
        KernelTier(
            name="blocked",
            description="fused kernels streaming over byte-budgeted row tiles",
            fused=True,
            out_of_core=True,
            proximity=("fused", "reference"),
        ),
    )
}


def get_tier(name: str) -> KernelTier:
    """Look up a tier; ``ValueError`` lists the known names."""
    try:
        return _TIERS[name]
    except KeyError:
        raise ValueError(
            f"unknown kernel tier {name!r}; expected one of {tuple(_TIERS)}"
        ) from None


def all_tiers() -> Tuple[KernelTier, ...]:
    """Every tier, from the reference simulation to the blocked kernels."""
    return tuple(_TIERS.values())


# --------------------------------------------------------------------- #
# Environment defaults: read once per process (a malformed value raises
# on every resolution until it is fixed; exceptions are not cached).
# --------------------------------------------------------------------- #
@functools.lru_cache(maxsize=None)
def _env_tier() -> KernelTier:
    return _TIERS[env_choice("REPRO_KERNEL_TIER", tuple(_TIERS)) or "fused"]


@functools.lru_cache(maxsize=None)
def _env_tile_bytes() -> int:
    value = env_int(
        "REPRO_TILE_BYTES",
        requirement=(
            f"a positive integer byte budget for the blocked kernel tier "
            f"(e.g. REPRO_TILE_BYTES={DEFAULT_TILE_BYTES})"
        ),
        exclusive_minimum=0,
    )
    return DEFAULT_TILE_BYTES if value is None else value


def _reload_env_defaults() -> None:
    """Forget the memoized environment defaults (tests that set them)."""
    _env_tier.cache_clear()
    _env_tile_bytes.cache_clear()


# --------------------------------------------------------------------- #
# The per-execution scope
# --------------------------------------------------------------------- #
#: ``(tier, tile_bytes)`` of the innermost :func:`tier_context` in this
#: thread or task; ``None`` outside every scope.
_SCOPE: ContextVar[Optional[Tuple[KernelTier, int]]] = ContextVar(
    "repro_kernel_scope", default=None
)


def current_tier() -> KernelTier:
    """The tier in force here: the innermost :func:`tier_context`, else
    ``REPRO_KERNEL_TIER``, else ``fused``."""
    scope = _SCOPE.get()
    return _env_tier() if scope is None else scope[0]


def resolve_kernel_tier(requested: Optional[str]) -> str:
    """The effective tier name for one query.

    ``requested`` is ``ExecutionConfig.kernel_tier``: explicit values
    pass through (validated); ``None`` defers to :func:`current_tier`.
    """
    if requested is not None:
        return get_tier(requested).name
    return current_tier().name


def resolve_tile_bytes(requested: Optional[int] = None) -> int:
    """The effective blocked-tier tile budget in bytes.

    Precedence: explicit ``requested`` (``ExecutionConfig.tile_bytes``)
    > the innermost :func:`tier_context` > ``REPRO_TILE_BYTES`` >
    ``DEFAULT_TILE_BYTES``.  Raises ``ValueError`` when ``requested`` is
    not positive or the env value is set but malformed.
    """
    if requested is not None:
        value = int(requested)
        if value <= 0:
            raise ValueError(f"tile_bytes must be a positive integer, got {requested!r}")
        return value
    scope = _SCOPE.get()
    return _env_tile_bytes() if scope is None else scope[1]


@contextmanager
def tier_context(
    tier: Optional[str] = None, tile_bytes: Optional[int] = None
) -> Iterator[str]:
    """Run a block under one ``(tier, tile_bytes)`` pair.

    ``None`` fields keep what is in force here (an enclosing scope, else
    the environment defaults).  Yields the effective tier name.  The
    engine enters it around every execution with the pair it resolved
    when it planned the query; callers of the core algorithms use it
    directly.  The scope is context-local and reset by token on exit.
    """
    resolved = get_tier(tier) if tier is not None else current_tier()
    token = _SCOPE.set((resolved, resolve_tile_bytes(tile_bytes)))
    try:
        yield resolved.name
    finally:
        _SCOPE.reset(token)
