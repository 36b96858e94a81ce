"""The kernel-tier registry — the two named execution tiers of the hot paths.

``reference``
    The round-by-round simulation — one Python-level round per charged
    round.  Slowest, and the ground truth the fused-kernel invariant is
    stated against.
``fused``
    The NumPy fast path: primitives compute with vectorized kernels
    while charging the ledger the exact reference charge sequence.

A tier is its name.  Selection precedence (first match wins):

1. ``ExecutionConfig.kernel_tier``;
2. the caller's :func:`tier_context` scope;
3. ``REPRO_KERNEL_TIER``, read once per process and validated with a
   ``ValueError`` naming the variable;
4. ``fused``.

The engine resolves the tier once per query, when it plans the query,
and its lifecycle scopes the resolved name around the execution with
:func:`tier_context`.  The scope lives in a :class:`~contextvars.ContextVar`,
so concurrent threads and asyncio tasks each see their own tier; no
query writes process-wide state.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, Optional

from repro._util.env import env_choice

__all__ = [
    "TIERS",
    "get_tier",
    "current_tier",
    "resolve_kernel_tier",
    "tier_context",
]

#: Every kernel tier, the reference simulation first.
TIERS = ("reference", "fused")


def get_tier(name: str) -> str:
    """Validate a tier name and return it; ``ValueError`` lists the
    known names."""
    if name not in TIERS:
        raise ValueError(f"unknown kernel tier {name!r}; expected one of {TIERS}")
    return name


# --------------------------------------------------------------------- #
# Environment default: read once per process (a malformed value raises
# on every resolution until it is fixed; exceptions are not cached).
# --------------------------------------------------------------------- #
@functools.lru_cache(maxsize=None)
def _env_tier() -> str:
    return env_choice("REPRO_KERNEL_TIER", TIERS) or "fused"


def _reload_env_defaults() -> None:
    """Forget the memoized environment default (tests that set it)."""
    _env_tier.cache_clear()


# --------------------------------------------------------------------- #
# The per-execution scope
# --------------------------------------------------------------------- #
#: The tier of the innermost :func:`tier_context` in this thread or
#: task; ``None`` outside every scope.
_SCOPE: ContextVar[Optional[str]] = ContextVar("repro_kernel_scope", default=None)


def current_tier() -> str:
    """The tier in force here: the innermost :func:`tier_context`, else
    ``REPRO_KERNEL_TIER``, else ``fused``."""
    scope = _SCOPE.get()
    return _env_tier() if scope is None else scope


def resolve_kernel_tier(requested: Optional[str]) -> str:
    """The effective tier name for one query.

    ``requested`` is ``ExecutionConfig.kernel_tier``: explicit values
    pass through (validated); ``None`` defers to :func:`current_tier`.
    """
    return current_tier() if requested is None else get_tier(requested)


@contextmanager
def tier_context(tier: Optional[str] = None) -> Iterator[str]:
    """Run a block under one kernel tier.

    ``None`` keeps the tier in force here (an enclosing scope, else the
    environment default).  Yields the effective tier name.  The engine
    enters it around every execution with the tier it resolved when it
    planned the query; callers of the core algorithms use it directly.
    The scope is context-local and reset by token on exit.
    """
    resolved = resolve_kernel_tier(tier)
    token = _SCOPE.set(resolved)
    try:
        yield resolved
    finally:
        _SCOPE.reset(token)
