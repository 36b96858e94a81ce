"""Deprecation shim: the boolean fast-path switch, mapped onto kernel tiers.

The process-global boolean that used to live here grew into the kernel-
tier registry (:mod:`repro.kernels.registry`, DESIGN.md §13): named
tiers ``reference`` / ``fused`` / ``blocked``, selected via
``ExecutionConfig.kernel_tier`` or ``REPRO_KERNEL_TIER``.  This module keeps the legacy surface alive and
coherent:

- :func:`fast_path_enabled` → true for every fused-class tier;
- :func:`set_fast_path` / :func:`fast_path` map ``True`` → the
  ``fused`` tier and ``False`` → ``reference``.  The context manager
  saves and restores the exact tier *name*, so e.g. an active
  ``blocked`` tier survives a ``fast_path(False)`` round-trip;
- the ``REPRO_FAST_PATH`` environment variable still works (``0`` /
  ``false`` / ``no`` → ``reference``, else ``fused``) but emits one
  ``DeprecationWarning`` per process, and conflicting with
  ``REPRO_KERNEL_TIER`` raises (see the registry module docstring for
  the precedence table);
- :class:`~repro.kernels.chargefan.ChargeFan` is re-exported from its
  new home in :mod:`repro.kernels`.

The fused-kernel invariant itself is unchanged: a primitive may compute
with any vectorized kernel **provided it charges the ledger the exact
sequence of charges the reference (round-by-round) execution would
have issued** — ledger snapshots are bit-identical across tiers.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.kernels.chargefan import ChargeFan
from repro.kernels.registry import (
    current_tier,
    current_tier_name,
    set_kernel_tier,
)

__all__ = ["fast_path_enabled", "set_fast_path", "fast_path", "ChargeFan"]


def fast_path_enabled() -> bool:
    """True when primitives should use the fused wall-clock kernels.

    Deprecated spelling of
    :func:`repro.kernels.registry.fused_kernels_enabled`.
    """
    return current_tier().fused


def set_fast_path(enabled: bool) -> bool:
    """Set the global switch; returns the previous boolean value.

    ``True`` activates the ``fused`` tier unless a fused-class tier
    (``fused``/``blocked``) is already active; ``False``
    activates ``reference``.  Prefer
    :func:`repro.kernels.registry.set_kernel_tier`, which can name any
    tier.
    """
    prev = current_tier().fused
    if enabled:
        if not prev:
            set_kernel_tier("fused")
    else:
        set_kernel_tier("reference")
    return prev


@contextmanager
def fast_path(enabled: bool) -> Iterator[None]:
    """Temporarily force the fast path on or off.

    Restores the exact prior tier name on exit (not just the boolean),
    so nesting inside an active ``blocked`` tier round-trips.
    """
    prev = current_tier_name()
    set_fast_path(enabled)
    try:
        yield
    finally:
        set_kernel_tier(prev)
