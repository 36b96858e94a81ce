"""The kernel-tier registry — named execution tiers for the hot paths.

Tier selection used to be a process-global boolean (``REPRO_FAST_PATH``
in :mod:`repro.pram.fastpath`) that every layer consulted implicitly;
there was no place to hang a third kernel.  This module replaces the
boolean with a registry of named :class:`KernelTier` entries:

``reference``
    The round-by-round simulation — one Python-level round per charged
    round.  Slowest, and the ground truth the fused-kernel invariant is
    stated against.
``fused``
    The NumPy fast path (the old ``REPRO_FAST_PATH=1``): primitives
    compute with vectorized kernels while charging the ledger the exact
    reference charge sequence.
``blocked``
    Out-of-core variant of ``fused``: the grouped-extremum and
    staircase sweeps stream their candidate tensors through row tiles
    bounded by a byte budget (``tile_bytes`` /
    ``REPRO_TILE_BYTES``, default 64 MiB), so stacked tensors larger
    than RAM never materialize.  Charges, values, witnesses, traces,
    and certificates are bit-identical to ``fused`` and ``reference``.

Selection precedence (first match wins):

1. explicit ``ExecutionConfig.kernel_tier`` / ``kernel_tier(...)``
   context / ``set_kernel_tier(...)``;
2. ``REPRO_KERNEL_TIER`` environment variable (validated eagerly with a
   ``ValueError`` naming the variable);
3. the legacy ``REPRO_FAST_PATH`` variable via the deprecation shim in
   :mod:`repro.pram.fastpath` (``0``/``false``/``no`` → ``reference``,
   anything else → ``fused``; warns ``DeprecationWarning`` once);
4. the default, ``fused``.

When both environment variables are set they must agree on whether the
fused kernels are in play — ``REPRO_KERNEL_TIER`` wins when coherent,
and conflicting settings (e.g. ``REPRO_FAST_PATH=0`` with
``REPRO_KERNEL_TIER=fused``) raise a ``ValueError`` rather than
silently picking one.
"""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Tuple

from repro._util.env import env_choice, env_int

__all__ = [
    "KernelTier",
    "register_tier",
    "get_tier",
    "all_tiers",
    "current_tier",
    "current_tier_name",
    "fused_kernels_enabled",
    "set_kernel_tier",
    "kernel_tier",
    "resolve_kernel_tier",
    "resolve_tile_bytes",
    "set_tile_bytes",
    "tile_bytes_override",
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


_TIERS: Dict[str, KernelTier] = {}


def register_tier(tier: KernelTier) -> KernelTier:
    """Register (or replace) a tier under ``tier.name``."""
    _TIERS[tier.name] = tier
    return tier


def get_tier(name: str) -> KernelTier:
    """Look up a tier; ``ValueError`` lists the known names."""
    try:
        return _TIERS[name]
    except KeyError:
        raise ValueError(
            f"unknown kernel tier {name!r}; expected one of {tuple(_TIERS)}"
        ) from None


def all_tiers() -> Tuple[KernelTier, ...]:
    """Every registered tier, in registration order."""
    return tuple(_TIERS.values())


register_tier(
    KernelTier(
        name="reference",
        description="round-by-round simulation (ground truth)",
        fused=False,
        proximity=("fused", "blocked"),
    )
)
register_tier(
    KernelTier(
        name="fused",
        description="vectorized NumPy kernels with ledger charge replay",
        fused=True,
        proximity=("blocked", "reference"),
    )
)
register_tier(
    KernelTier(
        name="blocked",
        description="fused kernels streaming over byte-budgeted row tiles",
        fused=True,
        out_of_core=True,
        proximity=("fused", "reference"),
    )
)


# --------------------------------------------------------------------- #
# Active-tier resolution: explicit > REPRO_KERNEL_TIER > REPRO_FAST_PATH
# (deprecation shim) > "fused".
# --------------------------------------------------------------------- #

_UNSET = object()  # "not yet resolved from the environment"

_ACTIVE = _UNSET
_LEGACY_WARNED = False


def _env_tier() -> Optional[str]:
    return env_choice("REPRO_KERNEL_TIER", tuple(_TIERS))


def _env_legacy() -> Optional[str]:
    raw = os.environ.get("REPRO_FAST_PATH")
    if raw is None:
        return None
    return "reference" if raw in ("0", "false", "no") else "fused"


def _warn_legacy_once() -> None:
    global _LEGACY_WARNED
    if _LEGACY_WARNED:
        return
    _LEGACY_WARNED = True
    warnings.warn(
        "REPRO_FAST_PATH is deprecated; use REPRO_KERNEL_TIER=reference|"
        "fused|blocked (or ExecutionConfig.kernel_tier) instead",
        DeprecationWarning,
        stacklevel=3,
    )


def _resolve_env_tier() -> str:
    tier = _env_tier()
    legacy = _env_legacy()
    if tier is not None and legacy is not None:
        # Coherence: both set is fine only when they agree on whether
        # the fused kernels are in play.  REPRO_KERNEL_TIER wins when
        # coherent; a genuine conflict must fail loudly.
        if (legacy == "reference") != (tier == "reference"):
            raise ValueError(
                f"conflicting kernel selection: REPRO_KERNEL_TIER={tier!r} "
                f"but REPRO_FAST_PATH maps to {legacy!r}; unset "
                f"REPRO_FAST_PATH (deprecated) or make them agree"
            )
        return tier
    if tier is not None:
        return tier
    if legacy is not None:
        _warn_legacy_once()
        return legacy
    return "fused"


def current_tier_name() -> str:
    """The active tier's name (resolving the environment lazily)."""
    global _ACTIVE
    if _ACTIVE is _UNSET:
        _ACTIVE = _resolve_env_tier()
    return _ACTIVE


def current_tier() -> KernelTier:
    """The active :class:`KernelTier`."""
    return _TIERS[current_tier_name()]


def fused_kernels_enabled() -> bool:
    """True when primitives should use the fused wall-clock kernels.

    The registry-era spelling of the old ``fast_path_enabled()``: true
    for every tier whose ``fused`` flag is set (``fused``, ``blocked``),
    false only for ``reference``.
    """
    return current_tier().fused


def set_kernel_tier(name: str) -> str:
    """Activate a tier process-wide; returns the previous tier name."""
    tier = get_tier(name)
    global _ACTIVE
    prev = current_tier_name()
    _ACTIVE = tier.name
    return prev


@contextmanager
def kernel_tier(name: str) -> Iterator[None]:
    """Temporarily activate a tier."""
    prev = set_kernel_tier(name)
    try:
        yield
    finally:
        set_kernel_tier(prev)


def resolve_kernel_tier(requested: Optional[str]) -> str:
    """The effective tier name for one query.

    ``requested`` is ``ExecutionConfig.kernel_tier``: explicit values
    pass through (validated); ``None`` defers to the active tier (which
    itself lazily resolves ``REPRO_KERNEL_TIER`` / the legacy shim).
    """
    if requested is not None:
        return get_tier(requested).name
    return current_tier_name()


# --------------------------------------------------------------------- #
# Tile byte budget: explicit > set_tile_bytes override > REPRO_TILE_BYTES
# > DEFAULT_TILE_BYTES.
# --------------------------------------------------------------------- #

_TILE_ENV = _UNSET
_TILE_OVERRIDE: Optional[int] = None


def _env_tile_bytes() -> Optional[int]:
    return env_int(
        "REPRO_TILE_BYTES",
        requirement=(
            f"a positive integer byte budget for the blocked kernel tier "
            f"(e.g. REPRO_TILE_BYTES={DEFAULT_TILE_BYTES})"
        ),
        exclusive_minimum=0,
    )


def _default_tile_bytes() -> Optional[int]:
    global _TILE_ENV
    if _TILE_ENV is _UNSET:
        _TILE_ENV = _env_tile_bytes()
    return _TILE_ENV


def resolve_tile_bytes(requested: Optional[int] = None) -> int:
    """The effective blocked-tier tile budget in bytes.

    Precedence: explicit ``requested`` (``ExecutionConfig.tile_bytes``)
    > :func:`set_tile_bytes` override > ``REPRO_TILE_BYTES`` >
    ``DEFAULT_TILE_BYTES``.  Raises ``ValueError`` when the env value is
    set but malformed.
    """
    if requested is not None:
        value = int(requested)
        if value <= 0:
            raise ValueError(f"tile_bytes must be a positive integer, got {requested!r}")
        return value
    if _TILE_OVERRIDE is not None:
        return _TILE_OVERRIDE
    env = _default_tile_bytes()
    if env is not None:
        return env
    return DEFAULT_TILE_BYTES


def set_tile_bytes(nbytes: Optional[int]) -> Optional[int]:
    """Pin the tile budget programmatically (``None`` unpins); returns
    the previous pin."""
    global _TILE_OVERRIDE
    prev = _TILE_OVERRIDE
    if nbytes is None:
        _TILE_OVERRIDE = None
    else:
        value = int(nbytes)
        if value <= 0:
            raise ValueError(f"tile_bytes must be a positive integer, got {nbytes!r}")
        _TILE_OVERRIDE = value
    return prev


@contextmanager
def tile_bytes_override(nbytes: Optional[int]) -> Iterator[None]:
    """Temporarily pin the tile budget (tests, benches)."""
    prev = set_tile_bytes(nbytes)
    try:
        yield
    finally:
        set_tile_bytes(prev)


@contextmanager
def tier_context(
    tier: Optional[str] = None, tile_bytes: Optional[int] = None
) -> Iterator[str]:
    """Activate an (optional) tier and tile budget for one execution.

    ``None`` fields are no-ops — the active process-wide settings stay
    in force.  Yields the effective tier name, so callers can stamp it
    on spans and counters.  This is the one chokepoint the engine uses
    to scope ``ExecutionConfig.kernel_tier`` / ``tile_bytes`` to a query
    without leaking process-global state.
    """
    prev_tier = set_kernel_tier(tier) if tier is not None else None
    prev_tile = set_tile_bytes(tile_bytes) if tile_bytes is not None else _UNSET
    try:
        yield current_tier_name()
    finally:
        if prev_tier is not None:
            set_kernel_tier(prev_tier)
        if prev_tile is not _UNSET:
            set_tile_bytes(prev_tile)


def _reload_env_defaults() -> None:
    """Re-read the env variables and reset the warn-once latch (tests)."""
    global _ACTIVE, _TILE_ENV, _LEGACY_WARNED
    _ACTIVE = _UNSET
    _TILE_ENV = _UNSET
    _LEGACY_WARNED = False
