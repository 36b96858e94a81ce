"""Kernel-tier registry and tier-dispatched hot-path kernels.

Tier selection, the tile byte budget, and the streaming
grouped-extremum chokepoint live here (DESIGN.md §13).  The legacy
boolean switch in :mod:`repro.pram.fastpath` is a deprecation shim over
this package.
"""

from repro.kernels.api import eval_grouped_min
from repro.kernels.chargefan import ChargeFan
from repro.kernels.registry import (
    DEFAULT_TILE_BYTES,
    KernelTier,
    all_tiers,
    current_tier,
    current_tier_name,
    fused_kernels_enabled,
    get_tier,
    kernel_tier,
    register_tier,
    resolve_kernel_tier,
    resolve_tile_bytes,
    set_kernel_tier,
    set_tile_bytes,
    tier_context,
    tile_bytes_override,
)

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
    "ChargeFan",
    "eval_grouped_min",
]
