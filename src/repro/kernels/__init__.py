"""Kernel-tier registry and tier-dispatched hot-path kernels.

Tier selection, the tile byte budget, and the streaming
grouped-extremum chokepoint live here (DESIGN.md §13).
"""

from repro.kernels.api import eval_grouped_min
from repro.kernels.chargefan import ChargeFan
from repro.kernels.registry import (
    DEFAULT_TILE_BYTES,
    KernelTier,
    all_tiers,
    current_tier,
    get_tier,
    resolve_kernel_tier,
    resolve_tile_bytes,
    tier_context,
)

__all__ = [
    "KernelTier",
    "get_tier",
    "all_tiers",
    "current_tier",
    "resolve_kernel_tier",
    "resolve_tile_bytes",
    "tier_context",
    "DEFAULT_TILE_BYTES",
    "ChargeFan",
    "eval_grouped_min",
]
