"""Kernel-tier registry and the grouped-extremum evaluation chokepoint.

Tier selection and the one chokepoint every grouped-extremum sweep
evaluates through live here (DESIGN.md §13).
"""

from repro.kernels.api import eval_grouped_min
from repro.kernels.chargefan import ChargeFan
from repro.kernels.registry import (
    TIERS,
    current_tier,
    get_tier,
    resolve_kernel_tier,
    tier_context,
)

__all__ = [
    "TIERS",
    "get_tier",
    "current_tier",
    "resolve_kernel_tier",
    "tier_context",
    "ChargeFan",
    "eval_grouped_min",
]
