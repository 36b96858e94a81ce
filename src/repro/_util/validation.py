"""Input validation helpers.

All public entry points of the library validate their inputs eagerly and
raise ``ValueError``/``TypeError`` with actionable messages; the helpers
here keep those checks terse at call sites.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

__all__ = [
    "require",
    "as_float_matrix",
    "as_float_tensor",
    "as_index_vector",
    "check_axis_lengths",
]


def require(condition: bool, message: str) -> None:
    """Raise ``ValueError(message)`` unless ``condition`` holds."""
    if not condition:
        raise ValueError(message)


def as_float_matrix(a: Any, name: str = "array") -> np.ndarray:
    """Coerce ``a`` to a 2-D C-contiguous float64 matrix.

    ``inf`` entries are allowed (staircase arrays use them); NaNs are
    rejected because every comparison-based search would silently
    misbehave on them.
    """
    arr = np.ascontiguousarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if arr.size and np.isnan(arr).any():
        raise ValueError(f"{name} contains NaN entries")
    return arr


def as_float_tensor(a: Any, name: str = "tensor") -> np.ndarray:
    """Coerce ``a`` to a 3-D C-contiguous float64 tensor.

    The 3-D analogue of :func:`as_float_matrix` for dense
    Monge-composite cubes: ``inf`` entries are allowed, NaNs are
    rejected (comparison-based searches silently misbehave on them).
    """
    arr = np.ascontiguousarray(a, dtype=np.float64)
    if arr.ndim != 3:
        raise ValueError(f"{name} must be 3-dimensional, got shape {arr.shape}")
    if arr.size and np.isnan(arr).any():
        raise ValueError(f"{name} contains NaN entries")
    return arr


def as_index_vector(x: Any, name: str) -> np.ndarray:
    """Coerce integer-typed ``x`` to int64; reject any other dtype.

    Offsets, positions and window bounds index into arrays, so a float,
    bool or string value must not be truncated into an index: a nonempty
    ``x`` whose dtype is not a signed or unsigned integer raises
    ``TypeError`` naming ``name``.  Python-int lists pass, and so does an
    empty list (it holds no value to truncate).  The shape is left to
    the caller.
    """
    arr = np.asarray(x)
    if arr.dtype.kind not in "iu" and arr.size:
        raise TypeError(f"{name} must hold integers, got dtype {arr.dtype}")
    return arr.astype(np.int64, copy=False)


def check_axis_lengths(*pairs: Sequence) -> None:
    """Check ``(actual, expected, label)`` triples, raising on mismatch."""
    for actual, expected, label in pairs:
        if actual != expected:
            raise ValueError(f"{label}: expected {expected}, got {actual}")
