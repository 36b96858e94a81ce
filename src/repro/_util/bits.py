"""Integer/bit arithmetic helpers used by the simulators.

These are exact integer routines (no floating point) because processor
counts and hypercube dimensions must be computed without rounding error.
"""

from __future__ import annotations

import math

__all__ = [
    "ceil_div",
    "ceil_log2",
    "ceil_sqrt",
    "ceil_sqrt_array",
    "is_power_of_two",
    "next_power_of_two",
    "floor_log2",
    "iterated_log2",
]


def ceil_div(a: int, b: int) -> int:
    """Ceiling of ``a / b`` for nonnegative ``a`` and positive ``b``."""
    if b <= 0:
        raise ValueError(f"ceil_div requires positive divisor, got {b}")
    return -(-a // b)


def ceil_log2(n: int) -> int:
    """Smallest ``k`` with ``2**k >= n`` (``n >= 1``).

    ``ceil_log2(1) == 0``.  This is the number of doubling rounds a
    PRAM scan over ``n`` elements needs.
    """
    if n < 1:
        raise ValueError(f"ceil_log2 requires n >= 1, got {n}")
    return (n - 1).bit_length()


def floor_log2(n: int) -> int:
    """Largest ``k`` with ``2**k <= n`` (``n >= 1``)."""
    if n < 1:
        raise ValueError(f"floor_log2 requires n >= 1, got {n}")
    return n.bit_length() - 1


def ceil_sqrt(n: int) -> int:
    """Smallest integer ``s`` with ``s*s >= n`` (``n >= 0``)."""
    if n < 0:
        raise ValueError(f"ceil_sqrt requires n >= 0, got {n}")
    s = math.isqrt(n)
    return s if s * s == n else s + 1


def ceil_sqrt_array(x):
    """Elementwise :func:`ceil_sqrt` of a nonnegative int64 array.

    Exactness is restored from the float estimate by a ±1 correction,
    so results agree with the integer routine for every value the
    simulators produce (subproblem row counts, well below 2**52).
    """
    import numpy as np

    x = np.asarray(x, dtype=np.int64)
    if x.size and np.minimum.reduce(x, axis=None) < 0:
        raise ValueError("ceil_sqrt_array requires nonnegative entries")
    r = np.sqrt(x).astype(np.int64)
    r -= r * r > x  # now r == floor(sqrt(x))
    r += r * r < x
    return r


def is_power_of_two(n: int) -> bool:
    """True iff ``n`` is a positive power of two."""
    return n > 0 and (n & (n - 1)) == 0


def next_power_of_two(n: int) -> int:
    """Smallest power of two ``>= n`` (``n >= 1``)."""
    if n < 1:
        raise ValueError(f"next_power_of_two requires n >= 1, got {n}")
    return 1 << ceil_log2(n)


def iterated_log2(n: int) -> int:
    """Number of times ``lg`` must be applied to ``n`` before reaching <= 1.

    Matches the recursion depth of doubly-logarithmic algorithms.
    """
    if n < 1:
        raise ValueError(f"iterated_log2 requires n >= 1, got {n}")
    count = 0
    while n > 1:
        n = ceil_log2(n) if n > 2 else 1
        count += 1
    return count
