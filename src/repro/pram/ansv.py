"""All Nearest Smaller Values (ANSV) on the PRAM [BBG+89].

Given a vector ``x``, find for each position the nearest position to
its left (and to its right) holding a strictly smaller value.  Lemma
2.2 of the paper uses ANSV to compute the *bracketing* structure of the
sampled-row minima (minimum ``m1`` brackets ``m2`` when ``m1`` is
``m2``'s closest north-west neighbor), which drives processor
allocation for the feasible Monge regions of Figure 2.2.

Implementation: a sparse table of range minima (``⌈lg n⌉`` build
rounds) followed by a synchronized binary descent per element
(``⌈lg n⌉`` probe rounds).  All probes are concurrent reads — CREW-safe
— and every element's writes are exclusive.  Total ``O(lg n)`` rounds
with ``n`` processors, matching [BBG+89]'s time bound (their
work-optimal ``n/lg n``-processor refinement is not needed here: the
paper's Lemma 2.2 budget is ``m/lg m + n`` processors).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro._util.bits import ceil_log2
from repro._util.validation import as_index_vector
from repro.pram.machine import Pram

__all__ = [
    "all_nearest_smaller_values",
    "nearest_smaller_left",
    "nearest_smaller_right",
    "nearest_smaller_left_threshold",
]


def _sparse_table(pram: Pram, x: np.ndarray) -> list[np.ndarray]:
    """``table[k][i] = min(x[i : i + 2**k])`` — one round per level."""
    n = x.size
    table = [x.astype(np.float64)]
    k = 1
    while (1 << k) <= n:
        prev = table[-1]
        half = 1 << (k - 1)
        cur = np.minimum(prev[: n - 2 * half + 1], prev[half : n - half + 1])
        table.append(cur)
        pram.charge(rounds=1, processors=max(1, cur.size))
        k += 1
    return table


def nearest_smaller_left(pram: Pram, x: np.ndarray) -> np.ndarray:
    """Index of nearest strictly-smaller value to the left (-1 if none)."""
    x = np.asarray(x, dtype=np.float64)
    return nearest_smaller_left_threshold(pram, x, x, np.arange(x.size, dtype=np.int64))


def nearest_smaller_left_threshold(
    pram: Pram, x: np.ndarray, thresholds: np.ndarray, positions: np.ndarray
) -> np.ndarray:
    """For each query ``q``: largest ``j < positions[q]`` with
    ``x[j] < thresholds[q]`` (``-1`` if none).

    The classic ANSV is the special case ``thresholds = x``,
    ``positions = arange``.  The generalized form is what Lemma 2.2's
    *bracketing* needs: each feasible region looks left through the
    sampled minima for the nearest one strictly inside its column bound.

    ``O(lg n)`` rounds: a shared sparse table of range minima plus a
    per-query synchronized binary descent (concurrent reads — CREW-safe).
    """
    x = np.asarray(x, dtype=np.float64)
    thresholds = np.asarray(thresholds, dtype=np.float64)
    positions = as_index_vector(positions, "positions")
    if thresholds.shape != positions.shape:
        raise ValueError("thresholds and positions must have equal shape")
    if hasattr(pram, "network_nearest_smaller_left_threshold"):
        return pram.network_nearest_smaller_left_threshold(x, thresholds, positions)
    n = x.size
    nq = positions.size
    if n == 0 or nq == 0:
        return np.full(nq, -1, dtype=np.int64)
    if np.minimum.reduce(positions, axis=None) < 0 or np.maximum.reduce(positions, axis=None) > n:
        raise ValueError("query positions must lie in [0, len(x)]")
    table = _sparse_table(pram, x)
    K = ceil_log2(max(2, n))
    # Binary descent: maintain pos = candidate "rightmost index that may
    # still be the answer"; shrink by powers of two while the window
    # (pos-2^k, pos] contains no value < threshold.  That window is
    # exactly the sparse-table cell table[k][pos - 2^k + 1], one gather.
    pos = positions - 1
    target = thresholds
    for k in range(K, -1, -1):
        if k < len(table):  # a longer window starts left of index 0
            lo = pos - (1 << k) + 1
            jump = (lo >= 0) & (table[k].take(lo, mode="clip") >= target)
            pos = np.where(jump, lo - 1, pos)
        pram.charge(rounds=1, processors=max(n, nq))
    # Handle prefixes whose whole window lacked a smaller value.
    ok = pos >= 0
    bad = ok & (x[np.maximum(pos, 0)] >= target)
    # One more sweep: any residual position still >= target means none exists.
    while np.count_nonzero(bad):
        pos = np.where(bad, pos - 1, pos)
        ok = pos >= 0
        bad = ok & (x[np.maximum(pos, 0)] >= target)
        pram.charge(rounds=1, processors=int(np.count_nonzero(bad)) or 1)
    pram.charge(rounds=1, processors=max(1, nq))
    return np.where(pos >= 0, pos, -1).astype(np.int64)


def nearest_smaller_right(pram: Pram, x: np.ndarray) -> np.ndarray:
    """Index of nearest strictly-smaller value to the right (-1 if none)."""
    x = np.asarray(x, dtype=np.float64)
    rev = nearest_smaller_left(pram, x[::-1])
    n = x.size
    out = np.where(rev >= 0, n - 1 - rev, -1)
    return out[::-1].astype(np.int64)


def all_nearest_smaller_values(pram: Pram, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Both directions at once: ``(left, right)`` nearest-smaller indices."""
    return nearest_smaller_left(pram, x), nearest_smaller_right(pram, x)
