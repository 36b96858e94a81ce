"""Row extrema of Monge-type arrays restricted to monotone bands.

The applications of §1.3 repeatedly produce *banded* instances: each
row ``i`` may only use columns ``[lo[i], hi[i])`` where both ``lo`` and
``hi`` are nondecreasing.  A staircase-Monge array is the special case
``lo ≡ 0`` (and an ``∞``-region in place of a hard window); the
largest-rectangle reduction (§1.3 app 2), the empty-rectangle crossing
cases (app 1), and the visibility arcs of app 3 all produce genuine
two-sided bands.

Monotonicity survives banding: if the unrestricted leftmost row extrema
of a totally monotone array are nondecreasing, so are the leftmost
extrema restricted to monotone windows — for rows ``i < k`` with
restricted argmaxima ``q_i > q_k``, both columns lie inside both
windows (``q_k ≥ lo[k] ≥ lo[i]`` and ``q_i < hi[i] ≤ hi[k]``), so the
usual 2×2 exchange argument applies verbatim.  Hence the same
halving/sampling searches work with windows intersected in.

Provided here:

- :func:`banded_row_minima` / :func:`banded_row_maxima` — sequential
  divide-and-conquer, ``O((m + n + Σ window overlap) lg m)`` evals;
- :func:`banded_row_minima_pram` / :func:`banded_row_maxima_pram` —
  the halving scheme on a PRAM (or NetworkMachine) with windows.

Minima variants require the *Monge* orientation (leftmost minima
nondecreasing); maxima variants require *inverse-Monge*.  Empty windows
yield ``(inf, -1)`` / ``(-inf, -1)``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro._util.ragged import ragged
from repro._util.validation import as_index_vector
from repro.monge.arrays import as_search_array
from repro.pram.machine import Pram
from repro.pram.primitives import grouped_min

__all__ = [
    "banded_row_minima",
    "banded_row_maxima",
    "banded_row_minima_pram",
    "banded_row_maxima_pram",
]


def _check_band(m: int, n: int, lo, hi) -> Tuple[np.ndarray, np.ndarray]:
    lo = as_index_vector(lo, "lo")
    hi = as_index_vector(hi, "hi")
    if lo.shape != (m,) or hi.shape != (m,):
        raise ValueError(f"lo and hi must have shape ({m},)")
    if m and ((np.diff(lo) < 0).any() or (np.diff(hi) < 0).any()):
        raise ValueError("band boundaries must be nondecreasing")
    if m and (lo.min() < 0 or hi.max() > n):
        raise ValueError(f"band boundaries must lie within [0, {n}]")
    return lo, hi


def banded_row_minima(array, lo, hi) -> Tuple[np.ndarray, np.ndarray]:
    """Leftmost minima of row ``i`` over columns ``[lo[i], hi[i])``.

    Requires the Monge orientation (restricted leftmost minima
    nondecreasing).  Sequential divide and conquer.
    """
    a = as_search_array(array)
    m, n = a.shape
    lo, hi = _check_band(m, n, lo, hi)
    vals = np.full(m, np.inf)
    cols = np.full(m, -1, dtype=np.int64)

    def solve(r0: int, r1: int, c_lo: int, c_hi: int) -> None:
        """Rows [r0, r1); nonempty rows' extrema lie in [c_lo, c_hi]."""
        if r0 >= r1:
            return
        mid = (r0 + r1) // 2
        a_lo = max(lo[mid], c_lo)
        a_hi = min(hi[mid] - 1, c_hi)
        if a_lo <= a_hi:
            span = np.arange(a_lo, a_hi + 1)
            row_vals = a.eval(np.full(span.size, mid), span)
            k = int(np.argmin(row_vals))
            vals[mid] = row_vals[k]
            cols[mid] = a_lo + k
            solve(r0, mid, c_lo, cols[mid])
            solve(mid + 1, r1, cols[mid], c_hi)
        else:
            # mid's window is empty (a nonempty window always intersects
            # [c_lo, c_hi] by band monotonicity); bounds pass through.
            solve(r0, mid, c_lo, c_hi)
            solve(mid + 1, r1, c_lo, c_hi)

    solve(0, m, 0, max(0, n - 1))
    return vals, cols


def banded_row_maxima(array, lo, hi) -> Tuple[np.ndarray, np.ndarray]:
    """Leftmost maxima over monotone windows (inverse-Monge orientation)."""
    a = as_search_array(array)
    vals, cols = banded_row_minima(a.negate(), lo, hi)
    return np.where(cols >= 0, -vals, -np.inf), cols


def banded_row_minima_pram(
    pram: Pram, array, lo, hi
) -> Tuple[np.ndarray, np.ndarray]:
    """Parallel banded leftmost row minima (halving scheme).

    Same contract as :func:`banded_row_minima`; runs on any machine the
    Table 1.1 algorithms run on (PRAM models or a NetworkMachine).
    """
    a = as_search_array(array)
    m, n = a.shape
    lo, hi = _check_band(m, n, lo, hi)
    vals = np.full(m, np.inf)
    cols = np.full(m, -1, dtype=np.int64)
    if m == 0 or n == 0:
        return vals, cols

    stride = 1
    while stride * 2 < m:
        stride *= 2
    # the first level's rows (stride - 1, and m - 1 when m = 2·stride)
    # have no solved neighbors
    new_rows = np.arange(stride - 1, m, stride, dtype=np.int64)
    c_lo = np.zeros(new_rows.size, dtype=np.int64)
    c_hi = np.full(new_rows.size, n - 1, dtype=np.int64)
    while True:
        w_lo = np.maximum(c_lo, lo[new_rows])
        w_hi = np.minimum(c_hi, hi[new_rows] - 1)
        widths = np.maximum(0, w_hi - w_lo + 1)
        local, owner, offsets = ragged(widths)
        rows_flat = new_rows[owner]
        cols_flat = w_lo[owner] + local
        pram.charge(rounds=2, processors=max(1, widths.size))
        if cols_flat.size:
            values_flat = a.eval(rows_flat, cols_flat, checked=False)
            pram.charge_eval(values_flat.size)
            gv, gi = grouped_min(pram, values_flat, offsets)
            vals[new_rows] = gv
            take = gi >= 0
            cols[new_rows[take]] = cols_flat[gi[take]]
        pram.charge(rounds=1, processors=max(1, new_rows.size))
        stride //= 2
        if not stride:
            return vals, cols
        # every row at stride 2s is solved; the unsolved rows at stride s
        # sit halfway between two of them, at row ± s, whose witnesses
        # bound them (a neighbor with an empty window, witness -1, does not)
        new_rows = np.arange(stride - 1, m, 2 * stride, dtype=np.int64)
        below = new_rows + stride
        c_lo = np.where(new_rows >= stride, cols[new_rows - stride], -1)
        c_hi = np.where(below < m, cols[np.minimum(below, m - 1)], -1)
        c_lo = np.where(c_lo >= 0, c_lo, 0)
        c_hi = np.where(c_hi >= 0, c_hi, n - 1)


def banded_row_maxima_pram(pram: Pram, array, lo, hi) -> Tuple[np.ndarray, np.ndarray]:
    """Parallel banded leftmost row maxima (inverse-Monge orientation)."""
    a = as_search_array(array)
    vals, cols = banded_row_minima_pram(pram, a.negate(), lo, hi)
    return np.where(cols >= 0, -vals, -np.inf), cols
