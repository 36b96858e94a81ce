"""Row minima of Monge arrays over arbitrary per-row windows.

A dispatcher over the paper's searching repertoire.  Input: an array in
the canonical *minima-of-Monge* orientation plus windows
``[lo[i], hi[i])``.  Rows are split into maximal runs by window motion:

- both bounds nondecreasing → the banded halving search
  (:func:`repro.core.banded.banded_row_minima_pram`);
- ``hi`` nonincreasing → group rows by equal ``lo`` and solve the
  groups as one batch of staircase-Monge instances (Theorem 2.3 —
  a nonincreasing prefix boundary *is* the staircase shape).

Every row falls into one of the two: a single row is a banded run.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro._util.validation import as_index_vector
from repro.core.banded import banded_row_minima_pram
from repro.core.staircase_pram import staircase_row_minima_batch
from repro.monge.arrays import SearchArray, as_search_array
from repro.pram.machine import Pram

__all__ = ["windowed_monge_row_minima"]


def windowed_monge_row_minima(
    pram: Pram, array, lo, hi
) -> Tuple[np.ndarray, np.ndarray]:
    """Leftmost minimum of row ``i`` over ``[lo[i], hi[i])``.

    ``array`` must be Monge (restricted leftmost minima nondecreasing on
    co-monotone windows).  Empty windows give ``(inf, -1)``.
    """
    a = as_search_array(array)
    m, n = a.shape
    lo = np.clip(as_index_vector(lo, "lo"), 0, n)
    hi = np.clip(as_index_vector(hi, "hi"), 0, n)
    if lo.shape != (m,) or hi.shape != (m,):
        raise ValueError(f"lo and hi must have shape ({m},)")
    vals = np.full(m, np.inf)
    cols = np.full(m, -1, dtype=np.int64)
    if m == 0 or n == 0:
        return vals, cols

    runs = _split_runs(lo, hi)
    for r0, r1, kind in runs:
        rows = np.arange(r0, r1)
        sub = _RowSlice(a, r0, r1 - r0)
        if kind == "banded":
            v, c = banded_row_minima_pram(pram, sub, lo[rows], hi[rows])
        else:
            v, c = _staircase_runs(pram, sub, lo[rows], hi[rows])
        vals[rows] = v
        cols[rows] = c
    return vals, cols


class _RowSlice(SearchArray):
    """A contiguous row-slice view of another array."""

    def __init__(self, base: SearchArray, r0: int, count: int) -> None:
        super().__init__((count, base.shape[1]))
        self.base = base
        self.r0 = r0

    def _eval(self, rows, cols):
        # this view's own eval has range-checked (or trusted) the indices
        return self.base.eval(self.r0 + rows, cols, checked=False)


def _split_runs(lo: np.ndarray, hi: np.ndarray):
    """Maximal row runs classified banded / staircase, tiling the rows
    in order.  A run from row ``i`` is banded when it is at least as long
    as the staircase run from ``i`` (so a single row is banded), else it
    is that staircase run, two rows or more."""
    m = lo.size
    runs = []
    i = 0
    while i < m:
        jb = i + 1  # banded run: lo and hi both nondecreasing
        while jb < m and lo[jb] >= lo[jb - 1] and hi[jb] >= hi[jb - 1]:
            jb += 1
        js = i + 1  # staircase run: hi nonincreasing (any lo)
        while js < m and hi[js] <= hi[js - 1]:
            js += 1
        if jb >= js:
            runs.append((i, jb, "banded"))
            i = jb
        else:
            runs.append((i, js, "staircase"))
            i = js
    return runs


def _staircase_runs(pram, sub: SearchArray, lo, hi):
    """Rows with nonincreasing ``hi``: batch staircase instances grouped
    by equal ``lo`` (each group's boundary is its prefix staircase)."""
    m, n = sub.shape
    change = np.nonzero(np.diff(lo))[0] + 1
    starts = np.concatenate([[0], change, [m]]).astype(np.int64)
    rs = starts[:-1]
    rcount = np.diff(starts)
    cs = lo[rs]
    ccount = np.maximum(0, n - cs)
    keep = (rcount > 0) & (ccount > 0)
    vals = np.full(m, np.inf)
    cols = np.full(m, -1, dtype=np.int64)
    if not keep.any():
        return vals, cols
    f = np.maximum(hi, 0)
    v, c = staircase_row_minima_batch(
        pram, sub, f, rs[keep], rcount[keep], cs[keep], ccount[keep]
    )
    owner = np.concatenate([np.arange(r, r + k) for r, k in zip(rs[keep], rcount[keep])])
    vals[owner] = v
    cols[owner] = c
    return vals, cols
