"""The SMAWK algorithm of Aggarwal, Klawe, Moran, Shor, Wilber [AKM+87].

Computes the leftmost row minima of a *totally monotone* ``m×n`` array
in ``O(m + n)`` entry evaluations (``O(n (1 + lg(m/n)))`` when
``m < n``).  Every Monge array is totally monotone, so this is the
sequential baseline for Table 1.1 and the building block of the
sequential tube searcher.

Tie handling: values are compared lexicographically as
``(value, column)``, which is equivalent to an infinitesimal rightward
penalty; under Monge inputs this preserves total monotonicity and makes
the reported minima exactly the leftmost ones.

The implementation works on :class:`~repro.monge.arrays.SearchArray`
(never materializing the input) and is index-list based, following the
classic presentation: REDUCE prunes columns to at most the number of
rows, then the algorithm recurses on the odd-indexed rows and fills the
even rows by scanning between their neighbors' minima.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.monge.arrays import as_search_array, count_buffer_reads

__all__ = ["smawk", "row_minima", "row_maxima"]


def smawk(array) -> Tuple[np.ndarray, np.ndarray]:
    """Leftmost row minima of a totally monotone array.

    Returns ``(values, columns)``, each of length ``m``.

    The input must satisfy total monotonicity for minima (every Monge
    array does); this is *not* re-verified here (it costs ``O(mn)``) —
    use :func:`repro.monge.properties.is_totally_monotone_minima` in
    tests.
    """
    a = as_search_array(array)
    m, n = a.shape
    if m == 0:
        return np.empty(0), np.empty(0, dtype=np.int64)
    if n == 0:
        raise ValueError("cannot take row minima of a zero-column array")

    # Entry accessor.  Over a dense buffer (an ExplicitArray, or a chain
    # of orientation wrappers over one) read scalars from its strided
    # view and count them locally; anything else goes through ``eval``.
    buffer = a._buffer()
    count = 0
    if buffer is not None:
        view, sign, chain = buffer
        item = view.item

        def ev(i: int, j: int) -> float:
            nonlocal count
            count += 1
            return sign * item(i, j)
    else:
        def ev(i: int, j: int) -> float:
            return float(a.eval(np.array([i]), np.array([j]))[0])

    out_col = np.full(m, -1, dtype=np.int64)

    def solve(rows: list[int], cols: list[int]) -> None:
        if not rows:
            return
        # ---- REDUCE: prune to at most len(rows) live columns ---------- #
        if len(cols) > len(rows):
            stack: list[int] = []
            for c in cols:
                while stack:
                    r = rows[len(stack) - 1]
                    # column c lex-beats the stack top at row r?
                    if ev(r, stack[-1]) > ev(r, c):
                        stack.pop()
                    else:
                        break
                if len(stack) < len(rows):
                    stack.append(c)
            cols = stack
        # ---- recurse on odd rows -------------------------------------- #
        solve(rows[1::2], cols)
        # ---- fill even rows between neighbors' minima ------------------ #
        # position of each col in `cols` for bounding scans
        col_pos = {c: t for t, c in enumerate(cols)}
        lo = 0
        for idx in range(0, len(rows), 2):
            r = rows[idx]
            hi = col_pos[out_col[rows[idx + 1]]] if idx + 1 < len(rows) else len(cols) - 1
            best_v = np.inf
            best_c = -1
            for t in range(lo, hi + 1):
                v = ev(r, cols[t])
                if v < best_v:
                    best_v, best_c = v, cols[t]
            out_col[r] = best_c
            lo = hi
        # advance lower bounds for the *next* even rows via their
        # predecessors: handled by `lo = hi` above (positions monotone).

    try:
        solve(list(range(m)), list(range(n)))
    finally:
        # every array in the chain reads as if each entry went through eval
        if buffer is not None:
            count_buffer_reads(chain, count)

    rows_idx = np.arange(m)
    if buffer is not None and len(chain) == 1:
        values = view[rows_idx, out_col]  # a bare ExplicitArray: uncounted
    else:
        values = a.eval(rows_idx, out_col)
    return np.asarray(values, dtype=np.float64), out_col


def row_minima(array) -> Tuple[np.ndarray, np.ndarray]:
    """Leftmost row minima of a **Monge** array in ``O(m+n)`` evals.

    Alias of :func:`smawk`; named for discoverability next to
    :func:`row_maxima`.
    """
    return smawk(array)


def row_maxima(array) -> Tuple[np.ndarray, np.ndarray]:
    """Leftmost row maxima of an **inverse-Monge** array.

    The negated array is Monge, and leftmost minima of ``-A`` are
    leftmost maxima of ``A`` — the reduction noted in §1.2.
    ``Θ(m+n)`` evals; this is the routine behind the all-farthest-
    neighbors example of Figure 1.1.
    """
    a = as_search_array(array)
    values, cols = smawk(a.negate())
    return -values, cols
