"""One-shot submatrix (rectangle) maxima over a Monge array.

The ``submatrix_max`` problem takes an ``(array, (r0, r1), (c0, c1))``
triple — a search array plus one half-open query rectangle — and
returns the rectangle's maximum value together with its column-major
first maximizer ``[row, col]`` (max value, then leftmost column, then
topmost row; the same tie-break the brute-force oracle ``argmax`` over
the transposed block produces).

A submatrix of a Monge array is Monge, so the rectangle reduces to
leftmost row maxima of the sub-array (the Table 1.1 machinery —
:func:`repro.core.rowmin_pram._row_maxima_impl` on the PRAMs, the
SMAWK row-flip reduction sequentially) followed by one lexicographic
reduce across the rows, charged as a single parallel round.

This is the pay-per-rectangle path.  For many rectangles over one
array, :meth:`repro.engine.session.Session.prepare` builds the
precompute-once :class:`~repro.monge.index.MongeIndex` instead and
amortizes the build across queries (DESIGN.md §14).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.monge.arrays import as_search_array
from repro.monge.index import check_rectangle

__all__ = [
    "submatrix_max_pram",
    "submatrix_max_sequential",
    "monge_submatrix_maximum",
]


def _rectangle_args(data):
    """Unpack the ``(array, rows, cols)`` triple the family takes."""
    if not isinstance(data, (tuple, list)) or len(data) != 3:
        raise TypeError(
            "'submatrix_max' data must be an (array, (r0, r1), (c0, c1)) "
            "triple: the search array plus a half-open query rectangle"
        )
    return data[0], data[1], data[2]


def _reduce_row_maxima(vals: np.ndarray, cols: np.ndarray, r0: int, c0: int
                       ) -> Tuple[np.floating, np.ndarray]:
    """Fold per-row leftmost maxima into the rectangle's column-major
    first maximizer (max value → leftmost column → topmost row)."""
    best = vals.max()
    rows_at = np.flatnonzero(vals == best)
    j = int(np.argmin(cols[rows_at]))  # leftmost col; first hit = topmost row
    row = int(rows_at[j])
    col = int(cols[rows_at[j]])
    return np.float64(best), np.array([r0 + row, c0 + col], dtype=np.int64)


def submatrix_max_pram(machine, data) -> Tuple[np.floating, np.ndarray]:
    """Rectangle maximum on a simulated PRAM.

    Row maxima of the (Monge) sub-array via the Table 1.1 sampling
    recursion, then one reduce round across the ``h`` rows.
    """
    from repro.core.rowmin_pram import _row_maxima_impl

    array, rows, cols = _rectangle_args(data)
    a = as_search_array(array)
    r0, r1, c0, c1 = check_rectangle(a.shape, rows, cols)
    sub = a.submatrix(np.arange(r0, r1), np.arange(c0, c1))
    vals, argcols = _row_maxima_impl(machine, sub, strategy="sqrt")
    machine.charge(rounds=1, processors=max(1, r1 - r0))
    return _reduce_row_maxima(vals, argcols, r0, c0)


def submatrix_max_sequential(data) -> Tuple[np.floating, np.ndarray]:
    """Sequential rectangle maximum: SMAWK on the row-flipped sub-array
    (``O(h + w)`` evaluations) plus the lexicographic reduce."""
    from repro.monge.smawk import row_minima

    array, rows, cols = _rectangle_args(data)
    a = as_search_array(array)
    r0, r1, c0, c1 = check_rectangle(a.shape, rows, cols)
    sub = a.submatrix(np.arange(r0, r1), np.arange(c0, c1))
    # Monge row-flipped is inverse-Monge; its negation is Monge again and
    # leftmost minima in reversed row order are the leftmost maxima.
    mins, argcols = row_minima(sub.flip_rows().negate())
    return _reduce_row_maxima(-mins[::-1], argcols[::-1], r0, c0)


def monge_submatrix_maximum(array, rows, cols) -> Tuple[float, np.ndarray]:
    """Convenience front door: sequential rectangle maximum of a Monge
    array over half-open ``rows=(r0, r1)``, ``cols=(c0, c1)``."""
    return submatrix_max_sequential((array, rows, cols))
