"""The evaluation chokepoint of the grouped-extremum sweeps.

Every core sweep shares the same three-step motif at its hot spot::

    values = arr.eval(rows_flat, cols_flat, checked=False)
    pram.charge_eval(values.size)
    gv, gi = grouped_min(pram, values, offsets)

:func:`eval_grouped_min` owns that motif, so every sweep's candidate
evaluation and grouped minimum pass through one call.  The ledger
receives ``charge_eval(total)`` followed by the ``grouped_min`` charges
of the tier in force, which the fused-kernel invariant makes identical
across tiers; the returned ``(values, argmin)`` pair is bit-identical
too (leftmost ties included).
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

__all__ = ["eval_grouped_min"]

# NOTE: repro.pram.primitives imports repro.kernels.registry at module
# scope, and importing any repro.kernels submodule runs this package's
# __init__ first — so primitives must be imported late, inside the
# function, to keep the package importable from either direction.


def eval_grouped_min(
    pram,
    evaluate: Callable[[int, int], np.ndarray],
    total: int,
    offsets: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Evaluate ``total`` flat candidates and take leftmost group minima.

    ``evaluate(lo, hi)`` returns candidate values for the half-open flat
    range ``[lo, hi)`` — the caller closes over its row/column index
    arrays; the chokepoint evaluates the whole range ``[0, total)`` at
    once.  ``offsets`` delimits the groups exactly as in
    :func:`~repro.pram.primitives.grouped_min`; returned ``argmin``
    indices are flat positions (``-1`` for empty/all-∞ groups).
    """
    from repro.pram.primitives import grouped_min

    values = evaluate(0, total)
    pram.charge_eval(values.size)
    return grouped_min(pram, values, offsets)
