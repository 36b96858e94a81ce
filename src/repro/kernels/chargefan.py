"""Per-query ledger fan-out for fused batched sweeps.

:class:`ChargeFan` charges the ``fused`` tier's batched sweeps
(DESIGN.md §13).  It works on owner/width metadata, never on the
candidate values themselves.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["ChargeFan"]


class ChargeFan:
    """Per-query ledger fan-out for one fused batched sweep.

    The fused-kernel invariant extends across queries: a batched kernel
    may stack ``B`` same-shape queries and compute all results in one
    global pass, provided each query's sub-account receives **the exact
    charge sequence its own serial run would have issued**.  The batched
    ``sqrt``-recursion makes this possible because its row structure
    (sample strides, block sizes, recursion depth) is data-independent
    for same-shape inputs, so the global charge at every site decomposes
    into per-owner unit counts; this class performs that decomposition.

    ``ledgers[q]`` is query ``q``'s :class:`~repro.pram.ledger.CostLedger`
    sub-account.  ``crcw``/``budget`` reproduce the machine context the
    per-owner grouped-minimum strategy resolution needs.
    """

    def __init__(self, ledgers: Sequence, *, crcw: bool, budget: int) -> None:
        self.ledgers = list(ledgers)
        self.crcw = bool(crcw)
        self.budget = int(budget)

    def counts(self, owner: np.ndarray, weights=None) -> np.ndarray:
        """Per-owner unit totals: ``sum(weights)`` (or multiplicity) by owner."""
        owner = np.asarray(owner, dtype=np.int64)
        if weights is None:
            c = np.bincount(owner, minlength=len(self.ledgers))
        else:
            c = np.bincount(
                owner,
                weights=np.asarray(weights, dtype=np.float64),
                minlength=len(self.ledgers),
            )
        return np.rint(c).astype(np.int64)

    def charge(self, counts: np.ndarray, rounds: int = 1) -> None:
        """Charge each owner with a positive count ``rounds`` rounds at
        ``counts[q]`` processors — owners absent from a site charge
        nothing, exactly as their serial run would skip the branch."""
        for q in np.nonzero(counts)[0]:
            self.ledgers[int(q)].charge(rounds=rounds, processors=int(counts[q]))

    def grouped_min(self, widths: np.ndarray, group_owner: np.ndarray) -> None:
        """Replay one serial ``grouped_min(strategy="auto")`` per owner
        over that owner's own groups (``group_owner`` is nondecreasing —
        the batch layout keeps owners contiguous)."""
        from repro.pram.primitives import replay_grouped_min_charges

        widths = np.asarray(widths, dtype=np.int64)
        owner = np.asarray(group_owner, dtype=np.int64)
        if owner.size == 0:
            return
        change = np.nonzero(np.diff(owner))[0] + 1
        bounds = np.concatenate([[0], change, [owner.size]])
        for k in range(bounds.size - 1):
            lo, hi = int(bounds[k]), int(bounds[k + 1])
            replay_grouped_min_charges(
                self.ledgers[int(owner[lo])],
                widths[lo:hi],
                crcw=self.crcw,
                budget=self.budget,
            )
