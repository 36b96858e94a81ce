"""Per-query ledger fan-out for fused batched sweeps.

:class:`ChargeFan` charges the ``fused`` tier's batched sweeps
(DESIGN.md §13).  It works on owner/width metadata, never on the
candidate values themselves.  Each charge site costs one vectorized
tally over the site's groups plus one Python step per owner that
receives a charge: a ``bincount`` gives every owner's unit count, and
one :func:`~repro.pram.primitives.replay_grouped_min_per_owner` pass
bills every owner's grouped minimum.
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
        """Per-owner unit totals: ``sum(weights)`` (or multiplicity) by
        owner, as int64.  ``owner`` and ``weights`` are int64; a
        ``bincount`` sums integer weights exactly in float64 below
        ``2**53``."""
        c = np.bincount(owner, weights, minlength=len(self.ledgers))
        return c if weights is None else c.astype(np.int64)

    def charge(self, counts: np.ndarray, rounds: int = 1) -> None:
        """Charge each owner with a positive count ``rounds`` rounds at
        ``counts[q]`` processors — owners absent from a site charge
        nothing, exactly as their serial run would skip the branch."""
        for ledger, count in zip(self.ledgers, counts.tolist()):
            if count:
                ledger.charge(rounds=rounds, processors=count)

    def grouped_min(self, widths: np.ndarray, group_owner: np.ndarray) -> None:
        """Replay one serial ``grouped_min(strategy="auto")`` per owner
        over that owner's own groups (``group_owner`` is nondecreasing —
        the batch layout keeps owners contiguous)."""
        # imported here: repro.pram.primitives imports this package
        from repro.pram.primitives import replay_grouped_min_per_owner

        replay_grouped_min_per_owner(
            self.ledgers, widths, group_owner, crcw=self.crcw, budget=self.budget
        )
