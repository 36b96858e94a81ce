"""The shuffle-exchange network.

``2**dim`` nodes; node ``x`` has the *exchange* edge to ``x ^ 1`` and
the *shuffle* edge to ``σ(x)`` (cyclic left rotation of ``x``'s bits),
plus the reverse unshuffle.  Degree 3.

Normal-algorithm emulation: the shared state ``rot`` counts how many
shuffles the register file has undergone; bit ``d`` of a logical id
currently sits at bit position ``(d + rot) mod dim``.  A dimension-``d``
exchange shuffles (or unshuffles — whichever is the shorter cyclic
direction) until that bit reaches position 0, then uses the exchange
edge.  Descending-dimension normal algorithms pay 2 rounds per
dimension — the textbook constant slowdown; an access pattern that
jumps around pays its genuine rotation cost.
"""

from __future__ import annotations

import numpy as np

from repro.networks.topology import CubeLike

__all__ = ["ShuffleExchange"]


class ShuffleExchange(CubeLike):
    """Shuffle-exchange graph executing normal hypercube algorithms."""

    def __init__(self, dim: int, ledger=None) -> None:
        super().__init__(dim, ledger)
        self.rot = 0  # net left-rotations applied to the register file

    def rotation_cost(self, d: int) -> tuple[int, int]:
        """(rounds, signed rotation) to bring bit ``d`` to position 0."""
        if self.dim <= 1:
            return 0, 0
        left = (-d - self.rot) % self.dim   # additional shuffles
        right = (d + self.rot) % self.dim   # unshuffles instead
        if left <= right:
            return left, left
        return right, -right

    def _exchange(self, values: np.ndarray, d: int) -> np.ndarray:
        rounds, signed = self.rotation_cost(d)
        if rounds:
            self.charge(rounds=rounds)  # shuffle/unshuffle edge rounds
        self.rot = (self.rot + signed) % max(self.dim, 1)
        self.charge()  # the exchange-edge round
        return values[self.ids ^ (1 << d)]
