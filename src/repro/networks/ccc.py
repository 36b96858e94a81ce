"""Cube-connected cycles (Preparata–Vuillemin).

A CCC of dimension ``d`` replaces each hypercube node with a ``d``-node
cycle; node ``(x, p)`` connects to its cycle neighbors ``(x, p±1)`` and
across the cube to ``(x ^ (1 << p), p)``.  Total degree 3.

Normal-algorithm emulation: logical hypercube node ``x``'s register is
held by cycle node ``(x, cursor)`` where ``cursor`` is shared emulation
state.  A dimension-``d`` exchange executes as

1. ``rotation`` rounds along cycle edges to bring every register to
   cycle position ``d`` (cyclic distance from the current cursor —
   one round each, both directions available), then
2. one cross-edge round.

Consecutive dimensions (the normal-algorithm access pattern) cost
``1 + 1 = 2`` rounds, the classic constant slowdown; arbitrary jumps
pay their genuine cyclic distance.  Every round is charged with
``dim · 2^dim`` processors — the CCC's true node count.
"""

from __future__ import annotations

import numpy as np

from repro.networks.topology import CubeLike

__all__ = ["CubeConnectedCycles"]


class CubeConnectedCycles(CubeLike):
    """CCC executing normal hypercube algorithms with tracked rotations."""

    def __init__(self, dim: int, ledger=None) -> None:
        super().__init__(dim, ledger)
        self.cursor = 0  # cycle position currently holding the registers
        self.nodes_per_logical = max(1, dim)

    def rotation_distance(self, d: int) -> int:
        """Cyclic distance from the cursor to position ``d``."""
        if self.dim <= 1:
            return 0
        fwd = (d - self.cursor) % self.dim
        back = (self.cursor - d) % self.dim
        return min(fwd, back)

    def _exchange(self, values: np.ndarray, d: int) -> np.ndarray:
        rot = self.rotation_distance(d)
        if rot:
            # registers travel along cycle edges, one position per round
            self.charge(rounds=rot)
        self.cursor = d
        self.charge()  # the cross-edge round
        return values[self.ids ^ (1 << d)]
