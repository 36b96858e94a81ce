"""Shared machinery for hypercube-like networks.

All three §3 topologies expose the *normal-algorithm* interface: a
register array with one slot per (logical) hypercube node, and an
:meth:`~CubeLike.exchange` that swaps values across one hypercube
dimension.  The plain hypercube executes an exchange in one round; CCC
and shuffle-exchange execute it in a constant number of their own edge
rounds (cycle rotations / shuffles), tracked by per-instance emulation
state.  Primitives written against this interface therefore run — and
are costed — genuinely on all three networks, which is exactly the
sense of the paper's "hypercube, cube-connected cycles, and
shuffle-exchange" rows.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.pram.ledger import CostLedger

__all__ = ["CubeLike"]


class CubeLike:
    """Base: ``2**dim`` logical nodes addressed by hypercube ids.

    Subclasses implement :meth:`exchange` (and charge their genuine
    round counts through :meth:`charge`).
    """

    def __init__(self, dim: int, ledger: Optional[CostLedger] = None) -> None:
        if dim < 0 or dim > 30:
            raise ValueError(f"dim must be in [0, 30], got {dim}")
        self.dim = dim
        self.size = 1 << dim
        self.ids = np.arange(self.size, dtype=np.int64)
        self.ledger = ledger if ledger is not None else CostLedger()

    # -- required -------------------------------------------------------
    def exchange(self, values: np.ndarray, d: int) -> np.ndarray:
        """Every node receives its dimension-``d`` neighbor's value."""
        return self._exchange(self._check_register(values, d), d)

    def _exchange(self, values: np.ndarray, d: int) -> np.ndarray:
        """Topology-specific exchange (register already validated)."""
        raise NotImplementedError

    #: physical processors backing one logical node (CCC uses ``dim``).
    nodes_per_logical = 1

    # -- shared ---------------------------------------------------------
    def charge(self, rounds: int = 1, active: int | None = None) -> None:
        self.ledger.charge(
            rounds=rounds,
            processors=(self.size * self.nodes_per_logical) if active is None else active,
        )

    def _check_register(self, values: np.ndarray, d: int) -> np.ndarray:
        if self.dim == 0:
            raise ValueError("a 1-node network has no dimensions to exchange")
        if not 0 <= d < self.dim:
            raise ValueError(f"dimension {d} out of range for dim={self.dim}")
        values = np.asarray(values)
        if values.shape[0] != self.size:
            raise ValueError(
                f"register must have one slot per node ({self.size}), got {values.shape}"
            )
        return values

    def ascend(
        self,
        values: np.ndarray,
        combine: Callable[[int, np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    ) -> np.ndarray:
        """Normal algorithm, dimensions ``0 .. dim-1``:
        ``combine(d, local, received, ids) -> new local``."""
        values = np.asarray(values)
        for d in range(self.dim):
            received = self.exchange(values, d)
            values = combine(d, values, received, self.ids)
        return values

    def descend(self, values, combine) -> np.ndarray:
        """Normal algorithm, dimensions ``dim-1 .. 0``."""
        values = np.asarray(values)
        for d in range(self.dim - 1, -1, -1):
            received = self.exchange(values, d)
            values = combine(d, values, received, self.ids)
        return values

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(dim={self.dim}, size={self.size})"
