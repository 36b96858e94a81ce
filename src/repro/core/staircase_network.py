"""Theorem 3.3: staircase-Monge row minima on hypercube-like networks.

The Theorem 2.3 algorithm run against a
:class:`~repro.core.network_machine.NetworkMachine`: Fig. 2.1 block
solves, the ANSV bracketing (executed as a segmented max scan over
``u²`` network slots), and all grouped minima move genuinely through
the chosen topology.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.rowmin_network import Topology, network_machine_for
from repro.core.staircase_pram import _staircase_minima_impl
from repro.monge.arrays import as_search_array
from repro.monge.staircase_seq import effective_boundary
from repro.pram.ledger import CostLedger

__all__ = ["staircase_row_minima_network"]


def staircase_row_minima_network(
    array, topology: Topology = "hypercube"
) -> Tuple[np.ndarray, np.ndarray, CostLedger]:
    """Leftmost row minima of a staircase-Monge array on a network.

    Returns ``(values, columns, ledger)``; all-``∞`` rows give
    ``(inf, -1)``.
    """
    m, n = as_search_array(array).shape
    effective_boundary(array)  # fail fast, before building the machine
    machine = network_machine_for(topology, max(m, n, 2))
    vals, cols = _staircase_minima_impl(machine, array)
    return vals, cols, machine.ledger
