"""Theorem 3.4: tube maxima/minima on an ``n²``-processor network.

The halving scheme of :mod:`repro.core.tube_pram` run against a
:class:`~repro.core.network_machine.NetworkMachine` whose topology has
``p·r`` logical nodes (the output grid, one cell per node — the
paper's ``n²``-processor hypercube).  Candidate windows chain
monotonically along the output columns, which is precisely the isotone
pattern Lemma 3.1's routing distributes; grouped minima execute as
segmented scans on the network.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.rowmin_network import Topology, network_machine_for
from repro.core.tube_pram import _tube_maxima_impl, _tube_minima_impl
from repro.monge.arrays import MongeComposite
from repro.pram.ledger import CostLedger

__all__ = ["tube_minima_network", "tube_maxima_network"]


def _run(body, composite, topology: Topology):
    """Run a tube body (halving scheme) on a fresh ``p·r``-node network."""
    if isinstance(composite, tuple):
        composite = MongeComposite(*composite)
    p, q, r = composite.shape
    machine = network_machine_for(topology, max(p * r, q, 2))
    vals, args = body(machine, composite, scheme="crew")
    return vals, args, machine.ledger


def tube_minima_network(
    composite, topology: Topology = "hypercube"
) -> Tuple[np.ndarray, np.ndarray, CostLedger]:
    """Tube minima on a ``p·r``-node network: ``(values, j_args, ledger)``."""
    return _run(_tube_minima_impl, composite, topology)


def tube_maxima_network(
    composite, topology: Topology = "hypercube"
) -> Tuple[np.ndarray, np.ndarray, CostLedger]:
    """Theorem 3.4's tube maxima on a network: ``(values, j_args, ledger)``."""
    return _run(_tube_maxima_impl, composite, topology)
