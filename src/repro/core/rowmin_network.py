"""Theorem 3.2: Monge row maxima/minima on hypercube-like networks.

Public wrappers that build a :class:`~repro.core.network_machine.NetworkMachine`
over the requested topology and run the §2 algorithms against it.  The
ledger then reports genuine network rounds: scans, grouped minima, and
result concentration execute via exchange rounds on the topology
(constant-factor slower on CCC and shuffle-exchange, per their normal-
algorithm emulations), and candidate distribution is charged per the
Lemma 3.1 isotone-routing schedule.

The extended abstract omits the proofs of Theorems 3.2–3.4; our
measured bounds are ``O(lg² n)``-shaped (each of the ``O(lg n)``
recursion levels pays ``O(lg n)`` network rounds for its scans/routes)
— the stated ``O(lg n lg lg n)`` would need the sub-hypercube pipelining
the abstract defers to the full version.  EXPERIMENTS.md reports both
normalizations.
"""

from __future__ import annotations

from typing import Literal, Tuple

import numpy as np

from repro._util.bits import ceil_log2
from repro.core.network_machine import NetworkMachine
from repro.core.rowmin_pram import (
    _inverse_row_maxima_impl,
    _row_maxima_impl,
    _row_minima_impl,
)
from repro.monge.arrays import as_search_array
from repro.networks import TOPOLOGIES
from repro.pram.ledger import CostLedger

__all__ = [
    "make_network",
    "network_machine_for",
    "monge_row_minima_network",
    "monge_row_maxima_network",
    "inverse_monge_row_maxima_network",
]

Topology = Literal["hypercube", "ccc", "shuffle-exchange"]


def make_network(topology: Topology, nodes: int, ledger: CostLedger | None = None):
    """A topology instance with at least ``nodes`` logical nodes."""
    cls = TOPOLOGIES.get(topology)
    if cls is None:
        raise ValueError(
            f"unknown topology {topology!r}; expected one of {sorted(TOPOLOGIES)}"
        )
    dim = ceil_log2(max(2, nodes))
    return cls(dim, ledger=ledger)


def network_machine_for(topology: Topology, nodes: int) -> NetworkMachine:
    """A fresh :class:`NetworkMachine` sized for ``nodes`` processors."""
    return NetworkMachine(make_network(topology, nodes))


def _run(body, array, topology: Topology):
    """Run a row-extremum body on a fresh ``max(m, n)``-node network."""
    a = as_search_array(array)
    m, n = a.shape
    machine = network_machine_for(topology, max(m, n, 2))
    vals, cols = body(machine, a, strategy="sqrt")
    return vals, cols, machine.ledger


def monge_row_minima_network(
    array, topology: Topology = "hypercube"
) -> Tuple[np.ndarray, np.ndarray, CostLedger]:
    """Leftmost row minima of a Monge array on a network (§3).

    The network has ``max(m, n)`` logical nodes (the paper's input model
    stores ``v[i]``/``w[j]`` one per node).  Returns
    ``(values, columns, ledger)``.
    """
    return _run(_row_minima_impl, array, topology)


def monge_row_maxima_network(array, topology: Topology = "hypercube"):
    """Theorem 3.2's row maxima of a Monge array on a network."""
    return _run(_row_maxima_impl, array, topology)


def inverse_monge_row_maxima_network(array, topology: Topology = "hypercube"):
    """Row maxima of an inverse-Monge array (Fig. 1.1 form) on a network."""
    return _run(_inverse_row_maxima_impl, array, topology)
