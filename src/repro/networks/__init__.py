"""Distributed-memory interconnection-network simulators (§3).

Unlike the PRAM package, nothing here has a global memory: every value
lives in some node's register, and a value moves only along a topology
edge, one hop per charged round.  The paper's §3 model is enforced
structurally — a processor can combine ``a[i,j]``'s ingredients only
after routing has delivered them to its local memory.

- :mod:`repro.networks.hypercube` — the ``2^d``-node hypercube with
  dimension-exchange rounds and normal-algorithm drivers;
- :mod:`repro.networks.ccc` — cube-connected cycles, executing normal
  hypercube algorithms with the classic constant-factor slowdown
  (cycle rotations between consecutive dimensions);
- :mod:`repro.networks.shuffle_exchange` — the shuffle-exchange graph,
  where a normal algorithm's dimension-``d`` exchange becomes shuffle
  rounds plus an exchange-edge round;
- :mod:`repro.networks.primitives` — prefix scans, segmented scans,
  reductions, broadcast, bitonic sorting, and the monotone (isotone)
  packet routing of [LLS89], all built from exchange rounds and
  therefore portable across the three topologies.
"""

from repro.networks.hypercube import Hypercube
from repro.networks.ccc import CubeConnectedCycles
from repro.networks.shuffle_exchange import ShuffleExchange
from repro.networks.primitives import (
    net_bitonic_sort,
    net_broadcast,
    net_monotone_route,
    net_prefix_scan,
    net_reduce,
    net_segmented_scan,
)

#: The §3 topologies by name: the one table every name → class lookup
#: reads (``make_network``, ``build_machine`` and the network backends).
TOPOLOGIES = {
    "hypercube": Hypercube,
    "ccc": CubeConnectedCycles,
    "shuffle-exchange": ShuffleExchange,
}

__all__ = [
    "TOPOLOGIES",
    "Hypercube",
    "CubeConnectedCycles",
    "ShuffleExchange",
    "net_prefix_scan",
    "net_segmented_scan",
    "net_reduce",
    "net_broadcast",
    "net_bitonic_sort",
    "net_monotone_route",
]
