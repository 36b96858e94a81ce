"""Machine construction, cloning, and parallel-composition accounting.

The engine is the one place that knows how to turn a backend key into a
simulated machine: PRAM backends get a :class:`~repro.pram.machine.Pram`
(or :class:`~repro.pram.scheduling.BrentPram` when a physical budget is
given), network backends get a :class:`~repro.core.network_machine.NetworkMachine`
over the named topology (:data:`repro.networks.TOPOLOGIES`), and the
sequential backend gets no machine at all.  The clone/compose helpers
(:func:`fresh_clone`, :func:`charge_parallel`) live here too;
:mod:`repro.engine` re-exports them.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.core.network_machine import NetworkMachine
from repro.core.rowmin_network import make_network
from repro.networks import TOPOLOGIES
from repro.pram.ledger import CostLedger
from repro.pram.machine import Pram

__all__ = [
    "backend_of",
    "build_machine",
    "fresh_clone",
    "charge_parallel",
]


def backend_of(machine: Optional[Pram]) -> str:
    """The registry backend key a machine (or ``None``) resolves to."""
    if machine is None:
        return "sequential"
    if isinstance(machine, NetworkMachine):
        for name, cls in TOPOLOGIES.items():
            if isinstance(machine.network, cls):
                return name
        raise ValueError(
            f"unrecognized network topology {type(machine.network).__name__!r}"
        )
    return "pram-crcw" if machine.model.is_crcw else "pram-crew"


def build_machine(
    backend: str,
    nodes: int,
    *,
    processors: Optional[int] = None,
    physical_processors: Optional[int] = None,
    validate: bool = False,
    ledger: Optional[CostLedger] = None,
) -> Optional[Pram]:
    """A fresh machine for ``backend``, sized for ``nodes`` logical nodes.

    ``processors`` overrides the PRAM budget (default: effectively
    unbounded, matching the legacy entry points).  ``nodes`` drives
    network dimensioning only.  Returns ``None`` for ``"sequential"``.
    """
    if ledger is None:
        ledger = CostLedger()
    if backend == "sequential":
        return None
    if backend in TOPOLOGIES:
        return NetworkMachine(make_network(backend, nodes, ledger))
    if backend in ("pram-crcw", "pram-crew"):
        from repro.pram.models import CREW
        from repro.pram.models import CRCW_COMMON

        model = CRCW_COMMON if backend == "pram-crcw" else CREW
        budget = (1 << 40) if processors is None else int(processors)
        if physical_processors is not None:
            from repro.pram.scheduling import BrentPram

            return BrentPram(
                model, budget, physical_processors, ledger=ledger, validate=validate
            )
        return Pram(model, budget, ledger=ledger, validate=validate)
    raise ValueError(f"unknown backend {backend!r}")


def fresh_clone(machine: Pram) -> Pram:
    """A same-configuration machine with an independent ledger."""
    from repro.pram.scheduling import BrentPram

    if isinstance(machine, NetworkMachine):
        net = type(machine.network)(machine.network.dim, ledger=CostLedger())
        return NetworkMachine(net)
    if isinstance(machine, BrentPram):
        return BrentPram(
            machine.model,
            machine.processors,
            machine.physical_processors,
            ledger=CostLedger(),
        )
    return Pram(machine.model, machine.processors, ledger=CostLedger())


def charge_parallel(machine: Pram, ledgers: Iterable[CostLedger]) -> None:
    """Fold sibling ledgers into ``machine`` as one concurrent phase."""
    rounds = 0
    work = 0
    peak = 0
    for led in ledgers:
        rounds = max(rounds, led.rounds)
        work += led.work
        peak += led.peak_processors
    if rounds:
        machine.ledger.charge(rounds=rounds, processors=max(1, peak), work=work)
