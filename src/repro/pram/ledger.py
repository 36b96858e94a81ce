"""Cost accounting for simulated parallel machines.

A :class:`CostLedger` is shared by a machine and all primitives running
on it.  Primitives call :meth:`CostLedger.charge` once per *executed*
synchronous round (or once per batch of identical rounds), reporting how
many processors were active.  The ledger tracks:

``rounds``
    total synchronous time steps — the quantity Tables 1.1–1.3 bound;
``work``
    total processor-rounds (sum over rounds of active processors);
``peak_processors``
    the largest number of processors any single round requested — the
    quantity the tables' "Processors" column bounds.

Phases let an algorithm attribute costs to named stages (e.g.
``"sampled-rows"`` vs ``"interpolation"``); nested phases accumulate
into every open phase.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List

__all__ = ["CostLedger", "PhaseStats", "notify_kernel", "observed_phase"]

#: Process-global profiling hooks (managed by :mod:`repro.obs.hooks`).
#: They live here — not in ``repro.obs`` — so the one chokepoint every
#: charge flows through pays a single empty-list test when disabled.
_ROUND_HOOKS: List = []
_KERNEL_HOOKS: List = []


def notify_kernel(ledger: "CostLedger | None", name: str, size: int) -> None:
    """Report one kernel invocation (entry evaluation, grouped extremum,
    network collective) to the ledger's observer and any global kernel
    hooks.  Purely observational: no charges, no machine state."""
    if ledger is None:
        return
    obs = ledger.observer
    if obs is not None:
        obs.on_kernel(ledger, name, int(size))
    if _KERNEL_HOOKS:
        for hook in tuple(_KERNEL_HOOKS):
            hook(ledger, name, int(size))


class _ObservedPhase:
    """Observer-only phase span: marks algorithm stages for the tracer
    without touching the ledger's charged ``phases`` accounting (so
    pinned snapshots stay byte-identical)."""

    __slots__ = ("ledger", "name")

    def __init__(self, ledger: "CostLedger", name: str) -> None:
        self.ledger = ledger
        self.name = name

    def __enter__(self) -> None:
        obs = self.ledger.observer
        if obs is not None:
            obs.on_phase(self.ledger, self.name, True)

    def __exit__(self, exc_type, exc, tb) -> None:
        obs = self.ledger.observer
        if obs is not None:
            obs.on_phase(self.ledger, self.name, False)


class _NullPhase:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_PHASE = _NullPhase()


def observed_phase(ledger: "CostLedger | None", name: str):
    """A context manager marking an observer-only span (see
    :class:`_ObservedPhase`); a shared no-op when nothing is attached."""
    if ledger is None or ledger.observer is None:
        return _NULL_PHASE
    return _ObservedPhase(ledger, name)


@dataclass
class PhaseStats:
    """Aggregated costs attributed to one named phase."""

    rounds: int = 0
    work: int = 0
    peak_processors: int = 0
    charges: int = 0

    def add(self, rounds: int, processors: int, work: int) -> None:
        self.rounds += rounds
        self.work += work
        self.peak_processors = max(self.peak_processors, processors)
        self.charges += 1


class CostLedger:
    """Mutable accumulator of simulated parallel cost.

    Parameters
    ----------
    processor_limit:
        Optional hard budget.  When set, any round requesting more
        processors raises :class:`ProcessorBudgetExceeded` — this is how
        tests assert the paper's processor bounds are respected.
    """

    def __init__(self, processor_limit: int | None = None) -> None:
        if processor_limit is not None and processor_limit < 1:
            raise ValueError(f"processor_limit must be >= 1, got {processor_limit}")
        self.processor_limit = processor_limit
        self.rounds = 0
        self.work = 0
        self.peak_processors = 0
        self.phases: Dict[str, PhaseStats] = {}
        self._open_phases: List[str] = []
        #: Optional per-ledger observer (a bound :class:`repro.obs.Tracer`).
        self.observer = None

    # ------------------------------------------------------------------ #
    def charge(self, rounds: int = 1, processors: int = 1, work: int | None = None) -> None:
        """Record ``rounds`` synchronous steps using ``processors`` each.

        ``work`` defaults to ``rounds * processors``; pass it explicitly
        when activity varies across the batched rounds.
        """
        if rounds < 0 or processors < 0:
            raise ValueError("rounds and processors must be nonnegative")
        if rounds == 0:
            return
        if processors == 0:
            processors = 1
        if self.processor_limit is not None and processors > self.processor_limit:
            raise ProcessorBudgetExceeded(
                f"a round requested {processors} processors, "
                f"but the budget is {self.processor_limit}"
            )
        if work is None:
            work = rounds * processors
        self.rounds += rounds
        self.work += work
        self.peak_processors = max(self.peak_processors, processors)
        for name in self._open_phases:
            self.phases[name].add(rounds, processors, work)
        obs = self.observer
        if obs is not None:
            obs.on_charge(self, rounds, processors, work)
        if _ROUND_HOOKS:
            for hook in tuple(_ROUND_HOOKS):
                hook(self, rounds, processors, work)

    @contextmanager
    def phase(self, name: str) -> Iterator[PhaseStats]:
        """Attribute charges inside the ``with`` block to ``name``."""
        stats = self.phases.setdefault(name, PhaseStats())
        self._open_phases.append(name)
        obs = self.observer
        if obs is not None:
            obs.on_phase(self, name, True)
        try:
            yield stats
        finally:
            popped = self._open_phases.pop()
            assert popped == name, "phase stack corrupted"
            obs = self.observer
            if obs is not None:
                obs.on_phase(self, name, False)

    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict:
        """Immutable summary, convenient for benches and reports."""
        return {
            "rounds": self.rounds,
            "work": self.work,
            "peak_processors": self.peak_processors,
            "phases": {k: vars(v).copy() for k, v in self.phases.items()},
        }

    def merge(self, other: "CostLedger") -> None:
        """Fold another ledger's totals into this one (sequential join)."""
        self.rounds += other.rounds
        self.work += other.work
        self.peak_processors = max(self.peak_processors, other.peak_processors)
        for name, stats in other.phases.items():
            mine = self.phases.setdefault(name, PhaseStats())
            mine.rounds += stats.rounds
            mine.work += stats.work
            mine.peak_processors = max(mine.peak_processors, stats.peak_processors)
            mine.charges += stats.charges

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CostLedger(rounds={self.rounds}, work={self.work}, "
            f"peak_processors={self.peak_processors})"
        )


class ProcessorBudgetExceeded(RuntimeError):
    """A simulated round asked for more processors than the budget allows."""
