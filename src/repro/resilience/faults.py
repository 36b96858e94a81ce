"""Deterministic, seeded fault injection for the simulated machines.

A :class:`FaultPlan` is a reproducible adversary: given a seed and
per-kind rates, it decides — one pseudo-random draw per opportunity —
whether a simulated failure strikes.  The machines consult the plan at
well-defined *fault sites*:

``processor_drop``
    a :class:`~repro.pram.machine.Pram` round loses a processor and
    must be replayed (checked once per :meth:`Pram.charge`);
``link_drop``
    a network :meth:`~repro.networks.topology.CubeLike.exchange` loses
    its messages and the exchange is replayed from the pre-round
    checkpoint;
``message_corrupt``
    an exchange delivers, but one register arrives perturbed — the
    result is silently wrong and only a downstream certifier
    (:mod:`repro.resilience.certify`) can catch it;
``write_conflict``
    a ghost processor joins a checked scatter, colliding with a real
    write.  Exclusive/common models detect the collision and replay;
    arbitrary/priority models legally resolve it (the ghost always
    loses, so results are unchanged).

Dropped rounds are *replayed*: the machine charges the lost round's
cost to the ledger's separate retry account
(:meth:`~repro.pram.ledger.CostLedger.charge_retry`) and re-runs, so
paper-bound accounting stays untouched.  Because the simulation is
deterministic, a replayed round reproduces its original data — only
``message_corrupt`` can alter results, which is exactly the case the
certifier + re-execution loop (:mod:`repro.resilience.executor`)
exists for.

Every decision comes from one ``numpy`` generator seeded at
construction, so a plan's behavior is a pure function of its seed and
the (deterministic) sequence of fault sites the run visits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

__all__ = [
    "FaultPlan",
    "FaultEvent",
    "FaultError",
    "TransientFault",
    "FaultRetriesExhausted",
    "FAULT_KINDS",
]

FAULT_KINDS = ("processor_drop", "link_drop", "message_corrupt", "write_conflict")


class FaultError(RuntimeError):
    """Base class for injected-fault errors."""


class TransientFault(FaultError):
    """A recoverable injected failure (retry or re-execute)."""


class FaultRetriesExhausted(TransientFault):
    """A fault site kept failing past the machine's retry limit."""


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault: what fired, where, and when."""

    kind: str
    site: str
    round_index: int
    detail: str = ""


@dataclass
class FaultPlan:
    """A seeded schedule of injected faults.

    Parameters
    ----------
    seed:
        Seeds the private generator; two plans with equal seeds and
        rates inject identical fault sequences for identical runs.
    processor_drop, link_drop, message_corrupt, write_conflict:
        Per-opportunity firing probabilities in ``[0, 1]``.
    corruption_scale:
        Magnitude of the perturbation applied by ``message_corrupt``.
    max_events:
        Cap on the retained :class:`FaultEvent` list (counting
        continues past the cap).
    """

    seed: int = 0
    processor_drop: float = 0.0
    link_drop: float = 0.0
    message_corrupt: float = 0.0
    write_conflict: float = 0.0
    corruption_scale: float = 1.0
    max_events: int = 10000
    events: List[FaultEvent] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        for kind in FAULT_KINDS:
            rate = getattr(self, kind)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{kind} rate must be in [0, 1], got {rate}")
        self._rng = np.random.default_rng(self.seed)
        self._counts: Dict[str, int] = {kind: 0 for kind in FAULT_KINDS}
        self.armed = True

    # ------------------------------------------------------------------ #
    def rate(self, kind: str) -> float:
        if kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {kind!r}; expected one of {FAULT_KINDS}")
        return float(getattr(self, kind))

    def fires(self, kind: str, site: str = "", round_index: int = -1, detail: str = "") -> bool:
        """One draw: does a ``kind`` fault strike this opportunity?

        Zero-rate kinds never consume a draw, so a plan's stream is a
        function only of the kinds it actually injects.
        """
        rate = self.rate(kind)
        if not self.armed or rate <= 0.0:
            return False
        if self._rng.random() >= rate:
            return False
        self._record(kind, site, round_index, detail)
        return True

    def corrupt(self, values: np.ndarray, site: str = "", round_index: int = -1) -> np.ndarray:
        """Possibly perturb one entry of a delivered message register.

        Returns ``values`` untouched when no fault fires; otherwise a
        perturbed *copy* (the simulated sender's state is never
        modified).  Non-numeric registers pass through unharmed.
        """
        if not self.fires("message_corrupt", site=site, round_index=round_index):
            return values
        arr = np.asarray(values)
        if arr.size == 0 or not np.issubdtype(arr.dtype, np.number):
            return values
        out = np.array(arr, copy=True)
        flat = out.reshape(-1)
        pos = int(self._rng.integers(flat.size))
        old = flat[pos]
        if np.issubdtype(out.dtype, np.floating):
            if np.isfinite(old):
                flat[pos] = old + self.corruption_scale * (1.0 + abs(float(old)))
            else:
                flat[pos] = 0.0
        else:
            flat[pos] = old + 1
        return out

    def exhausted(self, kind: str, site: str, attempts: int) -> None:
        """Raise :class:`FaultRetriesExhausted` for a persistent fault."""
        raise FaultRetriesExhausted(
            f"{kind} at {site} persisted through {attempts} replay attempts "
            f"(seed={self.seed}, rate={self.rate(kind)})"
        )

    # ------------------------------------------------------------------ #
    def disarm(self) -> None:
        """Stop injecting (events and counts are retained)."""
        self.armed = False

    def arm(self) -> None:
        self.armed = True

    def reset(self) -> None:
        """Restore the constructed state: reseed the stream, clear events."""
        self._rng = np.random.default_rng(self.seed)
        self.events.clear()
        self._counts = {kind: 0 for kind in FAULT_KINDS}
        self.armed = True

    def counts(self) -> Dict[str, int]:
        """Fired-fault totals by kind (uncapped, unlike ``events``)."""
        return dict(self._counts)

    @property
    def total_fired(self) -> int:
        return sum(self._counts.values())

    # ------------------------------------------------------------------ #
    def _record(self, kind: str, site: str, round_index: int, detail: str) -> None:
        self._counts[kind] += 1
        if len(self.events) < self.max_events:
            self.events.append(FaultEvent(kind, site, int(round_index), detail))
