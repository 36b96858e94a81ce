"""Brent-style processor rescheduling.

Brent's theorem [Bre74]: an algorithm running in ``t`` rounds with
total work ``w`` on unboundedly many processors can be run on ``p``
processors in ``t + (w - t)/p`` rounds — each original round of ``a``
activities becomes ``⌈a/p⌉`` rounds.

The paper's CREW bounds (``n/lg lg n`` processors at
``O(lg n lg lg n)`` time) are exactly Brent reschedules of the
``n``-processor algorithms.  :func:`brent_reschedule` converts a ledger
measured at the full processor count into the measured round count at a
smaller count, using the *per-charge* activity profile (which the
ledger preserves via phases) rather than a closed-form estimate.

:class:`BrentPram` goes further: it is a :class:`Pram` whose charges
are rewritten on the fly, so an algorithm literally executed against a
``p``-processor budget reports genuine rescheduled rounds.
"""

from __future__ import annotations

from repro._util.bits import ceil_div
from repro.pram.ledger import CostLedger
from repro.pram.machine import Pram
from repro.pram.models import PramModel

__all__ = ["brent_rounds", "BrentPram"]


def brent_rounds(rounds: int, processors_used: int, p: int) -> int:
    """Rounds after rescheduling ``rounds`` steps of width
    ``processors_used`` onto ``p`` processors."""
    if p < 1:
        raise ValueError("p must be >= 1")
    return rounds * ceil_div(max(1, processors_used), p)


class BrentPram(Pram):
    """A PRAM that executes with a virtual width but charges the ledger
    as if every round were time-sliced onto ``physical_processors``.

    This realizes Brent's theorem operationally: a primitive that runs
    ``r`` rounds of width ``a`` is charged ``r·⌈a/p⌉`` rounds of width
    ``min(a, p)``.  The CREW entries of Tables 1.1–1.2 are measured by
    running the CRCW/CREW algorithms on a ``BrentPram`` with
    ``p = n / lg lg n``.
    """

    def __init__(
        self,
        model: PramModel,
        virtual_processors: int,
        physical_processors: int,
        ledger: CostLedger | None = None,
        validate: bool = False,
    ) -> None:
        super().__init__(model, virtual_processors, ledger=ledger, validate=validate)
        if physical_processors < 1:
            raise ValueError("physical_processors must be >= 1")
        self.physical_processors = int(physical_processors)

    def charge(self, rounds: int = 1, processors: int | None = None, work: int | None = None):
        a = self.processors if processors is None else int(processors)
        if a > self.processors:
            raise RuntimeError(
                f"primitive used {a} processors but machine has only {self.processors}"
            )
        p = self.physical_processors
        slices = ceil_div(max(1, a), p)
        self.ledger.charge(
            rounds=rounds * slices,
            processors=min(a, p),
            work=work if work is not None else rounds * a,
        )

    def sub(self, processors: int) -> "BrentPram":
        if processors < 1:
            processors = 1
        if processors > self.processors:
            raise ValueError(
                f"cannot create sub-machine with {processors} processors "
                f"from a machine with {self.processors}"
            )
        return BrentPram(
            self.model,
            processors,
            self.physical_processors,
            ledger=self.ledger,
            validate=self.validate,
        )
