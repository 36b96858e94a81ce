"""The :class:`Pram` machine handle.

A ``Pram`` binds together

- a :class:`~repro.pram.models.PramModel` (concurrency semantics),
- a processor budget,
- a :class:`~repro.pram.ledger.CostLedger`.

Primitives take a ``Pram`` as their first argument; they execute their
synchronous rounds as vectorized NumPy maps and charge the ledger for
each round actually run.  The machine also exposes *checked* gather /
scatter helpers so a primitive running in ``validate`` mode proves that
its per-round access pattern is legal under the bound model.

The machine is deliberately cheap to construct: applications create
sub-machines (``pram.sub(processors)``) for recursive calls so that
processor budgets of nested subproblems are enforced locally while all
costs flow into one shared ledger.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.pram.ledger import CostLedger, notify_kernel, observed_phase
from repro.pram.models import CREW, ConcurrencyViolation, PramModel, resolve_concurrent_writes

__all__ = ["Pram"]


class Pram:
    """A simulated PRAM with ``processors`` processors of model ``model``.

    Parameters
    ----------
    model:
        One of :data:`EREW`, :data:`CREW`, :data:`CRCW_COMMON`,
        :data:`CRCW_ARBITRARY`, :data:`CRCW_PRIORITY`.
    processors:
        Processor budget.  Primitives asking for more in a single round
        raise through the ledger.
    ledger:
        Shared cost accumulator; a fresh one is created if omitted.
    validate:
        When True, checked gather/scatter verify concurrency legality
        each round (slower; meant for tests and small runs).
    """

    def __init__(
        self,
        model: PramModel = CREW,
        processors: int = 1,
        ledger: Optional[CostLedger] = None,
        validate: bool = False,
    ) -> None:
        if processors < 1:
            raise ValueError(f"processors must be >= 1, got {processors}")
        self.model = model
        self.processors = int(processors)
        self.ledger = ledger if ledger is not None else CostLedger(processor_limit=None)
        self.validate = bool(validate)

    # ------------------------------------------------------------------ #
    def charge(self, rounds: int = 1, processors: int | None = None, work: int | None = None):
        """Charge ``rounds`` synchronous steps to the ledger.

        ``processors`` defaults to this machine's full budget; a round
        using more than the budget is a bug in the calling primitive.
        """
        p = self.processors if processors is None else int(processors)
        if p > self.processors:
            raise RuntimeError(
                f"primitive used {p} processors but machine has only {self.processors}"
            )
        self.ledger.charge(rounds=rounds, processors=p, work=work)

    def charge_eval(self, size: int) -> None:
        """Charge one entry-evaluation round for ``size`` candidates.

        On a PRAM every processor computes its entry in one step (§1.2's
        O(1)-computable model).  Network machines override this with the
        Lemma 3.1 candidate-distribution schedule.
        """
        notify_kernel(self.ledger, "eval", size)
        self.charge(rounds=1, processors=max(1, size))

    def sub(self, processors: int) -> "Pram":
        """A view of this machine restricted to ``processors`` processors.

        Costs still flow to the shared ledger; the returned machine just
        enforces the smaller budget for a nested subcomputation.
        """
        if processors < 1:
            processors = 1
        if processors > self.processors:
            raise ValueError(
                f"cannot create sub-machine with {processors} processors "
                f"from a machine with {self.processors}"
            )
        return Pram(self.model, processors, ledger=self.ledger, validate=self.validate)

    def phase(self, name: str):
        """Shorthand for ``self.ledger.phase(name)``."""
        return self.ledger.phase(name)

    def obs_phase(self, name: str):
        """Observer-only stage marker (tracer span, *no* ledger phase).

        Algorithms use this to expose their strategy phases to an
        attached tracer without perturbing the charged ``phases``
        accounting that pinned snapshots depend on.  A shared no-op when
        nothing observes the ledger.
        """
        return observed_phase(self.ledger, name)

    # ------------------------------------------------------------------ #
    # Checked shared-memory access (one synchronous round each).
    # ------------------------------------------------------------------ #
    def gather(self, memory: np.ndarray, addresses: np.ndarray) -> np.ndarray:
        """One round in which processor ``t`` reads ``memory[addresses[t]]``.

        Under ``validate``, EREW read-exclusivity is enforced.
        """
        addresses = np.asarray(addresses)
        if self.validate:
            self.model.check_reads(addresses, round_index=self.ledger.rounds)
        self.charge(rounds=1, processors=max(1, addresses.size))
        return memory[addresses]

    def scatter(
        self,
        memory: np.ndarray,
        addresses: np.ndarray,
        values: np.ndarray,
        processor_ids: np.ndarray | None = None,
    ) -> None:
        """One round in which processor ``t`` writes ``values[t]`` to
        ``memory[addresses[t]]``, resolved per the machine's model."""
        addresses = np.asarray(addresses).ravel()
        values = np.asarray(values).ravel()
        if self.validate:
            uniq, winners = resolve_concurrent_writes(
                self.model.write_policy,
                addresses,
                values,
                processor_ids,
                model_name=self.model.name,
                round_index=self.ledger.rounds,
            )
            memory[uniq] = winners
        else:
            if self.model.concurrent_write:
                # Arbitrary/common/priority all coincide when writers agree;
                # unvalidated mode trusts the primitive and lets the last
                # writer win (a legal ARBITRARY outcome).
                memory[addresses] = values
            else:
                memory[addresses] = values
        self.charge(rounds=1, processors=max(1, addresses.size))

    # ------------------------------------------------------------------ #
    def require_crcw(self, what: str) -> None:
        """Raise unless the machine supports concurrent writes."""
        if not self.model.concurrent_write:
            raise ConcurrencyViolation(f"{what} requires a CRCW model, machine is {self.model}")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Pram(model={self.model}, processors={self.processors})"
