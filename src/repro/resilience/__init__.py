"""Fault injection, self-certification, and graceful degradation.

The machine stack (``Pram``, ``BrentPram``, the ``CubeLike`` networks
and ``NetworkMachine``) accepts an optional seeded
:class:`~repro.resilience.faults.FaultPlan` that drops processors and
links, corrupts messages, and forces write conflicts.  Dropped rounds
replay from their checkpoint, charging a separate ledger retry account;
corrupted results are caught by the certifiers here and re-executed by
:func:`~repro.resilience.executor.run_resilient`.  The ``strict=False``
flag on the :mod:`repro.core` entry points adds input-side resilience:
non-Monge inputs fall back to a charged dense scan with a structured
:class:`~repro.resilience.degrade.DegradedResultWarning` instead of
raising.  See DESIGN.md §"Fault model & certification".
"""

from repro.resilience.certify import (
    Certificate,
    CertificationError,
    certify_row_minima,
    certify_staircase_row_minima,
    certify_tube_minima,
)
from repro.resilience.degrade import DegradedResultWarning
from repro.resilience.executor import (
    AttemptRecord,
    ResilienceExhausted,
    ResilientReport,
    run_resilient,
)
from repro.resilience.faults import (
    FAULT_KINDS,
    FaultError,
    FaultEvent,
    FaultPlan,
    FaultRetriesExhausted,
    TransientFault,
)

__all__ = [
    "FaultPlan",
    "FaultEvent",
    "FaultError",
    "TransientFault",
    "FaultRetriesExhausted",
    "FAULT_KINDS",
    "Certificate",
    "CertificationError",
    "certify_row_minima",
    "certify_staircase_row_minima",
    "certify_tube_minima",
    "DegradedResultWarning",
    "run_resilient",
    "AttemptRecord",
    "ResilientReport",
    "ResilienceExhausted",
]
