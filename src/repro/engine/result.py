"""Structured solver output that still unpacks like the legacy tuple.

Every engine query returns a :class:`SearchResult` carrying the answer
(values + witnesses) together with everything the legacy entry points
used to scatter across return conventions and side channels: the ledger
snapshot of exactly this query, the self-certification verdict, and
the backend the query actually ran on.  ``values, witnesses = result``
keeps pre-engine call sites working unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, List, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.tracer import Trace
    from repro.pram.ledger import CostLedger
    from repro.resilience.certify import Certificate

__all__ = ["SearchResult", "BatchResult"]


@dataclass
class SearchResult:
    """Outcome of one engine query.

    Attributes
    ----------
    values, witnesses:
        The extrema and their witness indices — shapes follow the
        problem family (``(m,)`` row vectors for the row problems,
        ``(p, r)`` grids for the tube problems).
    problem, backend, strategy:
        The registry key the query resolved to and the concrete
        strategy that ran (``backend`` is the *resolved* one — an
        ``"auto"`` request records what it picked).
    snapshot:
        This query's own ledger snapshot (``None`` for the sequential
        backend, which charges no simulated rounds).
    ledger:
        The per-query :class:`~repro.pram.ledger.CostLedger`
        sub-account the snapshot was taken from, when one exists.
    certificate:
        The :class:`~repro.resilience.certify.Certificate` when
        ``certify=True`` was requested, else ``None``.
    trace:
        The structured span tree of this query when ``trace=True`` was
        requested (a :class:`repro.obs.Trace`), else ``None``.  Its
        summed charge deltas are bit-identical to ``snapshot``.
    """

    values: np.ndarray
    witnesses: np.ndarray
    problem: str = ""
    backend: str = ""
    strategy: str = ""
    snapshot: Optional[dict] = None
    ledger: Optional["CostLedger"] = None
    certificate: Optional["Certificate"] = None
    trace: Optional["Trace"] = None

    # -- tuple back-compat ---------------------------------------------- #
    def __iter__(self) -> Iterator[np.ndarray]:
        """Unpack as the legacy ``(values, witnesses)`` pair."""
        yield self.values
        yield self.witnesses

    def __len__(self) -> int:
        return 2

    def __getitem__(self, index):
        return (self.values, self.witnesses)[index]

    # -- conveniences ----------------------------------------------------#
    @property
    def certified(self) -> bool:
        """True iff a certificate was produced and passed."""
        return self.certificate is not None and bool(self.certificate.ok)

    @property
    def rounds(self) -> Optional[int]:
        """Simulated rounds this query charged (``None`` if sequential)."""
        return None if self.snapshot is None else self.snapshot["rounds"]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        shape = getattr(self.values, "shape", None)
        return (
            f"SearchResult(problem={self.problem!r}, backend={self.backend!r}, "
            f"strategy={self.strategy!r}, shape={shape}, rounds={self.rounds}, "
            f"certified={self.certified})"
        )


@dataclass
class BatchResult:
    """Results of one ``solve_many`` call, **always in input order**.

    ``results[i]`` answers query ``i`` exactly as a serial
    :meth:`~repro.engine.session.Session.solve` call would — values and
    witnesses bit-identical, and each result still carries its *own*
    ledger sub-account snapshot and certificate, whether the query ran
    inside a fused bucket or serially.

    ``groups`` records the execution buckets the planner formed: one
    ``dict`` per bucket with ``problem``, ``backend``, ``strategy``,
    ``shape``, ``count`` (queries in the bucket), and ``fused`` (did it
    run as one stacked sweep).
    """

    results: List[SearchResult]
    groups: List[dict] = field(default_factory=list)

    def __iter__(self) -> Iterator[SearchResult]:
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, index) -> SearchResult:
        return self.results[index]

    # -- conveniences ----------------------------------------------------#
    @property
    def values(self) -> List[np.ndarray]:
        """Per-query value arrays, in input order."""
        return [r.values for r in self.results]

    @property
    def witnesses(self) -> List[np.ndarray]:
        """Per-query witness arrays, in input order."""
        return [r.witnesses for r in self.results]

    @property
    def snapshots(self) -> List[Optional[dict]]:
        """Per-query ledger snapshots, in input order."""
        return [r.snapshot for r in self.results]

    @property
    def fused_queries(self) -> int:
        """How many of the queries executed inside fused buckets."""
        return sum(g["count"] for g in self.groups if g.get("fused"))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"BatchResult(n={len(self.results)}, buckets={len(self.groups)}, "
            f"fused_queries={self.fused_queries})"
        )
