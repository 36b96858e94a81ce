"""The :class:`ExecutionConfig` — every cross-cutting solver knob in one place.

Before the engine existed, each of the 12+ core entry points re-threaded
``strategy=``/``scheme=`` by hand, and certification had to be wired up
manually around every call.  ``ExecutionConfig`` consolidates all of it:

``strategy``
    The algorithmic variant.  ``"auto"`` (default) resolves per problem
    and backend: the row-extremum family picks the paper's ``"sqrt"``
    sampling recursion, the tube family picks ``"crcw"`` (doubly-log)
    on CRCW machines and ``"crew"`` (halving) otherwise.  The legacy
    per-function ``strategy=``/``scheme=`` arguments map onto this one
    field.
``certify``
    Self-certify the answer with the matching
    :mod:`repro.resilience.certify` certificate; a failing certificate
    raises :class:`~repro.resilience.certify.CertificationError`.  Only
    the minima problems carry certifiers; requesting certification
    elsewhere is a declared-capability error.
``trace``
    Attach the session's :class:`repro.obs.Tracer` to the query's
    machines and return the structured span tree as ``result.trace``
    (DESIGN.md §10).  Off by default; the disabled path costs one
    attribute test per charge.
``kernel_tier``
    Which execution tier the hot-path kernels run in (DESIGN.md §13):
    ``"reference"`` (round-by-round) or ``"fused"`` (vectorized NumPy
    with ledger charge replay).  ``None`` (default) defers to the
    caller's :func:`~repro.kernels.registry.tier_context`, then
    ``REPRO_KERNEL_TIER``, then ``"fused"``; the engine resolves it
    once, when it plans the query.  Results, witnesses, ledger
    snapshots, traces, and certificates are bit-identical across tiers
    (the fused-kernel invariant).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

__all__ = ["ExecutionConfig", "ROW_STRATEGIES", "TUBE_STRATEGIES"]

#: Strategies understood by the row-extremum family (Table 1.1/1.2).
ROW_STRATEGIES = ("auto", "sqrt", "halving")
#: Schemes understood by the tube family (Table 1.3).
TUBE_STRATEGIES = ("auto", "crew", "crcw")

_ALL_STRATEGIES = tuple(dict.fromkeys(ROW_STRATEGIES + TUBE_STRATEGIES))


@dataclass(frozen=True, kw_only=True)
class ExecutionConfig:
    """Cross-cutting execution policy for one (or many) engine queries.

    Immutable and keyword-only; use :meth:`with_overrides` to derive
    variants.  Field semantics are documented in the module docstring.
    """

    strategy: str = "auto"
    certify: bool = False
    trace: bool = False
    kernel_tier: Optional[str] = None

    def __post_init__(self) -> None:
        self.validate()

    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Raise ``ValueError`` on internally inconsistent settings."""
        if self.strategy not in _ALL_STRATEGIES:
            raise ValueError(
                f"unknown strategy {self.strategy!r}; expected one of {_ALL_STRATEGIES}"
            )
        if self.kernel_tier is not None:
            from repro.kernels.registry import get_tier

            get_tier(self.kernel_tier)  # ValueError lists the known tiers

    def with_overrides(self, **kw) -> "ExecutionConfig":
        """A copy with the given fields replaced (and re-validated)."""
        return replace(self, **kw)

    def fingerprint(self) -> tuple:
        """The batch-compatibility fingerprint (DESIGN.md §9).

        Two queries may share one fused sweep only when these fields
        agree; strategy and shape are keyed separately by the planner.
        ``trace`` is included so traced and untraced queries never
        share a bucket — a traced bucket pays the per-owner span
        bookkeeping for all its members.
        ``kernel_tier`` is not: the planner keys the *resolved* tier
        separately, so a query that names the tier it would get by
        default fuses with the queries that get it by default.
        """
        return (self.certify, self.trace)

    # ------------------------------------------------------------------ #
    def resolve_strategy(self, problem: str, crcw: bool) -> str:
        """The concrete strategy ``"auto"`` stands for.

        ``problem`` is an engine problem key; ``crcw`` says whether the
        resolved machine supports concurrent writes.  Non-``auto``
        strategies pass through unchanged (the registry validates them
        against the solver's declared capabilities).
        """
        if self.strategy != "auto":
            return self.strategy
        if problem.startswith("tube"):
            return "crcw" if crcw else "crew"
        if problem in ("rowmin", "rowmax", "rowmax_inverse"):
            return "sqrt"
        return "auto"  # strategy-free problems (staircase, banded)
