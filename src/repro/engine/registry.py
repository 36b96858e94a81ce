"""The solver registry: ``(problem, backend)`` → implementation + capabilities.

The paper's Tables 1.1–1.3 define one logical problem family instantiated
on three machine classes.  The registry makes that structure executable:
each :class:`SolverSpec` binds a problem key

    ``rowmin | rowmax | staircase_min | staircase_max | tube_min | tube_max``

and a backend key

    ``pram-crcw | pram-crew | hypercube | ccc | shuffle-exchange | sequential``

to an implementation, together with its *declared capabilities*: which
strategies it accepts, whether a self-certifier exists for its output,
how many logical nodes its machine needs, and a Table-1.x-shaped
round-bound predicate that tests (and sessions) can check measured
ledgers against.

Pairs that are not registered raise :class:`CapabilityError` — a
``LookupError`` so callers can distinguish "the engine cannot do this"
from an input error.  The engine calls the core algorithms; the core
never calls the engine (``tests/test_layering.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.core.banded import (
    banded_row_maxima,
    banded_row_maxima_pram,
    banded_row_minima,
    banded_row_minima_pram,
)
from repro.core.rowmin_pram import (
    _inverse_row_maxima_impl,
    _row_maxima_impl,
    _row_minima_impl,
)
from repro.core.staircase_pram import _staircase_maxima_impl, _staircase_minima_impl
from repro.core.submatrix import submatrix_max_pram, submatrix_max_sequential
from repro.core.tube_pram import _tube_maxima_impl, _tube_minima_impl
from repro.core.windowed import windowed_monge_row_minima
from repro.kernels.registry import TIERS, get_tier
from repro.monge.arrays import as_search_array
from repro.monge.composite import tube_maxima_sequential, tube_minima_sequential
from repro.monge.index import MongeIndex
from repro.monge.smawk import row_minima
from repro.monge.staircase_seq import row_maxima_staircase, row_minima_staircase_blocks
from repro.networks import TOPOLOGIES
from repro.resilience.certify import (
    certify_row_minima,
    certify_staircase_row_minima,
    certify_tube_minima,
)

__all__ = [
    "PROBLEMS",
    "BACKENDS",
    "PRAM_BACKENDS",
    "NETWORK_BACKENDS",
    "CapabilityError",
    "SolverSpec",
    "SolverRegistry",
    "registry",
    "register",
]

#: Canonical problem keys (the Tables 1.1–1.3 rows).
PROBLEMS = (
    "rowmin",
    "rowmax",
    "staircase_min",
    "staircase_max",
    "tube_min",
    "tube_max",
)

PRAM_BACKENDS = ("pram-crcw", "pram-crew")
NETWORK_BACKENDS = tuple(TOPOLOGIES)

#: Canonical backend keys (the Tables' machine columns + the SMAWK-class
#: sequential baselines).
BACKENDS = PRAM_BACKENDS + NETWORK_BACKENDS + ("sequential",)


class CapabilityError(LookupError):
    """The engine has no solver (or no requested capability) for this query."""


#: Backend closeness used to suggest the nearest supported alternative in
#: unregistered-pair errors: same machine family first, then the other
#: simulated machines, sequential last (and vice versa for sequential).
_BACKEND_PROXIMITY = {
    "pram-crcw": ("pram-crew", "hypercube", "ccc", "shuffle-exchange", "sequential"),
    "pram-crew": ("pram-crcw", "hypercube", "ccc", "shuffle-exchange", "sequential"),
    "hypercube": ("ccc", "shuffle-exchange", "pram-crew", "pram-crcw", "sequential"),
    "ccc": ("hypercube", "shuffle-exchange", "pram-crew", "pram-crcw", "sequential"),
    "shuffle-exchange": ("hypercube", "ccc", "pram-crew", "pram-crcw", "sequential"),
    "sequential": ("pram-crew", "pram-crcw", "hypercube", "ccc", "shuffle-exchange"),
}


def _lg(x: float) -> float:
    return math.log2(max(2.0, float(x)))


def _lglg(x: float) -> float:
    return _lg(_lg(x))


@dataclass(frozen=True)
class SolverSpec:
    """One registered solver and its declared capabilities.

    ``fn(machine, data, config, strategy)`` returns ``(values,
    witnesses)``; ``machine`` is ``None`` for the sequential backend.
    ``strategies`` lists the concrete strategy names the solver accepts
    (``()`` for strategy-free solvers).  ``bound_rounds(shape)`` is the
    Table-1.x-shaped round budget (generous constants) that
    :meth:`within_bound` checks measured snapshots against; sequential
    solvers have none.
    """

    problem: str
    backend: str
    fn: Callable
    strategies: Tuple[str, ...] = ()
    certifier: Optional[Callable] = None
    bound_hint: str = ""
    bound_rounds: Optional[Callable[[Tuple[int, ...]], float]] = None
    nodes_for: Optional[Callable[[Tuple[int, ...]], int]] = None
    #: May several same-shape queries share one fused stacked sweep?
    #: Only the row-extremum family on simulated PRAMs qualifies: its
    #: ``sqrt`` recursion has data-independent row structure, which is
    #: what makes per-query charge replay exact (planner.py).
    batchable: bool = False
    #: Kernel tiers this solver's hot path can honor (DESIGN.md §13).
    #: Simulated-PRAM solvers run under both tiers; network solvers
    #: execute the grouped minimum genuinely on the interconnect and
    #: sequential baselines have no simulated machine, so both declare
    #: only ``reference`` — an explicit ``fused`` request there would be
    #: silently meaningless, which we surface as a CapabilityError.
    kernel_tiers: Tuple[str, ...] = ("reference",)
    #: Build-once entry of the precompute-once path (DESIGN.md §14):
    #: ``prepare(machine, data, config)`` returns an index object whose
    #: ``query`` method answers many requests without re-searching.
    #: ``None`` (the default) means :meth:`Session.prepare` refuses this
    #: pair with a CapabilityError.
    prepare: Optional[Callable] = None

    @property
    def key(self) -> Tuple[str, str]:
        return (self.problem, self.backend)

    @property
    def certifiable(self) -> bool:
        return self.certifier is not None

    @property
    def preparable(self) -> bool:
        return self.prepare is not None

    def nodes(self, shape: Tuple[int, ...]) -> int:
        """Logical nodes the session machine must cover for ``shape``
        (2 when the solver declares no sizing rule)."""
        return 2 if self.nodes_for is None else self.nodes_for(shape)

    def check_strategy(self, strategy: str) -> None:
        """Raise :class:`CapabilityError` on an undeclared strategy."""
        if strategy == "auto" or not self.strategies:
            return
        if strategy not in self.strategies:
            raise CapabilityError(
                f"solver ({self.problem}, {self.backend}) does not support "
                f"strategy {strategy!r}; declared: {self.strategies or ('<none>',)}"
            )

    def check_kernel_tier(self, tier: Optional[str]) -> None:
        """Raise :class:`CapabilityError` on an undeclared tier.

        ``None`` (defer to the caller's scope or the environment) always
        passes — the default tier degrades to the dense kernels wherever
        a solver cannot honor it, whereas an *explicit* request must be
        honored exactly or refused.  With two tiers, the only refusal
        is ``fused`` on a solver that declares ``reference`` alone.
        """
        if tier is None:
            return
        get_tier(tier)  # ValueError on unknown names (config also checks)
        if tier in self.kernel_tiers:
            return
        raise CapabilityError(
            f"solver ({self.problem}, {self.backend}) does not support "
            f"kernel tier {tier!r}; declared: {self.kernel_tiers}"
        )

    def within_bound(self, snapshot: Optional[dict], shape: Tuple[int, ...]) -> bool:
        """Does a measured ledger snapshot respect the declared bound?

        Vacuously true for solvers with no declared bound (sequential
        baselines charge no simulated rounds).
        """
        if self.bound_rounds is None or snapshot is None:
            return True
        return snapshot["rounds"] <= self.bound_rounds(shape)


class SolverRegistry:
    """A mapping of ``(problem, backend)`` keys to :class:`SolverSpec`."""

    def __init__(self) -> None:
        self._specs: Dict[Tuple[str, str], SolverSpec] = {}

    def add(self, spec: SolverSpec) -> None:
        self._specs[spec.key] = spec

    def lookup(self, problem: str, backend: str) -> SolverSpec:
        spec = self._specs.get((problem, backend))
        if spec is None:
            known_problems = sorted({p for p, _ in self._specs})
            known_backends = sorted({b for _, b in self._specs})
            if problem not in known_problems:
                raise CapabilityError(
                    f"unknown problem {problem!r}; known: {known_problems}"
                )
            if backend not in known_backends:
                raise CapabilityError(
                    f"unknown backend {backend!r}; known: {known_backends}"
                )
            supported = tuple(b for b in BACKENDS if (problem, b) in self._specs)
            nearest = next(
                (b for b in _BACKEND_PROXIMITY.get(backend, supported) if b in supported),
                supported[0] if supported else None,
            )
            raise CapabilityError(
                f"no solver registered for problem {problem!r} on backend "
                f"{backend!r}; nearest supported alternative: "
                f"({problem!r}, {nearest!r}) — {problem!r} is available on "
                f"backends {list(supported)}"
            )
        return spec

    def supports(self, problem: str, backend: str) -> bool:
        return (problem, backend) in self._specs

    def keys(self):
        return self._specs.keys()

    def specs(self):
        return self._specs.values()

    def problems(self) -> Tuple[str, ...]:
        return tuple(sorted({p for p, _ in self._specs}))

    def backends(self) -> Tuple[str, ...]:
        return tuple(sorted({b for _, b in self._specs}))


#: The process-wide registry used by :func:`repro.engine.solve`.
registry = SolverRegistry()


def register(spec: SolverSpec) -> SolverSpec:
    """Add a spec to the global registry (and return it)."""
    registry.add(spec)
    return spec


# --------------------------------------------------------------------- #
# Adapters over the core implementations: each takes the engine's
# ``(machine, data, config, strategy)`` and calls one algorithm body.
# --------------------------------------------------------------------- #
def _rowmin(machine, data, cfg, strategy):
    return _row_minima_impl(machine, data, strategy=strategy)


def _rowmax(machine, data, cfg, strategy):
    return _row_maxima_impl(machine, data, strategy=strategy)


def _rowmax_inverse(machine, data, cfg, strategy):
    return _inverse_row_maxima_impl(machine, data, strategy=strategy)


def _staircase_min(machine, data, cfg, strategy):
    return _staircase_minima_impl(machine, data)


def _staircase_max(machine, data, cfg, strategy):
    return _staircase_maxima_impl(machine, data)


def _tube_min(machine, data, cfg, strategy):
    return _tube_minima_impl(machine, data, scheme=strategy)


def _tube_max(machine, data, cfg, strategy):
    return _tube_maxima_impl(machine, data, scheme=strategy)


# -- sequential baselines (SMAWK and friends; no simulated machine) ----- #
def _seq_rowmin(machine, data, cfg, strategy):
    return row_minima(data)


def _seq_rowmax(machine, data, cfg, strategy):
    # Monge row-flipped is inverse-Monge; its negation is Monge again and
    # leftmost minima in reversed row order are the leftmost maxima.
    vals, cols = row_minima(as_search_array(data).flip_rows().negate())
    return -vals[::-1], cols[::-1].copy()


def _seq_rowmax_inverse(machine, data, cfg, strategy):
    vals, cols = row_minima(as_search_array(data).negate())
    return -vals, cols


def _seq_staircase_min(machine, data, cfg, strategy):
    return row_minima_staircase_blocks(data)


def _seq_staircase_max(machine, data, cfg, strategy):
    return row_maxima_staircase(data)


def _seq_tube_min(machine, data, cfg, strategy):
    return tube_minima_sequential(data)


def _seq_tube_max(machine, data, cfg, strategy):
    return tube_maxima_sequential(data)


# -- banded / windowed variants (§2 restricted column ranges) ----------- #
def _window_args(data, problem):
    """Unpack the ``(array, lo, hi)`` triple the window family takes."""
    if not isinstance(data, (tuple, list)) or len(data) != 3:
        raise TypeError(
            f"{problem!r} data must be an (array, lo, hi) triple: the search "
            "array plus per-row column windows"
        )
    return data[0], data[1], data[2]


def _banded_min(machine, data, cfg, strategy):
    array, lo, hi = _window_args(data, "banded_min")
    return banded_row_minima_pram(machine, array, lo, hi)


def _banded_max(machine, data, cfg, strategy):
    array, lo, hi = _window_args(data, "banded_max")
    return banded_row_maxima_pram(machine, array, lo, hi)


def _windowed_min(machine, data, cfg, strategy):
    array, lo, hi = _window_args(data, "windowed_min")
    return windowed_monge_row_minima(machine, array, lo, hi)


def _seq_banded_min(machine, data, cfg, strategy):
    array, lo, hi = _window_args(data, "banded_min")
    return banded_row_minima(array, lo, hi)


def _seq_banded_max(machine, data, cfg, strategy):
    array, lo, hi = _window_args(data, "banded_max")
    return banded_row_maxima(array, lo, hi)


# -- submatrix maxima (precompute-once family; DESIGN.md §14) ----------- #
def _submatrix_max(machine, data, cfg, strategy):
    return submatrix_max_pram(machine, data)


def _seq_submatrix_max(machine, data, cfg, strategy):
    return submatrix_max_sequential(data)


def _prepare_submatrix(machine, data, cfg):
    return MongeIndex.build(machine, data)


# -- machine sizing + Table-1.x bound shapes ---------------------------- #
def _row_shape_nodes(shape) -> int:
    m, n = shape
    return max(m, n, 2)


def _tube_shape_nodes(shape) -> int:
    p, q, r = shape
    return max(p * r, q, 2)


def _row_bound_crcw(shape):  # Table 1.1/1.2 row: O(lg n) CRCW rounds
    m, n = shape
    return 48.0 * _lg(m * n) + 48.0


def _row_bound_crew(shape):  # O(lg n lg lg n) CREW rounds
    m, n = shape
    return 32.0 * _lg(m * n) * _lglg(m * n) + 48.0


def _tube_bound_crcw(shape):  # O((lg lg n)^2)-shaped doubly-log recursion
    p, q, r = shape
    return 32.0 * (_lglg(p * q * r) + 2.0) ** 2 + 32.0


def _tube_bound_crew(shape):  # O(lg p · lg q)-shaped halving scheme
    p, q, r = shape
    return 24.0 * _lg(p) * _lg(q) + 48.0


def _net_bound(shape):  # measured O(lg² n)-shaped network rounds (§3 note)
    nodes = _row_shape_nodes(shape) if len(shape) == 2 else _tube_shape_nodes(shape)
    return 512.0 * _lg(nodes) ** 2 + 512.0


def _banded_bound_crcw(shape):  # halving levels x doubly-log grouped min
    m, n = shape
    return 64.0 * _lg(m) * (_lglg(m * n) + 4.0) + 64.0


def _banded_bound_crew(shape):  # halving levels x binary grouped min
    m, n = shape
    return 48.0 * _lg(m) * _lg(m * n) + 64.0


# --------------------------------------------------------------------- #
# Populate the registry.
# --------------------------------------------------------------------- #
_PRAM_FAMILY = (
    ("rowmin", _rowmin, ("sqrt", "halving"), certify_row_minima,
     "T1.1: O(lg n) CRCW / O(lg n lg lg n) CREW"),
    ("rowmax", _rowmax, ("sqrt", "halving"), None,
     "T1.1: O(lg n) CRCW / O(lg n lg lg n) CREW"),
    ("rowmax_inverse", _rowmax_inverse, ("sqrt", "halving"), None,
     "T1.1 via negation (Fig. 1.1 inverse-Monge form)"),
    ("staircase_min", _staircase_min, (), certify_staircase_row_minima,
     "T1.2 / Thm 2.3: O(lg n) CRCW / O(lg n lg lg n) CREW"),
    ("staircase_max", _staircase_max, (), None,
     "T1.2 easy direction: banded search round class"),
    ("tube_min", _tube_min, ("crew", "crcw"), certify_tube_minima,
     "T1.3: O(lg lg n) CRCW / O(lg n) CREW shaped"),
    ("tube_max", _tube_max, ("crew", "crcw"), None,
     "T1.3: O(lg lg n) CRCW / O(lg n) CREW shaped"),
)

#: The problems whose pram solvers may fuse same-shape queries into one
#: stacked sweep (see the ``batchable`` field and planner.py).
_BATCHABLE_PROBLEMS = ("rowmin", "rowmax", "rowmax_inverse")

for _problem, _fn, _strats, _cert, _hint in _PRAM_FAMILY:
    _tube = _problem.startswith("tube")
    _nodes = _tube_shape_nodes if _tube else _row_shape_nodes
    _batch = _problem in _BATCHABLE_PROBLEMS
    register(SolverSpec(
        problem=_problem, backend="pram-crcw", fn=_fn, strategies=_strats,
        certifier=_cert, bound_hint=_hint,
        bound_rounds=_tube_bound_crcw if _tube else _row_bound_crcw,
        nodes_for=_nodes, batchable=_batch,
        kernel_tiers=TIERS,
    ))
    register(SolverSpec(
        problem=_problem, backend="pram-crew", fn=_fn,
        # "crcw" stays declared: the solver itself raises the model
        # ConcurrencyViolation, preserving the legacy error contract
        strategies=_strats,
        certifier=_cert, bound_hint=_hint,
        bound_rounds=_tube_bound_crew if _tube else _row_bound_crew,
        nodes_for=_nodes, batchable=_batch,
        kernel_tiers=TIERS,
    ))
    for _net in NETWORK_BACKENDS:
        register(SolverSpec(
            problem=_problem, backend=_net, fn=_fn,
            # networks run the CREW-derived algorithms (§3)
            strategies=tuple(s for s in _strats if s != "crcw"),
            certifier=_cert,
            bound_hint="Thm 3.2–3.4 (measured O(lg² n)-shaped; see DESIGN.md)",
            bound_rounds=_net_bound,
            nodes_for=_nodes,
        ))

_SEQUENTIAL = (
    ("rowmin", _seq_rowmin, certify_row_minima, "SMAWK: O(m+n) evaluations"),
    ("rowmax", _seq_rowmax, None, "SMAWK on the flipped array: O(m+n) evaluations"),
    ("rowmax_inverse", _seq_rowmax_inverse, None,
     "SMAWK on the negated array: O(m+n) evaluations"),
    ("staircase_min", _seq_staircase_min, certify_staircase_row_minima,
     "boundary-block SMAWK decomposition"),
    ("staircase_max", _seq_staircase_max, None,
     "prefix-maxima divide and conquer: O((m+n) lg m) evaluations"),
    ("tube_min", _seq_tube_min, certify_tube_minima, "per-row SMAWK: O(p(q+r)) evaluations"),
    ("tube_max", _seq_tube_max, None, "per-row SMAWK: O(p(q+r)) evaluations"),
)

for _problem, _fn, _cert, _hint in _SEQUENTIAL:
    register(SolverSpec(
        problem=_problem, backend="sequential", fn=_fn, strategies=(),
        certifier=_cert, bound_hint=_hint,
        bound_rounds=None, nodes_for=None,
    ))

# Banded / windowed variants: the §2 restricted-column-range searches.
# The banded search runs on every simulated machine (its grouped-minimum
# core dispatches to the network primitive on NetworkMachines) plus the
# sequential D&C; the windowed composite decomposes into staircase
# machinery that only the PRAMs carry, so network/sequential lookups
# raise CapabilityError naming the nearest supported pair.
_WINDOW_FAMILY = (
    ("banded_min", _banded_min, _seq_banded_min,
     "banded halving: O(lg m) grouped-minimum levels"),
    ("banded_max", _banded_max, _seq_banded_max,
     "banded halving on the negated band"),
    ("windowed_min", _windowed_min, None,
     "window runs split into banded / staircase / direct cases"),
)

for _problem, _fn, _seqfn, _hint in _WINDOW_FAMILY:
    register(SolverSpec(
        problem=_problem, backend="pram-crcw", fn=_fn, strategies=(),
        bound_hint=_hint,
        bound_rounds=_banded_bound_crcw, nodes_for=_row_shape_nodes,
        kernel_tiers=TIERS,
    ))
    register(SolverSpec(
        problem=_problem, backend="pram-crew", fn=_fn, strategies=(),
        bound_hint=_hint,
        bound_rounds=_banded_bound_crew, nodes_for=_row_shape_nodes,
        kernel_tiers=TIERS,
    ))
    if _seqfn is not None:
        for _net in NETWORK_BACKENDS:
            register(SolverSpec(
                problem=_problem, backend=_net, fn=_fn, strategies=(),
                bound_hint=_hint,
                bound_rounds=_net_bound, nodes_for=_row_shape_nodes,
            ))
        register(SolverSpec(
            problem=_problem, backend="sequential", fn=_seqfn, strategies=(),
            bound_hint=_hint,
            bound_rounds=None, nodes_for=None,
        ))

# Submatrix maxima: the precompute-once family.  The one-shot solver
# answers a single (row_range, col_range) rectangle by row maxima over
# the sub-array; the `prepare` capability instead builds a MongeIndex
# (envelope segment tree over row blocks) that amortizes the build cost
# across many rectangles.  Not batchable: rectangle queries
# have data-dependent sub-shapes, so ChargeFan replay has nothing
# uniform to fan out over.
for _backend, _bound in (
    ("pram-crcw", _row_bound_crcw),
    ("pram-crew", _row_bound_crew),
):
    register(SolverSpec(
        problem="submatrix_max", backend=_backend, fn=_submatrix_max,
        strategies=(),
        bound_hint="row maxima over the rectangle + one reduce round",
        bound_rounds=_bound, nodes_for=_row_shape_nodes,
        prepare=_prepare_submatrix, kernel_tiers=TIERS,
    ))
register(SolverSpec(
    problem="submatrix_max", backend="sequential", fn=_seq_submatrix_max,
    strategies=(),
    bound_hint="SMAWK row maxima over the rectangle: O(h+w) evaluations",
    bound_rounds=None, nodes_for=None, prepare=_prepare_submatrix,
))

del (_PRAM_FAMILY, _SEQUENTIAL, _WINDOW_FAMILY, _problem,
     _fn, _seqfn, _strats, _cert, _hint, _net, _tube, _nodes, _batch,
     _backend, _bound)
