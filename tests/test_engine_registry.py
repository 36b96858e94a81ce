"""Registry completeness and declared-capability contracts.

Every canonical ``(problem, backend)`` pair must either solve a small
instance correctly (values matching the sequential baseline) or refuse
with a :class:`~repro.engine.CapabilityError` — never fail with an
unrelated exception.  Capability *violations* (certifying a maxima
problem, undeclared strategies) must raise the declared error type.
"""

import numpy as np
import pytest

from repro.engine import (
    BACKENDS,
    NETWORK_BACKENDS,
    PROBLEMS,
    CapabilityError,
    Session,
    registry,
    solve,
)
from repro.monge.generators import (
    random_composite,
    random_monge,
    random_staircase_monge,
)

RNG = np.random.default_rng(11)
MONGE = random_monge(8, 9, RNG)
STAIRCASE = random_staircase_monge(8, 8, RNG)
COMPOSITE = random_composite(4, 4, 4, RNG)

#: problem key -> instance data (rowmax_inverse wants inverse-Monge).
DATA = {
    "rowmin": MONGE,
    "rowmax": MONGE,
    "rowmax_inverse": MONGE.negate(),
    "staircase_min": STAIRCASE,
    "staircase_max": STAIRCASE,
    "tube_min": COMPOSITE,
    "tube_max": COMPOSITE,
}


def test_registry_covers_full_matrix():
    """All 6 canonical problems (plus the inverse-rowmax extra) exist on
    all 6 backends."""
    for problem in PROBLEMS + ("rowmax_inverse",):
        for backend in BACKENDS:
            assert registry.supports(problem, backend), (problem, backend)


def test_registry_lookup_error_messages():
    with pytest.raises(CapabilityError, match="unknown problem"):
        registry.lookup("colmin", "pram-crcw")
    with pytest.raises(CapabilityError, match="unknown backend"):
        registry.lookup("rowmin", "mesh")
    # CapabilityError is a LookupError: callers can catch either
    assert issubclass(CapabilityError, LookupError)


@pytest.mark.parametrize("problem", sorted(DATA))
@pytest.mark.parametrize("backend", BACKENDS)
def test_every_pair_solves_and_matches_sequential(problem, backend):
    """Registry completeness: each pair produces the sequential answer."""
    data = DATA[problem]
    ref_values, _ = solve(problem, data, backend="sequential")
    result = solve(problem, data, backend=backend)
    np.testing.assert_array_equal(result.values, ref_values)
    assert result.backend == backend
    # parallel backends carry a per-query snapshot; sequential has none
    if backend == "sequential":
        assert result.snapshot is None and result.rounds is None
    else:
        assert result.rounds > 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_within_bound_on_measured_runs(backend):
    """Measured ledgers respect the Table-1.x-shaped declared bounds."""
    s = Session(backend)
    s.solve("rowmin", MONGE)
    s.solve("tube_min", COMPOSITE)
    assert all(q.within_bound for q in s.queries)


def test_certify_on_maxima_is_a_capability_error():
    for problem in ("rowmax", "rowmax_inverse", "staircase_max", "tube_max"):
        with pytest.raises(CapabilityError, match="certifier"):
            solve(problem, DATA[problem], certify=True)


def test_undeclared_strategy_is_a_capability_error():
    # "sqrt" is a known strategy name, but the tube family never
    # declared it — the registry (not the config validator) refuses
    with pytest.raises(CapabilityError, match="does not support"):
        solve("tube_min", COMPOSITE, strategy="sqrt")
    with pytest.raises(CapabilityError, match="does not support"):
        solve("rowmin", MONGE, strategy="crew")


@pytest.mark.parametrize("backend", NETWORK_BACKENDS)
def test_networks_do_not_declare_crcw_tube_scheme(backend):
    spec = registry.lookup("tube_min", backend)
    assert "crcw" not in spec.strategies
    with pytest.raises(CapabilityError, match="does not support"):
        solve("tube_min", COMPOSITE, backend=backend, strategy="crcw")


def test_certifiable_specs_are_exactly_the_minima_family():
    certifiable = {p for (p, b) in registry.keys() if registry.lookup(p, b).certifiable}
    assert certifiable == {"rowmin", "staircase_min", "tube_min"}
