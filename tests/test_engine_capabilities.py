"""Capability errors and the banded/windowed registry family.

Every unsupported ``(problem, backend)`` pair must fail with a
:class:`CapabilityError` that names the *nearest supported alternative*
— a concrete pair the caller could switch to — and the window-family
variants (``banded_min``, ``banded_max``, ``windowed_min``) must be
reachable through :func:`repro.solve` wherever they are registered,
matching their sequential references exactly.
"""

import re

import numpy as np
import pytest

from repro.core.banded import banded_row_maxima, banded_row_minima
from repro.core.windowed import windowed_monge_row_minima
from repro.engine import CapabilityError, solve
from repro.engine.registry import BACKENDS, registry
from repro.monge.generators import random_inverse_monge, random_monge
from repro.pram.ledger import CostLedger
from repro.pram.machine import Pram
from repro.pram.models import CRCW_COMMON

UNSUPPORTED = [
    (p, b)
    for p in registry.problems()
    for b in BACKENDS
    if not registry.supports(p, b)
]


def random_band(m, n, rng, width=4):
    lo = np.sort(rng.integers(0, n + 1, size=m))
    hi = np.minimum(n, np.maximum.accumulate(np.minimum(lo + width, n)))
    hi = np.sort(hi)
    return lo.astype(np.int64), hi.astype(np.int64)


# --------------------------------------------------------------------- #
# nearest-alternative capability errors
# --------------------------------------------------------------------- #
def test_some_pairs_are_unsupported():
    # the window family keeps the matrix sparse, so the error path below
    # is genuinely exercised
    assert UNSUPPORTED


@pytest.mark.parametrize("problem,backend", UNSUPPORTED)
def test_unsupported_pair_names_nearest_alternative(problem, backend):
    with pytest.raises(CapabilityError) as excinfo:
        registry.lookup(problem, backend)
    msg = str(excinfo.value)
    assert "nearest supported alternative" in msg
    found = re.search(
        r"nearest supported alternative: \('([^']+)', '([^']+)'\)", msg
    )
    assert found, msg
    assert found.group(1) == problem
    # the suggestion is real: that pair actually resolves
    assert registry.supports(problem, found.group(2))
    assert registry.lookup(problem, found.group(2)) is not None


def test_unknown_problem_and_backend_keep_their_messages():
    with pytest.raises(CapabilityError, match="unknown problem"):
        registry.lookup("no_such_problem", "pram-crcw")
    with pytest.raises(CapabilityError, match="unknown backend"):
        registry.lookup("rowmin", "no_such_backend")


# --------------------------------------------------------------------- #
# banded variants via the engine front door
# --------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "backend", [b for b in BACKENDS if registry.supports("banded_min", b)]
)
def test_banded_min_via_solve_matches_reference(backend):
    rng = np.random.default_rng(3)
    a = random_monge(10, 12, rng, integer=True)
    lo, hi = random_band(10, 12, rng)
    res = solve("banded_min", (a, lo, hi), backend=backend)
    want_v, want_c = banded_row_minima(a, lo, hi)
    np.testing.assert_array_equal(res.values, want_v)
    np.testing.assert_array_equal(res.witnesses, want_c)
    assert res.problem == "banded_min"


@pytest.mark.parametrize(
    "backend", [b for b in BACKENDS if registry.supports("banded_max", b)]
)
def test_banded_max_via_solve_matches_reference(backend):
    rng = np.random.default_rng(4)
    a = random_inverse_monge(9, 11, rng, integer=True)
    lo, hi = random_band(9, 11, rng)
    res = solve("banded_max", (a, lo, hi), backend=backend)
    want_v, want_c = banded_row_maxima(a, lo, hi)
    np.testing.assert_array_equal(res.values, want_v)
    np.testing.assert_array_equal(res.witnesses, want_c)


def test_banded_backends_cover_prams_networks_and_sequential():
    for problem in ("banded_min", "banded_max"):
        for backend in BACKENDS:
            assert registry.supports(problem, backend), (problem, backend)


def test_banded_requires_window_triple():
    a = random_monge(6, 6, np.random.default_rng(0))
    with pytest.raises(TypeError, match="triple"):
        solve("banded_min", a, backend="pram-crcw")


# --------------------------------------------------------------------- #
# windowed variant: PRAM-only
# --------------------------------------------------------------------- #
def test_windowed_min_via_solve_matches_reference():
    rng = np.random.default_rng(5)
    m, n = 12, 10
    a = random_monge(m, n, rng, integer=True)
    base = np.cumsum(rng.integers(-2, 3, size=m))
    lo = np.clip(base, 0, n)
    hi = np.clip(base + rng.integers(0, 6, size=m), 0, n)
    res = solve("windowed_min", (a, lo, hi), backend="pram-crcw")
    machine = Pram(CRCW_COMMON, 1 << 40, ledger=CostLedger())
    want_v, want_c = windowed_monge_row_minima(machine, a, lo, hi)
    np.testing.assert_array_equal(res.values, want_v)
    np.testing.assert_array_equal(res.witnesses, want_c)


def test_windowed_min_unsupported_backends_point_to_pram():
    rng = np.random.default_rng(6)
    a = random_monge(5, 5, rng)
    lo = np.zeros(5, dtype=np.int64)
    hi = np.full(5, 5, dtype=np.int64)
    for backend in ("sequential", "hypercube"):
        if registry.supports("windowed_min", backend):
            continue
        with pytest.raises(CapabilityError, match="nearest supported alternative"):
            solve("windowed_min", (a, lo, hi), backend=backend)

