"""Seeded differential fuzzing: every (problem, backend) pair vs brute force.

Each problem class gets >= 200 seeded random instances (sizes 1..12,
half integer-valued so ties are common), split across the CRCW / CREW /
sequential backends, plus small spot-checks on all three network
topologies.  For every case the engine's values AND leftmost-tie
witnesses must match a dense brute-force oracle exactly, and — where a
certifier is registered — ``certify=True`` must return a passing
certificate.  Zero divergences tolerated.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.engine import registry
from repro.monge.composite import product_argmax_brute, product_argmin_brute
from repro.monge.generators import (
    random_composite,
    random_inverse_monge,
    random_monge,
    random_staircase_monge,
)

NETWORKS = ("hypercube", "ccc", "shuffle-exchange")
CERTIFIED = ("rowmin", "staircase_min", "tube_min")

#: problem -> stable id mixed into each case's seed stream
_PID = {
    "rowmin": 1, "rowmax": 2, "rowmax_inverse": 3,
    "staircase_min": 4, "staircase_max": 5,
    "tube_min": 6, "tube_max": 7,
    "banded_min": 8, "banded_max": 9, "windowed_min": 10,
    "submatrix_max": 11,
}

#: Problems that run on the PRAMs and sequentially but on no network.
_NO_NETWORK = ("submatrix_max",)

#: (problem, backend) -> seed range.  Every problem class totals >= 200
#: seeded cases across its backends (asserted below), with a handful of
#: extra tiny cases per network topology where the problem runs there.
MATRIX = []
for _problem in _PID:
    if _problem == "windowed_min":  # PRAM-only (DESIGN.md §7)
        MATRIX += [(_problem, "pram-crcw", range(0, 110)),
                   (_problem, "pram-crew", range(110, 200))]
        continue
    MATRIX += [(_problem, "pram-crcw", range(0, 80)),
               (_problem, "pram-crew", range(80, 140)),
               (_problem, "sequential", range(140, 200))]
    if _problem in _NO_NETWORK:
        continue
    if not _problem.startswith("tube"):
        MATRIX += [(_problem, net, range(200 + 4 * k, 204 + 4 * k))
                   for k, net in enumerate(NETWORKS)]
    else:  # tube networks are slower: one spot-check each
        MATRIX += [(_problem, net, range(200 + k, 201 + k))
                   for k, net in enumerate(NETWORKS)]


# --------------------------------------------------------------------- #
# oracles — leftmost ties throughout
# --------------------------------------------------------------------- #
def _leftmost(dense, mode):
    m = dense.shape[0]
    cols = (dense.argmin(axis=1) if mode == "min" else dense.argmax(axis=1))
    cols = cols.astype(np.int64)
    return dense[np.arange(m), cols], cols


def _stair_min(dense):
    vals, cols = _leftmost(dense, "min")
    return vals, np.where(np.isinf(vals), np.int64(-1), cols)


def _stair_max(dense):
    masked = np.where(np.isinf(dense), -np.inf, dense)
    vals, cols = _leftmost(masked, "max")
    return vals, np.where(np.isneginf(vals), np.int64(-1), cols)


def _band_brute(dense, lo, hi, mode):
    m = dense.shape[0]
    fill = np.inf if mode == "min" else -np.inf
    vals = np.full(m, fill)
    cols = np.full(m, -1, dtype=np.int64)
    for i in range(m):
        if lo[i] < hi[i]:
            seg = dense[i, lo[i]:hi[i]]
            k = int(seg.argmin() if mode == "min" else seg.argmax())
            vals[i], cols[i] = seg[k], lo[i] + k
    return vals, cols


def _random_band(m, n, rng):
    lo = np.sort(rng.integers(0, n + 1, size=m))
    width = rng.integers(0, n + 1, size=m)
    hi = np.sort(np.minimum(n, lo + width))
    hi = np.maximum(hi, lo)
    return lo.astype(np.int64), hi.astype(np.int64)


def _rect_brute(dense, r0, r1, c0, c1):
    """Rectangle maximum with the column-major first maximizer: max
    value, then leftmost column, then topmost row."""
    sub = dense[r0:r1, c0:c1]
    k = int(np.argmax(sub.T))
    col, row = divmod(k, sub.shape[0])
    return np.float64(sub[row, col]), np.array(
        [r0 + row, c0 + col], dtype=np.int64
    )


def _random_rectangle(m, n, rng):
    r0 = int(rng.integers(0, m))
    r1 = int(rng.integers(r0 + 1, m + 1))
    c0 = int(rng.integers(0, n))
    c1 = int(rng.integers(c0 + 1, n + 1))
    return (r0, r1), (c0, c1)


def _random_windows(m, n, rng):
    base = np.cumsum(rng.integers(-2, 3, size=m))
    lo = np.clip(base, 0, n).astype(np.int64)
    hi = np.clip(base + rng.integers(0, 6, size=m), 0, n).astype(np.int64)
    return lo, np.maximum(hi, lo)


# --------------------------------------------------------------------- #
# case generator
# --------------------------------------------------------------------- #
def _case(problem, seed, small=False):
    """One seeded instance: ``(data, (want_values, want_witnesses))``."""
    rng = np.random.default_rng([seed, _PID[problem]])
    integer = bool(seed % 2)  # half the cases integer-valued -> real ties
    top = 7 if small else 13
    m, n = int(rng.integers(1, top)), int(rng.integers(1, top))

    if problem in ("rowmin", "rowmax"):
        a = random_monge(m, n, rng, integer=integer)
        return a, _leftmost(a.materialize(), problem[3:])
    if problem == "rowmax_inverse":
        a = random_inverse_monge(m, n, rng, integer=integer)
        return a, _leftmost(a.materialize(), "max")
    if problem in ("staircase_min", "staircase_max"):
        a = random_staircase_monge(m, n, rng, integer=integer)
        oracle = _stair_min if problem.endswith("min") else _stair_max
        return a, oracle(a.materialize())
    if problem in ("tube_min", "tube_max"):
        top3 = 5 if small else 7
        p, q, r = (int(rng.integers(1, top3)) for _ in range(3))
        c = random_composite(p, q, r, rng, integer=integer)
        oracle = product_argmin_brute if problem.endswith("min") else product_argmax_brute
        return c, oracle(c)
    if problem in ("banded_min", "banded_max"):
        mode = problem[7:]
        gen = random_monge if mode == "min" else random_inverse_monge
        a = gen(m, n, rng, integer=integer)
        lo, hi = _random_band(m, n, rng)
        return (a, lo, hi), _band_brute(a.materialize(), lo, hi, mode)
    if problem == "submatrix_max":
        a = random_monge(m, n, rng, integer=integer)
        rows, cols = _random_rectangle(m, n, rng)
        want = _rect_brute(a.materialize(), rows[0], rows[1], cols[0], cols[1])
        return (a, rows, cols), want
    assert problem == "windowed_min"
    a = random_monge(m, n, rng, integer=integer)
    lo, hi = _random_windows(m, n, rng)
    return (a, lo, hi), _band_brute(a.materialize(), lo, hi, "min")


def _check(problem, backend, seed, small=False):
    data, (want_v, want_w) = _case(problem, seed, small=small)
    certify = problem in CERTIFIED and seed % 5 == 0
    r = repro.solve(problem, data, backend=backend, certify=certify)
    label = f"{problem}/{backend}/seed={seed}"
    np.testing.assert_array_equal(np.asarray(r.values), want_v, err_msg=label)
    np.testing.assert_array_equal(np.asarray(r.witnesses), want_w, err_msg=label)
    if certify:
        assert r.certified, label


# --------------------------------------------------------------------- #
# the matrix
# --------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "problem,backend,seeds", MATRIX,
    ids=[f"{p}-{b}" for p, b, _ in MATRIX],
)
def test_differential_fuzz(problem, backend, seeds):
    for seed in seeds:
        _check(problem, backend, seed, small=backend in NETWORKS)


def test_case_budget_is_at_least_200_per_problem():
    for problem in _PID:
        total = sum(len(s) for p, _, s in MATRIX if p == problem)
        assert total >= 200, (problem, total)


def test_matrix_only_names_supported_pairs():
    for problem, backend, _ in MATRIX:
        assert registry.supports(problem, backend), (problem, backend)


# --------------------------------------------------------------------- #
# served mode: the same oracle through repro.serve (DESIGN.md §15)
# --------------------------------------------------------------------- #
def test_served_fuzz_class_matches_brute_oracle():
    """One fuzz class routed through :class:`QueryService` instead of
    ``repro.solve``: 40 seeded rowmin instances submitted concurrently
    (mixed shapes, so buckets form and run independently) must match
    the brute oracle on values AND leftmost-tie witnesses exactly —
    micro-batching is not allowed to perturb a single bit."""
    import asyncio

    from repro.serve import QueryService

    seeds = range(0, 40)
    cases = [_case("rowmin", seed) for seed in seeds]

    async def body():
        async with QueryService("pram-crcw") as svc:
            return await asyncio.gather(
                *(svc.solve("rowmin", data) for data, _ in cases)
            )

    results = asyncio.run(body())
    for seed, (_, (want_v, want_w)), r in zip(seeds, cases, results):
        label = f"rowmin/served/seed={seed}"
        np.testing.assert_array_equal(np.asarray(r.values), want_v, err_msg=label)
        np.testing.assert_array_equal(np.asarray(r.witnesses), want_w, err_msg=label)


# --------------------------------------------------------------------- #
# hypothesis: unseeded shrinkable properties on the flagship problems
# --------------------------------------------------------------------- #
_common = dict(
    m=st.integers(1, 10), n=st.integers(1, 10),
    seed=st.integers(0, 2**31 - 1), integer=st.booleans(),
)


@settings(max_examples=40, deadline=None)
@given(**_common)
def test_property_rowmin_backends_match_brute(m, n, seed, integer):
    a = random_monge(m, n, np.random.default_rng(seed), integer=integer)
    want_v, want_w = _leftmost(a.materialize(), "min")
    for backend in ("pram-crcw", "sequential"):
        r = repro.solve("rowmin", a, backend=backend)
        np.testing.assert_array_equal(np.asarray(r.values), want_v)
        np.testing.assert_array_equal(np.asarray(r.witnesses), want_w)


@settings(max_examples=30, deadline=None)
@given(**_common)
def test_property_staircase_min_matches_brute(m, n, seed, integer):
    a = random_staircase_monge(m, n, np.random.default_rng(seed), integer=integer)
    want_v, want_w = _stair_min(a.materialize())
    r = repro.solve("staircase_min", a)
    np.testing.assert_array_equal(np.asarray(r.values), want_v)
    np.testing.assert_array_equal(np.asarray(r.witnesses), want_w)


@settings(max_examples=30, deadline=None)
@given(**_common)
def test_property_submatrix_max_paths_agree(m, n, seed, integer):
    """One-shot ``solve`` and the prepared index answer every random
    rectangle identically to the brute oracle (leftmost-tie included)."""
    rng = np.random.default_rng(seed)
    a = random_monge(m, n, rng, integer=integer)
    handle = repro.prepare(a)
    dense = a.materialize()
    for _ in range(4):
        rows, cols = _random_rectangle(m, n, rng)
        want_v, want_w = _rect_brute(dense, rows[0], rows[1], cols[0], cols[1])
        one = repro.solve("submatrix_max", (a, rows, cols))
        via_index = handle.query(rows, cols)
        for r in (one, via_index):
            assert float(r.values) == float(want_v)
            np.testing.assert_array_equal(np.asarray(r.witnesses), want_w)


@settings(max_examples=25, deadline=None)
@given(p=st.integers(1, 6), q=st.integers(1, 6), r=st.integers(1, 6),
       seed=st.integers(0, 2**31 - 1), integer=st.booleans())
def test_property_tube_min_matches_brute(p, q, r, seed, integer):
    c = random_composite(p, q, r, np.random.default_rng(seed), integer=integer)
    want_v, want_w = product_argmin_brute(c)
    res = repro.solve("tube_min", c)
    np.testing.assert_array_equal(np.asarray(res.values), want_v)
    np.testing.assert_array_equal(np.asarray(res.witnesses), want_w)
