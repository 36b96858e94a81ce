"""Theorem 2.3: parallel staircase-Monge row minima (Table 1.2)."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.staircase_network import staircase_row_minima_network
from repro.core.staircase_pram import (
    staircase_row_minima_batch,
    staircase_row_minima_pram,
)
from repro.monge.arrays import ExplicitArray, StaircaseArray
from repro.monge.generators import (
    random_monge,
    random_staircase_monge,
)
from repro.pram import CRCW_COMMON, CREW, CostLedger, Pram
from repro.pram.scheduling import BrentPram


def make(model=CRCW_COMMON, p=1 << 26):
    return Pram(model, p, ledger=CostLedger())


def brute(dense):
    m = dense.shape[0]
    c = dense.argmin(axis=1)
    v = dense[np.arange(m), c]
    return v, np.where(np.isinf(v), -1, c)


@pytest.mark.parametrize("model", [CRCW_COMMON, CREW])
@pytest.mark.parametrize("seed", range(6))
def test_matches_bruteforce(seed, model):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 60))
    n = int(rng.integers(1, 60))
    a = random_staircase_monge(m, n, rng, integer=bool(seed % 2))
    bv, bc = brute(a.materialize())
    v, c = staircase_row_minima_pram(make(model), a)
    np.testing.assert_array_equal(c, bc)
    finite = np.isfinite(bv)
    np.testing.assert_allclose(v[finite], bv[finite])
    assert np.isinf(v[~finite]).all()


def test_plain_monge_input(rng):
    """A full Monge array is a staircase-Monge array (f = n)."""
    a = random_monge(30, 30, rng)
    v, c = staircase_row_minima_pram(make(), a.data)
    np.testing.assert_array_equal(c, a.data.argmin(axis=1))


def test_all_infinite_rows():
    base = ExplicitArray(np.zeros((6, 5)))
    st_arr = StaircaseArray(base, np.array([5, 3, 2, 0, 0, 0]))
    v, c = staircase_row_minima_pram(make(), st_arr)
    assert c.tolist()[:3] == [0, 0, 0]
    assert (c[3:] == -1).all() and np.isinf(v[3:]).all()


def test_non_staircase_infinity_pattern_raises():
    """An ``∞`` entry that does not spread right and down is rejected
    before any charge, on the PRAM and the network entry points."""
    a = np.zeros((4, 4))
    a[0, 0] = np.inf
    m = make()
    with pytest.raises(ValueError):
        staircase_row_minima_pram(m, a)
    assert m.ledger.rounds == 0
    with pytest.raises(ValueError):
        staircase_row_minima_network(a, "hypercube")


def test_staircase_input_solves_without_warnings():
    a = random_staircase_monge(10, 10, np.random.default_rng(1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals, cols = staircase_row_minima_pram(make(), a)
    want_vals, want_cols = brute(a.materialize())
    np.testing.assert_array_equal(cols, want_cols)
    np.testing.assert_array_equal(vals, want_vals)


def test_strictly_decreasing_boundary(rng):
    """Adversarial: every row has a distinct boundary (max staircase)."""
    n = 40
    a = random_staircase_monge(n, n, rng, boundary=np.arange(n, 0, -1))
    bv, bc = brute(a.materialize())
    v, c = staircase_row_minima_pram(make(), a)
    np.testing.assert_array_equal(c, bc)


def test_single_column(rng):
    a = random_staircase_monge(20, 1, rng)
    bv, bc = brute(a.materialize())
    v, c = staircase_row_minima_pram(make(), a)
    np.testing.assert_array_equal(c, bc)


def test_single_row(rng):
    a = random_staircase_monge(1, 20, rng)
    bv, bc = brute(a.materialize())
    v, c = staircase_row_minima_pram(make(), a)
    np.testing.assert_array_equal(c, bc)


def test_constant_finite_part_leftmost():
    """All-equal finite entries: leftmost column must win everywhere."""
    base = ExplicitArray(np.zeros((8, 8)))
    st_arr = StaircaseArray(base, np.array([8, 8, 6, 6, 4, 3, 2, 1]))
    v, c = staircase_row_minima_pram(make(), st_arr)
    assert (c == 0).all()


def test_empty_input():
    v, c = staircase_row_minima_pram(make(), np.empty((0, 4)))
    assert v.size == 0


def _batch_brute(dense, f, rs, rcount, cs, ccount):
    """Leftmost minima of each subproblem row over its finite columns."""
    vals, cols = [], []
    for r0, rc, c0, cc in zip(rs, rcount, cs, ccount):
        for row in range(r0, r0 + rc):
            hi = min(f[row], c0 + cc)
            seg = dense[row, c0:hi] if hi > c0 else np.empty(0)
            k = int(np.argmin(seg)) if seg.size else -1
            vals.append(seg[k] if seg.size else np.inf)
            cols.append(c0 + k if seg.size and np.isfinite(seg[k]) else -1)
    return np.array(vals), np.array(cols)


@pytest.mark.parametrize("model", [CRCW_COMMON, CREW])
def test_batch_matches_bruteforce(model):
    a = random_staircase_monge(20, 15, np.random.default_rng(4))
    sub = ([0, 5, 12], [5, 7, 8], [0, 4, 9], [15, 11, 6])
    v, c = staircase_row_minima_batch(make(model), a, a.boundary, *sub)
    bv, bc = _batch_brute(a.materialize(), a.boundary, *sub)
    np.testing.assert_array_equal(c, bc)
    np.testing.assert_array_equal(v, bv)


_GOOD = dict(rs=[0, 10], rcount=[10, 10], cs=[0, 3], ccount=[15, 12])
_F_EDITS = {
    "short": lambda f: f[:-1],
    "negative": lambda f: np.where(np.arange(f.size) == 3, -1, f),
    "wide": lambda f: np.where(np.arange(f.size) == 3, 16, f),
    "float": lambda f: f.astype(float),
}


@pytest.mark.parametrize("bad,error,message", [
    pytest.param(dict(cs=[-3, 3], ccount=[18, 12]), ValueError, "^cs ", id="negative-cs"),
    pytest.param(dict(rs=[0.5, 10]), TypeError, "^rs ", id="float-rs"),
    pytest.param(dict(ccount=["15", "12"]), TypeError, "^ccount ", id="str-ccount"),
    pytest.param(dict(rcount=[10]), ValueError, "^rcount ", id="ragged-lengths"),
    pytest.param(dict(rs=[[0, 10]]), ValueError, "^rs ", id="2d-rs"),
    pytest.param(dict(rcount=[10, -1]), ValueError, "^rcount ", id="negative-rcount"),
    pytest.param(dict(ccount=[15, -2]), ValueError, "^ccount ", id="negative-ccount"),
    pytest.param(dict(rs=[0, 15]), ValueError, r"^rs \+ rcount ", id="rows-past-m"),
    pytest.param(dict(f="short"), ValueError, "^f ", id="short-f"),
    pytest.param(dict(f="negative"), ValueError, "^f ", id="negative-f"),
    pytest.param(dict(f="wide"), ValueError, "^f ", id="f-past-n"),
    pytest.param(dict(f="float"), TypeError, "^f ", id="float-f"),
])
def test_batch_rejects_malformed_subproblems_before_charging(bad, error, message):
    """``staircase_row_minima_batch`` is public (the empty-rectangle
    application calls it): malformed subproblems are refused by name
    before any charge, not run on garbage or failed inside NumPy."""
    a = random_staircase_monge(20, 15, np.random.default_rng(4))
    args = {**_GOOD, **bad}
    f = _F_EDITS.get(args.pop("f", None), lambda f: f)(a.boundary.copy())
    pram = make()
    before = pram.ledger.snapshot()
    with pytest.raises(error, match=message):
        staircase_row_minima_batch(
            pram, a, f, args["rs"], args["rcount"], args["cs"], args["ccount"]
        )
    assert pram.ledger.snapshot() == before


def test_round_growth_logarithmic():
    """Rounds grow ~ lg n (measured on an unconstrained CRCW machine;
    with a hard n-processor budget Brent slicing adds the work/n factor,
    which our feasible-region widths inflate by ~n^0.2 — see
    EXPERIMENTS.md's processor-budget deviation note)."""
    rounds = {}
    for n in (64, 1024):
        a = random_staircase_monge(n, n, np.random.default_rng(n))
        pram = Pram(CRCW_COMMON, 1 << 45, ledger=CostLedger())
        v, c = staircase_row_minima_pram(pram, a)
        rounds[n] = pram.ledger.rounds
    # lg ratio is 10/6 = 1.67; allow constant jitter but rule out
    # polynomial growth (sqrt would be 4x)
    assert rounds[1024] <= 3.4 * rounds[64]


def test_crew_variant_runs_within_budget():
    n = 256
    a = random_staircase_monge(n, n, np.random.default_rng(0))
    phys = max(1, int(n / math.log2(math.log2(n))))
    pram = BrentPram(CREW, 1 << 40, phys, ledger=CostLedger())
    v, c = staircase_row_minima_pram(pram, a)
    bv, bc = brute(a.materialize())
    np.testing.assert_array_equal(c, bc)
    assert pram.ledger.peak_processors <= phys


@given(st.integers(0, 100_000))
@settings(max_examples=40, deadline=None)
def test_property_random_staircases(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 40))
    n = int(rng.integers(1, 40))
    a = random_staircase_monge(m, n, rng, integer=True)
    bv, bc = brute(a.materialize())
    v, c = staircase_row_minima_pram(make(), a)
    np.testing.assert_array_equal(c, bc)
