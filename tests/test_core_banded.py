"""Banded row extrema (monotone windows)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.banded import (
    banded_row_maxima,
    banded_row_maxima_pram,
    banded_row_minima,
    banded_row_minima_pram,
)
from repro.core.windowed import windowed_monge_row_minima
from repro.monge.generators import random_inverse_monge, random_monge
from repro.pram import CRCW_COMMON, CREW, CostLedger, Pram


def make(model=CRCW_COMMON):
    return Pram(model, 1 << 26, ledger=CostLedger())


def random_band(m, n, rng):
    lo = np.sort(rng.integers(0, n + 1, size=m))
    width = rng.integers(0, n + 1, size=m)
    hi = np.minimum(n, np.maximum.accumulate(np.minimum(lo + width, n)))
    hi = np.maximum(hi, lo - 0)  # hi may be < lo (empty rows allowed)
    hi = np.sort(hi)
    return lo.astype(np.int64), hi.astype(np.int64)


def brute_min(dense, lo, hi):
    m = dense.shape[0]
    vals = np.full(m, np.inf)
    cols = np.full(m, -1, dtype=np.int64)
    for i in range(m):
        if lo[i] < hi[i]:
            seg = dense[i, lo[i] : hi[i]]
            k = int(np.argmin(seg))
            vals[i], cols[i] = seg[k], lo[i] + k
    return vals, cols


@pytest.mark.parametrize("seed", range(12))
def test_sequential_banded_minima(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 40))
    n = int(rng.integers(1, 40))
    a = random_monge(m, n, rng, integer=bool(seed % 2))
    lo, hi = random_band(m, n, rng)
    bv, bc = brute_min(a.data, lo, hi)
    gv, gc = banded_row_minima(a, lo, hi)
    np.testing.assert_array_equal(gc, bc)
    finite = np.isfinite(bv)
    np.testing.assert_allclose(gv[finite], bv[finite])


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("model", [CRCW_COMMON, CREW])
def test_parallel_banded_minima(seed, model):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 40))
    n = int(rng.integers(1, 40))
    a = random_monge(m, n, rng, integer=True)
    lo, hi = random_band(m, n, rng)
    bv, bc = brute_min(a.data, lo, hi)
    gv, gc = banded_row_minima_pram(make(model), a, lo, hi)
    np.testing.assert_array_equal(gc, bc)


@pytest.mark.parametrize("seed", range(6))
def test_banded_maxima(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 30))
    n = int(rng.integers(1, 30))
    a = random_inverse_monge(m, n, rng, integer=True)
    lo, hi = random_band(m, n, rng)
    bv, bc = brute_min(-a.data, lo, hi)
    gv, gc = banded_row_maxima(a, lo, hi)
    np.testing.assert_array_equal(gc, bc)
    gv2, gc2 = banded_row_maxima_pram(make(), a, lo, hi)
    np.testing.assert_array_equal(gc2, bc)


def test_full_band_equals_unrestricted(rng):
    a = random_monge(20, 17, rng)
    lo = np.zeros(20, dtype=np.int64)
    hi = np.full(20, 17, dtype=np.int64)
    gv, gc = banded_row_minima(a, lo, hi)
    np.testing.assert_array_equal(gc, a.data.argmin(axis=1))


def test_all_empty_band(rng):
    a = random_monge(5, 5, rng)
    lo = np.full(5, 3, dtype=np.int64)
    hi = np.full(5, 3, dtype=np.int64)
    gv, gc = banded_row_minima(a, lo, hi)
    assert (gc == -1).all() and np.isinf(gv).all()
    gv, gc = banded_row_minima_pram(make(), a, lo, hi)
    assert (gc == -1).all()


def test_band_validation(rng):
    a = random_monge(4, 4, rng)
    with pytest.raises(ValueError, match="nondecreasing"):
        banded_row_minima(a, np.array([2, 1, 1, 1]), np.array([4, 4, 4, 4]))
    with pytest.raises(ValueError, match="within"):
        banded_row_minima(a, np.array([0, 0, 0, 0]), np.array([4, 4, 4, 5]))
    with pytest.raises(ValueError, match="shape"):
        banded_row_minima(a, np.array([0, 0]), np.array([4, 4]))


@pytest.mark.parametrize("side", ["lo", "hi"])
@pytest.mark.parametrize("bad", [
    np.array([0.0, 0.5, 1.0, 1.0]),   # float: used to truncate to [0, 0, 1, 1]
    np.array(["0", "0", "1", "1"]),   # strings: used to parse as integers
], ids=["float", "str"])
@pytest.mark.parametrize("solver", [
    lambda a, lo, hi: banded_row_minima(a, lo, hi),
    lambda a, lo, hi: banded_row_minima_pram(make(), a, lo, hi),
    lambda a, lo, hi: banded_row_maxima_pram(make(), a, lo, hi),
    lambda a, lo, hi: windowed_monge_row_minima(make(), a, lo, hi),
], ids=["seq", "pram", "pram_max", "windowed"])
def test_band_rejects_non_integer_bounds(rng, solver, bad, side):
    a = random_monge(4, 4, rng)
    lo, hi = np.array([0, 0, 1, 1]), np.array([2, 3, 4, 4])
    if side == "lo":
        lo = bad
    else:
        hi = bad
    with pytest.raises(TypeError, match=side):
        solver(a, lo, hi)


def test_zero_size_inputs(rng):
    gv, gc = banded_row_minima_pram(
        make(), np.empty((0, 4)), np.empty(0, dtype=int), np.empty(0, dtype=int)
    )
    assert gv.size == 0


@given(st.integers(0, 50_000))
@settings(max_examples=40, deadline=None)
def test_property_banded(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 25))
    n = int(rng.integers(1, 25))
    a = random_monge(m, n, rng, integer=True)
    lo, hi = random_band(m, n, rng)
    bv, bc = brute_min(a.data, lo, hi)
    gv, gc = banded_row_minima(a, lo, hi)
    np.testing.assert_array_equal(gc, bc)
    gv, gc = banded_row_minima_pram(make(), a, lo, hi)
    np.testing.assert_array_equal(gc, bc)
