"""Generic windowed Monge minima dispatcher."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.windowed import _split_runs, windowed_monge_row_minima
from repro.engine import Session
from repro.monge.arrays import SearchArray
from repro.monge.generators import random_monge
from repro.pram import CRCW_COMMON, CREW, CostLedger, Pram


def machine(model=CRCW_COMMON):
    return Pram(model, 1 << 40, ledger=CostLedger())


def brute(dense, lo, hi):
    m = dense.shape[0]
    vals = np.full(m, np.inf)
    cols = np.full(m, -1, dtype=np.int64)
    for i in range(m):
        if lo[i] < hi[i]:
            seg = dense[i, lo[i] : hi[i]]
            k = int(np.argmin(seg))
            vals[i], cols[i] = seg[k], lo[i] + k
    return vals, cols


def test_split_runs_classification():
    lo = np.array([0, 1, 2, 2, 1, 0])
    hi = np.array([3, 4, 5, 4, 3, 2])
    runs = _split_runs(lo, hi)
    kinds = [k for _, _, k in runs]
    assert kinds[0] == "banded"
    assert "staircase" in kinds
    covered = sorted((r0, r1) for r0, r1, _ in runs)
    assert covered[0][0] == 0 and covered[-1][1] == 6
    # on random windows the runs tile [0, m) in order, and each is
    # banded (both bounds nondecreasing) or staircase (hi nonincreasing)
    for seed in range(8):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 60))
        lo = rng.integers(0, 20, size=m)
        hi = lo + rng.integers(0, 20, size=m)
        runs = _split_runs(lo, hi)
        assert [r0 for r0, _, _ in runs] == [0] + [r1 for _, r1, _ in runs[:-1]]
        assert runs[-1][1] == m and all(r0 < r1 for r0, r1, _ in runs)
        for r0, r1, kind in runs:
            if kind == "banded":
                assert (np.diff(lo[r0:r1]) >= 0).all() and (np.diff(hi[r0:r1]) >= 0).all()
            else:
                assert kind == "staircase" and r1 - r0 >= 2
                assert (np.diff(hi[r0:r1]) <= 0).all()


@pytest.mark.parametrize("pattern", ["nondecreasing", "nonincreasing", "vee", "wedge"])
@pytest.mark.parametrize("seed", range(4))
def test_windowed_matches_brute(seed, pattern):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 40))
    n = int(rng.integers(2, 40))
    a = random_monge(m, n, rng, integer=True)
    w = rng.integers(1, n + 1)
    base = np.linspace(0, n - 1, m).astype(np.int64)
    if pattern == "nonincreasing":
        base = base[::-1].copy()
    elif pattern == "vee":
        base = np.abs(base - base.max() // 2)
    elif pattern == "wedge":
        base = base.max() // 2 - np.abs(base - base.max() // 2)
    lo = np.clip(base, 0, n)
    hi = np.clip(base + w, 0, n)
    bv, bc = brute(a.data, lo, hi)
    gv, gc = windowed_monge_row_minima(machine(), a, lo, hi)
    np.testing.assert_array_equal(gc, bc)


def test_windowed_crew_machine(rng):
    a = random_monge(20, 20, rng, integer=True)
    lo = np.arange(20) // 2
    hi = lo + 8
    bv, bc = brute(a.data, lo, np.clip(hi, 0, 20))
    gv, gc = windowed_monge_row_minima(machine(CREW), a, lo, hi)
    np.testing.assert_array_equal(gc, bc)


def test_windowed_empty_and_full(rng):
    a = random_monge(6, 6, rng)
    gv, gc = windowed_monge_row_minima(machine(), a, np.full(6, 3), np.full(6, 3))
    assert (gc == -1).all()
    gv, gc = windowed_monge_row_minima(machine(), a, np.zeros(6, int), np.full(6, 6))
    np.testing.assert_array_equal(gc, a.data.argmin(axis=1))


def test_windowed_validates_shapes(rng):
    a = random_monge(4, 4, rng)
    with pytest.raises(ValueError):
        windowed_monge_row_minima(machine(), a, np.zeros(3, int), np.full(4, 4))


def test_windowed_search_makes_no_checked_evaluations(monkeypatch):
    """Every index a windowed search evaluates is in range by
    construction, so none of its evaluations pays for validation."""
    rng = np.random.default_rng(64)
    a = random_monge(64, 64, rng)
    base = np.cumsum(rng.integers(-3, 4, size=64)) + 16
    lo = np.clip(base, 0, 64)
    hi = np.maximum(np.clip(base + rng.integers(0, 32, size=64), 0, 64), lo)
    kinds = {kind for _, _, kind in _split_runs(lo, hi)}
    assert kinds == {"banded", "staircase"}
    checked_calls = []
    plain_eval = SearchArray.eval

    def spy(self, rows, cols, checked=True):
        if checked:
            checked_calls.append(type(self).__name__)
        return plain_eval(self, rows, cols, checked)

    monkeypatch.setattr(SearchArray, "eval", spy)
    got = Session("pram-crcw").solve("windowed_min", (a, lo, hi))
    monkeypatch.undo()
    assert checked_calls == []
    bv, bc = brute(a.data, lo, hi)
    np.testing.assert_array_equal(got.witnesses, bc)
    np.testing.assert_array_equal(got.values, bv)


def test_windowed_zero_size():
    gv, gc = windowed_monge_row_minima(
        machine(), np.empty((0, 4)), np.empty(0, int), np.empty(0, int)
    )
    assert gv.size == 0


@given(st.integers(0, 60_000))
@settings(max_examples=40, deadline=None)
def test_windowed_property(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 25))
    n = int(rng.integers(1, 25))
    a = random_monge(m, n, rng, integer=True)
    # arbitrary windows, but piecewise monotone-ish via random walk
    lo = np.clip(np.cumsum(rng.integers(-2, 3, size=m)) + n // 2, 0, n)
    hi = np.clip(lo + rng.integers(0, n + 1), 0, n)
    bv, bc = brute(a.data, lo, hi)
    gv, gc = windowed_monge_row_minima(machine(), a, lo, hi)
    np.testing.assert_array_equal(gc, bc)
