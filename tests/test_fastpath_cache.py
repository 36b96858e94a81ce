"""Fused fast path: the bit-identity contract.

The wall-clock engine (fused grouped-extremum kernels, charge replay)
is only admissible because it is *invisible* to the measured
experiment: results AND ledger snapshots (rounds, work, peak
processors, per-phase stats) must be bit-identical with the fast path
on or off.  These tests pin that contract:

- the grouped-minimum strategies agree fused vs. reference on fuzzed
  ragged inputs including ``±inf`` entries, ledger included;
- end-to-end: the Table 1.1–1.3 algorithms produce identical answers
  and identical ledger snapshots under both kernel tiers — the
  fused-kernel invariant (DESIGN.md §13).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import (
    monge_row_minima_pram,
    staircase_row_minima_pram,
    tube_minima_pram,
)
from repro.monge.arrays import ExplicitArray
from repro.monge.generators import (
    random_composite,
    random_monge,
    random_staircase_monge,
)
from repro.kernels import tier_context
from repro.pram.ledger import CostLedger
from repro.pram.machine import Pram
from repro.pram.models import CRCW_COMMON, CREW
from repro.pram.primitives import broadcast, grouped_min, replicate_by_counts
from repro.pram.scheduling import BrentPram


def _crcw(n: int) -> BrentPram:
    return BrentPram(CRCW_COMMON, 1 << 44, 8 * n, ledger=CostLedger())


def _crew(n: int) -> BrentPram:
    phys = max(1, int(n / math.log2(max(2.0, math.log2(max(2, n))))))
    return BrentPram(CREW, 1 << 44, phys, ledger=CostLedger())


# --------------------------------------------------------------------- #
# eval bounds checking (satellite: single fused check + fast path)
# --------------------------------------------------------------------- #
def test_eval_bounds_checked_and_unchecked():
    a = ExplicitArray(np.arange(6, dtype=np.float64).reshape(2, 3))
    for rows, cols in [([-1], [0]), ([2], [0]), ([0], [-1]), ([0], [3])]:
        with pytest.raises(IndexError):
            a.eval(np.array(rows), np.array(cols))
    rows = np.array([0, 1, 1]); cols = np.array([2, 0, 2])
    assert np.array_equal(a.eval(rows, cols), a.eval(rows, cols, checked=False))
    # empty requests never trip the check
    assert a.eval(np.empty(0, np.int64), np.empty(0, np.int64)).size == 0


# --------------------------------------------------------------------- #
# grouped-min strategies: fused == reference, ledger included
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("strategy", ["binary", "allpairs", "doubly_log"])
def test_grouped_min_fused_matches_reference(strategy):
    rng = np.random.default_rng(0xFA57)
    for trial in range(120):
        ng = int(rng.integers(1, 16))
        widths = rng.integers(0, 13, size=ng)
        offsets = np.zeros(ng + 1, dtype=np.int64)
        np.cumsum(widths, out=offsets[1:])
        vals = rng.integers(-4, 5, size=int(offsets[-1])).astype(np.float64)
        if vals.size and trial % 3 == 0:
            k = max(1, vals.size // 4)
            vals[rng.integers(0, vals.size, size=k)] = np.inf
        if vals.size and trial % 5 == 0:
            vals[rng.integers(0, vals.size)] = -np.inf
        out = {}
        for enabled in (True, False):
            m = Pram(CRCW_COMMON, 1 << 40, ledger=CostLedger())
            with tier_context("fused" if enabled else "reference"):
                v, i = grouped_min(m, vals.copy(), offsets, strategy=strategy)
            out[enabled] = (v, i, m.ledger.snapshot())
        assert np.array_equal(out[True][0], out[False][0]), (trial, strategy)
        assert np.array_equal(out[True][1], out[False][1]), (trial, strategy)
        assert out[True][2] == out[False][2], (trial, strategy, "ledger")


def test_scan_primitives_fused_match_reference():
    rng = np.random.default_rng(0xB0A7)
    for trial in range(60):
        k = int(rng.integers(0, 12))
        counts = rng.integers(0, 6, size=k)
        values = rng.normal(size=k)
        bsize = int(rng.integers(0, 9))
        out = {}
        for enabled in (True, False):
            m = Pram(CRCW_COMMON, 1 << 40, ledger=CostLedger())
            with tier_context("fused" if enabled else "reference"):
                r = replicate_by_counts(m, values.copy(), counts.copy())
                b = broadcast(m, 3.5, bsize)
            out[enabled] = (r, b, m.ledger.snapshot())
        assert np.array_equal(out[True][0], out[False][0]), trial
        assert np.array_equal(out[True][1], out[False][1]), trial
        assert out[True][2] == out[False][2], (trial, "ledger")


# --------------------------------------------------------------------- #
# end-to-end acceptance: results + ledger identical across all configs
# --------------------------------------------------------------------- #
def _configs():
    # kernel tiers; reference first
    return ["reference", "fused"]


def _assert_invariant(run):
    """``run()`` -> (machine, result arrays); compare all configs."""
    baseline = None
    for tier in _configs():
        with tier_context(tier):
            machine, result = run()
        snap = machine.ledger.snapshot()
        if baseline is None:
            baseline = (result, snap)
            continue
        for got, want in zip(result, baseline[0]):
            assert np.array_equal(got, want), tier
        assert snap == baseline[1], ("ledger differs", tier)


def test_rowmin_crcw_invariant():
    a = random_monge(96, 96, np.random.default_rng(1))

    def run():
        m = _crcw(96)
        return m, monge_row_minima_pram(m, a)

    _assert_invariant(run)


def test_rowmin_crew_invariant():
    a = random_monge(80, 80, np.random.default_rng(2))

    def run():
        m = _crew(80)
        return m, monge_row_minima_pram(m, a)

    _assert_invariant(run)


def test_staircase_invariant():
    a = random_staircase_monge(64, 64, np.random.default_rng(3))

    def run():
        m = _crcw(64)
        return m, staircase_row_minima_pram(m, a)

    _assert_invariant(run)


def test_tube_invariant():
    c = random_composite(20, 20, 20, np.random.default_rng(4))

    def run():
        m = _crcw(400)
        return m, tube_minima_pram(m, c)

    _assert_invariant(run)
