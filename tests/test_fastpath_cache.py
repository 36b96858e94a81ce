"""Fused fast path + entry-evaluation cache: the bit-identity contract.

The wall-clock engine (fused grouped-extremum kernels, charge replay,
``CachedArray``) is only admissible because it is *invisible* to the
measured experiment: results AND ledger snapshots (rounds, work, peak
processors, per-phase stats) must be bit-identical with the fast path
or the cache on or off.  These tests pin that contract:

- hypothesis property: ``CachedArray`` returns bit-identical values to
  its base array under arbitrary batched access patterns, and its
  raw-evaluation accounting never exceeds the distinct-entry count;
- the grouped-minimum strategies agree fused vs. reference on fuzzed
  ragged inputs including ``±inf`` entries, ledger included;
- end-to-end: the Table 1.1–1.3 algorithms produce identical answers
  and identical ledger snapshots across all four (fast, cache)
  configurations — the acceptance invariant of BENCH_hotpath.json.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    monge_row_minima_pram,
    staircase_row_minima_pram,
    tube_minima_pram,
)
from repro.monge.arrays import CachedArray, ExplicitArray
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
# CachedArray: bit-identical values, eval accounting
# --------------------------------------------------------------------- #
@pytest.mark.slow
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cached_array_bit_identical(data):
    m = data.draw(st.integers(1, 10), label="m")
    n = data.draw(st.integers(1, 10), label="n")
    cells = data.draw(
        st.lists(
            st.one_of(
                st.integers(-3, 3).map(float),
                st.sampled_from([np.inf, -np.inf, 0.5, -0.25]),
            ),
            min_size=m * n,
            max_size=m * n,
        ),
        label="cells",
    )
    dense = np.array(cells, dtype=np.float64).reshape(m, n)
    plain = ExplicitArray(dense)
    cached = CachedArray(ExplicitArray(dense))

    n_batches = data.draw(st.integers(1, 5), label="n_batches")
    requested = 0
    distinct = set()
    for b in range(n_batches):
        size = data.draw(st.integers(0, 12), label=f"size{b}")
        rows = np.array(
            data.draw(st.lists(st.integers(0, m - 1), min_size=size, max_size=size),
                      label=f"rows{b}"),
            dtype=np.int64,
        )
        cols = np.array(
            data.draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size),
                      label=f"cols{b}"),
            dtype=np.int64,
        )
        expect = plain.eval(rows, cols)
        got = cached.eval(rows, cols)
        assert np.array_equal(expect, got), "cached values differ from base"
        requested += size
        distinct.update(zip(rows.tolist(), cols.tolist()))

    assert cached.eval_count == requested
    assert cached.raw_eval_count == len(distinct)  # each entry computed once
    assert cached.hits + cached.misses == requested


def test_cached_array_repeat_batch_hits():
    dense = np.arange(12, dtype=np.float64).reshape(3, 4)
    c = CachedArray(ExplicitArray(dense))
    rows = np.array([0, 1, 2, 0, 1]); cols = np.array([0, 1, 3, 0, 1])
    first = c.eval(rows, cols)
    assert c.raw_eval_count == 3  # (0,0) and (1,1) repeat within the batch
    second = c.eval(rows, cols)
    assert np.array_equal(first, second)
    assert c.raw_eval_count == 3  # nothing recomputed
    # hit/miss counters are per *request* vs. the pre-batch cache state:
    # all 5 first-batch requests missed (dedup only affects raw evals)
    assert c.misses == 5 and c.hits == 5
    c.clear()
    c.eval(rows, cols)
    assert c.raw_eval_count == 6  # recomputed after clear


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
    # (fused kernels, cache); reference first
    return [(False, False), (True, False), (False, True), (True, True)]


def _assert_invariant(run):
    """``run(machine, cache)`` -> result arrays; compare all configs."""
    baseline = None
    for fp, cache in _configs():
        with tier_context("fused" if fp else "reference"):
            machine, result = run(cache)
        snap = machine.ledger.snapshot()
        if baseline is None:
            baseline = (result, snap)
            continue
        for got, want in zip(result, baseline[0]):
            assert np.array_equal(got, want), (fp, cache)
        assert snap == baseline[1], ("ledger differs", fp, cache)


def test_rowmin_crcw_invariant():
    a = random_monge(96, 96, np.random.default_rng(1))

    def run(cache):
        m = _crcw(96)
        return m, monge_row_minima_pram(m, a, cache=cache)

    _assert_invariant(run)


def test_rowmin_crew_invariant():
    a = random_monge(80, 80, np.random.default_rng(2))

    def run(cache):
        m = _crew(80)
        return m, monge_row_minima_pram(m, a, cache=cache)

    _assert_invariant(run)


def test_staircase_invariant():
    a = random_staircase_monge(64, 64, np.random.default_rng(3))

    def run(cache):
        m = _crcw(64)
        return m, staircase_row_minima_pram(m, a, cache=cache)

    _assert_invariant(run)


def test_tube_invariant():
    c = random_composite(20, 20, 20, np.random.default_rng(4))

    def run(cache):
        m = _crcw(400)
        return m, tube_minima_pram(m, c, cache=cache)

    _assert_invariant(run)
