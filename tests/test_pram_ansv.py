"""All-nearest-smaller-values [BBG+89]."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util.bits import ceil_log2
from repro.pram import CREW, CostLedger, Pram
from repro.pram.ansv import (
    all_nearest_smaller_values,
    nearest_smaller_left,
    nearest_smaller_left_threshold,
    nearest_smaller_right,
)


def make():
    return Pram(CREW, 1 << 20, ledger=CostLedger())


def brute_left(x):
    out = []
    for i in range(len(x)):
        j = i - 1
        while j >= 0 and x[j] >= x[i]:
            j -= 1
        out.append(j)
    return np.array(out)


def brute_right(x):
    n = len(x)
    out = []
    for i in range(n):
        j = i + 1
        while j < n and x[j] >= x[i]:
            j += 1
        out.append(j if j < n else -1)
    return np.array(out)


def test_known_example():
    x = np.array([3.0, 1.0, 4.0, 1.5, 5.0, 0.5])
    np.testing.assert_array_equal(nearest_smaller_left(make(), x), [-1, -1, 1, 1, 3, -1])
    np.testing.assert_array_equal(nearest_smaller_right(make(), x), [1, 5, 3, 5, 5, -1])


@pytest.mark.parametrize("positions", [
    [2.7, 1.2],                  # used to answer for positions 2 and 1
    np.array(["2", "1"]),
], ids=["float", "str"])
def test_threshold_query_rejects_non_integer_positions(positions):
    pram = make()
    with pytest.raises(TypeError, match="positions"):
        nearest_smaller_left_threshold(pram, [1.0, 5.0, 0.0], [2.0, 2.0], positions)
    assert pram.ledger.rounds == 0


def test_threshold_query_accepts_integer_lists():
    got = nearest_smaller_left_threshold(make(), [1.0, 5.0, 0.0], [2.0, 2.0], [2, 1])
    np.testing.assert_array_equal(got, [0, 0])


def test_sorted_ascending():
    x = np.arange(10.0)
    np.testing.assert_array_equal(nearest_smaller_left(make(), x), np.arange(10) - 1)


def test_sorted_descending():
    x = np.arange(10.0)[::-1].copy()
    np.testing.assert_array_equal(nearest_smaller_left(make(), x), np.full(10, -1))
    expected_right = np.concatenate([np.arange(1, 10), [-1]])
    np.testing.assert_array_equal(nearest_smaller_right(make(), x), expected_right)


def test_all_equal_strict():
    x = np.ones(8)
    np.testing.assert_array_equal(nearest_smaller_left(make(), x), np.full(8, -1))
    np.testing.assert_array_equal(nearest_smaller_right(make(), x), np.full(8, -1))


def test_empty_and_singleton():
    assert nearest_smaller_left(make(), np.array([])).size == 0
    np.testing.assert_array_equal(nearest_smaller_left(make(), np.array([5.0])), [-1])


def test_both_directions_wrapper(rng):
    x = rng.normal(size=64)
    left, right = all_nearest_smaller_values(make(), x)
    np.testing.assert_array_equal(left, brute_left(x))
    np.testing.assert_array_equal(right, brute_right(x))


def test_round_count_logarithmic():
    n = 4096
    pram = make()
    nearest_smaller_left(pram, np.random.default_rng(3).normal(size=n))
    # sparse table (lg n) + descent (lg n + 1) + epilogue
    assert pram.ledger.rounds <= 3 * ceil_log2(n) + 5


@given(st.lists(st.integers(0, 8), min_size=1, max_size=120))
@settings(max_examples=80, deadline=None)
def test_matches_bruteforce(xs):
    x = np.array(xs, dtype=float)
    np.testing.assert_array_equal(nearest_smaller_left(make(), x), brute_left(x))
    np.testing.assert_array_equal(nearest_smaller_right(make(), x), brute_right(x))


# --------------------------------------------------------------------- #
# threshold form (Lemma 2.2 bracketing, as the staircase recursion calls it)
# --------------------------------------------------------------------- #
def brute_threshold(x, thresholds, positions):
    """Largest ``j < positions[q]`` with ``x[j] < thresholds[q]``, else -1."""
    out = []
    for t, p in zip(thresholds, positions):
        j = p - 1
        while j >= 0 and not x[j] < t:
            j -= 1
        out.append(j)
    return np.array(out, dtype=np.int64)


_ENTRY = st.one_of(st.integers(0, 6).map(float), st.just(np.inf))


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_threshold_form_matches_bruteforce(data):
    x = np.array(data.draw(st.lists(_ENTRY, min_size=1, max_size=70)))
    n = x.size
    nq = data.draw(st.integers(1, 40))
    # thresholds equal to entries are common: the comparison is strict
    thresholds = np.array(data.draw(st.lists(_ENTRY, min_size=nq, max_size=nq)))
    positions = np.array(
        data.draw(st.lists(st.integers(0, n), min_size=nq, max_size=nq)), dtype=np.int64
    )
    positions[0] = data.draw(st.sampled_from([0, n]))
    got = nearest_smaller_left_threshold(make(), x, thresholds, positions)
    np.testing.assert_array_equal(got, brute_threshold(x, thresholds, positions))


def test_threshold_form_all_infinite_entries():
    x = np.full(9, np.inf)
    got = nearest_smaller_left_threshold(
        make(), x, np.array([np.inf, 1.0, np.inf]), np.array([9, 9, 0])
    )
    np.testing.assert_array_equal(got, [-1, -1, -1])


def test_threshold_form_pinned_n4096():
    """Answers match the oracle and the ledger is the pinned one: one
    round per sparse-table level, one per descent step, one epilogue."""
    n = 4096
    rng = np.random.default_rng(11)
    x = rng.normal(size=n)
    x[rng.random(n) < 0.1] = np.inf
    thresholds = rng.normal(size=n)
    thresholds[::7] = x[rng.integers(0, n, size=thresholds[::7].size)]
    positions = rng.integers(0, n + 1, size=n)
    positions[:2] = [0, n]
    pram = make()
    got = nearest_smaller_left_threshold(pram, x, thresholds, positions)
    below = (x[None, :] < thresholds[:, None]) & (np.arange(n)[None, :] < positions[:, None])
    want = np.where(below.any(axis=1), n - 1 - np.argmax(below[:, ::-1], axis=1), -1)
    np.testing.assert_array_equal(got, want)
    assert pram.ledger.snapshot() == {
        "rounds": 26, "work": 98318, "peak_processors": 4096, "phases": {},
    }
