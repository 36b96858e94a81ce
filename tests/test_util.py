"""Bit/validation utilities."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro._util.bits import (
    ceil_div,
    ceil_log2,
    ceil_sqrt,
    floor_log2,
    is_power_of_two,
    iterated_log2,
    next_power_of_two,
)
from repro._util.ragged import offsets_of, ragged
from repro._util.validation import (
    as_float_matrix,
    as_index_vector,
    check_axis_lengths,
    require,
)


def test_ceil_div():
    assert ceil_div(10, 3) == 4
    assert ceil_div(9, 3) == 3
    assert ceil_div(0, 5) == 0
    with pytest.raises(ValueError):
        ceil_div(1, 0)


def test_ceil_log2():
    assert [ceil_log2(n) for n in (1, 2, 3, 4, 5, 8, 9)] == [0, 1, 2, 2, 3, 3, 4]
    with pytest.raises(ValueError):
        ceil_log2(0)


def test_floor_log2():
    assert [floor_log2(n) for n in (1, 2, 3, 4, 7, 8)] == [0, 1, 1, 2, 2, 3]
    with pytest.raises(ValueError):
        floor_log2(0)


def test_ceil_sqrt():
    assert [ceil_sqrt(n) for n in (0, 1, 2, 4, 5, 16, 17)] == [0, 1, 2, 2, 3, 4, 5]
    with pytest.raises(ValueError):
        ceil_sqrt(-1)


def test_power_of_two_helpers():
    assert is_power_of_two(1) and is_power_of_two(64)
    assert not is_power_of_two(0) and not is_power_of_two(12)
    assert next_power_of_two(1) == 1
    assert next_power_of_two(5) == 8
    with pytest.raises(ValueError):
        next_power_of_two(0)


def test_iterated_log2():
    assert iterated_log2(1) == 0
    assert iterated_log2(2) == 1
    assert iterated_log2(16) == 3
    assert iterated_log2(65536) == 4


@given(st.integers(1, 10**9))
def test_ceil_log2_is_tight(n):
    k = ceil_log2(n)
    assert 2**k >= n
    assert k == 0 or 2 ** (k - 1) < n


@given(st.integers(0, 10**12))
def test_ceil_sqrt_is_tight(n):
    s = ceil_sqrt(n)
    assert s * s >= n
    assert s == 0 or (s - 1) * (s - 1) < n


def test_require():
    require(True, "fine")
    with pytest.raises(ValueError, match="boom"):
        require(False, "boom")


def test_as_float_matrix():
    m = as_float_matrix([[1, 2], [3, 4]])
    assert m.dtype == np.float64 and m.flags.c_contiguous
    with pytest.raises(ValueError):
        as_float_matrix([1, 2, 3])
    with pytest.raises(ValueError):
        as_float_matrix([[np.nan, 1.0]])
    # inf is allowed (staircase arrays)
    as_float_matrix([[np.inf, 1.0]])


def test_check_axis_lengths():
    check_axis_lengths((3, 3, "rows"))
    with pytest.raises(ValueError, match="rows"):
        check_axis_lengths((2, 3, "rows"))


@pytest.mark.parametrize("counts", [
    [], [0], [0, 0, 0], [2, 0, 3], [1 << 40], [0, 1 << 40, 0, 5],
    np.arange(50, dtype=np.int32), np.array([3, 0, 1], dtype=np.uint8),
], ids=["empty", "zero", "zeros", "mixed", "large", "large-mixed", "int32", "uint8"])
def test_offsets_of_matches_cumsum(counts):
    want = np.concatenate([[0], np.cumsum(np.asarray(counts, dtype=np.int64))])
    got = offsets_of(counts)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("counts", [[], [0, 0], [2, 0, 3], [0, 7, 0, 1]])
def test_ragged_matches_reference(counts):
    local, owner, offsets = ragged(counts)
    want_owner = [g for g, c in enumerate(counts) for _ in range(c)]
    want_local = [k for c in counts for k in range(c)]
    np.testing.assert_array_equal(offsets, offsets_of(counts))
    assert owner.tolist() == want_owner and local.tolist() == want_local
    assert local.dtype == owner.dtype == np.int64


def test_as_index_vector():
    assert as_index_vector([0, 1, 3], "x").dtype == np.int64
    assert as_index_vector(np.array([1], dtype=np.uint16), "x").tolist() == [1]
    assert as_index_vector([], "x").size == 0
    for bad in ([0.0, 1.5], np.array(["1"]), np.array([True]), [1, None]):
        with pytest.raises(TypeError, match="^offsets must hold integers"):
            as_index_vector(bad, "offsets")
