"""Array wrappers: evaluation, views, staircase semantics."""

import numpy as np
import pytest

from repro.monge.arrays import (
    ExplicitArray,
    ImplicitArray,
    MongeComposite,
    StaircaseArray,
    as_search_array,
)


def test_explicit_eval_and_getitem():
    a = ExplicitArray([[1.0, 2.0], [3.0, 4.0]])
    assert a.shape == (2, 2)
    assert a[1, 0] == 3.0
    np.testing.assert_array_equal(a.row(1), [3.0, 4.0])
    np.testing.assert_array_equal(a.materialize(), [[1, 2], [3, 4]])


def test_eval_counts_evaluations():
    a = ExplicitArray(np.ones((4, 4)))
    a.eval(np.arange(4), np.arange(4))
    assert a.eval_count == 4
    a.materialize()
    assert a.eval_count == 20


def test_eval_broadcasts():
    a = ExplicitArray(np.arange(12.0).reshape(3, 4))
    got = a.eval(np.arange(3)[:, None], np.arange(4)[None, :])
    np.testing.assert_array_equal(got, a.data)


def test_eval_bounds_checked():
    a = ExplicitArray(np.ones((2, 2)))
    with pytest.raises(IndexError):
        a.eval([2], [0])
    with pytest.raises(IndexError):
        a.eval([0], [-1])


def test_nan_rejected_inf_allowed():
    with pytest.raises(ValueError):
        ExplicitArray([[np.nan]])
    ExplicitArray([[np.inf]])


def test_implicit_array():
    f = ImplicitArray(lambda r, c: (r * 10 + c).astype(float), (3, 5))
    assert f[2, 4] == 24.0
    assert f.shape == (3, 5)


def test_views_transpose_negate_flip():
    a = ExplicitArray(np.arange(6.0).reshape(2, 3))
    np.testing.assert_array_equal(a.transpose().materialize(), a.data.T)
    np.testing.assert_array_equal(a.negate().materialize(), -a.data)
    np.testing.assert_array_equal(a.flip_cols().materialize(), a.data[:, ::-1])
    np.testing.assert_array_equal(a.flip_rows().materialize(), a.data[::-1])


def test_submatrix_view():
    a = ExplicitArray(np.arange(20.0).reshape(4, 5))
    sub = a.submatrix(np.array([1, 3]), np.array([0, 2, 4]))
    np.testing.assert_array_equal(sub.materialize(), a.data[np.ix_([1, 3], [0, 2, 4])])
    with pytest.raises(IndexError):
        a.submatrix(np.array([4]), np.array([0]))


def test_staircase_masks_entries():
    base = ExplicitArray(np.zeros((3, 4)))
    st = StaircaseArray(base, np.array([4, 2, 0]))
    d = st.materialize()
    assert np.isfinite(d[0]).all()
    assert np.isfinite(d[1, :2]).all() and np.isinf(d[1, 2:]).all()
    assert np.isinf(d[2]).all()


def test_staircase_boundary_validation():
    base = ExplicitArray(np.zeros((3, 4)))
    with pytest.raises(ValueError, match="nonincreasing"):
        StaircaseArray(base, np.array([2, 3, 1]))
    with pytest.raises(ValueError):
        StaircaseArray(base, np.array([5, 2, 1]))  # > n
    with pytest.raises(ValueError):
        StaircaseArray(base, np.array([2, 1]))  # wrong length


def test_staircase_accepts_plain_matrix_base():
    st = StaircaseArray(np.zeros((2, 2)), np.array([2, 1]))
    assert st[1, 0] == 0.0 and np.isinf(st[1, 1])


def test_composite_shapes_and_eval():
    D = ExplicitArray(np.arange(6.0).reshape(2, 3))
    E = ExplicitArray(np.arange(12.0).reshape(3, 4))
    c = MongeComposite(D, E)
    assert c.shape == (2, 3, 4)
    assert c.eval(1, 2, 3) == D.data[1, 2] + E.data[2, 3]
    with pytest.raises(ValueError):
        MongeComposite(D, ExplicitArray(np.ones((4, 4))))


def test_composite_slab_is_d_plus_e():
    rng = np.random.default_rng(5)
    D = ExplicitArray(rng.normal(size=(3, 4)))
    E = ExplicitArray(rng.normal(size=(4, 5)))
    c = MongeComposite(D, E)
    slab = c.slab(2, None)
    expect = D.data[2][None, :] + E.data.T  # (r, q)
    np.testing.assert_allclose(slab.materialize(), expect)


def test_as_search_array_passthrough():
    a = ExplicitArray(np.ones((2, 2)))
    assert as_search_array(a) is a
    b = as_search_array([[1, 2]])
    assert isinstance(b, ExplicitArray)


def test_float_and_string_indices_are_rejected():
    """An index must hold integers: a float is never truncated, and a
    string never parsed, into an index."""
    a = ExplicitArray(np.arange(9.0).reshape(3, 3))
    with pytest.raises(TypeError, match="boundary"):
        StaircaseArray(a, [2.9, 1.5, 0.2])
    with pytest.raises(TypeError, match="rows"):
        a.eval([0.7, 2.2], [1, 0])
    with pytest.raises(TypeError, match="cols"):
        a.eval([0, 2], [1.9, 0.1])
    with pytest.raises(TypeError, match="rows"):
        a.eval(["1"], [0])
    with pytest.raises(TypeError):
        a[1.9, 0.2]
    with pytest.raises(TypeError):
        a.row(1.5)
    with pytest.raises(TypeError, match="rows"):
        a.submatrix([0.5, 1.5], [0, 1])
    with pytest.raises(TypeError, match="cols"):
        a.submatrix([0, 1], ["0"])
    with pytest.raises(TypeError):
        MongeComposite(a, a).eval([1.7], [0.2], [2.9])
    # integers of any width pass, as do Python ints and empty lists
    assert a[np.int32(1), np.uint8(2)] == 5.0
    np.testing.assert_array_equal(a.eval(np.array([2], dtype=np.uint16), [0]), [6.0])
    assert a.eval([], []).size == 0
    assert StaircaseArray(a, np.array([3, 2, 0], dtype=np.int32)).boundary.dtype == np.int64
    assert MongeComposite(a, a).eval(1, 2, 0) == 5.0 + 6.0
