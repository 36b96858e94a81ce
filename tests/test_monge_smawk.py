"""SMAWK: correctness, tie-breaking, and linear evaluation counts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.monge.arrays import ExplicitArray, ImplicitArray
from repro.monge.generators import (
    chain_distance_array,
    convex_position_points,
    random_inverse_monge,
    random_monge,
    random_staircase_monge,
)
from repro.monge.smawk import row_maxima, row_minima, smawk


def brute_leftmost_minima(dense):
    cols = dense.argmin(axis=1)
    return dense[np.arange(dense.shape[0]), cols], cols


def brute_leftmost_maxima(dense):
    cols = dense.argmax(axis=1)
    return dense[np.arange(dense.shape[0]), cols], cols


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (7, 7), (16, 5), (5, 16), (33, 40)])
def test_smawk_matches_bruteforce(seed, shape):
    rng = np.random.default_rng(seed)
    a = random_monge(*shape, rng)
    v, c = smawk(a)
    bv, bc = brute_leftmost_minima(a.data)
    np.testing.assert_allclose(v, bv)
    np.testing.assert_array_equal(c, bc)


@pytest.mark.parametrize("seed", range(8))
def test_smawk_leftmost_on_ties(seed):
    rng = np.random.default_rng(seed)
    a = random_monge(12, 12, rng, integer=True)  # many duplicate values
    v, c = smawk(a)
    bv, bc = brute_leftmost_minima(a.data)
    np.testing.assert_array_equal(c, bc)


def test_smawk_constant_array_all_leftmost():
    a = ExplicitArray(np.zeros((5, 7)))
    v, c = smawk(a)
    assert (v == 0).all() and (c == 0).all()


def test_smawk_minima_positions_monotone(rng):
    a = random_monge(30, 30, rng)
    _, c = smawk(a)
    assert (np.diff(c) >= 0).all()


def test_smawk_rejects_zero_columns():
    with pytest.raises(ValueError):
        smawk(ExplicitArray(np.empty((3, 0))))


def test_smawk_empty_rows():
    v, c = smawk(ExplicitArray(np.empty((0, 3))))
    assert v.size == 0 and c.size == 0


def test_smawk_linear_eval_count():
    """O(m+n) evaluations on square instances (constant < 6)."""
    for n in (64, 256, 1024):
        a = random_monge(n, n, np.random.default_rng(n))
        a.eval_count = 0
        smawk(a)
        assert a.eval_count <= 6 * (2 * n), f"n={n}: {a.eval_count} evals"


def test_row_maxima_inverse_monge(rng):
    a = random_inverse_monge(20, 14, rng)
    v, c = row_maxima(a)
    bv, bc = brute_leftmost_maxima(a.data)
    np.testing.assert_allclose(v, bv)
    np.testing.assert_array_equal(c, bc)


def test_row_maxima_on_polygon_chains(rng):
    """The Figure 1.1 workload: farthest vertex of Q for each vertex of P."""
    pts = convex_position_points(40, rng)
    P, Q = pts[:18], pts[18:]
    a = chain_distance_array(P, Q)
    v, c = row_maxima(a)
    dense = a.materialize()
    np.testing.assert_allclose(v, dense.max(axis=1))
    np.testing.assert_array_equal(c, dense.argmax(axis=1))


def test_row_minima_alias(rng):
    a = random_monge(6, 6, rng)
    v1, c1 = row_minima(a)
    v2, c2 = smawk(a)
    np.testing.assert_array_equal(c1, c2)


def test_smawk_on_implicit_array(rng):
    x = np.sort(rng.normal(size=15))
    y = np.sort(rng.normal(size=22))
    a = ImplicitArray(lambda r, c: np.abs(x[r] - y[c]), (15, 22))
    v, c = smawk(a)
    dense = np.abs(x[:, None] - y[None, :])
    np.testing.assert_allclose(v, dense.min(axis=1))
    np.testing.assert_array_equal(c, dense.argmin(axis=1))


@given(st.integers(0, 100_000))
@settings(max_examples=60, deadline=None)
def test_smawk_property_random_instances(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 20))
    n = int(rng.integers(1, 20))
    a = random_monge(m, n, rng, integer=bool(rng.integers(0, 2)))
    v, c = smawk(a)
    bv, bc = brute_leftmost_minima(a.data)
    np.testing.assert_allclose(v, bv)
    np.testing.assert_array_equal(c, bc)


# ---- dense-buffer path: differential against the per-entry path ------- #

def _rect(k):
    """A nonempty contiguous index range inside ``range(k)``."""
    return np.arange(k // 4, k - k // 4)


CHAINS = {
    "bare": [],
    "negate": [lambda x: x.negate()],
    "flip_rows": [lambda x: x.flip_rows()],
    "flip_cols": [lambda x: x.flip_cols()],
    "transpose": [lambda x: x.transpose()],
    "submatrix": [lambda x: x.submatrix(_rect(x.shape[0]), _rect(x.shape[1]))],
    "flip_rows_negate": [lambda x: x.flip_rows(), lambda x: x.negate()],
    "submatrix_flip_rows_negate": [
        lambda x: x.submatrix(_rect(x.shape[0]), _rect(x.shape[1])),
        lambda x: x.flip_rows(),
        lambda x: x.negate(),
    ],
}


def _build(base, steps):
    """``[base, step1(base), ...]``: every array of the chain, base first."""
    arrays = [base]
    for step in steps:
        arrays.append(step(arrays[-1]))
    return arrays


def _per_entry(top):
    """``top`` behind an ImplicitArray: SMAWK can only read it per entry."""
    return ImplicitArray(lambda r, c: top.eval(r, c, checked=False), top.shape)


@pytest.mark.parametrize("integer", [False, True])
@pytest.mark.parametrize("shape", [(1, 9), (9, 1), (5, 17), (17, 5), (80, 80), (257, 64)])
@pytest.mark.parametrize("chain", sorted(CHAINS))
def test_buffer_path_matches_per_entry_path(chain, shape, integer):
    """Same comparisons, answers and per-array counts as through ``eval``;
    chains that are not Monge (``flip_rows`` alone) must agree too."""
    base = random_monge(*shape, np.random.default_rng([*shape, integer]), integer=integer)
    arrays = _build(base, CHAINS[chain])
    twins = _build(ExplicitArray(base.data.copy()), CHAINS[chain])
    view, sign, links = arrays[-1]._buffer()
    assert links == tuple(reversed(arrays)) and np.shares_memory(view, base.data)

    v, c = smawk(arrays[-1])
    ov, oc = smawk(_per_entry(twins[-1]))

    np.testing.assert_array_equal(v, ov)
    np.testing.assert_array_equal(c, oc)
    got = [x.eval_count for x in arrays]
    want = [x.eval_count for x in twins]
    if chain == "bare":
        # a bare ExplicitArray's final m-entry fetch is not counted
        want[0] -= arrays[-1].shape[0]
    assert got == want
    np.testing.assert_array_equal(sign * view, twins[-1].materialize())


def test_buffer_path_credits_counts_when_the_search_raises():
    """An all-infinite odd row leaves no minimum to bound the even rows:
    both paths raise after the same evaluations, and count them."""
    dense = np.array([[0.0, 1.0, 2.0], [np.inf, np.inf, np.inf], [0.0, 1.0, 2.0]])
    a, twin = ExplicitArray(dense), ExplicitArray(dense)
    with pytest.raises(KeyError):
        smawk(a)
    with pytest.raises(KeyError):
        smawk(_per_entry(twin))
    assert a.eval_count == twin.eval_count > 0


def _staircase(rng):
    return random_staircase_monge(40, 30, rng, boundary=np.full(40, 30))


def _implicit(rng):
    b = random_monge(40, 30, rng)
    return ImplicitArray(lambda r, c: b.data[r, c], b.shape)


def _fancy(rng):
    return random_monge(80, 80, rng).submatrix(np.arange(0, 80, 2), np.arange(1, 80, 3))


@pytest.mark.parametrize("make", [_staircase, _implicit, _fancy])
@pytest.mark.parametrize("chain", ["bare", "flip_rows_negate", "submatrix_flip_rows_negate"])
def test_fallback_types_stay_per_entry(make, chain):
    arrays = _build(make(np.random.default_rng(3)), CHAINS[chain])
    twins = _build(make(np.random.default_rng(3)), CHAINS[chain])
    assert arrays[-1]._buffer() is None

    v, c = smawk(arrays[-1])
    ov, oc = smawk(_per_entry(twins[-1]))

    np.testing.assert_array_equal(v, ov)
    np.testing.assert_array_equal(c, oc)
    assert [x.eval_count for x in arrays] == [x.eval_count for x in twins]


def test_fallback_counts_pinned():
    """Values, witnesses and counts of the per-entry types, as measured
    before the dense-buffer path existed."""
    from repro.monge.staircase_seq import row_minima_staircase_blocks

    st = random_staircase_monge(60, 50, np.random.default_rng(7))
    _, w = row_minima_staircase_blocks(st)
    assert (int(w.sum()), st.eval_count, st.base.eval_count) == (1139, 1984, 1984)

    a = random_monge(80, 80, np.random.default_rng(8))
    sub = a.submatrix(np.arange(0, 80, 2), np.arange(1, 80, 3))
    _, w = smawk(sub)
    assert (int(w.sum()), sub.eval_count, a.eval_count) == (1039, 160, 160)

    b = random_monge(50, 70, np.random.default_rng(9))
    im = ImplicitArray(lambda r, c: b.eval(r, c, checked=False), b.shape)
    _, w = smawk(im)
    assert (int(w.sum()), im.eval_count, b.eval_count) == (3405, 384, 384)


@pytest.mark.parametrize("problem", ["rowmin", "rowmax", "rowmax_inverse"])
def test_sequential_solve_copies_nothing_of_size_mn(problem):
    """The buffer path reads views: an m·n copy at n=1024 would be 8.4 MB."""
    import tracemalloc

    from repro.engine import Session

    gen = random_inverse_monge if problem == "rowmax_inverse" else random_monge
    a = gen(1024, 1024, np.random.default_rng(0))
    session = Session("sequential")
    session.solve(problem, gen(8, 8, np.random.default_rng(1)))  # warm up
    tracemalloc.start()
    try:
        session.solve(problem, a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"{problem}: peak {peak / 2**20:.2f} MB"


# ---- evaluation counts the paper's tables report ---------------------- #

PINNED_SHAPES = [(80, 80), (37, 61), (61, 37)]
PINNED_RECTS = [((5, 70), (3, 77)), ((0, 37), (10, 40)), ((20, 61), (0, 37))]


@pytest.mark.parametrize("problem, counts", [
    ("rowmin", [420, 242, 229]),
    ("rowmax", [603, 382, 370]),
    ("rowmax_inverse", [500, 279, 290]),
])
def test_sequential_eval_counts_pinned(problem, counts):
    """Table 1.1's sequential baseline: the input's ``eval_count`` after a
    sequential solve, fixed at the values these seeds have always given."""
    from repro.engine import Session

    gen = random_inverse_monge if problem == "rowmax_inverse" else random_monge
    session = Session("sequential")
    got = []
    for seed, shape in zip((1, 2, 3), PINNED_SHAPES):
        a = gen(*shape, np.random.default_rng(seed))
        session.solve(problem, a)
        got.append(a.eval_count)
    assert got == counts


def test_sequential_staircase_and_submatrix_eval_counts_pinned():
    from repro.engine import Session

    session = Session("sequential")
    got = []
    for seed, shape in zip((1, 2, 3), PINNED_SHAPES):
        dense = random_staircase_monge(*shape, np.random.default_rng(seed)).materialize()
        a = ExplicitArray(dense)
        session.solve("staircase_min", a)
        got.append(a.eval_count)
    assert got == [10870, 3952, 3451]
    got = []
    for seed, shape, (rows, cols) in zip((1, 2, 3), PINNED_SHAPES, PINNED_RECTS):
        a = random_monge(*shape, np.random.default_rng(seed))
        session.solve("submatrix_max", (a, rows, cols))
        got.append(a.eval_count)
    assert got == [582, 230, 260]


@pytest.mark.parametrize("n, evals", [(128, 1235), (512, 5020)])
def test_figure_1_1_sequential_eval_counts(n, evals):
    """EXPERIMENTS.md's Figure 1.1 column, with the chains built as in
    ``benchmarks/bench_fig_1_1.py``."""
    pts = convex_position_points(2 * n, np.random.default_rng(n))
    a = chain_distance_array(pts[:n], pts[n:])
    row_maxima(a)
    assert a.eval_count == evals
