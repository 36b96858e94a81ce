"""The precompute-once submatrix index (DESIGN.md §14).

Covers :class:`repro.monge.index.MongeIndex` directly (build / query
correctness against a brute-force oracle, rectangle validation,
charging), the one-shot ``submatrix_max`` solvers, and the
``Session.prepare → handle.query`` engine path (LRU, metrics, ledger
sub-accounts, capability errors).
"""

import numpy as np
import pytest

import repro
from repro.engine import CapabilityError, Session
from repro.engine.prepared import prepare
from repro.monge.arrays import ExplicitArray, ImplicitArray
from repro.monge.generators import random_monge
from repro.monge.index import MongeIndex, check_rectangle
from repro.obs import reset_metrics, snapshot


def _brute(dense, r0, r1, c0, c1):
    """Column-major first maximizer: max value, leftmost col, topmost row."""
    sub = dense[r0:r1, c0:c1]
    k = int(np.argmax(sub.T))
    col, row = divmod(k, sub.shape[0])
    return np.float64(sub[row, col]), np.array([r0 + row, c0 + col], dtype=np.int64)


def _rects(m, n, rng, count=40):
    for _ in range(count):
        r0 = int(rng.integers(0, m))
        r1 = int(rng.integers(r0 + 1, m + 1))
        c0 = int(rng.integers(0, n))
        c1 = int(rng.integers(c0 + 1, n + 1))
        yield r0, r1, c0, c1


def _with_infinities(m, n, rng):
    """An integer ``m×n`` Monge matrix (real ties) with about a sixth of
    its entries set to ``+inf`` or ``-inf``."""
    dense = random_monge(m, n, rng, integer=True).materialize()
    hit = rng.random((m, n)) < 0.15
    dense[hit] = np.where(rng.random(hit.sum()) < 0.5, np.inf, -np.inf)
    return dense


#: Each way an index reads values: through a buffer's strided view
#: (negated, row-flipped, transposed, a contiguous submatrix) or from the
#: private copy of a bufferless array (an ``ImplicitArray`` or a
#: fancy-indexed submatrix).
FORMS = {
    "negate": lambda d: ExplicitArray(-d).negate(),
    "flip_rows": lambda d: ExplicitArray(d[::-1]).flip_rows(),
    "transpose": lambda d: ExplicitArray(d.T).transpose(),
    "submatrix": lambda d: ExplicitArray(np.pad(d, ((2, 1), (1, 1)))).submatrix(
        np.arange(2, 2 + d.shape[0]), np.arange(1, 1 + d.shape[1])
    ),
    "implicit": lambda d: ImplicitArray(lambda r, c: d[r, c], d.shape),
    "fancy_submatrix": lambda d: ExplicitArray(np.repeat(np.repeat(d, 2, 0), 2, 1)).submatrix(
        np.arange(0, 2 * d.shape[0], 2), np.arange(0, 2 * d.shape[1], 2)
    ),
}
BUFFERLESS = ("implicit", "fancy_submatrix")


def _chain(a):
    """``a`` and every array an ``eval`` on it passes through."""
    chain = [a]
    while hasattr(chain[-1], "base"):
        chain.append(chain[-1].base)
    return chain


# --------------------------------------------------------------------- #
# rectangle validation
# --------------------------------------------------------------------- #
class TestCheckRectangle:
    def test_valid(self):
        assert check_rectangle((4, 6), (0, 4), (2, 5)) == (0, 4, 2, 5)
        assert check_rectangle((4, 6), (3, 4), (5, 6)) == (3, 4, 5, 6)
        got = check_rectangle((4, 6), (np.int64(1), np.int64(3)), (np.int32(0), 6))
        assert got == (1, 3, 0, 6)
        assert all(type(bound) is int for bound in got)

    @pytest.mark.parametrize("rows,cols", [
        (3, (0, 1)),          # not a range at all
        ((0, 1, 2), (0, 1)),  # too many endpoints
        ((0,), (0, 1)),       # too few
        ((0, 1), None),
        ((0.5, 3), (0, 2)),   # non-integer bounds are never truncated
        ((0, 3.0), (0, 2)),
        (("1", "3"), (0, 2)),
        ((np.float64(1), 3), (0, 2)),
        ((False, True), (0, 2)),  # bools are never read as indices
        ((0, 3), (True, 2)),
        ((np.True_, 3), (0, 2)),
    ])
    def test_malformed_is_type_error(self, rows, cols):
        with pytest.raises(TypeError, match="half-open"):
            check_rectangle((4, 6), rows, cols)

    @pytest.mark.parametrize("rows,cols", [
        ((2, 2), (0, 3)),     # empty row range
        ((0, 5), (0, 3)),     # past the last row
        ((-1, 2), (0, 3)),    # negative start
        ((0, 2), (3, 3)),     # empty column range
        ((0, 2), (0, 7)),     # past the last column
    ])
    def test_empty_or_out_of_range_is_value_error(self, rows, cols):
        with pytest.raises(ValueError, match="half-open"):
            check_rectangle((4, 6), rows, cols)


# --------------------------------------------------------------------- #
# build + query correctness
# --------------------------------------------------------------------- #
class TestMongeIndex:
    @pytest.mark.parametrize("m,n", [
        (1, 1), (1, 7), (7, 1), (2, 2), (4, 4), (8, 5),   # powers of two
        (3, 3), (5, 9), (6, 11), (13, 4), (12, 12),       # non-powers
    ])
    def test_matches_brute_force(self, m, n):
        rng = np.random.default_rng(100 * m + n)
        a = random_monge(m, n, rng, integer=True)  # integers -> real ties
        dense = a.materialize()
        index = MongeIndex.build(None, a)
        for r0, r1, c0, c1 in _rects(m, n, rng):
            want_v, want_w = _brute(dense, r0, r1, c0, c1)
            got_v, got_w = index.query((r0, r1), (c0, c1))
            label = (m, n, r0, r1, c0, c1)
            assert float(got_v) == float(want_v), label
            np.testing.assert_array_equal(got_w, want_w, err_msg=str(label))

    @pytest.mark.parametrize("form", sorted(FORMS))
    @pytest.mark.parametrize("m,n", [(1, 6), (7, 1), (9, 13), (16, 10)])
    def test_oriented_and_bufferless_match_brute_force(self, form, m, n):
        """Values are read at query time from the array's buffer (through
        every orientation) or from a bufferless array's private copy, with
        integer ties and ±inf entries; queries advance no ``eval_count``."""
        rng = np.random.default_rng(1000 * m + n)
        a = FORMS[form](_with_infinities(m, n, rng))
        assert (a._buffer() is None) == (form in BUFFERLESS)
        dense = a.materialize()
        chain = _chain(a)
        index = MongeIndex.build(None, a)
        counts = [arr.eval_count for arr in chain]
        for r0, r1, c0, c1 in _rects(m, n, rng):
            want_v, want_w = _brute(dense, r0, r1, c0, c1)
            got_v, got_w = index.query((r0, r1), (c0, c1))
            label = (form, m, n, r0, r1, c0, c1)
            assert type(got_v) is np.float64 and got_v == want_v, label
            np.testing.assert_array_equal(got_w, want_w, err_msg=str(label))
        assert [arr.eval_count for arr in chain] == counts

    def test_charged_build_matches_uncharged(self):
        rng = np.random.default_rng(5)
        a = random_monge(9, 6, rng, integer=True)
        s = Session("pram-crcw")
        machine = s.machine(64)
        charged = MongeIndex.build(machine, a)
        plain = MongeIndex.build(None, a)
        np.testing.assert_array_equal(charged._rows, plain._rows)
        assert charged._rows.dtype == plain._rows.dtype == np.int8
        for r0, r1, c0, c1 in _rects(9, 6, rng):
            got_v, got_w = charged.query((r0, r1), (c0, c1))
            want_v, want_w = plain.query((r0, r1), (c0, c1))
            assert got_v == want_v
            np.testing.assert_array_equal(got_w, want_w)

    def test_build_cost_accounting(self):
        m, n = 9, 6
        a = random_monge(m, n, np.random.default_rng(6))
        s = Session("pram-crcw")
        machine = s.machine(64)
        before = machine.ledger.work
        index = MongeIndex.build(machine, a)
        # leaves: m*n evals; merges: 2*K*n candidates per level over the
        # non-padded parents — all charged through the ledger
        assert index.build_evals >= m * n
        assert index.build_evals <= 4 * m * n
        assert machine.ledger.work > before

    def test_query_on_charges(self):
        a = random_monge(10, 8, np.random.default_rng(7))
        s = Session("pram-crcw")
        machine = s.machine(64)
        index = MongeIndex.build(None, a)
        r0 = machine.ledger.rounds
        _, _, info = index.query_on(machine, (1, 9), (2, 7))
        assert info["nodes"] >= 1
        assert info["scanned"] == info["nodes"] * 5
        assert machine.ledger.rounds > r0

    def test_counts_and_nbytes(self):
        a = random_monge(5, 4, np.random.default_rng(8))
        index = MongeIndex.build(None, a)
        assert index.queries_answered == 0
        index.query((0, 5), (0, 4))
        index.query((1, 2), (1, 2))
        assert index.queries_answered == 2
        # P = 8 leaves -> 16 nodes of 4 columns, one int8 row each; the
        # values stay in the array's buffer
        assert index.nbytes == 2 * 8 * 4 * 1
        # without a buffer the index also keeps the 5x4 float64 leaves
        implicit = ImplicitArray(lambda r, c: a.data[r, c], (5, 4))
        assert MongeIndex.build(None, implicit).nbytes == 2 * 8 * 4 * 1 + 5 * 4 * 8

    def test_buffered_n256_handle_holds_its_row_map_only(self):
        a = random_monge(256, 256, np.random.default_rng(10))
        index = Session("pram-crcw").prepare(a).index
        assert index._rows.dtype == np.int16
        assert index.nbytes == 262144  # 2·256 nodes × 256 columns × 2 bytes

    def test_empty_array_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            MongeIndex.build(None, ExplicitArray(np.zeros((0, 4))))

    def test_rejects_bad_rectangles(self):
        a = random_monge(4, 4, np.random.default_rng(9))
        index = MongeIndex.build(None, a)
        with pytest.raises(ValueError):
            index.query((0, 0), (0, 4))
        with pytest.raises(TypeError):
            index.query(1, (0, 4))
        with pytest.raises(TypeError, match="half-open"):
            index.query((False, True), (0, 4))


# --------------------------------------------------------------------- #
# the one-shot solvers
# --------------------------------------------------------------------- #
class TestSubmatrixSolve:
    @pytest.mark.parametrize("backend", ["pram-crcw", "pram-crew", "sequential"])
    def test_matches_brute(self, backend):
        rng = np.random.default_rng(11)
        for m, n in [(1, 1), (4, 7), (9, 5), (12, 12)]:
            a = random_monge(m, n, rng, integer=True)
            dense = a.materialize()
            for r0, r1, c0, c1 in _rects(m, n, rng, count=10):
                want_v, want_w = _brute(dense, r0, r1, c0, c1)
                r = repro.solve("submatrix_max", (a, (r0, r1), (c0, c1)),
                                backend=backend)
                assert float(r.values) == float(want_v)
                np.testing.assert_array_equal(np.asarray(r.witnesses), want_w)

    def test_charges_the_ledger(self):
        a = random_monge(8, 8, np.random.default_rng(12))
        s = Session("pram-crcw")
        r = s.solve("submatrix_max", (a, (0, 8), (0, 8)))
        assert r.snapshot["rounds"] > 0
        assert s.ledger.rounds > 0

    def test_malformed_data_is_a_type_error(self):
        a = random_monge(4, 4, np.random.default_rng(14))
        with pytest.raises(TypeError, match="triple"):
            repro.solve("submatrix_max", (a, (0, 4)))

    @pytest.mark.parametrize("backend", ["pram-crcw", "sequential"])
    def test_bool_bounds_are_a_type_error(self, backend):
        a = random_monge(4, 4, np.random.default_rng(15))
        with pytest.raises(TypeError, match="half-open"):
            repro.solve("submatrix_max", (a, (False, True), (0, 2)), backend=backend)


# --------------------------------------------------------------------- #
# prepare -> query through the engine
# --------------------------------------------------------------------- #
class TestPrepare:
    def test_query_matches_solve(self):
        rng = np.random.default_rng(21)
        a = random_monge(11, 9, rng, integer=True)
        s = Session("pram-crcw")
        handle = s.prepare(a)
        assert handle.shape == (11, 9)
        for r0, r1, c0, c1 in _rects(11, 9, rng, count=25):
            one_shot = s.solve("submatrix_max", (a, (r0, r1), (c0, c1)))
            got = handle.query((r0, r1), (c0, c1))
            assert float(got.values) == float(one_shot.values)
            np.testing.assert_array_equal(
                np.asarray(got.witnesses), np.asarray(one_shot.witnesses)
            )
            assert got.strategy == "index"

    def test_builds_and_queries_charge_the_session_ledger(self):
        a = random_monge(8, 8, np.random.default_rng(22))
        s = Session("pram-crcw")
        assert s.ledger.rounds == 0
        handle = s.prepare(a)
        after_build = s.ledger.rounds
        assert after_build > 0
        assert handle.build_snapshot["rounds"] == after_build
        r = handle.query((0, 8), (0, 8))
        assert r.snapshot["rounds"] > 0
        assert s.ledger.rounds == after_build + r.snapshot["rounds"]

    def test_prepared_work_stays_out_of_the_query_log(self):
        a = random_monge(6, 6, np.random.default_rng(23))
        s = Session("pram-crcw")
        handle = s.prepare(a)
        handle.query((0, 6), (0, 6))
        assert len(s.queries) == 0
        s.solve("rowmin", a)
        assert len(s.queries) == 1

    def test_lru_hit_returns_the_same_handle(self):
        reset_metrics()
        a = random_monge(6, 6, np.random.default_rng(24))
        s = Session("pram-crcw")
        h1 = s.prepare(a)
        h2 = s.prepare(a)
        assert h1 is h2
        c = snapshot()["counters"]
        assert c.get("index.lru.hits") == 1
        assert c.get("index.lru.misses") == 1
        assert c.get("index.builds") == 1

    def test_lru_evicts_oldest(self):
        reset_metrics()
        s = Session("pram-crcw", index_cache=2)
        arrays = [random_monge(5, 5, np.random.default_rng(30 + i))
                  for i in range(3)]
        handles = [s.prepare(a) for a in arrays]
        c = snapshot()["counters"]
        assert c.get("index.lru.evictions") == 1
        assert len(s._prepared) == 2
        # the evicted (oldest) array rebuilds; the newest two do not
        assert s.prepare(arrays[1]) is handles[1]
        assert s.prepare(arrays[0]) is not handles[0]

    def test_distinct_configs_build_distinct_indexes(self):
        a = random_monge(6, 6, np.random.default_rng(25))
        s = Session("pram-crcw")
        h1 = s.prepare(a)
        h2 = s.prepare(a, trace=True)
        assert h1 is not h2

    def test_kernel_tier_does_not_key_the_lru(self):
        """The built index is the same in every tier, so naming a tier
        returns the handle the default built."""
        a = random_monge(6, 6, np.random.default_rng(29))
        s = Session("pram-crcw")
        assert s.prepare(a, kernel_tier="reference") is s.prepare(a)

    def test_explicit_problem_form(self):
        a = random_monge(5, 5, np.random.default_rng(26))
        s = Session("pram-crcw")
        handle = s.prepare("submatrix_max", a)
        assert handle.problem == "submatrix_max"
        with pytest.raises(TypeError, match="data"):
            s.prepare("submatrix_max")

    def test_non_preparable_problem_is_a_capability_error(self):
        a = random_monge(5, 5, np.random.default_rng(27))
        s = Session("pram-crcw")
        with pytest.raises(CapabilityError, match="prepare"):
            s.prepare("rowmin", a)

    def test_sequential_prepare(self):
        rng = np.random.default_rng(28)
        a = random_monge(7, 7, rng, integer=True)
        s = Session("sequential")
        handle = s.prepare(a)
        assert handle.build_snapshot is None
        dense = a.materialize()
        for r0, r1, c0, c1 in _rects(7, 7, rng, count=10):
            want_v, want_w = _brute(dense, r0, r1, c0, c1)
            got = handle.query((r0, r1), (c0, c1))
            assert float(got.values) == float(want_v)
            np.testing.assert_array_equal(np.asarray(got.witnesses), want_w)

    def test_module_front_door(self):
        a = random_monge(6, 6, np.random.default_rng(29))
        handle = prepare(a)
        assert handle is not None
        assert repro.prepare is prepare
        r = handle.query((0, 6), (0, 6))
        want_v, want_w = _brute(a.materialize(), 0, 6, 0, 6)
        assert float(r.values) == float(want_v)

    def test_query_trace_spans(self):
        a = random_monge(6, 6, np.random.default_rng(31))
        s = Session("pram-crcw", config=repro.ExecutionConfig(trace=True))
        handle = s.prepare(a)
        assert handle.build_trace is not None
        assert handle.build_trace.root.name == "index-build"
        r = handle.query((1, 5), (0, 6))
        assert r.trace is not None
        assert r.trace.root.name == "index-query"

    @pytest.mark.parametrize("index_cache,error", [
        (-1, ValueError),     # used to fail inside the first prepare's LRU trim
        (None, TypeError),
        (2.5, TypeError),
        ("8", TypeError),
    ])
    def test_index_cache_is_validated(self, index_cache, error):
        with pytest.raises(error, match="index_cache"):
            Session("pram-crcw", index_cache=index_cache)

    def test_index_cache_zero_keeps_no_handle(self):
        a = random_monge(5, 5, np.random.default_rng(32))
        s = Session("pram-crcw", index_cache=np.int64(0))
        assert s.index_cache == 0
        handle = s.prepare(a)
        assert len(s._prepared) == 0
        assert s.prepare(a) is not handle

    @pytest.mark.parametrize("call", ["explicit_problem", "data_only"])
    def test_one_shot_triple_is_a_type_error_before_any_build(self, call):
        a = random_monge(4, 4, np.random.default_rng(33))
        triple = (a, (0, 2), (0, 2))
        args = ("submatrix_max", triple) if call == "explicit_problem" else (triple,)
        s = Session("pram-crcw")
        before = s.ledger.snapshot()
        reset_metrics()
        with pytest.raises(TypeError, match=r"array alone.*handle\.query\(rows, cols\)"):
            s.prepare(*args)
        assert s.ledger.snapshot() == before
        assert snapshot()["counters"].get("index.builds", 0) == 0
        assert a.eval_count == 0
