"""The plan → group → execute pipeline: ``solve_many`` and batching.

The acceptance contract of the batched-query refactor: a fused batch of
same-shape queries produces values, witnesses, and per-query ledger
snapshots bit-identical to the same queries run serially; results come
back strictly in input order regardless of how the planner bucketed
them; and every disqualifier (non-batchable problems, machine-free
backends, the ``reference`` kernel tier) falls back to the unchanged
serial path.
"""

import numpy as np
import pytest

import repro
from repro.core.rowmin_pram import batched_row_extrema, stack_arrays
from repro.engine import (
    BatchResult,
    ExecutionConfig,
    Session,
    group_plans,
    plan_query,
)
from repro.kernels import current_tier
from repro.monge.arrays import ExplicitArray, ImplicitArray, SearchArray
from repro.monge.generators import random_composite, random_monge
from repro.pram.machine import Pram
from repro.pram.models import CRCW_COMMON

RNG = np.random.default_rng(7)
ARRAYS = [random_monge(9, 11, np.random.default_rng(100 + k)) for k in range(16)]
COMPOSITE = random_composite(4, 4, 4, RNG)


def _fused(count):
    """How many of ``count`` fusable queries run fused: all of them, or
    none when the default kernel tier has no stacked-sweep kernel (CI
    also runs this module under ``REPRO_KERNEL_TIER=reference``)."""
    return count if current_tier() == "fused" else 0


# --------------------------------------------------------------------- #
# fused batches are bit-identical to the serial path
# --------------------------------------------------------------------- #
def test_solve_many_matches_serial_bit_for_bit():
    serial = Session("pram-crcw")
    refs = [serial.solve("rowmin", a) for a in ARRAYS]

    batched = Session("pram-crcw")
    batch = batched.solve_many("rowmin", ARRAYS)

    assert isinstance(batch, BatchResult)
    assert batch.fused_queries == _fused(len(ARRAYS))
    for ref, got in zip(refs, batch):
        np.testing.assert_array_equal(ref.values, got.values)
        np.testing.assert_array_equal(ref.witnesses, got.witnesses)
        # each query still carries its own sub-account snapshot — and it
        # is the SAME snapshot the serial execution produces
        assert got.snapshot == ref.snapshot
    # session totals agree too (sub-accounts merge identically)
    assert batched.ledger.rounds == serial.ledger.rounds
    assert batched.ledger.work == serial.ledger.work
    assert batched.ledger.peak_processors == serial.ledger.peak_processors


@pytest.mark.parametrize(
    "problem,datas",
    [
        ("rowmax", [random_monge(7, 9, np.random.default_rng(s)) for s in range(6)]),
        (
            "rowmax_inverse",
            [random_monge(7, 9, np.random.default_rng(s)).negate() for s in range(6)],
        ),
    ],
)
def test_maxima_problems_batch_bit_for_bit(problem, datas):
    serial = Session("pram-crcw")
    refs = [serial.solve(problem, a) for a in datas]
    batch = Session("pram-crcw").solve_many(problem, datas)
    assert batch.fused_queries == _fused(len(datas))
    for ref, got in zip(refs, batch):
        np.testing.assert_array_equal(ref.values, got.values)
        np.testing.assert_array_equal(ref.witnesses, got.witnesses)
        assert got.snapshot == ref.snapshot


def test_certified_batch_keeps_per_query_certificates():
    batch = Session("pram-crcw").solve_many("rowmin", ARRAYS[:4], certify=True)
    assert batch.fused_queries == _fused(4)
    assert all(r.certified for r in batch)


def test_crew_batches_match_serial():
    s = Session("pram-crew")
    refs = [s.solve("rowmin", a) for a in ARRAYS[:5]]
    batch = Session("pram-crew").solve_many("rowmin", ARRAYS[:5])
    assert batch.fused_queries == _fused(5)
    for ref, got in zip(refs, batch):
        np.testing.assert_array_equal(ref.values, got.values)
        assert got.snapshot == ref.snapshot


# --------------------------------------------------------------------- #
# ordering: results always come back in input order
# --------------------------------------------------------------------- #
def test_mixed_buckets_results_in_input_order():
    small = [random_monge(5, 6, np.random.default_rng(s)) for s in range(4)]
    big = [random_monge(9, 11, np.random.default_rng(40 + s)) for s in range(4)]
    queries = []
    for k in range(4):
        queries.append(("rowmin", small[k]))
        queries.append(("rowmin", big[k]))
        queries.append(("rowmax", big[k]))

    s = Session("pram-crcw")
    batch = s.solve_many(queries)
    assert len(batch) == len(queries)

    ref = Session("pram-crcw")
    for (prob, data), got in zip(queries, batch):
        assert got.problem == prob
        want = ref.solve(prob, data)
        np.testing.assert_array_equal(want.values, got.values)
        np.testing.assert_array_equal(want.witnesses, got.witnesses)
        assert got.snapshot == want.snapshot

    # three fused buckets: (rowmin, 5x6), (rowmin, 9x11), (rowmax, 9x11)
    assert len(batch.groups) == 3
    assert batch.fused_queries == _fused(len(queries))
    # the session query log also mirrors input order
    assert [q.problem for q in s.queries] == [p for p, _ in queries]


def test_unfusable_queries_interleave_in_order():
    queries = [
        ("rowmin", ARRAYS[0]),
        ("tube_min", COMPOSITE),
        ("rowmin", ARRAYS[1]),
    ]
    batch = Session("pram-crcw").solve_many(queries)
    assert [r.problem for r in batch] == ["rowmin", "tube_min", "rowmin"]
    fused = [g for g in batch.groups if g["fused"]]
    assert sum(g["count"] for g in fused) == _fused(2)  # the two rowmin queries
    ref = Session("pram-crcw")
    for (prob, data), got in zip(queries, batch):
        want = ref.solve(prob, data)
        np.testing.assert_array_equal(want.values, got.values)


# --------------------------------------------------------------------- #
# disqualifiers fall back to the serial path (same answers)
# --------------------------------------------------------------------- #
def test_reference_tier_falls_back_serially():
    batch = Session("pram-crcw").solve_many(
        "rowmin", ARRAYS[:4], ExecutionConfig(kernel_tier="reference")
    )
    assert batch.fused_queries == 0
    ref = Session("pram-crcw")
    for a, got in zip(ARRAYS[:4], batch):
        want = ref.solve("rowmin", a)
        np.testing.assert_array_equal(want.values, got.values)
        assert got.snapshot == want.snapshot


def test_unbatchable_queries_never_fuse():
    plan_cfg = ExecutionConfig()
    a = ARRAYS[0]
    assert plan_query("rowmin", a, plan_cfg, "pram-crcw").fused_key is not None
    # non-batchable problems and machine-free backends never fuse
    assert plan_query("tube_min", COMPOSITE, plan_cfg, "pram-crcw").fused_key is None
    assert plan_query("rowmin", a, plan_cfg, "sequential").fused_key is None


def test_group_plans_buckets_by_key_in_first_appearance_order():
    cfg = ExecutionConfig()
    p0 = plan_query("rowmin", ARRAYS[0], cfg, "pram-crcw", index=0)
    p1 = plan_query("rowmax", ARRAYS[0], cfg, "pram-crcw", index=1)
    p2 = plan_query("rowmin", ARRAYS[1], cfg, "pram-crcw", index=2)
    p3 = plan_query("tube_min", COMPOSITE, cfg, "pram-crcw", index=3)
    buckets = group_plans([p0, p1, p2, p3])
    assert [[p.index for p in b] for b in buckets] == [[0, 2], [1], [3]]


# --------------------------------------------------------------------- #
# front doors and the result container
# --------------------------------------------------------------------- #
def test_module_level_solve_many():
    batch = repro.solve_many("rowmin", ARRAYS[:3])
    for a, got in zip(ARRAYS[:3], batch):
        want = repro.solve("rowmin", a)
        np.testing.assert_array_equal(want.values, got.values)
        np.testing.assert_array_equal(want.witnesses, got.witnesses)


def test_solve_many_rejects_malformed_requests():
    s = Session("pram-crcw")
    with pytest.raises(TypeError):
        s.solve_many("rowmin")  # missing datas
    with pytest.raises(TypeError):
        s.solve_many([("rowmin",)])  # tuple too short
    with pytest.raises(TypeError):
        repro.solve_many("rowmin", ARRAYS[:2], workers=2)  # unknown options raise


# --------------------------------------------------------------------- #
# the stacked-sweep building blocks
# --------------------------------------------------------------------- #
def test_stack_arrays_single_part_is_passthrough():
    a = ARRAYS[0]
    assert stack_arrays([a]) is a  # documented no-copy passthrough
    view = stack_arrays([np.arange(12.0).reshape(3, 4)])
    assert isinstance(view, ExplicitArray) and view.data is not None


def test_stack_arrays_rejects_empty_and_ragged():
    with pytest.raises(ValueError, match="zero arrays"):
        stack_arrays([])
    with pytest.raises(ValueError, match="share one shape"):
        stack_arrays([np.zeros((3, 4)), np.zeros((3, 5))])


def _chain(a):
    """``a`` and every array an ``eval`` on it passes through."""
    out = []
    while isinstance(a, SearchArray):
        out.append(a)
        a = getattr(a, "base", None)
    return out


def test_stack_arrays_evaluates_any_index_shape():
    rng = np.random.default_rng(11)
    a = random_monge(5, 7, rng)
    b = random_monge(5, 7, rng)
    d = random_monge(5, 7, rng).data
    parts = [a, b.flip_rows().negate(), ImplicitArray(lambda r, c: d[r, c], (5, 7))]
    dense = np.vstack([a.data, -b.data[::-1], d])
    view = stack_arrays(parts)
    np.testing.assert_array_equal(view.materialize(), dense)
    assert [x.eval_count for p in parts for x in _chain(p)] == [35] * 5

    # interleaved and repeated rows: each entry is read from its own
    # part, and each part (with every array beneath it) counts its own
    rows = np.array([14, 0, 7, 0, 9, 14, 3, 12, 5])
    cols = np.array([6, 0, 3, 0, 2, 6, 1, 5, 4])
    np.testing.assert_array_equal(view.eval(rows, cols), dense[rows, cols])
    own = np.bincount(rows // 5, minlength=3).tolist()  # [4, 3, 2]
    assert [[x.eval_count - 35 for x in _chain(p)] for p in parts] == [
        [own[0]], [own[1]] * 3, [own[2]]
    ]
    np.testing.assert_array_equal(view.eval(rows.reshape(3, 3), cols.reshape(3, 3)),
                                  dense[rows, cols].reshape(3, 3))
    np.testing.assert_array_equal(view.row(8), dense[8])
    assert view.eval([], []).shape == (0,)


def _read_path_parts(problem, seed):
    """Four same-shape Monge parts, one per way the stacked sweep reads
    a part: a dense buffer, a transposed (strided) buffer, a doubly
    flipped view and a bufferless ImplicitArray; negated (inverse
    Monge) for ``rowmax_inverse``."""
    rng = np.random.default_rng(seed)

    def sq(m, n):
        x, y = np.sort(rng.random(m)), np.sort(rng.random(n))
        return (x[:, None] - y[None, :]) ** 2

    x, y = np.sort(rng.random(23)), np.sort(rng.random(17))
    parts = [
        ExplicitArray(sq(23, 17)),
        ExplicitArray(sq(17, 23)).transpose(),
        ExplicitArray(sq(23, 17)).flip_rows().flip_cols(),
        ImplicitArray(lambda r, c: (x[r] - y[c]) ** 2, (23, 17)),
    ]
    return [p.negate() for p in parts] if problem == "rowmax_inverse" else parts


@pytest.mark.parametrize("problem", ["rowmin", "rowmax", "rowmax_inverse"])
def test_fused_sweep_counts_evaluations_as_serial_solves_do(problem):
    serial = _read_path_parts(problem, 3)
    session = Session("pram-crcw")
    refs = [session.solve(problem, p) for p in serial]
    fused = _read_path_parts(problem, 3)
    batch = Session("pram-crcw").solve_many(problem, fused)
    assert batch.fused_queries == _fused(len(fused))
    for ref, got in zip(refs, batch):
        np.testing.assert_array_equal(ref.values, got.values)
        np.testing.assert_array_equal(ref.witnesses, got.witnesses)
    counts = [[x.eval_count for x in _chain(p)] for p in serial]
    assert [[x.eval_count for x in _chain(p)] for p in fused] == counts
    assert all(c > 0 for chain in counts for c in chain)


def test_batched_row_extrema_single_query():
    a = ARRAYS[0]
    (vals, cols), = batched_row_extrema(Pram(CRCW_COMMON, 1 << 40), [a])
    ref = repro.solve("rowmin", a)
    np.testing.assert_array_equal(vals, ref.values)
    np.testing.assert_array_equal(cols, ref.witnesses)


def test_batch_result_container_api():
    batch = Session("pram-crcw").solve_many("rowmin", ARRAYS[:3])
    assert len(batch) == 3
    assert list(iter(batch)) == batch.results
    assert batch[1] is batch.results[1]
    assert len(batch.values) == len(batch.witnesses) == len(batch.snapshots) == 3
    assert all(s is not None for s in batch.snapshots)


# --------------------------------------------------------------------- #
# satellites riding along: app session charging + deprecation shim
# --------------------------------------------------------------------- #
def test_lot_size_charges_session_ledger():
    from repro.apps.lot_size import wagner_whitin

    s = Session("pram-crcw")
    cost, runs = wagner_whitin([3, 1, 0, 4, 2, 5], 8.0, 1.0, session=s)
    ref_cost, ref_runs = wagner_whitin([3, 1, 0, 4, 2, 5], 8.0, 1.0)
    assert cost == ref_cost and runs == ref_runs
    assert s.ledger.rounds > 0


def test_farthest_neighbors_session_matches_sequential():
    from repro.apps.farthest_neighbors import (
        all_farthest_neighbors,
        farthest_between_chains,
        farthest_between_chains_pram,
    )

    from repro.monge.generators import convex_position_points

    theta = np.linspace(0, 2 * np.pi, 15, endpoint=False)
    poly = np.c_[3 * np.cos(theta), 2 * np.sin(theta)]
    s = Session("pram-crcw")
    dv, di = all_farthest_neighbors(poly, session=s)
    rv, ri = all_farthest_neighbors(poly)
    np.testing.assert_array_equal(dv, rv)
    np.testing.assert_array_equal(di, ri)
    assert s.ledger.rounds > 0

    pts = convex_position_points(24, np.random.default_rng(9))
    P, Q = pts[:10], pts[10:]
    before = s.ledger.rounds
    got = farthest_between_chains_pram(None, P, Q, session=s)
    want = farthest_between_chains(P, Q)
    np.testing.assert_array_equal(got[1], want[1])
    assert s.ledger.rounds > before

