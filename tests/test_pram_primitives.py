"""Primitives: correctness against NumPy references + round accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util.bits import ceil_log2
from repro.kernels import tier_context
from repro.pram import CRCW_COMMON, CREW, EREW, CostLedger, Pram
from repro.pram.primitives import (
    broadcast,
    exclusive_prefix_sum,
    grouped_max,
    grouped_min,
    merge_ranks,
    pack_indices,
    prefix_scan,
    reduce,
    replicate_by_counts,
    segmented_scan,
)


def make(model=CREW, p=1 << 20):
    return Pram(model, p, ledger=CostLedger())


# --------------------------------------------------------------------- #
# scans
# --------------------------------------------------------------------- #
def test_prefix_scan_add_matches_cumsum(rng):
    x = rng.normal(size=100)
    pram = make()
    np.testing.assert_allclose(prefix_scan(pram, x, "add"), np.cumsum(x), rtol=1e-12)


def test_prefix_scan_min_max(rng):
    x = rng.normal(size=63)
    pram = make()
    np.testing.assert_array_equal(prefix_scan(pram, x, "min"), np.minimum.accumulate(x))
    np.testing.assert_array_equal(prefix_scan(pram, x, "max"), np.maximum.accumulate(x))


def test_prefix_scan_round_count_is_ceil_log2():
    for n in (2, 3, 7, 8, 9, 1000):
        pram = make()
        prefix_scan(pram, np.ones(n), "add")
        assert pram.ledger.rounds == ceil_log2(n)


def test_prefix_scan_trivial_sizes():
    pram = make()
    assert prefix_scan(pram, np.array([5.0]), "add")[0] == 5.0
    assert prefix_scan(pram, np.array([]), "add").size == 0


def test_exclusive_prefix_sum_offsets():
    pram = make()
    out = exclusive_prefix_sum(pram, np.array([2, 0, 3, 1]))
    assert out.tolist() == [0, 2, 2, 5, 6]


@given(
    st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=60),
    st.data(),
)
@settings(max_examples=50, deadline=None)
def test_segmented_scan_matches_reference(xs, data):
    x = np.array(xs)
    heads = np.array(
        data.draw(st.lists(st.booleans(), min_size=len(xs), max_size=len(xs)))
    )
    heads[0] = True
    pram = make()
    got = segmented_scan(pram, x, heads, "add")
    # reference: cumulative sum restarting at heads
    ref = np.empty_like(x)
    acc = 0.0
    for i in range(len(xs)):
        acc = x[i] if heads[i] else acc + x[i]
        ref[i] = acc
    np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-9)


def test_segmented_scan_max_segment_length_rounds():
    # 1024 elements in segments of <= 4: only 2 rounds needed, not 10.
    n = 1024
    heads = np.zeros(n, dtype=bool)
    heads[::4] = True
    pram = make()
    out = segmented_scan(pram, np.ones(n), heads, "add", max_segment_length=4)
    assert pram.ledger.rounds == 2
    np.testing.assert_array_equal(out[:8], [1, 2, 3, 4, 1, 2, 3, 4])


def test_segmented_scan_min_op():
    x = np.array([3.0, 1.0, 2.0, 5.0, 4.0])
    heads = np.array([True, False, False, True, False])
    pram = make()
    got = segmented_scan(pram, x, heads, "min")
    np.testing.assert_array_equal(got, [3, 1, 1, 5, 4])


def test_reduce_matches_numpy(rng):
    x = rng.normal(size=37)
    pram = make()
    assert np.isclose(reduce(pram, x, "add"), x.sum())
    assert reduce(pram, x, "min") == x.min()
    assert reduce(pram, x, "max") == x.max()
    assert pytest.approx(reduce(make(), np.array([]), "add")) == 0.0


def test_reduce_rounds_logarithmic():
    pram = make()
    reduce(pram, np.ones(1024), "add")
    assert pram.ledger.rounds == 10


# --------------------------------------------------------------------- #
# broadcast / pack / merge / replicate
# --------------------------------------------------------------------- #
def test_broadcast_crew_one_round():
    pram = make(CREW)
    out = broadcast(pram, 7.5, 100)
    assert out.shape == (100,) and (out == 7.5).all()
    assert pram.ledger.rounds == 1


def test_broadcast_erew_log_rounds():
    pram = make(EREW)
    broadcast(pram, 1.0, 100)
    assert pram.ledger.rounds == ceil_log2(100)


def test_pack_indices_stable(rng):
    mask = rng.random(200) < 0.3
    pram = make()
    got = pack_indices(pram, mask)
    np.testing.assert_array_equal(got, np.nonzero(mask)[0])


def test_pack_indices_empty_cases():
    pram = make()
    assert pack_indices(pram, np.zeros(10, dtype=bool)).size == 0
    assert pack_indices(pram, np.array([], dtype=bool)).size == 0


def test_merge_ranks_produces_sorted_merge(rng):
    a = np.sort(rng.normal(size=40))
    b = np.sort(rng.normal(size=25))
    pram = make()
    ra, rb = merge_ranks(pram, a, b)
    merged = np.empty(65)
    merged[np.arange(40) + ra] = a
    merged[np.arange(25) + rb] = b
    np.testing.assert_array_equal(merged, np.sort(np.concatenate([a, b])))


def test_replicate_by_counts():
    pram = make()
    out = replicate_by_counts(pram, np.array([5.0, 7.0, 9.0]), np.array([2, 0, 3]))
    np.testing.assert_array_equal(out, [5, 5, 9, 9, 9])


# --------------------------------------------------------------------- #
# grouped extrema
# --------------------------------------------------------------------- #
def _brute_grouped_min(values, offsets):
    mins, args = [], []
    for g in range(len(offsets) - 1):
        seg = values[offsets[g] : offsets[g + 1]]
        if seg.size == 0:
            mins.append(np.inf)
            args.append(-1)
        else:
            k = int(np.argmin(seg))  # argmin returns first occurrence
            mins.append(seg[k])
            args.append(offsets[g] + k)
    return np.array(mins), np.array(args)


@pytest.mark.parametrize("strategy", ["binary", "allpairs", "doubly_log"])
def test_grouped_min_matches_bruteforce(rng, strategy):
    values = rng.integers(0, 10, size=300).astype(float)  # many ties
    cuts = np.sort(rng.choice(np.arange(1, 300), size=17, replace=False))
    offsets = np.concatenate([[0], cuts, [300]])
    model = CREW if strategy == "binary" else CRCW_COMMON
    pram = make(model)
    got_v, got_i = grouped_min(pram, values, offsets, strategy=strategy)
    ref_v, ref_i = _brute_grouped_min(values, offsets)
    np.testing.assert_array_equal(got_v, ref_v)
    np.testing.assert_array_equal(got_i, ref_i)


@pytest.mark.parametrize("strategy", ["binary", "allpairs", "doubly_log"])
def test_grouped_min_empty_groups(strategy):
    values = np.array([4.0, 2.0])
    offsets = np.array([0, 0, 2, 2])
    model = CREW if strategy == "binary" else CRCW_COMMON
    got_v, got_i = grouped_min(make(model), values, offsets, strategy=strategy)
    assert got_v.tolist() == [np.inf, 2.0, np.inf]
    assert got_i.tolist() == [-1, 1, -1]


def test_grouped_min_single_group_leftmost_tie(rng):
    values = np.array([3.0, 1.0, 1.0, 5.0])
    offsets = np.array([0, 4])
    for strategy, model in (
        ("binary", CREW),
        ("allpairs", CRCW_COMMON),
        ("doubly_log", CRCW_COMMON),
    ):
        v, i = grouped_min(make(model), values, offsets, strategy=strategy)
        assert v[0] == 1.0 and i[0] == 1, strategy


def test_grouped_max_negates_correctly(rng):
    values = rng.normal(size=50)
    offsets = np.array([0, 20, 50])
    v, i = grouped_max(make(CREW), values, offsets, strategy="binary")
    assert v[0] == values[:20].max()
    assert i[0] == int(np.argmax(values[:20]))
    assert v[1] == values[20:].max()


@pytest.mark.parametrize("offsets", [
    np.array([0, 1.9, 3.0]),          # float: used to truncate to [0, 1, 3]
    np.array(["0", "1", "3"]),        # strings: used to parse as integers
], ids=["float", "str"])
@pytest.mark.parametrize("fn", [grouped_min, grouped_max])
def test_grouped_extremum_rejects_non_integer_offsets(fn, offsets):
    pram = make(CRCW_COMMON)
    with pytest.raises(TypeError, match="offsets"):
        fn(pram, np.array([3.0, 1.0, 2.0]), offsets)
    assert pram.ledger.rounds == 0


def test_grouped_min_keeps_integer_offset_forms():
    """Python-int lists and unsigned arrays are integers: they pass, and
    an empty list still fails as empty (``ValueError``), not by type."""
    values = np.array([3.0, 1.0, 2.0])
    want = grouped_min(make(CREW), values, np.array([0, 1, 3]))
    for offsets in ([0, 1, 3], np.array([0, 1, 3], dtype=np.uint8)):
        got = grouped_min(make(CREW), values, offsets)
        assert [g.tolist() for g in got] == [w.tolist() for w in want]
    with pytest.raises(ValueError, match="nonempty"):
        grouped_min(make(CREW), values, [])


def test_grouped_min_allpairs_requires_crcw():
    from repro.pram.models import ConcurrencyViolation

    with pytest.raises(ConcurrencyViolation):
        grouped_min(make(CREW), np.ones(4), np.array([0, 4]), strategy="allpairs")


def test_grouped_min_auto_selects_on_budget():
    values = np.arange(64.0)
    offsets = np.arange(0, 65, 8)
    # medium machine: all-pairs (8 groups * 64 pairs = 512) won't fit in
    # 256 processors, so auto must fall back to doubly_log (fits: O(n))
    pram = Pram(CRCW_COMMON, 256, ledger=CostLedger())
    v, i = grouped_min(pram, values, offsets, strategy="auto")
    np.testing.assert_array_equal(v, values[::8])
    assert pram.ledger.rounds > 3  # not the constant-round all-pairs path
    # large machine: all-pairs fits and takes exactly 3 rounds
    pram2 = Pram(CRCW_COMMON, 1024, ledger=CostLedger())
    grouped_min(pram2, values, offsets, strategy="auto")
    assert pram2.ledger.rounds == 3


@pytest.mark.parametrize("tier", ["reference", "fused"])
def test_grouped_min_auto_falls_back_to_a_strategy_that_fits(tier):
    # Σw² = 9 fits 10 processors, but all-pairs pads width 3 to 4 and
    # bills 16, as does doubly-log; only binary (peak 3) fits
    with tier_context(tier):
        pram = Pram(CRCW_COMMON, 10, ledger=CostLedger())
        v, i = grouped_min(pram, [3.0, 1.0, 2.0], [0, 3])
        assert v.tolist() == [1.0] and i.tolist() == [1]
        assert pram.ledger.peak_processors == 3
        for strategy in ("allpairs", "doubly_log"):
            with pytest.raises(RuntimeError, match="16 processors"):
                grouped_min(Pram(CRCW_COMMON, 10), [3.0, 1.0, 2.0], [0, 3],
                            strategy=strategy)


@pytest.mark.parametrize("tier", ["reference", "fused"])
@pytest.mark.parametrize("widths", [[3], [5, 0, 2], [7, 1, 3, 6], [9, 9]])
def test_grouped_min_auto_fits_every_budget_from_sum_to_padded_pairs(tier, widths):
    widths = np.array(widths)
    offsets = np.concatenate(([0], np.cumsum(widths)))
    values = np.random.default_rng(int(widths.sum())).integers(0, 3, size=offsets[-1])
    values = values.astype(float)
    want = grouped_min(make(CRCW_COMMON), values, offsets, strategy="binary")
    with tier_context(tier):
        for p in range(int(widths.sum()), 4 * int(widths @ widths)):
            pram = Pram(CRCW_COMMON, p, ledger=CostLedger())
            got = grouped_min(pram, values, offsets)
            assert pram.ledger.peak_processors <= p
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])


def test_grouped_min_doubly_log_round_growth():
    # rounds grow like lg lg w: going from w=16 to w=256 adds one level
    def rounds_for(w):
        pram = make(CRCW_COMMON)
        grouped_min(pram, np.random.default_rng(1).normal(size=w), np.array([0, w]),
                    strategy="doubly_log")
        return pram.ledger.rounds

    assert rounds_for(256) <= rounds_for(16) + 6
    assert rounds_for(65536) <= rounds_for(16) + 12


def test_grouped_min_validates_offsets():
    with pytest.raises(ValueError):
        grouped_min(make(), np.ones(3), np.array([0, 5]))
    with pytest.raises(ValueError):
        grouped_min(make(), np.ones(3), np.array([1, 3]))
    with pytest.raises(ValueError):
        grouped_min(make(), np.ones(3), np.array([0, 2, 1, 3]))


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_grouped_min_property_random_partitions(data):
    n = data.draw(st.integers(1, 80))
    values = np.array(
        data.draw(
            st.lists(
                st.integers(-5, 5).map(float), min_size=n, max_size=n
            )
        )
    )
    k = data.draw(st.integers(0, min(10, n)))
    cuts = sorted(data.draw(st.lists(st.integers(0, n), min_size=k, max_size=k)))
    offsets = np.array([0] + cuts + [n], dtype=np.int64)
    ref_v, ref_i = _brute_grouped_min(values, offsets)
    for strategy, model in (("binary", CREW), ("doubly_log", CRCW_COMMON)):
        v, i = grouped_min(make(model), values, offsets, strategy=strategy)
        np.testing.assert_array_equal(v, ref_v, err_msg=strategy)
        np.testing.assert_array_equal(i, ref_i, err_msg=strategy)


# --------------------------------------------------------------------- #
# padded width classes (the all-pairs and doubly-log charge replays)
# --------------------------------------------------------------------- #
def _expected_classes(widths):
    """``(padded_width, group_count)`` pairs built from exact integers."""
    counts = {}
    for w in (int(x) for x in widths if x > 0):
        padded = 1 << ceil_log2(w)
        counts[padded] = counts.get(padded, 0) + 1
    return sorted(counts.items())


def _allpairs_bill(widths):
    """``(rounds, peak_processors, work)`` of one all-pairs grouped min."""
    pairs = sum(cnt * w * w for w, cnt in _expected_classes(widths))
    return (3, pairs, 3 * pairs) if pairs else (0, 0, 0)


def _billed(ledger):
    return ledger.rounds, ledger.peak_processors, ledger.work


_WIDTH_CASES = {
    "every_width_to_4096": np.arange(1, 4097, dtype=np.int64),
    "random_below_2_40": np.random.default_rng(5).integers(1, 1 << 40, size=2000),
    "with_empty_groups": np.array([0, 3, 0, 0, 1, 2, 0, 4, 5, 0], dtype=np.int64),
    "all_empty": np.zeros(6, dtype=np.int64),
}


@pytest.mark.parametrize("case", sorted(_WIDTH_CASES))
def test_width_class_counts_match_exact_ceil_log2(case):
    from repro.pram.primitives import _width_class_counts, _width_classes

    widths = _WIDTH_CASES[case]
    assert _width_class_counts(widths) == _expected_classes(widths)
    # the reference path's bucketing agrees, member for member
    members = [(w, gids.tolist()) for w, gids in _width_classes(widths)]
    assert [(w, len(g)) for w, g in members] == _expected_classes(widths)
    for w, gids in members:
        assert all(w // 2 < widths[g] <= w for g in gids)


@pytest.mark.parametrize("case", sorted(_WIDTH_CASES))
def test_allpairs_bill_matches_exact_classes(case):
    from repro.pram.primitives import replay_grouped_min_charges

    widths = _WIDTH_CASES[case]
    ledger = CostLedger()
    replay_grouped_min_charges(ledger, widths, crcw=True, budget=1, strategy="allpairs")
    assert _billed(ledger) == _allpairs_bill(widths)
    if widths.sum() <= 4096:
        # the all-pairs kernel bills the same padded classes on every tier
        offsets = np.concatenate([[0], np.cumsum(widths)])
        values = np.random.default_rng(2).normal(size=int(offsets[-1]))
        for tier in ("reference", "fused"):
            pram = make(CRCW_COMMON)
            with tier_context(tier):
                grouped_min(pram, values, offsets, strategy="allpairs")
            assert _billed(pram.ledger) == _allpairs_bill(widths), tier


@pytest.mark.parametrize(
    "model,budget", [(CRCW_COMMON, 1 << 40), (CRCW_COMMON, 450), (CREW, 1 << 40)]
)
def test_per_owner_replay_matches_each_owners_grouped_min(model, budget):
    """One vectorized per-owner replay issues into each owner's ledger
    exactly the kernel event and charges of that owner's own
    ``grouped_min``: ``auto`` resolves per owner (all-pairs while Σw²
    fits the budget, else doubly-log; binary on CREW), and an owner with
    no groups, or only empty ones, receives nothing."""
    from repro.obs.hooks import kernel_hook, round_hook
    from repro.pram.primitives import replay_grouped_min_per_owner

    rng = np.random.default_rng(23)
    owner = np.sort(rng.integers(0, 6, size=48))
    widths = rng.integers(0, 13, size=48)
    widths[owner == 5] = 0
    ledgers = [CostLedger() for _ in range(7)]  # owner 6 has no groups
    got = {id(ledger): [] for ledger in ledgers}
    with round_hook(lambda ledger, *c: got[id(ledger)].append(c)), \
            kernel_hook(lambda ledger, *k: got[id(ledger)].append(k)):
        replay_grouped_min_per_owner(
            ledgers, widths, owner, crcw=model is CRCW_COMMON, budget=budget
        )
    strategies = set()
    for q, ledger in enumerate(ledgers):
        mine = widths[owner == q]
        strategy = "binary"
        if model is CRCW_COMMON:
            strategy = "allpairs" if int(mine @ mine) <= budget else "doubly_log"
        offsets = np.concatenate([[0], np.cumsum(mine)])
        want = []
        with round_hook(lambda _, *c: want.append(c)), \
                kernel_hook(lambda _, *k: want.append(k)):
            grouped_min(make(model, 1 << 40), rng.normal(size=int(offsets[-1])), offsets,
                        strategy=strategy)
        assert got[id(ledger)] == want, q
        assert bool(want) == (q < 5)
        strategies.update(k[0] for k in want if isinstance(k[0], str))
    assert len(strategies) == (2 if budget == 450 else 1)
