"""Vectorized PRAM primitives with genuine round accounting.

Every function here executes its synchronous rounds as an explicit loop
(one NumPy map per round) and charges the machine's ledger for each
round actually run.  The ``rounds`` a caller observes are therefore a
*measurement* of the simulated algorithm, never a closed-form formula.

Conventions
-----------
- Groups of a *grouped* operation are described by an ``offsets`` array
  of length ``G+1``: group ``g`` occupies ``values[offsets[g]:offsets[g+1]]``.
  Empty groups are allowed and yield ``inf`` / index ``-1``.
- All argmin/argmax results break ties toward the *smallest index*,
  matching the paper's leftmost-minimum convention (§1.2).
- Scans are inclusive unless stated otherwise.

Fast path
---------
When the kernel tier in force is ``fused`` (``current_tier() ==
"fused"``, see :mod:`repro.kernels.registry`; the default), the
grouped-extremum strategies and :func:`replicate_by_counts` compute
their results with fused NumPy reductions (:func:`_grouped_min_fused`,
``np.repeat``) and *replay* the reference execution's ledger charges
arithmetically.  Results and ledger snapshots are bit-identical either
way — only wall-clock changes.  The round-by-round reference path is
kept for verification (``REPRO_KERNEL_TIER=reference``) and for
machines that execute genuinely on a network (they bypass these
strategies entirely).
"""

from __future__ import annotations

from typing import Callable, Literal, Tuple

import numpy as np

from repro._util.bits import ceil_div, ceil_log2, ceil_sqrt
from repro._util.validation import as_index_vector
from repro.kernels.registry import current_tier
from repro.pram.ledger import notify_kernel
from repro.pram.machine import Pram

__all__ = [
    "prefix_scan",
    "exclusive_prefix_sum",
    "segmented_scan",
    "reduce",
    "broadcast",
    "pack_indices",
    "merge_ranks",
    "grouped_min",
    "grouped_max",
    "replicate_by_counts",
]

Op = Literal["add", "min", "max"]

_OPS: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "add": np.add,
    "min": np.minimum,
    "max": np.maximum,
}

_IDENTITY = {"add": 0.0, "min": np.inf, "max": -np.inf}


def _shift_right(x: np.ndarray, d: int, fill) -> np.ndarray:
    """``y[i] = x[i-d]`` with ``fill`` for the first ``d`` slots."""
    y = np.empty_like(x)
    y[:d] = fill
    y[d:] = x[:-d]
    return y


# --------------------------------------------------------------------- #
# Scans
# --------------------------------------------------------------------- #
def prefix_scan(pram: Pram, values: np.ndarray, op: Op = "add") -> np.ndarray:
    """Inclusive prefix scan by Hillis–Steele doubling.

    Executes ``ceil(lg n)`` synchronous rounds with ``n`` processors.
    Requires concurrent reads for n>1 only in the trivial sense that two
    processors never read the same cell in a round, so this is EREW-safe.
    """
    if hasattr(pram, "network_prefix_scan"):
        return pram.network_prefix_scan(np.asarray(values, dtype=np.float64), op)
    x = np.array(values, dtype=np.float64, copy=True)
    n = x.size
    if n <= 1:
        pram.charge(rounds=1, processors=max(1, n))
        return x
    f = _OPS[op]
    fill = _IDENTITY[op]
    d = 1
    while d < n:
        x = f(x, _shift_right(x, d, fill))
        pram.charge(rounds=1, processors=n)
        d <<= 1
    return x


def exclusive_prefix_sum(pram: Pram, counts: np.ndarray) -> np.ndarray:
    """Exclusive prefix sum of nonnegative integer ``counts``.

    The canonical processor-allocation step: converts per-group counts
    into starting offsets.  ``ceil(lg n) + 1`` rounds.
    """
    counts = np.asarray(counts)
    inclusive = prefix_scan(pram, counts.astype(np.float64), op="add")
    out = np.empty(counts.size + 1, dtype=np.int64)
    out[0] = 0
    out[1:] = np.rint(inclusive).astype(np.int64)
    pram.charge(rounds=1, processors=max(1, counts.size))
    return out


def segmented_scan(
    pram: Pram,
    values: np.ndarray,
    heads: np.ndarray,
    op: Op = "add",
    max_segment_length: int | None = None,
) -> np.ndarray:
    """Inclusive scan restarting at every True in ``heads``.

    ``max_segment_length`` is the crucial knob for the paper's
    geometric-sum arguments: when all segments are known to have length
    ``<= L``, only ``ceil(lg L)`` doubling rounds are needed (elements
    farther apart than ``L`` never interact), so recursive subproblems
    of side ``sqrt(n)`` pay ``lg n / 2`` rounds, not ``lg n``.
    """
    x = np.array(values, dtype=np.float64, copy=True)
    n = x.size
    if n == 0:
        return x
    flags = np.array(heads, dtype=bool, copy=True)
    if flags.shape != (n,):
        raise ValueError("heads must be a boolean vector matching values")
    flags[0] = True
    limit = n if max_segment_length is None else min(n, max(1, int(max_segment_length)))
    f = _OPS[op]
    fill = _IDENTITY[op]
    d = 1
    if limit <= 1:
        pram.charge(rounds=1, processors=n)
        return x
    while d < limit:
        xs = _shift_right(x, d, fill)
        fs = _shift_right(flags, d, True)
        x = np.where(flags, x, f(x, xs))
        flags = flags | fs
        pram.charge(rounds=1, processors=n)
        d <<= 1
    return x


def reduce(pram: Pram, values: np.ndarray, op: Op = "add") -> float:
    """Tree reduction: ``ceil(lg n)`` rounds, halving active processors."""
    x = np.asarray(values, dtype=np.float64)
    n = x.size
    if n == 0:
        return _IDENTITY[op]
    f = _OPS[op]
    while x.size > 1:
        m = x.size
        half = m // 2
        merged = f(x[:half], x[half : 2 * half])
        if m % 2:
            merged = np.concatenate([merged, x[-1:]])
        x = merged
        pram.charge(rounds=1, processors=max(1, half))
    return float(x[0])


def broadcast(pram: Pram, value: float, n: int) -> np.ndarray:
    """Distribute one value to ``n`` processors.

    CREW/CRCW: one concurrent-read round.  EREW: ``ceil(lg n)`` doubling
    rounds (each processor that has the value copies it to one more).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        out = np.empty(0, dtype=np.float64)
    else:
        out = np.full(n, value, dtype=np.float64)
    if pram.model.concurrent_read:
        pram.charge(rounds=1, processors=max(1, n))
    else:
        pram.charge(rounds=max(1, ceil_log2(max(1, n))), processors=max(1, n))
    return out


# --------------------------------------------------------------------- #
# Compaction / merging / routing
# --------------------------------------------------------------------- #
def pack_indices(pram: Pram, mask: np.ndarray) -> np.ndarray:
    """Stable compaction: indices ``i`` with ``mask[i]`` True, in order.

    Prefix sum for destination slots (+1 scatter round).
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.size == 0:
        return np.empty(0, dtype=np.int64)
    slots = prefix_scan(pram, mask.astype(np.float64), op="add")
    total = int(slots[-1])
    out = np.empty(total, dtype=np.int64)
    idx = np.nonzero(mask)[0]
    out[np.rint(slots[idx]).astype(np.int64) - 1] = idx
    pram.charge(rounds=1, processors=max(1, mask.size))
    return out


def merge_ranks(pram: Pram, a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Cross-ranks of two sorted vectors (for O(lg)-round merging).

    Processor ``i`` of ``a`` binary-searches ``b`` (and vice versa), all
    in lockstep: ``ceil(lg(|b|+1)) + ceil(lg(|a|+1))`` rounds, CREW
    (concurrent reads of the probed arrays).

    Returns ``(rank_a_in_b, rank_b_in_a)`` where ``rank_a_in_b[i]`` is
    the number of elements of ``b`` strictly less than ``a[i]`` (ties
    resolved to keep the merge stable with ``a`` first).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    rank_a = np.searchsorted(b, a, side="left")
    pram.charge(rounds=max(1, ceil_log2(b.size + 1)), processors=max(1, a.size))
    rank_b = np.searchsorted(a, b, side="right")
    pram.charge(rounds=max(1, ceil_log2(a.size + 1)), processors=max(1, b.size))
    return rank_a.astype(np.int64), rank_b.astype(np.int64)


def replicate_by_counts(pram: Pram, values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Repeat ``values[g]`` ``counts[g]`` times, contiguously.

    The PRAM realization is an offsets scan, an exclusive scatter of
    group heads, and a segmented ``max`` copy-scan — ``O(lg total)``
    rounds.  Used to hand each allocated processor its group's metadata.
    """
    counts = np.asarray(counts, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    if counts.shape != values.shape:
        raise ValueError("values and counts must have equal length")
    if current_tier() == "fused" and not hasattr(pram, "network_prefix_scan"):
        # Fast path: one np.repeat instead of scatter + copy-scan, with
        # the reference execution's charges replayed verbatim.
        total = int(counts.sum())
        _replay_prefix_scan_charges(pram, counts.size)
        pram.charge(rounds=1, processors=max(1, counts.size))
        if total == 0:
            return np.empty(0, dtype=np.float64)
        pram.charge(rounds=1, processors=max(1, int((counts > 0).sum())))
        _replay_segmented_scan_charges(pram, total, total)
        return np.repeat(values, counts)
    offsets = exclusive_prefix_sum(pram, counts)
    total = int(offsets[-1])
    if total == 0:
        return np.empty(0, dtype=np.float64)
    heads = np.zeros(total, dtype=bool)
    seed = np.full(total, -np.inf)
    nonempty = counts > 0
    heads[offsets[:-1][nonempty]] = True
    seed[offsets[:-1][nonempty]] = values[nonempty]
    pram.charge(rounds=1, processors=max(1, int(nonempty.sum())))
    return segmented_scan(pram, seed, heads, op="max")


# --------------------------------------------------------------------- #
# Charge replay
#
# Fast-path kernels compute results with fused NumPy reductions but must
# leave the ledger exactly as the reference round-by-round execution
# would: same totals, same peak, and the same *sequence of charge calls*
# (phases count charges).  These helpers replay a primitive's charge
# pattern without its per-round array work.
# --------------------------------------------------------------------- #
def _replay_prefix_scan_charges(pram: Pram, n: int) -> None:
    """The charges :func:`prefix_scan` issues on an ``n``-vector."""
    if n <= 1:
        pram.charge(rounds=1, processors=max(1, n))
        return
    d = 1
    while d < n:
        pram.charge(rounds=1, processors=n)
        d <<= 1


def _replay_segmented_scan_charges(pram: Pram, n: int, max_segment_length: int | None) -> None:
    """The charges :func:`segmented_scan` issues on an ``n``-vector."""
    if n == 0:
        return
    limit = n if max_segment_length is None else min(n, max(1, int(max_segment_length)))
    if limit <= 1:
        pram.charge(rounds=1, processors=n)
        return
    d = 1
    while d < limit:
        pram.charge(rounds=1, processors=n)
        d <<= 1


# --------------------------------------------------------------------- #
# Grouped minima / maxima
# --------------------------------------------------------------------- #
def grouped_min(
    pram: Pram,
    values: np.ndarray,
    offsets: np.ndarray,
    strategy: Literal["auto", "binary", "allpairs", "doubly_log"] = "auto",
) -> Tuple[np.ndarray, np.ndarray]:
    """Leftmost minimum of each group: ``(min_values, arg_indices)``.

    ``arg_indices`` are positions in the flat ``values`` array (``-1``
    for empty groups, value ``inf``).

    Strategies
    ----------
    ``binary``
        Segmented scan over the flat array — ``ceil(lg max_width)``
        rounds, EREW/CREW-safe.  This is the strategy whose round count
        shrinks geometrically in the paper's ``sqrt``-recursions.
    ``allpairs``
        The CRCW constant-round trick: every pair inside a group is
        compared at once, losers mark themselves, the unique winner
        writes its index.  3 rounds, but needs ``sum(w_g^2)`` processors.
    ``doubly_log``
        Valiant / Shiloach–Vishkin recursive sqrt-splitting —
        ``O(lg lg max_width)`` rounds with linear processors (CRCW).
    ``auto``
        ``allpairs`` when CRCW and the pair budget fits, else
        ``doubly_log`` on CRCW, else ``binary``.  All-pairs bills each
        group at its padded power-of-two width; on a machine too small
        for that bill, the first of ``doubly_log`` and ``binary`` whose
        bill fits.
    """
    return _grouped_extremum(pram, values, offsets, "min", strategy)


def grouped_max(
    pram: Pram,
    values: np.ndarray,
    offsets: np.ndarray,
    strategy: Literal["auto", "binary", "allpairs", "doubly_log"] = "auto",
) -> Tuple[np.ndarray, np.ndarray]:
    """Leftmost maximum of each group (see :func:`grouped_min`)."""
    neg, idx = _grouped_extremum(pram, -np.asarray(values, dtype=np.float64), offsets, "min", strategy)
    return -neg, idx


def _grouped_extremum(
    pram: Pram,
    values: np.ndarray,
    offsets: np.ndarray,
    op: Literal["min"],
    strategy: str,
) -> Tuple[np.ndarray, np.ndarray]:
    values = np.asarray(values, dtype=np.float64)
    offsets = as_index_vector(offsets, "offsets")
    if offsets.ndim != 1 or offsets.size == 0:
        raise ValueError("offsets must be a nonempty 1-D array")
    widths = offsets[1:] - offsets[:-1]
    if offsets[0] != 0 or offsets[-1] != values.size or np.minimum.reduce(widths, initial=0) < 0:
        raise ValueError("offsets must start at 0, end at len(values), and be nondecreasing")
    n_groups = widths.size
    if n_groups == 0:
        return np.empty(0), np.empty(0, dtype=np.int64)
    max_w = int(np.maximum.reduce(widths))
    if max_w == 0:
        return np.full(n_groups, np.inf), np.full(n_groups, -1, dtype=np.int64)

    if hasattr(pram, "network_grouped_min"):
        # NetworkMachine: execute genuinely on the interconnection network.
        return pram.network_grouped_min(values, offsets)

    if strategy == "auto":
        if pram.model.is_crcw:
            pair_budget = int(np.dot(widths, widths))
            # Brent machines time-slice, so strategy choice must respect
            # the *physical* width or all-pairs degenerates to O(n) slices.
            budget = getattr(pram, "physical_processors", pram.processors)
            strategy = "allpairs" if pair_budget <= budget else "doubly_log"
            if 4 * pair_budget > pram.processors:
                # padded width classes bill up to 4·Σw², which may not fit
                strategy = _fitting_strategy(pram.processors, widths, max_w, strategy)
        else:
            strategy = "binary"
    if strategy in ("allpairs", "doubly_log"):
        pram.require_crcw(f"grouped_min(strategy={strategy!r})")

    notify_kernel(pram.ledger, f"grouped-min:{strategy}", values.size)
    if strategy == "binary":
        return _grouped_min_binary(pram, values, offsets, widths, max_w)
    if strategy == "allpairs":
        return _grouped_min_allpairs(pram, values, offsets, widths)
    if strategy == "doubly_log":
        return _grouped_min_doubly_log(pram, values, offsets, widths)
    raise ValueError(f"unknown strategy {strategy!r}")


class _PeakTally:
    """A charge target that keeps only the widest charge billed to it."""

    def __init__(self) -> None:
        self.peak = 0

    def charge(self, rounds=1, processors=1, work=None) -> None:
        self.peak = max(self.peak, processors)


def _fitting_strategy(processors: int, widths, max_w: int, first: str) -> str:
    """The first of ``first``, ``doubly_log`` and ``binary`` whose bill
    over groups of ``widths`` fits ``processors``; ``first`` when none
    does, so its kernel raises the budget error."""
    classes = _width_class_counts(widths)
    for strategy in dict.fromkeys((first, "doubly_log", "binary")):
        tally = _PeakTally()
        if strategy == "allpairs":
            _bill_allpairs(tally, classes)
        elif strategy == "doubly_log":
            _bill_doubly_log(tally, classes)
        else:
            _bill_binary(tally, int(widths.sum()), max_w, int(np.count_nonzero(widths)))
        if tally.peak <= processors:
            return strategy
    return first


def _grouped_min_fused(values, offsets, widths):
    """Leftmost minimum of every group in two ``reduceat`` passes.

    The wall-clock workhorse of the fast path: one fused reduction for
    the group minima and one for the leftmost witness, independent of
    group widths (no per-width-class Python loop, no padded matrices).
    Semantics match the reference strategies exactly: empty and all-∞
    groups report ``(inf, -1)``; ties break to the smallest flat index.
    """
    n_groups = widths.size
    starts = offsets[:-1]
    ne = None
    if n_groups == 0 or np.minimum.reduce(widths) == 0:
        # Consecutive nonempty groups are contiguous in the flat array
        # (empty groups occupy zero width), so their starts segment it.
        ne = (widths > 0).nonzero()[0]
        if ne.size == 0:
            return np.full(n_groups, np.inf), np.full(n_groups, -1, dtype=np.int64)
        starts, widths = starts[ne], widths[ne]
    gmin = np.minimum.reduceat(values, starts)
    cand = np.where(values == gmin.repeat(widths),
                    np.arange(values.size, dtype=np.int64), values.size)
    argm = np.where(gmin < np.inf, np.minimum.reduceat(cand, starts), -1)
    if ne is None:
        return gmin, argm
    out_v = np.full(n_groups, np.inf)
    out_i = np.full(n_groups, -1, dtype=np.int64)
    out_v[ne] = gmin
    out_i[ne] = argm
    return out_v, out_i


def _grouped_min_binary(pram, values, offsets, widths, max_w):
    """Segmented (value, index) min-scan; leftmost ties via index order."""
    n = values.size
    if current_tier() == "fused":
        out_v, out_i = _grouped_min_fused(values, offsets, widths)
        _bill_binary(pram, n, max_w, int(np.count_nonzero(widths)))
        return out_v, out_i
    heads = np.zeros(n, dtype=bool)
    nonempty = widths > 0
    heads[offsets[:-1][nonempty]] = True
    # Scan values; a second scan of "position of current min" rides along.
    # Combine rule (v1,i1)+(v2,i2) -> min with leftmost index; implemented
    # by scanning keys that order by (value, index) lexicographically.
    x = values.copy()
    arg = np.arange(n, dtype=np.int64)
    flags = heads.copy()
    flags[0] = True
    d = 1
    if max_w > 1:
        while d < max_w:
            xs = _shift_right(x, d, np.inf)
            args = _shift_right(arg, d, np.int64(-1))
            fs = _shift_right(flags, d, True)
            # prior element (xs) is to the LEFT: on ties it wins.
            take_prev = (~flags) & ((xs < x) | ((xs == x) & (args < arg) & (args >= 0)))
            x = np.where(take_prev, xs, x)
            arg = np.where(take_prev, args, arg)
            flags = flags | fs
            pram.charge(rounds=1, processors=n)
            d <<= 1
    else:
        pram.charge(rounds=1, processors=max(1, n))
    tails = offsets[1:] - 1
    out_v = np.full(widths.size, np.inf)
    out_i = np.full(widths.size, -1, dtype=np.int64)
    out_v[nonempty] = x[tails[nonempty]]
    # +inf minima report -1 (all-∞ group), matching the other strategies
    out_i[nonempty] = np.where(out_v[nonempty] < np.inf, arg[tails[nonempty]], -1)
    pram.charge(rounds=1, processors=max(1, int(nonempty.sum())))
    return out_v, out_i


def _width_classes(widths: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """Bucket nonempty groups by power-of-two width class.

    Returns ``(padded_width, group_indices)`` pairs; padding a group to
    at most twice its width keeps the processor overcount ≤ 4x.
    """
    classes = _width_class(widths)
    return [
        (1 << (int(c) - 1), np.nonzero(classes == c)[0])
        for c in np.unique(classes[classes > 0])
    ]


def _width_class_counts(widths: np.ndarray) -> list[tuple[int, int]]:
    """``(padded_width, group_count)`` pairs, ascending by width.

    Count-only companion of :func:`_width_classes` for charge replay:
    the fast paths charge per class but never gather the members, so a
    ``bincount`` over class labels replaces the ``unique`` sort.
    """
    return _class_pairs(np.bincount(_width_class(widths)).tolist())


def _class_pairs(counts: list) -> list[tuple[int, int]]:
    """``(padded_width, group_count)`` pairs of a count list indexed by
    :func:`_width_class`; index 0, the empty groups, bills nothing."""
    return [(1 << c, count) for c, count in enumerate(counts[1:]) if count]


_CLASS_EDGES = np.concatenate(([0], np.int64(1) << np.arange(63, dtype=np.int64)))


def _width_class(widths: np.ndarray) -> np.ndarray:
    """``0`` for an empty group, else ``1 + ceil(lg w)``, exactly: the
    index of the first of ``0, 1, 2, 4, …`` that is ``>= w``.  Class
    ``c >= 1`` holds the groups padded to width ``2**(c - 1)``."""
    return _CLASS_EDGES.searchsorted(widths)


def _padded_matrix(values, offsets, widths, group_ids, width):
    """Gather groups ``group_ids`` into a (G, width) matrix padded with inf."""
    starts = offsets[:-1][group_ids]
    cols = np.arange(width)
    idx = starts[:, None] + cols[None, :]
    mask = cols[None, :] < widths[group_ids][:, None]
    safe = np.where(mask, idx, 0)
    mat = np.where(mask, values[safe], np.inf)
    return mat, starts


def _grouped_min_allpairs(pram, values, offsets, widths):
    """CRCW constant-round grouped minimum.

    For each width class: 1 comparison round (all pairs at once),
    1 CRCW-common round (losers raise a flag), 1 exclusive round (the
    unique winner writes its index).  Classes occupy disjoint processor
    blocks, so they share the same 3 rounds; processors charged are the
    total number of pairwise comparisons across classes.
    """
    if current_tier() == "fused":
        out_v, out_i = _grouped_min_fused(values, offsets, widths)
        _bill_allpairs(pram, _width_class_counts(widths))
        return out_v, out_i
    out_v = np.full(widths.size, np.inf)
    out_i = np.full(widths.size, -1, dtype=np.int64)
    total_pairs = 0
    for width, gids in _width_classes(widths):
        mat, starts = _padded_matrix(values, offsets, widths, gids, width)
        total_pairs += mat.shape[0] * width * width
        # loser[g, j] = exists i with (v_i < v_j) or (v_i == v_j and i < j)
        less = mat[:, :, None] < mat[:, None, :]
        eq = mat[:, :, None] == mat[:, None, :]
        ii = np.arange(width)
        earlier = ii[:, None] < ii[None, :]
        loser = (less | (eq & earlier[None, :, :])).any(axis=1)
        loser |= np.isposinf(mat)  # padding never wins (all-∞ group -> no winner)
        winner_col = np.argmin(loser, axis=1)
        has_winner = ~loser[np.arange(gids.size), winner_col]
        out_v[gids[has_winner]] = mat[np.arange(gids.size), winner_col][has_winner]
        out_i[gids[has_winner]] = (starts + winner_col)[has_winner]
    if total_pairs:
        pram.charge(rounds=3, processors=total_pairs, work=3 * total_pairs)
    return out_v, out_i


def _grouped_min_doubly_log(pram, values, offsets, widths):
    """Recursive sqrt-splitting: ``O(lg lg w)`` levels of 3-round all-pairs."""
    if current_tier() == "fused" and not np.count_nonzero(values == -np.inf):
        # Reference semantics here disqualify +inf entries (idx -1
        # before the recursion), so all-∞ groups report (inf, -1); a
        # -inf entry additionally eliminates candidates in a way that
        # depends on the recursion's block structure, so such (degenerate)
        # inputs take the reference path instead of being fused.
        out_v, out_i = _grouped_min_fused(values, offsets, widths)
        _bill_doubly_log(pram, _width_class_counts(widths))
        return out_v, out_i
    out_v = np.full(widths.size, np.inf)
    out_i = np.full(widths.size, -1, dtype=np.int64)
    for width, gids in _width_classes(widths):
        mat, starts = _padded_matrix(values, offsets, widths, gids, width)
        idx = starts[:, None] + np.arange(width)[None, :]
        idx = np.where(np.isinf(mat), np.int64(-1), idx)
        v, a = _doubly_log_rowmin(pram, mat, idx)
        ok = a >= 0
        out_v[gids[ok]] = v[ok]
        out_i[gids[ok]] = a[ok]
    return out_v, out_i


def _replay_doubly_log_charges(pram: Pram, B: int, w: int) -> None:
    """The charges :func:`_doubly_log_rowmin` issues on a ``(B, w)``
    padded matrix — the recursion on *dimensions only*."""
    if w <= 4:
        _replay_allpairs_rows_charge(pram, B, w)
        return
    s = ceil_sqrt(w)
    g = ceil_div(w, s)
    _replay_doubly_log_charges(pram, B * g, s)
    _replay_allpairs_rows_charge(pram, B, g)


def _replay_allpairs_rows_charge(pram: Pram, B: int, w: int) -> None:
    """The charge :func:`_allpairs_rows` issues on ``(B, w)`` candidates."""
    if w == 1:
        pram.charge(rounds=1, processors=max(1, B))
    else:
        pram.charge(rounds=3, processors=B * w * w, work=3 * B * w * w)


def _bill_binary(target, size: int, widest: int, nonempty: int) -> None:
    """The charges of a binary grouped minimum: the segmented scan over
    ``size`` candidates in groups at most ``widest`` wide, then the
    write round of the ``nonempty`` groups' winners."""
    if widest > 1:
        d = 1
        while d < widest:
            target.charge(rounds=1, processors=size)
            d <<= 1
    else:
        target.charge(rounds=1, processors=max(1, size))
    target.charge(rounds=1, processors=max(1, nonempty))


def _bill_allpairs(target, classes: list[tuple[int, int]]) -> None:
    """The charge of an all-pairs grouped minimum over padded width
    ``classes`` — exactly what the all-pairs kernel bills, not the
    tighter Σw² bound."""
    pairs = sum(count * width * width for width, count in classes)
    if pairs:
        target.charge(rounds=3, processors=pairs, work=3 * pairs)


def _bill_doubly_log(target, classes: list[tuple[int, int]]) -> None:
    """The charges of a doubly-log grouped minimum over padded width
    ``classes``, one recursion per class in ascending width."""
    for width, count in classes:
        _replay_doubly_log_charges(target, count, width)


def replay_grouped_min_charges(
    target, widths: np.ndarray, *, crcw: bool, budget: int, strategy: str = "auto"
) -> None:
    """Replay the ledger charges one :func:`grouped_min` call over groups
    of the given ``widths`` would issue, without computing anything.

    ``target`` is any object with a ``charge(rounds=, processors=,
    work=)`` method — a machine, or a bare
    :class:`~repro.pram.ledger.CostLedger`.  ``crcw``/``budget`` are the
    machine context ``strategy="auto"`` resolves against (the *physical*
    budget on Brent machines).  This is the one-owner case of
    :func:`replay_grouped_min_per_owner`.
    """
    widths = np.asarray(widths, dtype=np.int64)
    replay_grouped_min_per_owner(
        [target], widths, np.zeros(widths.size, dtype=np.int64),
        crcw=crcw, budget=budget, strategy=strategy,
    )


def replay_grouped_min_per_owner(
    targets, widths: np.ndarray, owner: np.ndarray,
    *, crcw: bool, budget: int, strategy: str = "auto",
) -> None:
    """Replay into ``targets[q]`` the kernel event and charges one serial
    :func:`grouped_min` over owner ``q``'s own groups would issue, for
    every owner at once.

    Group ``i`` has width ``widths[i]`` and belongs to ``owner[i]``;
    both are int64 and ``owner`` is nondecreasing.  This is the
    fused-kernel invariant extended to multi-query batches: the batched
    kernels compute every owner's results in one global pass, then
    replay each owner's serial charge sequence into its own sub-account,
    in owner order.  One vectorized pass tallies every owner's candidates, widest
    group, nonempty groups, Σw² and padded width classes; strategy
    resolution happens *per owner* (a global ``auto`` could cross the
    all-pairs budget differently than each query alone would).
    """
    if strategy not in ("auto", "binary", "allpairs", "doubly_log"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if widths.size == 0:
        return
    head = np.empty(owner.size, dtype=bool)
    head[0] = True
    np.not_equal(owner[1:], owner[:-1], out=head[1:])
    starts = head.nonzero()[0]
    sizes = np.add.reduceat(widths, starts).tolist()
    widest = np.maximum.reduceat(widths, starts).tolist()
    owners = owner[starts].tolist()
    if strategy == "auto" and not crcw:
        strategy = "binary"
    if strategy == "binary":
        nonempty = np.add.reduceat(widths > 0, starts).tolist()
    else:
        if strategy == "auto":
            # Σw² in int64, as the serial resolution's np.dot sums it
            pairs = np.add.reduceat(widths * widths, starts).tolist()
        # group counts per (owner, width class)
        k = (max(widest) - 1).bit_length() + 2
        classes = np.bincount(
            owner * k + _width_class(widths), minlength=len(targets) * k
        ).reshape(-1, k).tolist()
    for run, q in enumerate(owners):
        if not widest[run]:
            continue
        target = targets[q]
        strat = strategy
        if strat == "auto":
            strat = "allpairs" if pairs[run] <= budget else "doubly_log"
        # mirror the serial kernel event so fused per-query traces line up
        notify_kernel(getattr(target, "ledger", target), f"grouped-min:{strat}", sizes[run])
        if strat == "binary":
            _bill_binary(target, sizes[run], widest[run], nonempty[run])
        elif strat == "allpairs":
            _bill_allpairs(target, _class_pairs(classes[q]))
        else:
            _bill_doubly_log(target, _class_pairs(classes[q]))


def replay_pair_min_charges(target, count: int, *, crcw: bool, budget: int) -> None:
    """:func:`replay_grouped_min_charges` over ``count`` groups of width 2,
    in closed form: the same kernel event and charges, without building
    or classifying a widths array.

    Both CRCW strategies bill one 3-round all-pairs pass over the
    ``4·count`` pairs (doubly-log's ``w <= 4`` base case is all-pairs);
    binary bills one comparison round and the winners' write round.
    """
    count = int(count)
    if count <= 0:
        return
    if not crcw:
        strategy = "binary"
    else:
        strategy = "allpairs" if 4 * count <= budget else "doubly_log"
    notify_kernel(getattr(target, "ledger", target), f"grouped-min:{strategy}", 2 * count)
    if strategy == "binary":
        target.charge(rounds=1, processors=2 * count)
        target.charge(rounds=1, processors=count)
    else:
        target.charge(rounds=3, processors=4 * count, work=12 * count)


def _doubly_log_rowmin(pram: Pram, mat: np.ndarray, idx: np.ndarray):
    """Row minima of a padded (B, w) matrix by recursive sqrt splitting.

    Each level: split rows into ceil(sqrt) blocks, recurse on blocks,
    then one 3-round all-pairs among the block winners.  Depth is
    ``O(lg lg w)``; every level's all-pairs uses O(B·w) comparisons.
    """
    B, w = mat.shape
    if w <= 4:
        return _allpairs_rows(pram, mat, idx)
    s = ceil_sqrt(w)
    g = ceil_div(w, s)
    padded = g * s
    if padded != w:
        pad_v = np.full((B, padded - w), np.inf)
        pad_i = np.full((B, padded - w), -1, dtype=np.int64)
        mat = np.concatenate([mat, pad_v], axis=1)
        idx = np.concatenate([idx, pad_i], axis=1)
    sub_v, sub_i = _doubly_log_rowmin(
        pram, mat.reshape(B * g, s), idx.reshape(B * g, s)
    )
    return _allpairs_rows(pram, sub_v.reshape(B, g), sub_i.reshape(B, g))


def _allpairs_rows(pram: Pram, mat: np.ndarray, idx: np.ndarray):
    """3-round CRCW all-pairs leftmost row minimum of (B, w) candidates."""
    B, w = mat.shape
    if w == 1:
        pram.charge(rounds=1, processors=max(1, B))
        return mat[:, 0].copy(), idx[:, 0].copy()
    less = mat[:, :, None] < mat[:, None, :]
    eq = mat[:, :, None] == mat[:, None, :]
    ii = np.arange(w)
    # leftmost tie-break uses original flat indices carried in ``idx``
    earlier = (idx[:, :, None] < idx[:, None, :]) & (idx[:, :, None] >= 0)
    loser = (less | (eq & earlier)).any(axis=1)
    loser |= idx < 0
    loser |= np.isposinf(mat)  # +inf never wins: all-inf groups report -1
    col = np.argmin(loser, axis=1)
    rowsel = np.arange(B)
    has = ~loser[rowsel, col]
    out_v = np.where(has, mat[rowsel, col], np.inf)
    out_i = np.where(has, idx[rowsel, col], -1)
    pram.charge(rounds=3, processors=B * w * w, work=3 * B * w * w)
    return out_v, out_i
