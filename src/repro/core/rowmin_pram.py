"""Parallel row minima of Monge arrays on the PRAM (Table 1.1).

Two strategies are provided; both are exact (validated against SMAWK /
brute force) and differ only in measured round structure:

``sqrt`` (default) — the paper-style sampling recursion
    Sample every ``√m``-th row.  Phase (b): the sampled ``u×n`` array is
    cut into ``u`` column chunks, each solved *recursively*; a grouped
    minimum over the chunk winners gives the sampled rows' minima.
    Phase (c): by monotonicity of leftmost-minima positions, the
    remaining rows of the block below sampled row ``r_i`` have their
    minima inside columns ``[c(r_i), c(r_{i+1})]`` — these blocks are
    solved by a second recursive call.  The sequential phase structure
    gives the round recurrence ``T(n) = 2·T(√n) + O(g)`` where ``g`` is
    the grouped-minimum cost: with the CRCW doubly-log primitive
    ``g = O(lg lg n)`` and ``T(n) = O(lg n)`` — Table 1.1's CRCW row —
    while with the CREW binary primitive ``g = O(lg n_k)`` per level and
    ``T(n) = O(lg n lg lg n)`` — Table 1.1's CREW row (run on a
    :class:`~repro.pram.scheduling.BrentPram` with ``n/lg lg n``
    physical processors to realize the stated processor bound).

``halving`` — the simpler ablation baseline
    Solve rows of stride ``2s`` first, then rows of stride ``s``
    localized between their neighbors' minima: ``lg m`` levels, each
    paying one grouped minimum over ``O(n + m/s)`` candidates.

Processor allocation is charged ``O(1)`` rounds per level: every
subproblem's processor-block offset telescopes from already-computed
minima positions (for phase (c), ``offset_k = k·s + c(r_{k-1}) - c(r_{-1})
+ k``) or is uniform (phase (b) chunks), so a parent hands each child
its block without a prefix scan.  This allocation argument is what the
paper's Lemma 2.2 needs ANSV for in the *staircase* case; in the plain
Monge case the telescoping identity suffices.

Subproblems are represented as (row arithmetic progression × contiguous
column range) — both phases produce only this shape — which lets a
whole frontier of sibling subproblems execute their rounds together as
vectorized batches (siblings share rounds; only the two sequential
recursive calls per level add depth).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro._util.bits import ceil_sqrt_array
from repro._util.ragged import offsets_of, ragged as _ragged
from repro.monge.arrays import SearchArray, as_search_array, read_buffer
from repro.kernels.api import eval_grouped_min
from repro.kernels.chargefan import ChargeFan
from repro.pram.machine import Pram
from repro.pram.primitives import grouped_min

__all__ = [
    "monge_row_minima_pram",
    "monge_row_maxima_pram",
    "inverse_monge_row_maxima_pram",
    "stack_arrays",
]

_SMALL_ROWS = 4  # direct-solve threshold on the row dimension


@dataclass
class _Batch:
    """A frontier of subproblems (struct-of-arrays).

    Subproblem ``i`` covers rows ``rs[i] + t·rstride[i]`` for
    ``t < rcount[i]`` and columns ``[cs[i], cs[i] + ccount[i])`` of the
    original array.  ``owner`` (optional, nondecreasing) tags each
    subproblem with the query it belongs to in a fused multi-query
    sweep; every batch construction preserves relative order, so owners
    stay contiguous throughout the recursion.
    """

    rs: np.ndarray
    rstride: np.ndarray
    rcount: np.ndarray
    cs: np.ndarray
    ccount: np.ndarray
    owner: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return self.rs.size

    def row_offsets(self) -> np.ndarray:
        return offsets_of(self.rcount)

    def select(self, mask: np.ndarray) -> "_Batch":
        return _Batch(self.rs[mask], self.rstride[mask], self.rcount[mask],
                      self.cs[mask], self.ccount[mask],
                      None if self.owner is None else self.owner[mask])


def monge_row_minima_pram(
    pram: Pram, array, strategy: str = "sqrt"
) -> Tuple[np.ndarray, np.ndarray]:
    """Leftmost row minima of a Monge array, parallel.

    Returns ``(values, columns)``.  ``strategy`` is ``"sqrt"`` (the
    paper's recursion) or ``"halving"`` (ablation baseline).  Grouped
    minima pick the CRCW doubly-log primitive automatically when the
    machine is CRCW, else the CREW binary scan.

    ``"auto"`` stands for ``"sqrt"``.  The algorithm body is
    :func:`_row_minima_impl`, which the engine registry runs too.
    """
    return _row_minima_impl(pram, array, strategy=strategy)


def monge_row_maxima_pram(
    pram: Pram, array, strategy: str = "sqrt"
) -> Tuple[np.ndarray, np.ndarray]:
    """Leftmost row maxima of a **Monge** array (Table 1.1 semantics).

    Row-flipping a Monge array yields an inverse-Monge array; negating
    that restores Monge.  Leftmost minima of the transform, read in
    reverse row order, are the leftmost maxima of the original.
    """
    return _row_maxima_impl(pram, array, strategy=strategy)


def inverse_monge_row_maxima_pram(
    pram: Pram, array, strategy: str = "sqrt"
) -> Tuple[np.ndarray, np.ndarray]:
    """Leftmost row maxima of an **inverse-Monge** array (Fig. 1.1 use).

    The negation is Monge and leftmost minima coincide positionally.
    """
    return _inverse_row_maxima_impl(pram, array, strategy=strategy)


def _row_minima_impl(pram: Pram, array, strategy: str = "sqrt") -> Tuple[np.ndarray, np.ndarray]:
    """Algorithm body behind :func:`monge_row_minima_pram`."""
    if strategy == "auto":
        strategy = "sqrt"
    elif strategy not in ("sqrt", "halving"):
        raise ValueError(
            f"unknown strategy {strategy!r}; expected 'sqrt', 'halving' or 'auto'"
        )
    a = as_search_array(array)
    m, n = a.shape
    if n == 0:
        raise ValueError("cannot take row minima of a zero-column array")
    if m == 0:
        return np.empty(0), np.empty(0, dtype=np.int64)
    if strategy == "sqrt":
        batch = _Batch(
            rs=np.array([0], dtype=np.int64),
            rstride=np.array([1], dtype=np.int64),
            rcount=np.array([m], dtype=np.int64),
            cs=np.array([0], dtype=np.int64),
            ccount=np.array([n], dtype=np.int64),
        )
        vals, cols = _solve_batch(pram, a, batch)
        return vals, cols
    return _solve_halving(pram, a)


def _row_maxima_impl(pram: Pram, array, strategy: str = "sqrt") -> Tuple[np.ndarray, np.ndarray]:
    """Algorithm body behind :func:`monge_row_maxima_pram`."""
    a = as_search_array(array)
    vals, cols = _row_minima_impl(pram, _extremum_view(a, "rowmax"), strategy=strategy)
    return -vals[::-1], cols[::-1].copy()


def _inverse_row_maxima_impl(
    pram: Pram, array, strategy: str = "sqrt"
) -> Tuple[np.ndarray, np.ndarray]:
    """Algorithm body behind :func:`inverse_monge_row_maxima_pram`."""
    a = as_search_array(array)
    vals, cols = _row_minima_impl(pram, _extremum_view(a, "rowmax_inverse"), strategy=strategy)
    return -vals, cols


# --------------------------------------------------------------------- #
# sqrt strategy
# --------------------------------------------------------------------- #
def _solve_batch(pram: Pram, arr: SearchArray, batch: _Batch, fan: Optional[ChargeFan] = None):
    """Solve every subproblem in ``batch``; results flat in batch-row order.

    When ``fan`` is given the batch is a fused multi-query sweep:
    alongside every global ``pram.charge`` the same site's per-owner
    unit counts are charged to each owner's sub-account, reproducing
    each query's serial charge sequence exactly (see
    :class:`~repro.kernels.chargefan.ChargeFan`).
    """
    if len(batch) == 0:
        return np.empty(0), np.empty(0, dtype=np.int64)
    small = batch.rcount <= _SMALL_ROWS
    n_small = np.count_nonzero(small)
    if n_small == len(batch):
        # the grouped minima already come out in batch-row order
        return _solve_small(pram, arr, batch, fan)

    row_off = batch.row_offsets()
    total_rows = int(row_off[-1])
    vals = np.empty(total_rows)
    cols = np.empty(total_rows, dtype=np.int64)
    # rows phase (c) fills: everything but small-subproblem and sampled rows
    if n_small:
        small_rows = small.repeat(batch.rcount)
        vals[small_rows], cols[small_rows] = _solve_small(pram, arr, batch.select(small), fan)
        interior = ~small_rows
        big = ~small
        bb = batch.select(big)
        big_start = row_off[:-1][big]
    else:
        interior = np.ones(total_rows, dtype=bool)
        bb = batch
        big_start = row_off[:-1]

    # ---- phase (b): sampled rows ------------------------------------- #
    s = ceil_sqrt_array(bb.rcount)
    u = bb.rcount // s                      # number of sampled rows, >= 1
    v = -(-bb.ccount // u)                  # chunk width = ceil(ccount/u)
    nchunk = -(-bb.ccount // v)             # <= u chunks

    # children: for each subproblem, nchunk chunks of sampled rows
    ch_local, ch_owner, child_start = _ragged(nchunk)
    ch_v = v[ch_owner]
    ch_skip = ch_local * ch_v
    child_b = _Batch(
        rs=(bb.rs + (s - 1) * bb.rstride)[ch_owner],
        rstride=(bb.rstride * s)[ch_owner],
        rcount=u[ch_owner],
        cs=bb.cs[ch_owner] + ch_skip,
        ccount=np.minimum(ch_v, bb.ccount[ch_owner] - ch_skip),
        owner=None if bb.owner is None else bb.owner[ch_owner],
    )
    pram.charge(rounds=2, processors=max(1, len(child_b)))  # O(1) spawn/allocation
    if fan is not None:
        fan.charge(fan.counts(bb.owner, nchunk), rounds=2)
    with pram.obs_phase("sampled-rows"):
        vb, cb = _solve_batch(pram, arr, child_b, fan)

    # combine: per (subproblem, sampled row), min over its chunk winners.
    # Child rows are laid out (prob, chunk, row), candidates (prob, row,
    # chunk) — chunk order = column order, so grouped_min's
    # first-position tie-break is the leftmost column.
    g_localrow, g_prob, _ = _ragged(u)      # one group per sampled row
    cand_counts = nchunk[g_prob]
    cand_offsets = offsets_of(cand_counts)
    # candidate (prob, row k, chunk c) is row k of child child_start[prob] + c
    cand_child = np.arange(cand_offsets[-1]) + (
        child_start[g_prob] - cand_offsets[:-1]
    ).repeat(cand_counts)
    cand_flat = child_b.row_offsets()[cand_child] + g_localrow.repeat(cand_counts)
    pram.charge(rounds=2, processors=max(1, cand_flat.size))  # gather winners
    if fan is not None:
        fan.charge(fan.counts(bb.owner, u * nchunk), rounds=2)
    sampled_vals, si = grouped_min(pram, vb[cand_flat], cand_offsets)
    if fan is not None:
        fan.grouped_min(cand_counts, bb.owner[g_prob])
    sampled_cols = np.where(si >= 0, cb[cand_flat[np.maximum(si, 0)]], -1)

    # write sampled-row results into output: local row (k+1)·s - 1
    dest_sampled = (big_start - 1)[g_prob] + (g_localrow + 1) * s[g_prob]
    vals[dest_sampled] = sampled_vals
    cols[dest_sampled] = sampled_cols
    interior[dest_sampled] = False
    pram.charge(rounds=1, processors=max(1, dest_sampled.size))
    if fan is not None:
        fan.charge(fan.counts(bb.owner, u))

    # ---- phase (c): interior blocks ----------------------------------- #
    # Using sampled local rows S_k = (k+1)s - 1 (k = 0..u-1):
    #   block 0: rows [0, S_0-1], cols [cs, c_0]
    #   block k: rows [S_{k-1}+1, S_k - 1], cols [c_{k-1}, c_k]
    #   block u: rows [S_{u-1}+1, rcount-1], cols [c_{u-1}, cs+ccount-1]
    blk_local, blk_owner, _ = _ragged(u + 1)
    s_o = s[blk_owner]
    last = blk_local == u[blk_owner]
    rows_in_block = np.where(last, (bb.rcount - u * s)[blk_owner], s_o - 1)
    # block k of owner o sits at flat index (sampled rows before o) + o + k,
    # so its neighbouring sampled minima are c[blk - o - 1] and c[blk - o]
    nxt = np.arange(blk_local.size) - blk_owner
    c_lo = np.where(
        blk_local == 0, bb.cs[blk_owner], sampled_cols.take(nxt - 1, mode="clip")
    )
    c_hi = np.where(
        last, (bb.cs + bb.ccount - 1)[blk_owner], sampled_cols.take(nxt, mode="clip")
    )
    keep = rows_in_block > 0
    kept_qowner = None if bb.owner is None else bb.owner[blk_owner][keep]
    child_c = _Batch(
        rs=(bb.rs[blk_owner] + blk_local * s_o * bb.rstride[blk_owner])[keep],
        rstride=bb.rstride[blk_owner][keep],
        rcount=rows_in_block[keep],
        cs=c_lo[keep],
        ccount=(c_hi - c_lo + 1)[keep],
        owner=kept_qowner,
    )
    pram.charge(rounds=2, processors=max(1, len(child_c)))  # telescoped allocation
    if fan is not None:
        fan.charge(fan.counts(kept_qowner), rounds=2)
    with pram.obs_phase("interior-blocks"):
        vc, cc = _solve_batch(pram, arr, child_c, fan)

    # blocks tile the non-sampled rows of each big subproblem in order
    vals[interior] = vc
    cols[interior] = cc
    pram.charge(rounds=1, processors=max(1, vc.size))
    if fan is not None:
        fan.charge(fan.counts(kept_qowner, child_c.rcount))
    return vals, cols


def _solve_small(pram: Pram, arr: SearchArray, sb: _Batch, fan: Optional[ChargeFan]):
    """Direct solve of small-row subproblems: one candidate group per
    (subproblem, row) of width ``ccount``, results in batch-row order."""
    lr, prob, _ = _ragged(sb.rcount)
    widths = sb.ccount[prob]
    offsets = offsets_of(widths)
    total = int(offsets[-1])
    rows_flat = (sb.rs[prob] + lr * sb.rstride[prob]).repeat(widths)
    cols_flat = (sb.cs[prob] - offsets[:-1]).repeat(widths) + np.arange(total)
    # allocation is uniform-per-subproblem: O(1) rounds
    pram.charge(rounds=1, processors=max(1, widths.size))
    if fan is not None:
        group_counts = fan.counts(sb.owner, sb.rcount)
        fan.charge(group_counts)
        # fan charges land on disjoint per-owner ledgers, so issuing
        # them before the evaluation preserves every sub-account's
        # serial charge sequence exactly
        fan.charge(fan.counts(sb.owner, sb.rcount * sb.ccount))
    gv, gi = eval_grouped_min(
        pram,
        lambda lo, hi: arr.eval(rows_flat[lo:hi], cols_flat[lo:hi], checked=False),
        total,
        offsets,
    )
    if fan is not None:
        fan.grouped_min(widths, sb.owner[prob])
    pram.charge(rounds=1, processors=max(1, gv.size))
    if fan is not None:
        fan.charge(group_counts)
    return gv, np.where(gi >= 0, cols_flat[np.maximum(gi, 0)], -1)


# --------------------------------------------------------------------- #
# fused multi-query sweep (engine solve_many fast path)
# --------------------------------------------------------------------- #
class _StackedArray(SearchArray):
    """``B`` same-shape arrays stacked along rows: global row
    ``q·m + r`` evaluates part ``q`` at local row ``r``.

    Each part's dense buffer (:meth:`SearchArray._buffer`) is resolved
    once, here: a run of entries of a buffered part is one
    :func:`~repro.monge.arrays.read_buffer` gather, which counts the
    run on every array beneath the part as a ``part.eval`` would.  A
    part without a buffer is read through ``part.eval``.

    ``B = 1`` is legal (the stacked view degenerates to a pass-through
    over the single part — every owner run covers the whole batch), but
    callers that can detect it should prefer :func:`stack_arrays`,
    which skips the wrapper entirely.  Ragged widths are rejected here
    with the shapes spelled out, not discovered later as an
    out-of-bounds column evaluation inside the sweep.
    """

    def __init__(self, parts: List[SearchArray]) -> None:
        if not parts:
            raise ValueError("cannot stack zero arrays")
        shape = parts[0].shape
        ragged = [p.shape for p in parts if p.shape != shape]
        if ragged:
            raise ValueError(
                "stacked queries must share one shape; got "
                f"{shape} and {ragged[0]} (ragged widths cannot share a "
                "fused sweep — group same-shape queries instead)"
            )
        self.parts = list(parts)
        self.buffers = [p._buffer() for p in self.parts]
        self.m = shape[0]
        super().__init__((self.m * len(parts), shape[1]))

    def _eval(self, rows, cols):
        shape = rows.shape
        rows = rows.ravel()
        cols = cols.ravel()
        owner = rows // self.m
        out = np.empty(rows.size)
        # one read per run of equal owner: the sweep's evaluation sites
        # visit parts in batch order, so there a run is a part's whole
        # segment, but any row order reads correctly
        head = np.empty(rows.size, dtype=bool)
        head[:1] = True
        np.not_equal(owner[1:], owner[:-1], out=head[1:])
        starts = head.nonzero()[0].tolist()
        for lo, hi in zip(starts, starts[1:] + [rows.size]):
            q = int(owner[lo])
            r = rows[lo:hi] - q * self.m
            if self.buffers[q] is None:
                out[lo:hi] = self.parts[q].eval(r, cols[lo:hi], checked=False)
            else:
                read_buffer(self.buffers[q], r, cols[lo:hi], out[lo:hi])
        return out.reshape(shape)


def _extremum_view(a: SearchArray, problem: str) -> SearchArray:
    """The Monge-minima view whose leftmost row minima solve ``problem``.

    Row-flip negation for ``rowmax``, plain negation for
    ``rowmax_inverse``, applied lazily — no per-part copies.  The serial
    implementations solve the same views, so the fused sweep's values
    are bit-identical to theirs.
    """
    if problem == "rowmin":
        return a
    if problem == "rowmax":
        return a.flip_rows().negate()
    if problem == "rowmax_inverse":
        return a.negate()
    raise ValueError(f"unknown batched problem {problem!r}")


def stack_arrays(parts) -> SearchArray:
    """Stack same-shape search arrays along rows, zero-copy.

    The result is a lazy row-stacked view (global row ``q·m + r`` is
    part ``q``'s local row ``r``): materializing ``B`` explicit parts
    into one contiguous matrix would cost a full batch-sized copy +
    re-validation, which dominates the fused sweep's wall-clock at
    large ``n``.  ``stack_arrays([x])`` is a documented **no-copy
    passthrough**: the single part is returned as-is (coerced through
    :func:`~repro.monge.arrays.as_search_array`), so single-query
    callers pay nothing for the uniform spelling.  Ragged shapes raise
    ``ValueError`` naming both shapes.
    """
    views = [as_search_array(p) for p in parts]
    if not views:
        raise ValueError("cannot stack zero arrays")
    if len(views) == 1:
        return views[0]
    return _StackedArray(views)


def batched_row_extrema(
    pram: Pram,
    arrays,
    problem: str = "rowmin",
    fan: Optional[ChargeFan] = None,
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """One fused ``sqrt``-recursion sweep over ``B`` same-shape queries.

    The queries become the ``B`` top-level subproblems of a single
    :func:`_solve_batch` call over the row-stacked array, each tagged
    with its owner index.  Values and witnesses are bit-identical to the
    ``B`` serial runs (subproblems never interact: grouped minima only
    combine candidates of one (subproblem, row) group), and the optional
    ``fan`` reproduces each query's serial ledger charges.  Returns one
    ``(values, witnesses)`` pair per query, in input order.
    """
    views = [_extremum_view(as_search_array(a), problem) for a in arrays]
    m, n = views[0].shape
    if any(v.shape != (m, n) for v in views):
        raise ValueError("batched queries must share one shape")
    if n == 0:
        raise ValueError("cannot take row minima of a zero-column array")
    B = len(views)
    if m == 0:
        return [(np.empty(0), np.empty(0, dtype=np.int64)) for _ in range(B)]
    stacked = stack_arrays(views)
    batch = _Batch(
        rs=np.arange(B, dtype=np.int64) * m,
        rstride=np.ones(B, dtype=np.int64),
        rcount=np.full(B, m, dtype=np.int64),
        cs=np.zeros(B, dtype=np.int64),
        ccount=np.full(B, n, dtype=np.int64),
        owner=np.arange(B, dtype=np.int64),
    )
    vals, cols = _solve_batch(pram, stacked, batch, fan=fan)
    out: List[Tuple[np.ndarray, np.ndarray]] = []
    for q in range(B):
        v = vals[q * m:(q + 1) * m]
        c = cols[q * m:(q + 1) * m]
        if problem == "rowmax":
            out.append((-v[::-1], c[::-1].copy()))
        elif problem == "rowmax_inverse":
            out.append((-v, c.copy()))
        else:
            out.append((v.copy(), c.copy()))
    return out


# --------------------------------------------------------------------- #
# halving strategy (ablation)
# --------------------------------------------------------------------- #
def _solve_halving(pram: Pram, arr: SearchArray):
    """Binary row-sampling: ``lg m`` levels, one grouped min per level.

    Level with stride ``2s`` solved → rows at stride ``s`` localize
    between their solved neighbors' minima; candidate totals telescope
    to ``O(n + m/s)`` per level.
    """
    m, n = arr.shape
    vals = np.full(m, np.inf)
    cols = np.full(m, -1, dtype=np.int64)

    stride = 1
    while stride * 2 < m:
        stride *= 2
    # the first level's rows (stride - 1, and m - 1 when m = 2·stride)
    # have no solved neighbors
    new_rows = np.arange(stride - 1, m, stride, dtype=np.int64)
    lo = np.zeros(new_rows.size, dtype=np.int64)
    hi = np.full(new_rows.size, n - 1, dtype=np.int64)
    while True:
        widths = hi - lo + 1
        local, owner, offsets = _ragged(widths)
        rows_flat = new_rows[owner]
        cols_flat = lo[owner] + local
        pram.charge(rounds=2, processors=max(1, widths.size))  # allocation
        gv, gi = eval_grouped_min(
            pram,
            lambda lo, hi: arr.eval(rows_flat[lo:hi], cols_flat[lo:hi], checked=False),
            rows_flat.size,
            offsets,
        )
        vals[new_rows] = gv
        cols[new_rows] = np.where(gi >= 0, cols_flat[np.maximum(gi, 0)], -1)
        pram.charge(rounds=1, processors=max(1, new_rows.size))
        stride //= 2
        if not stride:
            return vals, cols
        # every row at stride 2s is solved; the unsolved rows at stride s
        # sit halfway between two of them, at row ± s
        new_rows = np.arange(stride - 1, m, 2 * stride, dtype=np.int64)
        below = new_rows + stride
        lo = np.where(new_rows >= stride, cols[new_rows - stride], 0)
        hi = np.where(below < m, cols[np.minimum(below, m - 1)], n - 1)
