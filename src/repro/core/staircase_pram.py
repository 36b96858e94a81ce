"""Theorem 2.3: parallel row minima of staircase-Monge arrays.

Structure (following §2, adapted for batched level-synchronous
execution; ``s = ⌈√m⌉``):

1. **Sampled rows** (Fig. 2.1).  The ``u×n`` array of every ``s``-th
   row decomposes by its (nonincreasing) boundary values ``g_k`` into
   *full* Monge blocks ``M_j`` = sampled rows ``0..j`` × columns
   ``[g_{j+1}, g_j)``.  All blocks are solved by the Monge recursion of
   :mod:`repro.core.rowmin_pram` in one batched call; a grouped minimum
   over each sampled row's blocks (ordered right-to-left so the
   first-wins tie-break is the leftmost column) yields the exact minima
   ``c_k`` of the sampled rows over their full finite prefixes.

2. **Bracketing** (Fig. 2.2 / Lemma 2.2).  For the interior rows
   between sampled rows ``k-1`` and ``k``, their minima restricted to
   the all-finite column range ``[0, g_k)`` lie (by Monge monotonicity)
   in ``[L_k, c_k]`` where ``L_k = c_{j*}`` for ``j*`` the *nearest
   earlier sampled row whose minimum lies strictly left of* ``g_k`` —
   the paper's "closest north-west neighbor" bracketing, computed with
   the generalized ANSV descent
   (:func:`repro.pram.ansv.nearest_smaller_left_threshold`).

3. **Feasible Monge regions.**  The interior rows × ``[L_k, c_k]``
   rectangles are full Monge arrays — one more batched call into the
   Monge recursion.

4. **Feasible staircase regions.**  Each interior block's *overhang*
   (columns ``[g_k, g_{k-1})``, where the boundary varies inside the
   block) is a staircase-Monge array with ``≤ s`` rows; the algorithm
   recurses on all of them (plus the tail block below the last sampled
   row) in one batched call — the paper's "subdividing into ``s×s``
   pieces".

5. **Combine.**  An interior row's answer is the smaller of its Monge-
   region and overhang minima; on ties the Monge region wins (its
   columns lie strictly left).

Round recurrence: ``T(m) = O(T_monge) + O(lg u) + T(√m)``, i.e.
``O(lg n)`` CRCW rounds with the doubly-log grouped minima and
``O(lg n·lg lg n)`` CREW — Table 1.2's rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro._util.bits import ceil_sqrt_array
from repro._util.ragged import offsets_of, ragged as _ragged
from repro._util.validation import as_index_vector
from repro.monge.arrays import SearchArray
from repro.monge.staircase_seq import effective_boundary
from repro.pram.ansv import nearest_smaller_left_threshold
from repro.pram.machine import Pram
from repro.kernels.api import eval_grouped_min
from repro.pram.primitives import grouped_min
from repro.core.rowmin_pram import _Batch, _solve_batch

__all__ = [
    "staircase_row_minima_pram",
    "staircase_row_minima_batch",
    "staircase_row_maxima_pram",
]


def staircase_row_maxima_pram(pram: Pram, array) -> Tuple[np.ndarray, np.ndarray]:
    """Row maxima of a staircase-Monge array over its finite prefixes —
    §1.2's *easy* direction, parallel.

    Monge row-maxima positions are nonincreasing; flipping the row order
    makes them nondecreasing while the prefix windows ``[0, f_i)``
    become nondecreasing too — a co-monotone band, solved by the
    Table 1.1-class banded search (no Theorem 2.3 machinery needed,
    which is exactly the paper's point).  All-``∞`` rows give
    ``(-inf, -1)``.  The algorithm body is :func:`_staircase_maxima_impl`,
    which the engine registry runs too.
    """
    return _staircase_maxima_impl(pram, array)


def _staircase_maxima_impl(pram: Pram, array) -> Tuple[np.ndarray, np.ndarray]:
    """Algorithm body behind :func:`staircase_row_maxima_pram`."""
    from repro.core.banded import banded_row_maxima_pram

    arr, f = effective_boundary(array)
    m = arr.shape[0]
    if m == 0:
        return np.empty(0), np.empty(0, dtype=np.int64)
    lo = np.zeros(m, dtype=np.int64)
    hi = f[::-1].copy()  # nondecreasing after the flip
    vals, cols = banded_row_maxima_pram(pram, arr.flip_rows(), lo, hi)
    return vals[::-1].copy(), cols[::-1].copy()

_SMALL_ROWS = 4


@dataclass
class _StairBatch:
    """Staircase subproblems: contiguous rows × contiguous columns.

    Subproblem ``i`` covers global rows ``[rs[i], rs[i]+rcount[i])`` and
    global columns ``[cs[i], cs[i]+ccount[i])``; each row's finite part
    within the range is ``[cs, min(f[row], cs+ccount))``.
    """

    rs: np.ndarray
    rcount: np.ndarray
    cs: np.ndarray
    ccount: np.ndarray

    def __len__(self) -> int:
        return self.rs.size

    def row_offsets(self) -> np.ndarray:
        return offsets_of(self.rcount)

    def select(self, mask):
        return _StairBatch(self.rs[mask], self.rcount[mask], self.cs[mask], self.ccount[mask])


def staircase_row_minima_pram(pram: Pram, array) -> Tuple[np.ndarray, np.ndarray]:
    """Leftmost row minima of a staircase-Monge array, parallel.

    Rows whose finite prefix is empty report ``(inf, -1)``.
    Returns ``(values, columns)``.  The algorithm body is
    :func:`_staircase_minima_impl`, which the engine registry runs too.
    """
    return _staircase_minima_impl(pram, array)


def _staircase_minima_impl(pram: Pram, array) -> Tuple[np.ndarray, np.ndarray]:
    """Algorithm body behind :func:`staircase_row_minima_pram`."""
    arr, f = effective_boundary(array)
    m, n = arr.shape
    if m == 0:
        return np.empty(0), np.empty(0, dtype=np.int64)
    batch = _StairBatch(
        rs=np.array([0], dtype=np.int64),
        rcount=np.array([m], dtype=np.int64),
        cs=np.array([0], dtype=np.int64),
        ccount=np.array([n], dtype=np.int64),
    )
    return _stair_solve(pram, arr, f.astype(np.int64), batch)


def staircase_row_minima_batch(
    pram: Pram,
    arr: SearchArray,
    f: np.ndarray,
    rs: np.ndarray,
    rcount: np.ndarray,
    cs: np.ndarray,
    ccount: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Solve several staircase subproblems of one implicit array at once.

    Subproblem ``i`` covers global rows ``[rs[i], rs[i]+rcount[i])`` and
    columns ``[cs[i], cs[i]+ccount[i])``; ``f`` is the global boundary
    (first infinite column per global row).  All subproblems execute
    level-synchronously — sibling instances share rounds, which is how
    the applications run their per-case staircase searches concurrently.
    Results are flat in batch-row order.

    The subproblems are checked before anything is charged: ``rs``,
    ``rcount``, ``cs`` and ``ccount`` must be equal-length 1-D integer
    arrays, all nonnegative, with ``rs + rcount <= m``; ``f`` must hold
    ``m`` integers in ``[0, n]``.  A non-integer argument raises
    ``TypeError``, any other violation ``ValueError``; both name it.
    """
    m, n = arr.shape
    names = ("rs", "rcount", "cs", "ccount")
    fields = [as_index_vector(x, name) for x, name in zip((rs, rcount, cs, ccount), names)]
    for x, name in zip(fields, names):
        if x.shape != (fields[0].size,):
            raise ValueError(f"{name} must be a 1-D array as long as rs, got shape {x.shape}")
        if x.size and np.minimum.reduce(x) < 0:
            raise ValueError(f"{name} must be nonnegative")
    batch = _StairBatch(*fields)
    if batch.rs.size and np.maximum.reduce(batch.rs + batch.rcount) > m:
        raise ValueError(f"rs + rcount must not exceed the array's {m} rows")
    f = as_index_vector(f, "f")
    if f.shape != (m,):
        raise ValueError(f"f must have shape ({m},), got {f.shape}")
    if m and (np.minimum.reduce(f) < 0 or np.maximum.reduce(f) > n):
        raise ValueError(f"f must lie within [0, {n}]")
    return _stair_solve(pram, arr, f, batch)


def _effective_widths(f, batch: _StairBatch, rows_global, owner):
    """Finite width of each row inside its subproblem's column range."""
    hi = np.minimum(f[rows_global], batch.cs[owner] + batch.ccount[owner])
    return np.maximum(0, hi - batch.cs[owner])


def _stair_solve(pram: Pram, arr: SearchArray, f: np.ndarray, batch: _StairBatch):
    if not np.count_nonzero(batch.rcount):
        return np.empty(0), np.empty(0, dtype=np.int64)
    small = batch.rcount <= _SMALL_ROWS
    n_small = np.count_nonzero(small)
    if n_small == len(batch):
        # the grouped minima already come out in batch-row order
        return _stair_small(pram, arr, f, batch)

    row_off = batch.row_offsets()
    vals = np.full(int(row_off[-1]), np.inf)
    cols = np.full(int(row_off[-1]), -1, dtype=np.int64)
    if n_small:
        small_rows = small.repeat(batch.rcount)
        vals[small_rows], cols[small_rows] = _stair_small(pram, arr, f, batch.select(small))
        big = ~small
        bb = batch.select(big)
        big_start = row_off[:-1][big]
    else:
        bb = batch
        big_start = row_off[:-1]
    nb = len(bb)
    s = ceil_sqrt_array(bb.rcount)
    u = bb.rcount // s  # sampled rows per subproblem (>= 1)

    # sampled global rows: S_k = rs + (k+1)s - 1
    samp_local_k, samp_owner, samp_off = _ragged(u)
    samp_rows_g = bb.rs[samp_owner] + (samp_local_k + 1) * s[samp_owner] - 1
    # sampled effective boundaries g_k (column counts within range)
    g = _effective_widths(f, bb, samp_rows_g, samp_owner)  # nonincreasing per owner

    # ---- phase 1: Fig. 2.1 Monge blocks over the sampled array -------- #
    # block j of a subproblem: sampled rows 0..j × columns [g_{j+1}, g_j)
    g_next = np.where(
        samp_local_k + 1 < u[samp_owner],
        _shift_within(g, -1),
        0,
    )
    blk_width = g - g_next
    blk_keep = blk_width > 0
    mb = _Batch(
        rs=(bb.rs[samp_owner] + s[samp_owner] - 1)[blk_keep],
        rstride=s[samp_owner][blk_keep],
        rcount=(samp_local_k + 1)[blk_keep],
        cs=(bb.cs[samp_owner] + g_next)[blk_keep],
        ccount=blk_width[blk_keep],
    )
    pram.charge(rounds=2, processors=max(1, len(mb)))
    with pram.obs_phase("sampled-blocks"):
        bvals, bcols = _solve_batch(pram, arr, mb)

    # combine: sampled row k gathers winners of its blocks j >= k,
    # ordered j descending (leftmost column ranges first).  Block j's
    # rows are sampled rows 0..j, so its results are the candidates
    # (block, k) for k = 0..j, already flat in that order.
    kept_j = samp_local_k[blk_keep]                     # block's j within its subproblem
    cand_k, c_blk, _ = _ragged(kept_j + 1)
    # group by (owner, k), candidates ordered by j DESC within the group
    grp_id = samp_off[:-1][samp_owner[blk_keep]][c_blk] + cand_k
    order = np.lexsort((-kept_j[c_blk], grp_id))
    cand_val = bvals[order]
    cand_col = bcols[order]
    offsets = offsets_of(np.bincount(grp_id, minlength=samp_local_k.size))
    pram.charge(rounds=3, processors=max(1, cand_val.size))  # gather + route
    sv, si = grouped_min(pram, cand_val, offsets)
    c_pos = _pick(cand_col, si)  # global col of c_k
    # write sampled rows' results
    dest_samp = (big_start - 1)[samp_owner] + (samp_local_k + 1) * s[samp_owner]
    vals[dest_samp] = sv
    cols[dest_samp] = c_pos
    pram.charge(rounds=1, processors=max(1, dest_samp.size))

    # ---- phase 2: bracketing via generalized ANSV --------------------- #
    # For interior block k (rows between sampled k-1 and k): find the
    # nearest earlier sampled row j < k with c_j < cs + g_k.
    # Work per subproblem on the sequence of c positions; -1 (all-inf
    # sampled row) is encoded +inf so it never brackets.
    c_seq = np.where(c_pos >= 0, c_pos.astype(np.float64), np.inf)
    thresholds = (bb.cs[samp_owner] + g).astype(np.float64)
    # queries are per sampled row k (block above it); positions within the
    # global flat sampled sequence, but brackets must not cross subproblem
    # boundaries: offset thresholds trick — run ANSV per flat sequence and
    # clamp: use sentinel by making positions start at samp_off[owner].
    brk = nearest_smaller_left_threshold(
        pram, c_seq, thresholds, np.arange(c_seq.size, dtype=np.int64)
    )
    # discard brackets that fall into a previous subproblem
    brk = np.where(brk >= samp_off[:-1][samp_owner], brk, -1)
    L = np.where(brk >= 0, c_seq[np.maximum(brk, 0)], bb.cs[samp_owner]).astype(np.int64)
    pram.charge(rounds=1, processors=max(1, brk.size))

    # ---- phase 3: feasible Monge regions (interior rows × [L, c_k]) --- #
    blk_r0 = samp_local_k * s[samp_owner]                    # first interior row (local)
    blk_rows = s[samp_owner] - 1                             # interior rows per block
    has_monge = (blk_rows > 0) & (c_pos >= 0)
    mgb = _Batch(
        rs=(bb.rs[samp_owner] + blk_r0)[has_monge],
        rstride=np.ones(np.count_nonzero(has_monge), dtype=np.int64),
        rcount=blk_rows[has_monge],
        cs=L[has_monge],
        ccount=(c_pos - L + 1)[has_monge],
    )
    pram.charge(rounds=2, processors=max(1, len(mgb)))
    with pram.obs_phase("interior-monge"):
        mg_vals, mg_cols = _solve_batch(pram, arr, mgb)

    # ---- phase 4: overhang + tail staircase recursions ----------------- #
    # overhang of block k: interior rows × columns [cs+g_k, cs+g_{k-1})
    g_prev = np.where(samp_local_k > 0, _shift_within(g, +1), bb.ccount[samp_owner])
    over_w = np.maximum(0, g_prev - g)
    has_over = (blk_rows > 0) & (over_w > 0)
    # tail block: rows below the last sampled row, full remaining range,
    # lower-bounded by the bracket of threshold g_tail (weakest row bound)
    tail_r0 = u * s  # local index of first tail row
    tail_rows = bb.rcount - tail_r0
    has_tail = tail_rows > 0
    # tail bracket: nearest sampled j with c_j < cs + (effective f of last row)
    last_rows_g = bb.rs + bb.rcount - 1
    tail_thr = (bb.cs + _effective_widths(f, bb, last_rows_g, np.arange(nb))).astype(np.float64)
    tail_pos = samp_off[1:].astype(np.int64)  # query after each owner's last sampled row
    tail_brk = nearest_smaller_left_threshold(pram, c_seq, tail_thr, tail_pos)
    tail_brk = np.where(tail_brk >= samp_off[:-1], tail_brk, -1)
    tail_L = np.where(tail_brk >= 0, c_seq[np.maximum(tail_brk, 0)], bb.cs).astype(np.int64)

    st_rs = np.concatenate([
        (bb.rs[samp_owner] + blk_r0)[has_over],
        (bb.rs + tail_r0)[has_tail],
    ])
    st_rcount = np.concatenate([blk_rows[has_over], tail_rows[has_tail]])
    st_cs = np.concatenate([
        (bb.cs[samp_owner] + g)[has_over],
        tail_L[has_tail],
    ])
    st_ccount = np.concatenate([
        over_w[has_over],
        (bb.cs + bb.ccount - tail_L)[has_tail],
    ])
    stb = _StairBatch(st_rs, st_rcount, st_cs, st_ccount)
    pram.charge(rounds=2, processors=max(1, len(stb)))
    with pram.obs_phase("stair-recursion"):
        st_vals, st_cols = _stair_solve(pram, arr, f, stb)

    # ---- phase 5: combine interior rows -------------------------------- #
    # output position of each block's first interior row
    blk_start = big_start[samp_owner] + blk_r0
    # Monge-region results
    if len(mgb):
        li, _, _ = _ragged(mgb.rcount)
        dest = blk_start[has_monge].repeat(mgb.rcount) + li
        _combine_min(vals, cols, dest, mg_vals, mg_cols)
        pram.charge(rounds=1, processors=max(1, dest.size))
    # staircase (overhang + tail) results
    if len(stb):
        st_start = np.concatenate([blk_start[has_over], (big_start + tail_r0)[has_tail]])
        li2, _, _ = _ragged(st_rcount)
        dest2 = st_start.repeat(st_rcount) + li2
        _combine_min(vals, cols, dest2, st_vals, st_cols)
        pram.charge(rounds=1, processors=max(1, dest2.size))
    return vals, cols


def _stair_small(pram: Pram, arr: SearchArray, f: np.ndarray, sb: _StairBatch):
    """Base case: brute grouped minimum over each row's finite prefix,
    results in batch-row order."""
    lr, owner, _ = _ragged(sb.rcount)
    rows_g = sb.rs[owner] + lr
    widths = _effective_widths(f, sb, rows_g, owner)
    offsets = offsets_of(widths)
    total = int(offsets[-1])
    pram.charge(rounds=2, processors=max(1, widths.size))
    if total:
        rows_flat = rows_g.repeat(widths)
        cols_flat = (sb.cs[owner] - offsets[:-1]).repeat(widths) + np.arange(total)
        gv, gi = eval_grouped_min(
            pram,
            lambda lo, hi: arr.eval(rows_flat[lo:hi], cols_flat[lo:hi], checked=False),
            total,
            offsets,
        )
        gc = np.where(gi >= 0, cols_flat[np.maximum(gi, 0)], -1)
    else:
        gv = np.full(widths.size, np.inf)
        gc = np.full(widths.size, -1, dtype=np.int64)
    pram.charge(rounds=1, processors=max(1, gv.size))
    return gv, gc


def _pick(src: np.ndarray, gi: np.ndarray) -> np.ndarray:
    """``src[gi]`` with ``-1`` passthrough and empty-source tolerance."""
    if src.size == 0:
        return np.full(gi.shape, -1, dtype=np.int64)
    return np.where(gi >= 0, src[np.maximum(gi, 0)], -1)


def _shift_within(x: np.ndarray, direction: int) -> np.ndarray:
    """Shift ``x`` by one place.

    ``direction=-1`` brings the *next* element (the last gets 0),
    ``+1`` brings the *previous* (the first gets 0).  Values that cross
    a segment boundary are masked by callers.
    """
    out = np.empty_like(x)
    if direction < 0:
        out[:-1] = x[1:]
        out[-1:] = 0
    else:
        out[1:] = x[:-1]
        out[:1] = 0
    return out


_NO_COLUMN = np.iinfo(np.int64).max  # a -1 witness ranks after every column


def _combine_min(vals, cols, dest, new_vals, new_cols):
    """Keep the smaller value; ties prefer the smaller column (leftmost)."""
    cur_v = vals[dest]
    cur_c = cols[dest]
    nc = np.where(new_cols >= 0, new_cols, _NO_COLUMN)
    cc = np.where(cur_c >= 0, cur_c, _NO_COLUMN)
    take = (new_vals < cur_v) | ((new_vals == cur_v) & (nc < cc))
    vals[dest] = np.where(take, new_vals, cur_v)
    cols[dest] = np.where(take, new_cols, cur_c)
