"""Parallel tube searching in Monge-composite arrays (Table 1.3).

For ``c[i,j,k] = d[i,j] + e[j,k]`` with Monge factors, compute
``f[i,k] = min_j c[i,j,k]`` (and the max variant) with witnesses.

Monotonicity (both tested):  the leftmost witness ``j*(i,k)`` is
nondecreasing in ``i`` for fixed ``k`` and nondecreasing in ``k`` for
fixed ``i`` — the ``(i,j)`` slab and the ``(k,j)`` slab are both Monge.

Two schemes:

``crew`` — the halving scheme of [AP89a, AALM88]
    Solve output rows of stride ``2s``, then rows of stride ``s``: cell
    ``(i,k)`` searches ``j ∈ [j*(i-s,k), j*(i+s,k)]``.  Per level the
    candidate total telescopes to ``O(r(q + p/s))``; ``lg p`` levels.
    With the CREW binary grouped minimum each level costs the log of the
    level's widest group — ``Θ(lg n)``-shaped rounds on an ``n²``-class
    processor budget (Table 1.3 row 2; the paper reaches ``n²/lg n``
    processors via Brent, which :class:`~repro.pram.scheduling.BrentPram`
    reproduces).

``crcw`` — the doubly-logarithmic scheme of [Ata89]
    Sample every ``√p``-th output row and ``√r``-th output column;
    recursively solve the sampled ``√p×√r`` grid; then interpolate in
    two 1-D passes (all rows at sampled columns, then all columns), each
    a constant number of doubly-log grouped minima.  Rounds follow
    ``T(n) = T(√n) + O(lg lg n)`` — ``Θ(lg lg n)``-shaped on CRCW
    (Table 1.3 row 1).

Ties break to the smallest ``j`` (the paper's minimum-third-coordinate
rule); the max variant is the flip/negate reduction documented in
:func:`tube_maxima_pram`.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro._util.bits import ceil_sqrt
from repro._util.ragged import ragged as _ragged
from repro.monge.arrays import MongeComposite
from repro.pram.machine import Pram
from repro.kernels.api import eval_grouped_min

__all__ = ["tube_minima_pram", "tube_maxima_pram"]


def _as_composite(c) -> MongeComposite:
    if isinstance(c, MongeComposite):
        return c
    if isinstance(c, tuple) and len(c) == 2:
        return MongeComposite(*c)
    raise TypeError("expected a MongeComposite or a (D, E) pair")


def tube_minima_pram(pram: Pram, composite, scheme: str = "auto") -> Tuple[np.ndarray, np.ndarray]:
    """Tube (product) minima with witnesses: ``(values, j_args)``,
    both of shape ``(p, r)``.

    ``scheme``: ``"crew"`` (halving), ``"crcw"`` (doubly-log sampling),
    or ``"auto"`` (pick by machine model).  The algorithm body is
    :func:`_tube_minima_impl`, which the engine registry runs too.
    """
    return _tube_minima_impl(pram, composite, scheme=scheme)


def tube_maxima_pram(pram: Pram, composite, scheme: str = "auto") -> Tuple[np.ndarray, np.ndarray]:
    """Tube maxima with smallest-``j`` witnesses.

    Reduction: flipping ``D``'s rows and ``E``'s columns and negating
    both factors yields Monge factors again; minima of the transformed
    composite at ``(p-1-i, r-1-k)`` are the negated maxima at ``(i,k)``,
    with identical ``j`` order (so leftmost ties are preserved).
    """
    return _tube_maxima_impl(pram, composite, scheme=scheme)


def _tube_minima_impl(pram: Pram, composite, scheme: str = "auto") -> Tuple[np.ndarray, np.ndarray]:
    """Algorithm body behind :func:`tube_minima_pram`."""
    c = _as_composite(composite)
    if scheme == "auto":
        scheme = "crcw" if pram.model.is_crcw else "crew"
    if scheme == "crew":
        return _tube_min_halving(pram, c)
    if scheme == "crcw":
        pram.require_crcw("tube_minima_pram(scheme='crcw')")
        return _tube_min_sampling(pram, c)
    raise ValueError(f"unknown scheme {scheme!r}")


def _tube_maxima_impl(pram: Pram, composite, scheme: str = "auto") -> Tuple[np.ndarray, np.ndarray]:
    """Algorithm body behind :func:`tube_maxima_pram`."""
    c = _as_composite(composite)
    flipped = MongeComposite(c.D.flip_rows().negate(), c.E.flip_cols().negate())
    vals, args = _tube_minima_impl(pram, flipped, scheme=scheme)
    return -vals[::-1, ::-1], args[::-1, ::-1].copy()


# --------------------------------------------------------------------- #
def _fill_rows(pram, c, rows, lo, hi, J, V):
    """Grouped minima for output cells (rows × their [lo, hi] j-ranges).

    ``rows``: (cell_i, cell_k) index arrays; ``lo``/``hi``: per-cell
    witness bounds (inclusive).  Writes into ``J``/``V``.
    """
    cell_i, cell_k = rows
    hi = np.maximum(hi, lo)  # defensive: eps-tied witnesses can cross
    widths = hi - lo + 1
    if widths.size == 0:
        return
    local, owner, offsets = _ragged(widths)
    jj = lo[owner] + local
    ii = cell_i[owner]
    kk = cell_k[owner]
    pram.charge(rounds=2, processors=max(1, widths.size))  # telescoped allocation
    gv, gi = eval_grouped_min(
        pram,
        lambda lo_, hi_: c.D.eval(ii[lo_:hi_], jj[lo_:hi_], checked=False)
        + c.E.eval(jj[lo_:hi_], kk[lo_:hi_], checked=False),
        jj.size,
        offsets,
    )
    J[cell_i, cell_k] = np.where(gi >= 0, jj[np.maximum(gi, 0)], -1)
    V[cell_i, cell_k] = gv
    pram.charge(rounds=1, processors=max(1, cell_i.size))


def _tube_min_halving(pram: Pram, c: MongeComposite):
    """[AP89a, AALM88]: halving over output rows, all columns at once."""
    p, q, r = c.shape
    J = np.full((p, r), -1, dtype=np.int64)
    V = np.full((p, r), np.inf)
    if p == 0 or r == 0:
        return V, J
    kk = np.arange(r, dtype=np.int64)

    stride = 1
    while stride * 2 < p:
        stride *= 2
    # the first level's rows (stride - 1, and p - 1 when p = 2·stride)
    # have no solved neighbors
    new_rows = np.arange(stride - 1, p, stride, dtype=np.int64)
    lo = np.zeros((new_rows.size, r), dtype=np.int64)
    hi = np.full((new_rows.size, r), q - 1, dtype=np.int64)
    while True:
        # per-(row, k) bounds from neighbors, cells row-major
        cells = (new_rows.repeat(r), _tile(kk, new_rows.size))
        _fill_rows(pram, c, cells, lo.ravel(), hi.ravel(), J, V)
        stride //= 2
        if not stride:
            return V, J
        # every row at stride 2s is solved; the unsolved rows at stride s
        # sit halfway between two of them, at row ± s
        new_rows = np.arange(stride - 1, p, 2 * stride, dtype=np.int64)
        below = new_rows + stride
        lo = np.where((new_rows >= stride)[:, None], J[new_rows - stride], 0)
        hi = np.where((below < p)[:, None], J[np.minimum(below, p - 1)], q - 1)


def _tube_min_sampling(pram: Pram, c: MongeComposite):
    """[Ata89]: 2-D sampled recursion + two 1-D interpolation passes."""
    p, q, r = c.shape
    J = np.full((p, r), -1, dtype=np.int64)
    V = np.full((p, r), np.inf)
    if p == 0 or r == 0:
        return V, J
    _sampling_solve(pram, c, np.arange(p, dtype=np.int64), np.arange(r, dtype=np.int64), J, V)
    return V, J


def _tile(x, count):
    """``np.tile(x, count)`` for 1-D ``x``, through C-level methods."""
    return x[None, :].repeat(count, axis=0).ravel()


def _sampling_solve(pram, c, rows, ks, J, V):
    """Solve output cells ``rows × ks`` (index subsets), writing J/V."""
    p, q, r = c.shape
    nr, nk = rows.size, ks.size
    if nr * nk <= 16:
        cell_i = rows.repeat(nk)
        cell_k = _tile(ks, nr)
        lo = np.zeros(cell_i.size, dtype=np.int64)
        hi = np.full(cell_i.size, q - 1, dtype=np.int64)
        _fill_rows(pram, c, (cell_i, cell_k), lo, hi, J, V)
        return
    # every sr-th row and sk-th column (never empty: ceil_sqrt(x) <= x);
    # the rest, the complement of these stride slices, are interpolated
    sr = ceil_sqrt(nr)
    sk = ceil_sqrt(nk)
    samp_rows = rows[sr - 1 :: sr]
    samp_ks = ks[sk - 1 :: sk]
    with pram.obs_phase("sampled-grid"):
        _sampling_solve(pram, c, samp_rows, samp_ks, J, V)

    # ---- pass A: every row at the sampled columns (monotone in i) ----- #
    interp = np.ones(nr, dtype=bool)
    interp[sr - 1 :: sr] = False
    interp_rows = rows[interp]
    if interp_rows.size:
        pos = samp_rows.searchsorted(interp_rows)
        above = np.where(pos > 0, samp_rows[np.maximum(pos - 1, 0)], -1)
        below = np.where(pos < samp_rows.size, samp_rows[np.minimum(pos, samp_rows.size - 1)], -1)
        cell_i = interp_rows.repeat(samp_ks.size)
        cell_k = _tile(samp_ks, interp_rows.size)
        a = above.repeat(samp_ks.size)
        b = below.repeat(samp_ks.size)
        lo = np.where(a >= 0, J[np.maximum(a, 0), cell_k], 0)
        hi = np.where(b >= 0, J[np.maximum(b, 0), cell_k], q - 1)
        with pram.obs_phase("interp-rows"):
            _fill_rows(pram, c, (cell_i, cell_k), lo, hi, J, V)

    # ---- pass B: every row, remaining columns (monotone in k) --------- #
    interp = np.ones(nk, dtype=bool)
    interp[sk - 1 :: sk] = False
    interp_ks = ks[interp]
    if interp_ks.size:
        pos = samp_ks.searchsorted(interp_ks)
        left = np.where(pos > 0, samp_ks[np.maximum(pos - 1, 0)], -1)
        right = np.where(pos < samp_ks.size, samp_ks[np.minimum(pos, samp_ks.size - 1)], -1)
        cell_i = rows.repeat(interp_ks.size)
        cell_k = _tile(interp_ks, rows.size)
        lf = _tile(left, rows.size)
        rt = _tile(right, rows.size)
        lo = np.where(lf >= 0, J[cell_i, np.maximum(lf, 0)], 0)
        hi = np.where(rt >= 0, J[cell_i, np.maximum(rt, 0)], q - 1)
        with pram.obs_phase("interp-cols"):
            _fill_rows(pram, c, (cell_i, cell_k), lo, hi, J, V)
