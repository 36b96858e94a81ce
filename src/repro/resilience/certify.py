"""Self-certification of search results via local-optimality windows.

A run of the Table 1.1–1.3 algorithms returns values and witness
columns.  Given that the *input* really is (staircase-)Monge, the
output can be verified far more cheaply than by re-solving:

**Full Monge arrays** (``certify_row_minima`` with no boundary).  Check

1. every reported value matches its witness entry,
2. witness columns are nondecreasing (leftmost-minima monotonicity),
3. each row ``i`` beats every column of its *window*
   ``[c_{i-1}, c_{i+1}]`` (row 0 anchored at column 0, the last row at
   column ``n-1``) — strictly for columns left of the witness (this
   certifies the *leftmost* tie-break), weakly to the right.

Soundness: suppose all checks pass but row ``i``'s true minimum sits at
``j < c_{i-1}`` with ``a[i,j] < a[i,c_i]``.  The Monge quadruple on
rows ``(i-1, i)`` and columns ``(j, c_{i-1})`` gives
``a[i-1,j] - a[i-1,c_{i-1}] <= a[i,j] - a[i,c_{i-1}] < 0``, i.e. row
``i-1`` would also improve at ``j`` — the violation propagates up to
row 0, whose window starts at column 0 and would have caught it.
Symmetrically for ``j > c_{i+1}`` propagating down to the last row.
The window sizes telescope: ``O(m + n)`` evaluations total.

**Staircase-Monge arrays** (``certify_staircase_row_minima`` /
``certify_row_minima`` with ``boundary=f``).  Witness positions are
*not* globally monotone (that is the whole difficulty of Theorem 2.3);
what survives is the conditional form: for consecutive finite rows,
``c_{i+1} >= c_i`` **or** ``c_i >= f_{i+1}`` (if row ``i``'s witness is
still finite in row ``i+1``'s prefix, monotonicity applies to the
shared prefix, which is a full Monge array).  The window of row ``i``
becomes ``[lo_i, c_{i+1}] ∪ [f_{i+1}, f_i)``, where ``lo_i = c_{i-1}``
when the chain is unbroken (``c_{i-1} < f_i``) and ``0`` otherwise —
chain-break rows pay their full finite prefix, so the worst case is
``O(mn)`` but typical staircases stay near-linear.  The upward/downward
propagation argument above applies within each shared finite prefix;
the overhang columns ``[f_{i+1}, f_i)`` exist only in row ``i``'s
prefix and are checked directly.

**Tube (Monge-composite) outputs** (``certify_tube_minima``).  For
fixed ``i`` the slab ``M_i[k,j] = d[i,j] + e[j,k]`` is Monge in
``(k,j)``, so each output row ``i`` is certified with the full-Monge
window scheme along ``k``; the cross-row condition ``j*(i,k)``
nondecreasing in ``i`` (the ``(i,j)`` slab is Monge too) is checked as
a necessary condition.  ``O(p(q + r))`` evaluations.

All certificates are *conditional*: they assume the input has the
structure the algorithm was promised.  When even that is in doubt,
check it first with :mod:`repro.monge.properties` (``is_monge``,
``is_inverse_monge``, ``is_staircase_monge``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.monge.arrays import MongeComposite, as_search_array
from repro.monge.staircase_seq import effective_boundary

__all__ = [
    "Certificate",
    "CertificationError",
    "certify_row_minima",
    "certify_staircase_row_minima",
    "certify_tube_minima",
]

_MAX_FAILURES = 32  # retained failure messages per certificate


class CertificationError(RuntimeError):
    """Raised by ``Certificate.require()`` on a failed certificate."""


@dataclass
class Certificate:
    """Outcome of one certification pass.

    ``evals`` counts the array-entry evaluations the check spent —
    the certificate's own cost, reported so callers can see it stays
    near-linear.
    """

    ok: bool
    kind: str
    evals: int = 0
    failures: List[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok

    def fail(self, message: str) -> None:
        self.ok = False
        if len(self.failures) < _MAX_FAILURES:
            self.failures.append(message)

    def require(self) -> "Certificate":
        if not self.ok:
            shown = "; ".join(self.failures[:4])
            raise CertificationError(f"{self.kind} certificate failed: {shown}")
        return self


# --------------------------------------------------------------------- #
def certify_row_minima(array, values, cols, boundary=None) -> Certificate:
    """Certify leftmost row-minima output of a (staircase-)Monge array.

    Parameters
    ----------
    array:
        Anything :func:`~repro.monge.arrays.as_search_array` accepts.
    values, cols:
        The claimed minima and witness columns; all-``∞`` rows must
        report ``(inf, -1)``.
    boundary:
        Per-row first-infinite-column vector ``f`` for staircase
        inputs (``None`` means fully finite).
    """
    kind = "row-minima" if boundary is None else "staircase-row-minima"
    cert = Certificate(True, kind)
    a = as_search_array(array)
    m, n = a.shape
    vals = np.asarray(values, dtype=np.float64)
    cols_ = np.asarray(cols, dtype=np.int64)
    if vals.shape != (m,) or cols_.shape != (m,):
        cert.fail(f"output shapes {vals.shape}/{cols_.shape} do not match {m} rows")
        return cert
    if m == 0:
        return cert

    if boundary is None:
        f = np.full(m, n, dtype=np.int64)
    else:
        f = np.asarray(boundary, dtype=np.int64)
        if f.shape != (m,):
            cert.fail(f"boundary shape {f.shape} does not match {m} rows")
            return cert
        if (f < 0).any() or (f > n).any():
            cert.fail("boundary entries out of range [0, n]")
            return cert
        if (np.diff(f) > 0).any():
            cert.fail("boundary is not nonincreasing (not staircase-shaped)")
            return cert

    # -- shape of the answer on empty/non-empty rows -------------------- #
    empty = f == 0
    bad_empty = empty & ((cols_ != -1) | ~np.isposinf(vals))
    for i in np.nonzero(bad_empty)[0][:4]:
        cert.fail(f"row {i} has an empty finite prefix but reports "
                  f"({vals[i]}, {cols_[i]}) instead of (inf, -1)")
    valid = ~empty
    out_of_range = valid & ((cols_ < 0) | (cols_ >= f))
    for i in np.nonzero(out_of_range)[0][:4]:
        cert.fail(f"row {i} witness column {cols_[i]} outside its finite "
                  f"prefix [0, {f[i]})")
    if not cert.ok:
        return cert

    rows_idx = np.nonzero(valid)[0]
    if rows_idx.size == 0:
        return cert

    # -- (1) witness consistency ---------------------------------------- #
    got = a.eval(rows_idx, cols_[rows_idx])
    cert.evals += rows_idx.size
    bad = got != vals[rows_idx]
    for i, g in zip(rows_idx[bad][:4], got[bad][:4]):
        cert.fail(f"row {i}: reported value {vals[i]} but a[{i},{cols_[i]}] = {g}")
    if not cert.ok:
        return cert

    # -- (2) (conditional) witness monotonicity ------------------------- #
    prev = rows_idx[:-1]
    nxt = rows_idx[1:]
    mono_ok = (cols_[nxt] >= cols_[prev]) | (cols_[prev] >= f[nxt])
    for i, j in zip(prev[~mono_ok][:4], nxt[~mono_ok][:4]):
        cert.fail(f"rows {i}->{j}: witnesses {cols_[i]}->{cols_[j]} violate "
                  f"monotonicity (both inside the shared finite prefix)")
    if not cert.ok:
        return cert

    # -- (3) window optimality ------------------------------------------ #
    seg_rows: List[np.ndarray] = []
    seg_cols: List[np.ndarray] = []
    for pos, i in enumerate(rows_idx):
        fi = f[i]
        ci = cols_[i]
        if pos > 0:
            cp = cols_[rows_idx[pos - 1]]
            lo = cp if cp < fi else 0  # chain break: pay the full prefix
        else:
            lo = 0
        segments = []
        if pos + 1 < rows_idx.size:
            i_next = rows_idx[pos + 1]
            cn = cols_[i_next]
            # a legal downward jump (c_{i+1} < c_i, possible only across a
            # boundary drop) breaks the monotone chain: pay the full prefix
            hi = min(cn, fi - 1) if cn >= ci else fi - 1
            segments.append((lo, hi))
            if f[i_next] < fi:
                segments.append((int(f[i_next]), fi - 1))  # the overhang
        else:
            segments.append((lo, fi - 1))
        covered = []
        for a_lo, a_hi in segments:
            if a_hi >= a_lo:
                covered.append(np.arange(a_lo, a_hi + 1, dtype=np.int64))
        if not covered:
            continue
        js = np.unique(np.concatenate(covered))
        js = js[js != ci]
        if js.size:
            seg_rows.append(np.full(js.size, i, dtype=np.int64))
            seg_cols.append(js)
    if seg_rows:
        rr = np.concatenate(seg_rows)
        jj = np.concatenate(seg_cols)
        entries = a.eval(rr, jj)
        cert.evals += rr.size
        left = jj < cols_[rr]
        bad_left = left & ~(entries > vals[rr])
        bad_right = ~left & ~(entries >= vals[rr])
        for t in np.nonzero(bad_left)[0][:4]:
            cert.fail(f"row {rr[t]}: a[{rr[t]},{jj[t]}] = {entries[t]} does not "
                      f"exceed the reported minimum {vals[rr[t]]} left of the "
                      f"witness (leftmost tie-break violated or wrong minimum)")
        for t in np.nonzero(bad_right)[0][:4]:
            cert.fail(f"row {rr[t]}: a[{rr[t]},{jj[t]}] = {entries[t]} is below "
                      f"the reported minimum {vals[rr[t]]}")
    return cert


def certify_staircase_row_minima(array, values, cols, boundary=None) -> Certificate:
    """Certify Theorem 2.3 output; computes the boundary if not given."""
    if boundary is None:
        try:
            arr, f = effective_boundary(array)
        except ValueError as exc:
            cert = Certificate(False, "staircase-row-minima")
            cert.fail(f"input is not staircase-shaped: {exc}")
            return cert
        return certify_row_minima(arr, values, cols, boundary=f)
    return certify_row_minima(array, values, cols, boundary=boundary)


# --------------------------------------------------------------------- #
def _as_composite(c) -> MongeComposite:
    if isinstance(c, MongeComposite):
        return c
    if isinstance(c, tuple) and len(c) == 2:
        return MongeComposite(*c)
    raise TypeError("expected a MongeComposite or a (D, E) pair")


def certify_tube_minima(composite, values, jargs) -> Certificate:
    """Certify tube minima ``f[i,k] = min_j d[i,j] + e[j,k]`` with
    smallest-``j`` witnesses, in ``O(p(q + r))`` evaluations."""
    cert = Certificate(True, "tube-minima")
    c = _as_composite(composite)
    p, q, r = c.shape
    V = np.asarray(values, dtype=np.float64)
    J = np.asarray(jargs, dtype=np.int64)
    if V.shape != (p, r) or J.shape != (p, r):
        cert.fail(f"output shapes {V.shape}/{J.shape} do not match ({p}, {r})")
        return cert
    if p == 0 or r == 0:
        return cert
    if q == 0:
        if not (np.isposinf(V).all() and (J == -1).all()):
            cert.fail("empty middle axis must report (inf, -1) everywhere")
        return cert
    if (J < 0).any() or (J >= q).any():
        cert.fail("witness j outside [0, q)")
        return cert

    # -- (1) witness consistency ---------------------------------------- #
    ii = np.repeat(np.arange(p), r)
    kk = np.tile(np.arange(r), p)
    jw = J.ravel()
    got = c.D.eval(ii, jw, checked=False) + c.E.eval(jw, kk, checked=False)
    cert.evals += ii.size
    bad = got != V.ravel()
    for t in np.nonzero(bad)[0][:4]:
        cert.fail(f"cell ({ii[t]},{kk[t]}): reported {V.ravel()[t]} but "
                  f"c[{ii[t]},{jw[t]},{kk[t]}] = {got[t]}")
    if not cert.ok:
        return cert

    # -- (2) witness monotonicity along both output axes ---------------- #
    if (np.diff(J, axis=0) < 0).any():
        cert.fail("witnesses not nondecreasing along i (rows of J)")
    if (np.diff(J, axis=1) < 0).any():
        cert.fail("witnesses not nondecreasing along k (columns of J)")
    if not cert.ok:
        return cert

    # -- (3) window optimality along k (each slab M_i is Monge) --------- #
    lo = np.empty((p, r), dtype=np.int64)
    hi = np.empty((p, r), dtype=np.int64)
    lo[:, 0] = 0
    lo[:, 1:] = J[:, :-1]
    hi[:, -1] = q - 1
    hi[:, :-1] = J[:, 1:]
    widths = (hi - lo + 1).ravel()
    local = np.arange(int(widths.sum())) - np.repeat(
        np.cumsum(widths) - widths, widths
    )
    owner = np.repeat(np.arange(p * r), widths)
    jj = lo.ravel()[owner] + local
    keep = jj != J.ravel()[owner]
    owner, jj = owner[keep], jj[keep]
    oi = owner // r
    ok = owner % r
    entries = c.D.eval(oi, jj, checked=False) + c.E.eval(jj, ok, checked=False)
    cert.evals += owner.size
    ref = V.ravel()[owner]
    left = jj < J.ravel()[owner]
    bad_left = left & ~(entries > ref)
    bad_right = ~left & ~(entries >= ref)
    for t in np.nonzero(bad_left)[0][:4]:
        cert.fail(f"cell ({oi[t]},{ok[t]}): c[{oi[t]},{jj[t]},{ok[t]}] = "
                  f"{entries[t]} does not exceed the reported minimum left of "
                  f"the witness (smallest-j tie-break violated or wrong minimum)")
    for t in np.nonzero(bad_right)[0][:4]:
        cert.fail(f"cell ({oi[t]},{ok[t]}): c[{oi[t]},{jj[t]},{ok[t]}] = "
                  f"{entries[t]} is below the reported minimum {ref[t]}")
    return cert
