"""Array wrappers used by every searching algorithm.

The paper's model (§1.2) assumes any entry ``a[i, j]`` is computable in
``O(1)`` time from compact data — the array is never materialized.  We
capture that with :class:`SearchArray`: an object exposing ``shape``
and a *vectorized* batch evaluator ``eval(rows, cols)``.  Concrete
flavors:

:class:`ExplicitArray`
    wraps a materialized NumPy matrix (mainly for tests/baselines);
:class:`ImplicitArray`
    wraps a vectorized callable ``f(rows, cols) -> values`` — e.g. the
    Euclidean distances of Figure 1.1, evaluated from the two point
    chains;
:class:`StaircaseArray`
    decorates another array with the staircase ``∞`` region via the
    boundary vector ``f`` (``f[i]`` = first infinite column of row
    ``i``; ``f`` must be nonincreasing per the staircase definition);
:class:`MongeComposite`
    the pair ``(D, E)`` defining ``c[i,j,k] = d[i,j] + e[j,k]``.

Algorithms never materialize a full array; their work is measured in
entry evaluations, which :class:`SearchArray` counts (``eval_count``)
so tests can assert the sequential ``O(m+n)`` bounds.
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

from repro._util.validation import as_float_matrix, as_index_vector

__all__ = [
    "SearchArray",
    "ExplicitArray",
    "ImplicitArray",
    "StaircaseArray",
    "MongeComposite",
    "as_search_array",
]


class SearchArray:
    """Abstract 2-D array with vectorized entry evaluation.

    Subclasses implement :meth:`_eval`.  ``eval`` validates indices,
    broadcasts, and counts evaluations.
    """

    def __init__(self, shape: Tuple[int, int]) -> None:
        m, n = int(shape[0]), int(shape[1])
        if m < 0 or n < 0:
            raise ValueError(f"shape must be nonnegative, got {shape}")
        self.shape: Tuple[int, int] = (m, n)
        self.eval_count: int = 0

    # -- required -------------------------------------------------------
    def _eval(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # -- public ---------------------------------------------------------
    def eval(self, rows, cols, checked: bool = True) -> np.ndarray:
        """Entries at broadcasting index arrays ``rows``, ``cols``.

        ``checked=False`` skips validation — the hot-path option for
        callers (the core searching recursions, internal index
        transforms) whose indices are integers in range by construction.
        The checked path rejects non-integer indices (``TypeError``)
        and tests bounds with one fused out-of-bounds test instead of
        four full min/max reductions; the extrema are only computed when
        the check fails and the error message needs them.
        """
        if checked:
            rows = as_index_vector(rows, "rows")
            cols = as_index_vector(cols, "cols")
        else:
            rows = np.asarray(rows, dtype=np.int64)
            cols = np.asarray(cols, dtype=np.int64)
        if rows.shape != cols.shape:
            rows, cols = np.broadcast_arrays(rows, cols)
        if checked and rows.size:
            m, n = self.shape
            if ((rows < 0) | (rows >= m) | (cols < 0) | (cols >= n)).any():
                raise IndexError(
                    f"index out of bounds for shape {self.shape}: "
                    f"rows [{rows.min()}, {rows.max()}], cols [{cols.min()}, {cols.max()}]"
                )
        self.eval_count += rows.size
        out = self._eval(rows, cols)
        return np.asarray(out, dtype=np.float64)

    def __getitem__(self, ij) -> float:
        i, j = ij
        return float(self.eval(np.array([i]), np.array([j]))[0])

    def row(self, i: int) -> np.ndarray:
        """Row ``i`` as a dense vector."""
        n = self.shape[1]
        return self.eval(np.full(n, i), np.arange(n))

    def materialize(self) -> np.ndarray:
        """Dense copy — for tests and brute-force baselines only."""
        m, n = self.shape
        return self.eval(np.arange(m)[:, None], np.arange(n)[None, :])

    def transpose(self) -> "SearchArray":
        return _Transposed(self)

    def negate(self) -> "SearchArray":
        return _Negated(self)

    def flip_rows(self) -> "SearchArray":
        return _RowFlipped(self)

    def flip_cols(self) -> "SearchArray":
        return _ColFlipped(self)

    def submatrix(self, rows: np.ndarray, cols: np.ndarray) -> "SearchArray":
        """The (virtual) subarray indexed by ``rows`` × ``cols``."""
        return _Submatrix(self, as_index_vector(rows, "rows"), as_index_vector(cols, "cols"))

    def _buffer(self):
        """``(view, sign, chain)`` when every entry is ``sign * view[i, j]``
        of one dense NumPy buffer, else ``None``.

        ``view`` is a strided view of the buffer, never a copy.
        ``chain`` is this array and every array an ``eval`` on it passes
        through down to the buffer's owner: the arrays whose
        ``eval_count`` that ``eval`` would advance.  Read it with
        :func:`read_buffer`, or count reads with :func:`count_buffer_reads`.
        """
        return None


def read_buffer(buffer, rows, cols, out: np.ndarray) -> None:
    """Write the entries ``(rows, cols)`` of a :meth:`SearchArray._buffer`
    into ``out`` (any index pair of its view; ``out`` has the result's
    shape) and count them as an ``eval`` of those entries would."""
    view, sign, chain = buffer
    if sign < 0:
        np.negative(view[rows, cols], out=out)
    else:
        out[...] = view[rows, cols]
    count_buffer_reads(chain, out.size)


def count_buffer_reads(chain, count: int) -> None:
    """Add ``count`` entries read from a buffer to the ``eval_count`` of
    every array of its ``chain``."""
    for arr in chain:
        arr.eval_count += count


class ExplicitArray(SearchArray):
    """A materialized matrix."""

    def __init__(self, data) -> None:
        self.data = as_float_matrix(data, "ExplicitArray data")
        super().__init__(self.data.shape)

    def _eval(self, rows, cols):
        return self.data[rows, cols]

    def _buffer(self):
        return self.data, 1.0, (self,)


class ImplicitArray(SearchArray):
    """Entries computed by a vectorized callable ``f(rows, cols)``."""

    def __init__(self, fn: Callable[[np.ndarray, np.ndarray], np.ndarray], shape) -> None:
        super().__init__(shape)
        self.fn = fn

    def _eval(self, rows, cols):
        return self.fn(rows, cols)


class StaircaseArray(SearchArray):
    """A base array with the staircase-``∞`` region applied.

    ``boundary[i]`` is the first infinite column of row ``i`` (``n`` if
    the whole row is finite).  The staircase definition (§1) requires
    the infinite region to be closed to the right and downward, i.e.
    ``boundary`` nonincreasing; violated inputs are rejected.
    """

    def __init__(self, base: SearchArray, boundary) -> None:
        if not isinstance(base, SearchArray):
            base = as_search_array(base)
        m, n = base.shape
        b = as_index_vector(boundary, "boundary")
        if b.shape != (m,):
            raise ValueError(f"boundary must have length {m}, got shape {b.shape}")
        if b.size and (b.min() < 0 or b.max() > n):
            raise ValueError(f"boundary entries must lie in [0, {n}]")
        if (np.diff(b) > 0).any():
            raise ValueError(
                "staircase boundary must be nonincreasing "
                "(infinite entries propagate right and down)"
            )
        super().__init__((m, n))
        self.base = base
        self.boundary = b

    def _eval(self, rows, cols):
        finite = cols < self.boundary[rows]
        out = np.full(rows.shape, np.inf)
        if finite.any():
            out[finite] = self.base.eval(rows[finite], cols[finite], checked=False)
        return out


class MongeComposite:
    """The 3-D array ``c[i,j,k] = d[i,j] + e[j,k]`` given by two arrays.

    ``D`` is ``p×q`` and ``E`` is ``q×r``; the composite is ``p×q×r``.
    Only the pair is stored (the paper's model: ``D`` and ``E`` live in
    global memory; a processor combines one entry of each).
    """

    def __init__(self, D, E) -> None:
        self.D = as_search_array(D)
        self.E = as_search_array(E)
        if self.D.shape[1] != self.E.shape[0]:
            raise ValueError(
                f"inner dimensions disagree: D is {self.D.shape}, E is {self.E.shape}"
            )
        p, q = self.D.shape
        r = self.E.shape[1]
        self.shape = (p, q, r)

    def eval(self, i, j, k) -> np.ndarray:
        """``c[i,j,k]`` at broadcasting index arrays."""
        i, j, k = np.broadcast_arrays(
            as_index_vector(i, "i"), as_index_vector(j, "j"), as_index_vector(k, "k")
        )
        return self.D.eval(i, j) + self.E.eval(j, k)

    def slab(self, i: int, k) -> SearchArray:
        """The (min/max over j) search row for output cell row ``i``:
        the ``r×q`` array ``M[k,j] = d[i,j] + e[j,k]`` (Monge when D and
        E are — the d-term is constant per column pair)."""
        D, E = self.D, self.E
        q = D.shape[1]
        r = E.shape[1]

        def fn(kk, jj):
            return D.eval(np.full(kk.shape, i), jj) + E.eval(jj, kk)

        return ImplicitArray(fn, (r, q))


class _Oriented(SearchArray):
    """A re-indexing or sign change of ``base``, entry for entry.

    Over a dense buffer it is a strided view of that buffer (see
    :meth:`SearchArray._buffer`); :meth:`_orient` maps the base's view
    and sign to this array's, or returns ``None`` when no basic view
    expresses it.
    """

    def __init__(self, base: SearchArray, shape: Tuple[int, int] | None = None) -> None:
        super().__init__(base.shape if shape is None else shape)
        self.base = base

    def _buffer(self):
        inner = self.base._buffer()
        if inner is None:
            return None
        view, sign, chain = inner
        oriented = self._orient(view, sign)
        return None if oriented is None else (*oriented, (self, *chain))

    def _orient(self, view: np.ndarray, sign: float):
        raise NotImplementedError


class _Transposed(_Oriented):
    def __init__(self, base: SearchArray) -> None:
        super().__init__(base, (base.shape[1], base.shape[0]))

    def _eval(self, rows, cols):
        return self.base.eval(cols, rows, checked=False)

    def _orient(self, view, sign):
        return view.T, sign


class _Negated(_Oriented):
    def _eval(self, rows, cols):
        return -self.base.eval(rows, cols, checked=False)

    def _orient(self, view, sign):
        return view, -sign


class _RowFlipped(_Oriented):
    def _eval(self, rows, cols):
        return self.base.eval(self.shape[0] - 1 - rows, cols, checked=False)

    def _orient(self, view, sign):
        return view[::-1], sign


class _ColFlipped(_Oriented):
    def _eval(self, rows, cols):
        return self.base.eval(rows, self.shape[1] - 1 - cols, checked=False)

    def _orient(self, view, sign):
        return view[:, ::-1], sign


class _Submatrix(_Oriented):
    def __init__(self, base: SearchArray, rows: np.ndarray, cols: np.ndarray) -> None:
        m, n = base.shape
        if rows.size and (rows.min() < 0 or rows.max() >= m):
            raise IndexError("submatrix row indices out of range")
        if cols.size and (cols.min() < 0 or cols.max() >= n):
            raise IndexError("submatrix column indices out of range")
        super().__init__(base, (rows.size, cols.size))
        self.rows = rows
        self.cols = cols

    def _eval(self, rows, cols):
        return self.base.eval(self.rows[rows], self.cols[cols], checked=False)

    def _orient(self, view, sign):
        rs, cs = _as_slice(self.rows), _as_slice(self.cols)
        return None if rs is None or cs is None else (view[rs, cs], sign)


def _as_slice(idx: np.ndarray):
    """``idx`` as a basic slice when it is a contiguous increasing range."""
    start = int(idx[0]) if idx.size else 0
    if (np.diff(idx) != 1).any():
        return None
    return slice(start, start + idx.size)


def as_search_array(x) -> SearchArray:
    """Coerce matrices / SearchArrays to a :class:`SearchArray`."""
    if isinstance(x, SearchArray):
        return x
    return ExplicitArray(x)
