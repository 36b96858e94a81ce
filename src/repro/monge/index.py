"""The precompute-once Monge submatrix-maximum index (DESIGN.md §14).

A :class:`MongeIndex` answers ``(row_range, col_range) → (max, argmax)``
rectangle queries over a fixed Monge array after one build pass.  The
structure is a segment tree over row blocks storing, per node, the *row
map* of its block's upper envelope: for every column ``c``, the topmost
row ``rows[node, c]`` attaining the block maximum.  The maximum itself
is not stored: it is the array's own entry at that row.  A query
rectangle decomposes into ``O(lg m)`` canonical nodes, ordered top to
bottom; one gather reads their rows over the column range, a second
reads the entries there, and the answer is the column-major first
maximizer (max value, then leftmost column, then topmost row — matching
the brute-force oracle).

Why this shape: for a Monge array the argmax row of a column is
monotone across the envelope merge (the upper block's envelope wins a
prefix of columns, the lower block's a suffix, with a single
crossover), so a row map is piecewise constant and the true
Gawrychowski–Mozes–Weimann structure stores only its breakpoints.  We
store the row map dense — ``2·P·n`` entries, ``P`` the row count
rounded up to a power of two, each in the narrowest signed integer
dtype that holds ``-1..m-1`` (int8 up to 128 rows, int16 up to 32,768)
— because a median query covers a few nodes × tens of columns and
cannot afford a breakpoint search per node.  A buffered ``256×256``
handle holds 262,144 bytes, half its input; dense float64 values and
int64 rows held 2,097,152.

Values are read at query time.  An array backed by one dense buffer
(:meth:`~repro.monge.arrays.SearchArray._buffer`: an ``ExplicitArray``
or a chain of orientation wrappers over one) is read through its strided
view — the array's own memory, not a copy — negated when the chain
negates; any other array keeps a private ``m×n`` copy of the leaf
values its build evaluates (``m·n·8`` more bytes) and is read the same
way.  Query reads advance no ``eval_count``.  Because the index reads
the buffer it was built over, mutating that buffer after the build is
unsupported (the session LRU, keyed on the array's ``id``, would return
the old handle anyway).

Build cost: ``m·n`` array evaluations for the leaves plus ``≈ 2·m·n``
grouped-min candidates across the internal levels.  A buffered array
fills the leaves with one strided copy and credits ``m·n`` to the
``eval_count`` of every array in the chain, exactly as ``eval`` would;
any other array is read through batched ``eval``.  The merges run in
one scratch copy of the leaf values: each level compares its children's
values, writes its parents' rows into the row map and its parents'
values over its top children's, and bills its ``K·n`` width-2 groups
in closed form
(:func:`~repro.pram.primitives.replay_pair_min_charges`).  Query cost:
``O(lg m · width)`` scanned entries, charged as one evaluation round
plus one combine round.  Sequential builds (``machine=None``) charge
nothing — the array's ``eval_count`` remains the observable cost.

Measured at ``256×256`` on a 2-vCPU VM (medians of 10 interleaved
process pairs, 8 builds held alive), against the dense value and row
envelopes this replaced: an uncharged build 0.62 → 0.24 ms, a charged
one 0.66 → 0.27 ms, a bare query 11.1 → 10.4 µs.
"""

from __future__ import annotations

import operator
from typing import List, Tuple

import numpy as np

from repro.monge.arrays import as_search_array, read_buffer

__all__ = ["MongeIndex", "check_rectangle"]


def check_rectangle(shape: Tuple[int, int], rows, cols) -> Tuple[int, int, int, int]:
    """Validate a half-open query rectangle against ``shape``.

    Returns ``(r0, r1, c0, c1)`` as ints; raises :class:`TypeError` on
    malformed ranges — including bounds that are not integers, such as
    floats, strings or bools, which are never read as indices — and
    :class:`ValueError` on empty or out-of-range ones (empty rectangles
    have no maximum to report).
    """
    m, n = shape
    try:
        r0, r1 = rows
        c0, c1 = cols
        if bool in (type(r0), type(r1), type(c0), type(c1)):
            raise TypeError
        r0, r1, c0, c1 = map(operator.index, (r0, r1, c0, c1))
    except (TypeError, ValueError):
        raise TypeError(
            "query rectangle must be two half-open ranges of integers: "
            f"rows=(r0, r1), cols=(c0, c1); got rows={rows!r}, cols={cols!r}"
        ) from None
    if not 0 <= r0 < r1 <= m:
        raise ValueError(
            f"row range [{r0}, {r1}) is empty or outside [0, {m}) "
            f"(ranges are half-open)"
        )
    if not 0 <= c0 < c1 <= n:
        raise ValueError(
            f"column range [{c0}, {c1}) is empty or outside [0, {n}) "
            f"(ranges are half-open)"
        )
    return r0, r1, c0, c1


class MongeIndex:
    """Envelope segment tree over the rows of one search array.

    Build with :meth:`build`; answer rectangles with :meth:`query` (pure,
    uncharged) or :meth:`query_on` (charges the machine's ledger).  The
    engine front door is :meth:`repro.engine.session.Session.prepare`,
    which wraps queries in ledger sub-accounts, spans, and metrics.
    """

    def __init__(self, array, rows: np.ndarray, view: np.ndarray, sign: float,
                 leaf_base: int, build_evals: int) -> None:
        self.array = array
        self.shape: Tuple[int, int] = tuple(array.shape)
        self._rows = rows
        self._view = view
        self._sign = sign
        self._cols = np.arange(self.shape[1])
        self._P = leaf_base
        #: Candidates charged during the build (leaf evaluations plus
        #: grouped-min merge candidates).
        self.build_evals = int(build_evals)
        #: Rectangles answered so far (all entry points).
        self.queries_answered = 0

    # ------------------------------------------------------------------ #
    @property
    def nbytes(self) -> int:
        """Bytes the index holds: the row map, plus the private leaf copy
        of an array without a buffer (a buffer stays the array's)."""
        copied = self.array._buffer() is None
        return self._rows.nbytes + (self._view.nbytes if copied else 0)

    @classmethod
    def build(cls, machine, array) -> "MongeIndex":
        """Build the index for ``array``.

        With a machine, the leaf evaluation and every merge level charge
        the ledger the sequence :func:`~repro.kernels.api.eval_grouped_min`
        would issue; without one nothing is charged.  Either way each
        entry of ``array`` is read once.
        """
        a = as_search_array(array)
        m, n = a.shape
        if m < 1 or n < 1:
            raise ValueError(
                f"cannot index an empty array (shape {a.shape}); need at "
                "least one row and one column"
            )
        P = 1
        while P < m:
            P <<= 1
        rows = np.full((2 * P, n), -1, dtype=np.min_scalar_type(-m))
        rows[P : P + m] = np.arange(m, dtype=rows.dtype)[:, None]

        # leaves: one strided copy of a dense buffer, counted on every
        # array an ``eval`` would pass through, is the merges' scratch;
        # any other array is read by batched ``eval``, chunked to bound
        # the transient index arrays (~1M candidates per chunk), into a
        # copy that queries read and the merges leave intact
        leaves = np.empty((m, n))
        buffer = a._buffer()
        if buffer is not None:
            read_buffer(buffer, slice(None), slice(None), leaves)
            view, sign, _ = buffer
            values = leaves
        else:
            chunk = max(1, (1 << 20) // n)
            cols = np.arange(n, dtype=np.int64)
            for r in range(0, m, chunk):
                rend = min(r + chunk, m)
                rr = np.repeat(np.arange(r, rend, dtype=np.int64), n)
                cc = np.tile(cols, rend - r)
                leaves[r:rend] = a.eval(rr, cc, checked=False).reshape(rend - r, n)
            view, sign = leaves, 1.0
            values = leaves.copy()
        build_evals = m * n
        if machine is not None:
            machine.charge_eval(m * n)

        # internal levels, bottom-up; only parents containing at least
        # one real row are merged (fully padded nodes keep row -1)
        clo, chi = P, P + m
        while clo > 1:
            plo, phi = clo >> 1, (chi + 1) >> 1
            if machine is not None:
                build_evals += cls._charge_level(machine, phi - plo, n)
            values = cls._merge_level(rows, values, plo)
            clo, chi = plo, phi

        return cls(a, rows, view, sign, P, build_evals)

    @staticmethod
    def _charge_level(machine, K: int, n: int) -> int:
        """Charge one merge level the grouped-min chokepoint sequence.

        Each (parent, column) pair is a width-2 group of its children's
        envelope values; the ledger receives exactly what routing those
        ``K·n`` groups through :func:`~repro.kernels.api.eval_grouped_min`
        would issue — ``charge_eval(2·K·n)`` plus the grouped-min charges,
        which :func:`~repro.pram.primitives.replay_pair_min_charges`
        bills in closed form — while the merge itself runs as one
        vectorized elementwise pass (the charge-replay form of the
        fused-kernel invariant).
        """
        from repro.pram.primitives import replay_pair_min_charges

        total = 2 * K * n
        machine.charge_eval(total)
        replay_pair_min_charges(
            machine,
            K * n,
            crcw=machine.model.is_crcw,
            budget=getattr(machine, "physical_processors", machine.processors),
        )
        return total

    @staticmethod
    def _merge_level(rows: np.ndarray, values: np.ndarray, plo: int) -> np.ndarray:
        """Write the rows of parents ``plo, plo + 1, …`` from their
        children ``2·plo + 2k`` (top) and ``2·plo + 2k + 1`` (bottom),
        whose envelope values are ``values[2k]`` and ``values[2k + 1]``.

        Each parent's values overwrite its top child's, so the returned
        ``values[::2]`` is the parents' level.  The strict ``>`` keeps the
        upper block on ties, which is the same winner the chokepoint's
        leftmost-tie convention picks (child 0 = the topmost-row block).
        An unpaired last child's sibling is padding, which never wins:
        its parent takes the child's row and values.
        """
        pairs = len(values) >> 1
        top, bot = values[0 : 2 * pairs : 2], values[1 : 2 * pairs : 2]
        take_bot = bot > top
        lo = 2 * plo
        parent_rows = rows[plo : plo + pairs]
        parent_rows[...] = rows[lo : lo + 2 * pairs : 2]
        np.copyto(parent_rows, rows[lo + 1 : lo + 2 * pairs : 2], where=take_bot)
        np.copyto(top, bot, where=take_bot)
        if len(values) & 1:
            rows[plo + pairs] = rows[lo + 2 * pairs]
        return values[::2]

    # ------------------------------------------------------------------ #
    def _decompose(self, r0: int, r1: int) -> List[int]:
        """Canonical segment-tree nodes covering rows ``[r0, r1)``, top
        to bottom."""
        left: List[int] = []
        right: List[int] = []
        lo, hi = r0 + self._P, r1 + self._P
        while lo < hi:
            if lo & 1:
                left.append(lo)
                lo += 1
            if hi & 1:
                hi -= 1
                right.append(hi)
            lo >>= 1
            hi >>= 1
        return left + right[::-1]

    def query(self, rows, cols) -> Tuple[np.floating, np.ndarray]:
        """Pure rectangle maximum: ``(value, [row, col])``, uncharged."""
        values, witnesses, _ = self._answer(rows, cols)
        return values, witnesses

    def query_on(self, machine, rows, cols
                 ) -> Tuple[np.floating, np.ndarray, dict]:
        """Rectangle maximum charged against ``machine`` (one evaluation
        round over the scanned envelope entries plus one combine round
        across the decomposition nodes).  Returns ``(value, [row, col],
        info)`` where ``info`` reports the work done."""
        values, witnesses, info = self._answer(rows, cols)
        if machine is not None:
            machine.charge_eval(info["scanned"])
            machine.charge(rounds=1, processors=max(1, info["nodes"]))
        return values, witnesses, info

    def _answer(self, rows, cols) -> Tuple[np.floating, np.ndarray, dict]:
        r0, r1, c0, c1 = check_rectangle(self.shape, rows, cols)
        nodes = self._decompose(r0, r1)
        # column-major layout: block[j, k] is node k's maximum at column
        # c0 + j, read from the array at that node's envelope row
        ri = self._rows[nodes, c0:c1].T
        block = self._view[ri, self._cols[c0:c1, None]]
        if self._sign < 0:
            np.negative(block, out=block)
        # the first maximum in column-major order: the leftmost column
        # attaining it, and there the first node from the top, whose
        # envelope row is the topmost row attaining it
        j, k = divmod(int(block.argmax()), len(nodes))
        self.queries_answered += 1
        info = {"nodes": len(nodes), "scanned": len(nodes) * (c1 - c0)}
        return block[j, k], np.array([ri[j, k], c0 + j], dtype=np.int64), info
