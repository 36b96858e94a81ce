"""The precompute-once Monge submatrix-maximum index (DESIGN.md §14).

A :class:`MongeIndex` answers ``(row_range, col_range) → (max, argmax)``
rectangle queries over a fixed Monge array after one build pass.  The
structure is a segment tree over row blocks storing, per node, the
*dense upper envelope* of its block: for every column ``c``, the block
maximum ``env_val[node, c]`` and the topmost row attaining it
``env_row[node, c]``.  A query rectangle decomposes into ``O(lg m)``
canonical nodes; one gather reads their envelopes over the column range,
and the answer is the global tie-break winner (max value, then leftmost
column, then topmost row — the column-major first maximizer, matching
the brute-force oracle).

Why this shape: for a Monge array the argmax row of a column is
monotone across the envelope merge (the upper block's envelope wins a
prefix of columns, the lower block's a suffix, with a single
crossover), so the true Gawrychowski–Mozes–Weimann structure stores
only breakpoints.  We store the dense envelopes instead — ``2·P·n``
entries, ``P`` the row count rounded up to a power of two — trading a
factor-two memory overhead for exact, replayable charge accounting:
every merge level charges the ledger with the exact sequence the
:func:`~repro.kernels.api.eval_grouped_min` chokepoint would issue for
its (parent, column) candidate groups, so builds are accounted exactly
like any other grouped-extremum sweep (the merge itself runs as one
vectorized elementwise pass — the charge-replay form of the
fused-kernel invariant, the same contract the batched sweeps use).

Build cost: ``m·n`` array evaluations for the leaves plus ``≈ 2·m·n``
grouped-min candidates across the internal levels.  An array backed by
one dense buffer (:meth:`~repro.monge.arrays.SearchArray._buffer`: an
``ExplicitArray`` or a chain of orientation wrappers over one) fills
the leaves with one strided copy and credits ``m·n`` to the
``eval_count`` of every array in the chain, exactly as ``eval`` would;
any other array is read through batched ``eval``.  Each merge level
writes its parents in place and bills its ``K·n`` width-2 groups in
closed form (:func:`~repro.pram.primitives.replay_pair_min_charges`).
Query cost: ``O(lg m · width)`` scanned envelope entries, charged as
one evaluation round plus one combine round.  Sequential builds
(``machine=None``) merge with plain numpy and charge nothing — the
array's ``eval_count`` remains the observable cost.
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
    floats or strings, which are never truncated — and
    :class:`ValueError` on empty or out-of-range ones (empty rectangles
    have no maximum to report).
    """
    m, n = shape
    try:
        r0, r1 = rows
        c0, c1 = cols
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

    def __init__(self, array, env_val: np.ndarray, env_row: np.ndarray,
                 leaf_base: int, build_evals: int) -> None:
        self.array = array
        self.shape: Tuple[int, int] = tuple(array.shape)
        self._env_val = env_val
        self._env_row = env_row
        self._P = leaf_base
        #: Candidates charged during the build (leaf evaluations plus
        #: grouped-min merge candidates).
        self.build_evals = int(build_evals)
        #: Rectangles answered so far (all entry points).
        self.queries_answered = 0

    # ------------------------------------------------------------------ #
    @property
    def nbytes(self) -> int:
        return self._env_val.nbytes + self._env_row.nbytes

    @classmethod
    def build(cls, machine, array) -> "MongeIndex":
        """Build the index for ``array``.

        With a machine, the leaf evaluation and every merge level charge
        the ledger the sequence :func:`~repro.kernels.api.eval_grouped_min`
        would issue; without one the merges are plain numpy and charge
        nothing.  Either way each entry of ``array`` is read once.
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
        env_val = np.full((2 * P, n), -np.inf)
        env_row = np.full((2 * P, n), -1, dtype=np.int64)
        env_row[P : P + m] = np.arange(m, dtype=np.int64)[:, None]

        # leaves: one strided copy of a dense buffer, counted on every
        # array an ``eval`` would pass through; any other array is read
        # by batched ``eval``, chunked to bound the transient index
        # arrays (~1M candidates per chunk)
        buffer = a._buffer()
        if buffer is not None:
            read_buffer(buffer, slice(None), slice(None), env_val[P : P + m])
        else:
            chunk = max(1, (1 << 20) // n)
            cols = np.arange(n, dtype=np.int64)
            for r in range(0, m, chunk):
                rend = min(r + chunk, m)
                rr = np.repeat(np.arange(r, rend, dtype=np.int64), n)
                cc = np.tile(cols, rend - r)
                env_val[P + r : P + rend] = a.eval(rr, cc, checked=False).reshape(
                    rend - r, n
                )
        build_evals = m * n
        if machine is not None:
            machine.charge_eval(m * n)

        # internal levels, bottom-up; only parents containing at least
        # one real row are merged (fully padded nodes stay -inf / -1)
        clo, chi = P, P + m
        while clo > 1:
            plo, phi = clo >> 1, (chi + 1) >> 1
            K = phi - plo
            if machine is not None:
                build_evals += cls._merge_level_charged(
                    machine, env_val, env_row, plo, K, n
                )
            else:
                cls._merge_level_numpy(env_val, env_row, plo, K)
            clo, chi = plo, phi

        return cls(a, env_val, env_row, P, build_evals)

    @staticmethod
    def _merge_level_charged(machine, env_val, env_row, plo: int, K: int,
                             n: int) -> int:
        """Merge one level, charging the grouped-min chokepoint sequence.

        Each (parent, column) pair is a width-2 group of its children's
        envelope values; the ledger receives exactly what routing those
        ``K·n`` groups through :func:`~repro.kernels.api.eval_grouped_min`
        would issue — ``charge_eval(2·K·n)`` plus the grouped-min charges,
        which :func:`~repro.pram.primitives.replay_pair_min_charges`
        bills in closed form — while the merge itself runs as a single
        vectorized elementwise pass (the charge-replay form of the
        fused-kernel invariant).  The elementwise strict ``>`` keeps the
        upper block on ties, which is the same winner the chokepoint's
        leftmost-tie convention picks (child 0 = the topmost-row block).
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
        MongeIndex._merge_level_numpy(env_val, env_row, plo, K)
        return total

    @staticmethod
    def _merge_level_numpy(env_val, env_row, plo: int, K: int) -> None:
        """Write parents ``[plo, plo + K)`` in place from their children
        ``2·plo + 2k`` (top) and ``2·plo + 2k + 1`` (bottom)."""
        parents = slice(plo, plo + K)
        top = slice(2 * plo, 2 * plo + 2 * K, 2)
        bot = slice(2 * plo + 1, 2 * plo + 2 * K, 2)
        take_bot = env_val[bot] > env_val[top]  # strict: ties keep the top
        env_val[parents] = env_val[top]
        np.copyto(env_val[parents], env_val[bot], where=take_bot)
        env_row[parents] = env_row[top]
        np.copyto(env_row[parents], env_row[bot], where=take_bot)

    # ------------------------------------------------------------------ #
    def _decompose(self, r0: int, r1: int) -> List[int]:
        """Canonical segment-tree nodes covering rows ``[r0, r1)``."""
        nodes: List[int] = []
        lo, hi = r0 + self._P, r1 + self._P
        while lo < hi:
            if lo & 1:
                nodes.append(lo)
                lo += 1
            if hi & 1:
                hi -= 1
                nodes.append(hi)
            lo >>= 1
            hi >>= 1
        return nodes

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
        block = self._env_val[nodes, c0:c1]
        # column-major first maximum: the leftmost column attaining the
        # maximum, then the topmost envelope row among the nodes tied there
        j, k = divmod(int(block.T.argmax()), len(nodes))
        value = block[k, j]
        col = c0 + j
        row = self._env_row[nodes, col][block[:, j] == value].min()
        self.queries_answered += 1
        info = {"nodes": len(nodes), "scanned": len(nodes) * (c1 - c0)}
        return value, np.array([row, col], dtype=np.int64), info
