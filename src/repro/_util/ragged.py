"""Ragged-range indexing shared by the batched searching recursions.

Every level-synchronous algorithm in :mod:`repro.core` lays sibling
subproblems out as concatenated variable-width ranges ("ragged" rows of
one flat candidate buffer).  :func:`offsets_of` turns per-range counts
into the ``[0, c0, c0+c1, …]`` offsets every such layout is indexed by,
and :func:`ragged` adds each slot's owner and position within its range.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["offsets_of", "ragged"]


def offsets_of(counts) -> np.ndarray:
    """The int64 offsets ``[0, c0, c0+c1, …]`` of ranges of ``counts``.

    One past-the-end per range plus the leading zero: range ``g``
    occupies ``[off[g], off[g+1])``.  Equal to a zero followed by
    ``np.cumsum(counts)`` (int64 wraparound included), but filled by the
    ufunc's ``accumulate`` into a preallocated array, which skips
    ``np.cumsum``'s Python-level dispatch on the small arrays the
    recursions pass.
    """
    counts = np.asarray(counts, dtype=np.int64)
    off = np.zeros(counts.size + 1, dtype=np.int64)
    np.add.accumulate(counts, out=off[1:])
    return off


def ragged(counts) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(local_index, owner, offsets) for concatenated ranges of ``counts``.

    For ``counts = [2, 0, 3]`` the flat layout has 5 slots; the return
    triple is ``local = [0, 1, 0, 1, 2]``, ``owner = [0, 0, 2, 2, 2]``
    and ``offsets = [0, 2, 2, 5]`` (see :func:`offsets_of`).
    """
    counts = np.asarray(counts, dtype=np.int64)
    offsets = offsets_of(counts)
    owner = np.arange(counts.size).repeat(counts)
    local = np.arange(offsets[-1]) - offsets[:-1][owner]
    return local, owner, offsets
