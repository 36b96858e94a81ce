"""A machine adapter running the §2 algorithms on §3 networks.

The paper derives each hypercube algorithm from "the corresponding
CREW-PRAM algorithm" (§3) while replacing its three PRAM conveniences:
Brent rescheduling, processor allocation, and free data movement.
:class:`NetworkMachine` realizes that translation operationally — it
exposes the same machine interface the PRAM algorithms are written
against, but every collective primitive *executes* on a
:class:`~repro.networks.topology.CubeLike` register file:

- grouped minima → genuine segmented argmin scans
  (:func:`~repro.networks.primitives.net_segmented_argmin_scan`), sliced
  into network-sized passes, with result concentration executed as an
  isotone route;
- prefix sums (processor allocation) → genuine network scans;
- the bracketing queries of Theorem 2.3 → an ``O(u²)``-slot segmented
  max scan (``u ≤ √m``, so the slots fit the machine);
- entry-evaluation rounds → charged as the Lemma 3.1 distribution
  schedule (two isotone routing passes plus a segmented copy —
  ``3·dim + 2`` rounds per network-sized slice of candidates); the
  routes' legality is exactly the isotone pattern proved in Lemma 3.1,
  and the router used everywhere else validates that pattern.

Running :func:`repro.core.rowmin_pram.monge_row_minima_pram` (or the
staircase / tube algorithms) against a ``NetworkMachine`` therefore
measures Theorem 3.2 / 3.3 / 3.4-style round counts on the hypercube,
cube-connected cycles, or shuffle-exchange network.  See
:mod:`repro.core.rowmin_network` for the public wrappers.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.networks.primitives import (
    net_monotone_route,
    net_prefix_scan,
    net_segmented_argmin_scan,
    net_segmented_scan,
)
from repro.networks.topology import CubeLike
from repro.pram.ledger import notify_kernel
from repro.pram.machine import Pram
from repro.pram.models import CREW

__all__ = ["NetworkMachine"]


class NetworkMachine(Pram):
    """Pram-interface adapter over a hypercube-like network."""

    def __init__(self, network: CubeLike) -> None:
        super().__init__(model=CREW, processors=max(1, network.size), ledger=network.ledger)
        self.network = network

    # ------------------------------------------------------------------ #
    def sub(self, processors: int) -> "NetworkMachine":
        # subproblems share the physical network; budgets are advisory
        return self

    def charge_eval(self, size: int) -> None:
        """Charge the Lemma 3.1 candidate-distribution schedule."""
        net = self.network
        notify_kernel(net.ledger, "net-eval", size)
        slices = max(1, -(-size // max(1, net.size)))
        net.charge(rounds=slices * (3 * max(1, net.dim) + 2))

    # ------------------------------------------------------------------ #
    def network_prefix_scan(self, values: np.ndarray, op: str) -> np.ndarray:
        """Sliced genuine network scan with inter-slice carry."""
        net = self.network
        x = np.asarray(values, dtype=np.float64)
        n = x.size
        out = np.empty(n)
        carry = None
        ident = {"add": 0.0, "min": np.inf, "max": -np.inf}[op]
        fold = {"add": np.add, "min": np.minimum, "max": np.maximum}[op]
        for start in range(0, max(n, 1), net.size):
            chunk = x[start : start + net.size]
            reg = np.full(net.size, ident)
            reg[: chunk.size] = chunk
            scanned = net_prefix_scan(net, reg, op)
            if carry is not None:
                scanned = fold(scanned, carry)
                net.charge(rounds=1)
            out[start : start + chunk.size] = scanned[: chunk.size]
            carry = scanned[chunk.size - 1] if chunk.size else carry
            if n == 0:
                break
        return out

    def network_grouped_min(
        self, values: np.ndarray, offsets: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Genuine segmented argmin scans + isotone result concentration."""
        net = self.network
        values = np.asarray(values, dtype=np.float64)
        offsets = np.asarray(offsets, dtype=np.int64)
        widths = np.diff(offsets)
        n_groups = widths.size
        out_v = np.full(n_groups, np.inf)
        out_i = np.full(n_groups, -1, dtype=np.int64)
        n = values.size
        if n == 0 or n_groups == 0:
            return out_v, out_i
        notify_kernel(net.ledger, "net-grouped-min", n)
        heads = np.zeros(n, dtype=bool)
        nonempty = widths > 0
        heads[offsets[:-1][nonempty]] = True
        heads[0] = True
        tails = np.zeros(n, dtype=bool)
        tails[offsets[1:][nonempty] - 1] = True
        tail_group = np.full(n, -1, dtype=np.int64)
        tail_group[offsets[1:][nonempty] - 1] = np.nonzero(nonempty)[0]

        carry_v, carry_i, carry_open = np.inf, -1.0, False
        for start in range(0, n, net.size):
            stop = min(start + net.size, n)
            m = stop - start
            reg_v = np.full(net.size, np.inf)
            reg_i = np.full(net.size, -1.0)
            reg_f = np.zeros(net.size)
            reg_v[:m] = values[start:stop]
            reg_i[:m] = np.arange(start, stop)
            reg_f[:m] = heads[start:stop]
            reg_f[m:] = 1.0  # padding forms its own dead segment
            sv, si = net_segmented_argmin_scan(net, reg_v, reg_i, reg_f)
            if carry_open:
                # apply the spanning group's carry to the slice's open prefix
                first_head = np.argmax(reg_f[:m] > 0) if reg_f[:m].any() else m
                upto = first_head if reg_f[:m].any() and reg_f[0] == 0 else (
                    0 if reg_f[0] > 0 else m
                )
                prefix = np.arange(net.size) < upto
                better = prefix & ((carry_v < sv) | ((carry_v == sv) & (carry_i < si)))
                sv = np.where(better, carry_v, sv)
                si = np.where(better, carry_i, si)
                net.charge(rounds=1)
            # concentrate this slice's tail results: an isotone route
            sl_tails = np.zeros(net.size, dtype=bool)
            sl_tails[:m] = tails[start:stop]
            t_idx = np.nonzero(sl_tails)[0]
            if t_idx.size:
                ranks = np.arange(t_idx.size)
                act = sl_tails.astype(np.float64)
                dst = np.zeros(net.size)
                dst[t_idx] = ranks
                routed_v = net_monotone_route(net, sv, dst, act, fill=np.inf)
                routed_i = net_monotone_route(net, si, dst, act, fill=-1.0)
                groups = tail_group[start:stop][sl_tails[:m]]
                out_v[groups] = routed_v[: t_idx.size]
                got = routed_i[: t_idx.size]
                out_i[groups] = np.where(out_v[groups] < np.inf, got, -1).astype(np.int64)
            # update carry: does the last group continue past this slice?
            carry_open = stop < n and not heads[stop] if stop < n else False
            if carry_open:
                carry_v, carry_i = sv[m - 1], si[m - 1]
        return out_v, out_i

    def network_nearest_smaller_left_threshold(
        self, x: np.ndarray, thresholds: np.ndarray, positions: np.ndarray
    ) -> np.ndarray:
        """Bracketing queries as an ``O(|q|·|x|)``-slot segmented max scan.

        For query ``t``, element ``j`` contributes ``j`` when
        ``x[j] < thresholds[t]`` and ``j < positions[t]``; a segmented
        max over each query's row yields the answer.  The §2 usage has
        ``|x| = u ≤ √m``, so the quadratic slot count stays within the
        machine (and one genuine scan per slice is charged).
        """
        x = np.asarray(x, dtype=np.float64)
        thresholds = np.asarray(thresholds, dtype=np.float64)
        positions = np.asarray(positions, dtype=np.int64)
        u = x.size
        nq = positions.size
        if u == 0 or nq == 0:
            return np.full(nq, -1, dtype=np.int64)
        jj = np.tile(np.arange(u), nq)
        tt = np.repeat(np.arange(nq), u)
        eligible = (x[jj] < thresholds[tt]) & (jj < positions[tt])
        scores = np.where(eligible, jj.astype(np.float64), -1.0)
        heads = np.zeros(nq * u, dtype=bool)
        heads[::u] = True
        best = self._sliced_segmented_scan(scores, heads, "max")
        ans = best[u - 1 :: u]
        return np.where(ans >= 0, ans, -1).astype(np.int64)

    def _sliced_segmented_scan(self, values, heads, op) -> np.ndarray:
        net = self.network
        values = np.asarray(values, dtype=np.float64)
        heads = np.asarray(heads, dtype=bool)
        n = values.size
        ident = {"add": 0.0, "min": np.inf, "max": -np.inf}[op]
        fold = {"add": np.add, "min": np.minimum, "max": np.maximum}[op]
        out = np.empty(n)
        carry, carry_open = ident, False
        for start in range(0, n, net.size):
            stop = min(start + net.size, n)
            m = stop - start
            reg = np.full(net.size, ident)
            flg = np.ones(net.size)
            reg[:m] = values[start:stop]
            flg[:m] = heads[start:stop]
            scanned = net_segmented_scan(net, reg, flg > 0, op)
            if carry_open:
                first_head = int(np.argmax(flg[:m] > 0)) if flg[:m].any() else m
                upto = first_head if flg[0] == 0 else 0
                prefix = np.arange(net.size) < upto
                scanned = np.where(prefix, fold(scanned, carry), scanned)
                net.charge(rounds=1)
            out[start:stop] = scanned[:m]
            carry_open = stop < n and not heads[stop]
            carry = scanned[m - 1]
        return out
