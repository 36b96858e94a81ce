"""Charge-sequence pins: every ledger charge and kernel event, in order.

``tests/data/pre_refactor_snapshots.json`` pins ledger *totals*, and the
golden trace pins one rowmin run charge by charge.  These cases pin the
full ordered sequence of ``CostLedger.charge`` calls ``(rounds,
processors, work)`` and kernel events ``(name, size)`` for the
``solve_small`` benchmark mix, a squared-distance rowmin whose interior
blocks vary in width, and a fused ``solve_many`` sweep whose ChargeFan
replays each owner's charges.  Each event also records which ledger
received it (numbered by first appearance), so the fused sweep's global
charges and its per-owner replays are both held in place.

A digest drift means a recursion charged something different or in a
different order.  The kernel tier must not matter: run this file under
``REPRO_KERNEL_TIER=reference`` as well.
"""

import hashlib

import numpy as np
import pytest

from repro import Session
from repro.monge.generators import (
    random_composite,
    random_monge,
    random_staircase_monge,
)
from repro.obs.hooks import kernel_hook, round_hook


def _squared_distances(n, rng, column_noise=0.0):
    """``(x_i − y_j)² + c_j`` for sorted random ``x``, ``y``: Monge, with
    nearest-neighbour minima spread over the columns (unlike
    ``random_monge``, whose minima sit almost all in the last column)."""
    x = np.sort(rng.random(n))
    y = np.sort(rng.random(n))
    return (x[:, None] - y[None, :]) ** 2 + column_noise * rng.normal(size=n)[None, :]


def _solve(problem, make):
    """One query, or one ``solve_many`` batch pinned to the fused tier so
    the stacked sweep runs whatever tier the environment selects."""

    def run(session):
        data = make(np.random.default_rng(7))
        if isinstance(data, list):
            return session.solve_many(problem, data, kernel_tier="fused")
        return session.solve(problem, data)

    return run


CASES = {
    "rowmin_n64": _solve("rowmin", lambda rng: random_monge(64, 64, rng)),
    "rowmax_n128": _solve("rowmax", lambda rng: random_monge(128, 128, rng)),
    "staircase_min_n128": _solve(
        "staircase_min", lambda rng: random_staircase_monge(128, 128, rng)
    ),
    "tube_min_n16": _solve("tube_min", lambda rng: random_composite(16, 16, 16, rng)),
    "rowmin_sqdist_n256": _solve("rowmin", lambda rng: _squared_distances(256, rng)),
    "rowmax_fused_4x64": _solve(
        "rowmax",
        lambda rng: [_squared_distances(64, rng, column_noise=0.05) for _ in range(4)],
    ),
}

# (event count, SHA-256 of the event sequence) per (backend, case)
PINNED = {
    ("pram-crcw", "rowmax_fused_4x64"): (209, "546af664ec0587ae7dbd313ecfc347f06c3e5b603a4ce6ab3c5de76b317fb930"),
    ("pram-crcw", "rowmax_n128"): (45, "1d29a7c3b0aa19a2c7717b4ea55c6c19604109623840584c1727b03fc4a31d3b"),
    ("pram-crcw", "rowmin_n64"): (45, "aa3ba809fd4ad5924da0863164f221353f845c08425f3f294637b8c5264a19d2"),
    ("pram-crcw", "rowmin_sqdist_n256"): (45, "a30f66675ba8b0b0e1e7163aa1b77d1ee32d777b1f433452eecaf06f0cdb31f2"),
    ("pram-crcw", "staircase_min_n128"): (122, "46038d86a14c8cfa0b0033ea383dfc414f1707f118772812ec2e99e2693462ea"),
    ("pram-crcw", "tube_min_n16"): (18, "d2d26d63dee18d08702e3bf931c7c55b5c9ef1f450b18b1562f056cd48db7e11"),
    ("pram-crew", "rowmax_fused_4x64"): (314, "6550754b50432ba58f50cbef0f4f1a2d31b3b1466e423e1bf6b70ab6ffec314f"),
    ("pram-crew", "rowmax_n128"): (71, "75873401fc19c31707d530c9124badfb2cfd2a600c3d8ca94c4a197dd12f2066"),
    ("pram-crew", "rowmin_n64"): (66, "10c9ef4764cd65ac9423f8e1242d5ea5a015d99bae542c5dc14c167a32478fdf"),
    ("pram-crew", "rowmin_sqdist_n256"): (67, "6bebc9ba9f07376baa70dd72e16b43b0a84567d14c974796e31dd24eb133d41d"),
    ("pram-crew", "staircase_min_n128"): (167, "861dc3b06ff761fc193a14e14504f264b945c6acaea1eac3d896fa6f393577df"),
    ("pram-crew", "tube_min_n16"): (40, "48f958bf7a38704256f3ec6d4a71eb0ba5bed2b6b30400e08fc32dd33179d6e1"),
}


def _record(run, backend):
    """``(event count, digest, types of every charge argument)``."""
    events = []
    types = set()
    ledgers = {}  # id -> (first-appearance number, the ledger kept alive)

    def tag(ledger):
        return ledgers.setdefault(id(ledger), (len(ledgers), ledger))[0]

    def on_round(ledger, rounds, processors, work):
        types.update(map(type, (rounds, processors, work)))
        events.append(f"c{tag(ledger)}:{rounds},{processors},{work}")

    def on_kernel(ledger, name, size):
        events.append(f"k{tag(ledger)}:{name},{size}")

    session = Session(backend)
    with round_hook(on_round), kernel_hook(on_kernel):
        run(session)
    digest = hashlib.sha256("\n".join(events).encode()).hexdigest()
    return len(events), digest, types


@pytest.mark.parametrize("backend", ["pram-crcw", "pram-crew"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_charge_sequence_is_pinned(backend, case):
    count, digest, types = _record(CASES[case], backend)
    assert (count, digest) == PINNED[(backend, case)]
    # a NumPy scalar here would print the same but leak into ledger
    # totals, and from there into snapshots that must stay plain JSON
    assert types == {int}


def test_fused_sweep_charges_every_owner():
    """The fused case really runs the stacked sweep with per-owner
    replays: five ledgers (the sweep's and four sub-accounts)."""
    seen = set()
    session = Session("pram-crcw")
    with round_hook(lambda ledger, *_: seen.add(id(ledger))):
        out = CASES["rowmax_fused_4x64"](session)
    assert len(seen) == 5
    assert all(r.snapshot["rounds"] > 0 for r in out.results)
