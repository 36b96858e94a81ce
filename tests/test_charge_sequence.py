"""Charge-sequence pins: every ledger charge and kernel event, in order.

``tests/data/pre_refactor_snapshots.json`` pins ledger *totals*, and the
golden trace pins one rowmin run charge by charge.  These cases pin the
full ordered sequence of ``CostLedger.charge`` calls ``(rounds,
processors, work)`` and kernel events ``(name, size)`` for the
``solve_small`` benchmark mix, a squared-distance rowmin whose interior
blocks vary in width, two fused ``solve_many`` sweeps whose ChargeFan
replays each owner's charges (one over plain matrices, one over parts
the sweep reads through a dense buffer, a strided buffer and ``eval``),
and a ``prepare`` of the submatrix index followed by eight rectangle
queries (its leaf and merge-level charges, then each query's scan and
combine).  Further cases pin the searches the
benchmark mix does not run: the ``halving`` rowmin strategy, the banded
and windowed searches, ``staircase_max`` (a banded search), a direct
multi-case ``staircase_row_minima_batch`` as the empty-rectangle
application calls it; and every case runs again on a Brent machine with
64 physical processors, whose wide grouped minima take the doubly-log
strategy.  Each event also records which ledger received it (numbered
by first appearance), so the fused sweep's global charges and its
per-owner replays are both held in place.

A digest drift means a recursion charged something different or in a
different order.  The kernel tier must not matter: run this file under
``REPRO_KERNEL_TIER=reference`` as well.
"""

import hashlib

import numpy as np
import pytest

from repro import Session
from repro.core.staircase_pram import staircase_row_minima_batch
from repro.monge.arrays import ExplicitArray, ImplicitArray
from repro.monge.generators import (
    random_composite,
    random_monge,
    random_staircase_monge,
)
from repro.obs.hooks import kernel_hook, round_hook
from repro.pram.ledger import CostLedger
from repro.pram.primitives import replay_grouped_min_charges, replay_pair_min_charges


def _squared_distances(n, rng, column_noise=0.0):
    """``(x_i − y_j)² + c_j`` for sorted random ``x``, ``y``: Monge, with
    nearest-neighbour minima spread over the columns (unlike
    ``random_monge``, whose minima sit almost all in the last column)."""
    x = np.sort(rng.random(n))
    y = np.sort(rng.random(n))
    return (x[:, None] - y[None, :]) ** 2 + column_noise * rng.normal(size=n)[None, :]


def _solve(problem, make, **overrides):
    """One query, or one ``solve_many`` batch pinned to the fused tier so
    the stacked sweep runs whatever tier the environment selects."""

    def run(session):
        data = make(np.random.default_rng(7))
        if isinstance(data, list):
            return session.solve_many(problem, data, kernel_tier="fused")
        return session.solve(problem, data, **overrides)

    return run


def _read_paths(rng):
    """Three 64×64 squared-distance parts, one per way the stacked sweep
    reads a part: a dense buffer, the transpose of one (a strided
    buffer) and a bufferless :class:`ImplicitArray`."""
    x = np.sort(rng.random(64))
    y = np.sort(rng.random(64))
    return [
        ExplicitArray(_squared_distances(64, rng)),
        ExplicitArray(_squared_distances(64, rng)).transpose(),
        ImplicitArray(lambda r, c: (x[r] - y[c]) ** 2, (64, 64)),
    ]


def _band(m, n, rng):
    """``(array, lo, hi)``: a Monge array with co-monotone windows."""
    a = random_monge(m, n, rng)
    lo = np.sort(rng.integers(0, n + 1, size=m))
    hi = np.maximum(np.sort(np.minimum(n, lo + rng.integers(0, n + 1, size=m))), lo)
    return a, lo, hi


def _windows(m, n, rng):
    """``(array, lo, hi)``: windows on a random walk, so the dispatcher
    meets banded runs and staircase runs (``hi`` falling)."""
    a = random_monge(m, n, rng)
    base = np.cumsum(rng.integers(-3, 4, size=m)) + n // 4
    lo = np.clip(base, 0, n)
    hi = np.maximum(np.clip(base + rng.integers(0, n // 2, size=m), 0, n), lo)
    return a, lo, hi


def _stair_batch(session):
    """Three staircase instances of one array solved by one direct
    ``staircase_row_minima_batch`` call on the session's machine (on
    ``pram-crcw``, the ``Pram(CRCW_COMMON, 2**40)`` the empty-rectangle
    application builds)."""
    a = random_staircase_monge(120, 100, np.random.default_rng(7))
    return staircase_row_minima_batch(
        session.machine(), a, a.boundary, [0, 30, 70], [30, 40, 50], [0, 10, 25], [100, 90, 75]
    )


def _index(m, n):
    """A ``prepare`` of an ``m×n`` array and eight rectangle queries;
    returns the array and the handle.  ``100×37`` rounds up to 128 leaf
    rows, so its merge levels skip the fully padded parents."""

    def run(session):
        rng = np.random.default_rng(7)
        a = random_monge(m, n, rng)
        handle = session.prepare(a)
        for _ in range(8):
            r0 = int(rng.integers(0, m))
            r1 = int(rng.integers(r0 + 1, m + 1))
            c0 = int(rng.integers(0, n))
            c1 = int(rng.integers(c0 + 1, n + 1))
            handle.query((r0, r1), (c0, c1))
        return a, handle

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
    "rowmin_fused_read_paths_3x64": _solve("rowmin", _read_paths),
    "index_n256": _index(256, 256),
    "index_100x37": _index(100, 37),
    "rowmin_halving_n64": _solve(
        "rowmin", lambda rng: random_monge(64, 64, rng), strategy="halving"
    ),
    "banded_min_n64": _solve("banded_min", lambda rng: _band(64, 64, rng)),
    "windowed_min_n64": _solve("windowed_min", lambda rng: _windows(64, 64, rng)),
    "staircase_max_n128": _solve(
        "staircase_max", lambda rng: random_staircase_monge(128, 128, rng)
    ),
    "staircase_batch_3x": _stair_batch,
}

# Session arguments per backend label.  ``brent-crcw-64`` is a CRCW Brent
# machine with 64 physical processors, where grouped minima too wide for
# all-pairs take the doubly-log strategy.
BACKENDS = {
    "pram-crcw": dict(backend="pram-crcw"),
    "pram-crew": dict(backend="pram-crew"),
    "brent-crcw-64": dict(backend="pram-crcw", physical_processors=64),
}

# (event count, SHA-256 of the event sequence) per (backend, case)
PINNED = {
    ("brent-crcw-64", "banded_min_n64"): (66, "dd71139bcb73f0b2b097cc2fa7c621e5f0c5d0f66199a8e2a38ec7edaa77fa72"),
    ("brent-crcw-64", "index_100x37"): (54, "b684719bde16d8dac2fb83d57124e1654345040bd6a2ca0eac1daeec47e03c60"),
    ("brent-crcw-64", "index_n256"): (58, "2b3c9260a59afc8be1251001fbaf118a513fe9065bec8eec0c757c6ce6652984"),
    ("brent-crcw-64", "rowmax_fused_4x64"): (230, "3d2d29806a81639e7eb26a49fbc7bdebf56d1a44f21e4c4fa4e8ca632025eeb6"),
    ("brent-crcw-64", "rowmax_n128"): (55, "7d4232e64a195c328fd795e03eef247b6dae01abcc1c9c95f9a1973c4da822ef"),
    ("brent-crcw-64", "rowmin_fused_read_paths_3x64"): (170, "7258eced433a82724d9d4042666bd91773c889c4121682062b34b8a66096852e"),
    ("brent-crcw-64", "rowmin_halving_n64"): (55, "14de25ed08afddfed5409316aa1f2de819a43c2d2b48d6e51dd2c66fc1d542fa"),
    ("brent-crcw-64", "rowmin_n64"): (55, "7f83a550272d396c6782eff89422a4422bd673117af54a9bc2f57608da1883c3"),
    ("brent-crcw-64", "rowmin_sqdist_n256"): (63, "5de8c55d5d6599e715db1b5a81e3418cf7355ad580bd3b61ef6b3d9d946fff81"),
    ("brent-crcw-64", "staircase_batch_3x"): (188, "24ef70f49a83276a6b60f51e321dee303e807908b328aa1cce877a8ee85a8087"),
    ("brent-crcw-64", "staircase_max_n128"): (62, "b9cf29b7ab0762f7a122ab6caaa8c01daadace379c7ebda458371db3ba9b9976"),
    ("brent-crcw-64", "staircase_min_n128"): (173, "0e5aabf2c357e51b39e1813939ab5996171300620e60aeebd815cfa8675c4fed"),
    ("brent-crcw-64", "tube_min_n16"): (23, "d99fea665bad3c98560e0e61768b7c24e5ba65997e1327b8a8208744e4f95000"),
    ("brent-crcw-64", "windowed_min_n64"): (243, "ebbe1eb12d2338a68068b0331f1d3a203957d2cc2f4fd699a61db8cd4a647ff2"),
    ("pram-crcw", "banded_min_n64"): (36, "b85d3ac2e5207dc1cad9e76a70613da45a62c55c037c69c58bb13046fd066c96"),
    ("pram-crcw", "index_100x37"): (54, "5a78873b81fc5559be7cf8998e409c39a772fb8ee74960549b7002b8bcdad973"),
    ("pram-crcw", "index_n256"): (58, "fa6df8c9d531f18e896bece9703deb2e590bbb778b678f6498427f1c52966ebb"),
    ("pram-crcw", "rowmax_fused_4x64"): (209, "546af664ec0587ae7dbd313ecfc347f06c3e5b603a4ce6ab3c5de76b317fb930"),
    ("pram-crcw", "rowmax_n128"): (45, "1d29a7c3b0aa19a2c7717b4ea55c6c19604109623840584c1727b03fc4a31d3b"),
    ("pram-crcw", "rowmin_fused_read_paths_3x64"): (168, "015ced8edeadd3499c687838aa56d11173ae72ad5ca1a9a224587cbe5405f2ff"),
    ("pram-crcw", "rowmin_halving_n64"): (36, "c4b6cc8054cc977b116ecbbe2538c3449b32b7daa730c5a1c157139becbdbf6e"),
    ("pram-crcw", "rowmin_n64"): (45, "aa3ba809fd4ad5924da0863164f221353f845c08425f3f294637b8c5264a19d2"),
    ("pram-crcw", "rowmin_sqdist_n256"): (45, "a30f66675ba8b0b0e1e7163aa1b77d1ee32d777b1f433452eecaf06f0cdb31f2"),
    ("pram-crcw", "staircase_batch_3x"): (126, "f31f59faf6905e02a7dfdb250d919a9dba981cf3123c76e5b1e0eca6f2c2c953"),
    ("pram-crcw", "staircase_max_n128"): (42, "4b5743794abad65101ef6f5f4e1482c5ae3e3b534f5238ee93ae5514d13f21c8"),
    ("pram-crcw", "staircase_min_n128"): (122, "46038d86a14c8cfa0b0033ea383dfc414f1707f118772812ec2e99e2693462ea"),
    ("pram-crcw", "tube_min_n16"): (18, "d2d26d63dee18d08702e3bf931c7c55b5c9ef1f450b18b1562f056cd48db7e11"),
    ("pram-crcw", "windowed_min_n64"): (156, "17170b0739cda4d79bd02c4a8e27f04a604517f90c673376a4549243f0218bf5"),
    ("pram-crew", "banded_min_n64"): (63, "615bca4bfd517c3ca2af5aac588cd0b52aba3684e03fae9be06746d39085a16e"),
    ("pram-crew", "index_100x37"): (61, "28e468b54b7321cdea1b69df8a2c8040741a7bcf48f21053c013e52f6e005089"),
    ("pram-crew", "index_n256"): (66, "a1f98d8aa6f07c827819c3ae300b468eadbd211328922cdad024e1dd9fc5c598"),
    ("pram-crew", "rowmax_fused_4x64"): (314, "6550754b50432ba58f50cbef0f4f1a2d31b3b1466e423e1bf6b70ab6ffec314f"),
    ("pram-crew", "rowmax_n128"): (71, "75873401fc19c31707d530c9124badfb2cfd2a600c3d8ca94c4a197dd12f2066"),
    ("pram-crew", "rowmin_fused_read_paths_3x64"): (234, "a0fd4b4553385d1fb4da269e0f86ace55a3cc205242bad48ca54ae7b36491b99"),
    ("pram-crew", "rowmin_halving_n64"): (72, "dcd4cb0c4f6ab34363e79464f2133d5dd35b614006831d49d70bcfbaa56d2713"),
    ("pram-crew", "rowmin_n64"): (66, "10c9ef4764cd65ac9423f8e1242d5ea5a015d99bae542c5dc14c167a32478fdf"),
    ("pram-crew", "rowmin_sqdist_n256"): (67, "6bebc9ba9f07376baa70dd72e16b43b0a84567d14c974796e31dd24eb133d41d"),
    ("pram-crew", "staircase_batch_3x"): (179, "74650d0017b50997288263f0f6cc5728c83075590ce2fa4484fd7752b6cb8e9e"),
    ("pram-crew", "staircase_max_n128"): (91, "ae4a5e93b73207364df712f69d924606dfdb215fdf6fbaff3fed98f16c97d525"),
    ("pram-crew", "staircase_min_n128"): (167, "861dc3b06ff761fc193a14e14504f264b945c6acaea1eac3d896fa6f393577df"),
    ("pram-crew", "tube_min_n16"): (40, "48f958bf7a38704256f3ec6d4a71eb0ba5bed2b6b30400e08fc32dd33179d6e1"),
    ("pram-crew", "windowed_min_n64"): (280, "8ff3437760f0b990eac46b6fca9c4b862bf44ac999ddab4a376ba9383e018953"),
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

    session = Session(**BACKENDS[backend])
    with round_hook(on_round), kernel_hook(on_kernel):
        run(session)
    digest = hashlib.sha256("\n".join(events).encode()).hexdigest()
    return len(events), digest, types


@pytest.mark.parametrize("backend", list(BACKENDS))
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


@pytest.mark.parametrize("backend", ["pram-crcw", "pram-crew"])
@pytest.mark.parametrize("case,build_evals", [
    ("index_n256", 65536 + 2 * 255 * 256),    # m·n leaves + 2·K·n per level
    ("index_100x37", 3700 + 2 * 102 * 37),    # K = 50, 25, 13, 7, 4, 2, 1
])
def test_index_build_reads_each_entry_once(backend, case, build_evals):
    """The build reads every input entry exactly once and the queries
    read none; ``build_evals`` bills the leaves and every merged pair."""
    a, handle = CASES[case](Session(backend))
    m, n = a.shape
    assert a.eval_count == m * n
    assert handle.index.build_evals == build_evals


def _replayed(replay, widths_or_count, crcw, budget):
    """Every charge and kernel event one replay issues into a fresh
    ledger, with the types of every charge argument."""
    events, types = [], set()

    def on_round(ledger, rounds, processors, work):
        types.update(map(type, (rounds, processors, work)))
        events.append(("charge", rounds, processors, work))

    with round_hook(on_round), kernel_hook(lambda _, *event: events.append(event)):
        replay(CostLedger(), widths_or_count, crcw=crcw, budget=budget)
    return events, types


def test_pair_replay_matches_grouped_replay_of_width_two_groups():
    """The index's closed-form merge bill is exactly the general replay
    over ``count`` width-2 groups: all-pairs or doubly-log on CRCW (on
    each side of the ``4·count`` budget), binary on CREW."""
    rng = np.random.default_rng(20)
    counts = [*range(4097), *rng.integers(4097, 1 << 20, size=20).tolist()]
    strategies = set()
    for count in counts:
        for crcw, budget in ((True, 4 * count), (True, max(1, 4 * count - 1)),
                             (False, 4 * count)):
            widths = np.full(count, 2, dtype=np.int64)
            want = _replayed(replay_grouped_min_charges, widths, crcw, budget)
            got = _replayed(replay_pair_min_charges, count, crcw, budget)
            assert got == want, (count, crcw, budget)
            assert got[1] == ({int} if count else set())
            strategies.update(event[0] for event in got[0] if event[0] != "charge")
    assert strategies == {
        "grouped-min:allpairs", "grouped-min:doubly_log", "grouped-min:binary"
    }
