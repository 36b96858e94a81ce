"""Kernel-tier registry, selection precedence, thread isolation, and
blocked-tier identity.

The tentpole contract (DESIGN.md §13): tiers change wall-clock and
memory residency only.  Values, witnesses, per-query ledger snapshots,
trace totals, and certificates are bit-identical across ``reference``,
``fused``, and ``blocked`` for serial and fused-batch execution; the
blocked tier additionally keeps the peak resident tile within its byte
budget.  A query's tier is its own: queries running at the same time in
other threads neither see nor change it.
"""

import sys
import threading
from collections import defaultdict

import numpy as np
import pytest

import repro
from repro.engine import CapabilityError, Session, registry
from repro.kernels import (
    DEFAULT_TILE_BYTES,
    ChargeFan,  # noqa: F401 - re-export is part of the package surface
    all_tiers,
    current_tier,
    eval_grouped_min,
    get_tier,
    resolve_kernel_tier,
    resolve_tile_bytes,
    tier_context,
)
from repro.kernels.registry import _reload_env_defaults
from repro.monge.generators import (
    random_composite,
    random_monge,
    random_staircase_monge,
)
from repro.obs import kernel_hook
from repro.obs.metrics import metrics
from repro.pram.machine import Pram
from repro.pram.models import CRCW_COMMON

ARRAYS = [random_monge(33, 24, np.random.default_rng(400 + k)) for k in range(4)]
STAIRCASE = random_staircase_monge(11, 13, np.random.default_rng(41))
COMPOSITE = random_composite(5, 4, 5, np.random.default_rng(42))

TIERS = ("reference", "fused", "blocked")
#: Small enough that every ARRAYS sweep spans many tiles (33*24*8 = 6336 B).
TINY_TILE = 512


@pytest.fixture(autouse=True)
def _pristine_tier_state():
    """Every test starts and ends on freshly read environment defaults."""
    _reload_env_defaults()
    yield
    _reload_env_defaults()


def _assert_identical(ref, got):
    np.testing.assert_array_equal(ref.values, got.values)
    np.testing.assert_array_equal(ref.witnesses, got.witnesses)
    assert got.snapshot == ref.snapshot


# --------------------------------------------------------------------- #
# registry surface
# --------------------------------------------------------------------- #
def test_builtin_tiers_registered():
    names = [t.name for t in all_tiers()]
    assert names == ["reference", "fused", "blocked"]
    assert not get_tier("reference").fused
    assert get_tier("fused").fused and not get_tier("fused").out_of_core
    assert get_tier("blocked").fused and get_tier("blocked").out_of_core


def test_get_tier_unknown_lists_known_names():
    with pytest.raises(ValueError, match="unknown kernel tier 'warp'"):
        get_tier("warp")
    with pytest.raises(ValueError, match="reference"):
        get_tier("warp")


def test_tier_context_nests_and_explicit_tier_wins():
    default = resolve_kernel_tier(None)
    with tier_context("blocked"):
        assert resolve_kernel_tier(None) == "blocked"
        with tier_context("reference"):
            assert resolve_kernel_tier(None) == "reference"
        assert resolve_kernel_tier(None) == "blocked"
        # explicit request wins over the scope, and is validated
        assert resolve_kernel_tier("fused") == "fused"
        with pytest.raises(ValueError, match="unknown kernel tier"):
            resolve_kernel_tier("warp")
    assert resolve_kernel_tier(None) == default


def test_tier_context_yields_effective_name_and_restores():
    before = resolve_kernel_tier(None)
    with tier_context(None, None) as name:
        assert name == before  # None fields: pure no-op
    with tier_context("blocked", 4096) as name:
        assert name == "blocked"
        assert resolve_tile_bytes(None) == 4096
    assert resolve_kernel_tier(None) == before
    assert resolve_tile_bytes(None) == DEFAULT_TILE_BYTES


# --------------------------------------------------------------------- #
# environment precedence (tier_context > REPRO_KERNEL_TIER > fused)
# --------------------------------------------------------------------- #
def test_env_tier_selects_and_validates(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_TIER", "blocked")
    _reload_env_defaults()
    assert resolve_kernel_tier(None) == "blocked"
    with tier_context("reference"):
        assert resolve_kernel_tier(None) == "reference"  # scope beats env
    monkeypatch.setenv("REPRO_KERNEL_TIER", "warp9")
    _reload_env_defaults()
    with pytest.raises(ValueError, match="REPRO_KERNEL_TIER"):
        resolve_kernel_tier(None)


# --------------------------------------------------------------------- #
# tile byte budget precedence and validation
# --------------------------------------------------------------------- #
def test_tile_bytes_precedence(monkeypatch):
    assert resolve_tile_bytes(None) == DEFAULT_TILE_BYTES
    monkeypatch.setenv("REPRO_TILE_BYTES", "8192")
    _reload_env_defaults()
    assert resolve_tile_bytes(None) == 8192
    with tier_context(tile_bytes=2048):
        assert resolve_tile_bytes(None) == 2048  # scope beats env
        assert resolve_tile_bytes(1024) == 1024  # explicit beats scope
        with tier_context("blocked"):
            assert resolve_tile_bytes(None) == 2048  # inner scope keeps it
    assert resolve_tile_bytes(None) == 8192


@pytest.mark.parametrize("bad", ["64MB", "1.5", "-3", "0"])
def test_tile_bytes_env_validation_names_variable(monkeypatch, bad):
    monkeypatch.setenv("REPRO_TILE_BYTES", bad)
    _reload_env_defaults()
    with pytest.raises(ValueError, match="REPRO_TILE_BYTES"):
        resolve_tile_bytes(None)


def test_tile_bytes_rejects_nonpositive():
    with pytest.raises(ValueError, match="tile_bytes"):
        with tier_context(tile_bytes=0):
            pass
    with pytest.raises(ValueError, match="tile_bytes"):
        resolve_tile_bytes(-8)


# --------------------------------------------------------------------- #
# undeclared tiers are capability errors naming an alternative
# --------------------------------------------------------------------- #
def test_backends_declare_their_tiers():
    assert "blocked" in registry.lookup("rowmin", "pram-crcw").kernel_tiers
    seq = registry.lookup("rowmin", "sequential")
    assert seq.kernel_tiers == ("reference",)
    seq.check_kernel_tier(None)  # unset: defers to the scope / environment
    seq.check_kernel_tier("reference")
    with pytest.raises(CapabilityError, match="sequential"):
        seq.check_kernel_tier("fused")
    with pytest.raises(CapabilityError):
        repro.solve("rowmin", ARRAYS[0], backend="sequential", kernel_tier="blocked")


# --------------------------------------------------------------------- #
# tier bit-identity gate: serial, fused batch
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize(
    "problem,data",
    [("rowmin", ARRAYS[0]), ("staircase_min", STAIRCASE), ("tube_min", COMPOSITE)],
)
def test_serial_bit_identity_across_tiers(problem, data, tier):
    ref = repro.solve(problem, data, trace=True, kernel_tier="reference")
    got = repro.solve(
        problem, data, trace=True, kernel_tier=tier, tile_bytes=TINY_TILE
    )
    _assert_identical(ref, got)
    assert got.trace.totals() == ref.trace.totals()


@pytest.mark.parametrize("tier", TIERS)
def test_fused_batch_bit_identity_across_tiers(tier):
    refs = [repro.solve("rowmin", a, kernel_tier="reference") for a in ARRAYS]
    batch = Session("pram-crcw").solve_many(
        "rowmin", ARRAYS, kernel_tier=tier, tile_bytes=TINY_TILE
    )
    for ref, got in zip(refs, batch):
        _assert_identical(ref, got)


def test_certified_blocked_tier_bit_identical():
    ref = repro.solve("rowmin", ARRAYS[0], certify=True)
    got = repro.solve(
        "rowmin", ARRAYS[0], certify=True, kernel_tier="blocked",
        tile_bytes=TINY_TILE,
    )
    assert ref.certified and got.certified and got.certificate.ok
    _assert_identical(ref, got)


# --------------------------------------------------------------------- #
# concurrent queries each run under their own tier
# --------------------------------------------------------------------- #
#: Rounds of four simultaneous solves; sized so a shared process-wide
#: tier is caught on every run while the test stays near one second.
ISOLATION_ROUNDS = 100


def test_concurrent_queries_keep_their_own_tier():
    """Four threads solve at once under ``reference``, ``fused``,
    ``blocked`` and the default tier.  Every kernel chokepoint a thread
    reaches sees that thread's tier, the default is unchanged afterwards,
    and every answer and ledger snapshot equals a sequential
    ``reference`` solve."""
    a = random_monge(128, 128, np.random.default_rng(7))
    want = repro.solve("rowmin", a, kernel_tier="reference")
    default = resolve_kernel_tier(None)
    tiers = ("reference", "fused", "blocked", None)
    seen = defaultdict(list)  # thread ident -> tier name at each kernel
    results = defaultdict(list)
    barrier = threading.Barrier(len(tiers))

    def record(ledger, name, size):
        seen[threading.get_ident()].append(current_tier().name)

    def worker(tier):
        for _ in range(ISOLATION_ROUNDS):
            barrier.wait(timeout=30)
            results[tier].append(repro.solve("rowmin", a, kernel_tier=tier))

    threads = {tier: threading.Thread(target=worker, args=(tier,)) for tier in tiers}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with kernel_hook(record):
            for thread in threads.values():
                thread.start()
            for thread in threads.values():
                thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)

    assert resolve_kernel_tier(None) == default
    for tier, thread in threads.items():
        assert not thread.is_alive()
        reads = seen[thread.ident]
        assert reads and set(reads) == {tier or default}, (tier, set(reads))
        assert len(results[tier]) == ISOLATION_ROUNDS
        for got in results[tier]:
            _assert_identical(want, got)


# --------------------------------------------------------------------- #
# blocked-tier tiling edges
# --------------------------------------------------------------------- #
def _dense_vs_streamed(values, offsets, tile_bytes, procs=None):
    """Run the chokepoint dense and streamed on twin machines; return
    both (gv, gi, snapshot) triples.  ``procs`` pins the grouped-minimum
    strategy budget (as a Brent-scheduled machine would)."""
    values = np.asarray(values, dtype=np.float64)
    out = []
    for tier, budget in (("fused", None), ("blocked", tile_bytes)):
        pram = Pram(CRCW_COMMON, 1 << 40)
        if procs is not None:
            pram.physical_processors = procs
        with tier_context(tier, budget):
            gv, gi = eval_grouped_min(
                pram, lambda lo, hi: values[lo:hi].copy(), values.size, offsets
            )
        out.append((gv, gi, pram.ledger.snapshot()))
    return out


@pytest.mark.parametrize(
    "widths,tile_bytes",
    [
        ([24, 24, 24], 64),        # tile (8 elems) smaller than one group
        ([7, 0, 13, 5, 0, 8], 80), # empty groups + non-divisible total
        ([1] * 29, 56),            # many tiny groups, ragged last tile
        ([40], 96),                # one group spanning every tile
    ],
)
def test_blocked_tiling_edges_match_dense(widths, tile_bytes):
    rng = np.random.default_rng(sum(widths) + tile_bytes)
    offsets = np.concatenate([[0], np.cumsum(widths)])
    values = rng.normal(size=int(offsets[-1]))
    # duplicate the minimum inside one group: leftmost-tie contract
    if widths[0] >= 2:
        values[0] = values[1] = values[: widths[0]].min() - 1.0
    (dv, di, dsnap), (sv, si, ssnap) = _dense_vs_streamed(
        values, offsets, tile_bytes
    )
    np.testing.assert_array_equal(dv, sv)
    np.testing.assert_array_equal(di, si)
    assert dsnap == ssnap  # identical charge replay, tile count invisible


def test_blocked_neginf_doubly_log_falls_back_dense():
    """-inf under the doubly-log strategy is block-structure-dependent in
    the reference, so the stream re-runs dense — same result, same
    charges (the replay is dimension-only)."""
    widths = [12] * 10  # sum(w^2) = 1440 > the 64-processor budget -> doubly_log
    offsets = np.concatenate([[0], np.cumsum(widths)])
    values = np.random.default_rng(7).normal(size=120)
    values[[3, 50, 119]] = -np.inf
    (dv, di, dsnap), (sv, si, ssnap) = _dense_vs_streamed(
        values, offsets, 128, procs=64
    )
    np.testing.assert_array_equal(dv, sv)
    np.testing.assert_array_equal(di, si)
    assert dsnap == ssnap


def test_blocked_tier_single_tile_is_dense_passthrough():
    """total <= tile budget: the blocked tier takes the dense branch —
    one evaluate(0, total) call, no per-tile slicing."""
    calls = []
    pram = Pram(CRCW_COMMON, 64)  # 16 candidates: within the round budget
    values = np.arange(16.0)

    def evaluate(lo, hi):
        calls.append((lo, hi))
        return values[lo:hi]

    with tier_context("blocked", 16 * 8):
        gv, gi = eval_grouped_min(pram, evaluate, 16, np.array([0, 8, 16]))
    assert calls == [(0, 16)]
    np.testing.assert_array_equal(gv, [0.0, 8.0])
    np.testing.assert_array_equal(gi, [0, 8])


def test_peak_resident_tile_within_budget():
    """A sweep whose stacked tensor exceeds the budget streams: the
    ``kernel.tile_bytes`` histogram max stays within the budget and the
    tile count shows the tensor never materialized whole."""
    a = ARRAYS[0]  # 33x24 float64: 6336 B of candidates per dense pass
    budget = 1024
    ref = repro.solve("rowmin", a)
    metrics().reset()
    got = repro.solve("rowmin", a, kernel_tier="blocked", tile_bytes=budget)
    _assert_identical(ref, got)
    hist = metrics().snapshot()["histograms"]["kernel.tile_bytes"]
    assert hist["count"] > 1
    assert hist["max"] <= budget


def test_blocked_tier_records_metrics():
    metrics().reset()
    repro.solve("rowmin", ARRAYS[0], kernel_tier="blocked", tile_bytes=TINY_TILE)
    repro.solve("rowmin", ARRAYS[1], kernel_tier="fused")
    c = metrics().snapshot()["counters"]
    assert c["kernel.tier.blocked"] == 1
    assert c["kernel.tier.fused"] == 1
