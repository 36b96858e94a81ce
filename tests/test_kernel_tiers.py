"""Kernel-tier registry, selection precedence, thread isolation, and
cross-tier identity.

The tentpole contract (DESIGN.md §13): tiers change wall-clock only.
Values, witnesses, per-query ledger snapshots, trace totals, and
certificates are bit-identical across ``reference`` and ``fused`` for
serial and fused-batch execution.  A query's tier is its own: queries
running at the same time in other threads neither see nor change it.
"""

import sys
import threading
from collections import defaultdict

import numpy as np
import pytest

import repro
from repro.apps.string_edit import edit_distance_dag_parallel
from repro.engine import CapabilityError, ExecutionConfig, Session, registry
from repro.kernels import (
    TIERS,
    ChargeFan,  # noqa: F401 - re-export is part of the package surface
    current_tier,
    get_tier,
    resolve_kernel_tier,
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

ARRAYS = [random_monge(33, 24, np.random.default_rng(400 + k)) for k in range(4)]
STAIRCASE = random_staircase_monge(11, 13, np.random.default_rng(41))
COMPOSITE = random_composite(5, 4, 5, np.random.default_rng(42))


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
    assert TIERS == ("reference", "fused")
    assert get_tier("reference") == "reference"
    assert get_tier("fused") == "fused"


def test_get_tier_unknown_lists_known_names():
    with pytest.raises(ValueError, match="unknown kernel tier 'warp'"):
        get_tier("warp")
    with pytest.raises(ValueError, match="reference"):
        get_tier("warp")


def test_tier_context_nests_and_explicit_tier_wins():
    default = resolve_kernel_tier(None)
    with tier_context("fused"):
        assert resolve_kernel_tier(None) == "fused"
        with tier_context("reference"):
            assert resolve_kernel_tier(None) == "reference"
            # explicit request wins over the scope, and is validated
            assert resolve_kernel_tier("fused") == "fused"
        assert resolve_kernel_tier(None) == "fused"
        assert resolve_kernel_tier("reference") == "reference"
        with pytest.raises(ValueError, match="unknown kernel tier"):
            resolve_kernel_tier("warp")
    assert resolve_kernel_tier(None) == default


def test_tier_context_yields_effective_name_and_restores():
    before = resolve_kernel_tier(None)
    other = next(t for t in TIERS if t != before)
    with tier_context(None) as name:
        assert name == before  # None: pure no-op
    with tier_context(other) as name:
        assert name == other
    assert resolve_kernel_tier(None) == before


# --------------------------------------------------------------------- #
# environment precedence (tier_context > REPRO_KERNEL_TIER > fused)
# --------------------------------------------------------------------- #
def test_env_tier_selects_and_validates(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_TIER", "reference")
    _reload_env_defaults()
    assert resolve_kernel_tier(None) == "reference"
    with tier_context("fused"):
        assert resolve_kernel_tier(None) == "fused"  # scope beats env
    monkeypatch.setenv("REPRO_KERNEL_TIER", "warp9")
    _reload_env_defaults()
    with pytest.raises(ValueError, match="REPRO_KERNEL_TIER"):
        resolve_kernel_tier(None)


def test_blocked_tier_is_gone(monkeypatch):
    """The tiled tier was deleted: every way of naming it fails like any
    unknown tier, listing the two that remain."""
    remaining = r"one of \('reference', 'fused'\)"
    with pytest.raises(ValueError, match=remaining):
        ExecutionConfig(kernel_tier="blocked")
    with pytest.raises(ValueError, match=remaining):
        with tier_context("blocked"):
            pass
    monkeypatch.setenv("REPRO_KERNEL_TIER", "blocked")
    _reload_env_defaults()
    with pytest.raises(ValueError, match="REPRO_KERNEL_TIER must be " + remaining):
        resolve_kernel_tier(None)


# --------------------------------------------------------------------- #
# undeclared tiers are capability errors
# --------------------------------------------------------------------- #
def test_backends_declare_their_tiers():
    assert registry.lookup("rowmin", "pram-crcw").kernel_tiers == TIERS
    seq = registry.lookup("rowmin", "sequential")
    assert seq.kernel_tiers == ("reference",)
    seq.check_kernel_tier(None)  # unset: defers to the scope / environment
    seq.check_kernel_tier("reference")
    with pytest.raises(CapabilityError, match="sequential"):
        seq.check_kernel_tier("fused")
    with pytest.raises(CapabilityError):
        repro.solve("rowmin", ARRAYS[0], backend="sequential", kernel_tier="fused")


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
    got = repro.solve(problem, data, trace=True, kernel_tier=tier)
    _assert_identical(ref, got)
    assert got.trace.totals() == ref.trace.totals()


def test_string_edit_session_snapshot_identical_across_tiers():
    """The string-editing application charges a session's ledger through
    many tube-minima products; every charge must match across tiers."""
    rng = np.random.default_rng(12)
    x = "".join(rng.choice(list("acgt"), size=12))
    y = "".join(rng.choice(list("acgt"), size=12))
    runs = {}
    for tier in TIERS:
        with tier_context(tier):
            s = Session("pram-crcw")
            runs[tier] = (edit_distance_dag_parallel(x, y, session=s), s.ledger.snapshot())
    assert runs["fused"][0] == runs["reference"][0]
    assert runs["fused"][1] == runs["reference"][1]
    assert runs["fused"][1]["rounds"] > 0


@pytest.mark.parametrize("tier", TIERS)
def test_fused_batch_bit_identity_across_tiers(tier):
    refs = [repro.solve("rowmin", a, kernel_tier="reference") for a in ARRAYS]
    batch = Session("pram-crcw").solve_many("rowmin", ARRAYS, kernel_tier=tier)
    for ref, got in zip(refs, batch):
        _assert_identical(ref, got)


def test_certified_tiers_bit_identical():
    ref = repro.solve("rowmin", ARRAYS[0], certify=True, kernel_tier="reference")
    got = repro.solve("rowmin", ARRAYS[0], certify=True, kernel_tier="fused")
    assert ref.certified and got.certified and got.certificate.ok
    _assert_identical(ref, got)


# --------------------------------------------------------------------- #
# concurrent queries each run under their own tier
# --------------------------------------------------------------------- #
#: Rounds of three simultaneous solves; sized so a shared process-wide
#: tier is caught on every run while the test stays near one second.
ISOLATION_ROUNDS = 100


def test_concurrent_queries_keep_their_own_tier():
    """Three threads solve at once under ``reference``, ``fused`` and
    the default tier.  Every kernel chokepoint a thread
    reaches sees that thread's tier, the default is unchanged afterwards,
    and every answer and ledger snapshot equals a sequential
    ``reference`` solve."""
    a = random_monge(128, 128, np.random.default_rng(7))
    want = repro.solve("rowmin", a, kernel_tier="reference")
    default = resolve_kernel_tier(None)
    tiers = ("reference", "fused", None)
    seen = defaultdict(list)  # thread ident -> tier name at each kernel
    results = defaultdict(list)
    barrier = threading.Barrier(len(tiers))

    def record(ledger, name, size):
        seen[threading.get_ident()].append(current_tier())

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


def test_blocked_tier_records_metrics():
    metrics().reset()
    repro.solve("rowmin", ARRAYS[0], kernel_tier="reference")
    repro.solve("rowmin", ARRAYS[1], kernel_tier="fused")
    c = metrics().snapshot()["counters"]
    assert c["kernel.tier.reference"] == 1
    assert c["kernel.tier.fused"] == 1
