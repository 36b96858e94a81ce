"""ExecutionConfig validation/auto-resolution and SearchResult back-compat."""

import numpy as np
import pytest

from repro.engine import ExecutionConfig, SearchResult, solve
from repro.monge.generators import random_monge

# --------------------------------------------------------------------- #
# ExecutionConfig
# --------------------------------------------------------------------- #
def test_defaults():
    cfg = ExecutionConfig()
    assert cfg.strategy == "auto"
    assert cfg.cache is False and cfg.strict is True and cfg.checked is False
    assert cfg.faults is None and cfg.retries == 0 and cfg.certify is False
    assert cfg.kernel_tier is None and cfg.tile_bytes is None


# --------------------------------------------------------------------- #
# kernel tier / tile budget (DESIGN.md §13)
# --------------------------------------------------------------------- #
def test_kernel_tier_validated_at_construction():
    assert ExecutionConfig(kernel_tier="blocked").kernel_tier == "blocked"
    with pytest.raises(ValueError, match="unknown kernel tier"):
        ExecutionConfig(kernel_tier="warp")
    # the tier joins the fusion fingerprint: mixed-tier queries never fuse
    assert (
        ExecutionConfig(kernel_tier="blocked").fingerprint()
        != ExecutionConfig(kernel_tier="fused").fingerprint()
    )
    assert ExecutionConfig(kernel_tier="blocked").fingerprint() != (
        ExecutionConfig().fingerprint()
    )


@pytest.mark.parametrize("bad", [0, -4096, 2.5, "64MB", True])
def test_bad_tile_bytes_rejected(bad):
    with pytest.raises(ValueError, match="tile_bytes"):
        ExecutionConfig(tile_bytes=bad)


def test_tile_bytes_accepted_and_fingerprinted():
    cfg = ExecutionConfig(tile_bytes=4096)
    assert cfg.tile_bytes == 4096
    assert cfg.fingerprint() != ExecutionConfig().fingerprint()
    assert cfg.with_overrides(tile_bytes=None).tile_bytes is None


def test_env_tier_and_tile_validated_parent_side(monkeypatch):
    """Malformed env values fail at resolve time with a ValueError
    naming the variable."""
    from repro.kernels.registry import (
        _reload_env_defaults,
        resolve_kernel_tier,
        resolve_tile_bytes,
    )

    monkeypatch.setenv("REPRO_KERNEL_TIER", "bogus")
    _reload_env_defaults()
    with pytest.raises(ValueError, match="REPRO_KERNEL_TIER"):
        resolve_kernel_tier(None)
    monkeypatch.delenv("REPRO_KERNEL_TIER")
    monkeypatch.setenv("REPRO_TILE_BYTES", "lots")
    _reload_env_defaults()
    with pytest.raises(ValueError, match="REPRO_TILE_BYTES"):
        resolve_tile_bytes(None)
    monkeypatch.delenv("REPRO_TILE_BYTES")
    _reload_env_defaults()


def test_unknown_strategy_rejected_at_construction():
    with pytest.raises(ValueError, match="unknown strategy"):
        ExecutionConfig(strategy="bogus")


@pytest.mark.parametrize("bad", [-1, 1.5, "2", True])
def test_bad_retries_rejected(bad):
    with pytest.raises(ValueError, match="retries"):
        ExecutionConfig(retries=bad)


def test_with_overrides_revalidates_and_preserves():
    cfg = ExecutionConfig(strategy="halving", cache=True)
    out = cfg.with_overrides(certify=True)
    assert out.strategy == "halving" and out.cache and out.certify
    assert not cfg.certify  # frozen original untouched
    with pytest.raises(ValueError):
        cfg.with_overrides(strategy="nope")


@pytest.mark.parametrize(
    "problem,crcw,expected",
    [
        ("rowmin", True, "sqrt"),
        ("rowmax", False, "sqrt"),
        ("tube_min", True, "crcw"),
        ("tube_min", False, "crew"),
        ("tube_max", False, "crew"),
        ("staircase_min", True, "auto"),
    ],
)
def test_auto_strategy_resolution(problem, crcw, expected):
    assert ExecutionConfig().resolve_strategy(problem, crcw) == expected


def test_explicit_strategy_passes_through_unresolved():
    cfg = ExecutionConfig(strategy="halving")
    assert cfg.resolve_strategy("tube_min", True) == "halving"


# --------------------------------------------------------------------- #
# SearchResult tuple back-compat
# --------------------------------------------------------------------- #
def test_searchresult_unpacks_like_the_legacy_pair():
    a = random_monge(6, 6, np.random.default_rng(0))
    result = solve("rowmin", a)
    values, cols = result  # the pre-engine calling convention
    assert values is result.values and cols is result.witnesses
    assert len(result) == 2
    assert result[0] is result.values and result[1] is result.witnesses
    np.testing.assert_array_equal(tuple(result)[1], cols)


def test_searchresult_metadata_fields():
    a = random_monge(6, 6, np.random.default_rng(1))
    r = solve("rowmin", a, certify=True)
    assert r.problem == "rowmin" and r.backend == "pram-crcw"
    assert r.strategy == "sqrt"  # auto resolved
    assert r.certified and r.certificate.ok
    assert not r.degraded and r.retries == 0
    assert r.snapshot["rounds"] == r.rounds > 0


def test_searchresult_plain_construction():
    r = SearchResult(values=np.arange(3.0), witnesses=np.arange(3))
    v, w = r
    assert v.shape == (3,) and w.shape == (3,)
    assert not r.certified and not r.degraded and r.rounds is None
