"""ExecutionConfig validation/auto-resolution and SearchResult back-compat."""

import numpy as np
import pytest

from repro.core import monge_row_minima_pram
from repro.engine import ExecutionConfig, SearchResult, solve
from repro.engine.planner import plan_query
from repro.kernels import TIERS, resolve_kernel_tier
from repro.monge.generators import random_monge
from repro.pram.machine import Pram
from repro.pram.models import CRCW_COMMON

# --------------------------------------------------------------------- #
# ExecutionConfig
# --------------------------------------------------------------------- #
def test_defaults():
    cfg = ExecutionConfig()
    assert cfg.strategy == "auto"
    assert cfg.strict is True and cfg.checked is False
    assert cfg.faults is None and cfg.retries == 0 and cfg.certify is False
    assert cfg.kernel_tier is None


def test_removed_knobs_raise_type_error():
    """The entry cache and the tile budget are gone, and the config and
    the core entry points take them keyword-only: an old spelling fails
    loudly instead of rebinding to the next slot."""
    with pytest.raises(TypeError):
        ExecutionConfig(cache=True)
    with pytest.raises(TypeError):
        ExecutionConfig(tile_bytes=4096)
    with pytest.raises(TypeError):
        ExecutionConfig("auto", True)
    a = random_monge(6, 6, np.random.default_rng(2))
    m = Pram(CRCW_COMMON, 1 << 20)
    with pytest.raises(TypeError):
        monge_row_minima_pram(m, a, cache=True)
    with pytest.raises(TypeError):
        monge_row_minima_pram(m, a, "sqrt", True)  # the old (cache, strict) slots


# --------------------------------------------------------------------- #
# kernel tier (DESIGN.md §13)
# --------------------------------------------------------------------- #
def test_kernel_tier_validated_at_construction():
    assert ExecutionConfig(kernel_tier="reference").kernel_tier == "reference"
    with pytest.raises(ValueError, match="unknown kernel tier"):
        ExecutionConfig(kernel_tier="warp")
    # the resolved tier joins the fused key: mixed-tier queries never fuse
    a = random_monge(8, 8, np.random.default_rng(3))

    def key(**kw):
        return plan_query("rowmin", a, ExecutionConfig(**kw), "pram-crcw").fused_key

    other = next(t for t in TIERS if t != resolve_kernel_tier(None))
    assert key(kernel_tier="reference") != key(kernel_tier="fused")
    assert key(kernel_tier=other) != key()


def test_env_tier_and_tile_validated_parent_side(monkeypatch):
    """A malformed env value fails at resolve time with a ValueError
    naming the variable."""
    from repro.kernels.registry import _reload_env_defaults

    monkeypatch.setenv("REPRO_KERNEL_TIER", "bogus")
    _reload_env_defaults()
    with pytest.raises(ValueError, match="REPRO_KERNEL_TIER"):
        resolve_kernel_tier(None)
    monkeypatch.delenv("REPRO_KERNEL_TIER")
    _reload_env_defaults()


def test_unknown_strategy_rejected_at_construction():
    with pytest.raises(ValueError, match="unknown strategy"):
        ExecutionConfig(strategy="bogus")


@pytest.mark.parametrize("bad", [-1, 1.5, "2", True])
def test_bad_retries_rejected(bad):
    with pytest.raises(ValueError, match="retries"):
        ExecutionConfig(retries=bad)


def test_with_overrides_revalidates_and_preserves():
    cfg = ExecutionConfig(strategy="halving", checked=True)
    out = cfg.with_overrides(certify=True)
    assert out.strategy == "halving" and out.checked and out.certify
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
