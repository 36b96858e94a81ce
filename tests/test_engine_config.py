"""ExecutionConfig validation/auto-resolution and SearchResult back-compat."""

import asyncio
import dataclasses

import numpy as np
import pytest

from repro.core import monge_row_minima_network, monge_row_minima_pram
from repro.engine import ExecutionConfig, SearchResult, Session, solve
from repro.engine.planner import plan_query
from repro.kernels import TIERS, resolve_kernel_tier
from repro.monge.generators import random_monge
from repro.obs import metrics
from repro.pram.machine import Pram
from repro.pram.models import CRCW_COMMON, CREW
from repro.serve import InlineExecutor, QueryService

# --------------------------------------------------------------------- #
# ExecutionConfig
# --------------------------------------------------------------------- #
def test_defaults():
    cfg = ExecutionConfig()
    assert [f.name for f in dataclasses.fields(ExecutionConfig)] == [
        "strategy", "certify", "trace", "kernel_tier"
    ]
    assert cfg.strategy == "auto"
    assert cfg.certify is False and cfg.trace is False
    assert cfg.kernel_tier is None
    assert cfg.fingerprint() == (False, False)


def test_removed_knobs_raise_type_error():
    """Knobs that are gone fail loudly, before any charge or admission,
    instead of being ignored or rebinding to the next slot: the entry
    cache, the tile budget, ``checked`` (which no backend read; a
    validating machine is ``Session(validate=True)``), and ``strict``,
    ``faults`` and ``retries`` with their machine and session spellings."""
    with pytest.raises(TypeError):
        ExecutionConfig(cache=True)
    with pytest.raises(TypeError):
        ExecutionConfig(tile_bytes=4096)
    with pytest.raises(TypeError):
        ExecutionConfig(checked=True)
    with pytest.raises(TypeError):
        ExecutionConfig("auto", True)
    with pytest.raises(TypeError):
        ExecutionConfig(strict=False)
    with pytest.raises(TypeError):
        ExecutionConfig(faults=object())
    with pytest.raises(TypeError):
        ExecutionConfig(retries=1)
    a = random_monge(6, 6, np.random.default_rng(2))
    m = Pram(CRCW_COMMON, 1 << 20)
    with pytest.raises(TypeError):
        monge_row_minima_pram(m, a, cache=True)
    with pytest.raises(TypeError):
        monge_row_minima_pram(m, a, "sqrt", True)  # the old (cache, strict) slots
    with pytest.raises(TypeError):
        monge_row_minima_pram(m, a, strict=True)
    assert m.ledger.rounds == 0
    with pytest.raises(TypeError):
        monge_row_minima_network(a, "hypercube", True)
    with pytest.raises(TypeError):
        Pram(CREW, 4, faults=None)
    with pytest.raises(TypeError):
        # the removed keyword, split so a grep for leftover uses finds none
        Session(**{"retry_" "limit": 1})

    lo = np.array([0, 0, 1, 1, 2, 2])
    s = Session("pram-crcw")
    with pytest.raises(TypeError):
        s.solve("rowmin", a, strict=False)
    with pytest.raises(TypeError):
        s.solve("banded_min", (a, lo, lo + 3), strict=False)
    with pytest.raises(TypeError):
        s.solve("submatrix_max", (a, (0, 4), (0, 4)), strict=False)
    assert s.ledger.rounds == 0 and not s.queries
    seq = Session("sequential")
    with pytest.raises(TypeError):
        seq.solve("rowmin", a, strict=False)
    with pytest.raises(TypeError):
        seq.solve("rowmin", a, retries=2)
    assert not seq.queries

    async def served():
        svc = QueryService("pram-crcw", executor=InlineExecutor())
        requests = metrics().counter("serve.requests").value
        try:
            with pytest.raises(TypeError):
                await svc.solve("rowmin", a, retries=2)
            assert svc.pending == 0
            assert metrics().counter("serve.requests").value == requests
        finally:
            await svc.drain()

    asyncio.run(served())


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


def test_with_overrides_revalidates_and_preserves():
    cfg = ExecutionConfig(strategy="halving", trace=True)
    out = cfg.with_overrides(certify=True)
    assert out.strategy == "halving" and out.trace and out.certify
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
    assert r.snapshot["rounds"] == r.rounds > 0


def test_searchresult_plain_construction():
    r = SearchResult(values=np.arange(3.0), witnesses=np.arange(3))
    v, w = r
    assert v.shape == (3,) and w.shape == (3,)
    assert not r.certified and r.rounds is None
