"""Trace-replay regression: the span tree for a pinned workload is frozen.

``tests/data/golden_trace_rowmin_n64.jsonl`` pins the full trace of
``rowmin`` on ``random_monge(64, 64, rng(0))``.  Comparison is
*structural* — span names/kinds/tree shape, charge deltas, and kernel
events — never wall-clock timestamps.  A drift here means the engine's
charge sequence changed: either an intentional algorithmic change
(regenerate the golden file and say so in the PR) or an accounting bug.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import repro

GOLDEN = Path(__file__).parent / "data" / "golden_trace_rowmin_n64.jsonl"
TIMESTAMP_KEYS = ("t0_us", "t1_us")


def _pinned_result(**overrides):
    # the fixture's spans record ``kernel_tier: "fused"``; pin it so the
    # comparison holds whatever REPRO_KERNEL_TIER the suite runs under
    a = repro.generators.random_monge(64, 64, np.random.default_rng(0))
    return repro.solve("rowmin", a, trace=True, **{"kernel_tier": "fused", **overrides})


def _strip(rows):
    return [{k: v for k, v in row.items() if k not in TIMESTAMP_KEYS} for row in rows]


def _rows(text):
    return [json.loads(line) for line in text.splitlines()]


def test_trace_matches_golden_structurally():
    got = _strip(_rows(_pinned_result().trace.to_jsonl_str()))
    want = _strip(_rows(GOLDEN.read_text()))
    assert got == want


def test_golden_file_is_timestamped_and_charged():
    rows = _rows(GOLDEN.read_text())
    assert rows, "golden fixture must not be empty"
    for row in rows:
        assert row["t1_us"] >= row["t0_us"] >= 0.0
    assert sum(r["rounds"] for r in rows) == 57  # Table 1.1 pinned run


def test_reference_tier_does_not_change_span_tree():
    """The vectorized fast path must replay the *same* charge sequence —
    identical span tree, charge deltas, and kernel events — as the
    scalar reference path."""
    fast = _pinned_result().trace.structure()
    slow = _pinned_result(kernel_tier="reference").trace.structure()
    assert fast == slow


def test_repeat_runs_are_structurally_deterministic():
    assert _pinned_result().trace.structure() == _pinned_result().trace.structure()


@pytest.mark.parametrize("backend", ["pram-crew", "hypercube"])
def test_other_backends_are_self_consistent(backend):
    """Not pinned to a file, but replay-stable within a process."""
    a = repro.generators.random_monge(32, 32, np.random.default_rng(1))
    t1 = repro.solve("rowmin", a, backend=backend, trace=True).trace.structure()
    t2 = repro.solve("rowmin", a, backend=backend, trace=True).trace.structure()
    assert t1 == t2
