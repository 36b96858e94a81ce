"""Ledger bit-identity across the engine refactor.

``tests/data/pre_refactor_snapshots.json`` pins the ledger
snapshots of every legacy core entry point (rowmin / rowmax / staircase /
tube on CRCW and CREW), captured on the pre-engine implementations.  The
legacy wrappers call the same algorithm bodies the engine registry runs,
on the caller's machine and ledger; this test replays the exact capture
recipe and demands byte-for-byte equal snapshots — nothing on the legacy
path adds a charge.
"""

import json
import os

import numpy as np
import pytest

from repro.core import (
    inverse_monge_row_maxima_pram,
    monge_row_maxima_pram,
    monge_row_minima_pram,
    staircase_row_maxima_pram,
    staircase_row_minima_pram,
    tube_maxima_pram,
    tube_minima_pram,
)
from repro.monge.generators import (
    random_composite,
    random_monge,
    random_staircase_monge,
)
from repro.pram.ledger import CostLedger
from repro.pram.machine import Pram
from repro.pram.models import CRCW_COMMON, CREW

DATA = os.path.join(os.path.dirname(__file__), "data", "pre_refactor_snapshots.json")

MONGE = random_monge(64, 64, np.random.default_rng(7))
STAIRCASE = random_staircase_monge(48, 48, np.random.default_rng(7))
COMPOSITE = random_composite(12, 12, 12, np.random.default_rng(7))

#: name -> callable(machine); mirrors the capture script exactly.
CASES = {
    "rowmin_sqrt": lambda m: monge_row_minima_pram(m, MONGE, strategy="sqrt"),
    "rowmin_halving": lambda m: monge_row_minima_pram(m, MONGE, strategy="halving"),
    "rowmax_sqrt": lambda m: monge_row_maxima_pram(m, MONGE, strategy="sqrt"),
    "inverse_rowmax_sqrt": lambda m: inverse_monge_row_maxima_pram(
        m, MONGE.negate(), strategy="sqrt"
    ),
    "staircase_min": lambda m: staircase_row_minima_pram(m, STAIRCASE),
    "staircase_max": lambda m: staircase_row_maxima_pram(m, STAIRCASE),
    "tube_min_auto": lambda m: tube_minima_pram(m, COMPOSITE),
    "tube_max_auto": lambda m: tube_maxima_pram(m, COMPOSITE),
    "tube_min_crew": lambda m: tube_minima_pram(m, COMPOSITE, scheme="crew"),
}

MODELS = {"crcw": CRCW_COMMON, "crew": CREW}


def _pinned():
    with open(DATA, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_snapshot_file_covers_the_full_matrix():
    pinned = _pinned()
    assert sorted(pinned) == sorted(f"{c}_{t}" for c in CASES for t in MODELS)


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("tag", sorted(MODELS))
def test_ledger_snapshot_bit_identical_to_pre_refactor(case, tag):
    machine = Pram(MODELS[tag], 1 << 20, ledger=CostLedger())
    CASES[case](machine)
    assert machine.ledger.snapshot() == _pinned()[f"{case}_{tag}"]
