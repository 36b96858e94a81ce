"""``Pram.sub()`` budget enforcement under nested recursion (and Brent)."""

import numpy as np
import pytest

from repro.pram import CREW, CostLedger, Pram
from repro.pram.ledger import ProcessorBudgetExceeded
from repro.pram.scheduling import BrentPram


def test_sub_enforces_parent_budget():
    m = Pram(CREW, 16, ledger=CostLedger())
    with pytest.raises(ValueError, match="16"):
        m.sub(17)
    sub = m.sub(16)  # the full budget is fine
    assert sub.processors == 16


def test_nested_sub_chain_narrows_monotonically():
    m = Pram(CREW, 64, ledger=CostLedger())
    s1 = m.sub(32)
    s2 = s1.sub(8)
    s3 = s2.sub(1)
    assert (s1.processors, s2.processors, s3.processors) == (32, 8, 1)
    with pytest.raises(ValueError):
        s2.sub(9)  # may not re-widen past the nearest ancestor
    with pytest.raises(ValueError):
        s3.sub(2)
    # degenerate requests clamp to one processor rather than failing
    assert s3.sub(0).processors == 1
    assert m.sub(-5).processors == 1


def test_sub_shares_ledger_with_parent():
    m = Pram(CREW, 32, ledger=CostLedger())
    sub = m.sub(4)
    sub.charge(rounds=3, processors=4)
    assert m.ledger.rounds == 3
    assert m.ledger.peak_processors == 4


def test_charge_over_sub_budget_rejected():
    m = Pram(CREW, 32, ledger=CostLedger())
    sub = m.sub(4)
    with pytest.raises(RuntimeError, match="4"):
        sub.charge(rounds=1, processors=5)
    # the failed charge must not have leaked into the ledger
    assert m.ledger.rounds == 0 and m.ledger.work == 0


def test_exhausted_budget_path_charges_nothing():
    ledger = CostLedger(processor_limit=8)
    m = Pram(CREW, 8, ledger=ledger)
    m.charge(rounds=2, processors=8)
    before = ledger.snapshot()
    with pytest.raises(ProcessorBudgetExceeded):
        ledger.charge(rounds=1, processors=9)
    assert ledger.snapshot() == before


def test_recursive_subdivision_exhausts_then_recovers():
    # a sqrt-style recursion: each level grabs sub(sqrt(p)) until the
    # budget bottoms out at 1, where further narrowing must still work
    m = Pram(CREW, 256, ledger=CostLedger())
    machine = m
    widths = []
    while machine.processors > 1:
        machine = machine.sub(int(np.sqrt(machine.processors)))
        widths.append(machine.processors)
        machine.charge(rounds=1, processors=machine.processors)
    assert widths == [16, 4, 2, 1][: len(widths)]
    assert machine.sub(1).processors == 1
    with pytest.raises(ValueError):
        machine.sub(2)
    assert m.ledger.rounds == len(widths)


def test_brent_sub_keeps_physical_width():
    m = BrentPram(CREW, 1 << 20, 8, ledger=CostLedger())
    sub = m.sub(1 << 10)
    assert isinstance(sub, BrentPram)
    assert sub.physical_processors == 8
    sub.charge(rounds=1, processors=1 << 10)  # 1024 virtual -> 128 slices
    assert m.ledger.rounds == 128
    assert m.ledger.peak_processors == 8
    with pytest.raises(ValueError):
        sub.sub(1 << 11)
    with pytest.raises(RuntimeError):
        sub.charge(rounds=1, processors=(1 << 10) + 1)


def test_brent_physical_budget_validation():
    with pytest.raises(ValueError):
        BrentPram(CREW, 16, 0, ledger=CostLedger())
    with pytest.raises(ValueError):
        Pram(CREW, 0, ledger=CostLedger())
