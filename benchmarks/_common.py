"""Helpers shared by the bench modules."""

from __future__ import annotations

import json
import math
import platform
import sys
import time
from typing import Any, Dict

import numpy as np

from repro.pram.ledger import CostLedger
from repro.pram.models import CRCW_COMMON, CREW
from repro.pram.scheduling import BrentPram


def crcw_machine(n: int) -> BrentPram:
    """CRCW machine at the Table budget (8n physical; see EXPERIMENTS.md)."""
    return BrentPram(CRCW_COMMON, 1 << 44, 8 * n, ledger=CostLedger())


def crew_machine(n: int) -> BrentPram:
    """CREW machine at the Table budget n / lg lg n."""
    phys = max(1, int(n / math.log2(max(2.0, math.log2(max(2, n))))))
    return BrentPram(CREW, 1 << 44, phys, ledger=CostLedger())


def lg(n: float) -> float:
    return math.log2(max(2.0, n))


class Timer:
    """Context-manager stopwatch: ``with Timer() as t: ...; t.seconds``."""

    def __enter__(self) -> "Timer":
        self.seconds: float = 0.0
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = time.perf_counter() - self._t0


def environment_fingerprint() -> Dict[str, str]:
    """Provenance header for emitted JSON records."""
    return {
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def emit_json(path: str, payload: Dict[str, Any]) -> None:
    """Write ``payload`` as stable pretty-printed JSON."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
