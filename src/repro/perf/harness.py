"""Wall-clock measurement utilities for the perf-regression harness.

The simulator's first-class metrics are *simulated* (rounds, work, peak
processors — see :mod:`repro.pram.ledger`); this module adds the
*wall-clock* dimension: how fast the simulation itself executes on the
host.  ``benchmarks/bench_regress.py`` combines the two into the repo's
perf baseline (``BENCH_hotpath.json``) so later PRs can show
trajectories instead of anecdotes.

Conventions
-----------
- Timings are best-of-``repeats`` of a zero-argument callable
  (:func:`measure_best`) — the standard defense against one-off
  scheduler noise; the callable's *last* return value is kept so the
  caller can verify results across configurations.
- Derived throughputs (:func:`throughput`) divide simulated quantities
  by wall seconds: rounds/sec measures simulator overhead per
  synchronous round, evals/sec measures entry-evaluation bandwidth.
- :func:`emit_json` writes deterministic, pretty-printed JSON with a
  provenance header (:func:`environment_fingerprint`) so baselines from
  different machines are distinguishable.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

__all__ = [
    "Timer",
    "measure_best",
    "throughput",
    "environment_fingerprint",
    "emit_json",
    "WorkloadRecord",
]


class Timer:
    """Context-manager stopwatch: ``with Timer() as t: ...; t.seconds``."""

    def __enter__(self) -> "Timer":
        self.seconds: float = 0.0
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = time.perf_counter() - self._t0


def measure_best(fn: Callable[[], Any], repeats: int = 3) -> Tuple[float, Any]:
    """Best wall-clock of ``repeats`` calls, plus the last call's result."""
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    best = float("inf")
    result: Any = None
    for _ in range(repeats):
        with Timer() as t:
            result = fn()
        best = min(best, t.seconds)
    return best, result


def throughput(quantity: int, seconds: float) -> float:
    """``quantity / seconds`` guarded against zero-duration timings."""
    return float(quantity) / max(seconds, 1e-12)


def environment_fingerprint() -> Dict[str, str]:
    """Provenance header for emitted baselines."""
    return {
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


@dataclass
class WorkloadRecord:
    """One pinned workload's measurements across simulator configurations.

    ``wall_s`` maps configuration name (``ref`` / ``fast``) to
    best-of-repeats seconds; the simulated costs are
    configuration-independent by the fused-kernel invariant, which
    ``ledger_identical`` / ``results_identical`` certify for this run.
    """

    name: str
    params: Dict[str, Any] = field(default_factory=dict)
    wall_s: Dict[str, float] = field(default_factory=dict)
    rounds: int = 0
    work: int = 0
    peak_processors: int = 0
    evals: int = 0
    #: Configuration name -> kernel tier it ran under (DESIGN.md §13),
    #: e.g. ``{"ref": "reference", "fast": "fused"}``.
    kernel_tiers: Dict[str, str] = field(default_factory=dict)
    ledger_identical: bool = False
    results_identical: bool = False

    def speedup(self, config: str = "fast", baseline: str = "ref") -> Optional[float]:
        if config not in self.wall_s or baseline not in self.wall_s:
            return None
        return self.wall_s[baseline] / max(self.wall_s[config], 1e-12)

    def as_json(self) -> Dict[str, Any]:
        fast = self.wall_s.get("fast")
        payload: Dict[str, Any] = {
            "params": self.params,
            "wall_s": {k: round(v, 6) for k, v in self.wall_s.items()},
            "rounds": self.rounds,
            "work": self.work,
            "peak_processors": self.peak_processors,
            "evals": self.evals,
            "ledger_identical": self.ledger_identical,
            "results_identical": self.results_identical,
        }
        if self.kernel_tiers:
            payload["kernel_tiers"] = dict(self.kernel_tiers)
        for config in self.wall_s:
            if config == "ref":
                continue
            s = self.speedup(config)
            if s is not None:
                payload[f"speedup_{config}"] = round(s, 3)
        if fast:
            payload["rounds_per_s_fast"] = round(throughput(self.rounds, fast), 1)
            payload["evals_per_s_fast"] = round(throughput(self.evals, fast), 1)
        return payload


def emit_json(path: str, payload: Dict[str, Any]) -> None:
    """Write ``payload`` as stable pretty-printed JSON."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
