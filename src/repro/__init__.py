"""Parallel Searching in Generalized Monge Arrays with Applications.

A production-grade reproduction of Aggarwal, Kravets, Park, and Sen
(SPAA 1990).  The package provides:

- :mod:`repro.engine` — the unified solver engine: a ``(problem,
  backend)`` registry, :class:`ExecutionConfig`, reusable
  :class:`Session` objects, and structured :class:`SearchResult`
  outputs (see DESIGN.md §8);
- :mod:`repro.pram` — cost-accounted CRCW/CREW PRAM simulators;
- :mod:`repro.networks` — hypercube, cube-connected cycles, and
  shuffle-exchange simulators with genuine per-edge data movement;
- :mod:`repro.monge` — Monge / staircase-Monge / Monge-composite array
  abstractions, generators, verifiers, and the sequential SMAWK
  baselines;
- :mod:`repro.core` — the paper's parallel searching algorithms
  (Tables 1.1–1.3, Theorems 2.3 and 3.2–3.4) plus the banded/windowed
  generalizations the applications need;
- :mod:`repro.apps` — the four §1.3 applications and the Figure 1.1
  example, each with a brute-force reference;
- :mod:`repro.analysis` — growth-law fitting and live regeneration of
  the paper's tables;
- :mod:`repro.kernels` — the kernel-tier registry: named execution
  tiers (``reference`` / ``fused`` / ``blocked``) selected via
  ``kernel_tier=`` / ``tier_context`` / ``REPRO_KERNEL_TIER``, all
  charging identical ledgers (DESIGN.md §13);
- :mod:`repro.serve` — the async query service: concurrent clients'
  requests that queue while the executor is busy run as fused
  ``solve_many`` buckets, with admission control, per-request
  deadlines, and ``serve.*`` observability (DESIGN.md §15).

Quickstart::

    import numpy as np
    import repro

    rng = np.random.default_rng(0)
    a = repro.generators.random_monge(512, 512, rng)   # provably Monge

    result = repro.solve("rowmin", a)                  # CRCW PRAM engine
    values, cols = result                              # tuple-compatible
    print(result.rounds, "simulated CRCW rounds")

    s = repro.Session("hypercube")                     # reusable machines
    r = s.solve("rowmin", a, certify=True)
    assert r.certified

    h = repro.prepare(a)                               # build once ...
    r = h.query((10, 200), (32, 400))                  # ... query many
"""

from repro import (
    analysis,
    apps,
    core,
    engine,
    kernels,
    monge,
    networks,
    obs,
    pram,
    serve,
)
from repro.engine import (
    BatchResult,
    CapabilityError,
    ExecutionConfig,
    PreparedHandle,
    SearchResult,
    Session,
    prepare,
    solve,
    solve_many,
)
from repro.monge import generators

__all__ = [
    "pram",
    "networks",
    "monge",
    "core",
    "apps",
    "analysis",
    "engine",
    "obs",
    "kernels",
    "serve",
    "generators",
    "solve",
    "solve_many",
    "prepare",
    "PreparedHandle",
    "Session",
    "ExecutionConfig",
    "SearchResult",
    "BatchResult",
    "CapabilityError",
]

__version__ = "3.0.0"
