"""The five end-to-end workloads: inputs, the operation each runs, and
the answers a dense NumPy oracle expects.

Every input comes from ``repro.monge.generators`` driven by the run's
seed; the library only ever sees the generated arrays.  A workload
cycles over a fixed set of *requests*; ``rid`` names one of them, and
``rid_of(k)`` says which request the ``k``-th operation sends.  A
request's expected answer is a list of ``(values, witnesses)`` pairs,
one per engine result the operation returns.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import time
from typing import List, Tuple

import numpy as np

from repro.engine import Session
from repro.monge.generators import random_composite, random_monge, random_staircase_monge
from repro.serve import QueryService


# --------------------------------------------------------------------- #
# dense oracle
# --------------------------------------------------------------------- #
def oracle_rows(dense: np.ndarray, mode: str):
    """Leftmost row minima (``mode="min"``) or maxima of a dense matrix.

    ``+inf`` entries are a staircase's infinite region; a row with no
    finite entry has witness ``-1``, as the library reports it.
    """
    cols = dense.argmin(axis=1) if mode == "min" else dense.argmax(axis=1)
    vals = dense[np.arange(dense.shape[0]), cols]
    return vals, np.where(np.isinf(vals), -1, cols)


def oracle_staircase_min(a):
    """Row minima of a staircase array with the infinite region set to inf."""
    base = a.base.data
    finite = np.arange(base.shape[1])[None, :] < a.boundary[:, None]
    return oracle_rows(np.where(finite, base, np.inf), "min")


def oracle_tube_min(c):
    """Brute-force tube minima: ``min_j d[i,j] + e[j,k]`` with the smallest ``j``."""
    cube = c.D.data[:, :, None] + c.E.data[None, :, :]
    args = cube.argmin(axis=1)
    return np.take_along_axis(cube, args[:, None, :], axis=1)[:, 0, :], args


def oracle_submatrix_max(dense: np.ndarray, rect):
    """Column-major first maximum of a rectangle: leftmost column, then topmost row."""
    (r0, r1), (c0, c1) = rect
    sub = dense[r0:r1, c0:c1]
    col, row = divmod(int(np.argmax(sub.T)), sub.shape[0])
    return np.float64(sub[row, col]), np.array([r0 + row, c0 + col], dtype=np.int64)


def oracle_request(problem: str, data):
    if problem == "rowmin":
        return oracle_rows(data.data, "min")
    if problem == "rowmax":
        return oracle_rows(data.data, "max")
    if problem == "staircase_min":
        return oracle_staircase_min(data)
    if problem == "tube_min":
        return oracle_tube_min(data)
    raise ValueError(f"no oracle for {problem!r}")


def digest(snapshot) -> str:
    """A short stable digest of one ledger snapshot (``None`` included)."""
    text = json.dumps(snapshot, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# --------------------------------------------------------------------- #
# closed-loop workloads
# --------------------------------------------------------------------- #
class Workload:
    """One closed-loop client sending ``run(rid_of(k))`` back to back."""

    name = ""
    open_loop = False
    #: distinct requests the ops cycle over
    n_requests = 0
    #: ops per second of the timed phase on the code the benchmark was
    #: written against, in reference-host time (see child.py); sets the
    #: fixed op count, so every commit does the same work
    ops_per_second = 0.0

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)

    def rid_of(self, k: int) -> int:
        return k % self.n_requests

    def op_count(self, seconds: float) -> int:
        """Ops of a timed phase meant to last ``seconds``, in whole
        request cycles so every run sends the same mix."""
        cycles = max(1, round(self.ops_per_second * seconds / self.n_requests))
        return cycles * self.n_requests

    def connect(self) -> None:
        """Construct the session the operations run on (counted as set-up)."""
        raise NotImplementedError

    def run(self, rid: int) -> list:
        """Send request ``rid``; return its engine results."""
        raise NotImplementedError

    def expected(self, rid: int) -> List[Tuple[np.ndarray, np.ndarray]]:
        raise NotImplementedError


class SolveSmall(Workload):
    """``Session("pram-crcw").solve`` over 1,024 instances cycling rowmin
    n=64, rowmax n=128, staircase_min n=128 and tube_min n=16.  The
    work of rowmax and staircase solves depends on the data, and p99
    falls on the slowest few percent of instances; 256 instances of each
    kind keep a seed's numbers close to another's."""

    name = "solve_small"
    ops_per_second = 650.0
    n_requests = 1024

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.requests = []
        for i in range(self.n_requests):
            kind = i % 4
            if kind == 0:
                self.requests.append(("rowmin", random_monge(64, 64, self.rng)))
            elif kind == 1:
                self.requests.append(("rowmax", random_monge(128, 128, self.rng)))
            elif kind == 2:
                self.requests.append(
                    ("staircase_min", random_staircase_monge(128, 128, self.rng))
                )
            else:
                self.requests.append(("tube_min", random_composite(16, 16, 16, self.rng)))

    def connect(self) -> None:
        self.session = Session("pram-crcw")

    def run(self, rid: int) -> list:
        problem, data = self.requests[rid]
        return [self.session.solve(problem, data)]

    def expected(self, rid: int):
        return [oracle_request(*self.requests[rid])]


class BatchFused(Workload):
    """``Session.solve_many`` on 4 arrays at n=512; calls alternate
    rowmin/rowmax over 2 batches."""

    name = "batch_fused"
    ops_per_second = 270.0
    n_requests = 4  # 2 batches x (rowmin, rowmax)

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.batches = [[random_monge(512, 512, self.rng) for _ in range(4)] for _ in range(2)]

    def _request(self, rid: int):
        return ("rowmin", "rowmax")[rid % 2], self.batches[rid // 2]

    def connect(self) -> None:
        self.session = Session("pram-crcw")

    def run(self, rid: int) -> list:
        problem, arrays = self._request(rid)
        return self.session.solve_many(problem, arrays).results

    def expected(self, rid: int):
        problem, arrays = self._request(rid)
        return [oracle_request(problem, a) for a in arrays]


class SeqSmawk(Workload):
    """``Session("sequential").solve`` on 256 arrays at n=80, rowmin and
    rowmax in a 1:3 ratio so the median stays inside the rowmax mode.
    SMAWK's evaluation count depends on the data; 256 arrays keep a
    seed's numbers close to another's."""

    name = "seq_smawk"
    ops_per_second = 166.0
    n_requests = 256

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.arrays = [random_monge(80, 80, self.rng) for _ in range(self.n_requests)]

    def _problem(self, rid: int) -> str:
        return "rowmin" if rid % 4 == 0 else "rowmax"

    def connect(self) -> None:
        self.session = Session("sequential")

    def run(self, rid: int) -> list:
        return [self.session.solve(self._problem(rid), self.arrays[rid])]

    def expected(self, rid: int):
        return [oracle_request(self._problem(rid), self.arrays[rid])]


class IndexMixed(Workload):
    """``session.prepare(a).query(rect)``: 12 arrays at n=256 visited in
    a cycle, 32 rectangles per visit, with the default index LRU of 8."""

    name = "index_mixed"
    ops_per_second = 9600.0
    ARRAYS = 12
    RECTS = 32
    n_requests = ARRAYS * RECTS

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        n = 256
        self.arrays = [random_monge(n, n, self.rng) for _ in range(self.ARRAYS)]
        self.rects = []
        for _ in range(self.ARRAYS * self.RECTS):
            r0 = int(self.rng.integers(0, n))
            r1 = int(self.rng.integers(r0 + 1, n + 1))
            c0 = int(self.rng.integers(0, n))
            c1 = int(self.rng.integers(c0 + 1, n + 1))
            self.rects.append(((r0, r1), (c0, c1)))

    def rid_of(self, k: int) -> int:
        # one visit sends RECTS consecutive queries to one array; the 12
        # arrays exceed the LRU's 8 handles, so every visit rebuilds
        visit = k // self.RECTS
        return (visit % self.ARRAYS) * self.RECTS + k % self.RECTS

    def connect(self) -> None:
        self.session = Session("pram-crcw")

    def run(self, rid: int) -> list:
        rows, cols = self.rects[rid]
        handle = self.session.prepare(self.arrays[rid // self.RECTS])
        return [handle.query(rows, cols)]

    def expected(self, rid: int):
        return [oracle_submatrix_max(self.arrays[rid // self.RECTS].data, self.rects[rid])]


# --------------------------------------------------------------------- #
# open-loop workload
# --------------------------------------------------------------------- #
class ServeOpen(Workload):
    """A ``QueryService`` with the default policy and worker thread;
    seeded Poisson arrivals at 150 req/s alternate rowmin/rowmax over 64
    arrays at n=256.

    The latency is wall time, not adjusted for host speed, so the rate
    keeps the executor busy only about 30% of the time and p99 mostly
    the fusion window: at 300 req/s (45% busy) a host slowed by other
    tenants pushed p99 from 37 ms to 40-70 ms, as buckets queued for the
    executor."""

    name = "serve_open"
    open_loop = True
    RATE = 150.0
    n_requests = 64

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.arrays = [random_monge(256, 256, self.rng) for _ in range(self.n_requests)]
        self.arrival_rng_seed = (seed, 1)

    def _problem(self, rid: int) -> str:
        return "rowmin" if rid % 2 == 0 else "rowmax"

    def schedule(self, seconds: float) -> np.ndarray:
        """Seeded Poisson arrival offsets (seconds) of ``RATE * seconds``
        requests, the first at 0."""
        rng = np.random.default_rng(self.arrival_rng_seed)
        gaps = rng.exponential(1.0 / self.RATE, size=max(1, round(self.RATE * seconds)))
        return np.cumsum(gaps) - gaps[0]

    def connect(self) -> None:
        self.session = Session("pram-crcw")

    def run(self, rid: int) -> list:
        """A direct solve: the reference every served answer must equal."""
        return [self.session.solve(self._problem(rid), self.arrays[rid])]

    def expected(self, rid: int):
        return [oracle_request(self._problem(rid), self.arrays[rid])]

    async def serve(self, due, on_issue=None):
        """Send request ``k`` at ``start + due[k]`` to a service with the
        default policy; returns, per request, ``(rid, results, error,
        due_time, issued_time, end_time)``.

        A refused or failed request (``ServiceOverloadedError``,
        ``RequestExpiredError`` or an engine error) has ``results`` set
        to ``None`` and does not stop the run.
        """
        out: list = [None] * len(due)
        loop = asyncio.get_running_loop()

        async def one(k: int, svc: QueryService, due_at: float) -> None:
            issued = time.perf_counter()
            if on_issue is not None:
                on_issue(k)
            rid = self.rid_of(k)
            results, error = None, None
            try:
                results = [await svc.solve(self._problem(rid), self.arrays[rid])]
            except Exception as exc:  # counted as a failed request
                error = f"{type(exc).__name__}: {exc}"
            out[k] = (rid, results, error, due_at, issued, time.perf_counter())

        async with QueryService("pram-crcw") as svc:
            tasks = []
            start = time.perf_counter()
            for k, offset in enumerate(due):
                due_at = start + float(offset)
                delay = due_at - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                tasks.append(loop.create_task(one(k, svc, due_at)))
            await asyncio.gather(*tasks)
        return out


WORKLOADS = {cls.name: cls for cls in (SolveSmall, BatchFused, ServeOpen, SeqSmawk, IndexMixed)}


def make(name: str, seed: int) -> Workload:
    try:
        return WORKLOADS[name](seed)
    except KeyError:
        raise ValueError(f"unknown workload {name!r}; expected one of {sorted(WORKLOADS)}") from None
