"""One benchmark workload in a fresh interpreter; ``run.py`` spawns it.

    python child.py setup   WORKLOAD SEED
    python child.py measure WORKLOAD SEED SECONDS TRACE [SPANS_PATH]

Each prints one JSON object as the last line of stdout.

``setup`` times what a new user pays before the first answer: importing
the library, constructing the session (or service) and the first op.
Making the inputs is not timed.

``measure`` makes the inputs, computes every expected answer with a
dense NumPy oracle, sends each distinct request once to record its
reference ledger snapshot, then runs the timed phase: a fixed number of
ops, sized so that it lasts about SECONDS on the code the benchmark was
written against, so two commits always do the same work.  Every answer
is checked against the oracle and every snapshot against the reference.
With TRACE=1 it then repeats the first fifth of the ops with the layer
wrappers of ``spans.py`` installed.

Host speed.  On a shared virtual machine other tenants slow every
instruction by 40-60% in stretches from a fraction of a second to
minutes, so a whole run can read that much slow.  Between ops, outside
their timing, the harness times a fixed piece of pure-Python work that
never touches the library (``probe_host``).  Each op's time and the
set-up time are reported as measured, times the probe's reference time
over the median of the last few probes: the time the op would have
taken on the reference host running alone.  A change to the library
moves that time exactly as it moves the wall time; most of the host's
slowdown cancels.  The unadjusted numbers are printed as context.
"""

from __future__ import annotations

import asyncio
import collections
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
SNAPSHOTS = Path(__file__).resolve().parent / "snapshots_seed0.json"

#: Share of the timed ops the traced phase repeats.
TRACE_SHARE = 0.2
#: At most this many mismatch messages are kept for the report.
MAX_MESSAGES = 20
#: ``probe_host`` between ops on the reference host (2-vCPU Xeon VM,
#: Python 3.11) when no other tenant slowed it: adjusted times are in
#: that host's time.
REFERENCE_PROBE_S = 220e-6
#: A closed loop probes the host before an op once this long has passed
#: since the last probe, which adds about 5% to the phase's wall time.
PROBE_EVERY_S = 0.005
#: Host speed is the median of this many latest probes, so that one
#: interrupted probe does not rescale an op; the host's stretches last
#: far longer than this many probes take.
PROBE_WINDOW = 5
#: Probes before and after the set-up child's timed part.
SETUP_PROBES = 5


class _Cell:
    __slots__ = ("key", "items")

    def __init__(self, key, items) -> None:
        self.key = key
        self.items = items


def probe_host() -> float:
    """Time a fixed piece of interpreter work: integer arithmetic, then
    small objects, lists and a dict.  When other tenants slow the host
    it slows about as much as the workloads' ops (README.md, *Host
    speed*); a NumPy probe would instead read the cache traffic of the
    library's own large arrays.  Returns seconds."""
    t0 = time.perf_counter()
    s = 0
    for i in range(2000):
        s += i * i % 7
    cells = {}
    for i in range(300):
        cell = _Cell(i, [i, s])
        cells[i % 37] = cell
        cell.items.append(len(cells))
    return time.perf_counter() - t0


def import_workloads():
    """Import the library from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import workloads
    import repro

    where = Path(repro.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"repro was imported from {where}, not from {SRC}")
    return workloads


def maxrss_mb() -> float:
    """Peak resident memory of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rss_mb() -> float:
    """Resident memory of this process now."""
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * resource.getpagesize() / 2**20


def quantile(ascending, q: float) -> float:
    """Nearest-rank quantile of an ascending list (0.0 when empty)."""
    if not ascending:
        return 0.0
    return ascending[max(1, math.ceil(q * len(ascending))) - 1]


# --------------------------------------------------------------------- #
# answer and snapshot checks
# --------------------------------------------------------------------- #
class Checker:
    """Compares every answer with the oracle and every ledger snapshot
    with the reference recorded for the same request."""

    def __init__(self, name: str, expected: dict, pinned) -> None:
        import numpy

        self.array_equal = numpy.array_equal
        self.name = name
        self.expected = expected
        self.pinned = pinned
        self.reference = {}
        self.mismatches = 0
        self.messages = []

    def fail(self, rid, q, field: str, detail: str = "") -> None:
        self.mismatches += 1
        if len(self.messages) < MAX_MESSAGES:
            self.messages.append(f"{self.name} instance {rid}[{q}] field {field}"
                                 + (f": {detail}" if detail else ""))

    def _answers(self, rid, results) -> None:
        expected = self.expected[rid]
        if len(results) != len(expected):
            self.fail(rid, "*", "count", f"{len(results)} results, expected {len(expected)}")
            return
        for q, (result, (values, witnesses)) in enumerate(zip(results, expected)):
            if not self.array_equal(result.values, values):
                self.fail(rid, q, "values")
            if not self.array_equal(result.witnesses, witnesses):
                self.fail(rid, q, "witnesses")

    def record_reference(self, rid, results, digest) -> list:
        """First solve of a request: check it, keep its snapshots, and
        return their digests (compared with the pinned ones for seed 0)."""
        self._answers(rid, results)
        self.reference[rid] = [r.snapshot for r in results]
        digests = [digest(s) for s in self.reference[rid]]
        if self.pinned is not None:
            pinned = self.pinned.get(str(rid), [])
            if pinned != digests:
                self.fail(rid, "*", "snapshot", f"digests {digests}, pinned {pinned}")
        return digests

    def check(self, rid, results) -> None:
        self._answers(rid, results)
        for q, (result, ref) in enumerate(zip(results, self.reference[rid])):
            if result.snapshot != ref:
                self.fail(rid, q, "snapshot", "differs from the reference solve")


# --------------------------------------------------------------------- #
# phases
# --------------------------------------------------------------------- #
def _rounds(results) -> int:
    return sum(r.snapshot["rounds"] for r in results if r.snapshot is not None)


def closed_phase(w, checker, count: int, recorder=None) -> dict:
    """Send ``count`` ops back to back.

    An op is due the moment the previous one returned, so ``lag`` is
    the time the harness spent between ops (answer checks; the host
    probe excluded).  ``lat`` holds every op's time, failed ones
    included; ``ok`` says which succeeded; ``scale`` turns each op's
    time into reference-host time (see the module docstring).
    """
    perf = time.perf_counter
    lat, ok, scale, execs, lag, widths, failures = [], [], [], [], [], [], []
    rounds = 0
    recent = collections.deque((probe_host() for _ in range(PROBE_WINDOW)),
                               maxlen=PROBE_WINDOW)
    probes = list(recent)
    probed_at = start = prev_end = perf()
    for k in range(count):
        rid = w.rid_of(k)
        probe = 0.0
        if perf() - probed_at >= PROBE_EVERY_S:
            probe = probe_host()
            recent.append(probe)
            probes.append(probe)
            probed_at = perf()
        token = recorder.begin_op(k) if recorder is not None else None
        t0 = perf()
        try:
            results = w.run(rid)
        except Exception as exc:  # a failed op is counted, not fatal
            results = None
            failures.append(f"op {k}: {type(exc).__name__}: {exc}")
        t1 = perf()
        if recorder is not None:
            execs.append(recorder.end_op(token))
        lag.append(t0 - prev_end - probe)
        prev_end = t1
        lat.append(t1 - t0)
        ok.append(results is not None)
        scale.append(REFERENCE_PROBE_S / statistics.median(recent))
        if results is not None:
            widths.append(len(results))
            rounds += _rounds(results)
            checker.check(rid, results)
    return {"attempted": count, "failures": failures, "lat": lat, "ok": ok,
            "scale": scale, "probes": probes, "execs": execs, "lag": lag,
            "widths": widths, "rounds": rounds, "elapsed": perf() - start}


def adjusted(phase: dict) -> list:
    """The phase's op times in reference-host time.  The service's
    latency is mostly a fixed wait in its fusion window, which a faster
    host does not shorten, so the open loop's stays as measured."""
    if "scale" not in phase:
        return phase["lat"]
    return [t * s for t, s in zip(phase["lat"], phase["scale"])]


def open_phase(w, checker, due, recorder=None) -> dict:
    """Send requests to a live service on the arrival schedule ``due``.

    Latency runs from each request's due time, for refused and failed
    requests too; ``lag`` is how late the generator issued it.
    """
    on_issue = recorder.tag_request if recorder is not None else None
    out = asyncio.run(w.serve(due, on_issue))
    lat, ok, lag, failures, rounds = [], [], [], [], 0
    first_due, last_end = math.inf, -math.inf
    for k, (rid, results, error, due_at, issued, end) in enumerate(out):
        lag.append(issued - due_at)
        first_due = min(first_due, due_at)
        last_end = max(last_end, end)
        lat.append(end - due_at)
        ok.append(results is not None)
        if results is None:
            failures.append(f"request {k}: {error}")
            continue
        rounds += _rounds(results)
        checker.check(rid, results)
    return {"attempted": len(out), "failures": failures, "lat": lat, "ok": ok,
            "lag": lag, "rounds": rounds, "out": out,
            "elapsed": max(last_end - first_due, 1e-9)}


# --------------------------------------------------------------------- #
# metrics
# --------------------------------------------------------------------- #
def end_to_end(w, phase: dict, lat: list) -> dict:
    """Throughput, latency quantiles and success rate of the timed phase
    from its op times ``lat`` (as measured, or ``adjusted``).

    Closed-loop throughput is completed ops over the summed op time, so
    the answer checks between ops are not counted; the service's is
    completed requests over the time from the first due time to the last
    answer.  A failed or refused op counts as missing any latency limit:
    it ranks above every completed op, and a quantile that lands on one
    reads as the whole phase, longer than any op can take.
    """
    ok = phase["ok"]
    completed = sum(ok)
    ranked = sorted(t if good else math.inf for t, good in zip(lat, ok))

    def ms(q):
        return 1e3 * min(quantile(ranked, q), phase["elapsed"])

    busy = phase["elapsed"] if w.open_loop else sum(lat)
    return {
        "throughput_ops_s": completed / busy,
        "latency_p50_ms": ms(0.50),
        "latency_p99_ms": ms(0.99),
        "success_rate": completed / len(lat),
    }


def _service_execs(w, traced, recorder):
    """Per served request: wall time and width of the ``run_plans`` call
    that answered it, matched through the plan index (the service numbers
    requests in submission order) and checked against the request's array."""
    by_tag = {}
    for tags, datas, t0, t1 in recorder.exec_calls:
        for tag, data in zip(tags, datas):
            by_tag[tag] = (t1 - t0, data)
    execs, waits = [], []
    for k, (rid, results, _, due_at, _, end) in enumerate(traced["out"]):
        hit = by_tag.get(k)
        if results is None or hit is None or hit[1] is not w.arrays[rid]:
            continue
        execs.append(hit[0])
        waits.append(end - due_at - hit[0])
    busy = sum(t1 - t0 for _, _, t0, t1 in recorder.exec_calls)
    width = (sum(len(tags) for tags, _, _, _ in recorder.exec_calls)
             / max(len(recorder.exec_calls), 1))
    return execs, sum(waits), busy, width


def per_layer(w, timed, traced, recorder, counters_before, counters_after) -> dict:
    """Per-layer metrics of the traced phase (README.md defines each)."""
    from spans import LAYERS

    totals = recorder.totals()
    self_s, layer_calls, calls = totals["self_s"], totals["layer_calls"], totals["calls"]
    lat = traced["lat"]
    n_ops = max(len(lat), 1)
    op_time = max(sum(lat), 1e-12)

    if w.open_loop:
        execs, wait_s, busy, width = _service_execs(w, traced, recorder)
    else:
        # no service: the op's engine calls are its execution, and the
        # time outside them is the harness's own, left unattributed
        execs, wait_s = traced["execs"], 0.0
        busy = sum(execs)
        width = sum(traced["widths"]) / max(len(traced["widths"]), 1)
    attributed = sum(self_s.get(layer, 0.0) for layer in LAYERS) + wait_s
    execs = sorted(execs)

    def delta(name):
        return counters_after.get(name, 0) - counters_before.get(name, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    def ms_per_op(layer):
        return 1e3 * self_s.get(layer, 0.0) / n_ops

    def share(layer):
        return self_s.get(layer, 0.0) / op_time

    # trace overhead: the same ops, traced against untraced, both in
    # reference-host time because they ran seconds apart
    traced_time = sum(adjusted(traced))
    untraced = sum(adjusted(timed)[:len(lat)])
    return {
        "engine.self_ms_per_op": ms_per_op("engine"),
        "engine.share": share("engine"),
        "engine.fused_query_share": ratio(delta("engine.batch.fused_queries"),
                                          delta("engine.batch.queries")),
        "engine.index_lru_hit_rate": ratio(delta("index.lru.hits"),
                                           delta("index.lru.hits") + delta("index.lru.misses")),
        "core.self_ms_per_op": ms_per_op("core"),
        "core.share": share("core"),
        "core.calls_per_op": layer_calls.get("core", 0) / n_ops,
        "kernels.share": share("kernels"),
        "kernels.calls_per_op": layer_calls.get("kernels", 0) / n_ops,
        "kernels.evals_per_op": totals["evals"] / n_ops,
        "kernels.evals_per_s": ratio(totals["evals"], self_s.get("kernels", 0.0)),
        "pram.share": share("pram"),
        "pram.charge_calls_per_op": calls.get("CostLedger.charge", 0) / n_ops,
        "pram.rounds_per_op": traced["rounds"] / n_ops,
        "monge.self_ms_per_op": ms_per_op("monge"),
        "monge.share": share("monge"),
        "monge.eval_calls_per_op": calls.get("SearchArray.eval", 0) / n_ops,
        "monge.index_builds_per_op": calls.get("MongeIndex.build", 0) / n_ops,
        "obs.self_ms_per_op": ms_per_op("obs"),
        "obs.share": share("obs"),
        "obs.calls_per_op": layer_calls.get("obs", 0) / n_ops,
        "serve.wait_share": wait_s / op_time,
        "serve.exec_ms_p50": 1e3 * quantile(execs, 0.50),
        "serve.exec_ms_p99": 1e3 * quantile(execs, 0.99),
        "serve.executor_busy_share": busy / traced["elapsed"],
        "serve.fusion_width_mean": width,
        "harness.trace_overhead_pct": 100.0 * (traced_time / untraced - 1.0) if untraced else 0.0,
        "harness.unattributed_share": (op_time - attributed) / op_time,
        "harness.gen_lag_p99_ms": 1e3 * quantile(sorted(traced["lag"]), 0.99),
    }


# --------------------------------------------------------------------- #
# entry points
# --------------------------------------------------------------------- #
def setup(name: str, seed: int) -> dict:
    probe_host()  # warm the probe's own code
    probes = [probe_host() for _ in range(SETUP_PROBES)]
    t0 = time.perf_counter()
    workloads = import_workloads()
    t1 = time.perf_counter()
    w = workloads.make(name, seed)
    t2 = time.perf_counter()
    if w.open_loop:
        asyncio.run(w.serve([0.0]))
    else:
        w.connect()
        w.run(w.rid_of(0))
    t3 = time.perf_counter()
    probes += [probe_host() for _ in range(SETUP_PROBES)]
    raw = (t1 - t0) + (t3 - t2)
    return {"setup_s": raw * REFERENCE_PROBE_S / statistics.median(probes),
            "raw_setup_s": raw}


def _pinned(name: str, seed: int):
    if seed != 0 or not SNAPSHOTS.exists():
        return None
    return json.loads(SNAPSHOTS.read_text()).get(name)


def measure(name: str, seed: int, seconds: float, trace: bool, spans_path) -> dict:
    workloads = import_workloads()
    w = workloads.make(name, seed)

    t0 = time.perf_counter()
    expected = {rid: w.expected(rid) for rid in range(w.n_requests)}
    floor_ms = 1e3 * (time.perf_counter() - t0) / w.n_requests
    # everything resident from here on is the library's (and the checks')
    base_mb = rss_mb()

    # one solve per distinct request: the reference snapshots (for the
    # service, direct Session.solve calls the served answers must equal)
    checker = Checker(name, expected, _pinned(name, seed))
    w.connect()
    digests = {rid: checker.record_reference(rid, w.run(rid), workloads.digest)
               for rid in range(w.n_requests)}

    if w.open_loop:
        due = w.schedule(seconds)
        timed = open_phase(w, checker, due)
    else:
        timed = closed_phase(w, checker, w.op_count(seconds))
    e2e = end_to_end(w, timed, adjusted(timed))
    e2e["mem_peak_mb"] = maxrss_mb() - base_mb
    context = {
        "latency_samples": len(timed["lat"]),
        "samples_beyond_p99": len(timed["lat"]) - math.ceil(0.99 * len(timed["lat"])),
        "timed_phase_s": timed["elapsed"],
        "numpy_floor_ms_per_op": floor_ms,
    }
    if "scale" in timed:
        raw = end_to_end(w, timed, timed["lat"])
        context.update({f"raw_{key}": raw[key] for key in
                        ("throughput_ops_s", "latency_p50_ms", "latency_p99_ms")})
        context["host_probe_us_p50"] = 1e6 * statistics.median(timed["probes"])
    out = {
        "workload": name,
        "seed": seed,
        "attempted": timed["attempted"],
        "failed": len(timed["failures"]),
        "end_to_end": e2e,
        "context": context,
        "digests": {str(rid): d for rid, d in digests.items()},
    }

    if trace:
        from repro.obs.metrics import metrics
        from spans import SpanRecorder

        recorder = SpanRecorder(keep=spans_path is not None)
        before = metrics().snapshot()["counters"]
        recorder.install()
        try:
            if w.open_loop:
                n = max(1, int(len(due) * TRACE_SHARE))
                traced = open_phase(w, checker, due[:n], recorder)
            else:
                n = max(1, int(timed["attempted"] * TRACE_SHARE))
                traced = closed_phase(w, checker, n, recorder)
        finally:
            recorder.uninstall()
        after = metrics().snapshot()["counters"]
        out["attempted"] += traced["attempted"]
        out["failed"] += len(traced["failures"])
        out["per_layer"] = per_layer(w, timed, traced, recorder, before, after)
        if spans_path is not None:
            out["context"]["spans_written"] = recorder.write_jsonl(spans_path, name)

    out["correct"] = checker.mismatches == 0
    out["mismatches"] = checker.messages
    out["failures"] = (timed["failures"] + (traced["failures"] if trace else []))[:MAX_MESSAGES]
    return out


def main(argv) -> int:
    role, name, seed = argv[1], argv[2], int(argv[3])
    if role == "setup":
        result = setup(name, seed)
    elif role == "measure":
        spans_path = argv[6] if len(argv) > 6 else None
        result = measure(name, seed, float(argv[4]), argv[5] == "1", spans_path)
    else:
        raise SystemExit(f"unknown role {role!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
