"""Smoke test of the end-to-end benchmark (``pytest benchmarks/e2e``).

Runs all five workloads for one second each, set-up and traced phase
included, and checks the printed metrics, the answers, the attribution
of traced time to layers and the span dump.  It takes about half a
minute, so it is not part of the tier-1 suite.  Quick tests pin how
failed ops count, in the latency quantiles and in ``compare.py``, and
which op times the host-speed adjustment rescales.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def _run(args, cwd, timeout):
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=timeout)


def test_quick_run_prints_every_metric_and_checks_answers(tmp_path):
    spans = tmp_path / "spans.jsonl"
    proc = _run(["benchmarks/e2e/run.py", "--seconds", "1", "--spans", str(spans)],
                ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0

    printed = {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) == 4:
            printed[(fields[0], fields[1])] = fields[3]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        for metric in spec["end_to_end"] + spec["per_layer"]:
            key = (workload["name"], metric["name"])
            assert printed.get(key) == metric["unit"], key
        unattributed = result["metrics"][f"{workload['name']}.harness.unattributed_share"]
        assert unattributed["value"] <= 0.05, workload["name"]

    ids, parents = set(), []
    with spans.open() as f:
        for line in f:
            span = json.loads(line)
            ids.add((span["workload"], span["id"]))
            if span["parent"] is not None:
                parents.append((span["workload"], span["parent"]))
    assert ids
    assert all(parent in ids for parent in parents)


def test_failed_ops_miss_every_latency_limit():
    sys.path.insert(0, str(HERE))
    import child

    phase = {"lat": [0.001, 0.002, 0.003, 0.004], "ok": [True, True, False, False],
             "elapsed": 2.0}
    closed = child.end_to_end(SimpleNamespace(open_loop=False), phase, phase["lat"])
    assert closed["success_rate"] == 0.5
    assert closed["throughput_ops_s"] == 2 / 0.010
    assert closed["latency_p99_ms"] == 2000.0  # a failure, read as the whole phase
    served = child.end_to_end(SimpleNamespace(open_loop=True), phase, phase["lat"])
    assert served["throughput_ops_s"] == 1.0


def test_host_speed_scales_closed_loop_times_only():
    sys.path.insert(0, str(HERE))
    import child

    served = {"lat": [0.002, 0.004]}
    assert child.adjusted(served) == served["lat"]
    closed = {"lat": [0.002, 0.004], "scale": [0.5, 1.0]}
    assert child.adjusted(closed) == [0.001, 0.004]
    assert child.probe_host() > 0.0


def _records(directory, workload, values, failed):
    directory.mkdir()
    for seed, value in enumerate(values):
        record = {"workload": workload, "seed": seed, "attempted": 100, "failed": failed,
                  "setup_runs_s": [value], "end_to_end": {"latency_p50_ms": value}}
        (directory / f"{workload}-seed{seed}-trace0.json").write_text(json.dumps(record))


def test_compare_counts_more_failures_as_worse(tmp_path, capsys):
    sys.path.insert(0, str(HERE))
    import compare

    parent = [1.0 + 0.01 * (seed % 3 - 1) for seed in range(10)]
    _records(tmp_path / "parent", "solve_small", parent, failed=0)
    _records(tmp_path / "same", "solve_small", parent[::-1], failed=0)
    _records(tmp_path / "faster_but_failing", "solve_small", [0.5] * 10, failed=1)
    assert compare.main([str(tmp_path / "parent"), str(tmp_path / "same")]) == 0
    assert "latency_p50_ms" in capsys.readouterr().out
    failing = [str(tmp_path / "parent"), str(tmp_path / "faster_but_failing")]
    assert compare.main(failing + ["--claim", "latency_p50_ms:solve_small"]) == 1
    out = capsys.readouterr().out
    assert "worse" in out and "claim latency_p50_ms on solve_small: NOT met" in out


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["benchmarks/e2e/run.py", "--workload", "solve_small", "--seconds", "1"],
                tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
