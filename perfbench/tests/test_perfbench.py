"""The benchmark's own tests, at reduced sizes.

    PYTHONPATH=src:. python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading

import pytest

from parpath import core, mc
from perfbench import layers, workloads
from perfbench.spans import Tracer, self_times
from perfbench.worker import DigestGate, Loop

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)


def _run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, RUN, *args], cwd=cwd, text=True,
                          capture_output=True, timeout=170)
    return proc


@pytest.mark.parametrize("name", [w["name"] for w in BENCH["workloads"]])
def test_every_end_to_end_metric_is_emitted_with_its_unit(name):
    proc = _run("--workload", name, "--seed", "3", "--seconds", "1",
                "--trace", "0", "--small")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for metric, unit in expected.items():
        assert f"{metric} = " in proc.stdout and unit in proc.stdout
    assert "error_rate = 0 " in proc.stdout


def test_every_per_layer_metric_is_emitted_with_its_unit():
    proc = _run("--workload", "pathwise", "--seed", "3", "--seconds", "1",
                "--trace", "1", "--small")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected
    assert result["metrics"]["trace.coverage"]["value"] >= 0.9


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "tail_rough", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, text=True,
                          capture_output=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_forced_digest_mismatch_counts_as_failed_operation(tmp_path):
    workload = workloads.Pathwise(3, str(tmp_path), 1, small=True)
    loop = Loop(workload, DigestGate({"0/lift": "0" * 64}))
    loop.run_round(0)
    # The pinned lift digest is wrong: lift fails and the round stops,
    # since verify would read that lift's output.
    assert (loop.attempted, loop.failed) == (1, 1)
    assert "pinned" in loop.errors[0]

    loop = Loop(workload, DigestGate({}))
    loop.run_round(1)
    assert (loop.attempted, loop.failed) == (5, 0)
    loop.gate.first["1/smile"] = "f" * 64  # an earlier repeat that differs
    loop.run_round(1)
    assert (loop.attempted, loop.failed) == (10, 1)
    assert "first repeat" in loop.errors[0]


def test_spans_nest_across_two_worker_threads():
    grid = core.Grid(T=1.0, N=64)
    barrier = threading.Barrier(2, timeout=30)

    def worker(cid, count):
        barrier.wait()  # both chunks in flight at once, on two threads
        return mc._draw_increments(7, cid, count, grid, -0.7)

    original = mc._dispatch
    tracer = Tracer()
    layers.install(tracer)
    try:
        with tracer.span("root") as root:
            mc._dispatch(worker, [(0, 8), (1, 8)], 2)
    finally:
        tracer.restore()
    assert mc._dispatch is original  # patches undone
    spans = {sp.id: sp for sp in tracer.take()}
    chunks = [sp for sp in spans.values() if sp.name == layers.CHUNK]
    draws = [sp for sp in spans.values() if sp.name == "mc.draw"]
    assert len(chunks) == 2 and len(draws) == 2
    assert len({sp.thread for sp in chunks}) == 2
    assert all(sp.parent == root.id for sp in chunks)
    assert root.thread not in {sp.thread for sp in chunks}
    for sp in draws:
        parent = spans[sp.parent]
        assert parent.name == layers.CHUNK and parent.thread == sp.thread
        assert parent.start <= sp.start <= sp.end <= parent.end
    # The two chunks overlap in time, so the root's self time is its
    # interval minus their union, never negative.
    selfs = self_times(list(spans.values()))
    assert 0.0 <= selfs[root.id] < root.duration
    lo = min(sp.start for sp in chunks)
    hi = max(sp.end for sp in chunks)
    assert selfs[root.id] == pytest.approx(root.duration - (hi - lo))


def test_missing_binding_is_reported_absent_not_zero(monkeypatch):
    monkeypatch.delattr(mc, "_levels_batch")
    tracer = Tracer()
    layers.install(tracer)
    tracer.restore()
    metrics = layers.layer_metrics(tracer, [], units=1, threads=1,
                                   overhead=1.0)
    assert metrics["mc.levels_s"] == (None, "s")
    assert metrics["mc.draw_s"] == (0.0, "s")
