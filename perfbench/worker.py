"""One workload in one process: the timed loop, or the traced run.

Started by ``perfbench/run.py`` with BLAS and OpenMP pinned to one
thread; prints human-readable lines, then one JSON object as its last
line.  ``--setup-only`` imports ``parpath.cli``, builds the workload's
inputs and exits, which is what ``setup_s`` times.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

import numpy as np
import scipy

import parpath

from perfbench import layers, workloads
from perfbench.run import cpuinfo
from perfbench.spans import Tracer, decile

PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")
# The p90 of command latency needs ten samples beyond it.
MIN_COMMANDS = {"pathwise": 100}
# Stop starting operations after this long, whatever the minimum count,
# so that a slowed-down program still finishes inside the time limit.
MAX_WALL_S = 120.0


def platform_key() -> dict:
    """What pinned digests depend on besides the code and the seed.

    Float results can change with the numpy/scipy build and with the
    SIMD paths the CPU offers, so digests are compared only where all
    of these match the platform the pins were taken on.
    """
    return {"python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "machine": platform.machine(), "cpu": cpuinfo("model name"),
            "cpu_flags": workloads.digest(
                " ".join(sorted(cpuinfo("flags").split())))}


def load_pins(name: str, seed: int):
    """Pinned digests for (workload, seed), and a line saying which apply."""
    try:
        with open(PINS, encoding="utf-8") as fh:
            pins = json.load(fh)
    except FileNotFoundError:
        return {}, "digest gate: no pins file; repeat-consistency only"
    if pins.get("platform") != platform_key():
        return {}, ("digest gate: pins were taken on another platform; "
                    "self-checks, oracle and repeat-consistency only")
    pinned = pins.get("workloads", {}).get(name, {}).get(str(seed))
    if not pinned:
        return {}, (f"digest gate: seed {seed} has no pinned digests; "
                    "self-checks, oracle and repeat-consistency only")
    return pinned, f"digest gate: pinned digests for seed {seed}"


class DigestGate:
    """Every digest must match its pin, if any, and every earlier repeat."""

    def __init__(self, pinned: dict):
        self.pinned = pinned
        self.first = {}

    def check(self, key: str, value: str):
        """Return None, or why ``value`` is wrong for ``key``."""
        pin = self.pinned.get(key)
        if pin is not None and value != pin:
            return f"{key}: digest {value[:16]} != pinned {pin[:16]}"
        first = self.first.setdefault(key, value)
        if value != first:
            return f"{key}: digest {value[:16]} != first repeat {first[:16]}"
        return None


class Loop:
    """Closed loop over a workload's rounds, counting what fails."""

    def __init__(self, workload, gate: DigestGate, tracer=None):
        self.workload = workload
        self.gate = gate
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.latencies = []
        self.by_span = {}  # span -> [(wall, cpu)] of each call that returned
        self.errors = []

    def run_round(self, index: int, traced: bool = False) -> float:
        """Run one round; return its wall time."""
        started = time.perf_counter()
        for step in self.workload.round(index):
            span = (self.tracer.span(step.span) if traced
                    else contextlib.nullcontext())
            self.attempted += 1
            t0, cpu0 = time.perf_counter(), _cpu_seconds()
            try:
                with span:
                    result = step.call()
                latency = time.perf_counter() - t0
                self.latencies.append(latency)
                self.by_span.setdefault(step.span, []).append(
                    (latency, _cpu_seconds() - cpu0))
                problem = self.gate.check(step.key, step.check(result))
            except Exception as exc:  # any failure is counted, not fatal
                problem = f"{step.span}: {type(exc).__name__}: {exc}"
                traceback.print_exc(file=sys.stderr)
            if problem is not None:
                self.failed += 1
                self.errors.append(problem)
                print(f"# FAILED {problem}", file=sys.stderr)
                break  # later commands of the round read this one's output
        return time.perf_counter() - started


def _cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _round_fits(t0: float, walls: list, seconds: float) -> bool:
    """Whether a round started now should end within ``seconds`` of ``t0``.

    The next round is taken to last as long as the median round so far,
    so a run lasts about ``seconds`` however long one operation takes,
    on a slower host too, instead of overrunning by up to one round.
    """
    ahead = statistics.median(walls) if walls else 0.0
    return time.perf_counter() - t0 + ahead <= seconds


def timed_run(loop: Loop, seconds: float, min_commands: int) -> dict:
    """End-to-end metrics of a closed loop that runs about ``seconds``.

    Rates and CPU come from a typical round: each operation of a round
    (one ``mc`` call, or one of the five CLI commands) is taken at its
    median wall and CPU time over the run, and a round's time is their
    sum.  A burst of contention from other tenants of the host then
    moves a few samples of one operation, not the run's figure, and the
    benchmark's own output checks, which run between calls, are left out.
    """
    walls = []
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < MAX_WALL_S and (
            _round_fits(t0, walls, seconds) or loop.attempted < min_commands):
        walls.append(loop.run_round(len(walls)))
    lat = loop.latencies or [0.0]
    if len(lat) < 100:
        print(f"# note: {len(lat)} operation latencies; cmd_p90_s has fewer "
              "than ten samples beyond it")
        print("# latencies_s " + " ".join(f"{v:.3f}" for v in lat))
    steps = loop.workload.round(0)
    wall = cpu = 0.0
    for step in steps:
        samples = loop.by_span.get(step.span, [(0.0, 0.0)])
        wall += statistics.median(w for w, _ in samples)
        cpu += statistics.median(c for _, c in samples)
    paths = sum(step.paths for step in steps)
    return {
        "paths_per_s": (paths / wall if wall else 0.0, "paths/s"),
        "cmds_per_s": (len(steps) / wall if wall else 0.0, "1/s"),
        "cmd_p50_s": (decile(lat, 5), "s"),
        "cmd_p90_s": (decile(lat, 9), "s"),
        "cpu_s": (cpu / len(steps), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def traced_run(loop: Loop, tracer: Tracer, seconds: float,
               threads: int) -> dict:
    """Per-layer metrics; rounds alternate untraced and traced.

    The untraced rounds give the reference wall time for
    ``trace_overhead``; only the traced rounds' spans are reported.
    """
    index = 0
    walls = {False: [], True: []}
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < MAX_WALL_S and (
            _round_fits(t0, walls[False] + walls[True], seconds)
            or not walls[True]):
        traced = index % 2 == 1
        if traced:
            layers.install(tracer)
        try:
            walls[traced].append(loop.run_round(index, traced=traced))
        finally:
            tracer.restore()
        index += 1
    spans = tracer.take()
    untraced = statistics.median(walls[False]) if walls[False] else 0.0
    overhead = statistics.median(walls[True]) / untraced if untraced else 0.0
    return layers.layer_metrics(tracer, spans, len(walls[True]), threads,
                                overhead)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--small", action="store_true",
                        help="reduced sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    src = os.path.join(os.path.dirname(os.path.dirname(PINS)), "src")
    if not os.path.abspath(parpath.__file__).startswith(src + os.sep):
        print(f"perfbench: parpath imported from {parpath.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    threads = min(workloads.THREADS[args.workload], nproc)
    work_dir = tempfile.mkdtemp(prefix=".perfbench-work-", dir=os.getcwd())
    try:
        workload = workloads.WORKLOADS[args.workload](
            args.seed, work_dir, threads, small=args.small)
        if args.setup_only:
            return 0
        pinned, gate_note = load_pins(args.workload, args.seed)
        if args.small:
            pinned, gate_note = {}, "digest gate: reduced sizes; repeat-consistency only"
        print(f"# workload {args.workload} seed {args.seed} threads {threads} "
              f"trace {args.trace} seconds {args.seconds:g}")
        print(f"# env python {platform.python_version()} numpy {np.__version__} "
              f"scipy {scipy.__version__}")
        print(f"# {gate_note}")
        tracer = Tracer() if args.trace else None
        loop = Loop(workload, DigestGate(pinned), tracer)
        workload.warmup()
        if args.trace:
            metrics = traced_run(loop, tracer, args.seconds, threads)
        else:
            min_commands = 1 if args.small else MIN_COMMANDS.get(args.workload, 1)
            metrics = timed_run(loop, args.seconds, min_commands)
        if isinstance(workload, workloads.PriceLognormal):
            print(f"# lognormal oracle: max |iv - 0.2| = "
                  f"{workload.max_deviation:.3f} standard errors "
                  f"(limit {workload.MAX_SE:g})")
        result = {
            "correct": loop.failed == 0 and loop.attempted > 0,
            "attempted": loop.attempted,
            "failed": loop.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
