"""Benchmark entry point.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` the workload runs untraced for ``S``
seconds and the end-to-end metrics are reported, with ``setup_s``
measured first in fresh interpreters.  With ``--trace 1`` a separate
traced run reports the per-layer metrics.  Human-readable lines come
first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

This file uses the standard library only: it checks the checkout,
times set-up, and starts the workload process (``perfbench/worker.py``)
with a fixed environment.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("tail_rough", "price_lognormal", "pathwise")
# setup_s is the median of this many fresh interpreters.
SETUP_REPEATS = 3
# Every run must end within 180 s; leave room to report.
TIME_LIMIT_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), ROOT])
    # numpy's BLAS and OpenMP pools would run threads beside the MC
    # engine's own workers.  On a 2-vCPU VM, one pathwise run used 34.2 s
    # of CPU in 29.0 s of wall unpinned (0.30 s per command), and 25.5 s
    # in 25.5 s pinned (0.23 s per command).
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    env.pop("PARPATH_THREADS", None)  # thread counts come from the workload
    return env


def cpuinfo(field: str) -> str:
    """First value of ``field`` in /proc/cpuinfo, or an empty string."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(field):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return ""


def host_lines():
    """nproc, CPU model and cache sizes, recorded with every result."""
    cpu = cpuinfo("model name") or "unknown"
    caches = []
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            fields = {}
            for key in ("level", "type", "size"):
                with open(os.path.join(index, key), encoding="utf-8") as fh:
                    fields[key] = fh.read().strip()
        except OSError:
            continue
        kind = {"Data": "d", "Instruction": "i"}.get(fields["type"], "")
        caches.append(f"L{fields['level']}{kind} {fields['size']}")
    nproc = len(os.sched_getaffinity(0))
    return [f"# host nproc {nproc} cpu {cpu!r} caches {', '.join(caches)}",
            "# env OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1"]


def measure_setup(args, env, deadline: float) -> float:
    """Median wall time of fresh interpreters that import and build inputs."""
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "0",
           "--setup-only"] + (["--small"] if args.small else [])
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=env, check=True,
                       stdout=subprocess.DEVNULL,
                       timeout=max(1.0, deadline - time.monotonic()))
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    # On SIGTERM raise SystemExit, so that subprocess.run kills and reaps
    # the workload process instead of leaving it running.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))

    if not os.path.isfile(os.path.join(ROOT, "src", "parpath", "__init__.py")):
        print(f"perfbench: no parpath sources under {ROOT}/src; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    env = child_env()
    try:
        setup_s = None if args.trace else measure_setup(args, env, deadline)
        cmd = [sys.executable, "-m", "perfbench.worker",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.small:
            cmd.append("--small")
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, check=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: workload process failed: {exc}", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print("perfbench: workload process printed no result", file=sys.stderr)
        return 1

    if setup_s is not None:
        result["metrics"] = {"setup_s": {"value": setup_s, "unit": "s"},
                             **result["metrics"]}
    for line in host_lines() + lines[:-1]:
        print(line)
    for name, metric in result["metrics"].items():
        value = "absent" if metric["value"] is None else f"{metric['value']:.6g}"
        print(f"{name} = {value} {metric['unit']}")
    print(f"error_rate = {result['failed'] / max(result['attempted'], 1):.6g} "
          f"({result['failed']} failed of {result['attempted']} operations)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
