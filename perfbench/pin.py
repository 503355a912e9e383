"""Pin the output digests the benchmark's operations must reproduce.

    PYTHONPATH=src:. OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 \\
        python3 -m perfbench.pin --seeds 0 1 2

Runs every distinct operation of every workload once per seed with one
worker thread and writes ``perfbench/pins.json`` with the platform it
was taken on.  The timed runs use two threads on ``tail_rough``, so they
also check that output does not depend on the thread count.  A change
that moves a pinned digest changes program output and must say so.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile

from perfbench import workloads
from perfbench.worker import PINS, platform_key


def pin_workload(name: str, seed: int) -> dict:
    cls = workloads.WORKLOADS[name]
    rounds = getattr(cls, "ROUND_SEEDS", 1)
    out = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-pin-", dir=".") as tmp:
        workload = cls(seed, tmp, threads=1)
        for index in range(rounds):
            for step in workload.round(index):
                out[step.key] = step.check(step.call())
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    args = parser.parse_args(argv)
    pins = {"platform": platform_key(), "workloads": {}}
    for name in workloads.WORKLOADS:
        for seed in args.seeds:
            pins["workloads"].setdefault(name, {})[str(seed)] = \
                pin_workload(name, seed)
            print(f"pinned {name} seed {seed}", file=sys.stderr)
    with open(PINS, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
