"""The benchmark's workloads: inputs from a seed, operations, output checks.

Each workload is a closed loop in one process: the next operation is
sent only after the previous one returns.  Operations go through the
public entry points only, ``parpath.mc.*`` and ``parpath.cli.main``.

Why these three:

* ``tail_rough``: ``mc.ldp_tail_check`` on the rough tail model of
  the acceptance suite, at 2^15 paths on two threads.  That test is
  almost all of the test suite's time and the target of the chunk-pipeline and
  importance-sampling work.  It is draw, convolution and levels only
  (constant sigma telescopes, so no stepper and no index machinery), and
  it loads both cores, so page-fault and allocation contention shows.
* ``price_lognormal``: ``mc.price_and_implied_vol`` at 2^13 paths on one
  thread.  The only workload where the batched stepper
  ``rde.solve_rde_batch`` does a large share, the single-thread baseline
  of the chunk engine, and an exact oracle: the state is lognormal, so
  every implied vol must be 0.2 up to Monte Carlo error.
* ``pathwise``: rounds of in-process CLI commands at the README example
  config: ``lift``, ``verify`` of that round's ``lift.prp``,
  ``integrate``, ``rde`` and ``smile``.  The single-path route a CLI
  user takes, through the index machinery, the Hoelder and Chen
  sweeps, the refinement trace, the scalar stepper, the rate solver
  and PRP1 write and read, none of which the MC engine touches.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os

import numpy as np

from parpath import cli, core, mc
from parpath.lift import riemann_liouville
from parpath.rate import RateProblem
from parpath.rde import SigmaConstant, SigmaLinear
from parpath.volfn import ConstantVol, ExponentialVol


class CheckFailed(Exception):
    """An operation returned, but its output failed a self-check."""


def digest(payload) -> str:
    """SHA-256 of a JSON payload; floats keep every digit (``repr``)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _floats(values):
    return [float(v) for v in values]


def file_sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@dataclasses.dataclass
class Step:
    """One operation: the timed call and the check of what it returned."""

    span: str    # root span name in the traced run
    key: str     # digest key; equal keys in one run must give equal digests
    call: object  # () -> result, the timed part
    check: object  # result -> digest; raises CheckFailed
    paths: int   # sampled paths the call simulates


def _warm_engine(workload, s0: float):
    """One chunk per worker thread through the MC engine, untimed.

    The first call in a process pays about a second of one-time costs on
    a 2-vCPU box; the timed loop measures the engine in steady state.
    """
    mc.simulate_state(workload.kernel, workload.f, workload.sigma, -0.7, s0,
                      workload.grid, [workload.grid.N],
                      mc.DEFAULT_CHUNK * workload.threads, workload.seed,
                      threads=workload.threads)


class TailRough:
    name = "tail_rough"

    def __init__(self, seed: int, work_dir: str, threads: int, small=False):
        T = 4e-3
        self.seed = seed
        self.threads = threads
        self.n_paths = 1 << 11 if small else 1 << 15
        # At 2^11 paths the smallest horizons see too few exceedances
        # for the default floor of 50; the reduced size is for tests.
        self.min_count = 5 if small else 50
        self.f = ExponentialVol(1.0, (1.0, 0.0))
        self.kernel = riemann_liouville(0.3, 0.01)
        self.sigma = SigmaConstant(1.0)
        self.grid = core.Grid(T=T, N=4096)
        self.t_values = T * np.array(
            [256, 384, 512, 768, 1024, 1536, 2048, 3072, 4096]) / 4096.0
        self.problem = RateProblem(self.f, 1.0, -0.7, 0.3, K=64, restarts=8,
                                   seed=0, z_grid=(0.3,))

    def round(self, index: int):
        return [Step("mc.ldp_tail_check", "call", self._call, self._check,
                     self.n_paths)]

    def warmup(self):
        _warm_engine(self, s0=0.0)

    def _call(self):
        return mc.ldp_tail_check(self.kernel, self.f, self.sigma, -0.7,
                                 self.grid, 0.3, self.t_values, self.problem,
                                 n_paths=self.n_paths, seed=self.seed,
                                 threads=self.threads,
                                 min_count=self.min_count)

    def _check(self, report):
        if report.n_paths != self.n_paths:
            raise CheckFailed(f"report covers {report.n_paths} paths")
        if report.t_values.size + len(report.dropped) != self.t_values.size:
            raise CheckFailed("kept and dropped horizons do not add up")
        return digest({"t": _floats(report.t_values),
                       "counts": [int(c) for c in report.counts],
                       "dropped": _floats(report.dropped),
                       "fit": _floats(report.fit_coeffs),
                       "rate_value": float(report.rate_value)})


class PriceLognormal:
    name = "price_lognormal"
    VOL = 0.2
    # Family-wise oracle over the nine correlated rows.  The CLI's own
    # rule (every row within 2 standard errors) fails by chance: at 6 of
    # seeds 0-39 (largest 2.95), which would count as failed operations.
    MAX_SE = 4.0

    def __init__(self, seed: int, work_dir: str, threads: int, small=False):
        self.seed = seed
        self.threads = threads
        self.n_paths = 1 << 10 if small else 1 << 13
        self.kernel = riemann_liouville(0.3, 0.01)
        self.f = ConstantVol(self.VOL)
        self.sigma = SigmaLinear(0.0, 1.0)
        self.grid = core.Grid(T=1.0, N=4096)
        self.strikes = (0.9, 1.0, 1.1)
        self.maturities = (0.25, 0.5, 1.0)
        self.max_deviation = 0.0  # largest |iv - 0.2| in standard errors

    def round(self, index: int):
        return [Step("mc.price_and_implied_vol", "call", self._call,
                     self._check, self.n_paths)]

    def warmup(self):
        _warm_engine(self, s0=1.0)

    def _call(self):
        return mc.price_and_implied_vol(
            self.kernel, self.f, self.sigma, -0.7, 1.0, self.grid,
            self.strikes, self.maturities, self.n_paths, self.seed,
            threads=self.threads)

    def _check(self, table):
        rows = []
        for r in table.rows:
            if r.implied_vol is None or not r.iv_stderr:
                raise CheckFailed(f"no implied vol at K={r.strike} "
                                  f"T={r.maturity}: {r.note}")
            dev = abs(r.implied_vol - self.VOL) / r.iv_stderr
            self.max_deviation = max(self.max_deviation, dev)
            if dev > self.MAX_SE:
                raise CheckFailed(
                    f"implied vol {r.implied_vol:.6f} at K={r.strike} "
                    f"T={r.maturity} is {dev:.2f} standard errors from "
                    f"{self.VOL}")
            rows.append([r.strike, r.maturity, r.price, r.stderr,
                         r.implied_vol, r.iv_stderr, r.note])
        return digest(rows)


class Pathwise:
    name = "pathwise"
    # Round r runs at CLI seed ROUND_SEEDS * seed + r % ROUND_SEEDS, so
    # every round changes the seed and every seed repeats within a run.
    ROUND_SEEDS = 8
    CONFIG = "kernel.H = 0.3\ncorr.rho = -0.7\n"  # the README example
    SMALL = ("grid.N = 256\nmodel.n_paths = 2\nverify.triples = 200\n"
             "rate.K = 16\nrate.restarts = 2\nrate.z_steps = 3\n")

    def __init__(self, seed: int, work_dir: str, threads: int, small=False):
        self.seed = seed
        self.work_dir = work_dir
        text = self.CONFIG + (self.SMALL if small else "")
        self.n_rde_paths = 2 if small else 4
        self.config = os.path.join(work_dir, "run.cfg")
        self.verify_config = os.path.join(work_dir, "verify.cfg")
        lift_out = os.path.join(work_dir, "lift", "lift.prp")
        with open(self.config, "w", encoding="utf-8") as fh:
            fh.write(text)
        with open(self.verify_config, "w", encoding="utf-8") as fh:
            fh.write(text + f"verify.input = {lift_out}\n")

    def round(self, index: int):
        slot = index % self.ROUND_SEEDS
        cli_seed = self.ROUND_SEEDS * self.seed + slot
        paths = {"lift": 1, "verify": 0, "integrate": 1,
                 "rde": self.n_rde_paths, "smile": 0}
        return [self._step(cmd, cli_seed, f"{slot}/{cmd}", n)
                for cmd, n in paths.items()]

    def warmup(self):
        for step in self.round(0):
            step.call()

    def _step(self, cmd, cli_seed, key, paths):
        out = os.path.join(self.work_dir, cmd)
        config = self.verify_config if cmd == "verify" else self.config
        argv = [cmd, "--config", config, "--out", out,
                "--seed", str(cli_seed), "--threads", "1"]

        def call():
            try:
                return cli.main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                return exc.code

        def check(code):
            if code != 0:
                raise CheckFailed(f"{cmd} exited with {code}")
            return self._check_outputs(cmd, out)

        return Step(f"cli.{cmd}", key, call, check, paths)

    def _check_outputs(self, cmd, out):
        with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
            outputs = json.load(fh)["outputs"]
        for name, sha in outputs.items():
            if file_sha256(os.path.join(out, name)) != sha:
                raise CheckFailed(f"{cmd}: {name} does not match its manifest")
        checks = {"verify": ("verify.json", [("chen", "pass"),
                                             ("bounds", "level1", "pass"),
                                             ("bounds", "level2", "pass")]),
                  "integrate": ("bounds.json", [("level1", "pass"),
                                                ("level2", "pass")])}
        if cmd in checks:
            name, flags = checks[cmd]
            with open(os.path.join(out, name), encoding="utf-8") as fh:
                payload = json.load(fh)
            for path in flags:
                value = payload
                for part in path:
                    value = value[part]
                if value is not True:
                    raise CheckFailed(f"{cmd}: {'.'.join(path)} is {value}")
        return digest(outputs)


WORKLOADS = {w.name: w for w in (TailRough, PriceLognormal, Pathwise)}
# Worker threads of the MC engine; never more than the CPUs we may use.
THREADS = {"tail_rough": 2, "price_lognormal": 1, "pathwise": 1}
