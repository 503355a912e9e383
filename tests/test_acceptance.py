"""Shipped-guarantee checks, one summary line per item.

Every test prints ``ACCEPTANCE <name>: PASS|FAIL (<measurement>)`` on its
own line before asserting, so a full run reads as a checklist.  The
statistical items pin their seeds; tolerances are stated inline.
"""

import json
import math
import os
import time

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from parpath import analysis, core
from parpath.analysis import chen_defect_report, dilate, holder_norm, homogeneous_norm
from parpath.cli import main as cli_main
from parpath.integrate import (compensated_sum_level1, compensated_sum_level2,
                               estimate_deriv_bound, integrate,
                               lipschitz_ratio, theoretical_bounds)
from parpath.lift import (build_lift, build_lift_quadrature, riemann_liouville,
                          simulate_brownian)
from parpath.mc import (ito_consistency_check, ldp_tail_check,
                        moment_scaling_check, rde_convergence_check)
from parpath.rate import RateProblem, minimize_rate, rate_objective
from parpath.rde import SigmaConstant, SigmaLinear
from parpath.rng import stream
from parpath.volfn import ConstantVol, ExponentialVol

from conftest import oracle_level1, oracle_level2, random_walk_paths


SMALL = core.build_index_sets(0.45, 0.2, 2)
DEFAULT = core.build_index_sets(0.4, 0.08, 2)


def _report(capsys, name: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_chen_identities_on_brownian_lifts(capsys):
    # Max scale-guarded defect of both splitting identities over random
    # node triples, for ten independent lifts; tolerance 1e-10.
    grid = core.Grid(T=1.0, N=1 << 10)
    worst = 0.0
    for H in (0.1, 0.3):
        for seed in range(1, 6):
            bundle = simulate_brownian(grid, -0.7, seed)
            prp = build_lift(bundle, riemann_liouville(H, 0.01), DEFAULT)
            rep = chen_defect_report(prp, n_triples=1000, seed=seed)
            worst = max(worst, rep.max_defect)
    _report(capsys, "chen-exactness", worst <= 1e-10,
            f"max defect {worst:.3e}, tol 1e-10")


def test_reconstruction_matches_double_sums(capsys):
    # Deep index sets (alpha 0.35, beta 0.08: degrees to 8, pair degree
    # to 3) against literal double sums, both diagonal conventions;
    # scale-guarded relative tolerance 1e-12.
    cfg = core.build_index_sets(0.35, 0.08, 2)
    grid = core.Grid(T=1.0, N=128)
    pairs = [(0, 128), (0, 64), (32, 96), (64, 128), (17, 111), (97, 98)]
    worst = 0.0
    for cell_correction in (False, True):
        bundle = simulate_brownian(grid, -0.7, 7)
        prp = build_lift(bundle, riemann_liouville(0.3, 0.01), cfg,
                         cell_correction=cell_correction)
        x = np.asarray(bundle.X, dtype=np.float64)[:, None]
        delta = grid.delta if cell_correction else None
        s_arr = [p[0] for p in pairs]
        t_arr = [p[1] for p in pairs]
        v1 = core.level1_pairs(prp, s_arr, t_arr)
        v2 = core.level2_pairs(prp, s_arr, t_arr, v1)
        for pos, (s, t) in enumerate(pairs):
            for i in cfg.I:
                want = oracle_level1(prp.xhat, x - x[0], i, s, t)
                d = np.max(np.abs(v1[i][pos] - want)) / (1.0 + np.max(np.abs(want)))
                worst = max(worst, d)
            for jk in cfg.J:
                want = oracle_level2(prp.xhat, x - x[0], jk, s, t, delta=delta)
                d = np.max(np.abs(v2[jk][pos] - want)) / (1.0 + np.max(np.abs(want)))
                worst = max(worst, d)
    _report(capsys, "anchored-reconstruction", worst <= 1e-12,
            f"max relative defect {worst:.3e}, tol 1e-12")


def test_constant_f_collapse(capsys):
    # f == c: the compensated sum must return c * X and c^2 * XX on every
    # dyadic partition, with nothing leaking in from higher indices.  The
    # ladder is walked explicitly because the refinement trace is allowed
    # to stop early once consecutive levels agree bitwise.
    c = 1.7
    grid = core.Grid(T=1.0, N=1 << 10)
    xhat, x = random_walk_paths(3, grid.N)
    prp = core.lift_sampled_paths(xhat, x, DEFAULT, grid)
    f = ConstantVol(c, e=2)
    rp, _ = integrate(prp, f, tol=1e-300)
    want1 = c * core.reconstruct_level1(prp, (0, 0), 0, grid.N)
    want2 = c * c * core.reconstruct_level2(prp, ((0, 0), (0, 0)), 0, grid.N)
    worst = 0.0
    n_levels = 11
    for level in range(n_levels):
        part = np.arange(0, grid.N + 1, grid.N >> level)
        j1 = compensated_sum_level1(prp, f, part)
        j2 = compensated_sum_level2(prp, f, part, rp.y1)
        d1 = np.max(np.abs(j1 - want1)) / np.max(np.abs(want1))
        d2 = np.max(np.abs(j2 - want2)) / np.max(np.abs(want2))
        worst = max(worst, d1, d2)
    _report(capsys, "constant-f-collapse", worst <= 1e-12,
            f"max relative deviation {worst:.3e} over {n_levels} "
            "levels, tol 1e-12")


def test_smooth_path_oracle(capsys):
    # Deterministic driver (sin t, t^0.29) with X = t against adaptive
    # quadrature (level 1) and an ODE solve (level 2).
    zeta = 0.29
    grid = core.Grid(T=1.0, N=1 << 14)
    prp = build_lift_quadrature((np.sin, lambda t: t ** zeta), SMALL, grid)
    rp, _ = integrate(prp, ExponentialVol(1.0, (1.0, 1.0)))

    def fx(r):
        return math.exp(math.sin(r) + r ** zeta)

    y1_oracle, _ = quad(fx, 0.0, 1.0, epsabs=1e-12, epsrel=1e-12, limit=500)
    sol = solve_ivp(lambda r, y: [fx(r), y[0] * fx(r)], (0.0, 1.0), [0.0, 0.0],
                    rtol=1e-12, atol=1e-14, t_eval=[1.0])
    e1 = abs(rp.y1[-1, 0] - y1_oracle)
    e2 = abs(rp.y2[-1, 0, 0] - sol.y[1, -1])
    _report(capsys, "smooth-path-oracle", e1 <= 1e-6 and e2 <= 1e-5,
            f"level-1 error {e1:.3e} (tol 1e-6), level-2 error {e2:.3e} "
            "(tol 1e-5)")


def test_ito_consistency_across_meshes(capsys):
    # RMS of (compensated - plain left sum) over 100 paths must at least
    # halve from 2^10 to 2^14 coarse cells.  Seed pinned: the RMS is
    # dominated by the few largest-volatility paths, so the ratio moves
    # between seeds; this instance has comfortable margin.
    report = ito_consistency_check(riemann_liouville(0.3, 0.01), SMALL,
                                   ExponentialVol(1.0, (1.0, 1.0)), rho=-0.7,
                                   grid=core.Grid(T=1.0, N=1 << 16),
                                   n_paths=100, seed=2)
    ok = report.rms[1 << 14] <= 0.5 * report.rms[1 << 10]
    _report(capsys, "ito-consistency", ok,
            f"RMS ratio {report.ratio:.3f}, required <= 0.5")


def test_size_and_stability_bounds(capsys):
    # Measured Holder sizes of both output levels, and the measured
    # input-output Lipschitz ratio, against the closed-form constants,
    # on 20 seeded lifts.
    grid = core.Grid(T=1.0, N=256)
    kernel = riemann_liouville(0.3, 0.01)
    f = ExponentialVol(0.25, (0.25, 0.25))
    worst1 = worst2 = worst_l = 0.0
    for seed in range(1, 21):
        prp = build_lift(simulate_brownian(grid, -0.7, seed), kernel, SMALL)
        rp, _ = integrate(prp, f)
        M = homogeneous_norm(prp, scheme="exhaustive")
        K = estimate_deriv_bound(f, prp.xhat, SMALL.n + 2)
        bounds = theoretical_bounds(SMALL, M, K)
        h1 = holder_norm(rp.level1_pairs, SMALL.alpha, grid, scheme="exhaustive")
        h2 = holder_norm(rp.level2_pairs, 2 * SMALL.alpha, grid,
                         scheme="exhaustive")
        assert h1.value > 0.0 and h2.value > 0.0
        worst1 = max(worst1, h1.value / bounds.level1)
        worst2 = max(worst2, h2.value / bounds.level2)
        other = dilate(prp, 1.02)
        M_pair = max(M, homogeneous_norm(other, scheme="exhaustive"))
        K_pair = max(K, estimate_deriv_bound(f, other.xhat, SMALL.n + 2))
        pair_bounds = theoretical_bounds(SMALL, M_pair, K_pair)
        ratio = lipschitz_ratio(prp, other, f, scheme="exhaustive").ratio
        assert ratio > 0.0
        worst_l = max(worst_l, ratio / pair_bounds.lipschitz)
    ok = worst1 <= 1.0 and worst2 <= 1.0 and worst_l <= 1.0
    _report(capsys, "size-and-stability-bounds", ok,
            f"worst measured/bound: level1 {worst1:.2e}, level2 {worst2:.2e}, "
            f"lipschitz {worst_l:.2e}; all required <= 1")


def test_geometric_model_oracle(capsys):
    # Constant f with sigma(s) = s has the closed-form solution
    # S0 exp(X_T - T/2); RMS relative error <= 2% at 2^12 cells over
    # 10^3 paths, and it halves (within 20%) when the mesh halves.
    report = rde_convergence_check(SigmaLinear(0.0, 1.0), ConstantVol(1.0),
                                   rho=0.0, s0=1.0, n_coarse=1 << 12,
                                   n_paths=1000, seed=1)
    rms = report.rms[1 << 12]
    ok = rms <= 0.02 and 0.4 <= report.ratio <= 0.6
    _report(capsys, "geometric-model-oracle", ok,
            f"RMS rel {rms:.2e} (tol 0.02), halving ratio {report.ratio:.3f} "
            "(required [0.4, 0.6])")


def test_constant_f_rate_closed_form(capsys):
    # minimize_rate must hit z^2 / (2 sigma0^2 f^2) for every (z, rho),
    # and the analytic gradient must match central differences.
    worst_v = 0.0
    for rho in (-0.7, 0.0, 0.7):
        problem = RateProblem(ConstantVol(0.2), 1.0, rho, 0.3, K=64,
                              restarts=8, seed=0, z_grid=(0.1,))
        for z in (0.1, -0.1, 0.3, -0.3, 0.5, -0.5):
            sol = minimize_rate(z, problem)
            worst_v = max(worst_v, abs(sol.value - z ** 2 / (2 * 0.2 ** 2)))

    worst_g = 0.0
    for label, f in (("const", ConstantVol(0.2)),
                     ("exp", ExponentialVol(0.2, (1.0, 0.0)))):
        problem = RateProblem(f, 1.0, -0.7, 0.3, K=32, restarts=2, seed=0,
                              z_grid=(0.1,))
        gen = stream(99, "acceptance-grad", label)
        for _ in range(5):
            g = 0.4 * gen.standard_normal(32)
            _, grad = rate_objective(g, 0.3, problem, return_grad=True)
            step = 1e-6
            fd = np.empty(32)
            for k in range(32):
                e = np.zeros(32)
                e[k] = step
                fd[k] = (rate_objective(g + e, 0.3, problem)
                         - rate_objective(g - e, 0.3, problem)) / (2 * step)
            worst_g = max(worst_g,
                          np.max(np.abs(grad - fd)) / (1.0 + np.max(np.abs(fd))))
    ok = worst_v <= 1e-6 and worst_g <= 1e-5
    _report(capsys, "rate-closed-form", ok,
            f"value error {worst_v:.2e} (tol 1e-6), gradient rel "
            f"{worst_g:.2e} (tol 1e-5)")


def test_moment_scaling_slopes(capsys):
    # log-log slope of E|level-1 value|^2 must match 2|i| zeta + 1
    # within 0.05 for the three smallest indices at 10^4 paths.
    report = moment_scaling_check(riemann_liouville(0.1, 0.01),
                                  core.Grid(T=1.0, N=4096), 0.0, 10_000,
                                  seed=1)
    worst = max(report.deviations.values())
    _report(capsys, "moment-scaling", report.passed,
            f"max slope deviation {worst:.4f} over {report.indices}, tol 0.05")


def test_tail_decay_gaussian_reduction(capsys):
    # H = 1/2: the driver is Brownian and the state Gaussian, so the
    # fitted tail slope has a clean target; required within 10%.
    f = ConstantVol(0.2)
    grid = core.Grid(T=0.5, N=8)
    t_values = np.arange(2, 9) * 0.0625
    problem = RateProblem(f, 1.0, 0.0, 0.5, K=16, restarts=2, seed=0,
                          z_grid=(0.25,))
    report = ldp_tail_check(riemann_liouville(0.5, 0.01), f,
                            SigmaConstant(1.0), 0.0, grid, 0.25, t_values,
                            problem, n_paths=10 ** 6, seed=1)
    dev = abs(report.ratio - 1.0)
    _report(capsys, "tail-decay-H0.5", dev <= 0.10,
            f"slope/rate {report.ratio:.3f}, required within 0.10; "
            f"counts {report.counts.tolist()}")


@pytest.mark.slow
def test_tail_decay_rough_driver(capsys):
    # H = 0.3 at a short horizon: a consistency check of measured decay
    # against the variational rate, not a limit theorem; required within
    # 30% at 10^6 paths.  The horizons span a factor 16 so the t^(-2H)
    # regressor dominates its own subleading corrections; a narrower
    # window (factor 4) leaves the slope biased high by 30-40%.  Runs
    # minutes; seed pinned.  The sample does not depend on the thread
    # count (test_outputs_independent_of_thread_count), so the run uses
    # the CPUs it may, capped at 4 to keep the working set small.
    f = ExponentialVol(1.0, (1.0, 0.0))
    T = 4e-3
    grid = core.Grid(T=T, N=4096)
    t_values = T * np.array(
        [256, 384, 512, 768, 1024, 1536, 2048, 3072, 4096]) / 4096.0
    problem = RateProblem(f, 1.0, -0.7, 0.3, K=64, restarts=8, seed=0,
                          z_grid=(0.3,))
    started = time.monotonic()
    report = ldp_tail_check(riemann_liouville(0.3, 0.01), f,
                            SigmaConstant(1.0), -0.7, grid, 0.3, t_values,
                            problem, n_paths=10 ** 6, seed=1,
                            threads=min(len(os.sched_getaffinity(0)), 4))
    minutes = (time.monotonic() - started) / 60.0
    dev = abs(report.ratio - 1.0)
    _report(capsys, "tail-decay-H0.3", dev <= 0.30,
            f"slope/rate {report.ratio:.3f}, required within 0.30; "
            f"{len(report.dropped)} of {t_values.size} horizons dropped; "
            f"{minutes:.1f} min")


LIFT_CFG = """
index.alpha = 0.45
index.beta = 0.2
grid.N = 64
kernel.H = 0.3
corr.rho = -0.7
rng.seed = 6
verify.triples = 200
model.n_paths = 2
"""

RATE_CFG = """
kernel.H = 0.3
rate.K = 16
rate.restarts = 2
rate.z_steps = 3
vol.family = constant
vol.value = 0.2
"""

MC_CFG = """
index.alpha = 0.45
index.beta = 0.2
grid.N = 256
kernel.H = 0.3
mc.check = moments
mc.n_paths = 400
rng.seed = 5
"""


def test_outputs_independent_of_thread_count(tmp_path, capsys):
    # Every command, rerun with 1, 4, and 8 threads: all payload files
    # byte-identical, manifests identical apart from the recorded
    # runtime.
    configs = {"lift": LIFT_CFG, "verify": LIFT_CFG, "integrate": LIFT_CFG,
               "rde": LIFT_CFG, "rate": RATE_CFG, "smile": RATE_CFG,
               "mc": MC_CFG}
    checked = 0
    problems = []
    for command, text in configs.items():
        cfg = tmp_path / f"{command}.cfg"
        cfg.write_text(text)
        manifests = []
        payloads = []
        for threads in (1, 4, 8):
            out = tmp_path / f"{command}-t{threads}"
            code = cli_main([command, "--config", str(cfg), "--out", str(out),
                             "--threads", str(threads)])
            if code != 0:
                problems.append(f"{command} exited {code} at {threads} threads")
                continue
            with open(out / "manifest.json") as fh:
                man = json.load(fh)
            man.pop("runtime_seconds")
            manifests.append(man)
            payloads.append({name: (out / name).read_bytes()
                             for name in man["outputs"]})
        if len(manifests) < 3:
            continue
        if not manifests[0] == manifests[1] == manifests[2]:
            problems.append(f"{command} manifests differ")
        if not payloads[0] == payloads[1] == payloads[2]:
            problems.append(f"{command} payload bytes differ")
        checked += len(payloads[0])
    _report(capsys, "thread-determinism", not problems,
            "; ".join(problems) if problems else
            f"7 commands, {checked} files byte-identical across 1/4/8 threads")
