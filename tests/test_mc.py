"""Monte Carlo engine and model-level diagnostic checks."""

import math
import tracemalloc

import numpy as np
import pytest

from parpath import core
from parpath.exceptions import ConfigurationError, InsufficientDataError, NumericalError
from parpath.integrate import integrate
from parpath.lift import riemann_liouville, volterra_convolve_batch
from parpath.mc import (
    ito_consistency_check,
    ldp_tail_check,
    moment_scaling_check,
    price_and_implied_vol,
    rde_convergence_check,
    simulate_state,
)
from parpath.rate import RateProblem
from parpath.rde import RdeProblem, SigmaConstant, SigmaLinear, SigmaSmooth, solve_rde
from parpath.rng import stream
from parpath.volfn import ConstantVol, ExponentialVol


SMALL = core.build_index_sets(0.45, 0.2, 2)


def test_engine_matches_lift_pipeline(small_cfg):
    # The batch engine must reproduce lift -> integrate -> step path by
    # path.  Increments are replayed from the engine's own stream so the
    # comparison is on identical inputs.
    grid = core.Grid(T=1.0, N=256)
    kernel = riemann_liouville(0.3, 0.01)
    f = ExponentialVol(1.0, (1.0, 1.0))
    sigma = SigmaSmooth(np.tanh, lambda u: 1.0 / np.cosh(u) ** 2)
    rho, s0, seed, count = -0.7, 0.5, 21, 4
    snaps = [64, 128, 256]

    S, X = simulate_state(kernel, f, sigma, rho, s0, grid, snaps, count, seed,
                          chunk=count)

    gen = stream(seed, "mc", 0)
    norms = gen.standard_normal((3, count, grid.N))
    sq = math.sqrt(grid.delta)
    dW = sq * norms[0]
    dX = rho * dW + math.sqrt(1.0 - rho ** 2) * (sq * norms[1])
    conv = volterra_convolve_batch(dW, norms[2], kernel, grid)
    for b in range(count):
        xhat = np.column_stack([conv[b], grid.nodes ** kernel.zeta])
        x = np.concatenate([[0.0], np.cumsum(dX[b])])
        prp = core.lift_sampled_paths(xhat, x[:, None], small_cfg, grid,
                                      cell_correction=True)
        driver, _ = integrate(prp, f)
        ref = s0 + solve_rde(RdeProblem(driver, sigma, s0=s0))
        assert S[b] == pytest.approx(ref[snaps], abs=1e-12)
        np.testing.assert_array_equal(X[b], x[snaps])


def _replay_chunks(seed, rho, grid, n_paths, chunk):
    """Each chunk's (dW, dX, aux), drawn whole from the chunk's stream."""
    sq = math.sqrt(grid.delta)
    for cid, start in enumerate(range(0, n_paths, chunk)):
        count = min(chunk, n_paths - start)
        norms = stream(seed, "mc", cid).standard_normal((3, count, grid.N))
        dW = sq * norms[0]
        dX = rho * dW + math.sqrt(1.0 - rho ** 2) * (sq * norms[1])
        yield dW, dX, norms[2]


def _replay_state(kernel, f, sigma, rho, s0, grid, n_paths, seed, chunk):
    """S and X at every node by the whole-chunk formulas, no row blocks."""
    S, X = [], []
    for dW, dX, aux in _replay_chunks(seed, rho, grid, n_paths, chunk):
        count = dW.shape[0]
        xhat = np.empty((count, grid.N + 1, 2))
        xhat[:, :, 0] = volterra_convolve_batch(dW, aux, kernel, grid)
        xhat[:, :, 1] = grid.nodes ** kernel.zeta
        fv = f.value(xhat)
        contrib = fv[:, :-1] * dX
        y1 = np.zeros((count, grid.N + 1))
        np.cumsum(contrib, axis=1, out=y1[:, 1:])
        if isinstance(sigma, SigmaConstant):
            S.append(s0 + sigma.c * y1)
        else:
            cells2 = y1[:, :-1] * contrib \
                + fv[:, :-1] ** 2 * (0.5 * (dX ** 2 - grid.delta))
            y2 = np.zeros((count, grid.N + 1))
            np.cumsum(cells2, axis=1, out=y2[:, 1:])
            dy1 = np.diff(y1, axis=1)
            y2_cell = np.diff(y2, axis=1) - y1[:, :-1] * dy1
            u = np.zeros(count)
            out = np.zeros((count, grid.N + 1))
            for q in range(grid.N):
                sv = sigma.value(s0 + u)
                u = u + sv * dy1[:, q] + sigma.deriv(s0 + u) * sv * y2_cell[:, q]
                out[:, q + 1] = u
            S.append(s0 + out)
        path = np.zeros((count, grid.N + 1))
        np.cumsum(dX, axis=1, out=path[:, 1:])
        X.append(path)
    return np.concatenate(S), np.concatenate(X)


# N > 512 takes the FFT convolution; 250 paths in chunks of 100 give row
# blocks of 64 + 36, 64 + 36 and 50 paths.
_BLOCKED = (core.Grid(T=1.0, N=1024), 250, 100, 13)  # grid, n_paths, chunk, seed


@pytest.mark.parametrize("sigma", [SigmaConstant(0.7), SigmaLinear(0.1, 0.5)],
                         ids=["constant", "linear"])
def test_blocked_engine_is_bit_identical_to_whole_chunks(sigma):
    kernel = riemann_liouville(0.1, 0.01)
    f = ExponentialVol(0.3, (0.5, 0.2))
    grid, n_paths, chunk, seed = _BLOCKED
    snaps = [0, 1, 300, grid.N]
    S_ref, X_ref = _replay_state(kernel, f, sigma, -0.7, 0.5, grid, n_paths,
                                 seed, chunk)
    for threads in (1, 2):
        S, X = simulate_state(kernel, f, sigma, -0.7, 0.5, grid, snaps, n_paths,
                              seed, threads=threads, chunk=chunk)
        np.testing.assert_array_equal(S, S_ref[:, snaps])
        np.testing.assert_array_equal(X, X_ref[:, snaps])


def test_blocked_tail_counts_and_moments_match_whole_chunks():
    kernel = riemann_liouville(0.1, 0.01)
    f = ExponentialVol(0.3, (0.5, 0.2))
    grid, n_paths, chunk, seed = _BLOCKED
    t_values = (0.25, 0.5, 0.75, 1.0)
    problem = RateProblem(ConstantVol(0.3), 1.0, -0.7, 0.1, K=8, restarts=1,
                          seed=0, z_grid=(0.1,))
    report = ldp_tail_check(kernel, f, SigmaConstant(1.0), -0.7, grid, 0.1,
                            t_values, problem, n_paths=n_paths, seed=seed,
                            chunk=chunk, min_count=1)
    S_ref, _ = _replay_state(kernel, f, SigmaConstant(1.0), -0.7, 0.0, grid,
                             n_paths, seed, chunk)
    snaps = [int(t * grid.N) for t in t_values]
    thresholds = 0.1 * np.asarray(t_values) ** (0.5 - 0.1)
    assert report.dropped == ()
    np.testing.assert_array_equal(report.counts,
                                  np.sum(S_ref[:, snaps] >= thresholds, axis=0))

    # The moment check sums each chunk's squares in one np.sum, as here.
    t_nodes = np.array([64, 256, 1024])
    moments = moment_scaling_check(kernel, grid, -0.7, n_paths, seed,
                                   t_nodes=t_nodes, chunk=chunk)
    total = {i: np.zeros(t_nodes.size) for i in moments.indices}
    for dW, dX, aux in _replay_chunks(seed, -0.7, grid, n_paths, chunk):
        conv = volterra_convolve_batch(dW, aux, kernel, grid)
        for i in moments.indices:
            w = (conv[:, :-1] ** i[0]) * (grid.nodes[:-1] ** kernel.zeta) ** i[1] \
                / core.midx_factorial(i)
            a = np.cumsum(w * dX, axis=1)
            total[i] = total[i] + np.sum(a[:, t_nodes - 1] ** 2, axis=0)
    for i in moments.indices:
        np.testing.assert_array_equal(moments.mean_squares[i], total[i] / n_paths)


def test_draw_buffer_is_not_shared_across_calls():
    grid = core.Grid(T=1.0, N=4096)
    kernel = riemann_liouville(0.3, 0.01)
    args = (kernel, ConstantVol(0.5), SigmaConstant(1.0), -0.3, 1.0, grid,
            [1, 2048, 4096], 16)
    S1, X1 = simulate_state(*args, seed=1, chunk=8)
    kept = S1.copy(), X1.copy()
    S2, X2 = simulate_state(*args, seed=2, chunk=8)
    np.testing.assert_array_equal(S1, kept[0])
    np.testing.assert_array_equal(X1, kept[1])
    assert not np.array_equal(S1, S2)

    # Two 64-path chunks draw 3 * 64 * 4096 normals each (6.3 MB); none
    # of that may stay allocated once the call has returned.
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        simulate_state(*args[:-1], 128, seed=3, chunk=64)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 1 << 20


def test_state_threads_do_not_change_the_sample():
    grid = core.Grid(T=1.0, N=64)
    kernel = riemann_liouville(0.3, 0.01)
    args = (kernel, ConstantVol(0.5), SigmaLinear(0.0, 1.0), -0.3, 1.0, grid,
            [16, 64], 40)
    S1, X1 = simulate_state(*args, seed=3, chunk=8, threads=1)
    S4, X4 = simulate_state(*args, seed=3, chunk=8, threads=4)
    np.testing.assert_array_equal(S1, S4)
    np.testing.assert_array_equal(X1, X4)

    # The chunk size keys the streams, so changing it changes the draw;
    # it is part of the sampling definition, not a performance knob.
    S7, _ = simulate_state(*args, seed=3, chunk=7)
    assert not np.array_equal(S1, S7)
    S_other, _ = simulate_state(*args, seed=4, chunk=8)
    assert not np.array_equal(S1, S_other)


def test_simulate_state_validation():
    grid = core.Grid(T=1.0, N=16)
    kernel = riemann_liouville(0.3, 0.01)
    ok = dict(f=ConstantVol(1.0), sigma=SigmaConstant(1.0), rho=0.0, s0=1.0,
              grid=grid, n_paths=2, seed=1)
    with pytest.raises(ConfigurationError, match="at least one snapshot"):
        simulate_state(kernel, ok["f"], ok["sigma"], 0.0, 1.0, grid, [], 2, 1)
    with pytest.raises(ConfigurationError, match="out of range"):
        simulate_state(kernel, ok["f"], ok["sigma"], 0.0, 1.0, grid, [17], 2, 1)
    with pytest.raises(ConfigurationError, match="at least one path"):
        simulate_state(kernel, ok["f"], ok["sigma"], 0.0, 1.0, grid, [16], 0, 1)
    with pytest.raises(ConfigurationError, match="chunk size"):
        simulate_state(kernel, ok["f"], ok["sigma"], 0.0, 1.0, grid, [16], 2, 1,
                       chunk=0)


def test_zero_vol_freezes_the_state():
    grid = core.Grid(T=1.0, N=32)
    kernel = riemann_liouville(0.3, 0.01)
    S, X = simulate_state(kernel, ConstantVol(0.0), SigmaLinear(0.0, 1.0),
                          0.0, 0.7, grid, [1, 16, 32], 5, seed=2)
    np.testing.assert_array_equal(S, np.full((5, 3), 0.7))
    assert np.std(X[:, -1]) > 0.0


def test_constant_sigma_shortcut_matches_stepper():
    # SigmaConstant takes the telescoped path; a smooth sigma with the
    # same constant value must land on the same state up to rounding.
    grid = core.Grid(T=1.0, N=128)
    kernel = riemann_liouville(0.3, 0.01)
    f = ExponentialVol(1.0, (0.5, 0.5))
    flat = SigmaSmooth(lambda u: np.full_like(np.asarray(u, dtype=float), 0.7),
                       lambda u: np.zeros_like(np.asarray(u, dtype=float)))
    S_const, _ = simulate_state(kernel, f, SigmaConstant(0.7), -0.5, 1.0, grid,
                                [32, 128], 12, seed=8)
    S_flat, _ = simulate_state(kernel, f, flat, -0.5, 1.0, grid,
                               [32, 128], 12, seed=8)
    assert S_const == pytest.approx(S_flat, abs=1e-12)


# ---------------------------------------------------------------------------
# moment scaling


def test_moment_scaling_slopes():
    kernel = riemann_liouville(0.3, 0.01)
    grid = core.Grid(T=1.0, N=1024)
    report = moment_scaling_check(kernel, grid, 0.0, 4000, seed=5)
    assert report.indices == ((0, 0), (1, 0), (0, 1))
    assert report.expected[(0, 0)] == pytest.approx(1.0)
    assert report.expected[(1, 0)] == pytest.approx(1.0 + 2 * kernel.zeta)
    assert report.expected[(0, 1)] == pytest.approx(1.0 + 2 * kernel.zeta)
    for i in report.indices:
        assert report.deviations[i] == abs(report.slopes[i] - report.expected[i])
        assert report.deviations[i] < 0.05
    assert report.passed
    assert report.t_values[-1] == pytest.approx(1.0)
    assert all(np.all(report.mean_squares[i] > 0) for i in report.indices)

    again = moment_scaling_check(kernel, grid, 0.0, 4000, seed=5, threads=4)
    assert all(report.slopes[i] == again.slopes[i] for i in report.indices)


def test_moment_scaling_validation():
    kernel = riemann_liouville(0.3, 0.01)
    with pytest.raises(ConfigurationError, match="divisible by 64"):
        moment_scaling_check(kernel, core.Grid(T=1.0, N=100), 0.0, 10, seed=1)
    with pytest.raises(ConfigurationError, match="out of range"):
        moment_scaling_check(kernel, core.Grid(T=1.0, N=64), 0.0, 10, seed=1,
                             t_nodes=[0, 32])
    with pytest.raises(ConfigurationError, match="out of range"):
        moment_scaling_check(kernel, core.Grid(T=1.0, N=64), 0.0, 10, seed=1,
                             t_nodes=[32, 65])


def test_moment_scaling_degenerate_moment():
    # At node 1 the level-1 value with weight xhat^i is exactly zero for
    # |i| >= 1 because xhat starts at the origin.
    kernel = riemann_liouville(0.3, 0.01)
    with pytest.raises(NumericalError, match="degenerate"):
        moment_scaling_check(kernel, core.Grid(T=1.0, N=64), 0.0, 10, seed=1,
                             indices=((1, 0),), t_nodes=[1, 32])


# ---------------------------------------------------------------------------
# compensated-sum consistency


def test_ito_constant_f_has_no_higher_order_mass():
    # With constant f every index above the zero index contributes
    # nothing, so compensated and plain sums coincide bit for bit.
    report = ito_consistency_check(riemann_liouville(0.3, 0.01), SMALL,
                                   ConstantVol(1.3), rho=-0.7,
                                   n_paths=4, seed=2,
                                   coarse_cells=(2 ** 4, 2 ** 5),
                                   fine_cells=2 ** 6)
    assert report.rms == {16: 0.0, 32: 0.0}
    assert report.ratio == 0.0
    assert report.passed()


def test_ito_report_shrinks_with_the_mesh():
    kwargs = dict(f=ExponentialVol(1.0, (1.0, 1.0)), rho=-0.7, n_paths=6,
                  seed=2, coarse_cells=(2 ** 4, 2 ** 6), fine_cells=2 ** 8,
                  chunk=2)
    report = ito_consistency_check(riemann_liouville(0.3, 0.01), SMALL, **kwargs)
    assert report.coarse_cells == (16, 64)
    assert report.rms[64] < report.rms[16]
    assert 0.2 < report.ratio < 0.7
    assert report.ratio == report.rms[64] / report.rms[16]

    again = ito_consistency_check(riemann_liouville(0.3, 0.01), SMALL,
                                  threads=3, **kwargs)
    assert report.rms == again.rms


def test_ito_coarse_must_divide_fine():
    with pytest.raises(ConfigurationError, match="divide"):
        ito_consistency_check(riemann_liouville(0.3, 0.01), SMALL,
                              ConstantVol(1.0), rho=0.0, n_paths=2, seed=1,
                              coarse_cells=(24,), fine_cells=64)


# ---------------------------------------------------------------------------
# pricing


def test_price_table_recovers_lognormal_vol():
    # Constant f with sigma(s) = s is the scheme's exact-benchmark model;
    # implied vols must sit on the flat true vol within sampling error.
    table = price_and_implied_vol(riemann_liouville(0.5, 0.01),
                                  ConstantVol(1.0), SigmaLinear(0.0, 1.0),
                                  rho=0.0, s0=1.0,
                                  grid=core.Grid(T=1.0, N=512),
                                  strikes=(0.9, 1.0, 1.1),
                                  maturities=(0.25, 0.5, 1.0),
                                  n_paths=4000, seed=9)
    assert len(table.rows) == 9
    assert table.spot == 1.0
    for row in table.rows:
        assert row.note == ""
        assert row.price > max(table.spot - row.strike, 0.0)
        assert row.stderr > 0.0
        assert row.iv_stderr > 0.0
        assert abs(row.implied_vol - 1.0) < 4.0 * row.iv_stderr
    # strike-major ordering
    assert [r.strike for r in table.rows[:3]] == [0.9, 0.9, 0.9]
    assert [r.maturity for r in table.rows[:3]] == [0.25, 0.5, 1.0]


def test_price_table_notes_bound_violations():
    # Far out of the money every payoff draw is zero; the zero price sits
    # on the arbitrage boundary and cannot be inverted.
    table = price_and_implied_vol(riemann_liouville(0.5, 0.01),
                                  ConstantVol(0.05), SigmaLinear(0.0, 1.0),
                                  rho=0.0, s0=1.0, grid=core.Grid(T=1.0, N=64),
                                  strikes=(5.0,), maturities=(0.25,),
                                  n_paths=200, seed=9)
    row = table.rows[0]
    assert row.price == 0.0
    assert row.implied_vol is None
    assert row.iv_stderr is None
    assert "arbitrage" in row.note


def test_price_table_maturities_must_sit_on_grid():
    kernel = riemann_liouville(0.5, 0.01)
    with pytest.raises(ConfigurationError, match="do not sit on the grid"):
        price_and_implied_vol(kernel, ConstantVol(1.0), SigmaLinear(0.0, 1.0),
                              rho=0.0, s0=1.0, grid=core.Grid(T=1.0, N=512),
                              strikes=(1.0,), maturities=(0.3,),
                              n_paths=10, seed=1)
    with pytest.raises(ConfigurationError, match="out of range"):
        price_and_implied_vol(kernel, ConstantVol(1.0), SigmaLinear(0.0, 1.0),
                              rho=0.0, s0=1.0, grid=core.Grid(T=1.0, N=512),
                              strikes=(1.0,), maturities=(0.0,),
                              n_paths=10, seed=1)


# ---------------------------------------------------------------------------
# scheme convergence


def test_rde_convergence_against_closed_form():
    report = rde_convergence_check(SigmaLinear(0.0, 1.0), ConstantVol(1.0),
                                   riemann_liouville(0.3, 0.01), rho=0.0,
                                   s0=1.0, n_coarse=64, n_paths=512, seed=3,
                                   chunk=256)
    assert report.n_cells == (64, 128)
    assert report.rms[128] < report.rms[64]
    assert report.ratio == report.rms[128] / report.rms[64]
    assert 0.35 < report.ratio < 0.65
    assert report.n_paths == 512 and report.seed == 3


def test_rde_convergence_needs_the_benchmark_model():
    kernel = riemann_liouville(0.5, 0.01)
    with pytest.raises(ConfigurationError, match="constant f"):
        rde_convergence_check(SigmaLinear(0.5, 1.0), ConstantVol(1.0), kernel,
                              rho=0.0, s0=1.0, n_coarse=16, n_paths=8, seed=1)
    with pytest.raises(ConfigurationError, match="constant f"):
        rde_convergence_check(SigmaLinear(0.0, 1.0),
                              ExponentialVol(1.0, (1.0, 0.0)), kernel,
                              rho=0.0, s0=1.0, n_coarse=16, n_paths=8, seed=1)


# ---------------------------------------------------------------------------
# tail decay


def _gaussian_tail_setup():
    f = ConstantVol(0.2)
    problem = RateProblem(f, 1.0, 0.0, 0.5, K=16, restarts=2, seed=0,
                          z_grid=(0.15,))
    grid = core.Grid(T=0.5, N=8)
    t_values = (0.125, 0.25, 0.375, 0.5)
    return f, problem, grid, t_values


def test_ldp_tail_matches_gaussian_rate():
    # H = 1/2 kills the kernel singularity: S_t = 0.2 X_t is Gaussian and
    # the fitted u-slope must land on z^2 / (2 f^2), up to the systematic
    # bias of this short fit window (about 7 percent, measured against
    # the exact normal tail) plus sampling noise.
    f, problem, grid, t_values = _gaussian_tail_setup()
    report = ldp_tail_check(riemann_liouville(0.5, 0.01), f, SigmaConstant(1.0),
                            0.0, grid, 0.15, t_values, problem,
                            n_paths=50_000, seed=7)
    assert report.rate_value == pytest.approx(0.15 ** 2 / (2 * 0.2 ** 2), rel=1e-8)
    assert abs(report.ratio - 1.0) < 0.2
    assert report.dropped == ()
    assert np.all(report.counts >= 50)
    np.testing.assert_allclose(report.probs, report.counts / 50_000, rtol=1e-15)
    np.testing.assert_allclose(report.u_values, np.asarray(t_values) ** -1.0,
                               rtol=1e-15)
    assert report.slope == report.fit_coeffs[0]

    again = ldp_tail_check(riemann_liouville(0.5, 0.01), f, SigmaConstant(1.0),
                           0.0, grid, 0.15, t_values, problem,
                           n_paths=50_000, seed=7, threads=4)
    assert report.slope == again.slope


def test_ldp_drops_thin_times_and_gives_up_when_starved():
    f, problem, grid, t_values = _gaussian_tail_setup()
    # z = 0.25 starves only the shortest horizon at this path count.
    report = ldp_tail_check(riemann_liouville(0.5, 0.01), f, SigmaConstant(1.0),
                            0.0, grid, 0.25, t_values, problem,
                            n_paths=50_000, seed=7)
    assert 0.125 in report.dropped
    assert report.t_values.size + len(report.dropped) == len(t_values)

    with pytest.raises(InsufficientDataError, match="exceedances"):
        ldp_tail_check(riemann_liouville(0.5, 0.01), f, SigmaConstant(1.0),
                       0.0, grid, 5.0, t_values, problem, n_paths=500, seed=7)
