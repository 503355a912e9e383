"""Monte Carlo engine and model-level diagnostic checks."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from parpath import core, mc
from parpath.exceptions import (ConfigurationError, InsufficientDataError,
                                SolverError)
from parpath.integrate import compensated_sum_level1, integrate
from parpath.lift import _Workspace, riemann_liouville, volterra_convolve_batch
from parpath.mc import (
    ito_consistency_check,
    ldp_tail_check,
    moment_scaling_check,
    price_and_implied_vol,
    rde_convergence_check,
    simulate_state,
)
from parpath.rate import RateProblem
from parpath.rde import (RdeProblem, SigmaConstant, SigmaLinear, SigmaSmooth,
                         solve_rde, solve_rde_batch)
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


def _replay_levels(kernel, f, rho, grid, n_paths, seed, chunk):
    """Each chunk's (y1, y2, dX) by the whole-chunk formulas, no row blocks.

    The convolution always runs, whether f reads it or not.
    """
    for dW, dX, aux in _replay_chunks(seed, rho, grid, n_paths, chunk):
        count = dW.shape[0]
        xhat = np.empty((count, grid.N + 1, 2))
        xhat[:, :, 0] = volterra_convolve_batch(dW, aux, kernel, grid)
        xhat[:, :, 1] = grid.nodes ** kernel.zeta
        fv = f.value(xhat)
        contrib = fv[:, :-1] * dX
        y1 = np.zeros((count, grid.N + 1))
        np.cumsum(contrib, axis=1, out=y1[:, 1:])
        cells2 = y1[:, :-1] * contrib \
            + fv[:, :-1] ** 2 * (0.5 * (dX ** 2 - grid.delta))
        y2 = np.zeros((count, grid.N + 1))
        np.cumsum(cells2, axis=1, out=y2[:, 1:])
        yield y1, y2, dX


def _replay_state(kernel, f, sigma, rho, s0, grid, n_paths, seed, chunk):
    """S and X at every node by the whole-chunk formulas, no row blocks."""
    S, X = [], []
    for y1, y2, dX in _replay_levels(kernel, f, rho, grid, n_paths, seed,
                                     chunk):
        count = dX.shape[0]
        if isinstance(sigma, SigmaConstant):
            S.append(s0 + sigma.c * y1)
        else:
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


# N > 512 takes the FFT convolution; 250 paths in chunks of 100 give six
# row blocks of 16 and one of 4 per full chunk, and 3 x 16 + 2 in the last.
_BLOCKED = (core.Grid(T=1.0, N=1024), 250, 100, 13)  # grid, n_paths, chunk, seed


_EXP_F = ExponentialVol(0.3, (0.5, 0.2))
_H_HALF = riemann_liouville(0.5, 0.01)
_H_ROUGH = riemann_liouville(0.3, 0.01)
_TANH = SigmaSmooth(np.tanh, lambda u: 1.0 / np.cosh(u) ** 2)
# sigma(s) = s hands the loop its own state array back: a loop that
# writes into what sigma returned would change the state it steps.
_IDENTITY = SigmaSmooth(fn=lambda x: x, dfn=np.ones_like)


@pytest.mark.parametrize("f, sigma", [
    (_EXP_F, SigmaConstant(0.7)),
    (_EXP_F, SigmaLinear(0.1, 0.5)),
    (ConstantVol(0.3), SigmaLinear(0.0, 1.0)),
    (ConstantVol(0.3), _TANH),
    (_EXP_F, _IDENTITY),
    (ConstantVol(0.3), SigmaConstant(0.7)),
], ids=["constant", "linear", "constant-f-linear", "constant-f-smooth",
        "identity", "constant-f-constant-sigma"])
def test_blocked_engine_is_bit_identical_to_whole_chunks(f, sigma):
    kernel = riemann_liouville(0.1, 0.01)
    grid, n_paths, chunk, seed = _BLOCKED
    snaps = [0, 1, 300, grid.N]
    S_ref, X_ref = _replay_state(kernel, f, sigma, -0.7, 0.5, grid, n_paths,
                                 seed, chunk)
    for threads in (1, 2):
        S, X = simulate_state(kernel, f, sigma, -0.7, 0.5, grid, snaps, n_paths,
                              seed, threads=threads, chunk=chunk)
        np.testing.assert_array_equal(S, S_ref[:, snaps])
        np.testing.assert_array_equal(X, X_ref[:, snaps])


def test_constant_f_skips_the_convolution(monkeypatch):
    calls = []
    real = mc.volterra_convolve_batch

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(mc, "volterra_convolve_batch", counted)
    kernel = riemann_liouville(0.3, 0.01)
    grid = core.Grid(T=1.0, N=64)
    for f, expect_calls in ((ConstantVol(0.2), False),
                            (ExponentialVol(0.3, (0.5, 0.2)), True)):
        calls.clear()
        simulate_state(kernel, f, SigmaLinear(0.0, 1.0), -0.7, 1.0, grid,
                       [32, 64], 20, seed=1, chunk=8)
        assert bool(calls) == expect_calls


@pytest.mark.parametrize("f", [ConstantVol(0.2), ExponentialVol(0.3, (0.5, 0.2))],
                         ids=["constant-f", "exponential-f"])
def test_stepped_chunk_allocates_less_than_one_level_array(monkeypatch, f):
    # Once the first chunk has sized the workspace, a stepped chunk
    # writes its cell increments into it and keeps only the snapshot
    # nodes: no (chunk, N+1) array is allocated, let alone gathered.
    # The stand-in dispatcher runs the second chunk under tracemalloc.
    grid, count = core.Grid(T=1.0, N=4096), 256
    peak = []

    def measured(worker, plan, threads):
        first = worker(*plan[0])
        tracemalloc.start()
        try:
            second = worker(*plan[1])
            peak.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        return [first, second]

    monkeypatch.setattr(mc, "_dispatch", measured)
    simulate_state(riemann_liouville(0.3, 0.01), f, SigmaLinear(0.0, 1.0),
                   -0.7, 1.0, grid, [1, 2048, 4096], 2 * count, 3, chunk=count)
    assert peak and peak[0] < count * (grid.N + 1) * 8


def test_stepped_blow_up_names_the_node_and_paths():
    # sigma(s) = 40 s on 16 cells: the scheme's per-cell factor reaches
    # 40^2 * delta / 2 = 50, so some paths leave [-1e6, 1e6] within a
    # few nodes.  The engine must report what the stepper reports on the
    # first chunk that fails, replayed whole.
    kernel, f = riemann_liouville(0.3, 0.01), ConstantVol(1.0)
    sigma, grid = SigmaLinear(0.0, 40.0), core.Grid(T=1.0, N=16)
    n_paths, chunk, seed = 200, 100, 4
    expected = None
    for y1, y2, _ in _replay_levels(kernel, f, -0.7, grid, n_paths, seed,
                                    chunk):
        try:
            solve_rde_batch(y1, y2, sigma, 1.0)
        except SolverError as exc:
            expected = exc
            break
    assert expected is not None
    for threads in (1, 2):
        with pytest.raises(SolverError) as info:
            simulate_state(kernel, f, sigma, -0.7, 1.0, grid, [8, 16], n_paths,
                           seed, threads=threads, chunk=chunk)
        assert str(info.value) == str(expected)
        assert info.value.last_good_index == expected.last_good_index
    assert "of 100 paths" in str(expected)


def _engine_runs(grid, n_paths, chunk, threads=1, rho=-0.7):
    """One call of each Monte Carlo engine on ``grid``, keyed by engine."""
    kernel, sigma = _H_ROUGH, SigmaLinear(0.0, 1.0)
    problem = RateProblem(ConstantVol(0.3), 1.0, -0.7, 0.3, K=8, restarts=1,
                          seed=0, z_grid=(0.05,))
    kw = dict(threads=threads, chunk=chunk)
    return {
        "state": lambda: simulate_state(kernel, _EXP_F, sigma, rho, 1.0, grid,
                                        [grid.N], n_paths, 1, **kw),
        "price": lambda: price_and_implied_vol(kernel, _EXP_F, sigma, rho,
                                               1.0, grid, (1.0,), (1.0,),
                                               n_paths, 1, **kw),
        "ldp": lambda: ldp_tail_check(kernel, _EXP_F, SigmaConstant(1.0),
                                      rho, grid, 0.05, (0.25, 0.5, 1.0),
                                      problem, n_paths, 1, min_count=1, **kw),
        "moments": lambda: moment_scaling_check(kernel, grid, rho, n_paths,
                                                1, **kw),
        "ito": lambda: ito_consistency_check(kernel, SMALL, _EXP_F, rho, grid,
                                             n_paths, 1, **kw),
        "rde": lambda: rde_convergence_check(sigma, ConstantVol(0.3), rho,
                                             1.0, grid.N // 2, n_paths, 1,
                                             **kw),
    }


_ENGINES = ("state", "price", "ldp", "moments", "ito", "rde")


def _no_stream(*args, **kwargs):
    raise AssertionError("a stream was made")


def test_working_set_guard_fires_before_any_draw(monkeypatch):
    monkeypatch.setattr(mc, "stream", _no_stream)
    huge = 1 << 40  # a (3, 2^40, 4096) draw is 10^17 bytes
    for run in _engine_runs(core.Grid(T=1.0, N=4096), huge, huge).values():
        with pytest.raises(ConfigurationError, match="physical memory"):
            run()


@pytest.mark.parametrize("engine", _ENGINES)
@pytest.mark.parametrize("threads", [0, -2])
def test_every_engine_refuses_fewer_than_one_thread(monkeypatch, engine,
                                                    threads):
    # The working-set guard counts min(threads, chunks) workers, so a
    # thread count below 1 would run on one thread unguarded.
    monkeypatch.setattr(mc, "stream", _no_stream)
    run = _engine_runs(core.Grid(T=1.0, N=128), 20, 8, threads)[engine]
    with pytest.raises(ConfigurationError, match="at least one thread"):
        run()


@pytest.mark.parametrize("engine", _ENGINES)
@pytest.mark.parametrize("rho", [1.5, -1.0000001, float("nan")],
                         ids=["1.5", "-1.0000001", "nan"])
def test_every_engine_refuses_rho_outside_the_unit_interval(monkeypatch,
                                                            engine, rho):
    # The draw clips 1 - rho^2 at 0, so an out-of-range rho would run a
    # driver with no independent part, dX = rho dW, and NaN would spread
    # through every sample: the chunk runner refuses it before any draw.
    monkeypatch.setattr(mc, "stream", _no_stream)
    run = _engine_runs(core.Grid(T=1.0, N=128), 20, 8, rho=rho)[engine]
    with pytest.raises(ConfigurationError, match=r"rho must lie in \[-1, 1\]"):
        run()


@pytest.mark.parametrize("engine", _ENGINES)
@pytest.mark.parametrize("rho", [1.0, -1.0])
def test_every_engine_accepts_rho_at_the_interval_ends(engine, rho):
    _engine_runs(core.Grid(T=1.0, N=128), 20, 8, rho=rho)[engine]()


@pytest.mark.parametrize("engine", _ENGINES)
def test_each_call_dispatches_once_and_draws_once_per_chunk(monkeypatch,
                                                            engine):
    # perfbench traces mc._dispatch (its mc.chunk spans) and
    # mc._draw_increments (mc.draw): both must stay on every engine's
    # route, looked up as module globals at call time.
    dispatches, draws = [], []
    real_dispatch, real_draw = mc._dispatch, mc._draw_increments

    def dispatch(worker, plan, threads):
        dispatches.append(len(plan))
        return real_dispatch(worker, plan, threads)

    def draw(*args, **kwargs):
        draws.append(args[1])
        return real_draw(*args, **kwargs)

    monkeypatch.setattr(mc, "_dispatch", dispatch)
    monkeypatch.setattr(mc, "_draw_increments", draw)
    _engine_runs(core.Grid(T=1.0, N=128), 20, 8, threads=2)[engine]()
    assert dispatches == [3]
    assert sorted(draws) == [0, 1, 2]


class _Drew(Exception):
    pass


def _guard_threshold(monkeypatch, run):
    """Least physical memory for which the working-set guard lets ``run``
    through, found without drawing: a run past the guard makes a stream,
    which raises here."""
    def no_stream(*args, **kwargs):
        raise _Drew

    limit = [0]
    lo, hi = 0, 1 << 40  # the guard stops the run at lo, not at hi
    with monkeypatch.context() as patch:
        patch.setattr(mc, "stream", no_stream)
        patch.setattr(mc, "_physical_memory", lambda: limit[0])
        while hi - lo > 1:
            limit[0] = (lo + hi) // 2
            try:
                run()
            except ConfigurationError:
                lo = limit[0]
            except _Drew:
                hi = limit[0]
    return hi


def test_working_set_guard_counts_the_rows_drawn(monkeypatch):
    # Constant f keeps one row of the draw, dX, and draws the X normals
    # one row block at a time; ExponentialVol at H = 0.3 keeps dW and dX
    # and draws the touching-cell normals one row block at a time; with
    # memory between the two estimates only the first may run.
    kernel = riemann_liouville(0.3, 0.01)
    grid, count = core.Grid(T=1.0, N=64), 40

    def run(f):
        return simulate_state(kernel, f, SigmaLinear(0.0, 1.0), -0.7, 1.0,
                              grid, [32, 64], count, seed=1, chunk=count)

    two = _guard_threshold(monkeypatch, lambda: run(ConstantVol(0.2)))
    three = _guard_threshold(monkeypatch, lambda: run(_EXP_F))
    # One (count, N+1) row: dW.
    assert three - two == 8 * (grid.N + 1) * count

    streams = []

    def counted(*args):
        streams.append(args)
        return stream(*args)

    monkeypatch.setattr(mc, "stream", counted)
    monkeypatch.setattr(mc, "_physical_memory", lambda: (two + three) // 2)
    S, _ = run(ConstantVol(0.2))
    assert S.shape == (count, 2) and len(streams) == 1
    with pytest.raises(ConfigurationError, match="physical memory"):
        run(_EXP_F)
    assert len(streams) == 1


@pytest.mark.parametrize("threads", [1, 2])
def test_working_set_estimate_at_the_tail_rough_config(monkeypatch, threads):
    # The tail check of the acceptance suite and the benchmark: 1024-path
    # chunks at N = 4096, constant sigma, the touching-cell normals read.
    # Per thread, 8 (N+1) (2 * 1024 + (16 + 1) * 16) bytes: 72.5 MiB.
    f = ExponentialVol(1.0, (1.0, 0.0))
    T = 4e-3
    problem = RateProblem(f, 1.0, -0.7, 0.3, K=64, restarts=8, seed=0,
                          z_grid=(0.3,))
    t_values = T * np.array([256, 512, 1024, 2048, 4096]) / 4096.0
    estimate = _guard_threshold(monkeypatch, lambda: ldp_tail_check(
        _H_ROUGH, f, SigmaConstant(1.0), -0.7, core.Grid(T=T, N=4096), 0.3,
        t_values, problem, n_paths=1 << 15, seed=7, threads=threads))
    assert estimate == threads * 76_040_320


def test_working_set_estimate_at_the_price_lognormal_config(monkeypatch):
    # The pricing benchmark: 1024-path chunks at N = 4096, constant f,
    # linear sigma, one thread.  Per thread, the dX row, one row block
    # of arrays with its block of X normals, and one node segment's
    # arrays: 8 ((N+1) (1024 + (16 + 1) * 16) + 11 * 65 * 1024) bytes,
    # 46.1 MiB.
    estimate = _guard_threshold(monkeypatch, lambda: price_and_implied_vol(
        _H_ROUGH, ConstantVol(0.2), SigmaLinear(0.0, 1.0), -0.7, 1.0,
        core.Grid(T=1.0, N=4096), (0.9, 1.0, 1.1), (0.25, 0.5, 1.0),
        1 << 13, 7))
    assert estimate == 48_334_976


def test_constant_f_stepped_call_holds_one_draw_row():
    # A whole constant-f stepped call, after a warm call has made every
    # import: its peak is one (chunk, N) row of the draw, dX, plus one
    # row block of X normals and one node segment's arrays, plus fewer
    # than 32 vectors of chunk floats (the stepper's state and scratch,
    # sigma's values, derivatives and temporaries, the kept nodes and
    # each chunk's states and payoffs), far below a second draw row.
    count, grid = 512, core.Grid(T=1.0, N=4096)

    def call():
        price_and_implied_vol(_H_ROUGH, ConstantVol(0.2),
                              SigmaLinear(0.0, 1.0), -0.7, 1.0, grid,
                              (0.9, 1.0, 1.1), (0.25, 0.5, 1.0), 2 * count, 7,
                              chunk=count)

    call()
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    draw_row = count * grid.N
    block = mc._ROW_BLOCK * grid.N
    segment = mc._SEGMENT_ROWS * (mc._NODE_SEGMENT + 1) * count
    assert 8 * draw_row < peak <= 8 * (draw_row + block + segment + 32 * count)


def _holding_workspace(held):
    """A workspace class that appends, per instance, the most bytes the
    calling thread's views held at once."""
    class Holding(_Workspace):
        def __init__(self):
            super().__init__()
            self.index = len(held)
            held.append(0)

        def view(self, name, shape, dtype=np.float64):
            arr = super().view(name, shape, dtype)
            now = sum(a.nbytes for a in self._local.__dict__.values())
            held[self.index] = max(held[self.index], now)
            return arr

    return Holding


_WORKING_SET_GRID = core.Grid(T=1.0, N=1024)  # N > 512: the FFT arrays count


def _state_run(f, sigma, kernel=_H_ROUGH):
    return lambda count: simulate_state(
        kernel, f, sigma, -0.7, 1.0, _WORKING_SET_GRID, [1, 512, 1024],
        count, 2, chunk=count)


def _check_run(engine):
    return lambda count: _engine_runs(_WORKING_SET_GRID, count, count)[engine]()


@pytest.mark.parametrize("count", [64, 256])
@pytest.mark.parametrize("run", [
    _state_run(ConstantVol(0.3), SigmaConstant(0.7)),
    _state_run(_EXP_F, SigmaConstant(0.7)),
    _state_run(ConstantVol(0.3), SigmaLinear(0.1, 0.5)),
    _state_run(_EXP_F, SigmaLinear(0.1, 0.5)),
    _state_run(_EXP_F, SigmaConstant(0.7), kernel=_H_HALF),
    _check_run("moments"),
    _check_run("ito"),
    _check_run("rde"),
], ids=["constant-f-constant-sigma", "exponential-f-constant-sigma",
        "constant-f-stepped-sigma", "exponential-f-stepped-sigma",
        "exponential-f-H-half", "moments", "ito", "rde"])
def test_working_set_estimate_bounds_what_the_workspace_holds(monkeypatch,
                                                              run, count):
    # The guard's per-thread estimate is kept by hand; the bytes one
    # thread's workspace views hold during a one-chunk call must not
    # exceed it.  With one chunk on one thread, the least physical
    # memory the guard lets through is that estimate.
    estimate = _guard_threshold(monkeypatch, lambda: run(count))
    held = []
    monkeypatch.setattr(mc, "_Workspace", _holding_workspace(held))
    run(count)
    assert len(held) == 1 and 0 < held[0] <= estimate


def test_two_row_draw_is_the_prefix_of_the_three_row_draw():
    # The stream fills a draw in order, so a chunk that never reads its
    # third row leaves dW and dX with their bits, at odd shapes and
    # inside a larger workspace buffer; the third row, drawn block by
    # block as it is read, has the bits of the whole draw.
    n, N = 37, 1000
    three = stream(5, "mc", 3).standard_normal((3, n, N))
    work = _Workspace()
    work.view("draw", (3, n + 4, N))

    grid = core.Grid(T=1.0, N=N)
    dW3, dX3, aux3 = mc._draw_increments(5, 3, n, grid, -0.7)
    dW2, dX2, _ = mc._draw_increments(5, 3, n, grid, -0.7, work)
    np.testing.assert_array_equal(dW2, dW3)
    np.testing.assert_array_equal(dX2, dX3)
    for rows in (slice(0, 16), slice(16, 32), slice(32, n)):
        np.testing.assert_array_equal(aux3[rows], three[2][rows])


@pytest.mark.parametrize("driver", [True, False], ids=["driver", "no-driver"])
def test_draw_increments_have_the_bits_of_the_whole_draw(driver):
    # dW drawn whole and the X normals in 16-path blocks give the dW and
    # dX of the whole (3, n, N) draw, scaled as dX = rho dW + perp sq Z,
    # at an n that ends on a partial block; with the driver dX has its
    # own row, without it dX is formed in dW's rows and dW is not kept.
    n, rho = 37, -0.7
    grid = core.Grid(T=1.0, N=64)
    three = stream(5, "mc", 3).standard_normal((3, n, grid.N))
    sq = math.sqrt(grid.delta)
    dW_whole = three[0] * sq
    x = three[1] * sq
    x *= math.sqrt(1.0 - rho ** 2)
    dW, dX, aux = mc._draw_increments(5, 3, n, grid, rho, driver=driver)
    np.testing.assert_array_equal(dX, x + rho * dW_whole)
    if driver:
        np.testing.assert_array_equal(dW, dW_whole)
    else:
        assert dW is None
    np.testing.assert_array_equal(aux[0:n], three[2])


def test_touching_cell_rows_must_be_read_in_order():
    grid = core.Grid(T=1.0, N=64)
    _, _, aux = mc._draw_increments(5, 3, 37, grid, -0.7)
    first = aux[0:16].copy()
    for rows in (slice(0, 16), slice(32, 37), slice(16, 37, 2), slice(16, 16),
                 3, (slice(16, 32),)):
        with pytest.raises(IndexError, match="drawn in order"):
            aux[rows]
    # A refused read draws nothing: the next block still follows on.
    three = stream(5, "mc", 3).standard_normal((3, 37, grid.N))
    np.testing.assert_array_equal(first, three[2][:16])
    np.testing.assert_array_equal(aux[16:37], three[2][16:])
    with pytest.raises(IndexError, match="drawn in order"):
        aux[36:37]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("engine", ["state", "moments", "ito"])
def test_touching_cell_blocks_are_the_whole_third_row(monkeypatch, engine,
                                                      threads):
    # Every row the convolution reads equals the third row of the
    # chunk's whole (3, count, N) draw.  37 paths in chunks of 20 end
    # each chunk on a partial row block (16 + 4, 16 + 1).  Rows are
    # matched by their dW bits, which the engine scales in place as the
    # replay does.
    grid, n_paths, chunk, seed = core.Grid(T=1.0, N=128), 37, 20, 1
    expected = {}
    for cid, start in enumerate(range(0, n_paths, chunk)):
        count = min(chunk, n_paths - start)
        norms = stream(seed, "mc", cid).standard_normal((3, count, grid.N))
        norms[0] *= math.sqrt(grid.delta)
        for dw, aux in zip(norms[0], norms[2]):
            expected[dw.tobytes()] = aux
    seen = []
    real = mc.volterra_convolve_batch

    def recording(dW, aux, *args, **kwargs):
        for dw, row in zip(dW, aux):
            seen.append(dw.tobytes())
            np.testing.assert_array_equal(row, expected[dw.tobytes()])
        return real(dW, aux, *args, **kwargs)

    monkeypatch.setattr(mc, "volterra_convolve_batch", recording)
    _engine_runs(grid, n_paths, chunk, threads)[engine]()
    assert sorted(seen) == sorted(expected)


@pytest.mark.parametrize("run, expected", [
    (lambda: simulate_state(_H_ROUGH, ConstantVol(0.3), SigmaLinear(0.0, 1.0),
                            -0.7, 1.0, core.Grid(T=1.0, N=64), [64], 20, 1,
                            chunk=8), 2),
    (lambda: simulate_state(_H_HALF, _EXP_F, SigmaLinear(0.0, 1.0), -0.7, 1.0,
                            core.Grid(T=1.0, N=64), [64], 20, 1, chunk=8), 2),
    (lambda: simulate_state(_H_ROUGH, _EXP_F, SigmaLinear(0.0, 1.0), -0.7, 1.0,
                            core.Grid(T=1.0, N=64), [64], 20, 1, chunk=8), 3),
    (lambda: price_and_implied_vol(_H_ROUGH, ConstantVol(0.3),
                                   SigmaLinear(0.0, 1.0), -0.7, 1.0,
                                   core.Grid(T=1.0, N=64), (1.0,), (1.0,),
                                   20, 1, chunk=8), 2),
    (lambda: moment_scaling_check(_H_HALF, core.Grid(T=1.0, N=128), -0.7, 20,
                                  1, chunk=8), 2),
    (lambda: moment_scaling_check(_H_ROUGH, core.Grid(T=1.0, N=128), -0.7, 20,
                                  1, chunk=8), 3),
    (lambda: ito_consistency_check(_H_HALF, SMALL, _EXP_F, -0.7,
                                   core.Grid(T=1.0, N=128), 2, 1), 2),
    (lambda: ito_consistency_check(_H_ROUGH, SMALL, _EXP_F, -0.7,
                                   core.Grid(T=1.0, N=128), 2, 1), 3),
    (lambda: rde_convergence_check(SigmaLinear(0.0, 1.0), ConstantVol(1.0),
                                   0.0, 1.0, 32, 20, 1, chunk=8), 2),
], ids=["constant-f", "exponential-f-H-half", "exponential-f-H-rough",
        "price-constant-f", "moments-H-half", "moments-H-rough", "ito-H-half",
        "ito-H-rough", "rde-convergence"])
def test_chunks_draw_only_the_rows_they_read(monkeypatch, run, expected):
    # Each stream's first draw is the (count, N) dW, drawn whole; over
    # the chunk it draws rows * count * N normals in all.
    streams = []

    class Recording:
        def __init__(self, gen):
            self.gen, self.first, self.normals = gen, None, 0
            streams.append(self)

        def standard_normal(self, size, out=None):
            self.first = self.first or size
            self.normals += math.prod(size)
            return self.gen.standard_normal(size, out=out)

    monkeypatch.setattr(mc, "stream", lambda *args: Recording(stream(*args)))
    run()
    assert streams
    for rec in streams:
        count, N = rec.first[-2:]
        assert rec.normals == expected * count * N


@pytest.mark.parametrize("sigma", [SigmaConstant(0.7), SigmaLinear(0.1, 0.5)],
                         ids=["constant", "linear"])
def test_two_row_chunks_are_bit_identical_to_the_three_row_replay(sigma):
    # At H = 1/2 the convolution never reads the third row, so the
    # engine does not draw it; the replay draws all three.
    grid, n_paths, chunk, seed = _BLOCKED
    snaps = [0, 1, 300, grid.N]
    S_ref, X_ref = _replay_state(_H_HALF, _EXP_F, sigma, -0.7, 0.5, grid,
                                 n_paths, seed, chunk)
    for threads in (1, 2):
        S, X = simulate_state(_H_HALF, _EXP_F, sigma, -0.7, 0.5, grid, snaps,
                              n_paths, seed, threads=threads, chunk=chunk)
        np.testing.assert_array_equal(S, S_ref[:, snaps])
        np.testing.assert_array_equal(X, X_ref[:, snaps])

    t_nodes = grid.N >> np.arange(6, -1, -1)  # 16, 32, ..., 1024
    for threads in (1, 2):
        moments = moment_scaling_check(_H_HALF, grid, -0.7, n_paths, seed,
                                       chunk=chunk, threads=threads)
        expected = _replay_mean_squares(_H_HALF, grid, n_paths, seed, chunk,
                                        t_nodes, moments.indices)
        for i in moments.indices:
            np.testing.assert_array_equal(moments.mean_squares[i], expected[i])


def _replay_mean_squares(kernel, grid, n_paths, seed, chunk, t_nodes, indices):
    """moment_scaling_check's mean squares, each chunk drawn and summed whole."""
    total = {i: np.zeros(t_nodes.size) for i in indices}
    for dW, dX, aux in _replay_chunks(seed, -0.7, grid, n_paths, chunk):
        conv = volterra_convolve_batch(dW, aux, kernel, grid)
        for i in indices:
            w = (conv[:, :-1] ** i[0]) * (grid.nodes[:-1] ** kernel.zeta) ** i[1] \
                / core.midx_factorial(i)
            a = np.cumsum(w * dX, axis=1)
            total[i] = total[i] + np.sum(a[:, t_nodes - 1] ** 2, axis=0)
    return {i: total[i] / n_paths for i in indices}


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
    t_nodes = grid.N >> np.arange(6, -1, -1)  # 16, 32, ..., 1024
    moments = moment_scaling_check(kernel, grid, -0.7, n_paths, seed,
                                   chunk=chunk)
    expected = _replay_mean_squares(kernel, grid, n_paths, seed, chunk, t_nodes,
                                    moments.indices)
    for i in moments.indices:
        np.testing.assert_array_equal(moments.mean_squares[i], expected[i])


def test_draw_buffer_is_not_shared_across_calls():
    grid = core.Grid(T=1.0, N=4096)
    kernel = riemann_liouville(0.3, 0.01)
    # Constant sigma telescopes; linear sigma is stepped and also fills
    # the second-level workspace arrays.
    for sigma in (SigmaConstant(1.0), SigmaLinear(0.0, 1.0)):
        args = (kernel, ConstantVol(0.5), sigma, -0.3, 1.0, grid,
                [1, 2048, 4096], 16)
        S1, X1 = simulate_state(*args, seed=1, chunk=8)
        kept = S1.copy(), X1.copy()
        S2, X2 = simulate_state(*args, seed=2, chunk=8)
        np.testing.assert_array_equal(S1, kept[0])
        np.testing.assert_array_equal(X1, kept[1])
        assert not np.array_equal(S1, S2)

        # Two 64-path chunks draw 2 * 64 * 4096 normals each (4.2 MB;
        # constant f reads no third row) into the call's workspace,
        # beside its FFT, driver and level arrays (about 30 MB more);
        # none of that may stay allocated once the call has returned.
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
    # Node 1.5 used to run as node 1; a whole float is still a node.
    for snaps in ([1.5], [8, 12.25], [float("nan")], [float("inf")]):
        with pytest.raises(ConfigurationError, match="whole numbers"):
            simulate_state(kernel, ok["f"], ok["sigma"], 0.0, 1.0, grid,
                           snaps, 2, 1)
    for got, want in zip(
            simulate_state(kernel, ok["f"], ok["sigma"], 0.0, 1.0, grid,
                           [8.0, 16.0], 2, 1),
            simulate_state(kernel, ok["f"], ok["sigma"], 0.0, 1.0, grid,
                           [8, 16], 2, 1)):
        np.testing.assert_array_equal(got, want)


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


def test_moment_scaling_degenerate_moment(monkeypatch):
    # At node 1 the level-1 value with weight xhat^i is exactly zero for
    # |i| >= 1 because xhat starts at the origin: N = 64, whose smallest
    # derived node is 1, is refused before any draw.
    monkeypatch.setattr(mc, "stream", _no_stream)
    kernel = riemann_liouville(0.3, 0.01)
    grid = core.Grid(T=1.0, N=64)
    with pytest.raises(ConfigurationError, match="at least 128"):
        moment_scaling_check(kernel, grid, 0.0, 10, seed=1)


def _grid_checks(grid, rho=0.0, kernel=_H_ROUGH):
    """The two checks that take their nodes from ``grid``, by name."""
    return {"moments": lambda: moment_scaling_check(kernel, grid, rho, 4, 1),
            "ito": lambda: ito_consistency_check(kernel, SMALL, _EXP_F, rho,
                                                 grid, 2, 1)}


@pytest.mark.parametrize("check", ["moments", "ito"])
def test_checks_take_their_nodes_from_the_grid(monkeypatch, check):
    # One rule for both checks: N divisible by 64 and at least 128,
    # refused before any draw, and only after a bad rho.
    with monkeypatch.context() as patch:
        patch.setattr(mc, "stream", _no_stream)
        for N in (64, 96, 100):
            grid = core.Grid(T=1.0, N=N)
            with pytest.raises(ConfigurationError,
                               match=f"divisible by 64 and at least 128, got {N}"):
                _grid_checks(grid)[check]()
            with pytest.raises(ConfigurationError, match="rho must lie in"):
                _grid_checks(grid, rho=1.5)[check]()
    grid = core.Grid(T=1.0, N=128)
    report = _grid_checks(grid)[check]()
    if check == "moments":
        np.testing.assert_array_equal(report.t_values,
                                      grid.nodes[[2, 4, 8, 16, 32, 64, 128]])
    else:
        assert report.coarse_cells == (2, 8, 32)


def test_ito_refuses_what_the_lift_refuses(monkeypatch):
    # beta = 0.2 exceeds zeta = 0.04 at H = 0.05: build_lift refuses such
    # a lift, and so does the ito check, before any draw and after the
    # grid.
    monkeypatch.setattr(mc, "stream", _no_stream)
    kernel = riemann_liouville(0.05, 0.01)
    for N, match in ((128, "exceeds the kernel regularity"), (64, "at least 128")):
        with pytest.raises(ConfigurationError, match=match):
            _grid_checks(core.Grid(T=1.0, N=N), kernel=kernel)["ito"]()


def test_check_tolerances_are_fixed():
    # A moment slope passes within 0.05 of its exponent and the ito
    # ratio at 0.5 or below, both bounds inclusive.
    assert (mc.MOMENTS_TOL, mc.ITO_MAX_RATIO) == (0.05, 0.5)
    report = moment_scaling_check(riemann_liouville(0.3, 0.01),
                                  core.Grid(T=1.0, N=128), 0.0, 10, seed=1)
    assert report.tol == 0.05
    for dev, passed in ((0.05, True), (np.nextafter(0.05, 1.0), False)):
        devs = dict.fromkeys(report.indices, dev)
        assert dataclasses.replace(report, deviations=devs).passed is passed
    ito = mc.ItoConsistencyReport(coarse_cells=(16,), rms={16: 1.0},
                                  ratio=0.5, n_paths=1, seed=0)
    assert ito.passed()
    assert not dataclasses.replace(ito, ratio=np.nextafter(0.5, 1.0)).passed()


# ---------------------------------------------------------------------------
# compensated-sum consistency


def test_ito_constant_f_has_no_higher_order_mass():
    # With constant f every index above the zero index contributes
    # nothing, so compensated and plain sums coincide bit for bit.
    report = ito_consistency_check(riemann_liouville(0.3, 0.01), SMALL,
                                   ConstantVol(1.3), rho=-0.7,
                                   grid=core.Grid(T=1.0, N=128),
                                   n_paths=4, seed=2)
    assert report.rms == {2: 0.0, 8: 0.0, 32: 0.0}
    assert report.ratio == 0.0
    assert report.passed()


def test_ito_report_shrinks_with_the_mesh():
    kwargs = dict(f=ExponentialVol(1.0, (1.0, 1.0)), rho=-0.7,
                  grid=core.Grid(T=1.0, N=256), n_paths=6, seed=2, chunk=2)
    report = ito_consistency_check(riemann_liouville(0.3, 0.01), SMALL, **kwargs)
    assert report.coarse_cells == (4, 16, 64)
    assert report.rms[64] < report.rms[16] < report.rms[4]
    assert 0.2 < report.ratio < 0.7
    assert report.ratio == report.rms[64] / report.rms[4]

    again = ito_consistency_check(riemann_liouville(0.3, 0.01), SMALL,
                                  threads=3, **kwargs)
    assert report.rms == again.rms


def _ito_by_lift(kernel, config, f, rho, grid, seed, cells):
    """D of the one path of an ``n_paths = 1`` ito call on ``cells`` cells,
    by the lift route: the compensated sum minus the plain left-point
    sum, with their scale S = sum_cells |f(xhat_left)| (|x_left| + |x_right|).
    """
    dW, dX, aux = next(_replay_chunks(seed, rho, grid, 1, 8))
    conv = volterra_convolve_batch(dW, aux, kernel, grid)
    xhat = np.column_stack([conv[0], grid.nodes ** kernel.zeta])
    x = np.concatenate([[0.0], np.cumsum(dX[0])])
    prp = core.lift_sampled_paths(xhat, x[:, None], config, grid)
    part = np.arange(cells + 1) * (grid.N // cells)
    lefts, rights = part[:-1], part[1:]
    f_left = f.value(prp.xhat[lefts])
    D = compensated_sum_level1(prp, f, part)[0] - f_left @ (x[rights] - x[lefts])
    return D, np.abs(f_left) @ (np.abs(x[lefts]) + np.abs(x[rights]))


@pytest.mark.parametrize("config, N", [
    (SMALL, 256), (core.build_index_sets(0.4, 0.08, 2), 4096)],
    ids=["small-sets", "default-sets"])
def test_ito_sums_what_the_lift_route_sums(config, N):
    # The stage sums the cell terms with |i| >= 1 directly; the lift
    # route forms the whole compensated sum and subtracts the plain sum,
    # two sums of size S, so it rounds at a few eps * S (3.1 eps * S at
    # most over 30 seeds of both configs): 32 eps * S leaves a factor of
    # ten.  Dropping the top-degree indices moves D by far more.
    kernel, f = riemann_liouville(0.3, 0.01), ExponentialVol(1.0, (1.0, 1.0))
    rho, grid = -0.7, core.Grid(T=1.0, N=N)
    for seed in range(3):
        report = ito_consistency_check(kernel, config, f, rho, grid, 1, seed)
        for cells in report.coarse_cells:
            D, scale = _ito_by_lift(kernel, config, f, rho, grid, seed, cells)
            tol = 32 * np.finfo(float).eps * scale
            assert abs(report.rms[cells] - abs(D)) <= tol


def test_ito_refuses_an_rms_that_overflows():
    # f = 1e200 exp(...): the compensated sums or their squares overflow.
    with np.errstate(all="ignore"), \
            pytest.raises(ConfigurationError, match="must be finite"):
        ito_consistency_check(riemann_liouville(0.3, 0.01), SMALL,
                              ExponentialVol(1e200, (1.0, 1.0)), rho=-0.7,
                              grid=core.Grid(T=1.0, N=128), n_paths=1, seed=2)


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


@pytest.mark.parametrize("strikes, s0", [
    ((1.0, math.nan), 1.0), ((0.0,), 1.0), ((-1.0, 1.0), 1.0),
    ((1.0, math.inf), 1.0), ((1.0,), 0.0), ((1.0,), math.nan),
    ((1.0,), math.inf)],
    ids=["K-nan", "K-0", "K-neg", "K-inf", "S0-0", "S0-nan", "S0-inf"])
def test_price_table_refuses_strikes_and_spot_it_cannot_invert(monkeypatch,
                                                                strikes, s0):
    # The pricing formula takes no such strike or spot, so every row
    # would have been NaN or a bound note: refuse before any draw.
    monkeypatch.setattr(mc, "stream", _no_stream)
    with pytest.raises(ConfigurationError, match="positive and finite"):
        price_and_implied_vol(riemann_liouville(0.5, 0.01), ConstantVol(1.0),
                              SigmaLinear(0.0, 1.0), rho=0.0, s0=s0,
                              grid=core.Grid(T=1.0, N=64), strikes=strikes,
                              maturities=(0.25,), n_paths=10, seed=1)


# ---------------------------------------------------------------------------
# scheme convergence


def test_rde_convergence_against_closed_form():
    report = rde_convergence_check(SigmaLinear(0.0, 1.0), ConstantVol(1.0),
                                   rho=0.0, s0=1.0, n_coarse=64, n_paths=512,
                                   seed=3, chunk=256)
    assert report.n_cells == (64, 128)
    assert report.rms[128] < report.rms[64]
    assert report.ratio == report.rms[128] / report.rms[64]
    assert 0.35 < report.ratio < 0.65
    assert report.n_paths == 512 and report.seed == 3


def test_rde_convergence_is_bit_identical_to_whole_chunks():
    # Replays the check's first form: each chunk's three rows drawn
    # whole, levels and stepping at both resolutions on whole chunks.
    b, c, rho, s0, n_coarse = 1.5, 0.8, -0.7, 1.0, 256
    n_paths, chunk, seed = 150, 100, 6
    fine = core.Grid(T=1.0, N=2 * n_coarse)
    m = b * c
    rel = []
    for _, dX, _ in _replay_chunks(seed, rho, fine, n_paths, chunk):
        count = dX.shape[0]
        out = np.zeros((count, 2))
        for res, inc in enumerate((dX.reshape(count, n_coarse, 2).sum(axis=2),
                                   dX)):
            contrib = c * inc
            y1 = np.zeros((count, inc.shape[1] + 1))
            np.cumsum(contrib, axis=1, out=y1[:, 1:])
            cells2 = y1[:, :-1] * contrib \
                + c ** 2 * (0.5 * (inc ** 2 - 1.0 / inc.shape[1]))
            y2 = np.zeros_like(y1)
            np.cumsum(cells2, axis=1, out=y2[:, 1:])
            S = s0 + solve_rde_batch(y1, y2, SigmaLinear(0.0, b), s0)[:, -1]
            exact = s0 * np.exp(m * np.sum(inc, axis=1) - 0.5 * m ** 2 * 1.0)
            out[:, res] = (S - exact) / exact
        rel.append(out)
    rel = np.concatenate(rel)
    for threads in (1, 2):
        report = rde_convergence_check(SigmaLinear(0.0, b), ConstantVol(c),
                                       rho, s0, n_coarse, n_paths, seed,
                                       threads=threads, chunk=chunk)
        assert report.rms == {n_coarse: float(np.sqrt(np.mean(rel[:, 0] ** 2))),
                              2 * n_coarse: float(np.sqrt(np.mean(rel[:, 1] ** 2)))}


def test_rde_convergence_needs_the_benchmark_model():
    with pytest.raises(ConfigurationError, match="constant f"):
        rde_convergence_check(SigmaLinear(0.5, 1.0), ConstantVol(1.0),
                              rho=0.0, s0=1.0, n_coarse=16, n_paths=8, seed=1)
    with pytest.raises(ConfigurationError, match="constant f"):
        rde_convergence_check(SigmaLinear(0.0, 1.0),
                              ExponentialVol(1.0, (1.0, 0.0)),
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


def test_ldp_refuses_a_rate_problem_of_another_H(monkeypatch):
    # The thresholds z t^(1/2 - H) read the rate problem's H: scoring
    # an H = 1/2 sample against an H = 0.3 rate stops before any draw.
    with monkeypatch.context() as patch:
        patch.setattr(mc, "stream", _no_stream)
        with pytest.raises(ConfigurationError, match="not the kernel's H"):
            ldp_tail_check(riemann_liouville(0.5, 0.01), ConstantVol(0.2),
                           SigmaConstant(1.0), 0.0, core.Grid(T=0.5, N=8),
                           0.15, (0.125, 0.25, 0.375, 0.5),
                           RateProblem(ConstantVol(0.3), 2.0, -0.7, 0.3, K=16,
                                       restarts=2), 20000, 7)
    # The benchmark's tail model, whose kernel H is 0.29 - 0.49 + 0.5 in
    # floating point, still runs (2^11 paths, its reduced size).
    f, T = ExponentialVol(1.0, (1.0, 0.0)), 4e-3
    report = ldp_tail_check(
        _H_ROUGH, f, SigmaConstant(1.0), -0.7, core.Grid(T=T, N=4096), 0.3,
        T * np.array([256, 384, 512, 768, 1024, 1536, 2048, 3072, 4096])
        / 4096.0,
        RateProblem(f, 1.0, -0.7, 0.3, K=64, restarts=8, seed=0,
                    z_grid=(0.3,)), 1 << 11, 7, min_count=5)
    assert report.n_paths == 1 << 11 and report.rate_value > 0


@pytest.mark.parametrize("min_count", [0, -3, 0.5])
def test_ldp_refuses_min_count_below_one(monkeypatch, min_count):
    # A horizon with no exceedance entered the fit as -log 0 and made the
    # slope NaN; the call now stops before any path is drawn.
    monkeypatch.setattr(mc, "stream", _no_stream)
    f, problem, grid, t_values = _gaussian_tail_setup()
    with pytest.raises(ConfigurationError, match="min_count"):
        ldp_tail_check(riemann_liouville(0.5, 0.01), f, SigmaConstant(1.0),
                       0.0, grid, 0.6, t_values, problem, n_paths=2000,
                       seed=7, min_count=min_count)

