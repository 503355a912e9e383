import numpy as np
import pytest
import scipy.integrate

from parpath import core, rde
from parpath.exceptions import ConfigurationError, DomainError, SolverError
from parpath.integrate import RoughPath, integrate
from parpath.lift import (_Workspace, build_lift_quadrature, riemann_liouville,
                          simulate_brownian)
from parpath.rde import (
    RdeProblem,
    SigmaConstant,
    SigmaLinear,
    SigmaSmooth,
    shifted,
    solve_model,
    solve_rde,
    solve_rde_batch,
)
from parpath.volfn import ConstantVol, ExponentialVol


@pytest.fixture(scope="module")
def smooth_driver():
    # Y1 = t, Y2 = t^2/2: integrating unit vol against X_t = t
    cfg = core.build_index_sets(0.45, 0.2, 2)
    grid = core.Grid(T=1.0, N=1024)
    prp = build_lift_quadrature((np.sin, lambda t: t ** 0.29), cfg, grid)
    driver, _ = integrate(prp, ConstantVol(1.0))
    return driver


# ---------------------------------------------------------------------------
# sigma families


def test_sigma_values_and_derivs():
    s = np.array([-1.0, 0.0, 2.5])
    c = SigmaConstant(0.3)
    np.testing.assert_array_equal(c.value(s), [0.3, 0.3, 0.3])
    np.testing.assert_array_equal(c.deriv(s), [0.0, 0.0, 0.0])
    lin = SigmaLinear(1.0, 2.0)
    np.testing.assert_array_equal(lin.value(s), [-1.0, 1.0, 6.0])
    np.testing.assert_array_equal(lin.deriv(s), [2.0, 2.0, 2.0])
    sm = SigmaSmooth(np.tanh, lambda u: 1.0 / np.cosh(u) ** 2)
    np.testing.assert_allclose(sm.value(s), np.tanh(s), rtol=1e-15)
    with pytest.raises(ConfigurationError):
        SigmaSmooth(np.tanh, None)


def test_shifted_families():
    c = SigmaConstant(0.4)
    assert shifted(c, 1.3) is c
    lin = SigmaLinear(1.0, 2.0)
    assert shifted(lin, 0.0) is lin
    moved = shifted(lin, 0.5)
    assert isinstance(moved, SigmaLinear)
    assert moved.a == pytest.approx(2.0) and moved.b == 2.0
    sm = SigmaSmooth(np.sin, np.cos)
    wrapped = shifted(sm, 0.7)
    u = np.array([0.0, 0.2, -1.1])
    np.testing.assert_allclose(wrapped.value(u), np.sin(0.7 + u), rtol=1e-15)
    np.testing.assert_allclose(wrapped.deriv(u), np.cos(0.7 + u), rtol=1e-15)


# ---------------------------------------------------------------------------
# stepping against a smooth driver: classical ODE limits


def test_zero_sigma_freezes_state(smooth_driver):
    sbar = solve_rde(RdeProblem(smooth_driver, SigmaConstant(0.0), s0=2.0))
    np.testing.assert_array_equal(sbar, np.zeros(smooth_driver.N + 1))


def test_unit_sigma_reproduces_driver(smooth_driver):
    sbar = solve_rde(RdeProblem(smooth_driver, SigmaConstant(1.0)))
    np.testing.assert_allclose(sbar, smooth_driver.y1[:, 0], rtol=1e-12, atol=1e-14)


def test_exponential_ode(smooth_driver):
    # dS = S dt, S(0) = 1: second-order stepping on N = 1024 cells
    sbar = solve_rde(RdeProblem(smooth_driver, SigmaLinear(0.0, 1.0), s0=1.0))
    assert 1.0 + sbar[-1] == pytest.approx(np.e, abs=1e-6)


def test_sine_ode_against_ivp(smooth_driver):
    sol = scipy.integrate.solve_ivp(lambda t, y: np.sin(y), (0.0, 1.0), [0.8],
                                    rtol=1e-12, atol=1e-14)
    sbar = solve_rde(RdeProblem(smooth_driver, SigmaSmooth(np.sin, np.cos), s0=0.8))
    assert 0.8 + sbar[-1] == pytest.approx(sol.y[0, -1], abs=1e-6)


# ---------------------------------------------------------------------------
# guards


def test_scalar_driver_required():
    grid = core.Grid(T=1.0, N=4)
    rp = RoughPath(grid, np.zeros((5, 2)), np.zeros((5, 2, 2)))
    with pytest.raises(DomainError):
        solve_rde(RdeProblem(rp, SigmaConstant(1.0)))


def _explosive_driver():
    grid = core.Grid(T=1.0, N=4)
    y1 = np.arange(5.0)[:, None] * 20.0
    dy1 = np.diff(y1[:, 0])
    # make the second-level cells equal dy1^2 so growth compounds fast
    incr = y1[:-1, 0] * dy1 + dy1 ** 2
    y2 = np.concatenate([[0.0], np.cumsum(incr)])[:, None, None]
    return RoughPath(grid, y1, y2)


def test_blowup_raises_solver_error():
    rp = _explosive_driver()
    with pytest.raises(SolverError) as exc:
        solve_rde(RdeProblem(rp, SigmaLinear(0.0, 1.0), s0=1.0))
    assert exc.value.last_good_index == 2


def test_batch_blowup_reports_first_node():
    rp = _explosive_driver()
    y1 = np.repeat(rp.y1[:, 0][None, :], 3, axis=0)
    y2 = np.repeat(rp.y2[:, 0, 0][None, :], 3, axis=0)
    with pytest.raises(SolverError) as exc:
        solve_rde_batch(y1, y2, SigmaLinear(0.0, 1.0), s0=1.0)
    assert exc.value.last_good_index == 2
    assert "3 of 3" in str(exc.value)


def _guard_case(kind):
    """(y1, y2, sigma, s0) where path 1 of 3 leaves the guard at node 5."""
    y1 = np.zeros((3, 9))
    y1[:, 1:] = np.cumsum(np.full((3, 8), 0.1), axis=1)
    sigma, s0 = SigmaConstant(2.0), 0.5
    if kind == "nan":
        # sigma turns NaN once the state passes 2: at node 4 it is 2.5.
        y1[1, 1:] = np.arange(1.0, 9.0) * 0.5
        sigma = SigmaSmooth(lambda s: np.where(s > 2.0, np.nan, 1.0),
                            lambda s: np.zeros_like(s))
    elif kind in ("+inf", "-inf"):
        y1[1, 5:] = float(kind[0] + "1e308")  # 2 * 1e308 overflows
    else:
        # Finite: u = 0.8 + 2 * 499999.5 = 999999.8 is inside the guard,
        # the state s0 + u is not.
        y1[1, 5:] += 499999.4
    return y1, np.zeros_like(y1), sigma, s0


@pytest.mark.parametrize("kind", ["nan", "+inf", "-inf", "finite"])
def test_batch_guard_names_node_and_paths(kind):
    y1, y2, sigma, s0 = _guard_case(kind)
    with pytest.raises(SolverError) as exc, np.errstate(over="ignore"):
        solve_rde_batch(y1, y2, sigma, s0)
    assert exc.value.last_good_index == 4
    assert "at node 5 (1 of 3 paths)" in str(exc.value)
    # Without the bad path the same data step to the end.
    ok = solve_rde_batch(y1[[0, 2]], y2[[0, 2]], sigma, s0)
    assert np.all(np.isfinite(ok))


def test_batch_shape_validation():
    with pytest.raises(DomainError):
        solve_rde_batch(np.zeros((2, 5)), np.zeros((2, 4)), SigmaConstant(1.0), 0.0)
    with pytest.raises(DomainError):
        solve_rde_batch(np.zeros(5), np.zeros(5), SigmaConstant(1.0), 0.0)


# ---------------------------------------------------------------------------
# batch-width invariance


def _scalar_loop(y1, y2, sigma, s0):
    """The scheme on one path, one node at a time: the stepper's reference."""
    dy1 = np.diff(y1)
    y2_cell = np.diff(y2) - y1[:-1] * dy1
    out = np.zeros(len(y1))
    for q in range(len(dy1)):
        u = out[q]
        sv = float(sigma.value(s0 + u))
        out[q + 1] = u + sv * dy1[q] + float(sigma.deriv(s0 + u)) * sv * y2_cell[q]
    return out


def test_batch_matches_scalar_paths():
    gen = np.random.default_rng(14)
    B, N = 4, 32
    grid = core.Grid(T=1.0, N=N)
    y1 = np.zeros((B, N + 1))
    y1[:, 1:] = np.cumsum(gen.normal(size=(B, N)) * 0.2, axis=1)
    y2 = np.zeros((B, N + 1))
    y2[:, 1:] = np.cumsum(gen.normal(size=(B, N)) * 0.05, axis=1)
    sigma = SigmaSmooth(np.tanh, lambda u: 1.0 / np.cosh(u) ** 2)
    batch = solve_rde_batch(y1, y2, sigma, s0=0.3)
    for p in range(B):
        alone = solve_rde_batch(y1[p:p + 1], y2[p:p + 1], sigma, s0=0.3)[0]
        np.testing.assert_array_equal(batch[p], alone)
        rp = RoughPath(grid, y1[p][:, None], y2[p][:, None, None])
        single = solve_rde(RdeProblem(rp, sigma, s0=0.3))
        np.testing.assert_array_equal(batch[p], single)
        np.testing.assert_array_equal(batch[p], _scalar_loop(y1[p], y2[p], sigma, 0.3))


def _reference_step_nodes(dy1, y2_cell, sigma, s0, keep):
    """The node-major stepping loop with the blow-up check through
    ``np.max``: the bit-level reference of :func:`rde._step_nodes`."""
    s0 = float(s0)
    n_cells, B = dy1.shape
    out = np.empty((len(keep), B))
    u = np.zeros(B)
    states = {0: u.copy()}
    for q in range(n_cells):
        s = np.add(s0, u)
        sv = sigma.value(s)
        d = sigma.deriv(s)
        u = u + sv * dy1[q] + (d * sv) * y2_cell[q]
        s = np.add(s0, u)
        if not np.max(np.abs(s), initial=0.0) <= 1e6:
            bad = ~np.isfinite(u) | (np.abs(s) > 1e6)
            raise SolverError(f"state blew up at node {q + 1} "
                              f"({int(bad.sum())} of {B} paths)", last_good_index=q)
        states[q + 1] = u.copy()
    for j, node in enumerate(keep):
        out[j] = states[int(node)]
    return out


_STEP_SIGMAS = {
    "constant": SigmaConstant(0.7),
    "linear": SigmaLinear(0.1, 0.8),
    "smooth": SigmaSmooth(np.tanh, lambda u: 1.0 / np.cosh(u) ** 2),
}


@pytest.mark.parametrize("B", [4, 1024])
@pytest.mark.parametrize("family", sorted(_STEP_SIGMAS))
def test_step_nodes_are_the_reference_bits(family, B):
    gen = np.random.default_rng(B)
    N = 64
    dy1 = np.ascontiguousarray(gen.normal(size=(N, B)) * 0.1)
    y2_cell = np.ascontiguousarray(gen.normal(size=(N, B)) * 0.01)
    keep = [N, 3, 0, 17, 3, N, 40]  # unsorted, with repeats
    sigma = _STEP_SIGMAS[family]
    got = rde._step_nodes(dy1, y2_cell, sigma, 0.4, keep)
    want = _reference_step_nodes(dy1, y2_cell, sigma, 0.4, keep)
    assert got.shape == (len(keep), B)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("B", [4, 1024])
def test_step_nodes_blow_up_names_the_first_node(B):
    N = 32
    dy1 = np.full((N, B), 0.01)
    dy1[9:, 1::3] = 3e5  # every third path leaves the guard at node 13
    y2_cell = np.zeros((N, B))
    sigma = SigmaConstant(1.0)  # the state is 1 + the sum of dy1
    with pytest.raises(SolverError) as want:
        _reference_step_nodes(dy1, y2_cell, sigma, 1.0, [N])
    with pytest.raises(SolverError) as got:
        rde._step_nodes(dy1, y2_cell, sigma, 1.0, [N, 0])
    n_bad = len(range(1, B, 3))
    assert str(got.value) == str(want.value) == \
        f"state blew up at node 13 ({n_bad} of {B} paths)"
    assert got.value.last_good_index == want.value.last_good_index == 12


def _segmented_step_nodes(dy1, y2_cell, sigma, s0, keep, size):
    """rde._step_nodes resumed over consecutive segments of ``size`` cells."""
    n_cells, B = dy1.shape
    out, u = np.empty((len(keep), B)), np.zeros(B)
    for lo in range(0, n_cells, size):
        got = rde._step_nodes(dy1[lo:lo + size], y2_cell[lo:lo + size], sigma,
                              s0, keep, out=out, u=u, first=lo)
        assert got is out
    return out


_SEGMENTED_N = 150  # segments of 7 and 64 end on a partial one


@pytest.mark.parametrize("size", [1, 7, 64, _SEGMENTED_N])
@pytest.mark.parametrize("B", [4, 1024])
@pytest.mark.parametrize("family", sorted(_STEP_SIGMAS))
def test_step_nodes_in_segments_are_the_one_pass_bits(family, B, size):
    gen = np.random.default_rng(B)
    N = _SEGMENTED_N
    dy1 = np.ascontiguousarray(gen.normal(size=(N, B)) * 0.1)
    y2_cell = np.ascontiguousarray(gen.normal(size=(N, B)) * 0.01)
    # Unsorted, with repeats, on and beside segment ends.
    keep = [N, 3, 0, 17, 3, N, 40, 64, 7, 128, 129, 63, 0]
    sigma = _STEP_SIGMAS[family]
    got = _segmented_step_nodes(dy1, y2_cell, sigma, 0.4, keep, size)
    want = _reference_step_nodes(dy1, y2_cell, sigma, 0.4, keep)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("size", [1, 7, 64, _SEGMENTED_N])
@pytest.mark.parametrize("B", [4, 1024])
def test_step_nodes_in_segments_blow_up_at_the_same_node(B, size):
    N = _SEGMENTED_N
    dy1 = np.full((N, B), 0.01)
    dy1[136:, 1::3] = 3e5  # every third path leaves the guard at node 140
    y2_cell = np.zeros((N, B))
    sigma = SigmaConstant(1.0)  # the state is 1 + the sum of dy1
    with pytest.raises(SolverError) as want:
        _reference_step_nodes(dy1, y2_cell, sigma, 1.0, [N])
    with pytest.raises(SolverError) as got:
        _segmented_step_nodes(dy1, y2_cell, sigma, 1.0, [N, 0], size)
    n_bad = len(range(1, B, 3))
    assert str(got.value) == str(want.value) == \
        f"state blew up at node 140 ({n_bad} of {B} paths)"
    assert got.value.last_good_index == want.value.last_good_index == 139


def _whole_array_cells(y1, y2):
    """Node-major cell increments by whole-array formulas: the bit-level
    reference of :func:`rde._cell_increments`."""
    dy1 = np.ascontiguousarray(np.diff(y1, axis=1).T)
    y2_cell = np.diff(y2, axis=1)
    y2_cell -= y1[:, :-1] * dy1.T
    return dy1, np.ascontiguousarray(y2_cell.T)


@pytest.mark.parametrize("B, N", [(1, 4096), (4, 4096), (7, 300), (1024, 64)])
def test_batch_steps_the_whole_array_increments(B, N):
    gen = np.random.default_rng(B * N)
    y1 = np.zeros((B, N + 1))
    y1[:, 1:] = np.cumsum(gen.normal(size=(B, N)) / np.sqrt(N), axis=1)
    y2 = np.zeros((B, N + 1))
    y2[:, 1:] = np.cumsum(gen.normal(size=(B, N)) * 0.3 / N, axis=1)
    dy1, y2_cell = _whole_array_cells(y1, y2)
    sigma = _STEP_SIGMAS["smooth"]
    want = _reference_step_nodes(dy1, y2_cell, sigma, 0.4, range(N + 1)).T
    got = solve_rde_batch(y1, y2, sigma, 0.4)
    assert got.shape == (B, N + 1)
    assert got.tobytes() == want.tobytes()
    # In views of larger arrays and a workspace that a wider block used.
    work = _Workspace()
    work.view("d1", (B + 3, N + 5))
    cells = np.full((2, N + 2, B + 1), np.nan)
    rde._cell_increments(y1, y2, cells[0, 1:-1, :-1], cells[1, 1:-1, :-1],
                         work)
    assert cells[0, 1:-1, :-1].tobytes() == dy1.tobytes()
    assert cells[1, 1:-1, :-1].tobytes() == y2_cell.tobytes()
    assert np.isnan(cells[:, [0, -1]]).all() and np.isnan(cells[:, :, -1]).all()


# ---------------------------------------------------------------------------
# full model pipeline


def test_solve_model_pipeline(small_cfg):
    grid = core.Grid(T=1.0, N=64)
    spec = riemann_liouville(0.3, 0.01)
    f = ExponentialVol(1.0, (0.5, 0.5))
    two = solve_model(grid, spec, small_cfg, f, SigmaLinear(0.0, 1.0),
                      rho=-0.5, s0=1.0, seeds=[11, 12])
    assert two.shape == (2, 65)
    np.testing.assert_array_equal(two[:, 0], [1.0, 1.0])
    one = solve_model(grid, spec, small_cfg, f, SigmaLinear(0.0, 1.0),
                      rho=-0.5, s0=1.0, seeds=[11])
    assert one.shape == (1, 65)
    np.testing.assert_array_equal(two[0], one[0])
    assert not np.array_equal(two[0], two[1])


def test_geometric_model_matches_closed_form(small_cfg):
    # unit vol and sigma(S) = S: exact solution S0 exp(X_T - T/2)
    grid = core.Grid(T=1.0, N=1024)
    spec = riemann_liouville(0.5, 0.01)
    seeds = (1, 2, 3)
    S = solve_model(grid, spec, small_cfg, ConstantVol(1.0),
                    SigmaLinear(0.0, 1.0), rho=0.0, s0=1.0, seeds=seeds)
    for p, seed in enumerate(seeds):
        xT = simulate_brownian(grid, 0.0, seed).X[-1]
        assert S[p, -1] == pytest.approx(np.exp(xT - 0.5), abs=1e-3)
