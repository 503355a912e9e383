"""Kernels, simulated bundles, convolution rule, lifts."""

import math

import numpy as np
import pytest
import scipy.fft
import scipy.integrate

from parpath.analysis import chen_defect_report
from parpath.core import Grid
from parpath.exceptions import ConfigurationError, DomainError
from parpath.lift import (BrownianBundle, _hybrid_cell_coeffs,
                          _next_fast_len, _Workspace, build_lift, build_lift_quadrature, kernel_antideriv,
                          kernel_sq_antideriv, riemann_liouville,
                          simulate_brownian, volterra_convolve,
                          volterra_convolve_batch)
from parpath.rng import stream

from conftest import oracle_level1


# ---------------------------------------------------------------------------
# kernel family


def _kappa(H, u):
    """The Riemann-Liouville kernel u^(H - 1/2) / Gamma(H + 1/2)."""
    return u ** (H - 0.5) / math.gamma(H + 0.5)


def test_kernel_spec_closed_forms():
    # kappa(u) = const * u^eta is _kappa, whatever delta the Holder
    # exponents give up.
    for H, delta in ((0.5, 0.01), (0.1, 0.01), (0.3, 0.01), (0.3, 0.2)):
        spec = riemann_liouville(H, delta=delta)
        assert spec.eta == pytest.approx(H - 0.5, abs=1e-15)
        assert spec.const == pytest.approx(1.0 / math.gamma(H + 0.5), rel=1e-15)


def test_kernel_spec_validation():
    with pytest.raises(ConfigurationError):
        riemann_liouville(0.6)
    with pytest.raises(ConfigurationError):
        riemann_liouville(0.0)
    with pytest.raises(ConfigurationError):
        riemann_liouville(0.3, delta=0.3)
    with pytest.raises(ConfigurationError):
        riemann_liouville(0.3, delta=0.0)


def test_antiderivatives_match_quadrature():
    spec = riemann_liouville(0.3, delta=0.01)
    for t in (0.2, 0.7, 1.3):
        want, _ = scipy.integrate.quad(lambda u: _kappa(0.3, u), 0.0, t)
        assert float(kernel_antideriv(spec, t)) == pytest.approx(want, rel=1e-9)
        want2, _ = scipy.integrate.quad(lambda u: _kappa(0.3, u) ** 2, 0.0, t)
        assert float(kernel_sq_antideriv(spec, t)) == pytest.approx(want2, rel=1e-8)
    # Anchored L2 mass over [0, t]: t^{2H} / (2H Gamma(H + 1/2)^2).
    g2 = math.gamma(0.6) ** 2
    for t in (0.25, 1.0):
        assert float(kernel_sq_antideriv(riemann_liouville(0.1, 0.01), t)) \
            == pytest.approx(t ** 0.2 / (0.2 * g2), rel=1e-12)


# ---------------------------------------------------------------------------
# bundles


def test_bundle_consistency_checks():
    grid = Grid(T=1.0, N=16)
    b = simulate_brownian(grid, 0.5, 3)
    norms = stream(3, "brownian").standard_normal((3, grid.N))
    W, Wperp = (np.concatenate([[0.0], np.cumsum(math.sqrt(grid.delta) * n)])
                for n in norms[:2])
    assert np.array_equal(b.W, W) and np.array_equal(b.aux, norms[2])
    assert np.array_equal(b.X, 0.5 * W + math.sqrt(0.75) * Wperp)
    with pytest.raises(ConfigurationError):
        simulate_brownian(grid, 1.5, 3)
    with pytest.raises(DomainError, match="X must be finite and start at 0"):
        BrownianBundle(grid=grid, W=b.W, X=b.X + 1.0)
    with pytest.raises(DomainError, match="must have shape"):
        BrownianBundle(grid=grid, W=b.W[:-1], X=b.X[:-1])


def test_bundle_determinism_and_quadratic_variation():
    grid = Grid(T=1.0, N=1024)
    b1 = simulate_brownian(grid, -0.7, 7)
    b2 = simulate_brownian(grid, -0.7, 7)
    assert np.array_equal(b1.W, b2.W) and np.array_equal(b1.aux, b2.aux)
    b3 = simulate_brownian(grid, -0.7, 8)
    assert not np.array_equal(b1.W, b3.W)
    # Realized quadratic variation is chi-square with N terms: mean T,
    # standard deviation sqrt(2/N) T.
    ssq = float(np.sum(np.diff(b1.W) ** 2))
    assert abs(ssq - grid.T) <= 4.0 * math.sqrt(2.0 / grid.N) * grid.T


def test_perfect_correlation_collapses_driver():
    grid = Grid(T=1.0, N=64)
    b = simulate_brownian(grid, 1.0, 11)
    assert np.allclose(b.X, b.W, atol=1e-12)


# ---------------------------------------------------------------------------
# convolution


def test_constant_kernel_convolution_is_w():
    grid = Grid(T=1.0, N=1024)
    b = simulate_brownian(grid, -0.7, 42)
    conv = volterra_convolve(b, riemann_liouville(0.5, delta=0.01))
    assert np.max(np.abs(conv - b.W)) <= 1e-13


def test_deterministic_increments_give_antiderivative():
    grid = Grid(T=1.0, N=1024)
    for H in (0.1, 0.3):
        spec = riemann_liouville(H, delta=0.01)
        dW = np.full((1, grid.N), grid.delta)
        out = volterra_convolve_batch(dW, None, spec, grid)[0]
        want = kernel_antideriv(spec, grid.nodes)
        assert np.max(np.abs(out - want)) <= 1e-8


def test_node_variance_matches_kernel_l2():
    # The hybrid touching-cell rule keeps node variances exact in law,
    # so sample variances converge to t^{2H} / (2H Gamma(H + 1/2)^2).
    H = 0.1
    spec = riemann_liouville(H, delta=0.01)
    grid = Grid(T=1.0, N=64)
    n_paths = 40000
    gen = stream(99, "var-test")
    dW = math.sqrt(grid.delta) * gen.standard_normal((n_paths, grid.N))
    aux = gen.standard_normal((n_paths, grid.N))
    paths = volterra_convolve_batch(dW, aux, spec, grid)
    g2 = math.gamma(H + 0.5) ** 2
    for q in (8, 16, 32, 64):
        t = grid.nodes[q]
        target = t ** (2 * H) / (2 * H * g2)
        assert abs(np.var(paths[:, q]) - target) <= 0.03 * target


# (H, T, N) of the exact second-moment checks: rough to constant
# kernels, an odd N, and N = 1024.
_MOMENT_GRIDS = [(0.1, 1.0, 64), (0.3, 1.0, 1024), (0.3, 0.5, 513),
                 (0.45, 1.0, 256), (0.5, 1.0, 128)]


def _unit_responses(spec, grid):
    """(A, B): row j of A is the path of dW = e_j with aux = 0, row j of
    B that of aux = e_j with dW = 0.  The scheme is linear in both, so
    its paths are ``dW @ A + aux @ B``."""
    eye, zero = np.eye(grid.N), np.zeros((grid.N, grid.N))
    return (volterra_convolve_batch(eye, zero, spec, grid),
            volterra_convolve_batch(zero, eye, spec, grid))


def _node_variance(spec, grid):
    """Var(xhat_n) at every node n.  dW_j ~ N(0, delta) and aux_j ~ N(0, 1),
    all independent, so Var(xhat_n) = delta |A e_n|^2 + |B e_n|^2 for the
    unit responses A, B of :func:`_unit_responses`, pushed through here
    256 rows at a time."""
    var = np.zeros(grid.N + 1)
    for lo in range(0, grid.N, 256):
        unit = np.eye(256, grid.N, lo)
        zero = np.zeros_like(unit)
        A = volterra_convolve_batch(unit, zero, spec, grid)
        var += grid.delta * np.sum(A ** 2, axis=0)
        var += np.sum(volterra_convolve_batch(zero, unit, spec, grid) ** 2, axis=0)
    return var


@pytest.mark.parametrize("H, T, N", _MOMENT_GRIDS)
def test_hybrid_node_variance_is_exact(H, T, N):
    # The touching cell carries Q(delta) exactly and cell k >= 2 the
    # squared cell average w_k^2 delta, w_k built here from the
    # antiderivative alone.
    spec, grid = riemann_liouville(H, delta=0.01), Grid(T=T, N=N)
    var = _node_variance(spec, grid)
    w = np.diff(kernel_antideriv(spec, grid.nodes)) / grid.delta
    lags = np.concatenate([[0.0], np.cumsum(w[1:] ** 2)])  # k = 2..n
    want = float(kernel_sq_antideriv(spec, grid.delta)) + grid.delta * lags
    assert var[0] == 0.0
    np.testing.assert_allclose(var[1:], want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("H, T, N", _MOMENT_GRIDS)
def test_hybrid_covariance_with_w_is_exact(H, T, N):
    # Cov(xhat_n, W_n) = delta sum_{j < n} A[j, n] = int_0^{t_n} kappa:
    # the touching cell's mean coefficient and the cell averages add up
    # to the antiderivative at the node.
    spec, grid = riemann_liouville(H, delta=0.01), Grid(T=T, N=N)
    A, _ = _unit_responses(spec, grid)
    cov = grid.delta * np.sum(A, axis=0)
    assert cov[0] == 0.0
    np.testing.assert_allclose(cov[1:], kernel_antideriv(spec, grid.nodes[1:]),
                               rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("H, T, N", _MOMENT_GRIDS + [(0.3, 4e-3, 4096)])
def test_hybrid_variance_deficit_is_bounded(H, T, N):
    # Q(t_n) - Var(xhat_n) sums, over the cells k >= 2, delta times the
    # variance of kappa on the cell about its average w_k.  Jensen makes
    # each term >= 0.  kappa is monotone on a cell, so Popoviciu bounds
    # each by delta (kappa((k-1) delta) - kappa(k delta))^2 / 4, and the
    # differences telescope to at most kappa(delta): the deficit is at
    # most delta kappa(delta)^2 / 4, and 0 for the constant kernel.
    spec, grid = riemann_liouville(H, delta=0.01), Grid(T=T, N=N)
    Q = kernel_sq_antideriv(spec, grid.nodes)
    gap = Q - _node_variance(spec, grid)
    assert np.all(gap >= -1e-14 * Q)
    assert np.all(gap <= grid.delta * (spec.const * grid.delta ** spec.eta) ** 2 / 4)
    if H == 0.5:
        assert np.all(np.abs(gap) <= 1e-14 * Q)


def test_convolution_batch_validation():
    grid = Grid(T=1.0, N=8)
    spec = riemann_liouville(0.3, delta=0.01)
    with pytest.raises(DomainError):
        volterra_convolve_batch(np.zeros((2, 7)), None, spec, grid)
    with pytest.raises(DomainError):
        volterra_convolve_batch(np.zeros((2, 8)), np.zeros((2, 7)), spec, grid)


def _direct_convolve_batch(dW, aux, spec, grid):
    """The convolution by direct sums per row, as an independent oracle."""
    B, N = dW.shape
    delta = grid.delta
    w = np.diff(kernel_antideriv(spec, np.arange(N + 1) * delta)) / delta
    mu, sd = _hybrid_cell_coeffs(spec, delta)
    touch = mu * dW + sd * aux
    L = N - 1
    out = np.zeros((B, N + 1))
    out[:, 1] = touch[:, 0]
    for b in range(B):
        out[b, 2:] = np.convolve(w[1:], dW[b, :L])[:L] + touch[b, 1:]
    return out


def test_fft_and_direct_convolution_agree():
    # The FFT route must give the direct sums' path for the same
    # increments up to rounding, at every grid size and batch width.
    spec = riemann_liouville(0.3, delta=0.01)
    gen = stream(12, "conv-agree")
    for N in (2, 64, 512, 513, 1024):
        grid = Grid(T=1.0, N=N)
        for rows in (1, 16):
            dW = math.sqrt(grid.delta) * gen.standard_normal((rows, N))
            aux = gen.standard_normal((rows, N))
            fft = volterra_convolve_batch(dW, aux, spec, grid)
            direct = _direct_convolve_batch(dW, aux, spec, grid)
            assert np.max(np.abs(fft - direct)) <= 1e-12, (N, rows)


def _scipy_convolve_batch(dW, aux, spec, grid):
    """The convolution by scipy.fft on fresh arrays, as a fixed reference."""
    B, N = dW.shape
    delta = grid.delta
    Fvals = kernel_antideriv(spec, np.arange(N + 1) * delta)
    w = np.diff(Fvals) / delta
    mu, sd = _hybrid_cell_coeffs(spec, delta)
    touch = mu * dW
    if aux is not None:
        touch = touch + sd * aux
    L = N - 1
    size = scipy.fft.next_fast_len(2 * L - 1)
    kf = scipy.fft.rfft(w[1:][:L], size)
    rf = scipy.fft.rfft(dW[:, :L], size, axis=1)
    conv = scipy.fft.irfft(kf[None, :] * rf, size, axis=1)[:, :L]
    out = np.zeros((B, N + 1))
    out[:, 1] = touch[:, 0]
    out[:, 2:] = conv + touch[:, 1:]
    return out


@pytest.mark.parametrize("with_aux", [False, True], ids=["no-aux", "aux"])
@pytest.mark.parametrize("N", [2, 3, 16, 64, 256, 512, 513, 600, 1000, 3000, 4096, 8192])
def test_fft_route_matches_the_scipy_formula(N, with_aux):
    # The numpy FFT route must give scipy's bits: if the two pocketfft
    # builds drift apart, this fails before any output digest moves.
    spec = riemann_liouville(0.3, delta=0.01)
    grid = Grid(T=1.0, N=N)
    gen = stream(N, "fft-route")
    dW = math.sqrt(grid.delta) * gen.standard_normal((3, N))
    aux = gen.standard_normal((3, N)) if with_aux else None
    np.testing.assert_array_equal(volterra_convolve_batch(dW, aux, spec, grid),
                                  _scipy_convolve_batch(dW, aux, spec, grid))


def test_next_fast_len_is_scipys():
    # The FFT size fixes the convolution's bits, so the helper must pick
    # scipy's size everywhere, including the 2 (N - 1) - 1 of every
    # power-of-two and power-of-ten grid the tests and examples use.
    sizes = list(range(1, 20001))
    sizes += [2 * (N - 1) - 1 for N in [2 ** k for k in range(10, 21)]
              + [10 ** k for k in range(3, 7)]]
    assert [_next_fast_len(n) for n in sizes] == \
        [scipy.fft.next_fast_len(n) for n in sizes]


def test_workspace_view_reallocates_for_another_dtype():
    work = _Workspace()
    work.view("a", (4, 3))
    spec = work.view("a", (2, 3), np.complex128)  # fits in 12 float64s
    assert spec.dtype == np.complex128 and spec.shape == (2, 3)
    again = work.view("a", (4, 3))
    assert again.dtype == np.float64 and again.shape == (4, 3)
    ints = work.view("a", (5,), np.int64)
    assert ints.dtype == np.int64
    # Same dtype and room enough: the array is reused.
    assert work.view("a", (2,), np.int64).base is ints.base


def test_reused_workspace_gives_fresh_array_bits():
    # Blocks of different widths share one workspace, as the MC engine's
    # row blocks do; each must equal a call on fresh arrays.
    spec = riemann_liouville(0.1, delta=0.01)
    grid = Grid(T=1.0, N=1000)
    gen = stream(3, "fft-reuse")
    work = _Workspace()
    for rows in (5, 2, 5, 1):
        dW = math.sqrt(grid.delta) * gen.standard_normal((rows, grid.N))
        aux = gen.standard_normal((rows, grid.N))
        np.testing.assert_array_equal(
            volterra_convolve_batch(dW, aux, spec, grid, work=work),
            volterra_convolve_batch(dW, aux, spec, grid))


# ---------------------------------------------------------------------------
# lifts


def test_build_lift_zero_index_is_driver(small_cfg):
    grid = Grid(T=1.0, N=256)
    b = simulate_brownian(grid, -0.7, 5)
    prp = build_lift(b, riemann_liouville(0.3, delta=0.01), small_cfg)
    assert np.max(np.abs(prp.a[(0, 0)][:, 0] - b.X)) <= 1e-13


def test_build_lift_first_index_matches_left_sum(small_cfg):
    grid = Grid(T=1.0, N=256)
    b = simulate_brownian(grid, -0.7, 5)
    prp = build_lift(b, riemann_liouville(0.3, delta=0.01), small_cfg)
    want = oracle_level1(prp.xhat, b.X[:, None], (1, 0), 0, grid.N)
    assert abs(prp.a[(1, 0)][-1, 0] - want[0]) <= 1e-12 * (1.0 + abs(want[0]))


def test_build_lift_splitting_defects(small_cfg):
    grid = Grid(T=1.0, N=1024)
    b = simulate_brownian(grid, -0.7, 17)
    prp = build_lift(b, riemann_liouville(0.3, delta=0.01), small_cfg)
    rep = chen_defect_report(prp, n_triples=200, seed=4)
    assert rep.max_defect <= 1e-10


def test_build_lift_validation(small_cfg, default_cfg):
    grid = Grid(T=1.0, N=16)
    b = simulate_brownian(grid, 0.0, 1)
    from parpath import build_index_sets
    cfg_e1 = build_index_sets(0.45, 0.2, 1)
    with pytest.raises(ConfigurationError):
        build_lift(b, riemann_liouville(0.3), cfg_e1)
    # beta above the kernel regularity: zeta = H - delta = 0.09 < 0.2
    with pytest.raises(ConfigurationError):
        build_lift(b, riemann_liouville(0.1), small_cfg)
    cfg_d2 = build_index_sets(0.45, 0.2, 2, d=2)
    with pytest.raises(ConfigurationError):
        build_lift(b, riemann_liouville(0.3), cfg_d2)


def test_quadrature_lift_matches_adaptive_integrals(small_cfg):
    zeta = 0.29
    grid = Grid(T=1.0, N=128)
    fns = [lambda t: np.sin(t), lambda t: np.asarray(t) ** zeta]
    prp = build_lift_quadrature(fns, small_cfg, grid)

    def level1_quad(i, t):
        val, _ = scipy.integrate.quad(
            lambda r: (math.sin(r) ** i[0]) * (r ** (zeta * i[1])), 0.0, t,
            limit=200)
        return val / (math.factorial(i[0]) * math.factorial(i[1]))

    for i in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0)]:
        for q in (32, 128):
            t = grid.nodes[q]
            assert prp.a[i][q, 0] == pytest.approx(level1_quad(i, t), abs=1e-9)

    # Level 2 for the (0,0) pair is int_0^t r dr = t^2 / 2.
    assert prp.b[((0, 0), (0, 0))][-1, 0, 0] == pytest.approx(0.5, abs=1e-10)


def test_quadrature_lift_validation(small_cfg):
    grid = Grid(T=1.0, N=8)
    with pytest.raises(ConfigurationError):
        build_lift_quadrature([lambda t: t], small_cfg, grid)
