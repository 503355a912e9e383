import math

import numpy as np
import pytest
import scipy.integrate

from parpath import rate
from parpath.exceptions import ConfigurationError, DomainError, NumericalError
from parpath.rate import (
    RateProblem,
    RateSolution,
    _kh_matrix,
    minimize_rate,
    optimality_report,
    rate_objective,
    smile_curve,
)
from parpath.volfn import ConstantVol, ExponentialVol, VolFunction

F_EXP = ExponentialVol(0.2, (1.0, 0.0))


class FirstCoordinate(VolFunction):
    """f(x) = x_0, which vanishes at the base point."""

    e = 2

    def value(self, x):
        return self._check_points(x)[..., 0]


# ---------------------------------------------------------------------------
# kernel convolution on control cells


def test_kh_matrix_is_lower_triangular():
    # Midpoint k sees the cells below it and the lower half of its own.
    for H, K in ((0.3, 6), (0.5, 4), (0.05, 9)):
        W = _kh_matrix(H, K)
        assert W.shape == (K, K)
        np.testing.assert_array_equal(W, np.tril(W))
        assert np.all(np.diag(W) > 0.0)
        np.testing.assert_array_equal(W @ np.zeros(K), np.zeros(K))


def test_kh_convolve_flat_kernel_is_cumulative_integral():
    # H = 1/2 makes the kernel constant 1, so the output is the running
    # integral of g sampled at cell midpoints
    K = 8
    g = np.arange(1.0, K + 1.0)
    mids = (np.arange(K) + 0.5) / K
    out = _kh_matrix(0.5, K) @ g
    expect = np.array([np.sum(np.minimum(np.maximum(m - np.arange(K) / K, 0.0), 1.0 / K) * g)
                       for m in mids])
    np.testing.assert_allclose(out, expect, rtol=1e-13)


def test_kh_convolve_constant_control_closed_form():
    K, H = 16, 0.3
    p = H + 0.5
    mids = (np.arange(K) + 0.5) / K
    out = _kh_matrix(H, K) @ np.ones(K)
    expect = mids ** p / (p * math.gamma(p))
    np.testing.assert_allclose(out, expect, rtol=1e-12)


def test_kh_convolve_matches_quadrature():
    K, H = 6, 0.35
    g = np.array([1.0, -2.0, 3.0, 0.5, -1.0, 2.0])
    p = H + 0.5
    kappa = lambda u: u ** (p - 1.0) / math.gamma(p)
    edges = np.arange(K + 1) / K
    out = _kh_matrix(H, K) @ g
    for k in range(K):
        t = (k + 0.5) / K
        total = 0.0
        for c in range(K):
            a, b = edges[c], min(edges[c + 1], t)
            if b <= a:
                continue
            val, _ = scipy.integrate.quad(lambda s: kappa(t - s), a, b,
                                          limit=200)
            total += g[c] * val
        assert out[k] == pytest.approx(total, rel=1e-8)


# ---------------------------------------------------------------------------
# problem validation


def test_rate_problem_validation():
    ok = dict(f=F_EXP, sigma0=1.0, rho=-0.7, H=0.3)
    RateProblem(**ok)
    with pytest.raises(ConfigurationError):
        RateProblem(**{**ok, "rho": 1.0})
    with pytest.raises(ConfigurationError):
        RateProblem(**{**ok, "sigma0": 0.0})
    with pytest.raises(ConfigurationError):
        RateProblem(**{**ok, "H": 0.6})
    with pytest.raises(ConfigurationError):
        RateProblem(**ok, K=1)
    with pytest.raises(ConfigurationError):
        RateProblem(**ok, K=2.5)
    with pytest.raises(ConfigurationError):
        RateProblem(**ok, restarts=0)
    # vanishing vol at the base point leaves the misfit term undefined
    zero_at_base = FirstCoordinate()
    with pytest.raises(ConfigurationError):
        RateProblem(**{**ok, "f": zero_at_base})
    prob = RateProblem(**ok, z_grid=[0.1, -0.2])
    assert prob.z_grid == (0.1, -0.2)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigurationError, match="finite"):
            RateProblem(**ok, z_grid=(0.1, bad))
    # f(0) = xi: a NaN xi passed the floor test, NaN <= 1e-12 being false
    with pytest.raises(ConfigurationError, match="positive at the base"):
        RateProblem(**{**ok, "f": ExponentialVol(math.nan, (1.0, 0.0))})


@pytest.mark.parametrize("z", [math.nan, math.inf])
def test_minimize_rate_never_certifies_a_non_finite_value(z):
    # The residual test compared NaN with ">", which is false, so a NaN
    # minimum was returned as certified.
    prob = RateProblem(f=F_EXP, sigma0=1.0, rho=-0.7, H=0.3, K=8, restarts=2)
    with np.errstate(invalid="ignore"), \
            pytest.raises(NumericalError, match="stalled"):
        minimize_rate(z, prob)


def test_rate_objective_validates_control():
    prob = RateProblem(f=F_EXP, sigma0=1.0, rho=0.0, H=0.3, K=8)
    with pytest.raises(DomainError):
        rate_objective(np.zeros(7), 0.1, prob)


# ---------------------------------------------------------------------------
# constant volatility: closed form for every rho


@pytest.mark.parametrize("rho", [-0.7, 0.0, 0.7])
@pytest.mark.parametrize("z", [0.1, -0.3])
def test_constant_f_closed_form(rho, z):
    c, sigma0 = 0.2, 1.0
    prob = RateProblem(f=ConstantVol(c), sigma0=sigma0, rho=rho, H=0.3,
                       K=16, restarts=2)
    sol = minimize_rate(z, prob)
    assert sol.value == pytest.approx(z ** 2 / (2.0 * sigma0 ** 2 * c ** 2), rel=1e-8)
    # the optimal control is flat at rho z / (sigma0 c)
    np.testing.assert_allclose(sol.minimizer, rho * z / (sigma0 * c) * np.ones(16),
                               atol=1e-5)
    assert sol.starts_tried == 2
    assert sol.grad_norm <= 1e-8 * (1.0 + sol.value)


# ---------------------------------------------------------------------------
# analytic gradient


def test_gradient_matches_central_differences():
    prob = RateProblem(f=F_EXP, sigma0=1.0, rho=-0.7, H=0.3, K=12, restarts=2)
    gen = np.random.default_rng(8)
    h = 1e-6
    for _ in range(20):
        g = gen.normal(size=12) * 0.6
        _, grad = rate_objective(g, 0.3, prob, return_grad=True)
        fd = np.empty(12)
        for k in range(12):
            gp, gm = g.copy(), g.copy()
            gp[k] += h
            gm[k] -= h
            fd[k] = (rate_objective(gp, 0.3, prob)
                     - rate_objective(gm, 0.3, prob)) / (2.0 * h)
        np.testing.assert_allclose(fd, grad, rtol=0.0, atol=1e-8 * (1.0 + np.abs(grad)).max())


# ---------------------------------------------------------------------------
# minimization quality


def test_minimizer_beats_random_search():
    # 1.2M sampled controls across four scales never undercut the solver
    K = 4
    prob = RateProblem(f=F_EXP, sigma0=1.0, rho=-0.7, H=0.3, K=K, restarts=4)
    sol = minimize_rate(0.3, prob)
    W = _kh_matrix(0.3, K)
    dt = 1.0 / K
    gen = np.random.default_rng(77)
    best = np.inf
    for scale in (0.1, 0.3, 0.6, 1.2):
        G = gen.normal(size=(300000, K)) * scale
        V = G @ W.T
        FV = 0.2 * np.exp(V)
        A = dt * np.sum(FV * G, axis=1)
        B = dt * np.sum(FV * FV, axis=1)
        R = 0.3 + 0.7 * A
        F = 0.5 * dt * np.sum(G * G, axis=1) + R ** 2 / (2.0 * 0.51 * B)
        best = min(best, float(F.min()))
    assert sol.value <= best + 1e-9
    assert best <= sol.value * 1.02


def test_rate_stabilizes_in_control_resolution():
    vals = {}
    for K in (8, 16, 32, 64):
        prob = RateProblem(f=F_EXP, sigma0=1.0, rho=-0.7, H=0.3, K=K, restarts=4)
        vals[K] = minimize_rate(0.3, prob).value
    assert abs(vals[64] - vals[32]) < abs(vals[16] - vals[8])
    assert abs(vals[64] - vals[32]) <= 1e-3


def test_minimize_rate_deterministic():
    prob = RateProblem(f=F_EXP, sigma0=1.0, rho=-0.5, H=0.4, K=10, restarts=3)
    a = minimize_rate(0.2, prob)
    b = minimize_rate(0.2, prob)
    assert a.value == b.value
    np.testing.assert_array_equal(a.minimizer, b.minimizer)


@pytest.mark.parametrize("residual, certified", [
    (4e-8, True), (np.nextafter(4e-8, 1.0), False)], ids=["at", "above"])
def test_minimize_rate_certifies_at_1e8_relative_residual(monkeypatch,
                                                          residual, certified):
    # A flat objective of value 3 whose gradient residual never moves:
    # the solve certifies it exactly when residual <= 1e-8 * (1 + 3).
    def flat(g, z, problem, return_grad=False):
        grad = np.zeros(problem.K)
        grad[0] = residual
        return (3.0, grad) if return_grad else 3.0

    monkeypatch.setattr(rate, "rate_objective", flat)
    prob = RateProblem(f=F_EXP, sigma0=1.0, rho=-0.7, H=0.3, K=4, restarts=2)
    if certified:
        sol = minimize_rate(0.3, prob)
        assert (sol.value, sol.grad_norm) == (3.0, residual)
    else:
        with pytest.raises(NumericalError, match="stalled"):
            minimize_rate(0.3, prob)


def test_optimality_report_certifies_solution():
    prob = RateProblem(f=F_EXP, sigma0=1.0, rho=-0.7, H=0.3, K=16, restarts=4)
    sol = minimize_rate(0.25, prob)
    rep = optimality_report(prob, sol)
    assert rep.constraint_residual <= 1e-10
    assert rep.energy_gap <= 1e-10 * (1.0 + sol.value)
    assert rep.grad_norm <= 1e-8 * (1.0 + sol.value)


# ---------------------------------------------------------------------------
# smile transform


def test_smile_flat_for_constant_f():
    prob = RateProblem(f=ConstantVol(0.25), sigma0=2.0, rho=-0.4, H=0.3,
                       K=16, restarts=2, z_grid=(-0.4, -0.1, 0.0, 0.2, 0.5))
    pts = smile_curve(prob)
    for pt in pts:
        if pt.z == 0.0:
            assert pt.sigma_asym is None
            assert pt.rate == pytest.approx(0.0, abs=1e-12)
        else:
            assert pt.sigma_asym == pytest.approx(0.5, rel=1e-7)
        assert pt.restarts == 2


def test_smile_even_when_uncorrelated():
    prob = RateProblem(f=F_EXP, sigma0=1.0, rho=0.0, H=0.3, K=16, restarts=2,
                       z_grid=(-0.3, 0.3))
    pts = smile_curve(prob)
    assert pts[0].rate == pytest.approx(pts[1].rate, rel=1e-9)
    assert pts[0].sigma_asym == pytest.approx(pts[1].sigma_asym, rel=1e-9)


def test_smile_needs_grid():
    prob = RateProblem(f=F_EXP, sigma0=1.0, rho=0.0, H=0.3, K=8)
    with pytest.raises(ConfigurationError):
        smile_curve(prob)


# Near the money, I(z) = z^2 / (2 a^2) - rho f1 c_H z^3 / (sigma0^3 f0^4)
# + O(z^4) with a = sigma0 f0, f0 = f(0), f1 = f'(0) and
# c_H = 1 / Gamma(H + 5/2), so the smile's slope at 0 is
# rho (f1 / f0) / Gamma(H + 5/2), whatever sigma0 and the level of f.
# Tolerance, from an h and K study of the three configs below: the
# Richardson values from h = (0.02, 0.01) and (0.01, 0.005) of the
# at-the-money level agree within 1e-8, so h leaves no error; what
# remains is the control grid's.  At K = 64 it is 1.6e-5, 1.2e-5 and
# below 1e-9, and it falls about 3x per doubling of K (1.4e-6, 1.3e-6
# and below 1e-9 at K = 256).  5e-5 is three times the largest; a
# skew off by a factor Gamma(H + 5/2) or a sign misses by 0.1 or more.
SKEW_TOL = 5e-5


@pytest.mark.parametrize("H, rho, sigma0, f", [
    (0.3, -0.7, 1.0, ExponentialVol(0.2, (1.0, 0.0))),
    (0.1, 0.3, 2.0, ExponentialVol(0.5, (0.5, 0.0))),
    (0.5, -0.5, 0.7, ExponentialVol(1.0, (-1.5, 0.0))),
], ids=["H-0.3", "H-0.1", "H-0.5"])
def test_smile_skew_matches_the_closed_form(H, rho, sigma0, f):
    atm = sigma0 * f.xi
    hs = (0.01 * atm, 0.005 * atm)
    prob = RateProblem(f=f, sigma0=sigma0, rho=rho, H=H, K=64, restarts=2,
                       z_grid=tuple(z for h in hs for z in (-h, h)))
    sig = [pt.sigma_asym for pt in smile_curve(prob)]
    central = [(sig[1] - sig[0]) / (2 * hs[0]), (sig[3] - sig[2]) / (2 * hs[1])]
    skew = central[1] + (central[1] - central[0]) / 3.0  # error O(h^2) gone
    closed = rho * f.coeffs[0] / math.gamma(H + 2.5)
    assert skew == pytest.approx(closed, abs=SKEW_TOL)
