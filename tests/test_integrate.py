import warnings

import numpy as np
import pytest

from parpath import core
from parpath.analysis import dilate, holder_norm, homogeneous_norm
from parpath.exceptions import ConvergenceWarning, DomainError
from parpath.integrate import (
    BoundConstants,
    RoughPath,
    compensated_sum_level1,
    compensated_sum_level2,
    distance_alpha,
    estimate_deriv_bound,
    integral,
    integrate,
    lipschitz_ratio,
    theoretical_bounds,
    zeta_sum,
)
from parpath.lift import build_lift_quadrature
from parpath.volfn import ConstantVol, ExponentialVol

from conftest import random_walk_paths


def _walk_prp(cfg, N, seed, scale=None):
    xhat, x = random_walk_paths(seed, N, scale=scale)
    return core.lift_sampled_paths(xhat, x, cfg, core.Grid(T=1.0, N=N))


def _random_anchored_prp(cfg, N, seed, xhat_scale=1.0):
    gen = np.random.default_rng(seed)
    xhat = np.zeros((N + 1, cfg.e))
    xhat[1:] = np.cumsum(gen.normal(size=(N, cfg.e)) * xhat_scale, axis=0)
    a = {}
    for i in cfg.I:
        arr = gen.normal(size=(N + 1, cfg.d))
        arr[0] = 0.0
        a[i] = arr
    b = {}
    for jk in cfg.J:
        arr = gen.normal(size=(N + 1, cfg.d, cfg.d))
        arr[0] = 0.0
        b[jk] = arr
    return core.PartialRoughPath(core.Grid(T=1.0, N=N), cfg, xhat, a, b)


# ---------------------------------------------------------------------------
# constant volatility collapses to scaled copies of the driver


def test_constant_vol_collapse(walk_prp):
    c = 1.7
    out, trace = integrate(walk_prp, ConstantVol(c), tol=1e-9)
    zero = (0, 0)
    np.testing.assert_allclose(out.y1, c * walk_prp.a[zero], rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(out.y2, c * c * walk_prp.b[(zero, zero)],
                               rtol=1e-12, atol=1e-15)
    # both sums telescope, so the trace converges immediately
    assert trace.stop_reason == "cauchy_tol"
    assert trace.converged_level == 0
    # every level equals the finest value up to rounding
    for k in range(len(trace.levels)):
        np.testing.assert_allclose(trace.j1[k], out.y1[-1], rtol=1e-12)
        np.testing.assert_allclose(trace.j2[k], out.y2[-1], rtol=1e-12)


def test_integral_is_the_integrate_path(walk_prp):
    f = ExponentialVol(1.0, (0.5, 0.5))
    out = integral(walk_prp, f)
    traced, _ = integrate(walk_prp, f)
    np.testing.assert_array_equal(out.y1, traced.y1)
    np.testing.assert_array_equal(out.y2, traced.y2)


@pytest.mark.parametrize("f", [ExponentialVol(0.7, (1.3, -0.4)),
                               ExponentialVol(1.0, (0.0, 2.5)),
                               ConstantVol(1.7)])
def test_partials_are_each_partial(default_cfg, f):
    # The batch form shares f(x) across indices; each entry keeps the
    # bits of the one-index form.
    xs = np.random.default_rng(8).normal(size=(257, 2))
    got = f.partials(default_cfg.I, xs)
    assert list(got) == list(default_cfg.I)
    for i in default_cfg.I:
        assert got[i].tobytes() == f.partial(i, xs).tobytes(), i
    with pytest.raises(DomainError):
        f.partials([(0, -1)], xs)


def test_trace_reconstructs_level1_once_per_partition(small_cfg, monkeypatch):
    # N = 64: six coarse dyadic partitions and the finest grid, one
    # level-1 reconstruction each; both sums share it.
    prp = _walk_prp(small_cfg, 64, 17)
    f = ExponentialVol(1.0, (0.5, 0.5))
    calls = []
    level1_pairs = core.level1_pairs

    def counted(*args):
        calls.append(args[1].size)
        return level1_pairs(*args)

    monkeypatch.setattr(core, "level1_pairs", counted)
    out, tr = integrate(prp, f, tol=1e-300)
    assert tr.n_cells == (1, 2, 4, 8, 16, 32, 64)
    assert sorted(calls) == [1, 2, 4, 8, 16, 32, 64]

    # The trace holds the public sums on each partition, to the bit.
    monkeypatch.undo()
    j1 = [compensated_sum_level1(prp, f, _dyadic(64, k)) for k in range(6)]
    j2 = [compensated_sum_level2(prp, f, _dyadic(64, k), out.y1) for k in range(6)]
    np.testing.assert_array_equal(tr.j1, np.asarray(j1 + [out.y1[-1]]))
    np.testing.assert_array_equal(tr.j2, np.asarray(j2 + [out.y2[-1]]))
    for j, diffs in ((tr.j1, tr.diffs1), (tr.j2, tr.diffs2)):
        assert diffs == tuple(float(np.linalg.norm(j[k + 1] - j[k])
                                    / (1.0 + np.linalg.norm(j[k])))
                              for k in range(6))


def _dyadic(N, level):
    return np.arange((1 << level) + 1) * (N >> level)


def test_unit_vol_reproduces_driver(walk_prp):
    out, _ = integrate(walk_prp, ConstantVol(1.0))
    np.testing.assert_allclose(out.y1, walk_prp.a[(0, 0)], rtol=1e-13, atol=1e-15)


# ---------------------------------------------------------------------------
# refinement trace on a smooth lift


@pytest.fixture(scope="module")
def smooth_setup():
    cfg = core.build_index_sets(0.45, 0.2, 2)
    grid = core.Grid(T=1.0, N=1024)
    prp = build_lift_quadrature((np.sin, lambda t: t ** 0.29), cfg, grid)
    return cfg, grid, prp


def test_trace_converges_on_smooth_lift(smooth_setup):
    _, _, prp = smooth_setup
    f = ExponentialVol(1.0, (1.0, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error", ConvergenceWarning)
        out, tr = integrate(prp, f, tol=1e-4)
    assert tr.stop_reason == "cauchy_tol"
    assert tr.converged_level == tr.levels[-2]
    assert tr.diffs1[-1] < 1e-4 and tr.diffs2[-1] < 1e-4
    # dyadic differences decay roughly second order for smooth data
    assert tr.diffs2[-1] < tr.diffs2[0] / 100.0
    assert tr.n_cells[0] == 1
    assert list(tr.n_cells) == [min(2 ** k, 1024) for k in tr.levels]


def test_random_partitions_approach_finest(smooth_setup):
    _, _, prp = smooth_setup
    f = ExponentialVol(1.0, (1.0, 1.0))
    out, _ = integrate(prp, f, tol=1e-9)
    gen = np.random.default_rng(5)
    for _ in range(3):
        interior = np.sort(gen.choice(np.arange(1, 1024), size=40, replace=False))
        part = np.concatenate([[0], interior, [1024]])
        j1 = compensated_sum_level1(prp, f, part)
        j2 = compensated_sum_level2(prp, f, part, out.y1)
        assert np.linalg.norm(j1 - out.y1[-1]) < 2e-3
        assert np.linalg.norm(j2 - out.y2[-1]) < 0.15


def test_compensated_sum_subinterval(walk_prp):
    f = ExponentialVol(1.0, (0.5, 0.5))
    out, _ = integrate(walk_prp, f)
    # one-cell partitions reproduce the per-cell contributions exactly
    for s, t in [(3, 4), (10, 11)]:
        j1 = compensated_sum_level1(walk_prp, f, np.array([s, t]))
        np.testing.assert_allclose(j1, out.y1[t] - out.y1[s], rtol=1e-12, atol=1e-16)


def test_convergence_warning_on_divergent_data(small_cfg):
    prp = _random_anchored_prp(small_cfg, 8, 2, xhat_scale=0.6)
    f = ExponentialVol(1.0, (1.0, 1.0))
    with pytest.warns(ConvergenceWarning):
        out, tr = integrate(prp, f, tol=1e-300)
    assert tr.stop_reason == "finest_grid"
    assert tr.converged_level is None
    assert tr.diffs1[-1] > tr.diffs1[-2] > tr.diffs1[-3]


# ---------------------------------------------------------------------------
# RoughPath container and partition validation


def test_rough_path_validation():
    grid = core.Grid(T=1.0, N=4)
    y1 = np.zeros((5, 1))
    y2 = np.zeros((5, 1, 1))
    rp = RoughPath(grid, y1, y2)
    assert rp.N == 4 and rp.d == 1
    with pytest.raises(DomainError):
        RoughPath(grid, np.zeros((4, 1)), y2)
    with pytest.raises(DomainError):
        RoughPath(grid, y1, np.zeros((5, 1, 2)))
    bad = y1.copy()
    bad[0] = 1.0
    with pytest.raises(DomainError):
        RoughPath(grid, bad, y2)
    nan = y1.copy()
    nan[2] = np.nan
    with pytest.raises(DomainError):
        RoughPath(grid, nan, y2)
    with pytest.raises(DomainError):
        rp.level1_pairs([3], [2])
    with pytest.raises(DomainError):
        rp.level2_pairs([0], [9])


def test_rough_path_pair_identity(walk_prp):
    f = ExponentialVol(1.0, (0.5, 0.5))
    out, _ = integrate(walk_prp, f)
    s = np.array([0, 7, 30])
    t = np.array([128, 50, 31])
    v1 = out.level1_pairs(s, t)
    np.testing.assert_array_equal(v1, out.y1[t] - out.y1[s])
    v2 = out.level2_pairs(s, t)
    expect = (out.y2[t] - out.y2[s]
              - np.einsum("pa,pb->pab", out.y1[s], out.y1[t] - out.y1[s]))
    np.testing.assert_array_equal(v2, expect)


def test_partition_validation(walk_prp):
    f = ConstantVol(1.0)
    with pytest.raises(DomainError):
        compensated_sum_level1(walk_prp, f, [5])
    with pytest.raises(DomainError):
        compensated_sum_level1(walk_prp, f, [0, 10, 10, 20])
    with pytest.raises(DomainError):
        compensated_sum_level1(walk_prp, f, [0, 200])
    with pytest.raises(DomainError):
        compensated_sum_level2(walk_prp, f, [0, 64], np.zeros((5, 1)))
    with pytest.raises(DomainError):
        integrate(walk_prp, f, tol=0.0)


# ---------------------------------------------------------------------------
# zeta factor


def _zeta_em(r, K=4096):
    # partial sum plus Euler-Maclaurin tail; error is O(K^{-r-5})
    k = np.arange(1, K + 1, dtype=np.float64)
    head = float(np.sum(k ** -r))
    tail = (K ** (1.0 - r) / (r - 1.0) - 0.5 * K ** -r
            + r / 12.0 * K ** (-r - 1.0)
            - r * (r + 1.0) * (r + 2.0) / 720.0 * K ** (-r - 3.0))
    return head + tail


def test_zeta_sum_values():
    assert zeta_sum(2.0) == pytest.approx(np.pi ** 2 / 6.0, rel=1e-13)
    for r in (1.05, 1.12, 1.3, 2.5, 4.0):
        assert zeta_sum(r) == pytest.approx(_zeta_em(r), rel=1e-10)
    for bad in (1.0, 0.5, -2.0):
        with pytest.raises(DomainError):
            zeta_sum(bad)


# ---------------------------------------------------------------------------
# bound constants


def test_bound_constants_small_config(small_cfg):
    M, K = 0.7, 2.0
    bc = theoretical_bounds(small_cfg, M, K)
    n, m, e, T = 2, 0, 2, 1.0
    alpha, beta = 0.45, 0.2
    r1 = (n + 1) * beta + alpha
    r2 = (m + 1) * beta + 2 * alpha
    z1 = 2.0 ** r1 * _zeta_em(r1)
    z2 = 2.0 ** r2 * _zeta_em(r2)
    c1 = (n + 1.0) ** (2 * e) * (1 + M) ** (n + 2) * 2.0 ** ((n + 1) * beta) * (1 + z1)
    assert bc.c1 == pytest.approx(c1, rel=1e-10)
    c2_aux = 2.0 * (1 + n + m) ** (4 * e) * (1 + M) ** (m + 3) * 2.0 ** ((2 * n - m - 1) * beta)
    c2 = (1 + m) ** (2 * e) * M + (c2_aux + 2 * c1 ** 2) * z2
    assert bc.c2 == pytest.approx(c2, rel=1e-10)
    c3 = (1 + n) ** (2 * e + 1) * 2.0 ** ((n + 1) * beta) * (1 + (3 * e + 2) * (1 + M) ** (n + 2) * z1)
    assert bc.c3 == pytest.approx(c3, rel=1e-10)
    c4_aux = (15 * e + 7) * (1 + n + m) ** (3 * e) * (1 + M) ** (m + 3) * 2.0 ** ((2 * n - m) * beta)
    c4 = (1 + m) ** (2 * e) * (1 + 2 * e * M) * 2.0 ** ((m + 1) * beta) + 2.0 * (c4_aux + 4 * c1 * c3) * z2
    assert bc.c4 == pytest.approx(c4, rel=1e-10)
    assert bc.level1 == pytest.approx(K * c1, rel=1e-10)
    assert bc.level2 == pytest.approx(K * K * c2, rel=1e-10)
    assert bc.lipschitz == pytest.approx(K * (c3 + K * c4), rel=1e-10)


def test_bound_constants_degenerate_config():
    # Degree-zero corner where every factor is known in closed form.
    zero = (0,)
    cfg = core.IndexConfig(alpha=0.45, beta=0.6, e=1, d=1, T=1.0,
                           I=(zero,), J=(((zero), (zero)),), n=0, m=0)
    bc = theoretical_bounds(cfg, 0.0, 1.0)
    z1 = 2.0 ** 1.05 * _zeta_em(1.05)
    assert bc.c1 == pytest.approx(2.0 ** 0.6 * (1.0 + z1), rel=1e-10)
    z2 = 2.0 ** 1.5 * _zeta_em(1.5)
    # the refinement-geometry exponent (2n - m - 1) beta is negative here
    assert bc.c2 == pytest.approx((2.0 * 2.0 ** -0.6 + 2.0 * bc.c1 ** 2) * z2,
                                  rel=1e-10)


def test_bound_constants_monotone_in_path_size(small_cfg):
    lo = theoretical_bounds(small_cfg, 0.5, 1.0)
    hi = theoretical_bounds(small_cfg, 2.5, 1.0)
    for name in ("c1", "c2", "c3", "c4"):
        assert getattr(hi, name) > getattr(lo, name)
    a = theoretical_bounds(small_cfg, 1.0, 1.0)
    b = theoretical_bounds(small_cfg, 1.0, 2.0)
    assert b.level1 == pytest.approx(2.0 * a.level1, rel=1e-13)
    assert b.level2 == pytest.approx(4.0 * a.level2, rel=1e-13)


def test_bounds_hold_on_lifted_walk(default_cfg):
    prp = _walk_prp(default_cfg, 128, 12)
    f = ExponentialVol(1.0, (0.25, 0.25))
    K = estimate_deriv_bound(f, prp.xhat, default_cfg.n + 2)
    M = homogeneous_norm(prp)
    bc = theoretical_bounds(default_cfg, M, K)
    rp, _ = integrate(prp, f)
    h1 = holder_norm(lambda s, t: rp.level1_pairs(s, t), default_cfg.alpha, prp.grid)
    h2 = holder_norm(lambda s, t: rp.level2_pairs(s, t), 2 * default_cfg.alpha, prp.grid)
    assert h1.value <= bc.level1
    assert h2.value <= bc.level2


def test_estimate_deriv_bound_exponential():
    f = ExponentialVol(1.0, (1.0, 1.0))
    pts = np.array([[0.0, 0.0], [1.0, 0.5], [-2.0, 0.3]])
    # every partial of exp(x0 + x1) equals the value itself
    assert estimate_deriv_bound(f, pts, 3) == pytest.approx(1.1 * np.exp(1.5), rel=1e-12)
    assert estimate_deriv_bound(ConstantVol(2.0), pts, 4) == pytest.approx(2.2, rel=1e-12)


# ---------------------------------------------------------------------------
# output distance and stability


def test_distance_alpha_basics(walk_prp):
    f = ExponentialVol(1.0, (0.5, 0.5))
    ra, _ = integrate(walk_prp, f)
    rb, _ = integrate(walk_prp, ConstantVol(1.0))
    assert distance_alpha(ra, ra, 0.4) == 0.0
    assert distance_alpha(ra, rb, 0.4) > 0.0
    other = RoughPath(core.Grid(T=1.0, N=4), np.zeros((5, 1)), np.zeros((5, 1, 1)))
    with pytest.raises(DomainError):
        distance_alpha(ra, other, 0.4)


def test_lipschitz_coinciding_drivers(walk_prp):
    rep = lipschitz_ratio(walk_prp, walk_prp, ExponentialVol(1.0, (0.5, 0.5)))
    assert rep.ratio == 0.0
    assert rep.distance_in == 0.0
    assert rep.distance_out <= 1e-10


def test_lipschitz_ratio_within_bound(small_cfg):
    pa = _walk_prp(small_cfg, 64, 31)
    pb = dilate(pa, 1.02)
    f = ExponentialVol(1.0, (0.25, 0.25))
    pts = np.concatenate([pa.xhat, pb.xhat])
    K = estimate_deriv_bound(f, pts, small_cfg.n + 2)
    M = max(homogeneous_norm(pa), homogeneous_norm(pb))
    bc = theoretical_bounds(small_cfg, M, K)
    rep = lipschitz_ratio(pa, pb, f)
    assert rep.distance_in > 0.0
    assert rep.ratio <= bc.lipschitz
