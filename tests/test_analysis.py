import numpy as np
import pytest

from parpath import analysis, core
from parpath.analysis import (
    chen_defect_report,
    component_holder_norms,
    dilate,
    distance_ab,
    holder_norm,
    homogeneous_norm,
    resolve_scheme,
)
from parpath.exceptions import DomainError

from conftest import random_walk_paths


def _walk_prp(cfg, N, seed, scale=None):
    xhat, x = random_walk_paths(seed, N, scale=scale)
    return core.lift_sampled_paths(xhat, x, cfg, core.Grid(T=1.0, N=N))


def _random_anchored_prp(cfg, N, seed):
    # Arbitrary anchored data, deliberately not a lift of anything.
    gen = np.random.default_rng(seed)
    xhat = np.zeros((N + 1, cfg.e))
    xhat[1:] = np.cumsum(gen.normal(size=(N, cfg.e)) / np.sqrt(N), axis=0)
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
# holder_norm


def test_holder_norm_linear_function():
    grid = core.Grid(T=1.0, N=64)
    nodes = grid.nodes
    evaluate = lambda s, t: nodes[t] - nodes[s]
    rep = holder_norm(evaluate, 0.5, grid)
    # sup (t-s)^{1-gamma} is attained at the full interval
    assert rep.value == pytest.approx(1.0, rel=1e-12)
    assert rep.argmax == (0, 64)
    assert rep.scheme == "exhaustive"
    assert rep.n_pairs == 64 * 65 // 2


def test_holder_norm_sqrt_function():
    grid = core.Grid(T=1.0, N=64)
    nodes = grid.nodes
    evaluate = lambda s, t: np.sqrt(nodes[t]) - np.sqrt(nodes[s])
    rep = holder_norm(evaluate, 0.5, grid)
    # sqrt(t) - sqrt(s) <= sqrt(t - s), equality at s = 0
    assert rep.value == pytest.approx(1.0, rel=1e-12)
    assert rep.argmax[0] == 0


def test_holder_norm_matches_bruteforce_multiaxis():
    grid = core.Grid(T=1.0, N=16)
    gen = np.random.default_rng(3)
    path = np.cumsum(gen.normal(size=(17, 2)), axis=0)
    evaluate = lambda s, t: path[t] - path[s]
    rep = holder_norm(evaluate, 0.4, grid)
    best = 0.0
    for s in range(16):
        for t in range(s + 1, 17):
            r = np.linalg.norm(path[t] - path[s]) / (grid.nodes[t] - grid.nodes[s]) ** 0.4
            best = max(best, r)
    assert rep.value == pytest.approx(best, rel=1e-14)
    s, t = rep.argmax
    attained = np.linalg.norm(path[t] - path[s]) / (grid.nodes[t] - grid.nodes[s]) ** 0.4
    assert attained == pytest.approx(rep.value, rel=1e-14)


def test_holder_norm_is_the_one_key_sweep():
    grid = core.Grid(T=1.0, N=16)
    gen = np.random.default_rng(5)
    path = np.cumsum(gen.normal(size=(17, 2)), axis=0)
    rough = np.cumsum(gen.normal(size=(17, 3, 3)), axis=0)
    evaluate = {"a": lambda s, t: path[t] - path[s],
                "b": lambda s, t: rough[t] - rough[s]}
    exps = {"a": 0.4, "b": 0.8}
    for scheme in ("exhaustive", "dyadic"):
        both = analysis._holder_sweep(
            lambda s, t: {key: fn(s, t) for key, fn in evaluate.items()},
            exps, grid, scheme)
        for key, fn in evaluate.items():
            one = analysis._holder_sweep(lambda s, t: {key: fn(s, t)},
                                         {key: exps[key]}, grid, scheme)[key]
            rep = holder_norm(fn, exps[key], grid, scheme=scheme)
            # value, argmax, n_pairs, gamma and scheme all agree
            assert rep == one == both[key]


def _sweep_per_key(evaluate, exps, grid, scheme):
    """The sweep with ``gaps ** exponent`` taken afresh for every key:
    the reference for the scales :func:`analysis._holder_sweep` shares."""
    nodes = grid.nodes
    best = {key: (0.0, (0, 0)) for key in exps}
    n_pairs = 0
    for s, t in analysis._iter_pairs(grid.N, analysis.resolve_scheme(scheme, grid.N)):
        n_pairs += s.size
        gaps = nodes[t] - nodes[s]
        for key, vals in evaluate(s, t).items():
            flat = np.asarray(vals).reshape(s.size, -1)
            ratios = np.sqrt(np.sum(flat ** 2, axis=1)) / gaps ** exps[key]
            k = int(np.argmax(ratios))
            if ratios[k] > best[key][0]:
                best[key] = (float(ratios[k]), (int(s[k]), int(t[k])))
    return {key: (val, arg, n_pairs) for key, (val, arg) in best.items()}


def _sweep_summary(reports):
    return {key: (rep.value, rep.argmax, rep.n_pairs)
            for key, rep in reports.items()}


@pytest.mark.parametrize("scheme", ["exhaustive", "dyadic"])
def test_shared_scales_match_the_per_key_sweep(default_cfg, scheme):
    prp = _walk_prp(default_cfg, 300, 17)
    exps = {"xhat": default_cfg.beta}
    exps.update({i: core.midx_degree(i) * default_cfg.beta + default_cfg.alpha
                 for i in default_cfg.I})
    exps.update({(j, k): (core.midx_degree(j) + core.midx_degree(k))
                 * default_cfg.beta + 2.0 * default_cfg.alpha
                 for (j, k) in default_cfg.J})
    # Many keys share one exponent, so the scales are shared.
    assert len(set(exps.values())) < len(exps)
    evaluate = lambda s, t: analysis._pair_values(prp, s, t)
    got = analysis._holder_sweep(evaluate, exps, prp.grid, scheme)
    assert list(got) == list(exps)
    assert _sweep_summary(got) == _sweep_per_key(evaluate, exps, prp.grid, scheme)
    assert got == analysis._component_sweep(prp, scheme)


@pytest.mark.parametrize("scheme", ["exhaustive", "dyadic"])
def test_tied_ratios_keep_the_first_pair(scheme):
    # |t - s| / (t - s)^1 is exactly 1 at every pair: the first pair of
    # the first chunk must win, for both keys of the shared exponent.
    grid = core.Grid(T=1.0, N=64)
    nodes = grid.nodes
    evaluate = lambda s, t: {"a": nodes[t] - nodes[s],
                             "b": np.stack([nodes[t] - nodes[s],
                                            np.zeros(s.size)], axis=1),
                             "c": nodes[t] - nodes[s]}
    exps = {"a": 1.0, "b": 1.0, "c": 0.5}
    got = analysis._holder_sweep(evaluate, exps, grid, scheme)
    assert _sweep_summary(got) == _sweep_per_key(evaluate, exps, grid, scheme)
    assert got["a"].value == got["b"].value == 1.0
    assert got["a"].argmax == got["b"].argmax == (0, 1)


def test_dyadic_scheme_underestimates(default_cfg):
    prp = _walk_prp(default_cfg, 128, 21)
    evaluate = lambda s, t: prp.xhat[t] - prp.xhat[s]
    full = holder_norm(evaluate, default_cfg.beta, prp.grid, scheme="exhaustive")
    dy = holder_norm(evaluate, default_cfg.beta, prp.grid, scheme="dyadic")
    assert dy.value <= full.value
    assert dy.n_pairs < full.n_pairs
    assert dy.scheme == "dyadic"


def test_scheme_resolution():
    assert resolve_scheme("auto", 1024) == "exhaustive"
    assert resolve_scheme("auto", 1025) == "dyadic"
    assert resolve_scheme("dyadic", 8) == "dyadic"
    with pytest.raises(DomainError):
        resolve_scheme("fancy", 8)
    with pytest.raises(DomainError):
        holder_norm(lambda s, t: s * 0.0, 0.5, core.Grid(T=1.0, N=8), scheme="fancy")


# ---------------------------------------------------------------------------
# component norms, homogeneous norm, dilation


def test_component_norms_cover_all_indices(small_cfg):
    prp = _walk_prp(small_cfg, 64, 9)
    reports = component_holder_norms(prp)
    assert set(reports) == {"xhat"} | set(small_cfg.I) | set(small_cfg.J)
    assert reports["xhat"].gamma == small_cfg.beta
    for i in small_cfg.I:
        assert reports[i].gamma == core.midx_degree(i) * small_cfg.beta + small_cfg.alpha
    for r in reports.values():
        assert r.value > 0.0
        s, t = r.argmax
        assert 0 <= s < t <= 64


def test_homogeneous_norm_matches_component_formula(small_cfg):
    prp = _walk_prp(small_cfg, 64, 13)
    reports = component_holder_norms(prp)
    total = reports["xhat"].value
    for i in small_cfg.I:
        total += reports[i].value ** (1.0 / (core.midx_degree(i) + 1.0))
    for (j, k) in small_cfg.J:
        deg = core.midx_degree(j) + core.midx_degree(k)
        total += reports[(j, k)].value ** (1.0 / (deg + 2.0))
    assert homogeneous_norm(prp) == pytest.approx(total, rel=1e-15)


def test_dilation_homogeneity(default_cfg):
    prp = _walk_prp(default_cfg, 128, 7)
    base = homogeneous_norm(prp)
    for lam in (2.0, 0.5, 3.7):
        assert homogeneous_norm(dilate(prp, lam)) == pytest.approx(lam * base, rel=1e-12)


def test_dilation_scales_pair_values(small_cfg):
    prp = _walk_prp(small_cfg, 64, 17)
    lam = 1.9
    dil = dilate(prp, lam)
    s = np.array([0, 5, 31], dtype=np.int64)
    t = np.array([64, 40, 32], dtype=np.int64)
    v1 = core.level1_pairs(prp, s, t)
    w1 = core.level1_pairs(dil, s, t)
    for i in small_cfg.I:
        scale = lam ** (core.midx_degree(i) + 1)
        np.testing.assert_allclose(w1[i], scale * v1[i], rtol=1e-12, atol=1e-14)
    v2 = core.level2_pairs(prp, s, t, v1)
    w2 = core.level2_pairs(dil, s, t, w1)
    for (j, k) in small_cfg.J:
        scale = lam ** (core.midx_degree(j) + core.midx_degree(k) + 2)
        np.testing.assert_allclose(w2[(j, k)], scale * v2[(j, k)], rtol=1e-12, atol=1e-14)


def test_dilation_identity_is_noop(small_cfg):
    prp = _walk_prp(small_cfg, 32, 2)
    dil = dilate(prp, 1.0)
    np.testing.assert_array_equal(dil.xhat, prp.xhat)
    for i in small_cfg.I:
        np.testing.assert_array_equal(dil.a[i], prp.a[i])


# ---------------------------------------------------------------------------
# distance


def test_distance_metric_properties(small_cfg):
    pa = _walk_prp(small_cfg, 64, 1)
    pb = _walk_prp(small_cfg, 64, 2)
    pc = _walk_prp(small_cfg, 64, 3)
    assert distance_ab(pa, pa) == 0.0
    dab = distance_ab(pa, pb)
    assert dab == distance_ab(pb, pa)
    assert dab > 0.0
    assert distance_ab(pa, pc) <= dab + distance_ab(pb, pc) + 1e-12


def test_distance_rejects_incompatible(small_cfg, default_cfg):
    pa = _walk_prp(small_cfg, 64, 1)
    pb = _walk_prp(default_cfg, 64, 1)
    with pytest.raises(DomainError):
        distance_ab(pa, pb)
    pc = _walk_prp(small_cfg, 32, 1)
    with pytest.raises(DomainError):
        distance_ab(pa, pc)


# ---------------------------------------------------------------------------
# splitting defects


def test_chen_defects_on_lifted_walk(walk_prp):
    rep = chen_defect_report(walk_prp, n_triples=300, seed=3)
    assert rep.max_level1 <= 1e-12
    assert rep.max_level2 <= 1e-12
    assert rep.max_defect == max(rep.max_level1, rep.max_level2)
    assert rep.n_triples == 300
    cfg = walk_prp.config
    assert set(rep.by_index) == set(cfg.I) | set(cfg.J)


def test_chen_exactness_is_representational(small_cfg, default_cfg):
    # The identities are algebraic in the anchored representation: they
    # must hold at rounding level for data that is not a lift of any
    # path.  A wrong recursion weight would show up as an O(1) defect.
    for cfg, N in [(small_cfg, 64), (default_cfg, 32)]:
        prp = _random_anchored_prp(cfg, N, 11)
        rep = chen_defect_report(prp, n_triples=400, seed=5)
        assert rep.max_defect <= 1e-12


def test_chen_degenerate_triples_are_exact(walk_prp):
    triples = np.array([[4, 4, 90], [10, 90, 90], [7, 7, 7], [0, 64, 128]])
    rep = chen_defect_report(walk_prp, triples=triples)
    assert rep.n_triples == 4
    assert rep.max_level1 <= 1e-13
    assert rep.max_level2 <= 1e-13


def test_chen_rejects_unordered_triples(walk_prp):
    with pytest.raises(DomainError):
        chen_defect_report(walk_prp, triples=np.array([[5, 3, 10]]))


def test_chen_seed_changes_sample(walk_prp):
    r1 = chen_defect_report(walk_prp, n_triples=50, seed=1)
    r2 = chen_defect_report(walk_prp, n_triples=50, seed=2)
    r1b = chen_defect_report(walk_prp, n_triples=50, seed=1)
    assert r1.argmax_level1 == r1b.argmax_level1
    assert r1.max_level1 == r1b.max_level1
    assert r1.argmax_level1 != r2.argmax_level1 or r1.max_level1 != r2.max_level1
