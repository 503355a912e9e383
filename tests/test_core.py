"""Anchored storage and pair reconstruction against literal double sums."""

import sys
import threading

import numpy as np
import pytest

from parpath import analysis, core
from parpath.core import (Grid, PartialRoughPath, build_index_sets,
                          level1_pairs, level2_pairs, lift_sampled_paths,
                          reconstruct_level1, reconstruct_level2)
from parpath.exceptions import DomainError, IndexSetError

from conftest import oracle_level1, oracle_level2, random_walk_paths


def _pairs_to_check(N, count=12, seed=3):
    gen = np.random.default_rng(seed)
    pairs = {(0, N), (0, 1), (N - 1, N), (N // 2, N // 2)}
    while len(pairs) < count:
        s, t = sorted(gen.integers(0, N + 1, size=2))
        pairs.add((int(s), int(t)))
    return sorted(pairs)


@pytest.mark.parametrize("cell_correction", [False, True])
def test_reconstruction_matches_double_sums(small_cfg, cell_correction):
    N = 64
    grid = Grid(T=1.0, N=N)
    xhat, x = random_walk_paths(11, N)
    prp = lift_sampled_paths(xhat, x, small_cfg, grid,
                             cell_correction=cell_correction)
    delta = grid.delta if cell_correction else None
    xh = prp.xhat  # anchored copy the lift actually stored
    for s, t in _pairs_to_check(N):
        for i in small_cfg.I:
            got = reconstruct_level1(prp, i, s, t)
            want = oracle_level1(xh, x - x[0], i, s, t)
            assert np.max(np.abs(got - want)) <= 1e-13 * (1 + np.max(np.abs(want)))
        for jk in small_cfg.J:
            got = reconstruct_level2(prp, jk, s, t)
            want = oracle_level2(xh, x - x[0], jk, s, t, delta=delta)
            assert np.max(np.abs(got - want)) <= 1e-13 * (1 + np.max(np.abs(want)))


def test_reconstruction_deep_index_set(default_cfg):
    # High-degree indices stress the graded recursion; a short path keeps
    # the double sums cheap.
    N = 16
    grid = Grid(T=1.0, N=N)
    xhat, x = random_walk_paths(23, N, scale=0.3)
    prp = lift_sampled_paths(xhat, x, default_cfg, grid)
    for s, t in [(0, N), (3, 11), (5, 6), (0, 9)]:
        for i in default_cfg.I:
            got = reconstruct_level1(prp, i, s, t)
            want = oracle_level1(prp.xhat, x - x[0], i, s, t)
            assert np.max(np.abs(got - want)) <= 1e-12 * (1 + np.max(np.abs(want)))
        for jk in default_cfg.J:
            got = reconstruct_level2(prp, jk, s, t)
            want = oracle_level2(prp.xhat, x - x[0], jk, s, t)
            assert np.max(np.abs(got - want)) <= 1e-12 * (1 + np.max(np.abs(want)))


def test_anchored_roundtrip(walk_prp):
    cfg = walk_prp.config
    for t in (1, 17, walk_prp.N):
        for i in cfg.I:
            assert np.array_equal(reconstruct_level1(walk_prp, i, 0, t),
                                  walk_prp.a[i][t])
        for jk in cfg.J:
            assert np.array_equal(reconstruct_level2(walk_prp, jk, 0, t),
                                  walk_prp.b[jk][t])


def test_degenerate_pair_is_zero(walk_prp):
    cfg = walk_prp.config
    for i in cfg.I:
        assert np.all(reconstruct_level1(walk_prp, i, 5, 5) == 0.0)
    for jk in cfg.J:
        assert np.all(reconstruct_level2(walk_prp, jk, 5, 5) == 0.0)


def test_pair_validation(walk_prp):
    with pytest.raises(DomainError):
        reconstruct_level1(walk_prp, (0, 0), 7, 3)
    with pytest.raises(DomainError):
        reconstruct_level1(walk_prp, (0, 0), 0, walk_prp.N + 1)
    with pytest.raises(DomainError):
        reconstruct_level1(walk_prp, (0, 0), -1, 3)
    with pytest.raises(IndexSetError):
        reconstruct_level1(walk_prp, (99, 0), 0, 3)
    with pytest.raises(IndexSetError):
        reconstruct_level2(walk_prp, ((9, 9), (0, 0)), 0, 3)


def test_batched_pairs_match_single(walk_prp):
    cfg = walk_prp.config
    s = np.array([0, 3, 10, 64])
    t = np.array([5, 3, 127, 128])
    v1 = level1_pairs(walk_prp, s, t)
    v2 = level2_pairs(walk_prp, s, t, v1)
    assert list(v1) == list(cfg.I) and list(v2) == list(cfg.J)
    for p in range(s.size):
        for i in cfg.I:
            assert np.array_equal(
                v1[i][p], reconstruct_level1(walk_prp, i, int(s[p]), int(t[p])))
        for jk in cfg.J:
            assert np.array_equal(
                v2[jk][p], reconstruct_level2(walk_prp, jk, int(s[p]), int(t[p])))


def test_first_use_of_the_tables_from_many_threads(walk_prp):
    # Each thread's first query may build the shared splitting tables.
    s = np.array([0, 3, 10, 64])
    t = np.array([5, 3, 127, 128])
    want = level2_pairs(walk_prp, s, t, level1_pairs(walk_prp, s, t))
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            prp = lift_sampled_paths(walk_prp.xhat, walk_prp.a[(0, 0)],
                                     build_index_sets(0.4, 0.08, 2), walk_prp.grid)
            workers = [threading.Thread(
                target=lambda: results.append(
                    level2_pairs(prp, s, t, level1_pairs(prp, s, t))))
                for _ in range(8)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
            assert not any(w.is_alive() for w in workers)
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 24
    for got in results:
        assert all(np.array_equal(got[jk], want[jk]) for jk in want)


def test_lift_anchors_and_shapes(small_cfg):
    N = 32
    grid = Grid(T=2.0, N=N)
    xhat, x = random_walk_paths(5, N)
    xhat = xhat + 3.0  # non-anchored input must be recentered
    prp = lift_sampled_paths(xhat, x[:, 0], small_cfg, grid)  # 1-d x accepted
    assert np.all(prp.xhat[0] == 0.0)
    assert np.allclose(prp.xhat, xhat - xhat[0])
    assert prp.a[(0, 0)].shape == (N + 1, 1)
    # The zero index accumulates the raw driver increments.
    assert np.allclose(prp.a[(0, 0)][:, 0], x[:, 0] - x[0, 0], atol=1e-15)


def test_container_validation(small_cfg):
    N = 8
    grid = Grid(T=1.0, N=N)
    xhat, x = random_walk_paths(1, N)
    prp = lift_sampled_paths(xhat, x, small_cfg, grid)
    good_a = {i: prp.a[i].copy() for i in small_cfg.I}
    good_b = {jk: prp.b[jk].copy() for jk in small_cfg.J}

    with pytest.raises(DomainError):
        PartialRoughPath(grid, small_cfg, prp.xhat[:-1], good_a, good_b)
    bad = dict(good_a)
    bad[(0, 0)] = bad[(0, 0)] + 1.0  # not anchored at 0
    with pytest.raises(DomainError):
        PartialRoughPath(grid, small_cfg, prp.xhat, bad, good_b)
    missing = dict(good_a)
    del missing[(0, 1)]
    with pytest.raises(DomainError):
        PartialRoughPath(grid, small_cfg, prp.xhat, missing, good_b)
    nonfinite = dict(good_b)
    nonfinite[small_cfg.J[0]] = np.full_like(good_b[small_cfg.J[0]], np.nan)
    with pytest.raises(DomainError):
        PartialRoughPath(grid, small_cfg, prp.xhat, good_a, nonfinite)

    frozen = prp.a[(0, 0)]
    with pytest.raises(ValueError):
        frozen[0, 0] = 1.0


def test_grid_validation():
    with pytest.raises(Exception):
        Grid(T=1.0, N=1)
    with pytest.raises(Exception):
        Grid(T=-1.0, N=8)
    g = Grid(T=2.0, N=4)
    assert g.delta == 0.5
    assert np.allclose(g.nodes, [0.0, 0.5, 1.0, 1.5, 2.0])


# ---------------------------------------------------------------------------
# in-place pair reconstruction against the out-of-place recursion


def _oracle_level1_pairs(prp, s, t):
    """The graded level-1 recursion written out of place, one new array
    per operation: the bit-level reference of :func:`level1_pairs`."""
    cfg = prp.config
    pows = core._PowerCache(prp.xhat[s])
    vals = {}
    for i in cfg.I:
        v = prp.a[i][t] - prp.a[i][s]
        for p, diff, w in cfg._down1[i][:-1]:
            coef = pows.coefficient(diff)
            term = w * vals[p]
            v = v - (term if coef is None else coef[:, None] * term)
        vals[i] = v
    return vals


def _oracle_level2_pairs(prp, s, t, level1):
    """The level-2 recursion out of place, as :func:`_oracle_level1_pairs`."""
    cfg = prp.config
    pows = core._PowerCache(prp.xhat[s])
    vals = {}
    for (j, k) in cfg.J:
        v = prp.b[(j, k)][t] - prp.b[(j, k)][s]
        aj_s = prp.a[j][s]
        for q, diff, w in cfg._down1[k]:
            coef = pows.coefficient(diff)
            outer = np.einsum("pa,pb->pab", aj_s, level1[q])
            v = v - (w * outer if coef is None else (w * coef)[:, None, None] * outer)
        for pq, diff, w in cfg._down2[(j, k)][:-1]:
            coef = pows.coefficient(diff)
            term = w * vals[pq]
            v = v - (term if coef is None else coef[:, None, None] * term)
        vals[(j, k)] = v
    return vals


_BIT_N = 256
# The README example's 36 words and 15 pairs; a two-dimensional driver;
# three smooth axes, whose level-2 pairs cross axes (j, k both non-zero).
_BIT_CONFIGS = {"readme": (0.4, 0.08, 2, 1), "d2": (0.4, 0.1, 2, 2),
                "cross": (0.35, 0.1, 3, 1)}


def _bit_pairs(name):
    N = _BIT_N
    if name == "P0":
        return np.array([], dtype=np.int64), np.array([], dtype=np.int64)
    if name == "P1":
        return np.array([3]), np.array([200])
    if name == "repeated":  # unsorted, with repeats and an empty pair
        return np.array([5, 0, 5, 7, 0, 130]), np.array([9, N, 9, 7, N, 131])
    if name == "dyadic-gap":
        s = np.arange(0, N - 16 + 1)
        return s, s + 16
    s, t = next(analysis._iter_pairs(N, "exhaustive"))
    assert s.size >= analysis._PAIR_CHUNK
    return s, t


@pytest.fixture(scope="module", params=sorted(_BIT_CONFIGS))
def bit_prp(request):
    alpha, beta, e, d = _BIT_CONFIGS[request.param]
    cfg = build_index_sets(alpha, beta, e, d=d)
    xhat, x = random_walk_paths(31, _BIT_N, e=e, d=d)
    return lift_sampled_paths(xhat, x, cfg, Grid(T=1.0, N=_BIT_N),
                              cell_correction=True)


@pytest.mark.parametrize("pairs", ["P0", "P1", "repeated", "dyadic-gap",
                                   "exhaustive-chunk"])
def test_pair_values_are_the_out_of_place_bits(bit_prp, pairs):
    s, t = _bit_pairs(pairs)
    v1 = level1_pairs(bit_prp, s, t)
    want1 = _oracle_level1_pairs(bit_prp, s, t)
    assert list(v1) == list(want1) == list(bit_prp.config.I)
    for i, v in want1.items():
        assert v1[i].shape == v.shape and v1[i].tobytes() == v.tobytes(), i
    v2 = level2_pairs(bit_prp, s, t, v1)
    want2 = _oracle_level2_pairs(bit_prp, s, t, want1)
    assert list(v2) == list(want2) == list(bit_prp.config.J)
    for jk, v in want2.items():
        assert v2[jk].shape == v.shape and v2[jk].tobytes() == v.tobytes(), jk


def test_chen_report_is_unchanged_by_in_place_pairs(bit_prp, monkeypatch):
    got = analysis.chen_defect_report(bit_prp, n_triples=500, seed=4)
    monkeypatch.setattr(core, "level1_pairs", _oracle_level1_pairs)
    monkeypatch.setattr(core, "level2_pairs", _oracle_level2_pairs)
    want = analysis.chen_defect_report(bit_prp, n_triples=500, seed=4)
    assert got == want
