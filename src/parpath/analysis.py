"""Hoelder-type norms, metrics, consistency defects, and dilation.

Norms run over node pairs of the grid.  Two pair schemes exist:
``exhaustive`` visits all N(N+1)/2 pairs, ``dyadic`` only pairs whose
gap is a power-of-two number of cells (O(N log N) pairs).  ``auto``
picks exhaustive up to 1024 cells.  The dyadic scheme underestimates by
design; it is a screening tool for long paths, and reports carry the
scheme used so numbers are never compared across schemes by accident.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import core
from .exceptions import DomainError
from .rng import stream

_EXHAUSTIVE_MAX = 1024
_PAIR_CHUNK = 1 << 15


def _iter_pairs(N: int, scheme: str):
    """Yield (s, t) index-array chunks for the requested scheme."""
    if scheme == "exhaustive":
        buf_s, buf_t, count = [], [], 0
        for s in range(N):
            t = np.arange(s + 1, N + 1, dtype=np.int64)
            buf_s.append(np.full(t.size, s, dtype=np.int64))
            buf_t.append(t)
            count += t.size
            if count >= _PAIR_CHUNK:
                yield np.concatenate(buf_s), np.concatenate(buf_t)
                buf_s, buf_t, count = [], [], 0
        if count:
            yield np.concatenate(buf_s), np.concatenate(buf_t)
    elif scheme == "dyadic":
        gap = 1
        while gap <= N:
            s = np.arange(0, N - gap + 1, dtype=np.int64)
            yield s, s + gap
            gap *= 2
    else:
        raise DomainError(f"unknown pair scheme {scheme!r}")


def resolve_scheme(scheme: str, N: int) -> str:
    if scheme == "auto":
        return "exhaustive" if N <= _EXHAUSTIVE_MAX else "dyadic"
    if scheme not in ("exhaustive", "dyadic"):
        raise DomainError(f"unknown pair scheme {scheme!r}")
    return scheme


@dataclasses.dataclass(frozen=True)
class HolderReport:
    """One measured Hoelder seminorm: value and where it was attained."""

    value: float
    gamma: float
    scheme: str
    argmax: tuple
    n_pairs: int


def _flat_norm(vals):
    vals = np.asarray(vals)
    return np.sqrt((vals.reshape(vals.shape[0], -1) ** 2).sum(axis=1))


def _holder_sweep(evaluate, exps: dict, grid: core.Grid, scheme: str) -> dict:
    """sup over node pairs of |value| / (t - s)^exponent, per key of ``exps``.

    ``evaluate`` maps equal-length index arrays (s, t) to a dict keyed
    like ``exps`` of values with leading pair axis; trailing axes are
    reduced by the Frobenius norm.  Returns HolderReports in key order.
    """
    scheme = resolve_scheme(scheme, grid.N)
    nodes = grid.nodes
    best = {key: (0.0, (0, 0)) for key in exps}
    n_pairs = 0
    for s, t in _iter_pairs(grid.N, scheme):
        n_pairs += s.size
        gaps = nodes[t] - nodes[s]
        scales = {}  # exponent -> gaps ** exponent, shared by its keys
        for key, vals in evaluate(s, t).items():
            e = exps[key]
            if e not in scales:
                scales[e] = gaps ** e
            ratios = _flat_norm(vals) / scales[e]
            k = int(ratios.argmax())
            if ratios[k] > best[key][0]:
                best[key] = (float(ratios[k]), (int(s[k]), int(t[k])))
    return {key: HolderReport(value=val, gamma=exps[key], scheme=scheme,
                              argmax=arg, n_pairs=n_pairs)
            for key, (val, arg) in best.items()}


def holder_norm(evaluate, gamma: float, grid: core.Grid,
                scheme: str = "auto") -> HolderReport:
    """sup over node pairs of |evaluate(s, t)| / (t - s)^gamma.

    ``evaluate`` maps equal-length index arrays (s, t) to values with
    leading pair axis; trailing axes are reduced by the Frobenius norm.
    """
    return _holder_sweep(lambda s, t: {0: evaluate(s, t)}, {0: gamma},
                         grid, scheme)[0]


def _pair_values(prp: core.PartialRoughPath, s, t) -> dict:
    """Every stored component over the pairs: "xhat", level 1, level 2."""
    v1 = core.level1_pairs(prp, s, t)
    return {"xhat": prp.xhat[t] - prp.xhat[s], **v1,
            **core.level2_pairs(prp, s, t, v1)}


def _component_sweep(prp: core.PartialRoughPath, scheme: str, other=None):
    """Max |value|/gap^exponent for every stored component in one pass.

    With ``other`` given, measures the componentwise differences
    (prp - other) instead.  Returns dicts keyed "xhat", multi-indices,
    and pairs, each mapping to a HolderReport.
    """
    cfg = prp.config
    alpha, beta = cfg.alpha, cfg.beta
    exps = {"xhat": beta}
    for i in cfg.I:
        exps[i] = core.midx_degree(i) * beta + alpha
    for (j, k) in cfg.J:
        exps[(j, k)] = (core.midx_degree(j) + core.midx_degree(k)) * beta + 2.0 * alpha

    def evaluate(s, t):
        vals = _pair_values(prp, s, t)
        if other is None:
            return vals
        theirs = _pair_values(other, s, t)
        return {key: v - theirs[key] for key, v in vals.items()}

    return _holder_sweep(evaluate, exps, prp.grid, scheme)


def component_holder_norms(prp: core.PartialRoughPath, scheme: str = "auto"):
    """Hoelder reports for xhat, every level-1 index, every level-2 pair."""
    return _component_sweep(prp, scheme)


def homogeneous_norm(prp: core.PartialRoughPath, scheme: str = "auto") -> float:
    """Scaling-homogeneous size of the lift.

    ``||xhat||_beta + sum_i ||X^(i)||^(1/(|i|+1)) + sum_jk ||XX||^(1/(|j+k|+2))``
    with each component measured in its own Hoelder exponent.  Exactly
    1-homogeneous under :func:`dilate`.
    """
    return _homogeneous_from_reports(prp.config, _component_sweep(prp, scheme))


def _homogeneous_from_reports(cfg: core.IndexConfig, reports: dict) -> float:
    """:func:`homogeneous_norm` from the reports of one component sweep."""
    total = reports["xhat"].value
    for i in cfg.I:
        total += reports[i].value ** (1.0 / (core.midx_degree(i) + 1.0))
    for (j, k) in cfg.J:
        deg = core.midx_degree(j) + core.midx_degree(k)
        total += reports[(j, k)].value ** (1.0 / (deg + 2.0))
    return float(total)


def _check_compatible(pa: core.PartialRoughPath, pb: core.PartialRoughPath):
    if pa.config != pb.config:
        raise DomainError("paths live on different index configurations")
    if pa.grid != pb.grid:
        raise DomainError("paths live on different grids")


def distance_ab(pa: core.PartialRoughPath, pb: core.PartialRoughPath,
                scheme: str = "auto") -> float:
    """Inhomogeneous metric: sum of componentwise Hoelder distances."""
    _check_compatible(pa, pb)
    reports = _component_sweep(pa, scheme, other=pb)
    return float(sum(r.value for r in reports.values()))


def dilate(prp: core.PartialRoughPath, lam: float) -> core.PartialRoughPath:
    """Dilation: xhat by lam, X^(i) by lam^(|i|+1), XX^(jk) by lam^(|j+k|+2)."""
    cfg = prp.config
    a = {i: float(lam) ** (core.midx_degree(i) + 1) * prp.a[i] for i in cfg.I}
    b = {(j, k): float(lam) ** (core.midx_degree(j) + core.midx_degree(k) + 2) * prp.b[(j, k)]
         for (j, k) in cfg.J}
    return core.PartialRoughPath(prp.grid, cfg, float(lam) * prp.xhat, a, b)


@dataclasses.dataclass(frozen=True)
class ChenDefectReport:
    """Worst relative splitting defects over sampled node triples."""

    max_level1: float
    max_level2: float
    argmax_level1: tuple  # (index, (s, u, t))
    argmax_level2: tuple
    n_triples: int
    seed: int
    by_index: dict

    @property
    def max_defect(self) -> float:
        return max(self.max_level1, self.max_level2)


def chen_defect_report(prp: core.PartialRoughPath, n_triples: int = 1000,
                       seed: int = 0, triples=None) -> ChenDefectReport:
    """Measure the splitting identities on random node triples.

    For each sampled s <= u <= t, evaluates both identities with every
    term reconstructed independently, and reports
    ``|defect| / (1 + |value over (s,t)|)`` maximized per index.  For
    data produced by the discrete lifts the identities are exact, so
    defects sit at accumulated rounding level.
    """
    cfg, N = prp.config, prp.N
    if triples is None:
        gen = stream(seed, "chen-triples")
        raw = gen.integers(0, N + 1, size=(int(n_triples), 3))
        raw.sort(axis=1)
        s, u, t = raw[:, 0], raw[:, 1], raw[:, 2]
    else:
        arr = np.asarray(triples, dtype=np.int64)
        s, u, t = arr[:, 0], arr[:, 1], arr[:, 2]
        if np.any(s > u) or np.any(u > t):
            raise DomainError("triples must satisfy s <= u <= t")
    P = s.size
    v1_st = core.level1_pairs(prp, s, t)
    v1_su = core.level1_pairs(prp, s, u)
    v1_ut = core.level1_pairs(prp, u, t)
    v2_st = core.level2_pairs(prp, s, t, v1_st)
    v2_su = core.level2_pairs(prp, s, u, v1_su)
    v2_ut = core.level2_pairs(prp, u, t, v1_ut)
    pows = core._PowerCache(prp.xhat[u] - prp.xhat[s])

    def coef(diff, w):
        c = pows.coefficient(diff)
        return np.full(P, w) if c is None else w * c

    by_index = {}
    best1, arg1 = 0.0, (None, (0, 0, 0))
    for i in cfg.I:
        recomposed = v1_su[i].copy()
        for p, diff, w in cfg._down1[i]:
            recomposed += coef(diff, w)[:, None] * v1_ut[p]
        rel = _flat_norm(v1_st[i] - recomposed) / (1.0 + _flat_norm(v1_st[i]))
        k = int(np.argmax(rel)) if P else 0
        worst = float(rel[k]) if P else 0.0
        by_index[i] = worst
        if worst > best1:
            best1, arg1 = worst, (i, (int(s[k]), int(u[k]), int(t[k])))
    best2, arg2 = 0.0, (None, (0, 0, 0))
    for (j, k_) in cfg.J:
        recomposed = v2_su[(j, k_)].copy()
        for q, diff, w in cfg._down1[k_]:
            recomposed += np.einsum("p,pa,pb->pab", coef(diff, w), v1_su[j], v1_ut[q])
        for (p, q), diff, w in cfg._down2[(j, k_)]:
            recomposed += coef(diff, w)[:, None, None] * v2_ut[(p, q)]
        rel = _flat_norm(v2_st[(j, k_)] - recomposed) / (1.0 + _flat_norm(v2_st[(j, k_)]))
        kk = int(np.argmax(rel)) if P else 0
        worst = float(rel[kk]) if P else 0.0
        by_index[(j, k_)] = worst
        if worst > best2:
            best2, arg2 = worst, ((j, k_), (int(s[kk]), int(u[kk]), int(t[kk])))
    return ChenDefectReport(max_level1=best1, max_level2=best2,
                            argmax_level1=arg1, argmax_level2=arg2,
                            n_triples=P, seed=seed, by_index=by_index)
