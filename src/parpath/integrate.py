"""Compensated Riemann sums, rough integrals, and a-priori bounds.

The integral of f against a lifted driver is a limit of compensated
sums: over a partition, each cell contributes every stored level-1 term
weighted by the matching partial of f at the cell's left anchor, and
(for the second integral level) every level-2 term weighted by products
of partials.  On discrete data the finest partition is already the
limit, so :func:`integral` returns the finest-partition sums, and
:func:`integrate` returns them with a refinement trace showing how
coarser partitions approach them.

``theoretical_bounds`` evaluates the closed-form constants that bound
the integral levels and the Lipschitz dependence on the driver; they
are fully explicit in (n, m, e, alpha, beta, T) and the path size M,
with zeta-function factors summing the dyadic refinement geometry.
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np

from . import analysis, core
from .exceptions import ConvergenceWarning, DomainError
from .volfn import VolFunction


class RoughPath:
    """Anchored two-level integral path: y1 (N+1, d), y2 (N+1, d, d).

    Pair values follow from the anchored arrays:
    ``Y1_st = y1[t] - y1[s]`` and
    ``Y2_st = y2[t] - y2[s] - y1[s] (x) (y1[t] - y1[s])``,
    which satisfies the two-level splitting identity exactly.
    """

    def __init__(self, grid: core.Grid, y1, y2):
        y1 = np.asarray(y1, dtype=np.float64)
        y2 = np.asarray(y2, dtype=np.float64)
        N = grid.N
        if y1.ndim != 2 or y1.shape[0] != N + 1:
            raise DomainError(f"y1 must have shape ({N + 1}, d)")
        d = y1.shape[1]
        if y2.shape != (N + 1, d, d):
            raise DomainError(f"y2 must have shape ({N + 1}, {d}, {d})")
        if np.any(y1[0] != 0.0) or np.any(y2[0] != 0.0):
            raise DomainError("integral paths must be anchored at 0")
        if not (np.all(np.isfinite(y1)) and np.all(np.isfinite(y2))):
            raise DomainError("integral paths must be finite")
        self.grid = grid
        self.y1 = core._freeze(y1)
        self.y2 = core._freeze(y2)

    @property
    def N(self) -> int:
        return self.grid.N

    @property
    def d(self) -> int:
        return self.y1.shape[1]

    def level1_pairs(self, s, t):
        s, t = core._as_pair_indices(self, s, t)
        return self.y1[t] - self.y1[s]

    def level2_pairs(self, s, t):
        s, t = core._as_pair_indices(self, s, t)
        return (self.y2[t] - self.y2[s]
                - np.einsum("pa,pb->pab", self.y1[s], self.y1[t] - self.y1[s]))


def _check_partition(prp, partition):
    part = np.asarray(partition, dtype=np.int64)
    if part.ndim != 1 or part.size < 2:
        raise DomainError("partition needs at least two nodes")
    if np.any(np.diff(part) <= 0):
        raise DomainError("partition must be strictly increasing")
    if part[0] < 0 or part[-1] > prp.N:
        raise DomainError("partition nodes out of range")
    return part


def compensated_sum_level1(prp: core.PartialRoughPath, f: VolFunction,
                           partition) -> np.ndarray:
    """First-level compensated sum over a partition, shape (d,).

    Each cell contributes ``sum_i d^i f(xhat_left) X^(i)_cell``.
    """
    part = _check_partition(prp, partition)
    x1 = core.level1_pairs(prp, part[:-1], part[1:])
    return _sum_level1(prp, f, part, x1)


def _sum_level1(prp, f, part, x1):
    """The first-level sum on a checked partition with cell values x1."""
    df = f.partials(prp.config.I, prp.xhat[part[:-1]])
    total = np.zeros(prp.config.d)
    for i in prp.config.I:
        total += df[i] @ x1[i]
    return total


def compensated_sum_level2(prp: core.PartialRoughPath, f: VolFunction,
                           partition, y1_nodes) -> np.ndarray:
    """Second-level compensated sum over a partition, shape (d, d).

    ``y1_nodes`` supplies the first-level integral on the full grid
    (anchored at node 0), used for the cross term
    ``Y1_{s,left} (x) Y1_cell``, s the partition's first node; the
    remaining term weights level-2 cells by products of partials of f.
    """
    part = _check_partition(prp, partition)
    y1_nodes = np.asarray(y1_nodes, dtype=np.float64)
    if y1_nodes.shape != (prp.N + 1, prp.config.d):
        raise DomainError("y1_nodes must cover the full grid")
    x1 = core.level1_pairs(prp, part[:-1], part[1:])
    return _sum_level2(prp, f, part, y1_nodes, x1)


def _sum_level2(prp, f, part, y1_nodes, x1):
    """The second-level sum on a checked partition with level-1 cells x1."""
    lefts, rights = part[:-1], part[1:]
    x2 = core.level2_pairs(prp, lefts, rights, x1)
    xs = prp.xhat[lefts]
    first_indices = {jk[0] for jk in prp.config.J}
    second_indices = {jk[1] for jk in prp.config.J}
    df = f.partials(first_indices | second_indices, xs)
    y1_anchor = y1_nodes[lefts] - y1_nodes[part[0]]
    y1_cell = y1_nodes[rights] - y1_nodes[lefts]
    total = np.einsum("pa,pb->ab", y1_anchor, y1_cell)
    for (j, k) in prp.config.J:
        total += np.einsum("p,pab->ab", df[j] * df[k], x2[(j, k)])
    return total


@dataclasses.dataclass(frozen=True)
class ConvergenceTrace:
    """Dyadic-refinement record for one integrate() call.

    ``diffs1[k]``/``diffs2[k]`` compare levels k and k+1 relative to
    the size at level k; ``converged_level`` is the first k where both
    drop below tol (None if the finest grid arrived first).
    """

    levels: tuple
    n_cells: tuple
    j1: np.ndarray
    j2: np.ndarray
    diffs1: tuple
    diffs2: tuple
    tol: float
    converged_level: object
    stop_reason: str


def _dyadic_partition(N: int, level: int) -> np.ndarray:
    cells = min(1 << level, N)
    return np.unique(np.round(np.linspace(0.0, N, cells + 1)).astype(np.int64))


def integral(prp: core.PartialRoughPath, f: VolFunction) -> RoughPath:
    """Rough integral of f against the lift, without a refinement trace.

    The output path holds the finest-partition compensated sums
    anchored at node 0; :func:`integrate` returns it with the trace.
    """
    cfg, N, d = prp.config, prp.N, prp.config.d
    lefts = np.arange(N, dtype=np.int64)
    rights = lefts + 1
    x1c = core.level1_pairs(prp, lefts, rights)
    x2c = core.level2_pairs(prp, lefts, rights, x1c)
    xs = prp.xhat[:-1]
    indices = set(cfg.I) | {jk[0] for jk in cfg.J} | {jk[1] for jk in cfg.J}
    df = f.partials(indices, xs)
    contrib1 = np.zeros((N, d))
    for i in cfg.I:
        contrib1 += df[i][:, None] * x1c[i]
    y1 = np.concatenate([np.zeros((1, d)), np.cumsum(contrib1, axis=0)])
    contrib2 = np.einsum("pa,pb->pab", y1[:-1], contrib1)
    for (j, k) in cfg.J:
        contrib2 += (df[j] * df[k])[:, None, None] * x2c[(j, k)]
    y2 = np.concatenate([np.zeros((1, d, d)), np.cumsum(contrib2, axis=0)])
    return RoughPath(prp.grid, y1, y2)


def integrate(prp: core.PartialRoughPath, f: VolFunction, tol: float = 1e-9):
    """:func:`integral` of f against the lift, with its refinement trace.

    Returns ``(RoughPath, ConvergenceTrace)``.  The trace reruns both
    sums on dyadic partitions P_0, P_1, ... and stops once consecutive
    levels agree to ``tol`` (relative), or at the finest partition,
    warning :class:`ConvergenceWarning` when the differences are still
    growing there.
    """
    if not tol > 0:
        raise DomainError(f"tol must be positive, got {tol}")
    out = integral(prp, f)
    N, y1, y2 = prp.N, out.y1, out.y2

    levels, n_cells, j1s, j2s = [], [], [], []
    diffs1, diffs2 = [], []
    converged_level = None
    stop_reason = "finest_grid"
    level = 0
    while True:
        part = _dyadic_partition(N, level)
        finest = part.size == N + 1
        if finest:
            j1 = y1[-1].copy()
            j2 = y2[-1].copy()
        else:
            # One level-1 result per partition serves both sums.
            x1 = core.level1_pairs(prp, part[:-1], part[1:])
            j1 = _sum_level1(prp, f, part, x1)
            j2 = _sum_level2(prp, f, part, y1, x1)
        levels.append(level)
        n_cells.append(part.size - 1)
        j1s.append(j1)
        j2s.append(j2)
        if len(j1s) >= 2:
            d1 = float(np.linalg.norm(j1s[-1] - j1s[-2])
                       / (1.0 + np.linalg.norm(j1s[-2])))
            d2 = float(np.linalg.norm(j2s[-1] - j2s[-2])
                       / (1.0 + np.linalg.norm(j2s[-2])))
            diffs1.append(d1)
            diffs2.append(d2)
            if converged_level is None and d1 < tol and d2 < tol:
                converged_level = levels[-2]
                stop_reason = "cauchy_tol"
                break
        if finest:
            if (len(diffs1) >= 3 and diffs1[-1] > diffs1[-2] > diffs1[-3]):
                warnings.warn("refinement differences still growing at the "
                              "finest partition", ConvergenceWarning)
            break
        level += 1
    trace = ConvergenceTrace(
        levels=tuple(levels), n_cells=tuple(n_cells),
        j1=np.asarray(j1s), j2=np.asarray(j2s),
        diffs1=tuple(diffs1), diffs2=tuple(diffs2), tol=float(tol),
        converged_level=converged_level, stop_reason=stop_reason)
    return out, trace


def distance_alpha(ra: RoughPath, rb: RoughPath, alpha: float,
                   scheme: str = "auto") -> float:
    """Two-level Hoelder distance between integral paths."""
    if ra.grid != rb.grid:
        raise DomainError("paths live on different grids")
    reports = analysis._holder_sweep(
        lambda s, t: {1: ra.level1_pairs(s, t) - rb.level1_pairs(s, t),
                      2: ra.level2_pairs(s, t) - rb.level2_pairs(s, t)},
        {1: alpha, 2: 2.0 * alpha}, ra.grid, scheme)
    return reports[1].value + reports[2].value


def zeta_sum(r: float) -> float:
    """Riemann zeta, the dyadic-refinement series factor (needs r > 1)."""
    from scipy.special import zeta

    if not r > 1.0:
        raise DomainError(f"zeta factor needs exponent > 1, got {r}")
    return float(zeta(r))


@dataclasses.dataclass(frozen=True)
class BoundConstants:
    """Explicit constants of the integral and stability bounds.

    ``level1``, ``level2`` bound |Y1_st| / |t-s|^alpha and
    |Y2_st| / |t-s|^(2 alpha); ``lipschitz`` bounds the ratio of the
    output distance to the driver distance.  M is the homogeneous size
    of the driver, K the derivative bound of f up to order n+2.
    """

    c1: float
    c2: float
    c2_aux: float
    c3: float
    c4: float
    c4_aux: float
    M: float
    K: float

    @property
    def level1(self) -> float:
        return self.K * self.c1

    @property
    def level2(self) -> float:
        return self.K ** 2 * self.c2

    @property
    def lipschitz(self) -> float:
        return self.K * (self.c3 + self.K * self.c4)


def theoretical_bounds(config: core.IndexConfig, M: float, K: float) -> BoundConstants:
    """Evaluate the closed-form bound constants for one configuration."""
    n, m, e = config.n, config.m, config.e
    alpha, beta, T = config.alpha, config.beta, config.T
    assert (n + 1) * beta + alpha > 1.0
    assert (m + 1) * beta + 2.0 * alpha > 1.0
    r1 = (n + 1) * beta + alpha
    r2 = (m + 1) * beta + 2.0 * alpha
    z1 = 2.0 ** r1 * zeta_sum(r1)
    z2 = 2.0 ** r2 * zeta_sum(r2)
    c1 = ((n + 1.0) ** (2 * e) * (1.0 + M) ** (n + 2)
          * (1.0 + T) ** ((n + 1) * beta) * (1.0 + z1))
    c2_aux = (2.0 * (1.0 + n + m) ** (4 * e) * (1.0 + M) ** (m + 3)
              * (1.0 + T) ** ((2 * n - m - 1) * beta))
    c2 = ((1.0 + m) ** (2 * e) * M * (1.0 + T) ** (m * beta)
          + (c2_aux + 2.0 * c1 ** 2 * T ** ((n - m) * beta)) * z2)
    c3 = ((1.0 + n) ** (2 * e + 1) * (1.0 + T) ** ((n + 1) * beta)
          * (1.0 + (3 * e + 2) * (1.0 + M) ** (n + 2) * z1))
    c4_aux = ((15 * e + 7) * (1.0 + n + m) ** (3 * e) * (1.0 + M) ** (m + 3)
              * (1.0 + T) ** ((2 * n - m) * beta))
    c4 = ((1.0 + m) ** (2 * e) * (1.0 + 2 * e * M) * (1.0 + T) ** ((m + 1) * beta)
          + (1.0 + T ** ((n - m) * beta)) * (c4_aux + 4.0 * c1 * c3) * z2)
    return BoundConstants(c1=c1, c2=c2, c2_aux=c2_aux, c3=c3, c4=c4,
                          c4_aux=c4_aux, M=float(M), K=float(K))


def estimate_deriv_bound(f: VolFunction, points, order: int) -> float:
    """Max |d^i f| over the sample points and all |i| <= order, inflated 10%.

    The inflation covers excursions between evaluation points; for the
    bound checks K only needs to dominate the true sup on the visited
    range.
    """
    points = np.asarray(points, dtype=np.float64)
    best = 0.0
    for i in core.enumerate_degree_leq(f.e, order):
        best = max(best, float(np.max(np.abs(f.partial(i, points)))))
    return 1.1 * best


@dataclasses.dataclass(frozen=True)
class LipschitzReport:
    distance_in: float
    distance_out: float
    ratio: float


def lipschitz_ratio(pa: core.PartialRoughPath, pb: core.PartialRoughPath,
                    f: VolFunction, scheme: str = "auto") -> LipschitzReport:
    """Measured output/input distance ratio for one driver pair."""
    d_in = analysis.distance_ab(pa, pb, scheme=scheme)
    d_out = distance_alpha(integral(pa, f), integral(pb, f), pa.config.alpha,
                           scheme=scheme)
    if d_in == 0.0:
        assert d_out <= 1e-10, "distinct outputs from coinciding drivers"
        return LipschitzReport(distance_in=0.0, distance_out=d_out, ratio=0.0)
    return LipschitzReport(distance_in=d_in, distance_out=d_out,
                           ratio=d_out / d_in)
