"""Multi-index combinatorics, uniform grids, and anchored path containers.

The central object is :class:`PartialRoughPath`: node values of a driver
pair ``(xhat, X)`` together with two graded families of iterated
integrals, one indexed by multi-indices ``i`` (level 1) and one by
multi-index pairs ``(j, k)`` (level 2).  Only values anchored at node 0
are stored, O(N) per index.  Values over an arbitrary node pair
``(s, t)`` are reconstructed on demand through the graded splitting
identities; for left-point discrete data the identities are exact, so
anchored storage loses nothing.

Level-1 data over a pair splits at an intermediate node ``u`` as

    X^(i)_{st} = X^(i)_{su}
               + sum_{p <= i} (Xhat_{su})^{i-p} / (i-p)! * X^(p)_{ut}

and level-2 data as

    XX^(jk)_{st} = XX^(jk)_{su}
                 + sum_{q <= k} (Xhat_{su})^{k-q} / (k-q)!
                                * X^(j)_{su} (x) X^(q)_{ut}
                 + sum_{p <= j, q <= k}
                       (Xhat_{su})^{j+k-p-q} / ((j-p)! (k-q)!)
                                * XX^(pq)_{ut}.

Solving these at ``(0, s, t)`` for the top term expresses any pair value
through anchored data and lower-order pair values, which is what the
``reconstruct_*`` functions do (recursing in graded order, all indices
of one query computed in a single pass).
"""

from __future__ import annotations

import dataclasses
from itertools import combinations, product
from math import comb, factorial

import numpy as np

from .exceptions import ConfigurationError, DomainError, IndexSetError

# Boundary slack for the defining inequalities of the index sets; keeps
# degree cutoffs stable when |i|*beta + alpha lands on 1.0 up to rounding.
_DEGREE_EPS = 1e-12

_MAX_INDEX_SET = 10_000  # level-1 plus level-2 indices allowed (51 by default)


def midx_degree(i) -> int:
    """Total degree |i| of a multi-index."""
    return int(sum(i))


def midx_factorial(i) -> int:
    """Componentwise factorial i! = prod_l (i_l)!."""
    out = 1
    for il in i:
        out *= factorial(int(il))
    return out


def midx_leq(p, i) -> bool:
    """Componentwise partial order p <= i."""
    return all(pl <= il for pl, il in zip(p, i))


def midx_sub(i, p):
    """Componentwise difference i - p (caller guarantees p <= i)."""
    return tuple(il - pl for il, pl in zip(i, p))


def midx_add(i, p):
    return tuple(il + pl for il, pl in zip(i, p))


def multiindex_enumerate_leq(i):
    """All multi-indices p <= i, in graded lexicographic order.

    The count is prod_l (i_l + 1).
    """
    i = tuple(int(v) for v in i)
    if any(v < 0 for v in i):
        raise DomainError(f"multi-index entries must be non-negative, got {i}")
    out = list(product(*(range(bound + 1) for bound in i)))
    out.sort(key=lambda p: (midx_degree(p), p))
    return out


def enumerate_degree_leq(e: int, degree: int):
    """All i in Z^e_+ with |i| <= degree, graded lexicographic order."""
    if e < 1:
        raise DomainError(f"dimension e must be >= 1, got {e}")
    out = []
    for total in range(degree + 1):
        # Stars and bars: e - 1 bars among total + e - 1 slots, the bar
        # positions taken in lexicographic order, give the entries in
        # lexicographic order.
        slots = total + e - 1
        for bars in combinations(range(slots), e - 1):
            edges = (-1,) + bars + (slots,)
            out.append(tuple(b - a - 1 for a, b in zip(edges, edges[1:])))
    return out


@dataclasses.dataclass(frozen=True)
class IndexConfig:
    """Index-set configuration for one pair of Hoelder exponents.

    ``I`` holds every multi-index i with |i|*beta + alpha <= 1 (so
    n = max |i|), ``J`` every pair (j, k) with |j+k|*beta + 2*alpha <= 1
    (so m = max |j+k|).  Both sets are downward closed and graded
    lexicographically ordered; ``0 in I`` and ``(0, 0) in J`` always.
    """

    alpha: float
    beta: float
    e: int
    d: int
    T: float
    I: tuple
    J: tuple
    n: int
    m: int

    def __post_init__(self):
        # Derived lookup tables; plain attributes so dataclass eq/hash
        # stay based on the declared fields only.
        zero = (0,) * self.e
        down1_strict = {}
        down1_full = {}
        for i in self.I:
            full = [
                (p, midx_sub(i, p), 1.0 / midx_factorial(midx_sub(i, p)))
                for p in multiindex_enumerate_leq(i)
            ]
            down1_full[i] = full
            down1_strict[i] = [entry for entry in full if entry[0] != i]
        down2_strict = {}
        down2_full = {}
        cross = {}
        for (j, k) in self.J:
            entries = []
            for p in multiindex_enumerate_leq(j):
                for q in multiindex_enumerate_leq(k):
                    diff = midx_add(midx_sub(j, p), midx_sub(k, q))
                    w = 1.0 / (midx_factorial(midx_sub(j, p)) * midx_factorial(midx_sub(k, q)))
                    entries.append(((p, q), diff, w))
            entries.sort(key=lambda en: (midx_degree(en[0][0]) + midx_degree(en[0][1]), en[0]))
            down2_full[(j, k)] = entries
            down2_strict[(j, k)] = [en for en in entries if en[0] != (j, k)]
            cross[(j, k)] = [
                (q, midx_sub(k, q), 1.0 / midx_factorial(midx_sub(k, q)))
                for q in multiindex_enumerate_leq(k)
            ]
        object.__setattr__(self, "zero", zero)
        object.__setattr__(self, "_down1_strict", down1_strict)
        object.__setattr__(self, "_down1_full", down1_full)
        object.__setattr__(self, "_down2_strict", down2_strict)
        object.__setattr__(self, "_down2_full", down2_full)
        object.__setattr__(self, "_cross", cross)
        object.__setattr__(self, "_i_set", frozenset(self.I))
        object.__setattr__(self, "_j_set", frozenset(self.J))

    def require_level1(self, i):
        if tuple(i) not in self._i_set:
            raise IndexSetError(f"multi-index {tuple(i)} not in the level-1 index set")
        return tuple(i)

    def require_level2(self, jk):
        key = (tuple(jk[0]), tuple(jk[1]))
        if key not in self._j_set:
            raise IndexSetError(f"index pair {key} not in the level-2 index set")
        return key


def build_index_sets(alpha: float, beta: float, e: int, d: int = 1, T: float = 1.0) -> IndexConfig:
    """Build the graded index sets for exponents (alpha, beta).

    Parameters
    ----------
    alpha : float
        Hoelder exponent of the rough driver component, in (1/3, 1/2].
    beta : float
        Hoelder exponent of the smooth component, in (0, 1/2).
    e : int
        Dimension of the smooth component (entries of the multi-indices).
    d : int
        Dimension of the rough driver.
    T : float
        Horizon carried along for bound computations.

    Returns
    -------
    IndexConfig
        With ``n = max |i|`` over I and ``m = max |j+k|`` over J.  By
        maximality ``(n+1)*beta + alpha > 1`` and
        ``(m+1)*beta + 2*alpha > 1``.
    """
    if not (1.0 / 3.0 < alpha <= 0.5):
        raise ConfigurationError(f"alpha must lie in (1/3, 1/2], got {alpha}")
    if not (0.0 < beta < 0.5):
        raise ConfigurationError(f"beta must lie in (0, 1/2), got {beta}")
    if not (isinstance(e, (int, np.integer)) and e >= 1):
        raise ConfigurationError(f"e must be a positive integer, got {e}")
    if not (isinstance(d, (int, np.integer)) and d >= 1):
        raise ConfigurationError(f"d must be a positive integer, got {d}")
    if not T > 0:
        raise ConfigurationError(f"T must be positive, got {T}")
    n = (1.0 - alpha) / beta + _DEGREE_EPS
    m = (1.0 - 2.0 * alpha) / beta + _DEGREE_EPS
    # Stars and bars sizes |I| = C(n+e, e), |J| = C(m+2e, 2e), before enumerating.
    if n >= _MAX_INDEX_SET or (comb(int(n) + e, e)
                               + comb(int(m) + 2 * e, 2 * e)) > _MAX_INDEX_SET:
        raise ConfigurationError(f"alpha = {alpha}, beta = {beta}, e = {e} give more "
                                 f"than the {_MAX_INDEX_SET} supported indices")
    n, m = int(np.floor(n)), int(np.floor(m))
    I = tuple(enumerate_degree_leq(e, n))
    J = []
    for j in enumerate_degree_leq(e, m):
        for k in enumerate_degree_leq(e, m - midx_degree(j)):
            J.append((j, k))
    J.sort(key=lambda jk: (midx_degree(jk[0]) + midx_degree(jk[1]), jk))
    cfg = IndexConfig(
        alpha=float(alpha), beta=float(beta), e=int(e), d=int(d), T=float(T),
        I=I, J=tuple(J), n=n, m=m,
    )
    assert (n + 1) * beta + alpha > 1.0 - _DEGREE_EPS
    assert (m + 1) * beta + 2.0 * alpha > 1.0 - _DEGREE_EPS
    assert m <= n
    return cfg


@dataclasses.dataclass(frozen=True)
class Grid:
    """Uniform grid on [0, T] with N cells (N+1 nodes)."""

    T: float
    N: int
    nodes: np.ndarray = dataclasses.field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not (isinstance(self.N, (int, np.integer)) and self.N >= 2):
            raise ConfigurationError(f"grid needs N >= 2 cells, got {self.N}")
        if not 0 < self.T < np.inf:
            raise ConfigurationError(f"grid horizon must be positive and finite, got {self.T}")
        nodes = np.linspace(0.0, self.T, self.N + 1)
        nodes.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)

    @property
    def delta(self) -> float:
        return self.T / self.N


def _freeze(arr):
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    arr.flags.writeable = False
    return arr


class PartialRoughPath:
    """Anchored node data for a graded two-level family of path integrals.

    Parameters
    ----------
    grid : Grid
    config : IndexConfig
    xhat : ndarray, shape (N+1, e)
        Smooth component at the nodes, anchored so that ``xhat[0] == 0``.
    a : dict multi-index -> ndarray (N+1, d)
        Level-1 values anchored at node 0; ``a[i][q] = X^(i)_{0, t_q}``.
    b : dict pair -> ndarray (N+1, d, d)
        Level-2 values anchored at node 0.

    Arrays are frozen after construction; instances are safe to share
    across threads.
    """

    def __init__(self, grid: Grid, config: IndexConfig, xhat, a, b):
        N, e, d = grid.N, config.e, config.d
        xhat = np.asarray(xhat, dtype=np.float64)
        if xhat.shape != (N + 1, e):
            raise DomainError(f"xhat must have shape {(N + 1, e)}, got {xhat.shape}")
        if not np.all(np.isfinite(xhat)):
            raise DomainError("xhat contains non-finite values")
        if np.any(xhat[0] != 0.0):
            raise DomainError("xhat must be anchored: xhat[0] == 0")
        if set(a) != set(config.I):
            raise DomainError("level-1 keys must match the configured index set")
        if set(b) != set(config.J):
            raise DomainError("level-2 keys must match the configured pair set")
        self.grid = grid
        self.config = config
        self.xhat = _freeze(xhat)
        self.a = {}
        for i in config.I:
            arr = np.asarray(a[i], dtype=np.float64)
            if arr.shape != (N + 1, d):
                raise DomainError(f"a[{i}] must have shape {(N + 1, d)}, got {arr.shape}")
            if np.any(arr[0] != 0.0) or not np.all(np.isfinite(arr)):
                raise DomainError(f"a[{i}] must be finite and anchored at 0")
            self.a[i] = _freeze(arr)
        self.b = {}
        for jk in config.J:
            arr = np.asarray(b[jk], dtype=np.float64)
            if arr.shape != (N + 1, d, d):
                raise DomainError(f"b[{jk}] must have shape {(N + 1, d, d)}, got {arr.shape}")
            if np.any(arr[0] != 0.0) or not np.all(np.isfinite(arr)):
                raise DomainError(f"b[{jk}] must be finite and anchored at 0")
            self.b[jk] = _freeze(arr)

    @property
    def N(self) -> int:
        return self.grid.N

    def increments(self) -> np.ndarray:
        """Driver increments per cell, shape (N, d)."""
        return np.diff(self.a[self.config.zero], axis=0)


def _as_pair_indices(prp, s, t):
    s = np.atleast_1d(np.asarray(s, dtype=np.int64))
    t = np.atleast_1d(np.asarray(t, dtype=np.int64))
    if s.shape != t.shape or s.ndim != 1:
        raise DomainError("s and t must be 1-d index arrays of equal length")
    N = prp.N
    if s.size and (s.min() < 0 or t.max() > N):
        raise DomainError(f"node indices must lie in [0, {N}]")
    if np.any(s > t):
        raise DomainError("reconstruction requires s <= t")
    return s, t


class _PowerCache:
    """Componentwise powers of anchor values, built on demand."""

    def __init__(self, xs):
        self.xs = xs  # (P, e)
        self._pows = [[np.ones(xs.shape[0])] for _ in range(xs.shape[1])]

    def coefficient(self, diff):
        out = None
        for axis, k in enumerate(diff):
            if k == 0:
                continue
            col = self._pows[axis]
            while len(col) <= k:
                col.append(col[-1] * self.xs[:, axis])
            out = col[k] if out is None else out * col[k]
        if out is None:
            return None  # all-zero diff: coefficient identically 1
        return out


def level1_pairs(prp: PartialRoughPath, s, t, indices=None):
    """Level-1 values over node pairs, for several indices at once.

    Parameters
    ----------
    s, t : int arrays, shape (P,)
        Node indices with ``s <= t`` elementwise.
    indices : iterable of multi-indices, optional
        Targets (default: the full level-1 set).  The graded recursion
        computes the downward closure of the targets in one pass.

    Returns
    -------
    dict multi-index -> ndarray (P, d)
    """
    cfg = prp.config
    s, t = _as_pair_indices(prp, s, t)
    if indices is None:
        targets = cfg.I
    else:
        targets = [cfg.require_level1(i) for i in indices]
    needed = set()
    for i in targets:
        needed.update(p for p, _, _ in cfg._down1_full[i])
    order = sorted(needed, key=lambda p: (midx_degree(p), p))
    pows = _PowerCache(prp.xhat[s])
    vals = {}
    for i in order:
        v = prp.a[i][t] - prp.a[i][s]
        for p, diff, w in cfg._down1_strict[i]:
            coef = pows.coefficient(diff)
            term = w * vals[p]
            v = v - (term if coef is None else coef[:, None] * term)
        vals[i] = v
    return {i: vals[i] for i in targets}


def level2_pairs(prp: PartialRoughPath, s, t, pairs=None, level1_vals=None):
    """Level-2 values over node pairs; see :func:`level1_pairs`.

    Returns
    -------
    dict pair -> ndarray (P, d, d)
    """
    cfg = prp.config
    s, t = _as_pair_indices(prp, s, t)
    if pairs is None:
        targets = cfg.J
    else:
        targets = [cfg.require_level2(jk) for jk in pairs]
    needed = set()
    for jk in targets:
        needed.update(pq for pq, _, _ in cfg._down2_full[jk])
    order = sorted(needed, key=lambda pq: (midx_degree(pq[0]) + midx_degree(pq[1]), pq))
    level1_needed = {q for jk in order for q, _, _ in cfg._cross[jk]}
    if level1_vals is None or not level1_needed.issubset(level1_vals):
        level1_vals = level1_pairs(prp, s, t, indices=sorted(
            level1_needed, key=lambda p: (midx_degree(p), p)))
    pows = _PowerCache(prp.xhat[s])
    vals = {}
    for (j, k) in order:
        v = prp.b[(j, k)][t] - prp.b[(j, k)][s]
        aj_s = prp.a[j][s]  # (P, d), anchored level-1 value at s
        for q, diff, w in cfg._cross[(j, k)]:
            coef = pows.coefficient(diff)
            outer = np.einsum("pa,pb->pab", aj_s, level1_vals[q])
            v = v - (w * outer if coef is None else (w * coef)[:, None, None] * outer)
        for pq, diff, w in cfg._down2_strict[(j, k)]:
            coef = pows.coefficient(diff)
            term = w * vals[pq]
            v = v - (term if coef is None else coef[:, None, None] * term)
        vals[(j, k)] = v
    return {jk: vals[jk] for jk in targets}


def reconstruct_level1(prp: PartialRoughPath, i, s: int, t: int) -> np.ndarray:
    """Level-1 value X^(i) over one node pair, shape (d,)."""
    i = prp.config.require_level1(tuple(i))
    return level1_pairs(prp, [s], [t], indices=[i])[i][0]


def reconstruct_level2(prp: PartialRoughPath, jk, s: int, t: int) -> np.ndarray:
    """Level-2 value XX^(jk) over one node pair, shape (d, d)."""
    jk = prp.config.require_level2((tuple(jk[0]), tuple(jk[1])))
    return level2_pairs(prp, [s], [t], pairs=[jk])[jk][0]


def lift_sampled_paths(xhat, x, config: IndexConfig, grid: Grid,
                       cell_correction: bool = False) -> PartialRoughPath:
    """Left-point discrete lift of sampled paths.

    Parameters
    ----------
    xhat : ndarray (N+1, e)
        Smooth component samples; anchored internally (value at node 0
        subtracted).
    x : ndarray (N+1, d)
        Driver samples.
    cell_correction : bool
        When True, add the in-cell correction
        ``(dX (x) dX - delta * Id) / 2`` to the level-2 cell terms,
        propagated to index pair (j, k) with weight
        ``(xhat_r)^{j+k} / (j! k!)``.  This is the exact value of the
        in-cell second-order term for a Brownian driver given the cell
        endpoints, and it transforms under the splitting identities
        exactly like the left-point terms, so the reconstruction
        identities stay exact.  Use for Brownian data; leave off for
        deterministic/sampled test paths.

    Level-1 node values are ``a_i(t_q) = sum_{r<q} xhat_r^i / i! dX_r``;
    level-2 values are the analogous double sums with the optional cell
    term.
    """
    xhat = np.asarray(xhat, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    N, e, d = grid.N, config.e, config.d
    if xhat.shape != (N + 1, e):
        raise DomainError(f"xhat must have shape {(N + 1, e)}, got {xhat.shape}")
    if x.ndim == 1:
        x = x[:, None]
    if x.shape != (N + 1, d):
        raise DomainError(f"x must have shape {(N + 1, d)}, got {x.shape}")
    xhat = xhat - xhat[0]
    dx = np.diff(x, axis=0)  # (N, d)
    xl = xhat[:-1]  # left nodes (N, e)

    maxdeg = config.n + config.m  # largest exponent appearing in any weight
    pows = [np.ones((maxdeg + 1, N)) for _ in range(e)]
    for axis in range(e):
        for kdeg in range(1, maxdeg + 1):
            pows[axis][kdeg] = pows[axis][kdeg - 1] * xl[:, axis]

    def weight(idx):
        out = np.ones(N)
        for axis, k in enumerate(idx):
            if k:
                out = out * pows[axis][k]
        return out

    zeros_head = np.zeros((1, d))
    a = {}
    for i in config.I:
        w = weight(i) / midx_factorial(i)
        a[i] = np.concatenate([zeros_head, np.cumsum(w[:, None] * dx, axis=0)])

    if cell_correction:
        cell = 0.5 * (np.einsum("ra,rb->rab", dx, dx)
                      - grid.delta * np.eye(d)[None, :, :])
    else:
        cell = None
    zeros_head2 = np.zeros((1, d, d))
    b = {}
    for (j, k) in config.J:
        wk = weight(k) / midx_factorial(k)
        terms = np.einsum("r,ra,rb->rab", wk, a[j][:-1], dx)
        if cell is not None:
            wj = weight(midx_add(j, k)) / (midx_factorial(j) * midx_factorial(k))
            terms = terms + wj[:, None, None] * cell
        b[(j, k)] = np.concatenate([zeros_head2, np.cumsum(terms, axis=0)])
    return PartialRoughPath(grid, config, xhat, a, b)
