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
through anchored data and lower-order pair values, which is what
:func:`level1_pairs` and :func:`level2_pairs` do: one pass in graded
order yields the whole family over a batch of pairs.
"""

from __future__ import annotations

import dataclasses
import functools
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
        # Plain attributes, so dataclass eq/hash stay based on the
        # declared fields only.
        object.__setattr__(self, "_i_set", frozenset(self.I))
        object.__setattr__(self, "_j_set", frozenset(self.J))

    # Splitting tables, built on first use: entries (lower index,
    # difference, 1 / difference!) in graded order, the index itself
    # last, so ``table[:-1]`` holds the strictly lower entries.
    @functools.cached_property
    def _down1(self):
        """i -> entries over p <= i."""
        return {i: [(p, midx_sub(i, p), 1.0 / midx_factorial(midx_sub(i, p)))
                    for p in multiindex_enumerate_leq(i)]
                for i in self.I}

    @functools.cached_property
    def _down2(self):
        """(j, k) -> entries over (p, q) <= (j, k)."""
        down1 = self._down1
        table = {}
        for (j, k) in self.J:
            entries = [((p, q), midx_add(dj, dk),
                        1.0 / (midx_factorial(dj) * midx_factorial(dk)))
                       for p, dj, _ in down1[j] for q, dk, _ in down1[k]]
            entries.sort(key=lambda en: (midx_degree(en[0][0]) + midx_degree(en[0][1]), en[0]))
            table[(j, k)] = entries
        return table

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


def _as_pair_indices(path, s, t):
    """Validated node pairs of any path with an ``N`` (lift or integral)."""
    s = np.atleast_1d(np.asarray(s, dtype=np.int64))
    t = np.atleast_1d(np.asarray(t, dtype=np.int64))
    if s.shape != t.shape or s.ndim != 1:
        raise DomainError("s and t must be 1-d index arrays of equal length")
    N = path.N
    if s.size and (s.min() < 0 or t.max() > N):
        raise DomainError(f"node indices must lie in [0, {N}]")
    if np.any(s > t):
        raise DomainError("node pairs need s <= t")
    return s, t


class _PowerCache:
    """Monomials ``x^i`` of points x, shape (..., e); each power built once."""

    def __init__(self, xs):
        self.xs = xs
        self._pows = [[np.ones(xs.shape[:-1])] for _ in range(xs.shape[-1])]

    def coefficient(self, diff):
        """``x^diff``, or None for an all-zero ``diff`` (identically 1)."""
        out = None
        for axis, k in enumerate(diff):
            if k == 0:
                continue
            col = self._pows[axis]
            while len(col) <= k:
                col.append(col[-1] * self.xs[..., axis])
            out = col[k] if out is None else out * col[k]
        return out

    def monomial(self, idx):
        """``x^idx`` as an array, also for the all-zero index."""
        out = self.coefficient(idx)
        return self._pows[0][0] if out is None else out


class _CoefficientColumns(dict):
    """``x^diff`` of a :class:`_PowerCache`, each built once, shaped to
    broadcast over ``trailing`` value axes; ``diff`` must be non-zero."""

    def __init__(self, xs, trailing: int):
        super().__init__()
        self._pows = _PowerCache(xs)
        self._shape = (xs.shape[0],) + (1,) * trailing

    def __missing__(self, diff):
        col = self[diff] = self._pows.coefficient(diff).reshape(self._shape)
        return col


def _subtract_term(v, value, coef, w, term):
    """``v -= coef * (w * value)`` in place, rounded as written, with
    ``term`` as the scratch buffer; a unit weight multiplies exactly, so
    it is skipped."""
    if w == 1.0:
        np.multiply(value, coef, out=term)
    else:
        np.multiply(w, value, out=term)
        term *= coef
    v -= term


def level1_pairs(prp: PartialRoughPath, s, t):
    """Level-1 values over node pairs, every index of I in one pass.

    Parameters
    ----------
    s, t : int arrays, shape (P,)
        Node indices with ``s <= t`` elementwise.

    Returns
    -------
    dict multi-index -> ndarray (P, d), in the graded order of I
    """
    cfg = prp.config
    s, t = _as_pair_indices(prp, s, t)
    coefs = _CoefficientColumns(prp.xhat[s], 1)
    term = np.empty((s.size, cfg.d))
    vals = {}
    for i in cfg.I:
        v = prp.a[i][t]
        v -= prp.a[i][s]
        for p, diff, w in cfg._down1[i][:-1]:
            _subtract_term(v, vals[p], coefs[diff], w, term)
        vals[i] = v
    return vals


def level2_pairs(prp: PartialRoughPath, s, t, level1):
    """Level-2 values over node pairs, every pair of J in one pass.

    ``level1`` holds :func:`level1_pairs` over the same pairs.

    Returns
    -------
    dict pair -> ndarray (P, d, d), in the graded order of J
    """
    cfg = prp.config
    s, t = _as_pair_indices(prp, s, t)
    coefs = _CoefficientColumns(prp.xhat[s], 2)
    shape = (s.size, cfg.d, cfg.d)
    outer, term = np.empty(shape), np.empty(shape)
    weighted = {}  # diff -> (x^diff / diff!) column of the level-1 sums
    vals = {}
    for (j, k) in cfg.J:
        v = prp.b[(j, k)][t]
        v -= prp.b[(j, k)][s]
        aj_s = prp.a[j][s]  # (P, d), anchored level-1 value at s
        for q, diff, w in cfg._down1[k]:
            np.einsum("pa,pb->pab", aj_s, level1[q], out=outer)
            # (w * coef) * outer; the zero difference has w = 1 and no
            # coefficient, so its product is outer itself.
            if any(diff):
                if diff not in weighted:
                    weighted[diff] = w * coefs[diff]
                outer *= weighted[diff]
            v -= outer
        for pq, diff, w in cfg._down2[(j, k)][:-1]:
            _subtract_term(v, vals[pq], coefs[diff], w, term)
        vals[(j, k)] = v
    return vals


def reconstruct_level1(prp: PartialRoughPath, i, s: int, t: int) -> np.ndarray:
    """Level-1 value X^(i) over one node pair, shape (d,)."""
    i = prp.config.require_level1(tuple(i))
    return level1_pairs(prp, [s], [t])[i][0]


def reconstruct_level2(prp: PartialRoughPath, jk, s: int, t: int) -> np.ndarray:
    """Level-2 value XX^(jk) over one node pair, shape (d, d)."""
    jk = prp.config.require_level2((tuple(jk[0]), tuple(jk[1])))
    return level2_pairs(prp, [s], [t], level1_pairs(prp, [s], [t]))[jk][0]


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
    weight = _PowerCache(xhat[:-1]).monomial  # monomials of the left nodes
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
