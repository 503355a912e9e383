"""Second-order time stepping driven by a two-level integral path.

The scheme advances the centered state

    Sbar_{q+1} = Sbar_q + sigma_c(Sbar_q) * Y1_cell
                        + sigma_c'(Sbar_q) sigma_c(Sbar_q) * Y2_cell

per grid cell, where sigma_c(u) = sigma(s0 + u) and the cell values come
from a :class:`RoughPath`.  The model state is S = s0 + Sbar.  When the
driving path was built with the Brownian in-cell correction, the Y2
cells carry the exact second-order term and the scheme matches the
classical second-order method for diffusions; without it the correction
term degenerates and only first-order accuracy remains.

Scalar state, scalar driver (d = 1).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .exceptions import ConfigurationError, DomainError, SolverError
from .integrate import RoughPath, integral
from .lift import _Workspace

_BLOWUP_GUARD = 1e6


class SigmaFunction:
    """Scalar diffusion coefficient with the derivatives the scheme uses.

    ``value`` and ``deriv`` return what broadcasts against the states
    s: an array of their shape, or one float where it is constant."""

    def value(self, s):
        raise NotImplementedError

    def deriv(self, s):
        raise NotImplementedError


@dataclasses.dataclass(frozen=True)
class SigmaConstant(SigmaFunction):
    c: float

    def value(self, s):
        return float(self.c)

    def deriv(self, s):
        return 0.0


@dataclasses.dataclass(frozen=True)
class SigmaLinear(SigmaFunction):
    """sigma(s) = a + b s.  Unbounded; rely on the blow-up guard."""

    a: float
    b: float

    def value(self, s):
        return self.a + self.b * np.asarray(s, dtype=np.float64)

    def deriv(self, s):
        return float(self.b)


@dataclasses.dataclass(frozen=True)
class SigmaSmooth(SigmaFunction):
    """User-supplied sigma with its first derivative (both vectorized)."""

    fn: object
    dfn: object

    def __post_init__(self):
        if not (callable(self.fn) and callable(self.dfn)):
            raise ConfigurationError("fn and dfn must be callable")

    def value(self, s):
        return np.asarray(self.fn(np.asarray(s, dtype=np.float64)), dtype=np.float64)

    def deriv(self, s):
        return np.asarray(self.dfn(np.asarray(s, dtype=np.float64)), dtype=np.float64)


def shifted(sigma: SigmaFunction, s0: float) -> SigmaFunction:
    """The recentered coefficient u -> sigma(s0 + u).

    Families map to themselves where possible so the constant-sigma
    fast paths stay available after shifting.
    """
    s0 = float(s0)
    if s0 == 0.0:
        return sigma
    if isinstance(sigma, SigmaConstant):
        return sigma
    if isinstance(sigma, SigmaLinear):
        return SigmaLinear(sigma.a + sigma.b * s0, sigma.b)
    return SigmaSmooth(fn=lambda u: sigma.value(s0 + u),
                       dfn=lambda u: sigma.deriv(s0 + u))


@dataclasses.dataclass(frozen=True)
class RdeProblem:
    driver: RoughPath
    sigma: SigmaFunction
    s0: float = 0.0


def solve_rde(problem: RdeProblem) -> np.ndarray:
    """Integrate the scheme along the driver, returning Sbar at all nodes.

    Sbar starts at 0; the model state is ``problem.s0 + Sbar``.  This is
    :func:`solve_rde_batch` on one row.  Raises :class:`SolverError`
    (carrying ``last_good_index``) if the state leaves [-1e6, 1e6] or
    turns non-finite.
    """
    rp = problem.driver
    if rp.d != 1:
        raise DomainError("time stepper handles scalar drivers only")
    return solve_rde_batch(rp.y1[None, :, 0], rp.y2[None, :, 0, 0],
                           problem.sigma, problem.s0)[0]


def solve_model(grid, kernel, index_config, f, sigma: SigmaFunction,
                rho: float, s0: float, seeds,
                cell_correction: bool = True) -> np.ndarray:
    """Simulate, lift, integrate, and step: one path of the full model per seed.

    The state follows ``dS = sigma(S) dY`` with ``Y = int f(xhat) dX``
    built from a fresh Brownian bundle for each seed.  Every path is
    lifted and integrated first, then all are stepped in one
    :func:`solve_rde_batch` call.  Returns the states S, shape
    ``(len(seeds), N+1)``, row p from ``seeds[p]``.  This is the
    reference pipeline; the Monte Carlo engines reproduce it with
    batched arithmetic.
    """
    from .lift import build_lift, simulate_brownian

    if not np.isfinite(s0):
        raise ConfigurationError(f"s0 must be finite, got {s0}")
    y1, y2 = [], []
    for seed in seeds:
        prp = build_lift(simulate_brownian(grid, rho, seed), kernel,
                         index_config, cell_correction=cell_correction)
        driver = integral(prp, f)
        y1.append(driver.y1[:, 0])
        y2.append(driver.y2[:, 0, 0])
    return s0 + solve_rde_batch(np.stack(y1), np.stack(y2), sigma, s0)


def solve_rde_batch(y1, y2, sigma: SigmaFunction, s0: float) -> np.ndarray:
    """Vectorized stepping for stacked scalar paths.

    y1: (B, N+1) anchored first-level paths; y2: (B, N+1) anchored
    second-level paths (the scalar (0,0) entry).  Returns the centered
    solutions Sbar, shape (B, N+1), starting at 0; each row is the
    same bits whatever the batch width.  Raises :class:`SolverError`
    (carrying ``last_good_index``) at the first node where any path
    leaves [-1e6, 1e6] or turns non-finite.
    """
    y1 = np.asarray(y1, dtype=np.float64)
    y2 = np.asarray(y2, dtype=np.float64)
    if y1.shape != y2.shape or y1.ndim != 2:
        raise DomainError("y1 and y2 must be equal-shape (B, N+1) arrays")
    cells = np.empty((2, y1.shape[1] - 1, y1.shape[0]))
    _cell_increments(y1, y2, cells[0], cells[1], _Workspace())
    return _step_nodes(cells[0], cells[1], sigma, s0, np.arange(y1.shape[1])).T


def _cell_increments(y1, y2, dy1, y2_cell, work: _Workspace):
    """Write cell increments, node-major, into (N, B) views.

    y1, y2: (B, N+1) levels, any strides.  ``dy1`` gets ``np.diff(y1)``
    and ``y2_cell`` gets ``np.diff(y2) - y1[:, :-1] * np.diff(y1)``,
    transposed, with the bits of those whole-array formulas (every
    operation is elementwise); :func:`_step_nodes` then reads one
    contiguous row per step.
    """
    y1, y2 = y1.T, y2.T  # node-major views
    np.subtract(y1[1:], y1[:-1], out=dy1)
    np.subtract(y2[1:], y2[:-1], out=y2_cell)
    y2_cell -= np.multiply(dy1, y1[:-1], out=work.view("d1", dy1.shape))


def _step_nodes(dy1, y2_cell, sigma: SigmaFunction, s0: float, keep,
                out=None, u=None, first: int = 0) -> np.ndarray:
    """The stepping loop on node-major cell increments.

    dy1, y2_cell: (L, B) first-level increments and second-level cell
    values of cells first, ..., first + L - 1, one row per cell.
    Returns ``out``, Sbar at the nodes ``keep`` (any order, repeats
    allowed), shape (len(keep), B); a call writes the rows of the nodes
    first, ..., first + L and no other node is stored.  ``u`` is Sbar at
    node ``first`` (default: zeros at node 0), advanced in place, so
    calls on consecutive cell segments resume where the last one
    stopped, with the bits of one call on all the cells.  Raises
    :class:`SolverError` as :func:`solve_rde_batch`, naming the node on
    the whole grid.
    """
    s0 = float(s0)
    n_cells, B = dy1.shape
    cols = {}
    for j, node in enumerate(keep):
        cols.setdefault(int(node) - first, []).append(j)
    if out is None:
        out = np.empty((len(keep), B))
    if u is None:
        u = np.zeros(B)
    for j in cols.get(0, ()):
        out[j] = u
    # The loop's own buffers: what sigma returns may alias s (or be
    # kept by it), so no result of sigma is ever written to.
    s = np.add(s0, u)  # the state at the current node
    m = np.empty(B)
    t = np.empty(B)
    for q in range(n_cells):
        sv = sigma.value(s)
        d = sigma.deriv(s)
        # u + sv * dy1 + (d * sv) * y2_cell, in this order.
        u += np.multiply(sv, dy1[q], out=m)
        np.multiply(d, sv, out=t)
        t *= y2_cell[q]
        u += t
        np.add(s0, u, out=s)
        # One reduction per node; NaN fails the comparison too, and
        # ``initial`` lets an empty batch through.
        if not np.abs(s, out=t).max(initial=0.0) <= _BLOWUP_GUARD:
            bad = ~np.isfinite(u) | (np.abs(s) > _BLOWUP_GUARD)
            node = first + q + 1
            raise SolverError(f"state blew up at node {node} "
                              f"({int(bad.sum())} of {B} paths)",
                              last_good_index=node - 1)
        for j in cols.get(q + 1, ()):
            out[j] = u
    return out
