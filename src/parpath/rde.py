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
from .integrate import RoughPath

_BLOWUP_GUARD = 1e6


class SigmaFunction:
    """Scalar diffusion coefficient with the derivatives the scheme uses."""

    def value(self, s):
        raise NotImplementedError

    def deriv(self, s):
        raise NotImplementedError

    @property
    def bounded_derivatives(self) -> bool:
        """Whether value/deriv are globally bounded (guards stay quiet)."""
        return False


@dataclasses.dataclass(frozen=True)
class SigmaConstant(SigmaFunction):
    c: float

    def value(self, s):
        return np.full_like(np.asarray(s, dtype=np.float64), float(self.c))

    def deriv(self, s):
        return np.zeros_like(np.asarray(s, dtype=np.float64))

    @property
    def bounded_derivatives(self):
        return True


@dataclasses.dataclass(frozen=True)
class SigmaLinear(SigmaFunction):
    """sigma(s) = a + b s.  Unbounded; rely on the blow-up guard."""

    a: float
    b: float

    def value(self, s):
        return self.a + self.b * np.asarray(s, dtype=np.float64)

    def deriv(self, s):
        return np.full_like(np.asarray(s, dtype=np.float64), float(self.b))


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

    @property
    def bounded_derivatives(self):
        return True


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

    Sbar starts at 0; the model state is ``problem.s0 + Sbar``.  Raises
    :class:`SolverError` (carrying ``last_good_index``) if the state
    leaves [-1e6, 1e6] or turns non-finite.
    """
    rp = problem.driver
    if rp.d != 1:
        raise DomainError("time stepper handles scalar drivers only")
    y1 = rp.y1[:, 0]
    y2 = rp.y2[:, 0, 0]
    dy1 = np.diff(y1)
    # Cell values of the second level: Y2 over (q, q+1).
    y2_cell = np.diff(y2) - y1[:-1] * dy1
    sig = problem.sigma
    s0 = float(problem.s0)
    out = np.empty(rp.N + 1)
    out[0] = 0.0
    u = 0.0
    for q in range(rp.N):
        sv = float(np.asarray(sig.value(s0 + u)))
        dv = float(np.asarray(sig.deriv(s0 + u)))
        u = u + sv * dy1[q] + dv * sv * y2_cell[q]
        if not np.isfinite(u) or abs(s0 + u) > _BLOWUP_GUARD:
            raise SolverError(f"state blew up at node {q + 1}", last_good_index=q)
        out[q + 1] = u
    return out


@dataclasses.dataclass(frozen=True)
class ModelResult:
    """Everything produced by one end-to-end model solve."""

    S: np.ndarray
    Sbar: np.ndarray
    driver: RoughPath
    prp: object
    bundle: object
    trace: object


def solve_model(grid, kernel, index_config, f, sigma: SigmaFunction,
                rho: float, s0: float, seed: int, tol: float = 1e-9,
                cell_correction: bool = True) -> ModelResult:
    """Simulate, lift, integrate, and step: one path of the full model.

    The state follows ``dS = sigma(S) dY`` with ``Y = int f(xhat) dX``
    built from a fresh Brownian bundle.  This is the reference
    single-path pipeline; the Monte Carlo engines reproduce it with
    batched arithmetic.
    """
    from .integrate import integrate as rough_integrate
    from .lift import build_lift, simulate_brownian

    bundle = simulate_brownian(grid, rho, seed)
    prp = build_lift(bundle, kernel, index_config,
                     cell_correction=cell_correction)
    driver, trace = rough_integrate(prp, f, tol=tol)
    sbar = solve_rde(RdeProblem(driver=driver, sigma=sigma, s0=s0))
    return ModelResult(S=s0 + sbar, Sbar=sbar, driver=driver, prp=prp,
                       bundle=bundle, trace=trace)


def solve_rde_batch(y1, y2, sigma: SigmaFunction, s0: float) -> np.ndarray:
    """Vectorized stepping for stacked scalar paths.

    y1: (B, N+1) anchored first-level paths; y2: (B, N+1) anchored
    second-level paths (the scalar (0,0) entry).  Returns the centered
    solutions Sbar, shape (B, N+1), starting at 0.  Blow-up handling
    matches :func:`solve_rde` but reports the first offending node
    across the batch.
    """
    y1 = np.asarray(y1, dtype=np.float64)
    y2 = np.asarray(y2, dtype=np.float64)
    if y1.shape != y2.shape or y1.ndim != 2:
        raise DomainError("y1 and y2 must be equal-shape (B, N+1) arrays")
    s0 = float(s0)
    B, n_nodes = y1.shape
    # Node-major (N, B) copies: each step reads and writes contiguous
    # rows instead of strided columns.
    dy1 = np.ascontiguousarray(np.diff(y1, axis=1).T)
    y2_cell = np.diff(y2, axis=1)
    y2_cell -= y1[:, :-1] * dy1.T
    y2_cell = np.ascontiguousarray(y2_cell.T)
    out = np.empty((n_nodes, B))
    out[0] = 0.0
    u = np.zeros(B)
    for q in range(n_nodes - 1):
        sv = sigma.value(s0 + u)
        u = u + sv * dy1[q] + sigma.deriv(s0 + u) * sv * y2_cell[q]
        bad = ~np.isfinite(u) | (np.abs(s0 + u) > _BLOWUP_GUARD)
        if np.any(bad):
            raise SolverError(f"state blew up at node {q + 1} "
                              f"({int(bad.sum())} of {B} paths)", last_good_index=q)
        out[q + 1] = u
    return out.T
