"""Variational rate function for short-horizon tail asymptotics.

The decay rate of ``P(normalized log-price >= z)`` solves a control
problem over one Brownian direction: with controls ``g`` (piecewise
constant on K cells of [0, 1]) driving the kernel convolution
``v = W g``, the partially minimized energy is

    F(g) = 1/2 sum g_k^2 dt
         + (z - rho sigma0 sum f(v_k) g_k dt)^2
           / (2 (1 - rho^2) sigma0^2 sum f(v_k)^2 dt),

where the orthogonal control has been eliminated in closed form.  The
rate is ``inf_g F(g)``, found by quasi-Newton descent with an analytic
gradient from deterministic multistarts.  For constant f the infimum is
``z^2 / (2 sigma0^2 f^2)`` for every admissible rho, which pins the
implementation down to floating accuracy.
"""

from __future__ import annotations

import dataclasses
import math
from functools import lru_cache

import numpy as np

from .exceptions import ConfigurationError, DomainError, NumericalError
from .rng import stream
from .volfn import VolFunction

_F_FLOOR = 1e-12
_GRAD_TOL = 1e-8  # a minimum needs gradient residual <= _GRAD_TOL * (1 + |F|)


@lru_cache(maxsize=64)
def _kh_matrix(H: float, K: int) -> np.ndarray:
    """Cell-average convolution matrix against the power-law kernel.

    Row k holds the exact integrals of ``kappa_H(t_k - s)`` over the
    parts of each cell below the midpoint ``t_k``; lower triangular.
    """
    dt = 1.0 / K
    p = H + 0.5
    scale = 1.0 / (p * math.gamma(p))
    mids = (np.arange(K) + 0.5) * dt
    edges = np.arange(K + 1) * dt
    lo = np.maximum(mids[:, None] - edges[None, :-1], 0.0)
    hi = np.maximum(mids[:, None] - np.minimum(edges[None, 1:], mids[:, None]), 0.0)
    return scale * (lo ** p - hi ** p)


@dataclasses.dataclass(frozen=True)
class RateProblem:
    """Inputs of the variational problem (f evaluated as f(v, 0, ...)).

    ``z_grid`` is the sweep of :func:`smile_curve`; it may stay empty
    when only single-z solves are wanted.
    """

    f: VolFunction
    sigma0: float
    rho: float
    H: float
    K: int = 64
    restarts: int = 8
    seed: int = 0
    z_grid: tuple = ()

    def __post_init__(self):
        if not -1.0 < self.rho < 1.0:
            raise ConfigurationError(
                f"rho must lie strictly inside (-1, 1), got {self.rho}")
        if not (self.sigma0 > 0 and math.isfinite(self.sigma0 * self.sigma0)):
            raise ConfigurationError(
                f"sigma0 must be positive with a finite square, got {self.sigma0}")
        if not (0.0 < self.H <= 0.5):
            raise ConfigurationError(f"H must lie in (0, 1/2], got {self.H}")
        if not (isinstance(self.K, (int, np.integer)) and self.K >= 2):
            raise ConfigurationError(f"K must be an integer >= 2, got {self.K}")
        if not (isinstance(self.restarts, (int, np.integer)) and self.restarts >= 1):
            raise ConfigurationError(f"restarts must be >= 1, got {self.restarts}")
        object.__setattr__(self, "z_grid",
                           tuple(float(z) for z in self.z_grid))
        if not all(map(math.isfinite, self.z_grid)):
            raise ConfigurationError(
                f"z grid entries must be finite, got {list(self.z_grid)}")
        base = float(np.asarray(self.f.value_first(np.zeros(1)))[0])
        if not (base > _F_FLOOR and math.isfinite(base * base)):
            raise ConfigurationError(
                "f must be positive at the base point with a finite square, "
                f"got {base}")


def _terms(g, z, problem):
    """Shared pieces of objective and gradient at one control."""
    W = _kh_matrix(problem.H, g.size)
    dt = 1.0 / g.size
    v = W @ g
    raw = np.asarray(problem.f.value_first(v), dtype=np.float64)
    if np.all(raw <= _F_FLOOR):
        raise NumericalError(
            "f vanishes on the whole grid; the misfit denominator is degenerate")
    fv = np.maximum(raw, _F_FLOOR)
    fp = np.asarray(problem.f.partial_first(v), dtype=np.float64)
    fp = np.where(raw < _F_FLOOR, 0.0, fp)
    A = dt * float(fv @ g)
    B = dt * float(fv @ fv)
    R = z - problem.rho * problem.sigma0 * A
    D = 2.0 * (1.0 - problem.rho ** 2) * problem.sigma0 ** 2 * B
    return W, dt, v, fv, fp, A, B, R, D


def rate_objective(g, z: float, problem: RateProblem, return_grad: bool = False):
    """Objective F(g), optionally with its analytic gradient.

    f values are floored at 1e-12 (gradient zeroed where the floor
    binds) so stray zero crossings of a user-supplied f cannot produce
    division blowups during line searches.
    """
    g = np.asarray(g, dtype=np.float64)
    if g.ndim != 1 or g.size != problem.K:
        raise DomainError(f"g must be a vector of length K = {problem.K}")
    W, dt, v, fv, fp, A, B, R, D = _terms(g, float(z), problem)
    value = 0.5 * dt * float(g @ g) + R ** 2 / D
    if not return_grad:
        return value
    dA = dt * (fv + W.T @ (fp * g))
    dB = 2.0 * dt * (W.T @ (fv * fp))
    grad = (dt * g
            - (2.0 * problem.rho * problem.sigma0 * R / D) * dA
            - (R ** 2 / (D * B)) * dB)
    return value, grad


@dataclasses.dataclass(frozen=True)
class RateSolution:
    z: float
    value: float
    minimizer: np.ndarray
    grad_norm: float
    iterations: int
    starts_tried: int


def minimize_rate(z: float, problem: RateProblem) -> RateSolution:
    """Minimize the rate objective from deterministic multistarts.

    Start 0 is the zero control (exact minimizer in the constant-f
    case); the rest are Gaussian draws from the stream keyed by
    (seed, "rate-start", start index, z).  The best minimum is polished
    until the gradient residual drops below ``1e-8 * (1 + |F|)``; if it
    never does, the solve raises :class:`NumericalError` rather than
    returning an uncertified value.
    """
    from scipy.optimize import minimize

    z = float(z)

    def fg(g):
        return rate_objective(g, z, problem, return_grad=True)

    def residual(x):
        value, grad = fg(x)
        return float(value), float(np.linalg.norm(grad, ord=np.inf))

    opts = {"maxiter": 1000, "ftol": 1e-18, "gtol": 1e-12, "maxcor": 30}
    best = None
    iterations = 0
    for r in range(problem.restarts):
        if r == 0:
            g0 = np.zeros(problem.K)
        else:
            gen = stream(problem.seed, "rate-start", r, f"{z:.12g}")
            g0 = 0.5 * (1.0 + abs(z)) * gen.standard_normal(problem.K)
        res = minimize(fg, g0, jac=True, method="L-BFGS-B", options=opts)
        iterations += int(res.nit)
        if best is None or res.fun < best.fun:
            best = res
    x = best.x
    value, grad_norm = residual(x)
    for _ in range(3):
        if grad_norm <= _GRAD_TOL * (1.0 + abs(value)):
            break
        res = minimize(fg, x, jac=True, method="L-BFGS-B", options=opts)
        iterations += int(res.nit)
        if res.fun <= value:
            x = res.x
            value, grad_norm = residual(x)
    # Fails closed: a NaN value or residual is never certified.
    if not grad_norm <= _GRAD_TOL * (1.0 + abs(value)):
        raise NumericalError(
            f"rate minimization stalled at z = {z:g}: best value {value:.6g}, "
            f"gradient residual {grad_norm:.3g} after {problem.restarts} starts "
            f"and {iterations} iterations")
    return RateSolution(z=z, value=float(value), minimizer=np.asarray(x),
                        grad_norm=grad_norm, iterations=iterations,
                        starts_tried=problem.restarts)


@dataclasses.dataclass(frozen=True)
class OptimalityReport:
    """Algebraic first-order checks at a candidate minimizer.

    Reconstructs the eliminated orthogonal control ``h' = c f(v)`` and
    verifies the constraint it was eliminated under plus the energy
    split; both hold to rounding at any g, so together with the
    gradient norm they certify the returned objective value is the
    energy of an admissible control pair.
    """

    constraint_residual: float
    energy_gap: float
    grad_norm: float


def optimality_report(problem: RateProblem, sol: RateSolution) -> OptimalityReport:
    g = np.asarray(sol.minimizer, dtype=np.float64)
    _, grad = rate_objective(g, sol.z, problem, return_grad=True)
    W, dt, v, fv, fp, A, B, R, D = _terms(g, sol.z, problem)
    root = math.sqrt(1.0 - problem.rho ** 2)
    c = R / (root * problem.sigma0 * B)
    hdot = c * fv
    constraint = (problem.rho * problem.sigma0 * A
                  + root * problem.sigma0 * dt * float(fv @ hdot) - sol.z)
    energy = 0.5 * dt * float(g @ g) + 0.5 * dt * float(hdot @ hdot)
    return OptimalityReport(constraint_residual=abs(constraint),
                            energy_gap=abs(energy - sol.value),
                            grad_norm=float(np.linalg.norm(grad, ord=np.inf)))


@dataclasses.dataclass(frozen=True)
class SmilePoint:
    z: float
    rate: float
    sigma_asym: object  # float, or None at z = 0 / zero rate
    iterations: int
    restarts: int
    grad_norm: float


def smile_curve(problem: RateProblem) -> tuple:
    """Rate values over ``problem.z_grid``, with the smile transform.

    ``sigma_asym = |z| / sqrt(2 F(z))`` converts the rate into the
    short-horizon implied-volatility level.  The conversion is supplied
    as a convenience on top of the solver; at z = 0 (or a zero rate)
    the transform is undefined and the entry is None.  Constant f must
    produce a flat curve at ``sigma0 * f``.
    """
    z_grid = np.asarray(problem.z_grid, dtype=np.float64)
    if z_grid.size == 0:
        raise ConfigurationError("smile_curve needs a non-empty z grid")
    out = []
    for z in z_grid:
        sol = minimize_rate(float(z), problem)
        if z != 0.0 and sol.value > 0.0:
            sig = abs(z) / math.sqrt(2.0 * sol.value)
        else:
            sig = None
        out.append(SmilePoint(z=float(z), rate=sol.value, sigma_asym=sig,
                              iterations=sol.iterations,
                              restarts=sol.starts_tried,
                              grad_norm=sol.grad_norm))
    return tuple(out)
