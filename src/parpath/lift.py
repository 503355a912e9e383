"""Volterra kernels, Brownian bundles, and lift construction.

A kernel is the Riemann-Liouville power law
``kappa(t) = t^(zeta - gamma) / Gamma(H + 1/2)``, whose antiderivatives
are closed-form.  The driver pair is

    xhat_1(t) = int_0^t kappa(t - r) dW_r,      xhat_2(t) = t^zeta,
    X = rho * W + sqrt(1 - rho^2) * Wperp,

and :func:`build_lift` turns one simulated bundle into the anchored
container from :mod:`parpath.core`.

Discretization of the stochastic convolution: cells at lag >= 2 use the
exact cell average of the kernel, while the touching cell (where the
kernel may blow up) is replaced by a variable with the exact joint law
of ``int kappa dW`` against the cell's Brownian increment, built from
the bundle's auxiliary normals.  A plain cell-average rule misprices the
touching cell badly for strongly singular kernels (variance deficits of
order 40%+ at the roughest settings); the hybrid rule keeps node
variances exact in law, at every mesh.
"""

from __future__ import annotations

import dataclasses
import math
import threading

import numpy as np

from . import core
from .exceptions import ConfigurationError, DomainError
from .rng import stream


@dataclasses.dataclass(frozen=True)
class KernelSpec:
    """Kernel ``kappa(t) = const * t^(zeta-gamma)`` plus exponent bookkeeping.

    ``zeta`` is the Hoelder exponent of the deterministic component
    ``t^zeta``; ``gamma`` the exponent shifted by the stochastic
    integration.  For the power-law family ``const`` is
    ``1/Gamma(H + 1/2)`` and ``zeta - gamma = H - 1/2``.
    """

    zeta: float
    gamma: float
    const: float

    @staticmethod
    def riemann_liouville(H: float, delta: float = 0.01) -> "KernelSpec":
        """Power-law kernel ``t^(H-1/2) / Gamma(H+1/2)``.

        ``delta`` is the regularity sacrificed to get strict Hoelder
        exponents: zeta = H - delta, gamma = 1/2 - delta.  Requires
        0 < delta < H <= 1/2.
        """
        if not (0.0 < H <= 0.5):
            raise ConfigurationError(f"H must lie in (0, 1/2], got {H}")
        if not (0.0 < delta < H):
            raise ConfigurationError(
                f"delta must lie in (0, H) so both exponents stay positive, got {delta}")
        return KernelSpec(zeta=H - delta, gamma=0.5 - delta,
                          const=1.0 / math.gamma(H + 0.5))

    @property
    def eta(self) -> float:
        """Power-law exponent zeta - gamma of the kernel at 0."""
        return self.zeta - self.gamma


riemann_liouville = KernelSpec.riemann_liouville


def kernel_antideriv(spec: KernelSpec, t):
    """F(t) = int_0^t kappa(u) du."""
    t = np.asarray(t, dtype=np.float64)
    if np.any(t < 0.0):
        raise DomainError("antiderivative needs t >= 0")
    p = spec.eta + 1.0
    return spec.const * t ** p / p


def kernel_sq_antideriv(spec: KernelSpec, t):
    """Q(t) = int_0^t kappa(u)^2 du, the node variance of the convolution."""
    t = np.asarray(t, dtype=np.float64)
    if np.any(t < 0.0):
        raise DomainError("needs t >= 0")
    p = 2.0 * spec.eta + 1.0
    return spec.const ** 2 * t ** p / p


@dataclasses.dataclass(frozen=True)
class BrownianBundle:
    """Brownian node data ``W``, the driver ``X`` and touching-cell normals.

    ``aux`` holds one standard normal per cell, consumed by the hybrid
    convolution rule; zero it to make the convolution a deterministic
    function of W (used by exactness tests).
    """

    grid: core.Grid
    W: np.ndarray
    X: np.ndarray
    aux: np.ndarray = None

    def __post_init__(self):
        n_nodes = self.grid.N + 1
        W = np.asarray(self.W, dtype=np.float64)
        X = np.asarray(self.X, dtype=np.float64)
        aux = (np.zeros(self.grid.N) if self.aux is None
               else np.asarray(self.aux, dtype=np.float64))
        for name, arr in (("W", W), ("X", X)):
            if arr.shape != (n_nodes,):
                raise DomainError(f"{name} must have shape ({n_nodes},)")
            if arr[0] != 0.0 or not np.all(np.isfinite(arr)):
                raise DomainError(f"{name} must be finite and start at 0")
        if aux.shape != (self.grid.N,):
            raise DomainError(f"aux must have shape ({self.grid.N},)")
        object.__setattr__(self, "W", core._freeze(W))
        object.__setattr__(self, "X", core._freeze(X))
        object.__setattr__(self, "aux", core._freeze(aux))


def simulate_brownian(grid: core.Grid, rho: float, seed: int) -> BrownianBundle:
    """One bundle from the counter-based stream (seed, "brownian")."""
    if not -1.0 <= rho <= 1.0:
        raise ConfigurationError(f"rho must lie in [-1, 1], got {rho}")
    gen = stream(seed, "brownian")
    norms = gen.standard_normal((3, grid.N))
    sq = math.sqrt(grid.delta)
    W = np.concatenate([[0.0], np.cumsum(sq * norms[0])])
    Wp = np.concatenate([[0.0], np.cumsum(sq * norms[1])])
    X = rho * W + math.sqrt(max(0.0, 1.0 - rho ** 2)) * Wp
    return BrownianBundle(grid=grid, W=W, X=X, aux=norms[2])


def _hybrid_cell_coeffs(spec: KernelSpec, delta: float):
    """Touching-cell regression coefficients (on dW, on a fresh normal)."""
    F1 = float(kernel_antideriv(spec, delta))
    Q1 = float(kernel_sq_antideriv(spec, delta))
    mu = F1 / delta
    resid = max(0.0, Q1 - F1 ** 2 / delta)
    return mu, math.sqrt(resid)


class _Workspace:
    """Named arrays that each thread reuses, plus values built once.

    ``view(name, shape, dtype)`` returns the leading elements of the
    calling thread's array ``name``, reallocated only when it is too
    small or of another dtype, so a stage that runs block after block
    touches the same pages.
    ``once(key, build)`` keeps one value per key for every thread; keys
    name their inputs, and the values are only read.  Make one
    workspace per engine call and pass it down: nothing outlives the
    call.  Without one, a stage makes a fresh workspace, which is the
    same code on new arrays.
    """

    def __init__(self):
        self._local = threading.local()
        self._shared = {}

    def view(self, name: str, shape, dtype=np.float64) -> np.ndarray:
        arrays = self._local.__dict__
        size = math.prod(shape)
        arr = arrays.get(name)
        if arr is None or arr.size < size or arr.dtype != dtype:
            arr = arrays[name] = np.empty(size, dtype)
        return arr[:size].reshape(shape)

    def once(self, key, build):
        if key not in self._shared:
            # Racing threads build equal values; either may be kept.
            self._shared[key] = build()
        return self._shared[key]


def _next_fast_len(target: int) -> int:
    """Smallest ``2^a 3^b 5^c 7^d 11^e >= target`` (``target >= 1``).

    The size ``scipy.fft.next_fast_len(target)`` returns, without the
    cost of importing ``scipy.fft``; the FFT size fixes the output bits.
    """
    best = 1 << (target - 1).bit_length()
    odd = [1]  # the 3-, 5-, 7-, 11-smooth numbers below ``best``
    for prime in (3, 5, 7, 11):
        for m in list(odd):
            m *= prime
            while m < best:
                odd.append(m)
                m *= prime
    # The least power-of-two multiple of each that reaches ``target``.
    return min(m << (-(-target // m) - 1).bit_length() for m in odd)


@dataclasses.dataclass(frozen=True)
class _ConvolutionPlan:
    """What the convolution needs of (kernel, grid) besides the draw.

    ``mu``/``sd`` are the touching-cell coefficients, ``size`` the FFT
    length and ``kf`` the spectrum of the kernel's exact cell averages
    at lags >= 2.
    """

    mu: float
    sd: float
    size: int
    kf: np.ndarray

    @staticmethod
    def build(spec: KernelSpec, grid: core.Grid) -> "_ConvolutionPlan":
        N, delta = grid.N, grid.delta
        lags = np.arange(1, N + 1) * delta
        Fvals = kernel_antideriv(spec, np.concatenate([[0.0], lags]))
        w = np.diff(Fvals) / delta  # exact cell averages, lag 1..N
        mu, sd = _hybrid_cell_coeffs(spec, delta)
        tail = w[1:]  # lags >= 2: weights for the first N - 1 cells of dW
        size = _next_fast_len(2 * tail.size - 1)
        return _ConvolutionPlan(mu, sd, size, np.fft.rfft(tail, size))


def volterra_convolve_batch(dW, aux, spec: KernelSpec, grid: core.Grid,
                            work: _Workspace | None = None) -> np.ndarray:
    """Stochastic convolution paths for a batch of increment rows.

    Parameters
    ----------
    dW : ndarray (B, N)
    aux : ndarray (B, N) or None
        Touching-cell normals (None means zeros).
    work : _Workspace or None
        Where the result and the FFT arrays live and the kernel's plan
        is kept (None means a fresh one).

    Returns
    -------
    ndarray (B, N+1), paths started at 0.  With ``work`` it is a view
    that the next call overwrites.
    """
    dW = np.asarray(dW, dtype=np.float64)
    if dW.ndim != 2 or dW.shape[1] != grid.N:
        raise DomainError(f"dW must have shape (B, {grid.N})")
    work = _Workspace() if work is None else work
    B, N = dW.shape
    out = work.view("conv", (B, N + 1))
    out[:, 0] = 0.0
    if spec.eta == 0.0:
        # Constant kernel: the convolution is const * W exactly, including
        # the touching cell (its residual variance vanishes).
        out[:, 1:] = spec.const * np.cumsum(dW, axis=1)
        return out
    plan = work.once(("convolution", spec, grid),
                     lambda: _ConvolutionPlan.build(spec, grid))
    touch = np.multiply(plan.mu, dW, out=work.view("touch", (B, N)))
    if aux is not None and plan.sd > 0.0:
        aux = np.asarray(aux, dtype=np.float64)
        if aux.shape != dW.shape:
            raise DomainError("aux must match dW in shape")
        # out[:, 1:] is scratch for sd * aux until the paths are written.
        touch += np.multiply(plan.sd, aux, out=out[:, 1:])
    out[:, 1] = touch[:, 0]
    # Row-wise full convolution of dW with the cell averages at lags
    # >= 2, first N - 1 terms, by FFT.  The kernel spectrum is the
    # first operand of the product: ``freq * kf`` differs in the last bits.
    L = N - 1
    pad = work.view("fft_pad", (B, plan.size))
    pad[:, :L] = dW[:, :L]
    pad[:, L:] = 0.0
    freq = work.view("fft_spec", (B, plan.kf.size), np.complex128)
    np.fft.rfft(pad, axis=1, out=freq)
    np.multiply(plan.kf[None, :], freq, out=freq)
    back = work.view("fft_back", (B, plan.size))
    np.fft.irfft(freq, plan.size, axis=1, out=back)
    np.add(back[:, :L], touch[:, 1:], out=out[:, 2:])
    return out


def volterra_convolve(bundle: BrownianBundle, spec: KernelSpec) -> np.ndarray:
    """Convolution path for one bundle, shape (N+1,)."""
    dW = np.diff(bundle.W)
    return volterra_convolve_batch(dW[None, :], bundle.aux[None, :], spec, bundle.grid)[0]


def check_driver_pair(spec: KernelSpec, config: core.IndexConfig) -> None:
    """Refuse index sets that the scalar driver pair cannot be lifted to.

    The smooth component is ``(convolution path, t^zeta)``, so the
    configured ``e`` must be 2, ``d`` must be 1 and ``beta <= zeta``
    must hold (the second component has no more regularity to give).
    """
    if config.e != 2:
        raise ConfigurationError(f"driver pair has e = 2 components, config has e = {config.e}")
    if config.d != 1:
        raise ConfigurationError(f"scalar driver requires d = 1, config has d = {config.d}")
    if config.beta > spec.zeta:
        raise ConfigurationError(
            f"beta = {config.beta} exceeds the kernel regularity zeta = {spec.zeta}")


def build_lift(bundle: BrownianBundle, spec: KernelSpec,
               config: core.IndexConfig) -> core.PartialRoughPath:
    """Left-point lift of the simulated driver pair.

    ``config`` must suit the driver pair (:func:`check_driver_pair`).
    Level-2 cells carry the exact Brownian in-cell term
    ``(dX^2 - delta)/2``, which sharpens downstream second-order schemes
    by one weak order; the splitting identities hold as for any lift.
    """
    check_driver_pair(spec, config)
    grid = bundle.grid
    xhat = np.column_stack([
        volterra_convolve(bundle, spec),
        grid.nodes ** spec.zeta,
    ])
    return core.lift_sampled_paths(xhat, bundle.X, config, grid,
                                   cell_correction=True)


def build_lift_quadrature(xhat_fns, config: core.IndexConfig, grid: core.Grid,
                          xdot=None) -> core.PartialRoughPath:
    """Lift of smooth callable paths by per-cell Gauss quadrature.

    For deterministic drivers ``dX = xdot(t) dt`` (default xdot = 1) the
    level data are honest Riemann integrals; sampling-based left sums
    would carry O(mesh) bias, while this builder is accurate to
    quadrature precision.  The first cell of every level-1 integral is
    delegated to an adaptive routine because components like ``t^zeta``
    have unbounded derivatives at 0.

    Parameters
    ----------
    xhat_fns : sequence of e callables
        Each vectorized over a time array.
    """
    from scipy.integrate import quad

    e, d = config.e, config.d
    if d != 1:
        raise ConfigurationError("quadrature lift supports scalar drivers only")
    if len(xhat_fns) != e:
        raise ConfigurationError(f"need {e} path components, got {len(xhat_fns)}")
    if xdot is None:
        xdot = lambda t: np.ones_like(np.asarray(t, dtype=np.float64))
    delta, nodes = grid.delta, grid.nodes
    x0 = np.array([float(fn(np.array([0.0]))[0]) for fn in xhat_fns])

    def xhat_at(t):
        t = np.asarray(t, dtype=np.float64)
        return np.stack([np.asarray(fn(t), dtype=np.float64) - x0[l]
                         for l, fn in enumerate(xhat_fns)], axis=-1)

    gx8, gw8 = np.polynomial.legendre.leggauss(8)
    gx3, gw3 = np.polynomial.legendre.leggauss(3)
    # Gauss nodes per cell, (N, 8)
    r8 = nodes[:-1, None] + delta * (gx8[None, :] + 1.0) / 2.0
    xh8 = xhat_at(r8)          # (N, 8, e)
    xd8 = np.asarray(xdot(r8), dtype=np.float64) * np.ones_like(r8)

    mono8 = core._PowerCache(xh8).monomial

    def integrand_scalar(idx, r):
        xv = xhat_at(np.array([r]))[0]
        val = 1.0
        for axis, k in enumerate(idx):
            val *= xv[axis] ** k
        return val * float(np.asarray(xdot(np.array([r])))[0]) / core.midx_factorial(idx)

    a = {}
    for i in config.I:
        cells = (delta / 2.0) * (mono8(i) * xd8) @ gw8 / core.midx_factorial(i)
        first, _ = quad(lambda r: integrand_scalar(i, r), 0.0, delta,
                        limit=200)
        cells[0] = first
        a[i] = np.concatenate([[0.0], np.cumsum(cells)])[:, None]

    # Level-1 values at the Gauss nodes (for the level-2 integrands):
    # anchored node value plus a 3-point sub-integral over [t_q, r].
    half = (r8 - nodes[:-1, None]) / 2.0                       # (N, 8)
    r3 = nodes[:-1, None, None] + half[:, :, None] * (gx3[None, None, :] + 1.0)
    xh3 = xhat_at(r3)                                          # (N, 8, 3, e)
    xd3 = np.asarray(xdot(r3), dtype=np.float64) * np.ones(r3.shape)
    mono3 = core._PowerCache(xh3).monomial
    b = {}
    a_at_gauss = {}
    for j in {jk[0] for jk in config.J}:
        sub = half * ((mono3(j) * xd3) @ gw3) / core.midx_factorial(j)
        a_at_gauss[j] = a[j][:-1, 0][:, None] + sub            # (N, 8)
    for (j, k) in config.J:
        w = mono8(k) / core.midx_factorial(k)
        cells = (delta / 2.0) * (w * a_at_gauss[j] * xd8) @ gw8
        b[(j, k)] = np.concatenate([[0.0], np.cumsum(cells)])[:, None, None]

    return core.PartialRoughPath(grid, config, xhat_at(nodes), a, b)
