"""Monte Carlo engines and statistical consistency checks.

Path generation is chunked: paths [0, n) are cut into fixed-size blocks
and block c draws from the counter-based stream (seed, "mc", c).  Block
boundaries depend only on the chunk size, never on the thread count,
and block results are reduced in block order, so every statistic here
is bit-reproducible for 1 or many worker threads.

Inside a chunk the normals are drawn once, into a buffer that each
worker thread reuses for the length of one engine call.  Convolution,
vol function and cumulative levels then run on row blocks of 64 paths,
so their temporaries stay a few MB however large the chunk; every one
of them is row-wise, so blocking changes no bit.  Constant sigma
telescopes to the first level and the second level is never formed.
Any other sigma gathers the chunk's levels and calls the stepper once
per chunk: its Python loop over nodes costs the same at any width.

The state engine reproduces the reference pipeline
simulate -> lift -> integrate -> step with batched arithmetic: for the
left-point lift the finest-partition compensated sums collapse to
cumulative sums (higher-order cell terms vanish identically), so the
batch engine needs no index machinery and matches
:func:`parpath.rde.solve_model` to rounding.
"""

from __future__ import annotations

import dataclasses
import math
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import core
from .black_scholes import call_price, implied_vol
from .exceptions import ConfigurationError, InsufficientDataError, NumericalError
from .integrate import compensated_sum_level1
from .lift import KernelSpec, volterra_convolve_batch
from .rate import RateProblem, minimize_rate
from .rde import SigmaConstant, SigmaFunction, solve_rde_batch
from .rng import stream
from .volfn import VolFunction

DEFAULT_CHUNK = 1024
# Paths per row block inside a chunk: one block's (64, N) temporaries are
# 2 MB at N = 4096, where a whole chunk's are 33 MB each.
_ROW_BLOCK = 64


def _chunk_plan(n_paths: int, chunk: int):
    if n_paths < 1:
        raise ConfigurationError(f"need at least one path, got {n_paths}")
    if chunk < 1:
        raise ConfigurationError(f"chunk size must be positive, got {chunk}")
    plan = []
    start = 0
    cid = 0
    while start < n_paths:
        count = min(chunk, n_paths - start)
        plan.append((cid, count))
        start += count
        cid += 1
    return plan


def _dispatch(worker, plan, threads: int):
    """Run workers over the chunk plan; results come back in plan order."""
    if threads <= 1:
        return [worker(cid, count) for cid, count in plan]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(worker, cid, count) for cid, count in plan]
        return [fut.result() for fut in futures]


def _row_blocks(count: int):
    """Slices of at most ``_ROW_BLOCK`` rows covering [0, count)."""
    return [slice(lo, min(lo + _ROW_BLOCK, count))
            for lo in range(0, count, _ROW_BLOCK)]


class _DrawBuffer(threading.local):
    """Storage for a chunk's normals, one array per worker thread.

    Make one per engine call, so the arrays are freed when the call
    returns instead of living as long as the thread.
    """

    array = None

    def view(self, shape) -> np.ndarray:
        size = math.prod(shape)
        if self.array is None or self.array.size < size:
            self.array = np.empty(size)
        return self.array[:size].reshape(shape)


def _draw_increments(seed: int, chunk_id: int, count: int, grid: core.Grid,
                     rho: float, out=None):
    """(dW, dX, aux) for one chunk, from the chunk's own stream.

    The three are the rows of one (3, count, N) normal draw, scaled in
    place; ``out`` is storage for that draw (default: a new array).
    """
    gen = stream(seed, "mc", chunk_id)
    dW, dX, aux = gen.standard_normal((3, count, grid.N), out=out)
    sq = math.sqrt(grid.delta)
    perp = math.sqrt(max(0.0, 1.0 - rho ** 2))
    for rows in _row_blocks(count):
        w, x = dW[rows], dX[rows]
        w *= sq
        # The products of dX = rho * dW + perp * (sq * normal), in place.
        x *= sq
        x *= perp
        x += rho * w
    return dW, dX, aux


def _driver_xhat(dW, aux, kernel: KernelSpec, grid: core.Grid) -> np.ndarray:
    """Smooth component (B, N+1, 2): convolution path and t^zeta."""
    B = dW.shape[0]
    xhat = np.empty((B, grid.N + 1, 2))
    xhat[:, :, 0] = volterra_convolve_batch(dW, aux, kernel, grid)
    xhat[:, :, 1] = grid.nodes ** kernel.zeta
    return xhat


def _levels_batch(f: VolFunction, xhat, dX, delta: float, cell_correction: bool,
                  second: bool = True):
    """Finest-grid integral levels for stacked paths: (y1, y2), (B, N+1).

    With ``second`` false, y2 is not computed and comes back as None.
    """
    fv = f.value(xhat)
    contrib = fv[:, :-1] * dX
    B, N = dX.shape
    y1 = np.zeros((B, N + 1))
    np.cumsum(contrib, axis=1, out=y1[:, 1:])
    if not second:
        return y1, None
    cells2 = y1[:, :-1] * contrib
    if cell_correction:
        cells2 = cells2 + fv[:, :-1] ** 2 * (0.5 * (dX ** 2 - delta))
    y2 = np.zeros((B, N + 1))
    np.cumsum(cells2, axis=1, out=y2[:, 1:])
    return y1, y2


def _state_from_levels(y1, y2, sigma: SigmaFunction, s0: float):
    if isinstance(sigma, SigmaConstant):
        # sigma' = 0: the scheme telescopes, no stepping loop needed.
        return s0 + sigma.c * y1
    return s0 + solve_rde_batch(y1, y2, sigma, s0)


def _state_worker(kernel: KernelSpec, f: VolFunction, sigma: SigmaFunction,
                  rho: float, s0: float, grid: core.Grid, snaps, seed: int,
                  cell_correction: bool, with_x: bool = True):
    """Chunk worker giving (S, X) at the snapshot nodes (X None unless with_x).

    Each stage before the stepper works row by row, so it runs on row
    blocks; the stepper's loop over nodes costs the same at any width,
    so it runs once on the whole chunk.
    """
    draw = _DrawBuffer()
    stepped = not isinstance(sigma, SigmaConstant)  # else y2 is never read
    N = grid.N

    def worker(cid, count):
        dW, dX, aux = _draw_increments(seed, cid, count, grid, rho,
                                       out=draw.view((3, count, N)))
        X = np.empty((count, snaps.size)) if with_x else None
        if stepped:
            # Column-major, so the stepper's node-major copies are free.
            y1 = np.empty((count, N + 1), order="F")
            y2 = np.empty((count, N + 1), order="F")
        else:
            S = np.empty((count, snaps.size))
        for rows in _row_blocks(count):
            xhat = _driver_xhat(dW[rows], aux[rows], kernel, grid)
            b1, b2 = _levels_batch(f, xhat, dX[rows], grid.delta,
                                   cell_correction, second=stepped)
            del xhat
            if stepped:
                y1[rows], y2[rows] = b1, b2
            else:
                S[rows] = _state_from_levels(b1, b2, sigma, s0)[:, snaps]
            if with_x:
                path = np.zeros_like(b1)
                np.cumsum(dX[rows], axis=1, out=path[:, 1:])
                X[rows] = path[:, snaps]
        if stepped:
            S = _state_from_levels(y1, y2, sigma, s0)[:, snaps]
        return S, X

    return worker


def simulate_state(kernel: KernelSpec, f: VolFunction, sigma: SigmaFunction,
                   rho: float, s0: float, grid: core.Grid, snapshots,
                   n_paths: int, seed: int, threads: int = 1,
                   chunk: int = DEFAULT_CHUNK, cell_correction: bool = True):
    """Model state and driver at snapshot nodes for n_paths paths.

    Returns ``(S, X)`` of shape (n_paths, len(snapshots)).
    """
    snaps = np.asarray(snapshots, dtype=np.int64)
    if snaps.ndim != 1 or snaps.size == 0:
        raise ConfigurationError("need at least one snapshot node")
    if snaps.min() < 0 or snaps.max() > grid.N:
        raise ConfigurationError("snapshot nodes out of range")

    worker = _state_worker(kernel, f, sigma, rho, s0, grid, snaps, seed,
                           cell_correction)
    parts = _dispatch(worker, _chunk_plan(n_paths, chunk), threads)
    S = np.concatenate([p[0] for p in parts])
    X = np.concatenate([p[1] for p in parts])
    return S, X


# ---------------------------------------------------------------------------
# moment scaling


@dataclasses.dataclass(frozen=True)
class MomentScalingReport:
    indices: tuple
    slopes: dict
    expected: dict
    deviations: dict
    t_values: np.ndarray
    mean_squares: dict
    n_paths: int
    seed: int
    tol: float

    @property
    def passed(self) -> bool:
        return all(v <= self.tol for v in self.deviations.values())


def moment_scaling_check(kernel: KernelSpec, grid: core.Grid, rho: float,
                         n_paths: int, seed: int, indices=None, t_nodes=None,
                         threads: int = 1, chunk: int = DEFAULT_CHUNK,
                         tol: float = 0.05) -> MomentScalingReport:
    """Regress log E|level-1 value|^2 against log t for small indices.

    Every index scales like ``t^(2 |i| zeta + 1)`` up to the kernel's
    regularity gap, so the measured slope must sit within ``tol`` of
    that exponent.  Indices are pairs (power of the convolution path,
    power of t^zeta).
    """
    if indices is None:
        indices = ((0, 0), (1, 0), (0, 1))
    indices = tuple(tuple(i) for i in indices)
    if t_nodes is None:
        if grid.N % 64:
            raise ConfigurationError("default t grid needs N divisible by 64")
        t_nodes = [grid.N >> k for k in range(7)]
    t_nodes = np.asarray(sorted(set(int(v) for v in t_nodes)), dtype=np.int64)
    if t_nodes[0] < 1 or t_nodes[-1] > grid.N:
        raise ConfigurationError("t nodes out of range")

    draw = _DrawBuffer()

    def worker(cid, count):
        dW, dX, aux = _draw_increments(seed, cid, count, grid, rho,
                                       out=draw.view((3, count, grid.N)))
        # Column-major, the layout the fancy-indexed squares of a whole
        # chunk had, so np.sum below adds in the same (pairwise) order.
        squares = {i: np.empty((count, t_nodes.size), order="F")
                   for i in indices}
        for rows in _row_blocks(count):
            xhat = _driver_xhat(dW[rows], aux[rows], kernel, grid)
            for i in indices:
                w = (xhat[:, :-1, 0] ** i[0]) * (xhat[:, :-1, 1] ** i[1]) \
                    / core.midx_factorial(i)
                a = np.cumsum(w * dX[rows], axis=1)
                squares[i][rows] = a[:, t_nodes - 1] ** 2
        # One sum per chunk: per-block sums would add in another order.
        return {i: np.sum(sq, axis=0) for i, sq in squares.items()}

    parts = _dispatch(worker, _chunk_plan(n_paths, chunk), threads)
    t_vals = grid.nodes[t_nodes]
    slopes, expected, deviations, mean_squares = {}, {}, {}, {}
    for i in indices:
        total = np.zeros(t_nodes.size)
        for p in parts:
            total = total + p[i]
        ms = total / n_paths
        if np.any(ms <= 0.0):
            raise NumericalError(f"degenerate second moments for index {i}")
        slope = float(np.polyfit(np.log(t_vals), np.log(ms), 1)[0])
        exp_slope = 2.0 * core.midx_degree(i) * kernel.zeta + 1.0
        slopes[i] = slope
        expected[i] = exp_slope
        deviations[i] = abs(slope - exp_slope)
        mean_squares[i] = ms
    return MomentScalingReport(indices=indices, slopes=slopes, expected=expected,
                               deviations=deviations, t_values=t_vals,
                               mean_squares=mean_squares, n_paths=n_paths,
                               seed=seed, tol=tol)


# ---------------------------------------------------------------------------
# compensated-sum consistency


@dataclasses.dataclass(frozen=True)
class ItoConsistencyReport:
    coarse_cells: tuple
    rms: dict
    ratio: float
    n_paths: int
    seed: int

    def passed(self, max_ratio: float = 0.5) -> bool:
        return self.ratio <= max_ratio


def ito_consistency_check(kernel: KernelSpec, config: core.IndexConfig,
                          f: VolFunction, rho: float, n_paths: int, seed: int,
                          coarse_cells=(1 << 10, 1 << 12, 1 << 14),
                          fine_cells: int = 1 << 16, T: float = 1.0,
                          threads: int = 1, chunk: int = 8) -> ItoConsistencyReport:
    """Higher-order mass of the compensated sum across coarse partitions.

    Each path is lifted at the fine resolution; over every coarse
    partition the first-level compensated sum is compared with the
    plain left-point sum on the same cells.  The difference D is the
    contribution of all indices |i| >= 1, and its RMS must shrink with
    the coarse mesh like mesh^zeta; the report's ``ratio`` is
    RMS(finest coarse level) / RMS(coarsest).
    """
    coarse_cells = tuple(sorted(int(c) for c in coarse_cells))
    for c in coarse_cells:
        if fine_cells % c:
            raise ConfigurationError("coarse partitions must divide the fine grid")
    grid = core.Grid(T=T, N=fine_cells)

    def worker(cid, count):
        dW, dX, aux = _draw_increments(seed, cid, count, grid, rho)
        out = np.zeros((count, len(coarse_cells)))
        for b in range(count):
            xhat = _driver_xhat(dW[b:b + 1], aux[b:b + 1], kernel, grid)[0]
            x = np.concatenate([[0.0], np.cumsum(dX[b])])
            prp = core.lift_sampled_paths(xhat, x[:, None], config, grid)
            for li, cells in enumerate(coarse_cells):
                part = np.arange(cells + 1, dtype=np.int64) * (fine_cells // cells)
                comp = compensated_sum_level1(prp, f, part)[0]
                lefts = part[:-1]
                plain = float(f.value(prp.xhat[lefts]) @ (x[part[1:]] - x[lefts]))
                out[b, li] = comp - plain
        return out

    parts = _dispatch(worker, _chunk_plan(n_paths, chunk), threads)
    D = np.concatenate(parts)
    rms = {cells: float(np.sqrt(np.mean(D[:, li] ** 2)))
           for li, cells in enumerate(coarse_cells)}
    coarsest, finest = coarse_cells[0], coarse_cells[-1]
    if rms[coarsest] == 0.0:
        ratio = 0.0
    else:
        ratio = rms[finest] / rms[coarsest]
    return ItoConsistencyReport(coarse_cells=coarse_cells, rms=rms, ratio=ratio,
                                n_paths=n_paths, seed=seed)


# ---------------------------------------------------------------------------
# pricing


@dataclasses.dataclass(frozen=True)
class PriceRow:
    strike: float
    maturity: float
    price: float
    stderr: float
    implied_vol: object
    iv_stderr: object
    note: str


@dataclasses.dataclass(frozen=True)
class PriceTable:
    rows: tuple
    n_paths: int
    seed: int
    spot: float


def _nodes_for_times(grid: core.Grid, times) -> np.ndarray:
    times = np.asarray(times, dtype=np.float64)
    idx = np.asarray(np.round(times / grid.delta), dtype=np.int64)
    if np.any(np.abs(idx * grid.delta - times) > 1e-9 * grid.T):
        raise ConfigurationError(f"times {times.tolist()} do not sit on the grid")
    if idx.min() < 1 or idx.max() > grid.N:
        raise ConfigurationError("times out of range (0, T]")
    return idx


def price_and_implied_vol(kernel: KernelSpec, f: VolFunction,
                          sigma: SigmaFunction, rho: float, s0: float,
                          grid: core.Grid, strikes, maturities, n_paths: int,
                          seed: int, threads: int = 1,
                          chunk: int = DEFAULT_CHUNK,
                          cell_correction: bool = True) -> PriceTable:
    """Monte Carlo call prices and implied vols on a strike/maturity grid.

    Prices are sample means of ``max(S_T - K, 0)``; implied vols invert
    the zero-rate pricing formula at the sample mean, with the standard
    error pushed through the vol sensitivity.  Rows that violate static
    bounds carry a note instead of a vol.
    """
    snaps = _nodes_for_times(grid, maturities)
    S, _ = simulate_state(kernel, f, sigma, rho, s0, grid, snaps, n_paths,
                          seed, threads=threads, chunk=chunk,
                          cell_correction=cell_correction)
    rows = []
    for ki, K in enumerate(np.asarray(strikes, dtype=np.float64)):
        for mi, mat in enumerate(np.asarray(maturities, dtype=np.float64)):
            pay = np.maximum(S[:, mi] - K, 0.0)
            price = float(np.mean(pay))
            stderr = float(np.std(pay) / math.sqrt(n_paths))
            iv, ivse, note = None, None, ""
            try:
                iv = implied_vol(price, s0, float(K), float(mat))
                h = max(1e-5, 1e-3 * iv)
                vega = (call_price(s0, float(K), float(mat), iv + h)
                        - call_price(s0, float(K), float(mat), max(iv - h, 1e-6))) \
                    / (iv + h - max(iv - h, 1e-6))
                ivse = stderr / vega if vega > 0 else None
            except NumericalError as exc:
                note = str(exc)
            rows.append(PriceRow(strike=float(K), maturity=float(mat),
                                 price=price, stderr=stderr, implied_vol=iv,
                                 iv_stderr=ivse, note=note))
    return PriceTable(rows=tuple(rows), n_paths=n_paths, seed=seed, spot=s0)


# ---------------------------------------------------------------------------
# scheme convergence against the closed-form benchmark


@dataclasses.dataclass(frozen=True)
class RdeConvergenceReport:
    n_cells: tuple
    rms: dict
    ratio: float
    n_paths: int
    seed: int


def rde_convergence_check(sigma: SigmaFunction, f: VolFunction,
                          kernel: KernelSpec, rho: float, s0: float,
                          n_coarse: int, n_paths: int, seed: int, T: float = 1.0,
                          threads: int = 1, chunk: int = DEFAULT_CHUNK,
                          ) -> RdeConvergenceReport:
    """Strong error of the stepping scheme against exponential dynamics.

    Requires constant f and ``sigma(s) = b s``, for which the state is
    ``s0 * exp(m X_T - m^2 T / 2)`` with ``m = b f``.  Both resolutions
    (n_coarse and 2 n_coarse cells) consume the same Brownian
    increments (the coarse grid sums adjacent fine cells), so the
    reported halving ratio is nearly noise-free.
    """
    from .rde import SigmaLinear
    from .volfn import ConstantVol

    if not (isinstance(f, ConstantVol) and isinstance(sigma, SigmaLinear)
            and sigma.a == 0.0):
        raise ConfigurationError(
            "benchmark needs constant f and sigma(s) = b s (closed-form solution)")
    m = sigma.b * f.c
    fine = core.Grid(T=T, N=2 * n_coarse)
    coarse = core.Grid(T=T, N=n_coarse)

    def worker(cid, count):
        dW, dX, aux = _draw_increments(seed, cid, count, fine, rho)
        out = np.zeros((count, 2))
        for res, (g, inc) in enumerate(
                [(coarse, dX.reshape(count, n_coarse, 2).sum(axis=2)), (fine, dX)]):
            xhat = np.zeros((count, g.N + 1, 2))  # f is constant: values unused
            y1, y2 = _levels_batch(f, xhat, inc, g.delta, True)
            S = s0 + solve_rde_batch(y1, y2, sigma, s0)[:, -1]
            X_T = np.sum(inc, axis=1)
            exact = s0 * np.exp(m * X_T - 0.5 * m ** 2 * T)
            out[:, res] = (S - exact) / exact
        return out

    parts = _dispatch(worker, _chunk_plan(n_paths, chunk), threads)
    rel = np.concatenate(parts)
    rms = {n_coarse: float(np.sqrt(np.mean(rel[:, 0] ** 2))),
           2 * n_coarse: float(np.sqrt(np.mean(rel[:, 1] ** 2)))}
    return RdeConvergenceReport(n_cells=(n_coarse, 2 * n_coarse), rms=rms,
                                ratio=rms[2 * n_coarse] / rms[n_coarse],
                                n_paths=n_paths, seed=seed)


# ---------------------------------------------------------------------------
# tail decay


@dataclasses.dataclass(frozen=True)
class LdpReport:
    z: float
    t_values: np.ndarray
    u_values: np.ndarray
    counts: np.ndarray
    probs: np.ndarray
    neglog: np.ndarray
    slope: float
    fit_coeffs: tuple
    rate_value: float
    ratio: float
    n_paths: int
    seed: int
    dropped: tuple


def ldp_tail_check(kernel: KernelSpec, f: VolFunction, sigma: SigmaFunction,
                   rho: float, grid: core.Grid, z: float, t_values,
                   rate_problem: RateProblem, n_paths: int, seed: int,
                   threads: int = 1, chunk: int = DEFAULT_CHUNK,
                   min_count: int = 50) -> LdpReport:
    """Compare measured short-horizon tail decay with the variational rate.

    Counts exceedances ``S_t >= z * t^(1/2 - H)`` (state started at 0),
    fits ``-log P(t)`` against ``(u, log u, 1)`` with ``u = t^(-2H)``
    (the affine-in-u model with a polynomial prefactor), and reports
    the u-slope over the rate value from :func:`minimize_rate`.  Times
    with fewer than ``min_count`` exceedances are dropped; fewer than
    three usable times raises :class:`InsufficientDataError`.
    """
    H = rate_problem.H
    snaps = _nodes_for_times(grid, t_values)
    t_arr = grid.nodes[snaps]
    thresholds = z * t_arr ** (0.5 - H)

    state = _state_worker(kernel, f, sigma, rho, 0.0, grid, snaps, seed, True,
                          with_x=False)

    def worker(cid, count):
        S, _ = state(cid, count)
        return np.sum(S >= thresholds[None, :], axis=0)

    parts = _dispatch(worker, _chunk_plan(n_paths, chunk), threads)
    counts = np.zeros(snaps.size, dtype=np.int64)
    for p in parts:
        counts += p
    keep = counts >= min_count
    dropped = tuple(float(t) for t in t_arr[~keep])
    if int(keep.sum()) < 3:
        raise InsufficientDataError(
            f"only {int(keep.sum())} times have >= {min_count} exceedances")
    t_use = t_arr[keep]
    probs = counts[keep] / float(n_paths)
    neglog = -np.log(probs)
    u = t_use ** (-2.0 * H)
    design = np.column_stack([u, np.log(u), np.ones_like(u)])
    coeffs, *_ = np.linalg.lstsq(design, neglog, rcond=None)
    slope = float(coeffs[0])
    rate_value = minimize_rate(z, rate_problem).value
    return LdpReport(z=float(z), t_values=t_use, u_values=u,
                     counts=counts[keep], probs=probs, neglog=neglog,
                     slope=slope, fit_coeffs=tuple(float(c) for c in coeffs),
                     rate_value=rate_value,
                     ratio=slope / rate_value if rate_value else math.inf,
                     n_paths=n_paths, seed=seed, dropped=dropped)
