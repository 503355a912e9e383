"""Monte Carlo engines and statistical consistency checks.

Path generation is chunked: paths [0, n) are cut into fixed-size blocks
and block c draws from the counter-based stream (seed, "mc", c).  Block
boundaries depend only on the chunk size, never on the thread count,
and block results are reduced in block order, so every statistic here
is bit-reproducible for 1 or many worker threads.

Each chunk's draw is one (3, width, N) block of normals, in this
order: dW, the independent part of X, then the touching-cell normals.
Every chunk draws it one way: dW whole, then each later block row
block by row block as it is read.  The X normals are read at once, to
form dX: in its own row where the driver reads dW, in dW's rows where
constant f never reads it.  Only the Volterra convolution reads the
third block, and not always: constant f skips the convolution, and a
constant kernel (H = 1/2) makes it const * W, so such a chunk never
draws that block.  The stream fills the block in order and float64
normals carry no state between draws, so the rows come out with the
bits of one whole draw.

Every engine hands its per-chunk stage to :func:`_run_chunks`, the one
place that plans the chunks, checks their working set, makes the
call's workspace, draws each chunk into it and dispatches the chunks.
The workspace (:class:`parpath.lift._Workspace`) gives every worker
thread its own named arrays for the length of the call: the chunk's
dX, and its dW where the driver reads it; one row block of normals,
the FFT's padded rows, spectrum and inverse, the driver and the level
arrays; and one node segment's arrays.  So a chunk holds one
(chunk, N) array per thread when f is constant, two otherwise.
Convolution, vol function, cumulative levels and the ito check's
cell sums run on row blocks of 16 paths in the same arrays, so a
block allocates little and faults in no fresh pages, however large
the chunk.  Every stage is row-wise, so blocking changes no bit.
The convolution weights and kernel spectrum are built once per call.
Each block forms f's values once, from the driver, or as the float
``f.c`` for constant f; every running sum of weighted increments (the
first level, the driver X, the monomial levels) comes from
:func:`_levels_batch`.  Constant sigma telescopes to the first level
and the second level is never formed.  Any other sigma is stepped in
node segments of 64 (:func:`_step_segments`): the row blocks write
f's values over the dW rows that the driver has read, and the stepper
reads the chunk's dX rows and f's values, copies each segment's slice
of them node-major, forms both levels by cumulative sums that carry
on from the segment before, and resumes from its carried state,
keeping only the snapshot nodes.  The stepper's Python loop costs the
same at any width, so a segment spans the whole chunk.

Before any draw, the runner checks that the worker threads'
workspaces, with the draw rows they make, fit in physical memory, and
raises :class:`ConfigurationError` when they cannot.

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
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import core
from .black_scholes import call_price, implied_vol
from .exceptions import ConfigurationError, InsufficientDataError, NumericalError
from .lift import (KernelSpec, _Workspace, check_driver_pair,
                   volterra_convolve_batch)
from .rate import RateProblem, minimize_rate
from .rde import (SigmaConstant, SigmaFunction, SigmaLinear, _cell_increments,
                  _step_nodes)
from .rng import stream
from .volfn import ConstantVol, VolFunction

DEFAULT_CHUNK = 1024
MOMENTS_TOL = 0.05  # largest slope deviation that passes the moments check
ITO_MAX_RATIO = 0.5  # largest RMS ratio that passes the ito check
# The moments check's indices (power of the convolution path, of t^zeta).
MOMENT_INDICES = ((0, 0), (1, 0), (0, 1))
# Paths per row block inside a chunk: one block's (16, N) arrays are
# 0.5 MB at N = 4096, where a whole chunk's are 33 MB each.  Every stage
# before the stepper is row-wise, so the block size changes no bit.
_ROW_BLOCK = 16
# Arrays of one row block, in rows of N floats: the block of normals
# drawn row block by row block (1), the driver (2), the convolution and
# its touching cells (2), the FFT's pad, spectrum and inverse (about 6),
# levels and temporaries (6).
_BLOCK_ROWS = 17
# Nodes per segment of the stepper: a segment's (64, chunk) arrays are
# 0.5 MB at 1024 paths, where a whole chunk's are 33 MB.  The levels are
# cumulative sums along the nodes, carried from segment to segment, and
# the stepper resumes from its carried state, so segments change no bit.
_NODE_SEGMENT = 64
# Arrays of one node segment, in rows of (segment + 1) * chunk floats:
# the increments, f's values and the compact copy that transposes them
# (3), both levels and their terms (4), the squared increments, and the
# two cell rows with their product (3).
_SEGMENT_ROWS = 11


def _physical_memory():
    """Bytes of physical memory, or None where the OS does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):
        return None


def _chunk_plan(n_paths: int, chunk: int, N: int, threads: int,
                stepped: bool, driver: bool = True):
    """(chunk id, path count) pairs covering [0, n_paths).

    Checks first that the workspaces of the threads that will run fit
    in physical memory.  Each holds the chunk's draw, (count, N) rows
    of dW and dX with the ``driver``, of dX alone without it; the row
    block's arrays, its block of normals included; and, when the
    engine is ``stepped``, one node segment's arrays.
    """
    if n_paths < 1:
        raise ConfigurationError(f"need at least one path, got {n_paths}")
    if chunk < 1:
        raise ConfigurationError(f"chunk size must be positive, got {chunk}")
    if threads < 1:
        raise ConfigurationError(f"need at least one thread, got {threads}")
    count = min(chunk, n_paths)
    per_thread = 8 * ((N + 1) * ((1 + driver) * count
                                 + _BLOCK_ROWS * min(count, _ROW_BLOCK))
                      + stepped * _SEGMENT_ROWS
                      * (min(N, _NODE_SEGMENT) + 1) * count)
    workers = min(threads, -(-n_paths // chunk))
    memory = _physical_memory()
    if memory is not None and workers * per_thread > memory:
        raise ConfigurationError(
            f"{workers} worker threads need about "
            f"{workers * per_thread / 2 ** 20:.0f} MB of workspace for "
            f"{count}-path chunks at N = {N}, more than the "
            f"{memory / 2 ** 20:.0f} MB of physical memory; use fewer "
            "threads or smaller chunks")
    return [(cid, min(chunk, n_paths - start))
            for cid, start in enumerate(range(0, n_paths, chunk))]


def _dispatch(worker, plan, threads: int):
    """Run workers over the chunk plan; results come back in plan order."""
    if threads <= 1:
        return [worker(cid, count) for cid, count in plan]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(worker, cid, count) for cid, count in plan]
        return [fut.result() for fut in futures]


def _check_rho(rho: float) -> None:
    if not -1.0 <= rho <= 1.0:
        raise ConfigurationError(f"rho must lie in [-1, 1], got {rho}")


def _run_chunks(stage, grid: core.Grid, seed: int, rho: float, n_paths: int,
                chunk: int, threads: int, stepped: bool = False,
                driver: bool = True):
    """Every chunk's ``stage(count, dW, dX, normals, work)``, in chunk order.

    The one place where an engine plans, guards, draws and dispatches
    its chunks, so the guard counts what the chunks hold: ``stepped``
    says whether the stage steps node segments, and ``driver`` whether
    it reads dW (``dW`` is None without it, and the chunk holds dX
    alone).  ``work`` is the call's workspace; ``dW`` and ``dX`` are
    views of its draw, and ``normals`` a :class:`_RowSource` that draws
    the third row into it block by block as it is read.  A ``rho``
    outside [-1, 1] (or NaN) raises :class:`ConfigurationError` before
    any draw.
    """
    _check_rho(rho)
    plan = _chunk_plan(n_paths, chunk, grid.N, threads, stepped, driver)
    work = _Workspace()

    def worker(cid, count):
        dW, dX, normals = _draw_increments(seed, cid, count, grid, rho,
                                           work, driver=driver)
        return stage(count, dW, dX, normals, work)

    return _dispatch(worker, plan, threads)


def _row_blocks(count: int):
    """Slices of at most ``_ROW_BLOCK`` rows covering [0, count)."""
    return [slice(lo, min(lo + _ROW_BLOCK, count))
            for lo in range(0, count, _ROW_BLOCK)]


class _RowSource:
    """A row of a chunk's draw, drawn row block by row block.

    ``source[rows]`` draws the next rows of the next (count, N) row of
    the chunk's draw (the X normals, then the touching-cell normals)
    from its generator into ``work`` and returns them, a view that the
    next read overwrites.  The stream fills the draw in order, so the
    rows have the bits of one whole draw only if each read starts where
    the last one stopped: a skipped or repeated row raises
    :class:`IndexError`.
    """

    def __init__(self, gen, count: int, N: int, work: _Workspace):
        self._gen, self._count, self._N, self._work = gen, count, N, work
        self._next = 0

    def __getitem__(self, rows):
        start, stop, step = (rows.indices(self._count)
                             if isinstance(rows, slice) else (-1, -1, 0))
        if step != 1 or start != self._next or stop <= start:
            raise IndexError(
                f"normals are drawn in order: expected rows "
                f"from {self._next} of {self._count}, got {rows!r}")
        block = self._work.view("normals", (stop - start, self._N))
        self._gen.standard_normal(block.shape, out=block)
        self._next = stop
        return block


def _draw_increments(seed: int, chunk_id: int, count: int, grid: core.Grid,
                     rho: float, work: _Workspace | None = None,
                     driver: bool = True):
    """(dW, dX, aux) for one chunk, from the chunk's own stream.

    dW and dX are the first two rows of the chunk's (3, count, N)
    normal draw, scaled in ``work`` (default: a fresh workspace): dW
    drawn whole, the X normals row block by row block.  aux is a
    :class:`_RowSource` over the third row, which draws it as it is
    read; a row that nothing reads is never drawn.  With the
    ``driver``, dX gets its own row of ``work``; without it, dX is
    formed in dW's rows and dW comes back None.  The stream fills the
    draw in order, so every row keeps its bits.
    """
    work = _Workspace() if work is None else work
    gen = stream(seed, "mc", chunk_id)
    draw = work.view("draw", (1 + driver, count, grid.N))
    dW, dX = draw[0], draw[-1]
    gen.standard_normal(dW.shape, out=dW)
    x_normals = _RowSource(gen, count, grid.N, work)
    sq = math.sqrt(grid.delta)
    perp = math.sqrt(max(0.0, 1.0 - rho ** 2))
    for rows in _row_blocks(count):
        w = dW[rows]
        x = x_normals[rows]
        w *= sq
        # The products of dX = rho * dW + perp * (sq * normal), in place.
        x *= sq
        x *= perp
        if driver:
            np.add(x, rho * w, out=dX[rows])
        else:
            # The same sum, formed in dW's rows: nothing reads dW again.
            w *= rho
            w += x
    return dW if driver else None, dX, _RowSource(gen, count, grid.N, work)


def _driver_xhat(dW, aux, rows, kernel: KernelSpec, grid: core.Grid,
                 work: _Workspace) -> np.ndarray:
    """Smooth component (B, N+1, 2) of the chunk rows ``rows``: the
    convolution path and t^zeta.  ``aux`` (the chunk's
    :class:`_RowSource`) is read once per call, in ascending rows,
    unless the kernel is constant (``eta == 0``, H = 1/2): the
    convolution is then ``const * W`` and reads no touching cells.

    The result is a view into ``work`` that the next call overwrites.
    """
    dW = dW[rows]
    B = dW.shape[0]
    xhat = work.view("xhat", (B, grid.N + 1, 2))
    xhat[:, :, 0] = volterra_convolve_batch(
        dW, aux[rows] if kernel.eta != 0.0 else None, kernel, grid, work=work)
    xhat[:, :, 1] = work.once(("t^zeta", kernel.zeta, grid),
                              lambda: grid.nodes ** kernel.zeta)
    return xhat


def _levels_batch(fv, dX, work: _Workspace) -> np.ndarray:
    """Running sums of ``fv * dX`` along the rows, (B, N+1) from 0.

    ``fv`` is an array like ``dX`` or a float: f's values give the
    finest-grid first integral level, 1.0 the driver path itself.  A
    view into ``work`` that the next call overwrites.
    """
    B, N = dX.shape
    contrib = np.multiply(fv, dX, out=work.view("contrib", (B, N)))
    y1 = work.view("y1", (B, N + 1))
    y1[:, 0] = 0.0
    np.cumsum(contrib, axis=1, out=y1[:, 1:])
    return y1


def _state_from_levels(y1, sigma: SigmaConstant, s0: float):
    # sigma' = 0: the scheme telescopes, no stepping loop needed.
    return s0 + sigma.c * y1


def _carried_cumsum(terms, level, first: bool):
    """Write the running sums of ``terms`` (L, B) into ``level`` (L+1, B).

    Row 0 of ``level`` holds the carry, the sum up to the segment, and
    row k becomes row k-1 plus term k-1, the additions of one
    ``np.cumsum`` along the whole grid; on the ``first`` segment row 0
    is set to 0 and the sum starts at term 0 itself, as ``np.cumsum``
    does.  Row by row, since ``np.cumsum`` down the rows walks one
    column at a time, about four times slower.
    """
    start = 1
    if first:
        level[0] = 0.0
        level[1] = terms[0]
        start = 2
    for k in range(start, len(level)):
        np.add(level[k - 1], terms[k - 1], out=level[k])


def _node_major(rows, name: str, work: _Workspace) -> np.ndarray:
    """``rows`` (B, L), a slice of a chunk's rows, copied into the (L, B)
    array ``name`` of ``work``, which is returned.

    Through a compact copy: transposing straight out of the chunk reads
    one page per path for every node and runs about twice as slow.
    """
    compact = work.view("seg_rows", rows.shape)
    compact[...] = rows
    out = work.view(name, compact.T.shape)
    out[...] = compact.T
    return out


def _step_segments(dX, fv, sigma: SigmaFunction, s0: float, keep,
                   delta: float, work: _Workspace) -> np.ndarray:
    """Sbar at the nodes ``keep`` of the chunk's paths, (len(keep), count).

    ``dX`` holds the chunk's increments, (count, n_cells), and ``fv``
    f's values on the same cells: an array like ``dX``, or a float for
    constant f.  Walks the cells in node segments of ``_NODE_SEGMENT``,
    copying each segment's slice of both node-major.  Each segment forms
    both integral levels by cumulative sums along the nodes, starting
    from the last node of the one before, then its cell increments by
    :func:`_cell_increments`, and :func:`_step_nodes` resumes from the
    carried state.  Every bit is that of the whole chunk's levels,
    increments and stepping.
    """
    count, n_cells = dX.shape
    out = np.empty((len(keep), count))
    u = np.zeros(count)
    for lo in range(0, n_cells, _NODE_SEGMENT):
        hi = min(lo + _NODE_SEGMENT, n_cells)
        shape = (hi - lo, count)
        dx = _node_major(dX[:, lo:hi], "seg_dx", work)
        f_seg = fv
        if isinstance(fv, np.ndarray):
            f_seg = _node_major(fv[:, lo:hi], "seg_fv", work)
        contrib = np.multiply(f_seg, dx, out=work.view("seg_contrib", shape))
        # Row 0 of each level holds the carry: 0 at node 0, else the
        # last row of the segment before, moved there below.
        y1 = work.view("seg_y1", (hi - lo + 1, count))
        y2 = work.view("seg_y2", (hi - lo + 1, count))
        _carried_cumsum(contrib, y1, lo == 0)
        cells2 = np.multiply(y1[:-1], contrib,
                             out=work.view("seg_cells2", shape))
        # In-cell term: cells2 += fv^2 * (0.5 * (dX^2 - delta)), in this order.
        t = np.square(dx, out=work.view("seg_dx2", shape))
        t -= delta
        t *= 0.5
        v = np.square(f_seg, out=contrib)  # contrib is not read again
        v *= t
        cells2 += v
        _carried_cumsum(cells2, y2, lo == 0)
        dy1 = work.view("seg_dy1", shape)
        y2_cell = work.view("seg_y2_cell", shape)
        _cell_increments(y1.T, y2.T, dy1, y2_cell, work)
        _step_nodes(dy1, y2_cell, sigma, s0, keep, out=out, u=u, first=lo)
        y1[0] = y1[-1]
        y2[0] = y2[-1]
    return out


def _run_state(kernel: KernelSpec, f: VolFunction, sigma: SigmaFunction,
               rho: float, s0: float, grid: core.Grid, snaps, seed: int,
               n_paths: int, chunk: int, threads: int,
               reduce=None):
    """Each chunk's ``reduce(S)``, S the state at the snapshot nodes; without
    ``reduce``, each chunk's (S, X), X the driver at the same nodes.

    Each stage before the stepper works row by row, so it runs on row
    blocks in the call's workspace.  Each block forms f's values once:
    ``float(f.c)`` for constant f, which never reads the driver and
    keeps no dW at all.  A stepped sigma then walks the chunk in node
    segments (:func:`_step_segments`), which read the chunk's dX rows
    and f's values, written over the dW rows that the driver has read.
    """
    stepped = not isinstance(sigma, SigmaConstant)  # else y2 is never read
    const_f = isinstance(f, ConstantVol)  # the driver is never read
    with_x = reduce is None

    def stage(count, dW, dX, normals, work):
        X = np.empty((count, snaps.size)) if with_x else None
        S = None if stepped else np.empty((count, snaps.size))
        for rows in _row_blocks(count):
            fv = float(f.c) if const_f else f.value(
                _driver_xhat(dW, normals, rows, kernel, grid, work))[:, :-1]
            if not stepped:
                b1 = _levels_batch(fv, dX[rows], work)
                # Elementwise, so only the snapshot columns are formed.
                S[rows] = _state_from_levels(b1[:, snaps], sigma, s0)
            elif not const_f:
                # The driver has read these dW rows: they now hold f.
                dW[rows] = fv
            if with_x:
                X[rows] = _levels_batch(1.0, dX[rows], work)[:, snaps]
        if stepped:
            S = s0 + _step_segments(dX, float(f.c) if const_f else dW, sigma,
                                    s0, snaps, grid.delta, work).T
        return (S, X) if with_x else reduce(S)

    return _run_chunks(stage, grid, seed, rho, n_paths, chunk, threads,
                       stepped, driver=not const_f)


def simulate_state(kernel: KernelSpec, f: VolFunction, sigma: SigmaFunction,
                   rho: float, s0: float, grid: core.Grid, snapshots,
                   n_paths: int, seed: int, threads: int = 1,
                   chunk: int = DEFAULT_CHUNK):
    """Model state and driver at snapshot nodes for n_paths paths.

    Returns ``(S, X)`` of shape (n_paths, len(snapshots)).
    """
    nodes = np.asarray(snapshots, dtype=np.float64)
    if nodes.ndim != 1 or nodes.size == 0:
        raise ConfigurationError("need at least one snapshot node")
    if not np.all(np.isfinite(nodes) & (nodes == np.round(nodes))):
        raise ConfigurationError(
            f"snapshot nodes must be whole numbers, got {nodes.tolist()}")
    nodes = nodes.astype(np.int64)
    if nodes.min() < 0 or nodes.max() > grid.N:
        raise ConfigurationError("snapshot nodes out of range")

    parts = _run_state(kernel, f, sigma, rho, s0, grid, nodes,
                       seed, n_paths, chunk, threads)
    S = np.concatenate([p[0] for p in parts])
    X = np.concatenate([p[1] for p in parts])
    return S, X


def _dyadic_nodes(grid: core.Grid) -> np.ndarray:
    """The nodes N >> 6, ..., N >> 1, N of ``grid``, ascending.

    The moments check fits its slopes at them, and the ito check cuts
    the grid into N/64, N/16 and N/4 cells.  N must be divisible by 64,
    so that each is a whole node, and at least 128, so that the first
    is node 2 or later: at node 1 every index with |i| >= 1 is 0.
    """
    if grid.N % 64 or grid.N < 128:
        raise ConfigurationError(
            f"grid.N must be divisible by 64 and at least 128, got {grid.N}")
    return np.array([grid.N >> k for k in range(6, -1, -1)])


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
                         n_paths: int, seed: int, threads: int = 1,
                         chunk: int = DEFAULT_CHUNK) -> MomentScalingReport:
    """Regress log E|level-1 value|^2 against log t for the MOMENT_INDICES.

    Every index scales like ``t^(2 |i| zeta + 1)`` up to the kernel's
    regularity gap: a measured slope passes within MOMENTS_TOL of it.
    The slopes are fitted at the nodes of :func:`_dyadic_nodes`.
    """
    _check_rho(rho)
    t_nodes = _dyadic_nodes(grid)

    def stage(count, dW, dX, normals, work):
        # Column-major, the layout the fancy-indexed squares of a whole
        # chunk had, so np.sum below adds in the same (pairwise) order.
        squares = {i: np.empty((count, t_nodes.size), order="F")
                   for i in MOMENT_INDICES}
        for rows in _row_blocks(count):
            xhat = _driver_xhat(dW, normals, rows, kernel, grid, work)
            for i in MOMENT_INDICES:
                w = (xhat[:, :-1, 0] ** i[0]) * (xhat[:, :-1, 1] ** i[1]) \
                    / core.midx_factorial(i)
                a = _levels_batch(w, dX[rows], work)
                squares[i][rows] = a[:, t_nodes] ** 2
        # One sum per chunk: per-block sums would add in another order.
        return {i: np.sum(sq, axis=0) for i, sq in squares.items()}

    parts = _run_chunks(stage, grid, seed, rho, n_paths, chunk, threads)
    t_vals = grid.nodes[t_nodes]
    slopes, expected, deviations, mean_squares = {}, {}, {}, {}
    for i in MOMENT_INDICES:
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
    return MomentScalingReport(indices=MOMENT_INDICES, slopes=slopes,
                               expected=expected, deviations=deviations,
                               t_values=t_vals, mean_squares=mean_squares,
                               n_paths=n_paths, seed=seed, tol=MOMENTS_TOL)


# ---------------------------------------------------------------------------
# compensated-sum consistency


@dataclasses.dataclass(frozen=True)
class ItoConsistencyReport:
    coarse_cells: tuple
    rms: dict
    ratio: float
    n_paths: int
    seed: int

    def passed(self) -> bool:
        return self.ratio <= ITO_MAX_RATIO


def ito_consistency_check(kernel: KernelSpec, config: core.IndexConfig,
                          f: VolFunction, rho: float, grid: core.Grid,
                          n_paths: int, seed: int, threads: int = 1,
                          chunk: int = 8) -> ItoConsistencyReport:
    """Higher-order mass of the compensated sum across coarse partitions.

    Over the coarse partitions of N/64, N/16 and N/4 cells
    (:func:`_dyadic_nodes`), each path's first-level compensated sum for
    the left-point lift on ``grid`` exceeds the plain left-point sum by
    D = sum_cells sum_r dX_r sum_{|i| >= 1} d^i f(xhat_left) y_r^i / i!,
    y_r = xhat_r - xhat_left, summed here on row blocks of the chunk.
    The RMS of D must shrink with the coarse mesh like mesh^zeta; the
    report's ``ratio`` is RMS(finest coarse level) / RMS(coarsest).
    """
    _check_rho(rho)
    coarse_cells = tuple(_dyadic_nodes(grid)[:-1:2].tolist())
    check_driver_pair(kernel, config)

    def stage(count, dW, dX, normals, work):
        out = np.empty((count, len(coarse_cells)))
        for rows in _row_blocks(count):
            xhat = _driver_xhat(dW, normals, rows, kernel, grid, work)
            for li, cells in enumerate(coarse_cells):
                shape = (len(xhat), cells, grid.N // cells)
                left = xhat[:, :-1:shape[2], None]  # the cells' left nodes
                y0, y1, inner, outer = work.view("ito_rows", (4,) + shape)
                for k, yk in enumerate((y0, y1)):  # y = xhat_r - xhat_left
                    np.subtract(xhat[:, :-1, k].reshape(shape), left[..., k], out=yk)
                # sum_{|i| >= 1} d^i f(xhat_left) y^i / i!: Horner's rule in
                # y1 inside Horner's rule in y0, f's partials one row at a time.
                outer[...] = 0.0
                for a in range(config.n, -1, -1):
                    df = f.partials([i for i in config.I if i[0] == a and any(i)],
                                    left)
                    inner[...] = 0.0
                    for b in range(config.n - a, -1, -1):
                        inner *= y1
                        inner += df.get((a, b), 0.0) / core.midx_factorial((a, b))
                    outer *= y0
                    outer += inner
                out[rows, li] = np.einsum("bcw,bcw->b", outer,
                                          dX[rows].reshape(shape))
        return out

    D = np.concatenate(_run_chunks(stage, grid, seed, rho, n_paths, chunk,
                                   threads))
    rms = {cells: float(np.sqrt(np.mean(D[:, li] ** 2)))
           for li, cells in enumerate(coarse_cells)}
    if not all(map(math.isfinite, rms.values())):  # f overflowed on the paths
        raise ConfigurationError("compensated sums and their RMS must be finite")
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
    if times.size == 0:
        raise ConfigurationError("need at least one time")
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
                          chunk: int = DEFAULT_CHUNK) -> PriceTable:
    """Monte Carlo call prices and implied vols on a strike/maturity grid.

    Prices are sample means of ``max(S_T - K, 0)``; implied vols invert
    the zero-rate pricing formula at the sample mean, with the standard
    error pushed through the vol sensitivity.  Rows that violate static
    bounds carry a note instead of a vol.
    """
    strikes = np.asarray(strikes, dtype=np.float64)
    if strikes.size == 0:
        raise ConfigurationError("need at least one strike")
    # call_price takes no other strike or spot: no row could get a vol.
    if not np.all((strikes > 0) & (strikes < np.inf)):
        raise ConfigurationError(
            f"strikes must be positive and finite, got {strikes.tolist()}")
    if not 0 < s0 < math.inf:
        raise ConfigurationError(f"spot must be positive and finite, got {s0}")
    snaps = _nodes_for_times(grid, maturities)
    S = np.concatenate(_run_state(kernel, f, sigma, rho, s0, grid, snaps, seed,
                                  n_paths, chunk, threads, reduce=lambda S: S))
    rows = []
    for ki, K in enumerate(strikes):
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


def lognormal_vol(f: VolFunction, sigma: SigmaFunction) -> float | None:
    """``b c`` for constant ``f = c`` and ``sigma(s) = b s``, whose state is
    lognormal with that volatility; None for any other model."""
    if (isinstance(f, ConstantVol) and isinstance(sigma, SigmaLinear)
            and sigma.a == 0.0):
        return sigma.b * f.c
    return None


def rde_convergence_check(sigma: SigmaFunction, f: VolFunction, rho: float,
                          s0: float, n_coarse: int, n_paths: int, seed: int,
                          threads: int = 1, chunk: int = DEFAULT_CHUNK,
                          ) -> RdeConvergenceReport:
    """Strong error of the stepping scheme against exponential dynamics.

    Requires constant f and ``sigma(s) = b s``, for which the state at
    T = 1 is ``s0 * exp(m X_1 - m^2 / 2)`` with ``m = b f``.  Both
    resolutions (n_coarse and 2 n_coarse cells of [0, 1]) consume the
    same Brownian increments (the coarse grid sums adjacent fine
    cells), so the reported halving ratio is nearly noise-free.
    """
    m = lognormal_vol(f, sigma)
    if m is None:
        raise ConfigurationError(
            "benchmark needs constant f and sigma(s) = b s (closed-form solution)")
    fine = core.Grid(T=1.0, N=2 * n_coarse)
    coarse = core.Grid(T=1.0, N=n_coarse)

    def stage(count, dW, dX, normals, work):
        out = np.empty((count, 2))
        X_T = np.empty(count)
        # The fine mesh first; then each coarse cell sums two fine cells,
        # folded into the first n_coarse columns of dX.
        for res, g in ((1, fine), (0, coarse)):
            for rows in _row_blocks(count):
                inc = dX[rows]
                if g is coarse:
                    inc = inc.reshape(-1, n_coarse, 2).sum(axis=2)
                    dX[rows, :n_coarse] = inc
                X_T[rows] = np.sum(inc, axis=1)
            S = s0 + _step_segments(dX[:, :g.N], float(f.c), sigma, s0,
                                    [g.N], g.delta, work)[0]
            exact = s0 * np.exp(m * X_T - 0.5 * m ** 2)
            out[:, res] = (S - exact) / exact
        return out

    rel = np.concatenate(_run_chunks(stage, fine, seed, rho, n_paths, chunk,
                                     threads, stepped=True, driver=False))
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
    three usable times raises :class:`InsufficientDataError`.  The
    threshold ``z`` must be positive and finite: the fit is for the
    upper tail.  ``rate_problem`` must be of the simulated model's H:
    the thresholds read it, so an H that is not the kernel's raises
    :class:`ConfigurationError` before any draw.
    """
    if not 0 < z < math.inf:
        raise ConfigurationError(
            f"tail threshold z must be positive and finite, got {z}")
    # A horizon with no exceedance would enter the fit as -log 0.
    if not min_count >= 1:
        raise ConfigurationError(f"min_count must be at least 1, got {min_count}")
    H = rate_problem.H
    if abs(H - (kernel.eta + 0.5)) > 1e-12:
        raise ConfigurationError(
            f"the rate problem's H = {H} is not the kernel's "
            f"H = {kernel.eta + 0.5}")
    snaps = _nodes_for_times(grid, t_values)
    t_arr = grid.nodes[snaps]
    thresholds = z * t_arr ** (0.5 - H)

    parts = _run_state(kernel, f, sigma, rho, 0.0, grid, snaps, seed,
                       n_paths, chunk, threads,
                       reduce=lambda S: np.sum(S >= thresholds[None, :], axis=0))
    counts = np.sum(parts, axis=0)
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
