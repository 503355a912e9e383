"""Flat binary dumps for lifted paths and integral outputs.

Two containers, both little-endian with fixed headers (byte layout in
docs/formats.md):

* ``PRP1`` — a :class:`~parpath.core.PartialRoughPath`: header, the two
  index lists as uint32 rows, then xhat / level-1 / level-2 node arrays
  in listed order, node-major float64.
* ``RP1`` — a :class:`~parpath.integrate.RoughPath`: header, then the
  two anchored node arrays.

Readers validate magic, version, and that the stored index lists match
what the stored exponents regenerate, so a file cannot silently
reinterpret data under a different index layout.  Dimensions above
``MAX_DIM`` and a size the file does not have fail before any allocation.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from . import core
from .exceptions import ConfigurationError

_PRP_MAGIC = b"PRP1"
_RP_MAGIC = b"RP1\x00"
_VERSION = 1

# Largest smooth (e) or rough (d) dimension a reader accepts.
MAX_DIM = 64


def _write_u32(fh, *vals):
    fh.write(struct.pack("<" + "I" * len(vals), *vals))


def _write_f64(fh, *vals):
    fh.write(struct.pack("<" + "d" * len(vals), *vals))


def _write_array(fh, arr):
    fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _read_exact(fh, nbytes):
    data = fh.read(nbytes)
    if len(data) != nbytes:
        raise ConfigurationError("truncated dump file")
    return data


def _read_u32(fh, count):
    return struct.unpack("<" + "I" * count, _read_exact(fh, 4 * count))


def _read_u64(fh, count):
    return struct.unpack("<" + "Q" * count, _read_exact(fh, 8 * count))


def _read_f64(fh, count):
    return struct.unpack("<" + "d" * count, _read_exact(fh, 8 * count))


def _check_header(fh, path, dims, payload):
    """Refuse dimensions over MAX_DIM and a payload the file does not hold."""
    if not all(1 <= v <= MAX_DIM for v in dims):
        raise ConfigurationError(f"{path}: dimensions {dims} outside 1..{MAX_DIM}")
    size = os.fstat(fh.fileno()).st_size - fh.tell()
    if size < payload:
        raise ConfigurationError(f"{path}: truncated dump file")
    if size > payload:
        raise ConfigurationError(f"{path}: trailing bytes after payload")


def _read_array(fh, shape):
    n = int(np.prod(shape))
    arr = np.frombuffer(_read_exact(fh, 8 * n), dtype="<f8").astype(np.float64)
    return arr.reshape(shape)


def write_prp(path, prp: core.PartialRoughPath) -> None:
    cfg, grid = prp.config, prp.grid
    with open(path, "wb") as fh:
        fh.write(_PRP_MAGIC)
        _write_u32(fh, _VERSION)
        fh.write(struct.pack("<Q", grid.N))
        _write_u32(fh, cfg.d, cfg.e, len(cfg.I), len(cfg.J))
        _write_f64(fh, cfg.alpha, cfg.beta, grid.T)
        for i in cfg.I:
            _write_u32(fh, *i)
        for (j, k) in cfg.J:
            _write_u32(fh, *j, *k)
        _write_array(fh, prp.xhat)
        for i in cfg.I:
            _write_array(fh, prp.a[i])
        for jk in cfg.J:
            _write_array(fh, prp.b[jk])


def read_prp(path) -> core.PartialRoughPath:
    with open(path, "rb") as fh:
        if _read_exact(fh, 4) != _PRP_MAGIC:
            raise ConfigurationError(f"{path}: not a PRP1 dump")
        (version,) = _read_u32(fh, 1)
        if version != _VERSION:
            raise ConfigurationError(f"{path}: unsupported PRP version {version}")
        (N,) = _read_u64(fh, 1)
        d, e, n_i, n_jk = _read_u32(fh, 4)
        alpha, beta, T = _read_f64(fh, 3)
        _check_header(fh, path, (d, e), 4 * e * (n_i + 2 * n_jk)
                      + 8 * (N + 1) * (e + n_i * d + n_jk * d * d))
        I = [tuple(_read_u32(fh, e)) for _ in range(n_i)]
        J = []
        for _ in range(n_jk):
            row = _read_u32(fh, 2 * e)
            J.append((row[:e], row[e:]))
        cfg = core.build_index_sets(alpha, beta, e, d=d, T=T)
        if list(cfg.I) != I or list(cfg.J) != J:
            raise ConfigurationError(f"{path}: stored index sets do not match exponents")
        grid = core.Grid(T=T, N=int(N))
        xhat = _read_array(fh, (N + 1, e))
        a = {i: _read_array(fh, (N + 1, d)) for i in cfg.I}
        b = {jk: _read_array(fh, (N + 1, d, d)) for jk in cfg.J}
    return core.PartialRoughPath(grid, cfg, xhat, a, b)


def write_rp(path, rp) -> None:
    with open(path, "wb") as fh:
        fh.write(_RP_MAGIC)
        _write_u32(fh, _VERSION)
        fh.write(struct.pack("<Q", rp.grid.N))
        _write_u32(fh, rp.y1.shape[1])
        _write_f64(fh, rp.grid.T)
        _write_array(fh, rp.y1)
        _write_array(fh, rp.y2)


def read_rp(path):
    from .integrate import RoughPath

    with open(path, "rb") as fh:
        if _read_exact(fh, 4) != _RP_MAGIC:
            raise ConfigurationError(f"{path}: not an RP1 dump")
        (version,) = _read_u32(fh, 1)
        if version != _VERSION:
            raise ConfigurationError(f"{path}: unsupported RP version {version}")
        (N,) = _read_u64(fh, 1)
        (d,) = _read_u32(fh, 1)
        (T,) = _read_f64(fh, 1)
        _check_header(fh, path, (d,), 8 * (N + 1) * d * (1 + d))
        grid = core.Grid(T=T, N=int(N))
        y1 = _read_array(fh, (N + 1, d))
        y2 = _read_array(fh, (N + 1, d, d))
    return RoughPath(grid, y1, y2)
