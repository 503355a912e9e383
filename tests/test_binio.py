import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parpath import core
from parpath.binio import MAX_DIM, read_prp, read_rp, write_prp, write_rp
from parpath.exceptions import ConfigurationError
from parpath.integrate import integrate
from parpath.volfn import ExponentialVol

from conftest import random_walk_paths


@pytest.fixture()
def prp(small_cfg):
    xhat, x = random_walk_paths(4, 64)
    return core.lift_sampled_paths(xhat, x, small_cfg, core.Grid(T=1.0, N=64))


def test_prp_roundtrip_bit_exact(tmp_path, prp):
    path = tmp_path / "walk.prp"
    write_prp(path, prp)
    back = read_prp(path)
    assert back.config == prp.config
    assert back.grid == prp.grid
    np.testing.assert_array_equal(back.xhat, prp.xhat)
    for i in prp.config.I:
        np.testing.assert_array_equal(back.a[i], prp.a[i])
    for jk in prp.config.J:
        np.testing.assert_array_equal(back.b[jk], prp.b[jk])


def test_prp_writes_are_reproducible(tmp_path, prp):
    p1, p2 = tmp_path / "a.prp", tmp_path / "b.prp"
    write_prp(p1, prp)
    write_prp(p2, prp)
    assert p1.read_bytes() == p2.read_bytes()


def test_rp_roundtrip_bit_exact(tmp_path, prp):
    rp, _ = integrate(prp, ExponentialVol(1.0, (0.5, 0.5)))
    path = tmp_path / "out.rp"
    write_rp(path, rp)
    back = read_rp(path)
    assert back.grid == rp.grid
    np.testing.assert_array_equal(back.y1, rp.y1)
    np.testing.assert_array_equal(back.y2, rp.y2)


def test_rejects_wrong_magic(tmp_path, prp):
    path = tmp_path / "walk.prp"
    write_prp(path, prp)
    raw = bytearray(path.read_bytes())
    raw[0] = ord(b"X")
    path.write_bytes(bytes(raw))
    with pytest.raises(ConfigurationError, match="not a PRP1 dump"):
        read_prp(path)
    rp, _ = integrate(prp, ExponentialVol(1.0, (0.5, 0.5)))
    rpath = tmp_path / "out.rp"
    write_rp(rpath, rp)
    with pytest.raises(ConfigurationError, match="not a PRP1 dump"):
        read_prp(rpath)
    with pytest.raises(ConfigurationError, match="not an RP1 dump"):
        read_rp(path)


def test_rejects_unknown_version(tmp_path, prp):
    path = tmp_path / "walk.prp"
    write_prp(path, prp)
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 2)
    path.write_bytes(bytes(raw))
    with pytest.raises(ConfigurationError, match="unsupported PRP version 2"):
        read_prp(path)


def test_rejects_truncation(tmp_path, prp):
    path = tmp_path / "walk.prp"
    write_prp(path, prp)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(ConfigurationError, match="truncated"):
        read_prp(path)


def test_rejects_trailing_bytes(tmp_path, prp):
    path = tmp_path / "walk.prp"
    write_prp(path, prp)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ConfigurationError, match="trailing bytes"):
        read_prp(path)


def test_rejects_index_set_mismatch(tmp_path, prp):
    path = tmp_path / "walk.prp"
    write_prp(path, prp)
    raw = bytearray(path.read_bytes())
    # alpha sits right after the 32-byte fixed header; a different value
    # regenerates different index sets than the stored rows
    raw[32:40] = struct.pack("<d", 0.35)
    path.write_bytes(bytes(raw))
    with pytest.raises(ConfigurationError, match="index sets do not match"):
        read_prp(path)


def _prp_header(N=64, d=1, e=2, n_i=6, n_jk=1, alpha=0.45, beta=0.2, T=1.0):
    return (b"PRP1" + struct.pack("<IQ", 1, N)
            + struct.pack("<4I", d, e, n_i, n_jk)
            + struct.pack("<3d", alpha, beta, T))


def test_rp_header_is_checked_before_allocating(tmp_path):
    # N = 2^50 would ask for petabytes; the header alone must be refused.
    path = tmp_path / "huge.rp"
    path.write_bytes(b"RP1\x00" + struct.pack("<IQId", 1, 2 ** 50, 1, 1.0))
    with pytest.raises(ConfigurationError, match="truncated"):
        read_rp(path)
    path.write_bytes(b"RP1\x00" + struct.pack("<IQId", 1, 64, MAX_DIM + 1, 1.0))
    with pytest.raises(ConfigurationError, match="outside 1..64"):
        read_rp(path)
    path.write_bytes(b"RP1\x00" + struct.pack("<IQId", 1, 2, 1, float("inf"))
                     + bytes(8 * 3 * 2))
    with pytest.raises(ConfigurationError, match="horizon"):
        read_rp(path)


@pytest.mark.parametrize("header, needle", [
    # e = 10^6 with no index rows used to recurse a million levels deep
    (_prp_header(e=10 ** 6, n_i=0, n_jk=0), "outside 1..64"),
    (_prp_header(d=0), "outside 1..64"),
    (_prp_header(N=2 ** 50), "truncated"),
    # a small beta would enumerate up to ~10^300 index rows; the payload
    # below is the xhat block of N = 2, so only the exponents are wrong
    (_prp_header(N=2, n_i=0, n_jk=0, beta=1e-300) + bytes(48), "supported"),
    (_prp_header(N=2, n_i=0, n_jk=0, beta=0.004) + bytes(48), "supported"),
], ids=["huge-e", "zero-d", "huge-N", "tiny-beta", "small-beta"])
def test_prp_header_is_checked_before_allocating(tmp_path, header, needle):
    path = tmp_path / "crafted.prp"
    path.write_bytes(header)
    with pytest.raises(ConfigurationError, match=needle):
        read_prp(path)


_PRP_FIELDS = [(4, "<I"), (8, "<Q"), (16, "<I"), (20, "<I"), (24, "<I"),
               (28, "<I"), (32, "<d"), (40, "<d"), (48, "<d")]
_RP_FIELDS = [(4, "<I"), (8, "<Q"), (16, "<I"), (20, "<d")]


def _field_value(fmt):
    if fmt == "<d":
        return st.floats(allow_nan=True, allow_infinity=True)
    top = 2 ** (32 if fmt == "<I" else 64) - 1
    return st.one_of(st.integers(0, 70), st.integers(0, top))


@st.composite
def _corruptions(draw, fields):
    """A header field overwritten with an arbitrary value, or a cut."""
    if draw(st.booleans()):
        return ("cut", draw(st.integers(0, 10 ** 6)))
    offset, fmt = draw(st.sampled_from(fields))
    return ("field", offset, fmt, draw(_field_value(fmt)))


def _corrupt(raw, change):
    if change[0] == "cut":
        return raw[:change[1] % len(raw)]
    _, offset, fmt, value = change
    return raw[:offset] + struct.pack(fmt, value) + raw[offset + struct.calcsize(fmt):]


def _fuzz_reader(tmp_path_factory, name, write, read, change):
    base = tmp_path_factory.getbasetemp() / name
    if not base.exists():
        write(base)
    path = tmp_path_factory.getbasetemp() / ("bad-" + name)
    path.write_bytes(_corrupt(base.read_bytes(), change))
    try:
        read(path)
    except ConfigurationError:
        pass


def _walk_prp():
    xhat, x = random_walk_paths(4, 64)
    return core.lift_sampled_paths(xhat, x, core.build_index_sets(0.45, 0.2, 2),
                                   core.Grid(T=1.0, N=64))


@settings(max_examples=80, deadline=None)
@given(change=_corruptions(_PRP_FIELDS))
def test_prp_reader_fuzzed_headers_fail_cleanly(tmp_path_factory, change):
    # Any header value or cut either reads or raises ConfigurationError
    # (exit 2); never MemoryError, RecursionError or OverflowError.
    _fuzz_reader(tmp_path_factory, "fuzz.prp",
                 lambda p: write_prp(p, _walk_prp()), read_prp, change)


@settings(max_examples=80, deadline=None)
@given(change=_corruptions(_RP_FIELDS))
def test_rp_reader_fuzzed_headers_fail_cleanly(tmp_path_factory, change):
    _fuzz_reader(tmp_path_factory, "fuzz.rp",
                 lambda p: write_rp(p, integrate(
                     _walk_prp(), ExponentialVol(1.0, (0.5, 0.5)))[0]),
                 read_rp, change)
