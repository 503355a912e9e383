"""End-to-end runs of the command-line driver (in-process)."""

import argparse
import csv
import hashlib
import importlib
import io
import json
import re
import subprocess
import sys

import numpy as np
import pytest

from parpath import __version__, analysis, binio, cli, core, rde
from parpath import config as config_mod
from parpath.cli import main
from parpath.rng import stream

# The package exports the function integrate() under the module's name.
integrate_mod = importlib.import_module("parpath.integrate")


SMALL_LIFT = """
index.alpha = 0.45
index.beta = 0.2
grid.N = 64
kernel.H = 0.5
corr.rho = 1.0
rng.seed = 6
verify.triples = 200
"""

LDP = """
index.alpha = 0.45
index.beta = 0.2
grid.N = 8
grid.T = 0.5
kernel.H = 0.5
corr.rho = 0.0
model.S0 = 0.0
model.sigma.family = constant
model.sigma.params = 1.0
vol.family = constant
vol.value = 0.2
rate.K = 16
rate.restarts = 2
mc.check = ldp
mc.z = 0.15
mc.t_values = 0.125, 0.25, 0.375, 0.5
mc.n_paths = 50000
rng.seed = 7
"""


def _cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _manifest(out_dir):
    with open(out_dir / "manifest.json") as fh:
        return json.load(fh)


def _csv_module_table(header, rows):
    """A table as the csv module writes it, cells as docs/formats.md
    describes: the reference for :func:`cli._write_csv`'s bytes."""
    def cell(value):
        if value is None:
            return ""
        if isinstance(value, (float, np.floating)):
            return f"{float(value):.17g}"
        return str(value)

    with io.StringIO(newline="") as buf:
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([cell(v) for v in row])
        return buf.getvalue().encode("utf-8")


_CSV_ROWS = [
    (0, 1.5, -2.0),
    (np.int64(7), np.float64(0.1), 1e16),
    (3, float("nan"), float("inf")),
    (-4, float("-inf"), -0.0),
    (5, 5e-324, np.float64(-1e-300)),
    (np.int32(-2), np.float32(0.1), 2 ** 70),
    (1, None, 0.25),
    (True, 1.0, np.False_),
    (False, 2.5, 3),
    (0.9, 0.25, "inversion failed: price above the bound, S0 = 1"),
    (1.1, "note with \"quotes\"", "two\nlines"),
    (2, "", "carriage\rreturn"),
    [6, 0.5, 0.75],
]


def test_csv_bytes_match_the_csv_module(tmp_path):
    header = ["a", "b, with comma", "c"]
    path = tmp_path / "t.csv"
    cli._write_csv(str(path), header, iter(_CSV_ROWS))
    assert path.read_bytes() == _csv_module_table(header, _CSV_ROWS)
    text = path.read_bytes().decode("utf-8")
    assert text.splitlines()[1:6] == [
        "0,1.5,-2", "7,0.10000000000000001,10000000000000000",
        "3,nan,inf", "-4,-inf,-0", "5,4.9406564584124654e-324,-1e-300"]
    assert ",,0.25\n" in text and "True,1,False\n" in text
    assert "False,2.5,3\n" in text


def test_lift_outputs_and_manifest(tmp_path):
    cfg = _cfg(tmp_path, SMALL_LIFT)
    out = tmp_path / "out"
    assert main(["lift", "--config", cfg, "--out", str(out)]) == 0

    man = _manifest(out)
    assert man["command"] == "lift"
    assert man["version"] == __version__
    assert man["seed"] == 6
    assert man["config_hash"] == config_mod.load_config(cfg).hash()
    assert sorted(man["outputs"]) == ["lift.prp", "path.csv"]
    for name, digest in man["outputs"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest

    # H = 1/2 makes the kernel constant, so the convolution path is the
    # Brownian path itself; with rho = 1 the price driver is the same
    # path, down to the printed digits.
    header, rows = _read_csv(out / "path.csv")
    assert header == ["node", "xhat1", "xhat2", "X"]
    assert len(rows) == 65
    assert all(r[1] == r[3] for r in rows)

    prp = binio.read_prp(str(out / "lift.prp"))
    assert prp.grid.N == 64


def test_main_builds_its_parser_once(tmp_path, capsys, monkeypatch):
    # The parser is built on the first call and reused: one parser and
    # its subparsers for any number of calls, with the exit codes, files
    # and messages of a fresh build.
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    cli.build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cfg = _cfg(tmp_path, SMALL_LIFT)
    for name in ("a", "b"):
        assert main(["lift", "--config", cfg, "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "a" / "path.csv").read_bytes() == \
        (tmp_path / "b" / "path.csv").read_bytes()
    errors = []
    for _ in range(2):
        with pytest.raises(SystemExit) as info:
            main(["lift", "--out", str(tmp_path / "c")])
        assert info.value.code == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] and "--config" in errors[0]
    assert len(built) == 1 + len(cli._COMMANDS)
    assert cli.build_parser().format_help() == \
        cli.build_parser.__wrapped__().format_help()


def test_reruns_differ_only_in_runtime(tmp_path):
    cfg = _cfg(tmp_path, SMALL_LIFT)
    main(["lift", "--config", cfg, "--out", str(tmp_path / "a")])
    main(["lift", "--config", cfg, "--out", str(tmp_path / "b")])
    ma, mb = _manifest(tmp_path / "a"), _manifest(tmp_path / "b")
    ra = ma.pop("runtime_seconds")
    rb = mb.pop("runtime_seconds")
    assert ma == mb
    assert ra >= 0.0 and rb >= 0.0
    assert (tmp_path / "a" / "path.csv").read_bytes() == \
        (tmp_path / "b" / "path.csv").read_bytes()


def test_seed_flag_overrides_config(tmp_path):
    cfg = _cfg(tmp_path, SMALL_LIFT)
    main(["lift", "--config", cfg, "--out", str(tmp_path / "base")])
    main(["lift", "--config", cfg, "--out", str(tmp_path / "swap"),
          "--seed", "9"])
    base, swap = _manifest(tmp_path / "base"), _manifest(tmp_path / "swap")
    assert base["seed"] == 6 and swap["seed"] == 9
    assert base["config_hash"] != swap["config_hash"]
    assert base["outputs"]["path.csv"] != swap["outputs"]["path.csv"]


def test_config_errors_exit_2(tmp_path, capsys, monkeypatch):
    no_h = _cfg(tmp_path, "grid.N = 16\n", name="noh.cfg")
    assert main(["lift", "--config", no_h, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "kernel.H" in err

    unknown = _cfg(tmp_path, "kernel.H = 0.3\nfoo.bar = 1\n", name="unk.cfg")
    assert main(["lift", "--config", unknown, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "foo.bar" in err and "unk.cfg:2" in err

    ok = _cfg(tmp_path, SMALL_LIFT)
    assert main(["lift", "--config", ok, "--out", str(tmp_path / "x"),
                 "--threads", "0"]) == 2
    assert "thread count" in capsys.readouterr().err

    monkeypatch.setenv("PARPATH_THREADS", "soon")
    assert main(["lift", "--config", ok, "--out", str(tmp_path / "x")]) == 2
    assert "PARPATH_THREADS" in capsys.readouterr().err


def test_many_index_dimensions_exit_2(tmp_path, capsys):
    # The lift is of the driver pair, e = 2, so no config sets another
    # dimension: index.e is an unknown key, refused before any index set
    # is built.
    cfg = _cfg(tmp_path, "kernel.H = 0.3\nindex.e = 2000\nindex.alpha = 0.5\n"
                         "index.beta = 0.29\n")
    assert main(["lift", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "unknown config key: index.e" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("exc", [MemoryError("Unable to allocate 8.00 EiB"),
                                 MemoryError()], ids=["message", "bare"])
def test_memory_error_exits_2(tmp_path, capsys, monkeypatch, exc):
    def exhausted(cfg, out_dir, threads):
        raise exc

    monkeypatch.setitem(cli._COMMANDS, "lift", exhausted)
    cfg = _cfg(tmp_path, SMALL_LIFT)
    assert main(["lift", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert (str(exc) or "MemoryError") in err


@pytest.mark.parametrize("out", ["taken", "taken/sub"],
                         ids=["out-is-a-file", "out-under-a-file"])
def test_unusable_out_dir_exits_2(tmp_path, capsys, out):
    (tmp_path / "taken").write_text("not a directory")
    cfg = _cfg(tmp_path, SMALL_LIFT)
    assert main(["lift", "--config", cfg, "--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "taken" in err
    assert err.count("\n") == 1


def test_verify_reports_chen_and_bounds(tmp_path):
    cfg = _cfg(tmp_path, SMALL_LIFT)
    out = tmp_path / "ver"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "verify.json").read_text())
    assert payload["chen"]["pass"] is True
    assert payload["chen"]["n_triples"] == 200
    assert payload["chen"]["max_level1"] <= 1e-10
    assert payload["chen"]["max_level2"] <= 1e-10
    assert payload["bounds"]["level1"]["pass"] is True
    assert payload["bounds"]["level2"]["pass"] is True
    assert payload["bounds"]["level1"]["measured"] <= payload["bounds"]["level1"]["bound"]
    assert payload["homogeneous_norm"] > 0.0

    header, rows = _read_csv(out / "holder.csv")
    assert header[:3] == ["quantity", "exponent", "value"]
    # one row per tensor component plus the smooth path itself
    assert len(rows) == 8
    assert {r[0] for r in rows} >= {"xhat", "X(0,0)", "XX(0,0|0,0)"}


def test_verify_triples_guard(tmp_path, capsys):
    cfg = _cfg(tmp_path, SMALL_LIFT + "verify.triples = 0\n")
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == 2
    assert "verify.triples" in capsys.readouterr().err


def test_verify_reads_dump_and_rejects_truncation(tmp_path, capsys):
    cfg = _cfg(tmp_path, SMALL_LIFT)
    out = tmp_path / "out"
    main(["lift", "--config", cfg, "--out", str(out)])
    dump = out / "lift.prp"

    reread = _cfg(tmp_path, SMALL_LIFT + f"verify.input = {dump}\n",
                  name="reread.cfg")
    assert main(["verify", "--config", reread, "--out", str(tmp_path / "v")]) == 0

    dump.write_bytes(dump.read_bytes()[:-10])
    assert main(["verify", "--config", reread, "--out", str(tmp_path / "v2")]) == 2
    assert "truncated" in capsys.readouterr().err


def test_verify_takes_the_dimension_of_a_dump(tmp_path):
    # f is built on the dump's e coordinates, so an e = 3 lift verifies
    # with no key naming its dimension.
    grid = core.Grid(T=1.0, N=64)
    idx = core.build_index_sets(0.45, 0.2, 3, d=1, T=grid.T)
    t = grid.nodes
    xhat = np.column_stack([np.sin(3.0 * t), t ** 0.3, t])
    dx = np.sqrt(grid.delta) * stream(4, "test", 0).standard_normal(grid.N)
    x = np.r_[0.0, np.cumsum(dx)][:, None]
    dump = tmp_path / "e3.prp"
    binio.write_prp(str(dump), core.lift_sampled_paths(xhat, x, idx, grid))
    cfg = _cfg(tmp_path, SMALL_LIFT + f"verify.input = {dump}\n")
    out = tmp_path / "v"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads((out / "verify.json").read_text())["chen"]["pass"]


def test_integrate_trace_and_bounds(tmp_path):
    cfg = _cfg(tmp_path, SMALL_LIFT)
    out = tmp_path / "integ"
    assert main(["integrate", "--config", cfg, "--out", str(out)]) == 0

    header, rows = _read_csv(out / "trace.csv")
    assert header == ["level", "n_cells", "j1", "j2", "diff1", "diff2"]
    assert [int(r[0]) for r in rows] == list(range(len(rows)))
    assert int(rows[-1][1]) == 64
    assert rows[0][4] == "" and rows[0][5] == ""
    assert all(r[4] != "" for r in rows[1:])

    bounds = json.loads((out / "bounds.json").read_text())
    assert set(bounds["constants"]) == {"C1", "C2", "C2_aux", "C3", "C4", "C4_aux"}

    rp = binio.read_rp(str(out / "integral.rp"))
    assert rp.y1.shape == (65, 1)


def test_verify_and_integrate_compute_each_quantity_once(tmp_path, monkeypatch):
    calls = {"sweep": 0, "pairs": 0, "integral": 0, "trace": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(analysis, "_component_sweep",
                        counted("sweep", analysis._component_sweep))
    # One call per pass over the node pairs of the grid.
    monkeypatch.setattr(analysis, "_iter_pairs",
                        counted("pairs", analysis._iter_pairs))
    # Every binding of integral(); rough_integrate is the traced integrate().
    integral = counted("integral", integrate_mod.integral)
    for module in (integrate_mod, cli, rde):
        monkeypatch.setattr(module, "integral", integral)
    monkeypatch.setattr(cli, "rough_integrate",
                        counted("trace", cli.rough_integrate))
    cfg = _cfg(tmp_path, SMALL_LIFT + "model.n_paths = 3\n")
    # verify and integrate: one sweep over the lift's components and one
    # over both levels of the integral.
    expected = {"verify": {"sweep": 1, "pairs": 2, "integral": 1, "trace": 0},
                "rde": {"sweep": 0, "pairs": 0, "integral": 3, "trace": 0},
                "integrate": {"sweep": 1, "pairs": 2, "integral": 1, "trace": 1}}
    for command, counts in expected.items():
        calls.update(sweep=0, pairs=0, integral=0, trace=0)
        assert main([command, "--config", cfg,
                     "--out", str(tmp_path / command)]) == 0
        assert calls == counts, command


def test_rde_runs_one_stream_per_path(tmp_path):
    text = """
index.alpha = 0.45
index.beta = 0.2
grid.N = 16
kernel.H = 0.3
model.n_paths = 2
rng.seed = 11
"""
    cfg_path = _cfg(tmp_path, text)
    out = tmp_path / "rde"
    assert main(["rde", "--config", cfg_path, "--out", str(out)]) == 0
    header, rows = _read_csv(out / "rde.csv")
    assert header == ["path_id", "t", "S"]
    assert len(rows) == 2 * 17

    cfg = config_mod.load_config(cfg_path)
    grid = config_mod.make_grid(cfg)
    for p in (0, 1):
        S = rde.solve_model(grid, config_mod.make_kernel(cfg),
                            config_mod.make_index_config(cfg),
                            config_mod.make_volfn(cfg),
                            config_mod.make_sigma(cfg),
                            cfg["corr.rho"], cfg["model.S0"],
                            seeds=[11 + p])
        got = np.array([float(r[2]) for r in rows if int(r[0]) == p])
        np.testing.assert_array_equal(got, S[0])


RATE = """
kernel.H = 0.3
rate.K = 8
rate.restarts = 2
rate.z_min = -0.2
rate.z_max = 0.2
rate.z_steps = 3
vol.family = constant
vol.value = 0.2
"""


def test_rate_curve_and_smile_alias(tmp_path):
    cfg = _cfg(tmp_path, RATE)
    assert main(["rate", "--config", cfg, "--out", str(tmp_path / "rt")]) == 0
    header, rows = _read_csv(tmp_path / "rt" / "rate.csv")
    assert header[:3] == ["z", "rate", "sigma_asym"]
    assert len(rows) == 3
    # constant f: rate = z^2 / (2 sigma0^2 f^2), flat asymptotic vol
    assert float(rows[0][1]) == pytest.approx(0.5, rel=1e-9)
    assert float(rows[0][2]) == pytest.approx(0.2, rel=1e-6)
    # at the money there is no asymptotic vol; the field stays empty
    assert rows[1][0] == "0" and float(rows[1][1]) == 0.0 and rows[1][2] == ""

    assert main(["smile", "--config", cfg, "--out", str(tmp_path / "sm")]) == 0
    assert (tmp_path / "rt" / "rate.csv").read_bytes() == \
        (tmp_path / "sm" / "smile.csv").read_bytes()


@pytest.mark.parametrize("lines", [
    "rate.z_min = nan\nrate.z_steps = 1\n", "rate.z_min = inf\nrate.z_steps = 1\n",
    "vol.family = exponential\nvol.xi = nan\n"],
    ids=["z-nan", "z-inf", "xi-nan"])
def test_rate_refuses_a_model_or_grid_it_cannot_certify(tmp_path, capsys,
                                                        lines):
    # Each wrote NaN or inf rows and exited 0: a NaN minimum passed the
    # certificate, and a NaN f at the base point passed the floor test.
    text = "kernel.H = 0.3\nrate.K = 8\nrate.restarts = 2\n" + lines
    out = tmp_path / "rt"
    assert main(["rate", "--config", _cfg(tmp_path, text),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (out / "rate.csv").exists()


MOMENTS = """
index.alpha = 0.45
index.beta = 0.2
grid.N = 256
kernel.H = 0.3
mc.check = moments
mc.n_paths = 400
rng.seed = 5
"""


def test_mc_moments_and_thread_invariance(tmp_path, monkeypatch):
    cfg = _cfg(tmp_path, MOMENTS)
    assert main(["mc", "--config", cfg, "--out", str(tmp_path / "m1")]) == 0
    summary = json.loads((tmp_path / "m1" / "mc_summary.json").read_text())
    assert summary["check"] == "moments"
    assert summary["tolerance"] == 0.05
    assert isinstance(summary["pass"], bool)
    header, rows = _read_csv(tmp_path / "m1" / "moments.csv")
    assert header == ["i1", "i2", "slope", "expected", "deviation"]
    assert [(r[0], r[1]) for r in rows] == [("0", "0"), ("1", "0"), ("0", "1")]

    monkeypatch.setenv("PARPATH_THREADS", "4")
    assert main(["mc", "--config", cfg, "--out", str(tmp_path / "m4")]) == 0
    assert (tmp_path / "m1" / "moments.csv").read_bytes() == \
        (tmp_path / "m4" / "moments.csv").read_bytes()
    m1, m4 = _manifest(tmp_path / "m1"), _manifest(tmp_path / "m4")
    assert m1["outputs"] == m4["outputs"]


PRICE = """
index.alpha = 0.45
index.beta = 0.2
grid.N = 64
kernel.H = 0.5
vol.family = constant
vol.value = 1.0
mc.check = price
mc.n_paths = 400
mc.strikes = 1.0
mc.maturities = 0.25, 0.5
rng.seed = 9
"""


def test_mc_price_scores_against_flat_vol(tmp_path):
    cfg = _cfg(tmp_path, PRICE)
    out = tmp_path / "pr"
    assert main(["mc", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "mc_summary.json").read_text())
    assert summary["check"] == "price"
    assert summary["inversion_errors"] == 0
    # constant f with sigma(s) = s pins a flat lognormal target, so the
    # summary grades the worst z-score against it
    assert summary["tolerance"] == 2.0
    assert 0.0 <= summary["statistic"] < 2.0 and summary["pass"] is True
    header, rows = _read_csv(out / "price.csv")
    assert len(rows) == 2
    for row in rows:
        assert abs(float(row[4]) - 1.0) < 2.0 * float(row[5])


# mc_summary.json of the graded and of every ungraded price run below.
_GRADED_SUMMARY = "6b011a70847830e864050955d64091a75b7ea31f0e03d76f8e718f467be25ec2"
_UNGRADED_SUMMARY = "1a8b07396a1786f8e28ffa68c0081186ce2b1d0045cc67ab760b26a8e898c6ab"


@pytest.mark.parametrize("model, graded", [
    ("vol.family = constant\nmodel.sigma.params = 0.0, 1.0\n", True),
    ("vol.family = constant\nmodel.sigma.params = 0.5, 1.0\n", False),
    ("vol.family = constant\nmodel.sigma.family = constant\n"
     "model.sigma.params = 1.0\n", False),
    ("vol.family = exponential\nvol.eta = 0.2\n"
     "model.sigma.params = 0.0, 1.0\n", False),
], ids=["lognormal", "affine-sigma", "constant-sigma", "exponential-f"])
def test_mc_price_grades_only_a_lognormal_model(tmp_path, model, graded):
    # Constant f with sigma(s) = b s is the one model with a lognormal
    # target; the summary's bytes are pinned for both outcomes.
    cfg = _cfg(tmp_path, PRICE.replace("vol.family = constant\n", "") + model)
    out = tmp_path / "pr"
    assert main(["mc", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "mc_summary.json").read_text())
    assert ("statistic" in summary) is graded
    assert (summary["pass"] is None) is not graded
    assert _manifest(out)["outputs"]["mc_summary.json"] == \
        (_GRADED_SUMMARY if graded else _UNGRADED_SUMMARY)


def test_mc_price_fails_when_no_row_is_scored(tmp_path):
    # Far out-of-the-money strikes at a low flat vol: every price is 0,
    # no implied vol exists, and a check that scored nothing must fail.
    text = (PRICE.replace("vol.value = 1.0", "vol.value = 0.2")
                 .replace("mc.strikes = 1.0", "mc.strikes = 5, 10")
                 .replace("mc.n_paths = 400", "mc.n_paths = 256")
                 .replace("mc.maturities = 0.25, 0.5", "mc.maturities = 0.25, 0.5, 1.0"))
    cfg = _cfg(tmp_path, text)
    out = tmp_path / "pr"
    assert main(["mc", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "mc_summary.json").read_text())
    assert summary["inversion_errors"] == 6
    assert summary["pass"] is False
    assert "statistic" not in summary


def test_mc_price_without_a_lognormal_target_grades_nothing(tmp_path):
    # The default (exponential) vol function pins no flat implied vol:
    # the table is written, and "pass" is null, neither pass nor fail.
    cfg = _cfg(tmp_path, """
index.alpha = 0.45
index.beta = 0.2
grid.N = 64
kernel.H = 0.3
corr.rho = -0.7
mc.check = price
mc.n_paths = 300
mc.strikes = 0.9, 1.0
mc.maturities = 1.0
rng.seed = 5
""")
    out = tmp_path / "pr"
    assert main(["mc", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "mc_summary.json").read_text())
    assert summary == {"check": "price", "inversion_errors": 0, "pass": None}
    assert '"pass": null' in (out / "mc_summary.json").read_text()
    header, rows = _read_csv(out / "price.csv")
    assert len(rows) == 2


@pytest.mark.parametrize("rho", ["1.5", "-1.0000001", "nan"])
@pytest.mark.parametrize("check", ["moments", "price", "ito"])
def test_mc_refuses_rho_outside_the_unit_interval(tmp_path, capsys, check,
                                                  rho):
    text = f"""
index.alpha = 0.45
index.beta = 0.2
grid.N = 64
kernel.H = 0.3
corr.rho = {rho}
mc.check = {check}
mc.n_paths = 8
mc.strikes = 1.0
mc.maturities = 0.5
"""
    cfg = _cfg(tmp_path, text)
    out = tmp_path / "mc"
    assert main(["mc", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: rho must lie in [-1, 1]")
    assert not (out / "mc_summary.json").exists()


def test_mc_price_blow_up_is_a_numerical_error(tmp_path, capsys):
    # sigma(s) = 40 s on 64 cells makes the stepped state leave
    # [-1e6, 1e6] within the horizon.
    text = PRICE + "model.sigma.params = 0.0, 40.0\n"
    cfg = _cfg(tmp_path, text)
    assert main(["mc", "--config", cfg, "--out", str(tmp_path / "pr")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical error: state blew up at node ")
    assert "of 400 paths" in err


@pytest.mark.parametrize("line", ["mc.maturities = 0.25, 0.5",
                                  "mc.strikes = 1.0"],
                         ids=["maturities", "strikes"])
def test_mc_price_with_an_empty_list_is_a_config_error(tmp_path, capsys, line):
    # Nothing to price: no traceback, and no "pass" for a check that
    # measured nothing.
    text = PRICE.replace(line, line.split("=")[0] + "=")
    cfg = _cfg(tmp_path, text)
    assert main(["mc", "--config", cfg, "--out", str(tmp_path / "pr")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


@pytest.mark.parametrize("swap", [
    ("mc.strikes = 1.0", "mc.strikes = nan"),
    ("mc.strikes = 1.0", "mc.strikes = 1.0, 0"),
    ("mc.strikes = 1.0", "mc.strikes = -1"),
    ("rng.seed = 9", "rng.seed = 9\nmodel.S0 = 0"),
], ids=["strike-nan", "strike-0", "strike-neg", "spot-0"])
def test_mc_price_refuses_strikes_and_spot_it_cannot_invert(tmp_path, capsys,
                                                            swap):
    # Every path was simulated and every row came out NaN or as an
    # arbitrage note: no implied vol exists for such a strike or spot.
    out = tmp_path / "pr"
    assert main(["mc", "--config", _cfg(tmp_path, PRICE.replace(*swap)),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "positive and finite" in err
    assert not (out / "price.csv").exists()


def test_mc_working_set_beyond_memory_is_a_config_error(tmp_path, capsys):
    # 2^40-path chunks cannot fit; the run must stop before drawing.
    huge = 1 << 40
    text = (PRICE.replace("mc.n_paths = 400", f"mc.n_paths = {huge}")
            + f"mc.chunk = {huge}\n")
    cfg = _cfg(tmp_path, text)
    assert main(["mc", "--config", cfg, "--out", str(tmp_path / "pr")]) == 2
    assert "physical memory" in capsys.readouterr().err


def test_mc_ito_fails_when_nothing_is_measured(tmp_path):
    # Constant f: every term above the zero index vanishes, the RMS is 0
    # at every mesh, and a check that measured nothing must fail.
    text = """
index.alpha = 0.45
index.beta = 0.2
kernel.H = 0.3
vol.family = constant
mc.check = ito
mc.n_paths = 1
"""
    cfg = _cfg(tmp_path, text)
    out = tmp_path / "ito"
    assert main(["mc", "--config", cfg, "--out", str(out)]) == 0
    header, rows = _read_csv(out / "ito.csv")
    assert header == ["n_cells", "rms"]
    assert [float(r[1]) for r in rows] == [0.0, 0.0, 0.0]
    summary = json.loads((out / "mc_summary.json").read_text())
    assert summary["check"] == "ito"
    assert summary["statistic"] == 0.0
    assert summary["tolerance"] == 0.5
    assert summary["pass"] is False


def test_mc_ldp_passes_on_consistent_config(tmp_path):
    cfg = _cfg(tmp_path, LDP)
    out = tmp_path / "ldp"
    assert main(["mc", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "mc_summary.json").read_text())
    assert summary["check"] == "ldp"
    assert summary["rate_value"] == pytest.approx(0.28125, rel=1e-8)
    assert summary["statistic"] <= 0.3 and summary["pass"] is True
    header, rows = _read_csv(out / "ldp.csv")
    assert header == ["t", "u", "count", "prob", "neglog"]
    assert len(rows) == 4


def test_mc_ldp_needs_t_values(tmp_path, capsys):
    text = LDP.replace("mc.t_values = 0.125, 0.25, 0.375, 0.5", "mc.t_values =")
    cfg = _cfg(tmp_path, text)
    assert main(["mc", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert "mc.t_values" in capsys.readouterr().err


@pytest.mark.parametrize("line", [
    "rate.H = 0.5", "rate.rho = 0.0", "rate.sigma0 = 1.0",
    "rate.f.family = constant", "rate.f.value = 0.2", "rate.f.xi = 1.0",
    "rate.f.eta = 1.0", "kernel.variant = riemann_liouville"])
@pytest.mark.parametrize("command", ["rate", "mc"])
def test_removed_model_keys_are_unknown(tmp_path, capsys, command, line):
    # The rate problem is the simulated model's: it has no keys of its
    # own to disagree with kernel.H, corr.rho, sigma(S0) or vol.*.
    cfg = _cfg(tmp_path, LDP + line + "\n")
    out = tmp_path / "x"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    key = line.split(" = ")[0]
    assert f"unknown config key: {key}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("z", ["0", "-0.15", "inf", "nan"])
def test_mc_ldp_rejects_non_positive_threshold(tmp_path, capsys, z):
    # z = 0 made the fit's statistic infinite (not valid JSON), z < 0
    # scored upper-tail counts against a lower-tail rate, and z = inf
    # passed the positivity test.
    cfg = _cfg(tmp_path, LDP.replace("mc.z = 0.15", f"mc.z = {z}"))
    out = tmp_path / "x"
    assert main(["mc", "--config", cfg, "--out", str(out)]) == 2
    assert "z must be positive" in capsys.readouterr().err
    assert not (out / "mc_summary.json").exists()


@pytest.mark.parametrize("min_count", ["0", "-1"])
def test_mc_ldp_rejects_min_count_below_one(tmp_path, capsys, min_count):
    # At z = 0.6 every horizon counted 0 exceedances, and min_count = 0
    # kept them all: the fit took -log 0 and wrote "slope": NaN, which is
    # not JSON.
    text = (LDP.replace("mc.z = 0.15", "mc.z = 0.6")
            .replace("mc.n_paths = 50000", "mc.n_paths = 2000")
            + f"mc.min_count = {min_count}\n")
    out = tmp_path / "x"
    assert main(["mc", "--config", _cfg(tmp_path, text), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "min_count" in err
    assert not (out / "mc_summary.json").exists()
    written = list(out.rglob("*")) if out.exists() else []
    assert not any(b"NaN" in p.read_bytes() for p in written if p.is_file())


def test_mc_moments_refuses_the_default_t_grid_below_128(tmp_path, capsys):
    # The default t grid's smallest node at N = 64 is node 1, where every
    # index with |i| >= 1 is exactly 0: refused before any draw.
    cfg = _cfg(tmp_path, MOMENTS.replace("grid.N = 256", "grid.N = 64"))
    out = tmp_path / "m"
    assert main(["mc", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "at least 128" in err
    assert not (out / "moments.csv").exists()


def test_mc_unknown_check(tmp_path, capsys):
    cfg = _cfg(tmp_path, MOMENTS.replace("mc.check = moments",
                                         "mc.check = bogus"))
    assert main(["mc", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert "mc.check" in capsys.readouterr().err


@pytest.mark.parametrize("n_paths", [1, 3])
def test_state_blowup_exits_3(tmp_path, capsys, n_paths):
    # Every path is lifted before any is stepped, and the message names
    # the first blown-up node across all of them.
    text = f"""
index.alpha = 0.45
index.beta = 0.2
grid.N = 16
kernel.H = 0.3
model.n_paths = {n_paths}
model.sigma.params = 0.0, 50.0
vol.family = exponential
vol.xi = 5.0
rng.seed = 0
"""
    cfg = _cfg(tmp_path, text)
    assert main(["rde", "--config", cfg, "--out", str(tmp_path / "x")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical error:") and "blew up" in err
    assert f"of {n_paths} paths" in err


def test_starved_tail_exits_4(tmp_path, capsys):
    text = LDP.replace("mc.z = 0.15", "mc.z = 5.0") \
              .replace("mc.n_paths = 50000", "mc.n_paths = 500")
    cfg = _cfg(tmp_path, text)
    assert main(["mc", "--config", cfg, "--out", str(tmp_path / "x")]) == 4
    assert "insufficient data" in capsys.readouterr().err


def test_console_script_smoke(tmp_path):
    cfg = _cfg(tmp_path, SMALL_LIFT)
    out = tmp_path / "sub"
    proc = subprocess.run(
        [sys.executable, "-m", "parpath.cli", "lift", "--config", cfg,
         "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (out / "manifest.json").exists()


MODEL_RUN = """
index.alpha = 0.45
index.beta = 0.2
grid.N = 8
kernel.H = 0.3
corr.rho = -0.5
model.n_paths = 2
mc.t_values = 0.25, 0.5, 0.75, 1.0
"""
# Config lines that set one model parameter to {v}; the vol.* keys are
# read by every run below, model.sigma.params by all but ito.
_VOL_LINES = ["vol.family = constant\nvol.value = {v}", "vol.xi = {v}",
              "vol.eta = {v}", "vol.c = {v}"]
_SIGMA_LINES = ["model.sigma.family = constant\nmodel.sigma.params = {v}",
                "model.sigma.params = 0.0, {v}"]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("run, line", [
    (run, line) for run in ("price", "ldp", "ito", "rde")
    for line in _VOL_LINES + (_SIGMA_LINES if run != "ito" else [])])
def test_non_finite_model_parameters_exit_2_before_sampling(
        tmp_path, capsys, monkeypatch, run, line, value):
    # NaN sigma used to price nine NaN rows with exit 0, and a NaN vol.xi
    # wrote "statistic": NaN (not JSON) under ito, exit 3 under price.
    def no_draw(*args, **kwargs):
        raise AssertionError("sampled a model with a non-finite parameter")

    monkeypatch.setattr(cli.mc, "stream", no_draw)
    monkeypatch.setattr(cli.lift_mod, "stream", no_draw)
    text = MODEL_RUN + line.format(v=value) + "\n"
    argv = ["rde"] if run == "rde" else ["mc"]
    if run != "rde":
        text += f"mc.check = {run}\n"
    out = tmp_path / "x"
    assert main(argv + ["--config", _cfg(tmp_path, text), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "must be finite" in err
    assert not (out / "mc_summary.json").exists()


@pytest.mark.parametrize("command, line", [
    ("verify", "vol.eta = 1e200"), ("verify", "vol.c = 1e200"),
    ("integrate", "vol.eta = 1e200"), ("integrate", "vol.c = 1e200"),
    ("rde", "vol.eta = 1e200"), ("rde", "vol.c = 1e200"),
    ("rate", "model.sigma.family = constant\nmodel.sigma.params = 1e155"),
    ("rate", "model.S0 = 1e300"),
    ("smile", "model.sigma.family = constant\nmodel.sigma.params = 1e155"),
    ("smile", "model.S0 = 1e300"),
    ("mc", "mc.check = ito\nmc.n_paths = 1\nvol.eta = 1e200"),
    ("mc", "mc.check = ito\nmc.n_paths = 1\nvol.xi = 1e200")])
def test_huge_finite_model_parameters_exit_2(tmp_path, capsys, command, line):
    # c ** k on Python floats raised OverflowError in the vol function's
    # partials, and so did sigma0 ** 2 in the rate objective: a traceback.
    # Past that, ito's compensated sums or their squares overflowed into
    # a NaN statistic, written to mc_summary.json with exit 0.
    text = MODEL_RUN + "verify.triples = 20\nrate.K = 8\nrate.restarts = 1\n"
    cfg = _cfg(tmp_path, text + line + "\n")
    with np.errstate(all="ignore"):
        code = main([command, "--config", cfg, "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_rde_refuses_a_non_finite_initial_state(tmp_path, capsys, monkeypatch,
                                                value):
    # A NaN or infinite S0 was stepped and exited 3, "state blew up at
    # node 1": it is a config error, raised before any path is drawn.
    def no_draw(*args, **kwargs):
        raise AssertionError("drew a path from a non-finite initial state")

    monkeypatch.setattr(cli.lift_mod, "stream", no_draw)
    cfg = _cfg(tmp_path, MODEL_RUN + f"model.S0 = {value}\n")
    assert main(["rde", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: s0 must be finite, got {float(value)}\n"
    assert not (tmp_path / "x" / "rde.csv").exists()


@pytest.mark.parametrize("command", ["rate", "smile", "ldp"])
def test_vol_whose_square_overflows_at_the_base_point_exits_2(
        tmp_path, capsys, monkeypatch, command):
    # f(0) = vol.xi = 1e200: f^2 overflows in the rate objective, which
    # stalled with a NaN gradient residual (exit 3).  The rate problem
    # refuses it, so mc ldp stops before it samples.
    def no_draw(*args, **kwargs):
        raise AssertionError("sampled a model the rate problem refuses")

    monkeypatch.setattr(cli.mc, "stream", no_draw)
    text = MODEL_RUN + "rate.K = 8\nrate.restarts = 1\nvol.xi = 1e200\n"
    argv = [command]
    if command == "ldp":
        argv, text = ["mc"], text + "mc.check = ldp\n"
    cfg = _cfg(tmp_path, text)
    assert main(argv + ["--config", cfg, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: f must be positive at the base point "
                          "with a finite square, got 1e+200")


def test_lift_and_mc_ito_refuse_the_same_lift(tmp_path, capsys, monkeypatch):
    # index.beta = 0.08 exceeds zeta = 0.04 at H = 0.05: lift refused it,
    # while mc ito lifted and scored the paths with "pass": true.
    def no_draw(*args, **kwargs):
        raise AssertionError("mc ito sampled a lift that lift refuses")

    monkeypatch.setattr(cli.mc, "stream", no_draw)
    text = "kernel.H = 0.05\ngrid.N = 256\nmc.check = ito\nmc.n_paths = 2\n"
    cfg = _cfg(tmp_path, text)
    errors = []
    for command in ("lift", "mc"):
        out = tmp_path / command
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        errors.append(capsys.readouterr().err)
        assert not (out / "mc_summary.json").exists()
    assert errors == ["config error: beta = 0.08 exceeds the kernel "
                      "regularity zeta = 0.04\n"] * 2


@pytest.mark.parametrize("command", ["lift", "verify", "integrate", "rde"])
def test_an_unliftable_kernel_exits_2_before_drawing(tmp_path, capsys,
                                                     monkeypatch, command):
    # index.beta = 0.08 exceeds zeta = 0.04 at H = 0.05: every command that
    # lifts the driver refuses the pair before it draws the driver path.
    def no_draw(*args, **kwargs):
        raise AssertionError("drew a driver path that cannot be lifted")

    monkeypatch.setattr(cli.lift_mod, "stream", no_draw)
    cfg = _cfg(tmp_path, "kernel.H = 0.05\ngrid.N = 256\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == ("config error: beta = 0.08 exceeds the "
                                       "kernel regularity zeta = 0.04\n")


def test_the_in_cell_term_has_no_key(tmp_path, capsys):
    # Every simulated lift carries the in-cell term; no key turns it off.
    cfg = _cfg(tmp_path, SMALL_LIFT + "lift.cell_correction = false\n")
    out = tmp_path / "x"
    assert main(["lift", "--config", cfg, "--out", str(out)]) == 2
    assert "unknown config key: lift.cell_correction" in capsys.readouterr().err
    assert not out.exists()


_ITO = """
index.alpha = 0.45
index.beta = 0.2
kernel.H = 0.3
grid.N = 128
mc.check = ito
mc.n_paths = 2
"""


@pytest.mark.parametrize("check, text, other", [
    ("moments", MOMENTS, "grid.N = 128"),
    ("ito", _ITO, "grid.N = 256"),
    ("price", PRICE, "grid.N = 128"),
    ("ldp", LDP, "grid.N = 16"),
], ids=["moments", "ito", "price", "ldp"])
def test_each_mc_check_reads_the_grid(tmp_path, check, text, other):
    # A check that ignored grid.N (ito lifted 2^16 cells whatever it
    # said) would write the same table at both sizes.
    line = re.search(r"^grid\.N = \d+$", text, flags=re.M).group(0)
    tables = []
    for name, cfg_text in (("a", text), ("b", text.replace(line, other))):
        out = tmp_path / name
        cfg = _cfg(tmp_path, cfg_text, name=f"{name}.cfg")
        assert main(["mc", "--config", cfg, "--out", str(out)]) == 0
        tables.append(_manifest(out)["outputs"][f"{check}.csv"])
    assert tables[0] != tables[1]
