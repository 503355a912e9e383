"""End-to-end runs of the command-line driver (in-process)."""

import csv
import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from parpath import __version__, analysis, binio, cli, rde
from parpath import config as config_mod
from parpath.cli import main


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
rate.f.family = constant
rate.f.value = 0.2
rate.H = 0.5
rate.rho = 0.0
rate.sigma0 = 1.0
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
    # The index sets build (2001 level-1 indices); the lift then refuses
    # e != 2 instead of recursing once per dimension.
    cfg = _cfg(tmp_path, "kernel.H = 0.3\nindex.e = 2000\nindex.alpha = 0.5\n"
                         "index.beta = 0.29\n")
    assert main(["lift", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "e = 2000" in err
    assert err.count("\n") == 1


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
    calls = {"sweep": 0, "integrate": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(analysis, "_component_sweep",
                        counted("sweep", analysis._component_sweep))
    monkeypatch.setattr(cli, "rough_integrate",
                        counted("integrate", cli.rough_integrate))
    cfg = _cfg(tmp_path, SMALL_LIFT)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == 0
    assert calls == {"sweep": 1, "integrate": 1}
    calls.update(sweep=0, integrate=0)
    assert main(["integrate", "--config", cfg, "--out", str(tmp_path / "i")]) == 0
    assert calls["integrate"] == 1


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
        res = rde.solve_model(grid, config_mod.make_kernel(cfg),
                              config_mod.make_index_config(cfg),
                              config_mod.make_volfn(cfg),
                              config_mod.make_sigma(cfg),
                              cfg["corr.rho"], cfg["model.S0"],
                              seed=11 + p, tol=cfg["integrate.tol"])
        got = np.array([float(r[2]) for r in rows if int(r[0]) == p])
        np.testing.assert_array_equal(got, res.S)


RATE = """
kernel.H = 0.3
rate.K = 8
rate.restarts = 2
rate.z_min = -0.2
rate.z_max = 0.2
rate.z_steps = 3
rate.f.family = constant
rate.f.value = 0.2
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


@pytest.mark.parametrize("swap, needle", [
    (("rate.H = 0.5", "rate.H = 0.3"), "kernel.H"),
    (("rate.rho = 0.0", "rate.rho = -0.7"), "corr.rho"),
    (("rate.sigma0 = 1.0", "rate.sigma0 = 2.0"), "sigma(S0)"),
    (("rate.f.value = 0.2", "rate.f.value = 0.3"), "first coordinate"),
    (("mc.t_values = 0.125, 0.25, 0.375, 0.5", "mc.t_values ="), "mc.t_values"),
])
def test_mc_ldp_consistency_guards(tmp_path, capsys, swap, needle):
    cfg = _cfg(tmp_path, LDP.replace(*swap))
    assert main(["mc", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert needle in capsys.readouterr().err


def test_mc_unknown_check(tmp_path, capsys):
    cfg = _cfg(tmp_path, MOMENTS.replace("mc.check = moments",
                                         "mc.check = bogus"))
    assert main(["mc", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert "mc.check" in capsys.readouterr().err


def test_state_blowup_exits_3(tmp_path, capsys):
    text = """
index.alpha = 0.45
index.beta = 0.2
grid.N = 16
kernel.H = 0.3
model.n_paths = 1
model.sigma.params = 0.0, 50.0
vol.family = exponential
vol.xi = 5.0
rng.seed = 0
"""
    cfg = _cfg(tmp_path, text)
    assert main(["rde", "--config", cfg, "--out", str(tmp_path / "x")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical error:") and "blew up" in err


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
