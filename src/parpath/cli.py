"""Batch command-line driver.

Each subcommand loads one flat config file, runs a pipeline, and writes
delimited tables plus a JSON manifest into the output directory.  The
manifest embeds the code version, the resolved config and its hash, the
effective seed, and per-file content digests, so any run can be checked
for bit-exact reproducibility (the recorded runtime is the only field
that varies between identical runs).

Exit codes: 0 success, 2 configuration problem, 3 numerical failure,
4 insufficient data.  Thread count comes from --threads, then the
PARPATH_THREADS environment variable, then 1; results never depend on
it.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__, analysis, binio, mc, rde
from . import config as config_mod
from . import lift as lift_mod
from . import rate as rate_mod
from .exceptions import (ConfigurationError, DomainError, IndexSetError,
                         InsufficientDataError, NumericalError)
from .integrate import (estimate_deriv_bound, integrate as rough_integrate,
                        theoretical_bounds)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class _Run:
    """Output-directory context shared by the subcommands."""

    def __init__(self, command: str, cfg, out_dir: str):
        self.command = command
        self.cfg = cfg
        self.out_dir = out_dir
        self.started = time.monotonic()
        self.outputs = []
        os.makedirs(out_dir, exist_ok=True)

    def path(self, name: str) -> str:
        full = os.path.join(self.out_dir, name)
        self.outputs.append(name)
        return full

    def finish(self) -> None:
        digests = {name: _sha256(os.path.join(self.out_dir, name))
                   for name in self.outputs}
        manifest = {
            "version": __version__,
            "command": self.command,
            "config_hash": self.cfg.hash(),
            "config": {k: config_mod._canon(v)
                       for k, v in self.cfg.values.items()},
            "seed": self.cfg["rng.seed"],
            "outputs": digests,
            "runtime_seconds": time.monotonic() - self.started,
        }
        _write_json(os.path.join(self.out_dir, "manifest.json"), manifest)


def _build_lift(cfg):
    grid = config_mod.make_grid(cfg)
    idxcfg = config_mod.make_index_config(cfg)
    kernel = config_mod.make_kernel(cfg)
    bundle = lift_mod.simulate_brownian(grid, cfg["corr.rho"], cfg["rng.seed"])
    prp = lift_mod.build_lift(bundle, kernel, idxcfg,
                              cell_correction=cfg["lift.cell_correction"])
    return grid, idxcfg, kernel, bundle, prp


def cmd_lift(cfg, out_dir: str, threads: int) -> int:
    run = _Run("lift", cfg, out_dir)
    grid, _, _, bundle, prp = _build_lift(cfg)
    binio.write_prp(run.path("lift.prp"), prp)
    rows = zip(range(grid.N + 1), prp.xhat[:, 0], prp.xhat[:, 1],
               bundle.X)
    _write_csv(run.path("path.csv"), ["node", "xhat1", "xhat2", "X"], rows)
    run.finish()
    return 0


def _component_label(key) -> str:
    if key == "xhat":
        return "xhat"
    if isinstance(key[0], tuple):
        j, k = key
        return "XX(" + ",".join(map(str, j)) + "|" + ",".join(map(str, k)) + ")"
    return "X(" + ",".join(map(str, key)) + ")"


def _holder_rows(reports: dict):
    labeled = sorted((_component_label(k), rep) for k, rep in reports.items())
    for name, rep in labeled:
        yield (name, rep.gamma, rep.value, rep.scheme,
               rep.argmax[0], rep.argmax[1])


def _bound_check_payload(cfg, prp, f, rp, m_norm):
    """Sizes of the integral ``rp`` against the closed-form constants."""
    scheme = cfg["verify.scheme"]
    alpha = prp.config.alpha
    k_bound = estimate_deriv_bound(f, prp.xhat, prp.config.n + 2)
    consts = theoretical_bounds(prp.config, m_norm, k_bound)
    h1 = analysis.holder_norm(rp.level1_pairs, alpha, prp.grid, scheme=scheme)
    h2 = analysis.holder_norm(rp.level2_pairs, 2.0 * alpha, prp.grid,
                              scheme=scheme)
    return {
        "M": m_norm,
        "K": k_bound,
        "constants": {"C1": consts.c1, "C2": consts.c2,
                      "C2_aux": consts.c2_aux, "C3": consts.c3,
                      "C4": consts.c4, "C4_aux": consts.c4_aux},
        "level1": {"measured": h1.value, "bound": consts.level1,
                   "pass": bool(h1.value <= consts.level1)},
        "level2": {"measured": h2.value, "bound": consts.level2,
                   "pass": bool(h2.value <= consts.level2)},
        "lipschitz_bound": consts.lipschitz,
    }


def cmd_verify(cfg, out_dir: str, threads: int) -> int:
    run = _Run("verify", cfg, out_dir)
    n_triples = cfg["verify.triples"]
    if n_triples < 1:
        raise ConfigurationError("verify.triples must be >= 1")
    source = cfg["verify.input"]
    if source:
        prp = binio.read_prp(source)
    else:
        _, _, _, _, prp = _build_lift(cfg)
    chen = analysis.chen_defect_report(prp, n_triples=n_triples,
                                       seed=cfg["rng.seed"])
    comps = analysis.component_holder_norms(prp, scheme=cfg["verify.scheme"])
    hom = analysis._homogeneous_from_reports(prp.config, comps)
    f = config_mod.make_volfn(cfg)
    rp, _ = rough_integrate(prp, f, tol=cfg["integrate.tol"])
    bounds = _bound_check_payload(cfg, prp, f, rp, hom)
    tol = 1e-10
    payload = {
        "chen": {
            "max_level1": chen.max_level1,
            "max_level2": chen.max_level2,
            "n_triples": chen.n_triples,
            "tolerance": tol,
            "pass": bool(chen.max_defect <= tol),
        },
        "homogeneous_norm": hom,
        "bounds": bounds,
    }
    _write_json(run.path("verify.json"), payload)
    _write_csv(run.path("holder.csv"),
               ["quantity", "exponent", "value", "scheme",
                "argmax_s", "argmax_t"],
               _holder_rows(comps))
    run.finish()
    return 0


def cmd_integrate(cfg, out_dir: str, threads: int) -> int:
    run = _Run("integrate", cfg, out_dir)
    _, _, _, _, prp = _build_lift(cfg)
    f = config_mod.make_volfn(cfg)
    rp, trace = rough_integrate(prp, f, tol=cfg["integrate.tol"])
    binio.write_rp(run.path("integral.rp"), rp)
    rows = []
    for pos, level in enumerate(trace.levels):
        rows.append((level, trace.n_cells[pos],
                     trace.j1[pos][0], trace.j2[pos][0, 0],
                     trace.diffs1[pos - 1] if pos else None,
                     trace.diffs2[pos - 1] if pos else None))
    _write_csv(run.path("trace.csv"),
               ["level", "n_cells", "j1", "j2", "diff1", "diff2"], rows)
    m_norm = analysis.homogeneous_norm(prp, scheme=cfg["verify.scheme"])
    _write_json(run.path("bounds.json"),
                _bound_check_payload(cfg, prp, f, rp, m_norm))
    run.finish()
    return 0


def cmd_rde(cfg, out_dir: str, threads: int) -> int:
    run = _Run("rde", cfg, out_dir)
    grid = config_mod.make_grid(cfg)
    idxcfg = config_mod.make_index_config(cfg)
    kernel = config_mod.make_kernel(cfg)
    f = config_mod.make_volfn(cfg)
    sigma = config_mod.make_sigma(cfg)
    n_paths = cfg["model.n_paths"]
    if n_paths < 1:
        raise ConfigurationError("model.n_paths must be >= 1")
    rows = []
    for p in range(n_paths):
        result = rde.solve_model(grid, kernel, idxcfg, f, sigma,
                                 cfg["corr.rho"], cfg["model.S0"],
                                 seed=cfg["rng.seed"] + p,
                                 tol=cfg["integrate.tol"],
                                 cell_correction=cfg["lift.cell_correction"])
        for q in range(grid.N + 1):
            rows.append((p, grid.nodes[q], result.S[q]))
    _write_csv(run.path("rde.csv"), ["path_id", "t", "S"], rows)
    run.finish()
    return 0


def _smile_rows(points):
    for pt in points:
        yield (pt.z, pt.rate, pt.sigma_asym, pt.iterations, pt.restarts,
               pt.grad_norm)


def _cmd_smile_curve(command: str, cfg, out_dir: str, threads: int) -> int:
    """``rate`` and ``smile``: one computation, written to ``<command>.csv``."""
    run = _Run(command, cfg, out_dir)
    problem = config_mod.make_rate_problem(cfg)
    points = rate_mod.smile_curve(problem)
    _write_csv(run.path(f"{command}.csv"),
               ["z", "rate", "sigma_asym", "iterations", "restarts",
                "grad_norm"], _smile_rows(points))
    run.finish()
    return 0


def _mc_moments(cfg, run, threads: int):
    grid = config_mod.make_grid(cfg)
    kernel = config_mod.make_kernel(cfg)
    report = mc.moment_scaling_check(kernel, grid, cfg["corr.rho"],
                                     cfg["mc.n_paths"], cfg["rng.seed"],
                                     threads=threads, chunk=cfg["mc.chunk"])
    rows = [(i[0], i[1], report.slopes[i], report.expected[i],
             report.deviations[i]) for i in report.indices]
    _write_csv(run.path("moments.csv"),
               ["i1", "i2", "slope", "expected", "deviation"], rows)
    return {"check": "moments",
            "statistic": max(report.deviations.values()),
            "tolerance": report.tol, "pass": bool(report.passed)}


def _mc_ito(cfg, run, threads: int):
    idxcfg = config_mod.make_index_config(cfg)
    kernel = config_mod.make_kernel(cfg)
    f = config_mod.make_volfn(cfg)
    chunk = min(cfg["mc.chunk"], 8)  # per-path lifts at 2^16 nodes are large
    report = mc.ito_consistency_check(kernel, idxcfg, f, cfg["corr.rho"],
                                      cfg["mc.n_paths"], cfg["rng.seed"],
                                      T=cfg["grid.T"], threads=threads,
                                      chunk=chunk)
    rows = [(c, report.rms[c]) for c in report.coarse_cells]
    _write_csv(run.path("ito.csv"), ["n_cells", "rms"], rows)
    return {"check": "ito", "statistic": report.ratio, "tolerance": 0.5,
            "pass": bool(report.passed())}


def _mc_price(cfg, run, threads: int):
    grid = config_mod.make_grid(cfg)
    kernel = config_mod.make_kernel(cfg)
    f = config_mod.make_volfn(cfg)
    sigma = config_mod.make_sigma(cfg)
    table = mc.price_and_implied_vol(kernel, f, sigma, cfg["corr.rho"],
                                     cfg["model.S0"], grid,
                                     cfg["mc.strikes"], cfg["mc.maturities"],
                                     cfg["mc.n_paths"], cfg["rng.seed"],
                                     threads=threads, chunk=cfg["mc.chunk"],
                                     cell_correction=cfg["lift.cell_correction"])
    rows = [(r.strike, r.maturity, r.price, r.stderr, r.implied_vol,
             r.iv_stderr, r.note) for r in table.rows]
    _write_csv(run.path("price.csv"),
               ["strike", "maturity", "price", "stderr", "implied_vol",
                "iv_stderr", "note"], rows)
    summary = {"check": "price", "inversion_errors":
               sum(1 for r in table.rows if r.note), "pass": True}
    flat = _flat_vol_target(cfg)
    if flat is not None:
        devs = [abs(r.implied_vol - flat) / r.iv_stderr
                for r in table.rows if r.implied_vol is not None
                and r.iv_stderr]
        # A graded check that scored no row measured nothing: it fails.
        summary["pass"] = bool(devs and max(devs) <= 2.0)
        if devs:
            summary["statistic"] = max(devs)
            summary["tolerance"] = 2.0
    return summary


def _flat_vol_target(cfg):
    """Lognormal implied vol when the config pins one (else None)."""
    if cfg["vol.family"].lower() != "constant":
        return None
    if cfg["model.sigma.family"].lower() != "linear":
        return None
    params = cfg["model.sigma.params"]
    if len(params) != 2 or params[0] != 0.0:
        return None
    return params[1] * cfg["vol.value"]


def _mc_ldp(cfg, run, threads: int):
    grid = config_mod.make_grid(cfg)
    kernel = config_mod.make_kernel(cfg)
    f = config_mod.make_volfn(cfg)
    sigma = config_mod.make_sigma(cfg)
    problem = config_mod.make_rate_problem(cfg)
    s0 = cfg["model.S0"]
    sigma0 = float(np.asarray(sigma.value(np.asarray(s0))))
    if abs(problem.H - cfg["kernel.H"]) > 1e-12:
        raise ConfigurationError(
            f"rate.H = {problem.H} must match kernel.H = {cfg['kernel.H']} "
            "for the tail check")
    if abs(problem.rho - cfg["corr.rho"]) > 1e-12:
        raise ConfigurationError(
            f"rate.rho = {problem.rho} must match corr.rho = "
            f"{cfg['corr.rho']} for the tail check")
    if abs(problem.sigma0 - sigma0) > 1e-12:
        raise ConfigurationError(
            f"rate.sigma0 = {problem.sigma0} must match sigma(S0) = {sigma0} "
            "for the tail check")
    probe = np.linspace(-2.0, 2.0, 9)
    if not np.allclose(np.asarray(f.value_first(probe)),
                       np.asarray(problem.f.value_first(probe)),
                       rtol=1e-12, atol=1e-12):
        raise ConfigurationError(
            "vol.* and rate.f.* must agree on the first coordinate for the "
            "tail check")
    t_values = cfg["mc.t_values"]
    if not t_values:
        raise ConfigurationError("mc.t_values must be set for the tail check")
    report = mc.ldp_tail_check(kernel, f, rde.shifted(sigma, s0),
                               cfg["corr.rho"], grid, cfg["mc.z"], t_values,
                               problem, cfg["mc.n_paths"], cfg["rng.seed"],
                               threads=threads, chunk=cfg["mc.chunk"],
                               min_count=cfg["mc.min_count"])
    rows = zip(report.t_values, report.u_values, report.counts,
               report.probs, report.neglog)
    _write_csv(run.path("ldp.csv"), ["t", "u", "count", "prob", "neglog"],
               rows)
    stat = abs(report.ratio - 1.0)
    return {"check": "ldp", "slope": report.slope,
            "rate_value": report.rate_value, "statistic": stat,
            "tolerance": 0.3, "pass": bool(stat <= 0.3)}


_MC_CHECKS = {"moments": _mc_moments, "ito": _mc_ito, "price": _mc_price,
              "ldp": _mc_ldp}


def cmd_mc(cfg, out_dir: str, threads: int) -> int:
    run = _Run("mc", cfg, out_dir)
    name = cfg["mc.check"].lower()
    if name not in _MC_CHECKS:
        raise ConfigurationError(
            f"mc.check must be one of {sorted(_MC_CHECKS)}, got {name!r}")
    summary = _MC_CHECKS[name](cfg, run, threads)
    _write_json(run.path("mc_summary.json"), summary)
    run.finish()
    return 0


_COMMANDS = {
    "lift": cmd_lift,
    "verify": cmd_verify,
    "integrate": cmd_integrate,
    "rde": cmd_rde,
    "rate": functools.partial(_cmd_smile_curve, "rate"),
    "smile": functools.partial(_cmd_smile_curve, "smile"),
    "mc": cmd_mc,
}


def _resolve_threads(flag_value) -> int:
    if flag_value is not None:
        value = flag_value
    else:
        env = os.environ.get("PARPATH_THREADS", "").strip()
        if not env:
            return 1
        try:
            value = int(env)
        except ValueError:
            raise ConfigurationError(
                f"PARPATH_THREADS must be an integer, got {env!r}") from None
    if value < 1:
        raise ConfigurationError(f"thread count must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parpath",
        description="Rough-volatility pipelines over partial rough paths")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cp = sub.add_parser(name)
        cp.add_argument("--config", required=True, metavar="PATH")
        cp.add_argument("--out", default=".", metavar="DIR")
        cp.add_argument("--seed", type=int, default=None, metavar="N")
        cp.add_argument("--threads", type=int, default=None, metavar="N")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        threads = _resolve_threads(args.threads)
        cfg = config_mod.load_config(args.config)
        if args.seed is not None:
            cfg = cfg.replace(rng__seed=args.seed)
        return _COMMANDS[args.command](cfg, args.out, threads)
    except (ConfigurationError, IndexSetError, DomainError, OSError) as exc:
        # OSError: a path the run cannot use, e.g. an --out that names a file.
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InsufficientDataError as exc:
        print(f"insufficient data: {exc}", file=sys.stderr)
        return 4
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
