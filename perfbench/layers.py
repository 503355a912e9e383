"""Where the traced run patches ``parpath``, and the per-layer metrics.

Layers are the library's modules.  ``config`` and ``volfn`` are thin and
get no metric of their own.  Every metric is a total over the traced
operations divided by their number (one ``mc`` call, or one round of
five CLI commands), so runs of different length compare.  ``*_s``
metrics are self times: span time minus the part its child spans cover.
"""

from __future__ import annotations

import importlib
import os

from perfbench.spans import decile, self_times

CHUNK = "mc.chunk"


def _steps_batch(args, kwargs, result):
    return result.shape[0] * (result.shape[1] - 1)


def _steps_single(args, kwargs, result):
    return result.shape[0] - 1


def _trace_levels(args, kwargs, result):
    return len(result[1].levels)


def _iterations(args, kwargs, result):
    return result.iterations


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0] if args else kwargs["path"])


# (module, binding, span name, work counter).  A function is patched at
# every binding its callers use: ``mc`` and ``cli`` import by name.
TARGETS = [
    ("parpath.mc", "_draw_increments", "mc.draw", None),
    ("parpath.mc", "_driver_xhat", "mc.xhat", None),
    ("parpath.mc", "_levels_batch", "mc.levels", None),
    ("parpath.mc", "_state_from_levels", "mc.state", None),
    ("parpath.mc", "volterra_convolve_batch", "lift.convolve", None),
    ("parpath.lift", "volterra_convolve_batch", "lift.convolve", None),
    ("parpath.mc", "solve_rde_batch", "rde.solve_rde_batch", _steps_batch),
    ("parpath.rde", "solve_rde_batch", "rde.solve_rde_batch", _steps_batch),
    ("parpath.rde", "solve_rde", "rde.solve_rde", _steps_single),
    ("parpath.mc", "minimize_rate", "rate.minimize", _iterations),
    ("parpath.rate", "minimize_rate", "rate.minimize", _iterations),
    ("parpath.mc", "implied_vol", "black_scholes.implied_vol", None),
    ("parpath.mc", "call_price", "black_scholes.call_price", None),
    ("parpath.mc", "stream", "rng.stream", None),
    ("parpath.lift", "stream", "rng.stream", None),
    ("parpath.analysis", "stream", "rng.stream", None),
    ("parpath.rate", "stream", "rng.stream", None),
    ("parpath.lift", "simulate_brownian", "lift.simulate_brownian", None),
    ("parpath.lift", "build_lift", "lift.build_lift", None),
    ("parpath.core", "level1_pairs", "core.level1_pairs", None),
    ("parpath.core", "level2_pairs", "core.level2_pairs", None),
    ("parpath.core", "lift_sampled_paths", "core.lift_sampled_paths", None),
    ("parpath.analysis", "chen_defect_report", "analysis.chen", None),
    ("parpath.analysis", "_component_sweep", "analysis.holder_sweep", None),
    ("parpath.analysis", "holder_norm", "analysis.holder_norm", None),
    ("parpath.integrate", "integrate", "integrate.integrate", _trace_levels),
    ("parpath.cli", "rough_integrate", "integrate.integrate", _trace_levels),
    ("parpath.cli", "estimate_deriv_bound", "integrate.bounds", None),
    ("parpath.cli", "theoretical_bounds", "integrate.bounds", None),
    ("parpath.binio", "write_prp", "binio.write", _file_bytes),
    ("parpath.binio", "write_rp", "binio.write", _file_bytes),
    ("parpath.binio", "read_prp", "binio.read", _file_bytes),
    ("parpath.binio", "read_rp", "binio.read", _file_bytes),
    ("parpath.cli", "_write_csv", "cli.write_csv", None),
    ("parpath.cli", "_write_json", "cli.write_json", None),
    ("parpath.cli", "_sha256", "cli.hash", None),
]

# Root spans the workloads open themselves, around each operation.
CLI_COMMANDS = ("lift", "verify", "integrate", "rde", "smile")
MC_CALLS = ("mc.ldp_tail_check", "mc.price_and_implied_vol")

# (metric, unit, kind, span names).  kinds: self = summed self time;
# calls = number of spans; count = summed work counter; errors = spans
# that raised; p50/p90 = span durations; minflt/sys = RUSAGE_THREAD.
METRICS = [
    ("mc.draw_s", "s", "self", ["mc.draw"]),
    ("mc.xhat_s", "s", "self", ["mc.xhat"]),
    ("lift.convolve_s", "s", "self", ["lift.convolve"]),
    ("mc.levels_s", "s", "self", ["mc.levels"]),
    ("mc.state_s", "s", "self", ["mc.state"]),
    ("mc.chunk_self_s", "s", "self", [CHUNK]),
    ("mc.chunks", "count", "calls", [CHUNK]),
    ("mc.chunk_p50_s", "s", "p50", [CHUNK]),
    ("mc.chunk_p90_s", "s", "p90", [CHUNK]),
    ("mc.minflt", "count", "minflt", [CHUNK]),
    ("mc.sys_s", "s", "sys", [CHUNK]),
    ("rde.solve_rde_batch_s", "s", "self", ["rde.solve_rde_batch"]),
    ("rde.solve_rde_s", "s", "self", ["rde.solve_rde"]),
    ("rde.steps", "count", "count", ["rde.solve_rde_batch", "rde.solve_rde"]),
    ("black_scholes.implied_vol_s", "s", "self", ["black_scholes.implied_vol"]),
    ("black_scholes.call_price_s", "s", "self", ["black_scholes.call_price"]),
    ("black_scholes.inversion_errors", "count", "errors",
     ["black_scholes.implied_vol"]),
    ("core.level1_pairs_s", "s", "self", ["core.level1_pairs"]),
    ("core.level1_pairs_calls", "count", "calls", ["core.level1_pairs"]),
    ("core.level2_pairs_s", "s", "self", ["core.level2_pairs"]),
    ("core.level2_pairs_calls", "count", "calls", ["core.level2_pairs"]),
    ("core.lift_sampled_paths_s", "s", "self", ["core.lift_sampled_paths"]),
    ("analysis.chen_s", "s", "self", ["analysis.chen"]),
    ("analysis.holder_sweep_s", "s", "self", ["analysis.holder_sweep"]),
    ("analysis.holder_norm_s", "s", "self", ["analysis.holder_norm"]),
    ("integrate.integrate_s", "s", "self", ["integrate.integrate"]),
    ("integrate.bounds_s", "s", "self", ["integrate.bounds"]),
    ("integrate.trace_levels", "count", "count", ["integrate.integrate"]),
    ("rate.minimize_s", "s", "self", ["rate.minimize"]),
    ("rate.minimize_calls", "count", "calls", ["rate.minimize"]),
    ("rate.iterations", "count", "count", ["rate.minimize"]),
    ("lift.simulate_brownian_s", "s", "self", ["lift.simulate_brownian"]),
    ("lift.build_lift_s", "s", "self", ["lift.build_lift"]),
    ("binio.write_s", "s", "self", ["binio.write"]),
    ("binio.read_s", "s", "self", ["binio.read"]),
    ("binio.bytes", "B", "count", ["binio.write", "binio.read"]),
    ("cli.write_csv_s", "s", "self", ["cli.write_csv"]),
    ("cli.write_json_s", "s", "self", ["cli.write_json"]),
    ("cli.hash_s", "s", "self", ["cli.hash"]),
    ("rng.streams", "count", "calls", ["rng.stream"]),
] + [(f"cli.{cmd}_s", "s", "self", [f"cli.{cmd}"]) for cmd in CLI_COMMANDS] \
  + [(f"{call}_self_s", "s", "self", [call]) for call in MC_CALLS]

# Whole-run ratios computed in ``layer_metrics``.
RATIOS = [("mc.busy_frac", "ratio"), ("trace.coverage", "ratio"),
          ("trace_overhead", "ratio")]


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    return [(name, unit) for name, unit, _, _ in METRICS] + RATIOS


def install(tracer) -> None:
    """Patch every target binding; missing ones are recorded as absent."""
    for module_name, attr, span, count in TARGETS:
        tracer.wrap(importlib.import_module(module_name), attr, span, count)
    tracer.wrap_dispatch(importlib.import_module("parpath.mc"), "_dispatch",
                         CHUNK)


def layer_metrics(tracer, spans, units: int, threads: int,
                  overhead: float) -> dict:
    """Per-layer metrics over ``spans`` from ``units`` traced operations.

    ``threads`` is the worker count of the MC engine; ``overhead`` is
    traced over untraced operation wall time.  An absent metric (every
    binding it reads is gone) maps to None.
    """
    selfs = self_times(spans)
    by_name = {}
    for sp in spans:
        by_name.setdefault(sp.name, []).append(sp)
    out = {}
    for metric, unit, kind, names in METRICS:
        if all(tracer.is_absent(n) for n in names):
            out[metric] = (None, unit)
            continue
        group = [sp for n in names for sp in by_name.get(n, ())]
        durations = sorted(sp.duration for sp in group)
        if kind == "self":
            value = sum(selfs[sp.id] for sp in group) / units
        elif kind == "calls":
            value = len(group) / units
        elif kind == "count":
            value = sum(sp.count for sp in group) / units
        elif kind == "errors":
            value = sum(sp.error for sp in group) / units
        elif kind == "minflt":
            value = sum(sp.minflt for sp in group) / units
        elif kind == "sys":
            value = sum(sp.sys_s for sp in group) / units
        elif kind == "p50":
            value = decile(durations, 5) if durations else 0.0
        else:
            value = decile(durations, 9) if durations else 0.0
        out[metric] = (value, unit)

    # Worker busy time: chunk spans for the MC engine, else the root
    # spans (CLI commands run on the calling thread).
    roots = [sp for sp in spans if sp.parent is None]
    chunks = by_name.get(CHUNK, [])
    busy_spans = chunks or roots
    busy = sum(sp.duration for sp in busy_spans)
    unattributed = sum(selfs[sp.id] for sp in busy_spans)
    root_wall = sum(sp.duration for sp in roots)
    if tracer.is_absent(CHUNK):
        out["mc.busy_frac"] = (None, "ratio")
    else:
        out["mc.busy_frac"] = (busy / (threads * root_wall) if chunks else 0.0,
                               "ratio")
    out["trace.coverage"] = (1.0 - unattributed / busy if busy else 0.0,
                             "ratio")
    out["trace_overhead"] = (overhead, "ratio")
    return out
