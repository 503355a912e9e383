"""Flat key=value run configuration with a closed key registry.

A config file is plain text: one ``key = value`` pair per line, ``#``
lines are comments.  Every key the library understands is registered
below with a type and default; unknown or repeated keys are rejected so
a typo cannot silently fall back to a default.  ``kernel.H`` is the one
required key: there is no sensible default Hurst parameter.

The keys describe one model: ``rate``, ``smile`` and ``mc ldp`` solve
the rate problem of ``kernel.H``, ``corr.rho``, ``vol.*`` and
``sigma(model.S0)``; the ``rate.*`` keys set only its solver and grid.

The resolved mapping (defaults filled in, overrides applied) has a
canonical text form whose SHA-256 is the config hash embedded in run
manifests; two runs agree bit-for-bit iff their resolved hashes match
and the code version is the same.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math

from .exceptions import ConfigurationError

_REQUIRED = object()


def _parse_floats(text: str) -> tuple:
    text = text.strip()
    if not text:
        return ()
    return tuple(float(part) for part in text.split(","))


_PARSERS = {
    "int": int,
    "float": float,
    "str": lambda s: s.strip(),
    "floats": _parse_floats,
}

# key -> (type name, default); _REQUIRED means the file must set it.
REGISTRY = {
    "index.alpha": ("float", 0.4),
    "index.beta": ("float", 0.08),
    "grid.N": ("int", 4096),
    "grid.T": ("float", 1.0),
    "kernel.H": ("float", _REQUIRED),
    "kernel.delta": ("float", 0.01),
    "corr.rho": ("float", 0.0),
    "rng.seed": ("int", 0),
    "integrate.tol": ("float", 1e-9),
    "vol.family": ("str", "exponential"),
    "vol.value": ("float", 1.0),
    "vol.xi": ("float", 1.0),
    "vol.eta": ("float", 1.0),
    "vol.c": ("float", 0.0),
    "model.sigma.family": ("str", "linear"),
    "model.sigma.params": ("floats", (0.0, 1.0)),
    "model.S0": ("float", 1.0),
    "model.n_paths": ("int", 4),
    "verify.triples": ("int", 1000),
    "verify.scheme": ("str", "auto"),
    "verify.input": ("str", ""),
    "rate.K": ("int", 64),
    "rate.z_min": ("float", -0.5),
    "rate.z_max": ("float", 0.5),
    "rate.z_steps": ("int", 11),
    "rate.restarts": ("int", 8),
    "mc.check": ("str", "moments"),
    "mc.n_paths": ("int", 10000),
    "mc.chunk": ("int", 1024),
    "mc.strikes": ("floats", (0.9, 1.0, 1.1)),
    "mc.maturities": ("floats", (0.25, 0.5, 1.0)),
    "mc.z": ("float", 0.25),
    "mc.t_values": ("floats", ()),
    "mc.min_count": ("int", 50),
}


def _canon(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, tuple):
        return ",".join(f"{v:.17g}" for v in value)
    return str(value)


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Resolved configuration: every registered key has a value."""

    values: dict

    def __getitem__(self, key: str):
        try:
            return self.values[key]
        except KeyError:
            raise ConfigurationError(f"unknown config key: {key}") from None

    def canonical_text(self) -> str:
        lines = [f"{k} = {_canon(self.values[k])}" for k in sorted(self.values)]
        return "\n".join(lines) + "\n"

    def hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()

    def replace(self, **overrides) -> "RunConfig":
        vals = dict(self.values)
        for dotted, value in overrides.items():
            key = dotted.replace("__", ".")
            if key not in REGISTRY:
                raise ConfigurationError(f"unknown config key: {key}")
            vals[key] = value
        return RunConfig(values=vals)


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    seen = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigurationError(
                f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in REGISTRY:
            raise ConfigurationError(f"{source}:{lineno}: unknown config key: {key}")
        if key in seen:
            raise ConfigurationError(f"{source}:{lineno}: duplicate key: {key}")
        type_name, _ = REGISTRY[key]
        try:
            seen[key] = _PARSERS[type_name](value.strip())
        except ValueError as exc:
            raise ConfigurationError(
                f"{source}:{lineno}: bad value for {key}: {exc}") from None
    resolved = {}
    for key, (_, default) in REGISTRY.items():
        if key in seen:
            resolved[key] = seen[key]
        elif default is _REQUIRED:
            raise ConfigurationError(f"{source}: missing required key: {key}")
        else:
            resolved[key] = default
    return RunConfig(values=resolved)


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from None
    return parse_config_text(text, source=path)


# Builders from resolved keys to the library's domain objects.  They sit
# here rather than in the CLI so programmatic callers get the same
# wiring the command line does.

def make_grid(cfg: RunConfig):
    from . import core
    return core.Grid(T=cfg["grid.T"], N=cfg["grid.N"])


def make_index_config(cfg: RunConfig):
    """Index sets of the driver pair, e = 2: the lift's only dimension."""
    from . import core
    return core.build_index_sets(cfg["index.alpha"], cfg["index.beta"],
                                 2, d=1, T=cfg["grid.T"])


def make_kernel(cfg: RunConfig):
    from . import lift
    return lift.riemann_liouville(cfg["kernel.H"], delta=cfg["kernel.delta"])


def _finite(keys: str, *values: float) -> None:
    """Refuse model parameters that are not finite, before anything reads them."""
    if not all(map(math.isfinite, values)):
        raise ConfigurationError(f"{keys} must be finite, got {list(values)}")


def make_volfn(cfg: RunConfig, e: int = 2):
    """The ``vol.*`` function on ``e`` coordinates, those of the lift it
    is integrated against."""
    from . import volfn
    family = cfg["vol.family"].lower()
    if family == "constant":
        _finite("vol.value", cfg["vol.value"])
        return volfn.ConstantVol(cfg["vol.value"], e=e)
    if family == "exponential":
        _finite("vol.xi, vol.eta and vol.c", cfg["vol.xi"], cfg["vol.eta"],
                cfg["vol.c"])
        exps = ([cfg["vol.eta"], cfg["vol.c"]] + [0.0] * e)[:e]
        return volfn.ExponentialVol(cfg["vol.xi"], tuple(exps))
    raise ConfigurationError(
        f"vol.family must be constant or exponential, got {family!r}")


def make_sigma(cfg: RunConfig):
    from . import rde
    family = cfg["model.sigma.family"].lower()
    params = cfg["model.sigma.params"]
    families = {"constant": (rde.SigmaConstant, 1, "one value (c)"),
                "linear": (rde.SigmaLinear, 2, "two values (a, b)")}
    if family not in families:
        raise ConfigurationError(
            f"model.sigma.family must be constant or linear, got {family!r}")
    cls, n_params, wanted = families[family]
    if len(params) != n_params:
        raise ConfigurationError(
            f"model.sigma.params must hold exactly {wanted} for the "
            f"{family} family, got {len(params)}")
    _finite("model.sigma.params", *params)
    return cls(*params)


def make_rate_problem(cfg: RunConfig):
    import numpy as np

    from . import rate
    steps = cfg["rate.z_steps"]
    if steps < 1:
        raise ConfigurationError(f"rate.z_steps must be >= 1, got {steps}")
    if steps == 1:
        z_grid = (cfg["rate.z_min"],)
    else:
        z_grid = tuple(np.linspace(cfg["rate.z_min"], cfg["rate.z_max"], steps))
    sigma0 = float(make_sigma(cfg).value(cfg["model.S0"]))
    return rate.RateProblem(f=make_volfn(cfg), sigma0=sigma0,
                            rho=cfg["corr.rho"], H=cfg["kernel.H"],
                            K=cfg["rate.K"],
                            restarts=cfg["rate.restarts"],
                            seed=cfg["rng.seed"], z_grid=z_grid)
