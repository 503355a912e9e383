"""What a fresh process loads, and the bindings the benchmark traces.

``import parpath`` needs numpy only.  Each command imports the scipy
submodule it calls at the call site, so a command that calls none
starts without scipy.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import parpath

SRC = os.path.dirname(os.path.dirname(os.path.abspath(parpath.__file__)))
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Sizes are small, but lift and rde take the FFT route (N > 512).
_CONFIGS = {
    "lift": """
index.alpha = 0.45
index.beta = 0.2
grid.N = 1024
kernel.H = 0.3
corr.rho = -0.7
""",
    "rde": """
index.alpha = 0.45
index.beta = 0.2
grid.N = 1024
kernel.H = 0.3
model.n_paths = 1
""",
    "verify": """
index.alpha = 0.45
index.beta = 0.2
grid.N = 64
kernel.H = 0.3
verify.triples = 50
""",
    "integrate": """
index.alpha = 0.45
index.beta = 0.2
grid.N = 64
kernel.H = 0.3
""",
    "mc": """
index.alpha = 0.45
index.beta = 0.2
grid.N = 1024
kernel.H = 0.3
mc.check = {check}
mc.n_paths = 8
mc.strikes = 1.0
mc.maturities = 0.5, 1.0
""",
}

# What a command may load: (required, forbidden) scipy submodules; None
# forbids scipy altogether.
_NO_SCIPY = None
_SPECIAL_ONLY = ({"scipy.special"}, {"scipy.optimize", "scipy.fft",
                                     "scipy.integrate"})
_FOOTPRINTS = [
    (("lift",), _NO_SCIPY),
    (("rde",), _NO_SCIPY),
    (("mc", "moments"), _NO_SCIPY),
    (("mc", "ito"), _NO_SCIPY),
    (("verify",), _SPECIAL_ONLY),
    (("integrate",), _SPECIAL_ONLY),
    (("mc", "price"), _SPECIAL_ONLY),
]

_RUN = """
import json, sys
from parpath.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules
                               if m.split(".")[0] == "scipy")]))
"""


def _fresh(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    env.pop("PARPATH_THREADS", None)
    proc = subprocess.run([sys.executable, "-c", _RUN, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("command, footprint", _FOOTPRINTS,
                         ids=[" ".join(c) for c, _ in _FOOTPRINTS])
def test_each_command_imports_only_the_scipy_it_calls(tmp_path, command,
                                                      footprint):
    text = _CONFIGS[command[0]].format(check=command[-1])
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    code, loaded = _fresh([command[0], "--config", str(cfg),
                           "--out", str(tmp_path / "out")])
    assert code == 0
    loaded = set(loaded)
    if footprint is _NO_SCIPY:
        assert loaded == set(), loaded
    else:
        required, forbidden = footprint
        assert required <= loaded, loaded
        assert not forbidden & loaded, loaded


# Bindings the tracer still lists that the library dropped on purpose:
# the Monte Carlo engine steps through rde._step_nodes, and the span is
# still reached through parpath.rde.solve_rde_batch.
_STALE_BINDINGS = {"parpath.mc.solve_rde_batch"}


def test_perfbench_traced_bindings_resolve(monkeypatch):
    # The traced benchmark run reports a span whose bindings are all
    # gone as an absent metric, not as an error; renaming or removing a
    # traced function must fail here instead.
    monkeypatch.syspath_prepend(ROOT)
    layers = importlib.import_module("perfbench.layers")
    targets = [(module, attr) for module, attr, _, _ in layers.TARGETS]
    targets.append(("parpath.mc", "_dispatch"))
    missing = {f"{module}.{attr}" for module, attr in targets
               if not callable(getattr(importlib.import_module(module), attr,
                                       None))}
    assert missing <= _STALE_BINDINGS
