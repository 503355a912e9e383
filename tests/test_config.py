import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parpath import core, lift, mc, rde, volfn
from parpath.config import (
    REGISTRY,
    RunConfig,
    load_config,
    make_grid,
    make_index_config,
    make_kernel,
    make_rate_problem,
    make_sigma,
    make_volfn,
    parse_config_text,
)
from parpath.exceptions import ConfigurationError
from parpath.rate import RateProblem

MINIMAL = "kernel.H = 0.3\n"


def test_minimal_config_fills_defaults():
    cfg = parse_config_text(MINIMAL)
    assert cfg["kernel.H"] == 0.3
    assert cfg["grid.N"] == 4096
    assert cfg["index.alpha"] == 0.4
    assert cfg["index.beta"] == 0.08
    assert cfg["lift.cell_correction"] is True
    assert cfg["mc.strikes"] == (0.9, 1.0, 1.1)
    assert cfg["mc.t_values"] == ()
    assert set(cfg.values) == set(REGISTRY)


_VALUES = st.one_of(st.text(max_size=20),
                    st.sampled_from(["0.3", "-0", "1e999", "nan", "inf", "7", "1_0",
                                     "0x10", "true", "off", "1, 2,", ",", "9" * 5000]))
_LINES = st.one_of(
    st.text(max_size=30),
    st.builds("{}{}{}".format, st.sampled_from(sorted(REGISTRY) + ["kernel.h", ""]),
              st.sampled_from(["=", " = ", "==", " ", "\t=\t"]), _VALUES))


@settings(max_examples=300, deadline=None)
@given(st.lists(_LINES, max_size=8).map("\n".join))
def test_fuzzed_text_parses_or_raises_configuration_error(text):
    try:
        cfg = parse_config_text(text)
    except ConfigurationError:
        return
    assert set(cfg.values) == set(REGISTRY)


def test_required_key_is_enforced():
    with pytest.raises(ConfigurationError, match="missing required key: kernel.H"):
        parse_config_text("grid.N = 64\n", source="run.cfg")


def test_parse_errors_carry_source_and_line():
    text = "kernel.H = 0.3\n\nnot a pair\n"
    with pytest.raises(ConfigurationError, match=r"run\.cfg:3: expected 'key = value'"):
        parse_config_text(text, source="run.cfg")
    with pytest.raises(ConfigurationError, match=r"run\.cfg:2: unknown config key: grid\.M"):
        parse_config_text("kernel.H = 0.3\ngrid.M = 9\n", source="run.cfg")
    with pytest.raises(ConfigurationError, match=r"run\.cfg:3: duplicate key: grid\.N"):
        parse_config_text("kernel.H = 0.3\ngrid.N = 8\ngrid.N = 16\n", source="run.cfg")
    with pytest.raises(ConfigurationError, match=r"run\.cfg:2: bad value for grid\.N"):
        parse_config_text("kernel.H = 0.3\ngrid.N = eight\n", source="run.cfg")


def test_comments_and_spacing_ignored():
    text = "# run setup\n\n  kernel.H=0.25  \n# tail comment\ngrid.N =  128\n"
    cfg = parse_config_text(text)
    assert cfg["kernel.H"] == 0.25
    assert cfg["grid.N"] == 128


def test_bool_and_float_list_values():
    text = (
        "kernel.H = 0.3\n"
        "lift.cell_correction = off\n"
        "mc.strikes = 0.8,  1.0 ,1.25\n"
        "mc.t_values =\n"
    )
    cfg = parse_config_text(text)
    assert cfg["lift.cell_correction"] is False
    assert cfg["mc.strikes"] == (0.8, 1.0, 1.25)
    assert cfg["mc.t_values"] == ()
    with pytest.raises(ConfigurationError, match="bad value for lift.cell_correction"):
        parse_config_text("kernel.H = 0.3\nlift.cell_correction = maybe\n")


def test_canonical_hash_is_order_insensitive():
    a = parse_config_text("kernel.H = 0.3\ngrid.N = 64\ncorr.rho = -0.7\n")
    b = parse_config_text("corr.rho = -0.70\ngrid.N= 64\nkernel.H =0.3\n")
    assert a.canonical_text() == b.canonical_text()
    assert a.hash() == b.hash()
    c = parse_config_text("kernel.H = 0.3\ngrid.N = 65\ncorr.rho = -0.7\n")
    assert a.hash() != c.hash()
    # canonical form is sorted and newline terminated
    lines = a.canonical_text().splitlines()
    assert lines == sorted(lines)
    assert a.canonical_text().endswith("\n")


def test_getitem_and_replace():
    cfg = parse_config_text(MINIMAL)
    with pytest.raises(ConfigurationError, match="unknown config key"):
        cfg["kernel.h"]
    bumped = cfg.replace(rng__seed=5, grid__N=32)
    assert bumped["rng.seed"] == 5
    assert bumped["grid.N"] == 32
    assert cfg["rng.seed"] == 0
    with pytest.raises(ConfigurationError):
        cfg.replace(no__such__key=1)


def test_load_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("kernel.H = 0.1\ngrid.N = 256\n")
    cfg = load_config(str(path))
    assert cfg["kernel.H"] == 0.1
    assert cfg["grid.N"] == 256
    with pytest.raises(ConfigurationError, match="cannot read config file"):
        load_config(str(tmp_path / "absent.cfg"))


# ---------------------------------------------------------------------------
# builders


def test_make_grid_and_index_config():
    cfg = parse_config_text("kernel.H = 0.3\ngrid.N = 128\ngrid.T = 2.0\n"
                            "index.alpha = 0.45\nindex.beta = 0.2\n")
    grid = make_grid(cfg)
    assert grid == core.Grid(T=2.0, N=128)
    icfg = make_index_config(cfg)
    assert icfg == core.build_index_sets(0.45, 0.2, 2, d=1, T=2.0)


def test_make_kernel_variants():
    # The two kernel keys are the whole kernel: (H, delta) fixes it, and
    # distinct pairs give distinct (unequal) specs.
    specs = set()
    for H, delta in ((0.3, 0.01), (0.3, 0.05), (0.1, 0.01), (0.5, 0.2)):
        cfg = parse_config_text(f"kernel.H = {H}\nkernel.delta = {delta}\n")
        spec = make_kernel(cfg)
        assert spec == lift.riemann_liouville(H, delta=delta)
        specs.add(spec)
    assert len(specs) == 4
    assert make_kernel(parse_config_text(MINIMAL)) == \
        lift.riemann_liouville(0.3, delta=0.01)


def test_make_volfn_families():
    cfg = parse_config_text("kernel.H = 0.3\nvol.family = constant\nvol.value = 0.7\n")
    f = make_volfn(cfg)
    assert isinstance(f, volfn.ConstantVol)
    assert f.value(np.zeros((1, 2)))[0] == 0.7
    cfg = parse_config_text("kernel.H = 0.3\nvol.eta = 1.5\nvol.c = 0.5\nvol.xi = 2.0\n")
    f = make_volfn(cfg)
    assert isinstance(f, volfn.ExponentialVol)
    assert f.xi == 2.0
    assert f.coeffs == (1.5, 0.5)
    cfg = parse_config_text("kernel.H = 0.3\nvol.family = rough\n")
    with pytest.raises(ConfigurationError, match="constant or exponential"):
        make_volfn(cfg)


def test_make_sigma_families():
    cfg = parse_config_text("kernel.H = 0.3\nmodel.sigma.family = constant\n"
                            "model.sigma.params = 0.4\n")
    sig = make_sigma(cfg)
    assert isinstance(sig, rde.SigmaConstant) and sig.c == 0.4
    cfg = parse_config_text("kernel.H = 0.3\n")
    sig = make_sigma(cfg)
    assert isinstance(sig, rde.SigmaLinear) and (sig.a, sig.b) == (0.0, 1.0)
    cfg = parse_config_text("kernel.H = 0.3\nmodel.sigma.family = constant\n"
                            "model.sigma.params = 0.4, 0.5\n")
    with pytest.raises(ConfigurationError, match="exactly one value"):
        make_sigma(cfg)
    cfg = parse_config_text("kernel.H = 0.3\nmodel.sigma.params = 0.4\n")
    with pytest.raises(ConfigurationError, match="exactly two values"):
        make_sigma(cfg)
    cfg = parse_config_text("kernel.H = 0.3\nmodel.sigma.family = cubic\n")
    with pytest.raises(ConfigurationError, match="constant or linear"):
        make_sigma(cfg)


def test_make_rate_problem():
    cfg = parse_config_text("kernel.H = 0.3\ncorr.rho = -0.7\n"
                            "rate.z_min = -0.4\nrate.z_max = 0.4\n"
                            "rate.z_steps = 5\nrate.K = 16\nrate.restarts = 3\n"
                            "rng.seed = 9\n")
    prob = make_rate_problem(cfg)
    assert prob.K == 16 and prob.restarts == 3 and prob.seed == 9
    assert prob.rho == -0.7 and prob.H == 0.3 and prob.sigma0 == 1.0
    np.testing.assert_allclose(prob.z_grid, np.linspace(-0.4, 0.4, 5), rtol=1e-15)
    cfg = parse_config_text("kernel.H = 0.3\nrate.z_steps = 1\nrate.z_min = -0.2\n")
    assert make_rate_problem(cfg).z_grid == (-0.2,)
    cfg = parse_config_text("kernel.H = 0.3\nrate.z_steps = 0\n")
    with pytest.raises(ConfigurationError, match="z_steps"):
        make_rate_problem(cfg)


def test_make_rate_problem_is_the_simulated_model():
    # The README config: H, rho, sigma(S0) = 0 + 1 * 1 and the default
    # vol function, with the solver keys at their defaults.
    cfg = parse_config_text("kernel.H = 0.3\ncorr.rho = -0.7\n")
    assert make_rate_problem(cfg) == RateProblem(
        volfn.ExponentialVol(1.0, (1.0, 0.0)), 1.0, -0.7, 0.3, K=64,
        restarts=8, seed=0, z_grid=tuple(np.linspace(-0.5, 0.5, 11)))
    # sigma0 is sigma(S0) of either family, and f is the vol.* function.
    cfg = parse_config_text("kernel.H = 0.2\nmodel.S0 = 2.0\n"
                            "model.sigma.params = 0.1, 0.3\n"
                            "vol.family = constant\nvol.value = 0.4\n")
    prob = make_rate_problem(cfg)
    assert (prob.H, prob.rho, prob.sigma0) == (0.2, 0.0, 0.1 + 0.3 * 2.0)
    assert prob.f == make_volfn(cfg) == volfn.ConstantVol(0.4)
    cfg = parse_config_text("kernel.H = 0.3\nmodel.sigma.family = constant\n"
                            "model.sigma.params = 0.25\n")
    assert make_rate_problem(cfg).sigma0 == 0.25


def test_mc_chunk_default_is_the_engine_default():
    # The chunk width is part of the sampling definition: the CLI and
    # the library must draw the same chunks by default.
    assert REGISTRY["mc.chunk"] == ("int", mc.DEFAULT_CHUNK)
