"""Config parsing: defaults, validation, near-miss suggestions, hashing."""

import dataclasses
import re

import pytest

from lcflow import ConfigError, SimConfig, load_config
from lcflow.cli import cli
from lcflow.config import DEFAULT_EPS_LADDER, config_hash, parse_config

MINIMAL = """\
[grid]
nx = 16
ny = 16
nz = 32

[physics]
eps = 0.01

[time]
dt = 1e-3
t_final = 0.1
"""


def _parse(text):
    return parse_config(text)


def test_minimal_doc_gets_defaults():
    cfg = _parse(MINIMAL)
    assert (cfg.nx, cfg.ny, cfg.nz) == (16, 16, 32)
    assert cfg.eps == 0.01
    assert cfg.dt == 1e-3 and cfg.t_final == 0.1
    # everything else falls back to documented defaults
    assert cfg.lx == cfg.ly == cfg.lz == 1.0
    assert cfg.b11 == cfg.b12 == cfg.b22 == 0.0
    assert cfg.ic_name == "rest"
    assert cfg.diag_every == 10
    assert cfg.conormal_m == 2 and cfg.time_derivs == 0
    assert cfg.adaptive_dt is True and cfg.visc_implicit is False
    assert cfg.cfl_safety == 0.4
    assert cfg.eps_ladder == DEFAULT_EPS_LADDER


def test_default_ladder_is_dyadic():
    assert DEFAULT_EPS_LADDER == tuple(2.0 ** -k for k in range(4, 11))


def test_unknown_key_suggests_fix():
    bad = MINIMAL.replace("eps = 0.01", "epz = 0.01")
    with pytest.raises(ConfigError) as err:
        _parse(bad)
    msg = str(err.value)
    assert "unknown key 'epz'" in msg
    assert "did you mean 'eps'?" in msg


def test_unknown_section_suggests_fix():
    bad = MINIMAL.replace("[grid]", "[grids]")
    with pytest.raises(ConfigError, match=re.escape("unknown section '[grids]'")):
        _parse(bad)


def test_missing_required_keys_are_listed():
    text = "[grid]\nnx = 8\nny = 8\nnz = 8\n"
    with pytest.raises(ConfigError) as err:
        _parse(text)
    msg = str(err.value)
    assert "missing required key" in msg
    for frag in ("'eps'", "'dt'", "'t_final'"):
        assert frag in msg


def test_bad_value_reports_key_and_raw():
    bad = MINIMAL.replace("nx = 16", "nx = sixteen")
    with pytest.raises(ConfigError, match="bad value for 'nx'"):
        _parse(bad)


def test_malformed_document():
    with pytest.raises(ConfigError, match="malformed config"):
        _parse("nx = 16\n")  # key before any section header
    with pytest.raises(ConfigError, match="malformed config"):
        _parse(MINIMAL + "\n[time]\ndt = 2e-3\n")  # duplicate section


def test_validation_ranges():
    with pytest.raises(ConfigError, match=r"eps must be in \[0,1\]"):
        _parse(MINIMAL.replace("eps = 0.01", "eps = -1"))
    with pytest.raises(ConfigError, match="nz must be >= 4"):
        _parse(MINIMAL.replace("nz = 32", "nz = 2"))
    with pytest.raises(ConfigError, match="dt must be positive"):
        _parse(MINIMAL.replace("dt = 1e-3", "dt = 0"))
    with pytest.raises(ConfigError, match="t_final must be >= 0"):
        _parse(MINIMAL.replace("t_final = 0.1", "t_final = -0.5"))


@pytest.mark.parametrize("key, value", [
    ("dt", "inf"), ("dt", "nan"), ("dt", "-inf"),
    ("t_final", "inf"), ("t_final", "nan"),
])
def test_non_finite_times_are_rejected(tmp_path, capsys, key, value):
    # dt = inf would spin in the step-halving loop, t_final = inf would run
    # zero steps and exit 0, dt = nan would fail later as a non-finite state
    line = {"dt": "dt = 1e-3", "t_final": "t_final = 0.1"}[key]
    text = MINIMAL.replace(line, f"{key} = {value}")
    with pytest.raises(ConfigError, match=f"{key} must be"):
        _parse(text)
    direct = dict(nx=8, ny=8, nz=8, eps=0.5, dt=1e-3, t_final=0.1)
    direct[key] = float(value)
    with pytest.raises(ConfigError, match=f"{key} must be"):
        SimConfig(**direct).validate()
    # only reached once validation is known to reject the value
    path = tmp_path / "run.cfg"
    path.write_text(text)
    assert cli(["simulate", "--config", str(path)]) == 1
    assert f"{key} must be" in capsys.readouterr().err


@pytest.mark.parametrize("b11, b12, b22", [
    (-50.0, 0.0, 1.0), (1.0, 0.0, -0.5), (1.0, 2.0, 1.0), (0.0, 0.1, 0.0),
    (float("nan"), 0.0, 1.0), (float("inf"), 0.0, float("inf")),
])
def test_slip_matrix_must_be_positive_semidefinite(tmp_path, capsys,
                                                   b11, b12, b22):
    text = MINIMAL.replace("eps = 0.01",
                           f"eps = 0.01\nb11 = {b11}\nb12 = {b12}\nb22 = {b22}")
    with pytest.raises(ConfigError, match="positive semidefinite") as err:
        _parse(text)
    for name in ("b11", "b12", "b22"):
        assert name in str(err.value)
    path = tmp_path / "run.cfg"
    path.write_text(text)
    assert cli(["simulate", "--config", str(path)]) == 1
    assert "positive semidefinite" in capsys.readouterr().err


def test_slip_matrix_boundary_cases_accepted():
    for b11, b12, b22 in ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (4.0, -2.0, 1.0),
                          (1.0, 0.4, 2.0)):
        cfg = SimConfig(nx=8, ny=8, nz=8, eps=0.5, dt=1e-3, t_final=0.1,
                        b11=b11, b12=b12, b22=b22)
        assert cfg.validate() is cfg


def test_unknown_initial_condition():
    bad = MINIMAL + "\n[ic]\nname = vortex-sheet\n"
    with pytest.raises(ConfigError, match="unknown initial condition 'vortex-sheet'"):
        _parse(bad)


def test_known_initial_conditions_accepted():
    for name in ("rest", "shear+twist", "slipflow", "random-solenoidal"):
        cfg = _parse(MINIMAL + f"\n[ic]\nname = {name}\n")
        assert cfg.ic_name == name


def test_diagnostic_knob_ranges():
    with pytest.raises(ConfigError, match="conormal_m must be in 1..4"):
        _parse(MINIMAL + "\n[diag]\nconormal_m = 5\n")
    with pytest.raises(ConfigError, match="time_derivs must be 0 or 1"):
        _parse(MINIMAL + "\n[diag]\ntime_derivs = 2\n")
    with pytest.raises(ConfigError, match="diag_every must be >= 1"):
        _parse(MINIMAL + "\n[diag]\ndiag_every = 0\n")


def test_ladder_parsing_commas_and_spaces():
    cfg = _parse(MINIMAL + "\n[sweep]\neps_ladder = 0.25, 0.125 0.0625\n")
    assert cfg.eps_ladder == (0.25, 0.125, 0.0625)


def test_ladder_rejects_garbage():
    with pytest.raises(ConfigError, match="bad value for 'eps_ladder'"):
        _parse(MINIMAL + "\n[sweep]\neps_ladder = 0.25, abc\n")
    with pytest.raises(ConfigError, match="bad value for 'eps_ladder'"):
        _parse(MINIMAL + "\n[sweep]\neps_ladder =\n")


@pytest.mark.parametrize("ladder, cause", [
    ("0.1 0.2", "strictly decreasing"),
    ("0.25 0.25", "strictly decreasing"),
    ("2.0", r"in \(0, 1\], got 2.0"),
    ("0.5 0.0", r"in \(0, 1\], got 0.0"),
    ("0.5 nan", r"in \(0, 1\], got nan"),
])
def test_ladder_rule_is_checked_at_load(ladder, cause):
    with pytest.raises(ConfigError, match=cause):
        _parse(MINIMAL + f"\n[sweep]\neps_ladder = {ladder}\n")
    # a directly built config goes through the same check
    with pytest.raises(ConfigError, match=cause):
        dataclasses.replace(_parse(MINIMAL),
                            eps_ladder=tuple(map(float, ladder.split()))).validate()


def test_empty_ladder_is_rejected_by_validate():
    with pytest.raises(ConfigError, match="ladder is empty"):
        dataclasses.replace(_parse(MINIMAL), eps_ladder=()).validate()


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(MINIMAL)
    cfg = load_config(path)
    assert cfg == _parse(MINIMAL)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_config(tmp_path / "nope.cfg")


def test_config_hash_stability_and_sensitivity():
    a = _parse(MINIMAL)
    b = _parse(MINIMAL)
    assert config_hash(a) == config_hash(b)
    c = _parse(MINIMAL.replace("eps = 0.01", "eps = 0.02"))
    assert config_hash(a) != config_hash(c)
    assert len(config_hash(a)) == 32  # sha256 digest


def test_config_hash_ignores_forcing_hooks():
    a = _parse(MINIMAL)
    b = dataclasses.replace(a, forcing_u=lambda grid, t: None)
    assert config_hash(a) == config_hash(b)
    assert a == b  # hooks are compare-excluded as well


def test_direct_construction_validates():
    cfg = SimConfig(nx=8, ny=8, nz=8, eps=0.5, dt=1e-3, t_final=0.1)
    cfg.validate()
    with pytest.raises(ConfigError):
        SimConfig(nx=8, ny=8, nz=8, eps=2.0, dt=1e-3, t_final=0.1).validate()
