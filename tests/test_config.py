"""Config parsing: defaults, validation, near-miss suggestions, hashing."""

import dataclasses
import re

import pytest

from lcflow import ConfigError, SimConfig, load_config
from lcflow.cli import cli
from lcflow.config import (_SCHEMA, DEFAULT_EPS_LADDER, config_hash,
                           parse_config)

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
    # a negative CFL factor would surface as a misleading step underflow
    with pytest.raises(ConfigError, match="cfl_safety must be positive"):
        _parse(MINIMAL.replace("t_final = 0.1", "t_final = 0.1\ncfl_safety = -1"))
    with pytest.raises(ConfigError, match="solver_tol must be positive"):
        _parse(MINIMAL + "\n[diag]\nsolver_tol = 0\n")


@pytest.mark.parametrize("key, value", [
    ("dt", "inf"), ("dt", "nan"), ("dt", "-inf"),
    ("t_final", "inf"), ("t_final", "nan"),
    ("cfl_safety", "nan"), ("solver_tol", "nan"), ("renorm_floor", "nan"),
    ("renorm_floor", "1.0"),
    ("lx", "nan"), ("lx", "inf"), ("amplitude", "nan"), ("twist", "inf"),
    ("seed", "-1"),
])
def test_non_finite_times_are_rejected(tmp_path, capsys, key, value):
    # dt = inf would spin in the step-halving loop, t_final = inf would run
    # zero steps and exit 0, dt = nan would fail later as a non-finite state;
    # cfl_safety = nan switches the CFL check off, solver_tol = nan the
    # Poisson residual check; amplitude = nan and twist = inf would fail
    # later as a non-finite state; seed = -1 would escape init_state as an
    # uncaught numpy error; renorm_floor = 1 would refuse the unit director
    # at the first step
    if key in ("dt", "t_final"):
        line = {"dt": "dt = 1e-3", "t_final": "t_final = 0.1"}[key]
        text = MINIMAL.replace(line, f"{key} = {value}")
    elif key in ("lx", "cfl_safety"):
        line = {"lx": "nz = 32", "cfl_safety": "t_final = 0.1"}[key]
        text = MINIMAL.replace(line, f"{line}\n{key} = {value}")
    elif key in ("amplitude", "twist"):
        text = MINIMAL + f"\n[ic]\nname = shear+twist\n{key} = {value}\n"
    elif key == "seed":
        text = MINIMAL + f"\n[ic]\nname = random-solenoidal\n{key} = {value}\n"
    else:
        text = MINIMAL + f"\n[diag]\n{key} = {value}\n"
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
    for m in (0, 5):
        with pytest.raises(ConfigError, match="conormal_m must be in 1..4"):
            _parse(MINIMAL + f"\n[diag]\nconormal_m = {m}\n")
    with pytest.raises(ConfigError, match="time_derivs must be 0 or 1"):
        _parse(MINIMAL + "\n[diag]\ntime_derivs = 2\n")
    with pytest.raises(ConfigError, match="diag_every must be >= 1"):
        _parse(MINIMAL + "\n[diag]\ndiag_every = 0\n")


@pytest.mark.parametrize("name,value", [("conormal_m", 1.5), ("seed", 1.5),
                                        ("diag_every", 2.5),
                                        ("time_derivs", 1.0)])
def test_integer_fields_refuse_non_integers(name, value):
    # each passes its range check: conormal_m = 1.5 would stop the run in
    # range() and seed = 1.5 in SeedSequence, diag_every = 2.5 would
    # record at steps 5 and 10 and time_derivs = 1.0 passes as 1
    cfg = SimConfig(nx=8, ny=8, nz=8, eps=0.5, dt=1e-3, t_final=0.1,
                    **{name: value})
    with pytest.raises(ConfigError, match=f"{name} must be an integer, got "
                                          f"{value}"):
        cfg.validate()


# every key of the grammar: (section, key) -> (text, the field's value)
_EVERY_KEY = {
    ("grid", "nx"): ("12", 12), ("grid", "ny"): ("10", 10),
    ("grid", "nz"): ("20", 20), ("grid", "lx"): ("2.5", 2.5),
    ("grid", "ly"): ("1.5", 1.5), ("grid", "lz"): ("0.75", 0.75),
    ("physics", "eps"): ("0.02", 0.02), ("physics", "b11"): ("0.5", 0.5),
    ("physics", "b12"): ("0.25", 0.25), ("physics", "b22"): ("0.75", 0.75),
    ("time", "dt"): ("2e-3", 2e-3), ("time", "t_final"): ("0.3", 0.3),
    ("time", "cfl_safety"): ("0.3", 0.3),
    ("time", "adaptive_dt"): ("no", False),
    ("time", "visc_implicit"): ("yes", True),
    ("ic", "name"): ("shear+twist", "shear+twist"),
    ("ic", "amplitude"): ("0.2", 0.2), ("ic", "twist"): ("0.7", 0.7),
    ("ic", "seed"): ("3", 3),
    ("diag", "diag_every"): ("5", 5), ("diag", "conormal_m"): ("1", 1),
    ("diag", "time_derivs"): ("1", 1), ("diag", "renorm_floor"): ("1e-6", 1e-6),
    ("diag", "solver_tol"): ("1e-10", 1e-10),
    ("sweep", "eps_ladder"): ("0.5, 0.25 0.125", (0.5, 0.25, 0.125)),
}


def _field(key):
    return "ic_name" if key == "name" else key


def test_every_key_round_trips_with_its_field_type():
    # the grammar is exactly the SimConfig fields
    assert {(s, k) for s, keys in _SCHEMA.items() for k in keys} \
        == set(_EVERY_KEY)
    assert {_field(k) for _, k in _EVERY_KEY} == \
        {f.name for f in dataclasses.fields(SimConfig)}
    text = ""
    for section in _SCHEMA:
        text += f"[{section}]\n"
        text += "".join(f"{k} = {raw}\n" for (s, k), (raw, _)
                        in _EVERY_KEY.items() if s == section)
    cfg = _parse(text)
    for (_, key), (_, value) in _EVERY_KEY.items():
        got = getattr(cfg, _field(key))
        assert got == value and type(got) is type(value), key
        assert value != getattr(SimConfig(), _field(key)), key


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


def test_config_hash_digest_is_pinned():
    # the criterion 1-2 energy-budget config cut to 50 steps; checkpoints
    # carry this digest, and `lcflow diagnose` refuses a checkpoint whose
    # digest differs from its config's, so the hashed listing must not move
    cfg = _parse("[grid]\nnx = 32\nny = 32\nnz = 64\n"
                 "[physics]\neps = 0.01\n"
                 "[time]\ndt = 1e-3\nt_final = 0.05\nadaptive_dt = no\n"
                 "[ic]\nname = shear+twist\namplitude = 0.1\ntwist = 0.5\n"
                 "[diag]\ndiag_every = 25\n")
    assert config_hash(cfg).hex() == (
        "6ba144c405b56713c9e457e893f77ba6e013066273dfd75dad0621b439bac938")




def test_direct_construction_validates():
    cfg = SimConfig(nx=8, ny=8, nz=8, eps=0.5, dt=1e-3, t_final=0.1)
    cfg.validate()
    with pytest.raises(ConfigError):
        SimConfig(nx=8, ny=8, nz=8, eps=2.0, dt=1e-3, t_final=0.1).validate()
