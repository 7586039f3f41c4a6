"""Configuration parsing tests."""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frictionobs import ConfigError, config, load_config, parse_config

KEYS = (
    "plant.m", "friction.c_f", "friction.sigma", "friction.beta", "friction.s_scale",
    "friction.z_floor", "observer.l1", "observer.l2", "observer.deadband", "observer.poles",
    "sim.dt", "sim.t_end", "sim.noise_std", "sim.quant", "sim.seed", "sim.v_max",
    "scenario.pulses",
)
VALUES = st.one_of(
    st.text(max_size=16),
    st.floats().map(repr),
    st.integers(-(10**30), 10**30).map(str),
    st.lists(st.floats(-10, 10).map(repr), max_size=4).map(",".join),
    st.sampled_from(["nan", "inf", "1e400", "-350, -10", "0.1,0.01,1; 0.2,0.01,-1", ";", ","]),
)
LINES = st.one_of(
    st.text(max_size=24),
    st.builds("{} = {}".format, st.sampled_from(KEYS), VALUES),
)


def test_empty_config_gets_defaults():
    cfg = parse_config("")
    assert cfg.plant.m == 0.052
    assert cfg.friction.c_f == 0.2143
    assert cfg.friction.sigma == 2.0
    assert cfg.friction.beta == 0.002
    assert cfg.friction.s_scale == 2000.0
    assert cfg.friction.z_floor == 1e-4 and cfg.friction.deadband == 1e-4
    assert cfg.sim.dt == 5e-4 and cfg.sim.t_end == 5.6 and cfg.sim.seed == 7
    assert cfg.gains.l1 == 360.0 and cfg.gains.l2 == -182.0
    assert len(cfg.scenario.pulses) == 5


def test_comments_and_blanks_ignored():
    cfg = parse_config("# a comment\n\nplant.m = 0.1\n   \n# another\n")
    assert cfg.plant.m == 0.1


def test_unknown_key_names_line():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("plant.m = 0.052\nplant.mass = 1.0\n")


def test_missing_equals():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config("plant.m 0.052\n")


def test_bad_number():
    with pytest.raises(ConfigError, match="not a number"):
        parse_config("friction.sigma = fast\n")
    with pytest.raises(ConfigError, match="not an integer"):
        parse_config("sim.seed = 1.5\n")


def test_invalid_value_carries_module_message():
    with pytest.raises(ConfigError, match="beta"):
        parse_config("friction.beta = -0.002\n")


def test_pulse_parsing():
    cfg = parse_config("scenario.pulses = 0.1,0.01,1.5; 0.5, 0.02, -0.5\n")
    assert cfg.scenario.pulses == ((0.1, 0.01, 1.5), (0.5, 0.02, -0.5))
    empty = parse_config("scenario.pulses =\n")
    assert empty.scenario.pulses == ()


def test_pulse_errors():
    with pytest.raises(ConfigError, match="t_start,duration,amplitude"):
        parse_config("scenario.pulses = 0.1,0.01\n")
    with pytest.raises(ConfigError):
        parse_config("scenario.pulses = 0.1,abc,1.0\n")
    with pytest.raises(ConfigError):  # overlap caught by ImpulseTrain
        parse_config("scenario.pulses = 0.1,0.2,1.0; 0.15,0.1,1.0\n")


def test_poles_override_gains():
    cfg = parse_config(
        "observer.poles = -350, -10\nfriction.sigma = 2.0\nfriction.beta = 0.002\n"
    )
    sob = 2.0 / 0.002
    assert cfg.gains.l1 == 360.0
    assert cfg.gains.l2 == sob - 0.052 * 3500.0


def test_poles_errors():
    with pytest.raises(ConfigError, match="two comma-separated"):
        parse_config("observer.poles = -350\n")
    with pytest.raises(ConfigError):
        parse_config("observer.poles = -350, ten\n")
    with pytest.raises(ConfigError):  # design rejects positive poles
        parse_config("observer.poles = -350, 10\n")


def test_explicit_gains_used_without_poles():
    cfg = parse_config("observer.l1 = 710.0\nobserver.l2 = -1971.75\n")
    assert cfg.gains.l1 == 710.0
    assert cfg.gains.l2 == -1971.75


def test_deadband_validation():
    with pytest.raises(ConfigError, match="deadband"):
        parse_config("observer.deadband = -1e-4\n")
    with pytest.raises(ConfigError, match="deadband"):
        parse_config("observer.deadband = nan\n")
    assert parse_config("observer.deadband = 0\n").friction.deadband == 0.0


def test_kappa_is_not_a_key():
    # kappa follows from c_f, s_scale and z_floor
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("friction.kappa = 1e7\n")


def test_readme_configuration_block_matches_the_defaults():
    # the keys in README's "Configuration" block are config._DEFAULTS, with their defaults
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Configuration", 1)[1].split("```\n", 1)[1].split("```", 1)[0]
    documented = {}
    for line in block.splitlines():
        key, _, value = line.split("#", 1)[0].partition("=")
        documented[key.strip()] = value.strip()
    assert list(documented) == list(config._DEFAULTS)
    for key, default in config._DEFAULTS.items():
        value = documented[key]
        if value.endswith("..."):
            # a long default is shown truncated
            assert default.startswith(value[:-3]), key
        else:
            assert type(default)(value) == default, key


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "nope.cfg")
    p = tmp_path / "ok.cfg"
    p.write_text("plant.m = 0.08\n", encoding="utf-8")
    assert load_config(p).plant.m == 0.08


@settings(max_examples=400, deadline=None)
@given(st.lists(LINES, max_size=8).map("\n".join))
def test_parse_config_raises_only_config_error(text):
    # any text is a config or a ConfigError; no other exception escapes
    try:
        parse_config(text)
    except ConfigError:
        pass
