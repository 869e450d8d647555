import dataclasses
import math
from pathlib import Path

import pytest

from cqwalk import config, harness
from cqwalk.config import (ConfigError, ExperimentConfig, check_memory,
                           config_from_mapping, config_keys, load_config,
                           parse_config_text, parse_field_value,
                           validate_config)
from cqwalk.harness import SweepSpec, sweep_grid

GOOD = """
# comment line
n_steps = 12
g_over_2pi_MHz = 45.5   # trailing comment
omega_over_2pi_MHz = 90
mu_over_2pi_MHz = auto

coin0 = one
scale = 0.5
t1_cavity_us = inf
format = json
"""


def test_parse_happy_path():
    got = parse_config_text(GOOD)
    assert got["n_steps"] == 12
    assert got["g_over_2pi_mhz"] == pytest.approx(45.5)
    assert got["mu_over_2pi_mhz"] is None
    assert got["coin0"] == "one"
    assert got["t1_cavity_us"] == math.inf
    assert got["format"] == "json"
    cfg = config_from_mapping(got)
    assert cfg.n_steps == 12
    assert cfg.scale == pytest.approx(0.5)


@pytest.mark.parametrize("text,fragment", [
    ("whatever = 3", "unknown key"),
    ("n_steps 3", "key = value"),
    ("n_steps = 3\nn_steps = 4", "duplicate"),
    ("n_steps = many", "expected integer"),
    ("renormalize = true", "unknown key"),    # removed key
    ("scale = nan", "nan"),
    ("coin0 = left", "not one of"),
    ("g_over_2pi_MHz = fast", "expected number"),
    ("n_steps = 2\nrepresentation = full", "line 2: unknown key"),
    ("fock_cutoff = 3", "line 1: unknown key"),
])
def test_parse_errors_carry_line_info(text, fragment):
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    assert fragment in str(err.value)
    assert "line" in str(err.value)


@pytest.mark.parametrize("overrides", [
    {"n_steps": 0},
    {"g_over_2pi_mhz": -5.0},
    {"g_over_2pi_mhz": math.inf},
    {"theta_rad": 0.0},
    {"theta_rad": math.pi},
    {"scale": 0.0},
    {"t1_ge_us": -1.0},
    {"omega_over_2pi_mhz": 0.0},
    {"coin0": "left"},
    {"format": "xml"},
    {"phi_rad": math.nan},
    {"mu_over_2pi_mhz": -2.0},
    {"n_steps": 2.5},
    {"n_steps": 2.0},
    {"n_steps": True},
    {"n_steps": "3"},
])
def test_range_validation(overrides):
    with pytest.raises(ConfigError):
        config_from_mapping(overrides)


def test_n_steps_bounded_by_physical_memory(monkeypatch):
    # 16 (3N+4)^2 bytes per dense state: about 1.4 TB at N = 10^5
    with pytest.raises(ConfigError, match="physical memory"):
        check_memory(ExperimentConfig(n_steps=10**5))
    # where the OS does not say, the host's memory is unknown

    def unknown(name):
        raise ValueError(f"unrecognized configuration name {name}")

    monkeypatch.setattr(config.os, "sysconf", unknown)
    assert config._physical_memory() is None


def test_noise_free_run_is_charged_for_state_vectors(monkeypatch):
    # a noise-free run holds psi, not rho: on a 512 MiB host N = 1000 is
    # 6 dense states (0.8 GiB) noisy but 64 vectors (3 MB) noise-free
    monkeypatch.setattr(config, "_physical_memory", lambda: 2**29)
    with pytest.raises(ConfigError, match="dense .* physical memory"):
        check_memory(ExperimentConfig(n_steps=1000))
    lifetimes = ("t1_cavity_us", "t1_ge_us", "t1_ef_us", "t1_gf_us",
                 "tphi_e_us", "tphi_f_us")
    noise_free = ExperimentConfig(n_steps=1000,
                                  **dict.fromkeys(lifetimes, math.inf))
    check_memory(noise_free)


def test_sweep_is_charged_for_its_rows(monkeypatch):
    # every row of a sweep keeps P_me and P_id, at most 2 (n+1) float64s,
    # and _ROW_BYTES of its own: a noise-free n_steps 1..400 sweep is
    # charged 3.4 MB of rows beside its largest run's 1.23 MB, so on a
    # 2 MiB host the run fits but the sweep does not, and it is refused
    # before any config but its largest is built
    lifetimes = ("t1_cavity_us", "t1_ge_us", "t1_ef_us", "t1_gf_us",
                 "tphi_e_us", "tphi_f_us")
    base = ExperimentConfig(**dict.fromkeys(lifetimes, math.inf))
    spec = SweepSpec(axis="n_steps", values=tuple(range(1, 401)))
    run = 16 * config._VECTOR_COPIES * (3 * 400 + 4)
    rows = 400 * (16 * 401 + config._ROW_BYTES)
    assert run < 2**21 < run + rows
    monkeypatch.setattr(config, "_physical_memory", lambda: 2**21)
    check_memory(dataclasses.replace(base, n_steps=400))
    built = []
    monkeypatch.setattr(harness, "validate_config",
                        lambda cfg: built.append(cfg) or cfg)
    with pytest.raises(ConfigError, match="n_steps = 400 .* one run, with its"
                                          " sweep of 400 rows, more than"):
        sweep_grid(base, spec)
    assert len(built) == 1
    assert len(sweep_grid(base, SweepSpec(axis="n_steps",
                                          values=tuple(range(1, 201))))) == 200


def test_readme_lists_every_key_with_its_default():
    # the README's "All keys, with defaults" block names each config key
    # once, in field order, with a default that parses to the field's
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("All keys, with defaults:", 1)[1]
    block = block.split("```", 2)[1].strip()
    listed = [[part.strip() for part in line.split("#")[0].split("=")]
              for line in block.splitlines()]
    keys = config_keys()
    assert [key for key, _ in listed] == list(keys)
    for key, raw in listed:
        field = next(f for f in dataclasses.fields(ExperimentConfig)
                     if f.name == keys[key])
        value = parse_field_value(field.name, raw) if raw else None
        assert value == field.default, key


def test_defaults_describe_baseline_device():
    cfg = ExperimentConfig()
    assert cfg.n_steps == 10
    assert cfg.g_over_2pi_mhz == 50.0
    assert cfg.omega_over_2pi_mhz == 100.0
    assert cfg.mu_over_2pi_mhz is None
    assert cfg.theta_rad == pytest.approx(math.pi / 4)
    assert cfg.coin0 == "plus-i"
    assert cfg.t1_cavity_us == 10.0
    assert cfg.tphi_e_us == 5.0
    rates = cfg.rates()
    assert rates.kappa == pytest.approx(0.1)
    assert rates.gamma_phi_f == pytest.approx(0.2)
    assert validate_config(cfg) is cfg


def test_scale_multiplies_lifetimes():
    r1 = ExperimentConfig(scale=1.0).rates()
    r5 = ExperimentConfig(scale=5.0).rates()
    assert r5.kappa == pytest.approx(r1.kappa / 5.0)
    assert r5.gamma_phi_e == pytest.approx(r1.gamma_phi_e / 5.0)
    with pytest.raises(ValueError, match="lifetime factor"):
        ExperimentConfig(scale=0.0).rates()


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.cfg")


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "walk.cfg"
    path.write_text(GOOD)
    cfg = load_config(path)
    assert cfg.n_steps == 12
    assert cfg.format == "json"


def test_load_config_range_error_names_the_key(tmp_path):
    # a value that parses but is out of range is refused by its key
    path = tmp_path / "walk.cfg"
    path.write_text("n_steps = 0\n")
    with pytest.raises(ConfigError, match="n_steps"):
        load_config(path)


def test_parse_field_value_override_path():
    assert parse_field_value("n_steps", "7") == 7
    assert parse_field_value("mu_over_2pi_mhz", "auto") is None
    with pytest.raises(ConfigError):
        parse_field_value("made_up", "1")
    for removed in ("representation", "renormalize"):
        with pytest.raises(ConfigError, match="unknown field"):
            parse_field_value(removed, "full")


def test_derived_objects():
    cfg = ExperimentConfig(n_steps=3)
    assert abs(cfg.coin().c1) == pytest.approx(1 / math.sqrt(2))
