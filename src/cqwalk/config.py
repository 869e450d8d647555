"""Experiment configuration and the flat key = value file format.

A config file is plain text: one `key = value` pair per line, `#`
starts a comment, blank lines are ignored.  A key is its ExperimentConfig
field's name with _mhz written _MHz, case-sensitive and spelled like the
report columns, e.g.

    # ten-step walk on the baseline device
    n_steps = 10
    g_over_2pi_MHz = 50
    omega_over_2pi_MHz = 100
    coin0 = plus-i
    scale = 1.0

Unknown keys, duplicate keys and malformed values raise ConfigError
with the offending line number; an out-of-range value, found after
parsing, is named by its key (or by the pulse or rate it makes
overflow).  Lifetimes accept `inf` to switch a
channel off; `mu_over_2pi_MHz = auto` makes the second coupling track
the first.
"""

from __future__ import annotations

import math
import numbers
import os
import typing
from dataclasses import dataclass, fields, replace

from .idealwalk import COIN_PRESETS, CoinState, coin_preset
from .lindblad import DecoherenceRates
from .protocol import segment_durations

# Dense (3N+4) x (3N+4) complex arrays alive at the peak of one noisy
# run or sweep group of largest n_steps N: the state, one readout and the
# kernel's and checks' temporaries (the initial state is a vector and the
# segment Hamiltonians are 3x3 stacks; a group drops each readout before
# it goes on).  Under tracemalloc, noisy runs at N = 40..320 peak at 2.5
# to 3.1 and n_steps 1..N sweeps at 4.3 (N = 40) to 3.7 (N = 160); this
# is 1.25 times the largest, rounded up.
_STATE_COPIES = 6
# Complex vectors of length 3N+4 at the peak of a noise-free run, which
# holds psi, not rho: about 35 under tracemalloc at N = 80, 320 and 1000.
_VECTOR_COPIES = 64
# Bytes a sweep row holds at the peak of run_sweep beside its P_me and P_id
# data (its value, grid config, group key and Report): 1588 (noise-free)
# to 1636 (noisy) under tracemalloc, in scale sweeps of 1000 to 3000
# points at n_steps 1 and 4; this is 1.25 times the largest, rounded up.
_ROW_BYTES = 2048

REPORT_FORMATS = ("csv", "json")

# Each lifetime field and the DecoherenceRates field of its channel.
_LIFETIMES = {"t1_cavity_us": "kappa", "t1_ge_us": "gamma_ge",
              "t1_ef_us": "gamma_ef", "t1_gf_us": "gamma_gf",
              "tphi_e_us": "gamma_phi_e", "tphi_f_us": "gamma_phi_f"}


class ConfigError(ValueError):
    """Bad key, value or syntax in a configuration source."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to run one walk experiment.

    Laboratory units: frequencies in MHz (omega / 2pi), times in us.
    scale multiplies every decoherence lifetime; lifetimes of math.inf
    disable their channel entirely.
    """

    n_steps: int = 10
    g_over_2pi_mhz: float = 50.0
    omega_over_2pi_mhz: float = 100.0
    mu_over_2pi_mhz: float | None = None
    theta_rad: float = math.pi / 4
    phi_rad: float = -math.pi / 2
    coin0: str = "plus-i"
    scale: float = 1.0
    t1_cavity_us: float = 10.0
    t1_ge_us: float = 10.0
    t1_ef_us: float = 10.0
    t1_gf_us: float = 10.0
    tphi_e_us: float = 5.0
    tphi_f_us: float = 5.0
    output: str | None = None
    format: str = "csv"

    # -- derived objects ----------------------------------------------

    def rates(self) -> DecoherenceRates:
        """The channel rates in 1/us: 1 / lifetime (0 for an infinite
        one), divided by scale: every lifetime times scale, inverted."""
        if self.scale <= 0:
            raise ValueError("lifetime factor must be positive")
        lifetimes = {rate: getattr(self, name)
                     for name, rate in _LIFETIMES.items()}
        return DecoherenceRates(**{
            rate: (0.0 if math.isinf(t) else 1.0 / t) / self.scale
            for rate, t in lifetimes.items()})

    def coin(self) -> CoinState:
        return coin_preset(self.coin0)


# The grammar follows ExperimentConfig's fields (module docstring): a
# value parses as its field's annotated type, "auto" or "none" giving
# None where the field is an optional number.
_KEYS = {f.name.replace("_mhz", "_MHz"): f.name
         for f in fields(ExperimentConfig)}
_TYPES = {name: set(typing.get_args(hint) or [hint]) for name, hint
          in typing.get_type_hints(ExperimentConfig).items()}

_CHOICES = {"coin0": tuple(COIN_PRESETS), "format": REPORT_FORMATS}


def field_type(field_name: str) -> type:
    """The type a value of the field parses as: int, float or str."""
    (kind,) = _TYPES[field_name] - {type(None)}
    return kind


def _parse_value(field_name: str, raw: str, where: str):
    raw = raw.strip()
    kind = field_type(field_name)
    if kind is str:
        if field_name in _CHOICES and raw not in _CHOICES[field_name]:
            raise ConfigError(f"{where}: {raw!r} not one of "
                              f"{_CHOICES[field_name]}")
        return raw
    if type(None) in _TYPES[field_name] and raw.lower() in ("auto", "none"):
        return None
    if kind is int:
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{where}: expected integer, got {raw!r}") from None
    try:
        val = float(raw)
    except ValueError:
        raise ConfigError(f"{where}: expected number, got {raw!r}") from None
    if math.isnan(val):
        raise ConfigError(f"{where}: nan is not a valid value")
    return val


def parse_field_value(field_name: str, raw: str,
                      where: str = "override") -> object:
    """Parse one value string for a config field (CLI override path)."""
    if field_name not in _TYPES:
        raise ConfigError(f"{where}: unknown field {field_name!r}")
    return _parse_value(field_name, raw, where)


def config_keys() -> dict[str, str]:
    """File-grammar key -> dataclass field name, in declaration order."""
    return dict(_KEYS)


def parse_config_text(text: str) -> dict[str, object]:
    """Parse the flat grammar into a field -> value mapping."""
    seen: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, "
                              f"got {stripped!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        field_name = _KEYS[key]
        if field_name in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen[field_name] = _parse_value(field_name, raw, f"line {lineno}")
    return seen


def validate_config(cfg: ExperimentConfig) -> ExperimentConfig:
    """Range checks shared by every entry point."""
    def bad(msg):
        raise ConfigError(msg)

    if (isinstance(cfg.n_steps, bool)
            or not isinstance(cfg.n_steps, numbers.Integral)):
        bad(f"n_steps must be an integer, not {cfg.n_steps!r}")
    if cfg.n_steps < 1:
        bad("n_steps must be >= 1")
    for key in ("g_over_2pi_MHz", "omega_over_2pi_MHz"):
        v = getattr(cfg, _KEYS[key])
        if not (v > 0 and math.isfinite(v)):
            bad(f"{key} must be positive and finite")
    if cfg.mu_over_2pi_mhz is not None and not (
            cfg.mu_over_2pi_mhz > 0 and math.isfinite(cfg.mu_over_2pi_mhz)):
        bad("mu_over_2pi_MHz must be positive and finite (or auto)")
    if not 0 < cfg.theta_rad < math.pi / 2:
        bad("theta_rad must lie in (0, pi/2)")
    if not math.isfinite(cfg.phi_rad):
        bad("phi_rad must be finite")
    if not all(map(math.isfinite, segment_durations(cfg))):
        bad("coupling or drive too small: a pulse would last forever")
    if not (cfg.scale > 0 and math.isfinite(cfg.scale)):
        bad("scale must be positive and finite")
    for name in _LIFETIMES:
        if not getattr(cfg, name) > 0:
            bad(f"{name} must be positive (inf to disable)")
    try:
        cfg.rates()
    except ValueError as exc:          # a lifetime so short its rate is inf
        bad(f"lifetime times scale too short: {exc}")
    for name, choices in _CHOICES.items():
        if getattr(cfg, name) not in choices:
            bad(f"{name} must be one of {choices}")
    return cfg


def check_memory(cfg: ExperimentConfig, rows: float = 0,
                 noise_free: bool = False) -> None:
    """ConfigError if the run of cfg, a valid config, beside rows sweep
    rows of at most its n_steps would need more than the host's physical
    memory.  A row holds P_me and P_id, n_steps + 1 float64s each, and
    _ROW_BYTES of its own.  The run is charged as noise-free when every
    rate of cfg is 0 or noise_free is set (the exact walk alone is
    charged as one)."""
    noise_free = noise_free or cfg.rates() == DecoherenceRates()
    dim = 3 * cfg.n_steps + 4
    copies = _VECTOR_COPIES if noise_free else _STATE_COPIES
    need = 16 * copies * (dim if noise_free else dim**2)
    memory = _physical_memory() or math.inf
    sweep = ""
    if rows and need <= memory:        # rows are named beside a run that fits
        need += rows * (16 * (cfg.n_steps + 1) + _ROW_BYTES)
        sweep = f", with its sweep of {rows:g} rows"
    if need > memory:
        # past n_steps of about 1e149, need is an int no float can hold
        gib = need / 2**30 if need < 2**1000 else math.inf
        raise ConfigError(
            f"n_steps = {cfg.n_steps} needs about {gib:.3g} GiB for"
            f" {copies} {'state vectors' if noise_free else 'dense states'}"
            f" of dimension {dim} in one run{sweep}, more than the host's"
            f" {memory / 2**30:.3g} GiB of physical memory")


def _physical_memory() -> int | None:
    """Bytes of the host's physical memory, or None where the OS does not
    say.  A container or cgroup memory limit is not seen here."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def config_from_mapping(mapping: dict[str, object],
                        base: ExperimentConfig | None = None) -> ExperimentConfig:
    base = base if base is not None else ExperimentConfig()
    return validate_config(replace(base, **mapping))


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config_from_mapping(parse_config_text(text))
