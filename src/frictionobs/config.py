"""Flat key=value run configuration with dotted section prefixes.

Example:

    plant.m = 0.052
    friction.c_f = 0.2143
    friction.sigma = 2.0
    friction.beta = 0.002
    friction.s_scale = 2000
    observer.poles = -1300, -120
    sim.dt = 5e-4
    sim.t_end = 5.6
    scenario.pulses = 0.3,0.01,1.2; 1.35,0.01,-0.9

Every key has a default, so an empty file is a valid configuration. The
plant.*, friction.* and sim.* keys are the fields of PlantParams,
FrictionParams and SimConfig; observer.poles is the one gain setting.
Lines starting with '#' and blank lines are ignored. All module parameter
invariants are re-validated while building the typed objects; any problem
raises ConfigError.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .friction import FrictionParams
from .observer import ObserverGains, design_gains
from .plant import ImpulseTrain, PlantParams, SimConfig


class ConfigError(ValueError):
    """Unparseable or invalid configuration; message names the offender."""


DEFAULT_PULSES = "0.3,0.01,1.2; 1.35,0.01,-0.9; 2.4,0.01,1.0; 3.45,0.01,-1.1; 4.5,0.01,0.8"

# a key takes the type of its default; after the dot comes its dataclass field name
_DEFAULTS = {
    "plant.m": 0.052,
    "friction.c_f": 0.2143,
    "friction.sigma": 2.0,
    "friction.beta": 0.002,
    "friction.s_scale": 2000.0,
    "friction.z_floor": 1e-4,
    "friction.deadband": 1e-4,
    "observer.poles": "-1300, -120",  # passes validate_robust for this law (see README)
    "sim.dt": 5e-4,
    "sim.t_end": 5.6,
    "sim.noise_std": 2e-6,
    "sim.quant": 0.0,
    "sim.seed": 7,
    "sim.v_max": 1e3,
    "scenario.pulses": DEFAULT_PULSES,
}


@dataclass(frozen=True)
class Config:
    plant: PlantParams
    friction: FrictionParams
    sim: SimConfig
    scenario: ImpulseTrain
    gains: ObserverGains


def _parse_pulses(text: str) -> tuple[tuple[float, float, float], ...]:
    pulses = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = [p.strip() for p in chunk.split(",")]
        if len(parts) != 3:
            raise ConfigError(f"pulse '{chunk}' must be t_start,duration,amplitude")
        try:
            pulses.append(tuple(float(p) for p in parts))
        except ValueError as exc:
            raise ConfigError(f"pulse '{chunk}': {exc}") from exc
    return tuple(pulses)


def parse_poles(text: str, name: str) -> tuple[float, float]:
    """Two comma-separated poles; a ConfigError names the setting they came from."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise ConfigError(f"{name} must be two comma-separated values, got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from None


def parse_config(text: str) -> Config:
    """Build a validated Config from key=value text."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip().lower()
        if key not in _DEFAULTS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        raw[key] = value.strip()

    def get(key: str):
        default = _DEFAULTS[key]
        if key not in raw:
            return default
        try:
            return type(default)(raw[key])
        except ValueError:
            what = "an integer" if type(default) is int else "a number"
            raise ConfigError(f"{key}: not {what}: {raw[key]!r}") from None

    def section(name: str) -> dict:
        return {k.partition(".")[2]: get(k) for k in _DEFAULTS if k.startswith(name + ".")}

    try:
        plant = PlantParams(**section("plant"))
        friction = FrictionParams(**section("friction"))
        sim = SimConfig(**section("sim"))
        scenario = ImpulseTrain(_parse_pulses(get("scenario.pulses")))
        poles = parse_poles(get("observer.poles"), "observer.poles")
        gains = design_gains(poles, plant.m, friction.sigma / friction.beta)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return Config(plant=plant, friction=friction, sim=sim, scenario=scenario, gains=gains)


def load_config(path: str | Path) -> Config:
    p = Path(path)
    try:
        # a byte that is not UTF-8 becomes U+FFFD: harmless in a comment,
        # and in a key or value it fails the parse like any other typo; a
        # leading byte-order mark (as Notepad saves) is skipped
        text = p.read_text(encoding="utf-8-sig", errors="replace")
    except OSError as exc:
        raise ConfigError(f"cannot read config {p}: {exc}") from exc
    return parse_config(text)
