"""Flat key=value run configuration with dotted section prefixes.

Example:

    plant.m = 0.052
    friction.c_f = 0.2143
    friction.sigma = 2.0
    friction.beta = 0.002
    friction.s_scale = 2000
    observer.poles = -350, -10
    sim.dt = 5e-4
    sim.t_end = 5.6
    scenario.pulses = 0.3,0.01,1.2; 1.35,0.01,-0.9

Every key has a default, so an empty file is a valid configuration. Lines
starting with '#' and blank lines are ignored. All module parameter
invariants are re-validated while building the typed objects; any problem
raises ConfigError.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .friction import FrictionParams
from .gains import ObserverGains, design_gains
from .plant import ImpulseTrain, PlantParams, SimConfig


class ConfigError(ValueError):
    """Unparseable or invalid configuration; message names the offender."""


DEFAULT_PULSES = "0.3,0.01,1.2; 1.35,0.01,-0.9; 2.4,0.01,1.0; 3.45,0.01,-1.1; 4.5,0.01,0.8"

_FLOAT_KEYS = {
    "plant.m": 0.052,
    "friction.c_f": 0.2143,
    "friction.sigma": 2.0,
    "friction.beta": 0.002,
    "friction.s_scale": 2000.0,
    "friction.z_floor": 1e-4,
    "observer.l1": 360.0,
    "observer.l2": -182.0,
    "observer.deadband": 1e-4,  # the friction law's reversal deadband
    "sim.dt": 5e-4,
    "sim.t_end": 5.6,
    "sim.noise_std": 2e-6,
    "sim.quant": 0.0,
    "sim.v_max": 1e3,
}
_INT_KEYS = {"sim.seed": 7}
_STR_KEYS = {"scenario.pulses": DEFAULT_PULSES, "observer.poles": None}


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
        if key not in _FLOAT_KEYS and key not in _INT_KEYS and key not in _STR_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        raw[key] = value.strip()

    def fval(key: str) -> float:
        if key in raw:
            try:
                return float(raw[key])
            except ValueError as exc:
                raise ConfigError(f"{key}: not a number: {raw[key]!r}") from exc
        return _FLOAT_KEYS[key]

    def ival(key: str) -> int:
        if key in raw:
            try:
                return int(raw[key])
            except ValueError as exc:
                raise ConfigError(f"{key}: not an integer: {raw[key]!r}") from exc
        return _INT_KEYS[key]

    try:
        plant = PlantParams(m=fval("plant.m"))
        friction = FrictionParams(
            c_f=fval("friction.c_f"),
            sigma=fval("friction.sigma"),
            beta=fval("friction.beta"),
            s_scale=fval("friction.s_scale"),
            z_floor=fval("friction.z_floor"),
            deadband=fval("observer.deadband"),
        )
        sim = SimConfig(
            dt=fval("sim.dt"),
            t_end=fval("sim.t_end"),
            noise_std=fval("sim.noise_std"),
            quant=fval("sim.quant"),
            seed=ival("sim.seed"),
            v_max=fval("sim.v_max"),
        )
        scenario = ImpulseTrain(_parse_pulses(raw.get("scenario.pulses", DEFAULT_PULSES)))
        if raw.get("observer.poles"):
            parts = [p.strip() for p in raw["observer.poles"].split(",")]
            if len(parts) != 2:
                raise ConfigError("observer.poles must be two comma-separated values")
            try:
                poles = (float(parts[0]), float(parts[1]))
            except ValueError as exc:
                raise ConfigError(f"observer.poles: {exc}") from exc
            sob = friction.sigma / friction.beta
            gains = design_gains(poles, plant.m, sob)
        else:
            gains = ObserverGains(l1=fval("observer.l1"), l2=fval("observer.l2"))
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return Config(plant=plant, friction=friction, sim=sim, scenario=scenario, gains=gains)


def load_config(path: str | Path) -> Config:
    p = Path(path)
    try:
        # a byte that is not UTF-8 becomes U+FFFD: harmless in a comment,
        # and in a key or value it fails the parse like any other typo
        text = p.read_text(encoding="utf-8", errors="replace")
    except OSError as exc:
        raise ConfigError(f"cannot read config {p}: {exc}") from exc
    return parse_config(text)
