"""Friction observation toolkit for a 1-DOF mass under presliding friction.

The package covers the full loop: the friction model (``friction``), forward
simulation and the measured record (``plant``, on the time grid of
``grid``), observer gain design and estimation (``observer``), parameter
fitting (``ident``) and a CSV-based CLI (``csvio``, ``config``, ``cli``).

Each public name is imported from its submodule on first access, so
``import frictionobs`` loads no numpy. The CLI module (``frictionobs.cli``)
sets numpy's BLAS thread count before numpy loads, which it could not do if
this package imported numpy first.
"""

import importlib

# the submodule that defines each public name
_SUBMODULE = {
    **dict.fromkeys(("Config", "ConfigError", "load_config", "parse_config"), "config"),
    **dict.fromkeys(("ESTIMATES_HEADER", "MEASURED_HEADER", "SIM_HEADER", "CsvSchemaError",
                     "read_columns", "write_columns"), "csvio"),
    **dict.fromkeys(("FrictionParams", "advance", "level", "stiffness"), "friction"),
    **dict.fromkeys(("FitProblem", "FitResult", "THETA_NAMES", "fit"), "ident"),
    **dict.fromkeys(("Estimates", "ObserverDiverged", "ObserverGains", "RobustReport",
                     "design_gains", "e_obs_series", "observer_matrix", "observer_update",
                     "rms", "run_observer", "validate_robust"), "observer"),
    "GridError": "grid",
    **dict.fromkeys(("ImpulseTrain", "Measured", "PlantParams", "SimConfig",
                     "SimulationDiverged", "Trajectory", "measure", "simulate",
                     "simulate_forced"), "plant"),
}

__version__ = "0.1.0"

__all__ = [*_SUBMODULE, "__version__"]


def __getattr__(name: str):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SUBMODULE[name]}", __name__), name)
    # later lookups find the name without calling this function
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_SUBMODULE})
