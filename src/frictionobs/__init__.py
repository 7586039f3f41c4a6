"""Friction observation toolkit for a 1-DOF mass under presliding friction.

The package covers the full loop: friction model, forward simulation,
observer gain design, reduced-order estimation and parameter fitting,
with CSV-based CLI entry points for batch work.
"""

from .config import Config, ConfigError, load_config, parse_config
from .csvio import (
    ESTIMATES_HEADER,
    MEASURED_HEADER,
    SIM_HEADER,
    CsvSchemaError,
    read_columns,
    write_columns,
)
from .friction import (
    DEFAULT_DEADBAND,
    DEFAULT_Z_FLOOR,
    FrictionParams,
    advance,
    deadband_sign,
    level,
    stiffness,
)
from .gains import ObserverGains, RobustReport, design_gains, validate_robust
from .ident import FitProblem, FitResult, THETA_NAMES, fit, residual
from .observer import (
    Estimates,
    ObserverDiverged,
    e_obs_series,
    observer_matrix,
    observer_update,
    rms,
    run_observer,
)
from .plant import (
    GridError,
    ImpulseTrain,
    Measured,
    PlantParams,
    SimConfig,
    SimulationDiverged,
    Trajectory,
    measure,
    simulate,
    simulate_forced,
)

__version__ = "0.1.0"

__all__ = [
    "Config",
    "ConfigError",
    "load_config",
    "parse_config",
    "ESTIMATES_HEADER",
    "MEASURED_HEADER",
    "SIM_HEADER",
    "CsvSchemaError",
    "read_columns",
    "write_columns",
    "DEFAULT_DEADBAND",
    "DEFAULT_Z_FLOOR",
    "FrictionParams",
    "advance",
    "deadband_sign",
    "level",
    "stiffness",
    "ObserverGains",
    "RobustReport",
    "design_gains",
    "validate_robust",
    "FitProblem",
    "FitResult",
    "THETA_NAMES",
    "fit",
    "residual",
    "Estimates",
    "GridError",
    "ObserverDiverged",
    "e_obs_series",
    "observer_matrix",
    "observer_update",
    "rms",
    "run_observer",
    "ImpulseTrain",
    "Measured",
    "PlantParams",
    "SimConfig",
    "SimulationDiverged",
    "Trajectory",
    "measure",
    "simulate",
    "simulate_forced",
    "__version__",
]
