"""Fixed-step simulation of the 1-DOF plant m*x'' + f(x') = u.

Integration is semi-implicit Euler: each step first advances the friction
state with the current velocity (the exact viscous-lag update and the
scalar hysteresis kernel ``friction.advance``/``friction.level``, state kept
in local floats), then updates the velocity with the resulting force and
the position with the new velocity. The sample grid is exactly
k * dt for k = 0 .. floor(t_end/dt).

Every per-sample column is held as packed float64 values, 8 bytes a sample:
the loop reads u from the input array's buffer and writes x, v and f into
``array("d")`` buffers that the returned Trajectory's arrays share.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass

import numpy as np

from .friction import FrictionParams, advance, deadband_sign, level


class SimulationDiverged(RuntimeError):
    """Velocity exceeded the divergence bound, or overflowed to NaN; carries the time."""

    def __init__(self, t: float, v: float, bound: float):
        super().__init__(f"|v| = {abs(v):g} exceeded bound {bound:g} at t = {t:g} s")
        self.t = t
        self.v = v


@dataclass(frozen=True)
class PlantParams:
    """Moving mass m [kg], > 0."""

    m: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.m) and self.m > 0):
            raise ValueError(f"m must be finite and > 0, got {self.m!r}")


@dataclass(frozen=True)
class ImpulseTrain:
    """Input force as a train of rectangular pulses (t_start, duration, amplitude).

    Pulses must be sorted by start time, strictly positive in duration and
    non-overlapping. A pulse is active on [t_start, t_start + duration).
    """

    pulses: tuple[tuple[float, float, float], ...] = ()

    def __post_init__(self) -> None:
        prev_end = -math.inf
        for i, (t0, dur, amp) in enumerate(self.pulses):
            if not all(math.isfinite(v) for v in (t0, dur, amp)):
                raise ValueError(f"pulse {i} has non-finite fields")
            if dur <= 0.0:
                raise ValueError(f"pulse {i} duration must be > 0, got {dur!r}")
            if t0 < prev_end:
                raise ValueError(f"pulse {i} overlaps or precedes the previous one")
            prev_end = t0 + dur

    def sample(self, t: np.ndarray) -> np.ndarray:
        """Input force u at each time in t [N]."""
        u = np.zeros_like(t, dtype=float)
        for t0, dur, amp in self.pulses:
            # half-step guard so grid points landing on edges bin predictably
            u[(t >= t0 - 1e-12) & (t < t0 + dur - 1e-12)] = amp
        return u


@dataclass(frozen=True)
class SimConfig:
    """Grid, measurement and guard settings for a run.

    dt and t_end define the sample grid; noise_std and quant shape the
    displacement measurement (Gaussian noise, then floor-to-grid
    quantization); seed fixes the noise stream; v_max is the divergence
    guard on |v|.
    """

    dt: float
    t_end: float
    noise_std: float = 0.0
    quant: float = 0.0
    seed: int = 0
    v_max: float = 1e3

    def __post_init__(self) -> None:
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be finite and > 0, got {self.dt!r}")
        if not (math.isfinite(self.t_end) and self.t_end >= 0):
            raise ValueError(f"t_end must be finite and >= 0, got {self.t_end!r}")
        for name in ("noise_std", "quant"):
            val = getattr(self, name)
            if not (math.isfinite(val) and val >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {val!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")
        if not (math.isfinite(self.v_max) and self.v_max > 0):
            raise ValueError(f"v_max must be finite and > 0, got {self.v_max!r}")
        if not math.isfinite(self.t_end / self.dt):
            raise ValueError(f"t_end / dt must be finite, got {self.t_end!r} / {self.dt!r}")
        # a float64 column of this length could not even be addressed
        if self.n_samples * 8 > sys.maxsize:
            raise ValueError(
                f"t_end / dt = {self.t_end!r} / {self.dt!r} gives {self.n_samples:.3g} samples, "
                "too many to hold as float64 columns"
            )

    @property
    def n_samples(self) -> int:
        return int(math.floor(self.t_end / self.dt + 1e-9)) + 1


class GridError(ValueError):
    """Samples are not on a uniform time grid; carries the row index, 0-based over the data."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row


def grid_break(t: np.ndarray) -> int | None:
    """First row of t that breaks a uniform increasing grid, or None if none does.

    The first step dt = t[1] - t[0] must be positive and finite, and every
    later step must match it within max(1e-12, 1e-6 * dt). A non-finite
    timestamp always breaks the grid.
    """
    if len(t) and not math.isfinite(t[0]):
        return 0
    if len(t) < 2:
        return None
    dt = float(t[1] - t[0])
    if not 0.0 < dt < math.inf:
        return 1
    # written so that a NaN step fails the comparison
    off = ~(np.abs(np.diff(t) - dt) <= max(1e-12, 1e-6 * dt))
    return int(np.argmax(off)) + 1 if off.any() else None


def same_grid(a: np.ndarray, b: np.ndarray) -> bool:
    """True if a and b have one length and agree within max(1e-9, 1e-9 * max|a|).

    A NaN in either never agrees.
    """
    if len(a) != len(b):
        return False
    if len(a) == 0:
        return True
    tol = max(1e-9, 1e-9 * float(np.max(np.abs(a))))
    return bool(np.all(np.abs(a - b) <= tol))


@dataclass(frozen=True)
class Trajectory:
    """Simulated run on a uniform grid: t, x [m], v [m/s], f [N], u [N]."""

    t: np.ndarray
    x: np.ndarray
    v: np.ndarray
    f: np.ndarray
    u: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.t)
        for name in ("x", "v", "f", "u"):
            if len(getattr(self, name)) != n:
                raise ValueError("trajectory columns must have equal length")

    def __len__(self) -> int:
        return len(self.t)


@dataclass(frozen=True)
class Measured:
    """Measured sequence: t, noisy/quantized displacement x [m], input u [N].

    The one checked record that the observer and the fitter consume. The
    columns must have one length and x and u must be finite (ValueError
    otherwise). t must be a uniform increasing grid: a row that breaks it,
    a non-finite timestamp included, raises GridError naming that row. dt is
    the grid step, 0.0 below 2 samples.
    """

    t: np.ndarray
    x: np.ndarray
    u: np.ndarray

    def __post_init__(self) -> None:
        if not (len(self.t) == len(self.x) == len(self.u)):
            raise ValueError("measured columns must have equal length")
        for name in ("x", "u"):
            ok = np.isfinite(getattr(self, name))
            if not ok.all():
                raise ValueError(f"measured {name} is not finite at row {int(np.argmin(ok))}")
        row = grid_break(self.t)
        if row is not None:
            raise GridError(row, f"non-uniform grid at row {row}: t = {float(self.t[row])!r}")

    def __len__(self) -> int:
        return len(self.t)

    @property
    def dt(self) -> float:
        return float(self.t[1] - self.t[0]) if len(self.t) >= 2 else 0.0


def _integrate(
    pp: PlantParams,
    fp: FrictionParams,
    t: np.ndarray,
    u: np.ndarray,
    dt: float,
    v_max: float,
) -> Trajectory:
    """Run the plant from rest under u on the grid t = k*dt, dt finite and > 0."""
    ok = np.isfinite(u)
    if not ok.all():
        raise ValueError(f"input u is not finite at row {int(np.argmin(ok))}")
    n = len(u)
    # packed float64 columns, 8 bytes a sample where a list of floats takes
    # 32; a memoryview stores a float in half the time array item assignment takes
    u_d = memoryview(u)
    xs, vs, fs = (memoryview(array("d", [0.0]) * n) for _ in range(3))
    m = pp.m
    sigma, c_f, s_scale, z_floor, deadband = fp.sigma, fp.c_f, fp.s_scale, fp.z_floor, fp.deadband
    decay = math.exp(-dt / fp.beta)
    x = v = f_v = 0.0
    # hysteresis state: see friction.advance
    z = f_r = 0.0
    d = 0
    sat = False
    for k in range(n):
        # viscous lag, exact with v held over the step
        target = sigma * v
        f_v = target + (f_v - target) * decay
        z, f_r, d, sat = advance(z, f_r, d, sat, v * dt, deadband_sign(v, deadband),
                                 s_scale, z_floor)
        f_k = c_f * level(z, f_r, d, sat, z_floor) + f_v
        xs[k] = x
        vs[k] = v
        fs[k] = f_k
        if k < n - 1:
            v += dt * (u_d[k] - f_k) / m
            # with u finite, a NaN v comes from an overflow (inf - inf in the
            # lag force), and it fails this comparison too
            if not abs(v) <= v_max:
                raise SimulationDiverged((k + 1) * dt, v, v_max)
            x += dt * v
    return Trajectory(t, np.frombuffer(xs), np.frombuffer(vs), np.frombuffer(fs), u)


def simulate(
    pp: PlantParams,
    fp: FrictionParams,
    train: ImpulseTrain,
    cfg: SimConfig,
) -> Trajectory:
    """Run the plant from rest under an impulse train.

    Returns a Trajectory with exactly floor(t_end/dt)+1 samples at k*dt.
    Raises SimulationDiverged if |v| exceeds cfg.v_max or overflows to NaN.
    """
    t = np.arange(cfg.n_samples) * cfg.dt
    return _integrate(pp, fp, t, train.sample(t), cfg.dt, cfg.v_max)


def simulate_forced(
    pp: PlantParams,
    fp: FrictionParams,
    u: np.ndarray,
    dt: float,
    v_max: float = 1e3,
) -> Trajectory:
    """Run the plant from rest under an arbitrary per-sample input sequence.

    u must be finite and dt finite and > 0 (ValueError otherwise);
    divergence is as in simulate.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and > 0, got {dt!r}")
    u = np.asarray(u, dtype=float)
    return _integrate(pp, fp, np.arange(len(u)) * dt, u, dt, v_max)


def measure(traj: Trajectory, cfg: SimConfig) -> Measured:
    """Displacement measurement: x + Gaussian noise, floor-quantized to a grid.

    Quantization maps x to floor(x/quant)*quant (toward minus infinity);
    quant = 0 disables it. The noise stream is drawn from
    numpy.random.default_rng(cfg.seed), so a fixed seed reproduces the
    sequence bit-identically. An x that overflows to inf or NaN raises
    ValueError naming the row. The result shares t and u with traj, and x too
    when neither noise nor quantization applies.
    """
    x = traj.x
    # finite settings can still overflow x (a huge noise_std, a subnormal
    # quant); Measured then rejects the non-finite x
    with np.errstate(over="ignore"):
        if cfg.noise_std > 0:
            rng = np.random.default_rng(cfg.seed)
            x = x + rng.normal(0.0, cfg.noise_std, size=len(x))
        if cfg.quant > 0:
            x = np.floor(x / cfg.quant) * cfg.quant
    return Measured(traj.t, x, traj.u)
