"""Parameter identification from a measured displacement response.

Fits theta = (sigma, beta, s_scale), the fields of the friction law named in
THETA_NAMES, by minimizing the RMS displacement residual between a measured
record and a forward run of the plant under the record's own input u, on its
grid; the mass and the rest of the friction law (c_f, z_floor, deadband) are
known. fit(problem) starts from the values of problem.friction. The optimizer is a deterministic
Levenberg-Marquardt loop in log theta, clipped to the box bounds, with a
forward-difference Jacobian; it stops when an accepted step lowers the RMS by
a relative 1e-8 or less, or after MAX_ITERATIONS trial steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .friction import FrictionParams
from .observer import rms
from .plant import Measured, PlantParams, SimulationDiverged, simulate_forced

THETA_NAMES = ("sigma", "beta", "s_scale")

STEP = 1e-6  # Jacobian difference step in log theta
COST_TOL = 1e-8
MAX_ITERATIONS = 200


@dataclass(frozen=True)
class FitProblem:
    """Measured record plus the knowns and the search box.

    record: the measured displacement, at least 2 samples from t = 0, with
    (samples - 1) * dt finite, and a u that is nonzero in some row (ValueError
    otherwise); the forward runs are driven by that u. plant: the known mass.
    friction: the nominal friction law; the fit starts from its THETA_NAMES
    fields, replaces them and keeps the rest.
    bounds: per-parameter (lo, hi) in THETA_NAMES order, finite and positive.
    """

    record: Measured
    plant: PlantParams
    friction: FrictionParams
    bounds: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        t = self.record.t
        if len(t) < 2:
            raise ValueError("need a measured record with at least 2 samples")
        if t[0] != 0.0:
            # the forward run starts at rest at t = 0 and must match x row for row
            raise ValueError(f"measured grid must start at t = 0, got t[0] = {float(t[0])!r}")
        if not math.isfinite((len(t) - 1) * self.record.dt):
            raise ValueError("measured grid: (samples - 1) * dt overflows the float range")
        if len(self.bounds) != len(THETA_NAMES):
            raise ValueError(f"bounds must cover {THETA_NAMES}")
        for name, (lo, hi) in zip(THETA_NAMES, self.bounds):
            if not (math.isfinite(lo) and math.isfinite(hi) and 0 < lo < hi):
                raise ValueError(f"bounds for {name} must be finite, positive, lo < hi")
        if not np.any(self.record.u):
            # x would not depend on theta at all
            raise ValueError("u is zero in every row: nothing excites the plant")


@dataclass(frozen=True)
class FitResult:
    """Best parameters found, their residual and convergence bookkeeping.

    iterations counts trial steps, accepted or not. beta_insensitive flags a
    residual that moves by less than 1% when beta is swept across its whole
    bound range at the fitted point, i.e. the record does not constrain the
    lag constant.
    """

    theta: tuple[float, ...]
    rms_residual: float
    iterations: int
    converged: bool
    beta_insensitive: bool


def _forward_x(theta: Sequence[float], problem: FitProblem) -> np.ndarray | None:
    """x of the forward run at theta on the record's u and dt; None if it diverges."""
    rec = problem.record
    try:
        law = replace(problem.friction, **{name: float(v) for name, v in zip(THETA_NAMES, theta)})
        x = simulate_forced(problem.plant, law, rec.u, rec.dt).x
    except (SimulationDiverged, OverflowError):
        return None
    return x if np.all(np.isfinite(x)) else None


def _rms(x: np.ndarray | None, problem: FitProblem) -> float:
    return math.inf if x is None else rms(x, problem.record.x)


def residual(theta: Sequence[float], problem: FitProblem) -> float:
    """RMS displacement error of a forward run at theta.

    The run takes exactly the record's samples at record.dt, driven by the
    record's u. Diverging or non-finite simulations score +inf, never NaN.
    theta must lie inside the bounds.
    """
    theta = [float(v) for v in theta]
    if len(theta) != len(THETA_NAMES):
        raise ValueError(f"theta must have {len(THETA_NAMES)} entries")
    for name, v, (lo, hi) in zip(THETA_NAMES, theta, problem.bounds):
        # a NaN fails the comparison too
        if not (lo <= v <= hi):
            raise ValueError(f"{name} = {v!r} outside bounds [{lo}, {hi}]")
    return _rms(_forward_x(theta, problem), problem)


def _jacobian(theta: np.ndarray, x: np.ndarray, problem: FitProblem,
              hi: np.ndarray) -> np.ndarray:
    """dx/d(log theta) by one-sided differences, stepped down at the top of the box.

    A diverging probe gives a NaN column.
    """
    jac = np.empty((len(x), len(theta)))
    for i in range(len(theta)):
        h = STEP if theta[i] * math.exp(STEP) <= hi[i] else -STEP
        probe = theta.copy()
        probe[i] = theta[i] * math.exp(h)
        xp = _forward_x(probe, problem)
        with np.errstate(over="ignore", invalid="ignore"):
            jac[:, i] = np.nan if xp is None else (xp - x) / h
    return jac


def fit(problem: FitProblem) -> FitResult:
    """Minimize the residual from problem.friction, clipped into the box; deterministic.

    Raises ValueError when x responds to none of the parameters, i.e. u is
    too small to move the forward model.
    """
    lo = np.array([b[0] for b in problem.bounds])
    hi = np.array([b[1] for b in problem.bounds])
    theta = np.clip([float(getattr(problem.friction, name)) for name in THETA_NAMES], lo, hi)

    x = _forward_x(theta, problem)
    cost = _rms(x, problem)
    iterations = 0
    converged = cost == 0.0
    jtj = None  # a new Jacobian is due
    lam = 1e-3
    while not converged and math.isfinite(cost) and iterations < MAX_ITERATIONS:
        if jtj is None:
            jac = _jacobian(theta, x, problem, hi)
            with np.errstate(all="ignore"):
                jtj, jtr = jac.T @ jac, jac.T @ (x - problem.record.x)
            scale = np.diag(jtj)
            if not np.any(scale):
                raise ValueError("x does not respond to theta: u is too small to move the plant")
            # a parameter x does not respond to keeps its value: its row of
            # jtj and its entry of jtr are zero
            scale = np.where(scale > 0, scale, 1.0)
        iterations += 1
        try:
            with np.errstate(all="ignore"):
                trial = np.clip(theta * np.exp(np.linalg.solve(jtj + lam * np.diag(scale), -jtr)),
                                lo, hi)
        except np.linalg.LinAlgError:
            trial = None
        if trial is None or not np.all(np.isfinite(trial)):
            lam *= 10.0
            continue
        if np.array_equal(trial, theta):
            # the damped step no longer moves theta: nothing left to gain
            converged = True
            break
        x_trial = _forward_x(trial, problem)
        cost_trial = _rms(x_trial, problem)
        if not cost_trial <= cost:
            lam *= 10.0
            continue
        converged = cost - cost_trial <= COST_TOL * cost
        theta, x, cost, jtj = trial, x_trial, cost_trial, None
        lam /= 10.0

    # beta sensitivity probe across its whole bound range at the solution
    probe = theta.copy()
    i = THETA_NAMES.index("beta")
    worst_change = 0.0
    for b in problem.bounds[i]:
        probe[i] = b
        r_b = residual(probe, problem)
        worst_change = max(worst_change, abs(r_b - cost) / max(cost, 1e-300))
    beta_insensitive = worst_change < 0.01

    return FitResult(
        theta=tuple(float(v) for v in theta),
        rms_residual=float(cost),
        iterations=iterations,
        converged=bool(converged),
        beta_insensitive=beta_insensitive,
    )
