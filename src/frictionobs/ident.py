"""Parameter identification from a measured displacement response.

Fits theta = (sigma, beta, s_scale), the fields of the friction law named in
THETA_NAMES, by minimizing the RMS displacement residual between a measured
record and a forward run of the plant under the record's own input u, on its
grid; the mass and the rest of the friction law (c_f, z_floor, deadband) are
known. fit(problem) starts from the values of problem.friction, and runs a
deterministic Levenberg-Marquardt loop in log theta, clipped to the box, with a
forward-difference Jacobian. It stops at a start whose RMS is 0 (converged) or
not finite (0 iterations), at an accepted step that lowers the RMS by a
relative 1e-8 or less, at a damped step that no longer moves theta once
clipped, or after MAX_ITERATIONS trial steps. FitResult's spread reuses the
loop's last Jacobian when the loop ended on a step it did not take; otherwise
the Jacobian at the returned theta costs p = len(THETA_NAMES) plant runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import combinations
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

    record: the measured displacement, at least 2 samples on a clock that may
    start anywhere, with (samples - 1) * dt finite, and a u that is nonzero in
    some row k, with samples >= k + 3 (ValueError otherwise); the forward runs
    start at rest at its first row, driven by that u. plant: the known mass.
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
        # the plant is at rest, with no friction, until u's first nonzero row k
        # moves it: x[k + 1] is dt^2 u[k] / m, and x responds to theta from x[k + 2]
        k = int(np.flatnonzero(self.record.u)[0])
        if len(t) < k + 3:
            raise ValueError(
                f"the record is too short: x responds to theta only from two samples after "
                f"u's first nonzero row ({k}), so it needs at least {k + 3} samples, not {len(t)}")


@dataclass(frozen=True)
class FitResult:
    """Best parameters found, their residual, spread and convergence bookkeeping.

    iterations counts trial steps, accepted or not. With J = dx/d(log theta) at
    theta, C = (J^T J)^-1 and s^2 = samples * rms_residual^2 / (samples - p),
    rel_se[i] = s sqrt(C_ii) is theta[i]'s relative standard error (SE), and
    corr holds (name_i, name_j, C_ij / sqrt(C_ii C_jj)) for each pair i < j, in
    THETA_NAMES order. The SE is local and linearised: it can understate the
    error near the Coulomb level (one 0.18 N pulse: sigma 1.8% off, SE 0.12%).
    Never NaN: a zero residual gives SE 0; samples <= p, SE inf; J^T J singular
    to working precision, or no finite start, SE inf and correlation 0.
    """

    theta: tuple[float, ...]
    rms_residual: float
    iterations: int
    converged: bool
    rel_se: tuple[float, ...]
    corr: tuple[tuple[str, str, float], ...]


def _forward_x(theta: Sequence[float], problem: FitProblem) -> np.ndarray | None:
    """x of the forward run at theta on the record's u and dt; None if it diverges."""
    rec = problem.record
    try:
        law = replace(problem.friction, **{name: float(v) for name, v in zip(THETA_NAMES, theta)})
        x = simulate_forced(problem.plant, law, rec.u, rec.dt).x
    except (SimulationDiverged, OverflowError):
        return None
    return x if np.all(np.isfinite(x)) else None


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


def _spread(jac: np.ndarray, cost: float) -> tuple[tuple, tuple]:
    """FitResult's (rel_se, corr) from the Jacobian at theta and the RMS residual there."""
    n, p = jac.shape
    rel_se, corr = np.full(p, math.inf), np.eye(p)  # unless C can be formed
    with np.errstate(all="ignore"):
        jtj = jac.T @ jac
        try:
            # C = (J^T J)^-1, one 1-D solve per column as in the LM step
            cov = np.array([np.linalg.solve(jtj, e) for e in np.eye(p)])
        except np.linalg.LinAlgError:
            cov = jtj * np.nan
        # C_ii (J^T J)_ii reaches 1/eps where column i of J is a combination of the others
        vif = np.diag(cov) * np.diag(jtj)
        if np.all(np.isfinite(cov)) and np.all((vif > 0) & (vif < 1 / np.finfo(float).eps)):
            sd = np.sqrt(np.diag(cov))
            # s^2 = RSS / (n - p) with RSS = n cost^2; n <= p leaves no degree of freedom
            rel_se = (cost * math.sqrt(n / (n - p)) if n > p else math.inf) * sd
            corr = np.clip(cov / sd[:, None] / sd, -1.0, 1.0)
    return tuple(map(float, rel_se)), tuple((a, b, float(corr[i, j])) for (i, a), (j, b)
                                            in combinations(enumerate(THETA_NAMES), 2))


def fit(problem: FitProblem) -> FitResult:
    """Minimize the residual from problem.friction, clipped into the box; deterministic.

    Raises ValueError when x responds to none of the parameters, i.e. u is
    too small to move the forward model.
    """
    lo = np.array([b[0] for b in problem.bounds])
    hi = np.array([b[1] for b in problem.bounds])
    theta = np.clip([float(getattr(problem.friction, name)) for name in THETA_NAMES], lo, hi)

    x = _forward_x(theta, problem)
    cost = math.inf if x is None else rms(x, problem.record.x)
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
        cost_trial = math.inf if x_trial is None else rms(x_trial, problem.record.x)
        if not cost_trial <= cost:
            lam *= 10.0
            continue
        converged = cost - cost_trial <= COST_TOL * cost
        theta, x, cost, jtj = trial, x_trial, cost_trial, None
        lam /= 10.0

    if jtj is None:  # no Jacobian at this theta yet; with no finite run, x responds to nothing
        jac = np.zeros((1, len(theta))) if x is None else _jacobian(theta, x, problem, hi)
    return FitResult(tuple(map(float, theta)), float(cost), iterations, bool(converged),
                     *_spread(jac, cost))
