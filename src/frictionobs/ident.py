"""Parameter identification from a measured displacement response.

Fits theta = (sigma, beta, s_scale, amplitude, width) by minimizing the RMS
displacement residual between a measured record and a forward simulation on
its grid. The record's u must hold one rectangular pulse, whose onset and
sign are read and whose |amplitude| and width are fitted; the mass and the
rest of the friction law (c_f, z_floor, deadband) are known. The optimizer is
a derivative-free Nelder-Mead simplex with every candidate projected onto the
box bounds; it stops when the relative simplex diameter drops below 1e-8 or
after 2000 iterations and always returns the best point seen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .friction import FrictionParams
from .observer import rms
from .plant import ImpulseTrain, Measured, PlantParams, SimConfig, SimulationDiverged, simulate

THETA_NAMES = ("sigma", "beta", "s_scale", "amplitude", "width")

DIAMETER_TOL = 1e-8
MAX_ITERATIONS = 2000


@dataclass(frozen=True)
class FitProblem:
    """Measured record plus the knowns and the search box.

    record: the measured displacement, at least 2 samples from t = 0, with
    (samples - 1) * dt finite, whose u holds one rectangular pulse: its
    nonzero rows are consecutive and of one value (ValueError otherwise). The
    pulse's first row k gives the onset k * dt and the fitted amplitude's sign.
    plant: the known mass. friction: the nominal friction law; the fit
    replaces its sigma, beta and s_scale and keeps the rest.
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
        self._pulse  # reading it checks u

    @cached_property
    def _pulse(self) -> tuple[float, float]:
        """(onset k * dt, sign) of the one pulse in the record's u, k its first nonzero row."""
        t, u = self.record.t, self.record.u
        rows = np.flatnonzero(u)
        if len(rows) == 0:
            raise ValueError("u is zero in every row: no pulse to fit")
        k = int(rows[0])
        if not np.all(u[k : rows[-1] + 1] == u[k]):
            raise ValueError(f"u holds more than one pulse: one starts at t = {float(t[k])!r}")
        return k * self.record.dt, math.copysign(1.0, u[k])


@dataclass(frozen=True)
class FitResult:
    """Best parameters found, their residual and convergence bookkeeping.

    beta_insensitive flags a residual that moves by less than 1% when beta
    is swept across its whole bound range at the fitted point, i.e. the
    record does not constrain the lag constant.
    """

    theta: tuple[float, ...]
    rms_residual: float
    iterations: int
    converged: bool
    beta_insensitive: bool


def residual(theta: Sequence[float], problem: FitProblem) -> float:
    """RMS displacement error of a forward run at theta.

    The run takes exactly the record's samples: len(record) at record.dt.
    Its pulse starts at the record's onset and carries the record's sign.
    Diverging or non-finite simulations score +inf, never NaN. theta must
    lie inside the bounds.
    """
    theta = [float(v) for v in theta]
    if len(theta) != len(THETA_NAMES):
        raise ValueError(f"theta must have {len(THETA_NAMES)} entries")
    for name, v, (lo, hi) in zip(THETA_NAMES, theta, problem.bounds):
        # a NaN fails the comparison too
        if not (lo <= v <= hi):
            raise ValueError(f"{name} = {v!r} outside bounds [{lo}, {hi}]")
    sigma, beta, s_scale, amp, width = theta
    rec = problem.record
    start, sign = problem._pulse
    try:
        fp = replace(problem.friction, sigma=sigma, beta=beta, s_scale=s_scale)
        train = ImpulseTrain(((start, width, sign * amp),))
        # t_end from the sample count, not t[-1]: steps that pass as uniform
        # may still sum to a t[-1] whose floor(t_end/dt) is one sample short
        cfg = SimConfig(dt=rec.dt, t_end=(len(rec) - 1) * rec.dt)
        traj = simulate(problem.plant, fp, train, cfg)
    except (SimulationDiverged, OverflowError):
        return math.inf
    if len(traj) != len(rec) or not np.all(np.isfinite(traj.x)):
        return math.inf
    return rms(traj.x, rec.x)


def _project(theta: np.ndarray, bounds: tuple[tuple[float, float], ...]) -> np.ndarray:
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    return np.minimum(np.maximum(theta, lo), hi)


def _simplex_diameter(simplex: list[np.ndarray]) -> float:
    # relative infinity-norm spread around the best vertex
    best = simplex[0]
    scale = np.maximum(1.0, np.abs(best))
    return max(float(np.max(np.abs(v - best) / scale)) for v in simplex[1:])


def _nelder_mead(
    fun: Callable[[np.ndarray], float],
    x0: np.ndarray,
    bounds: tuple[tuple[float, float], ...],
) -> tuple[np.ndarray, float, int, bool]:
    """Projected Nelder-Mead; returns (best x, best f, iterations, converged)."""
    n = len(x0)
    x0 = _project(np.asarray(x0, dtype=float), bounds)
    simplex = [x0]
    for i in range(n):
        step = 0.05 * (bounds[i][1] - bounds[i][0])
        v = x0.copy()
        v[i] = v[i] + step if v[i] + step <= bounds[i][1] else v[i] - step
        simplex.append(_project(v, bounds))
    fvals = [fun(v) for v in simplex]

    def order() -> None:
        idx = np.argsort(fvals, kind="stable")
        simplex[:] = [simplex[i] for i in idx]
        fvals[:] = [fvals[i] for i in idx]

    order()
    iterations = 0
    converged = False
    while iterations < MAX_ITERATIONS:
        if _simplex_diameter(simplex) < DIAMETER_TOL:
            converged = True
            break
        iterations += 1
        centroid = np.mean(simplex[:-1], axis=0)
        worst = simplex[-1]
        refl = _project(centroid + (centroid - worst), bounds)
        f_refl = fun(refl)
        if f_refl < fvals[0]:
            exp = _project(centroid + 2.0 * (centroid - worst), bounds)
            f_exp = fun(exp)
            if f_exp < f_refl:
                simplex[-1], fvals[-1] = exp, f_exp
            else:
                simplex[-1], fvals[-1] = refl, f_refl
        elif f_refl < fvals[-2]:
            simplex[-1], fvals[-1] = refl, f_refl
        else:
            if f_refl < fvals[-1]:
                cand = _project(centroid + 0.5 * (refl - centroid), bounds)
            else:
                cand = _project(centroid - 0.5 * (centroid - worst), bounds)
            f_cand = fun(cand)
            if f_cand < min(f_refl, fvals[-1]):
                simplex[-1], fvals[-1] = cand, f_cand
            else:
                # shrink toward the best vertex
                for i in range(1, len(simplex)):
                    simplex[i] = _project(simplex[0] + 0.5 * (simplex[i] - simplex[0]), bounds)
                    fvals[i] = fun(simplex[i])
        order()
    # vertex 0 is the best point seen: only the worst vertex is replaced, a
    # shrink keeps vertex 0, and the stable sort keeps it first on ties
    return simplex[0], fvals[0], iterations, converged


def fit(problem: FitProblem, theta0: Sequence[float]) -> FitResult:
    """Minimize the residual from theta0; deterministic for identical inputs."""
    theta0 = np.asarray([float(v) for v in theta0], dtype=float)
    if len(theta0) != len(THETA_NAMES):
        raise ValueError(f"theta0 must have {len(THETA_NAMES)} entries")

    best, f_best, iters, converged = _nelder_mead(lambda v: residual(v, problem), theta0,
                                                  problem.bounds)

    # beta sensitivity probe across its whole bound range at the solution
    lo, hi = problem.bounds[1]
    probe = best.copy()
    worst_change = 0.0
    for b in (lo, hi):
        probe[1] = b
        r = residual(probe, problem)
        denom = max(f_best, 1e-300)
        worst_change = max(worst_change, abs(r - f_best) / denom)
    beta_insensitive = worst_change < 0.01

    return FitResult(
        theta=tuple(float(v) for v in best),
        rms_residual=float(f_best),
        iterations=iters,
        converged=converged,
        beta_insensitive=beta_insensitive,
    )
