"""Identification tests: residual semantics, problem validation, short fits."""

from dataclasses import replace

import numpy as np
import pytest

from frictionobs import (
    FitProblem,
    FrictionParams,
    GridError,
    ImpulseTrain,
    Measured,
    PlantParams,
    SimConfig,
    THETA_NAMES,
    fit,
    measure,
    residual,
    simulate,
)

PLANT = PlantParams(m=0.052)
TRUTH = (2.0, 0.002, 2000.0)
C_F = 0.2143
BOUNDS = ((0.5, 8.0), (5e-4, 8e-3), (500.0, 8000.0))
LAW = FrictionParams(c_f=C_F, sigma=TRUTH[0], beta=TRUTH[1], s_scale=TRUTH[2])


TRAIN = ImpulseTrain(((0.01, 0.005, 1.0),))


def make_problem(t_end=0.12, dt=1e-3, law=LAW):
    traj = simulate(PLANT, law, TRAIN, SimConfig(dt=dt, t_end=t_end))
    return problem_on(traj.t, traj.x, law=law)


def problem_on(t, x, law=LAW, bounds=BOUNDS, u=None):
    """A problem on this record; its u defaults to the truth pulse sampled on t."""
    u = TRAIN.sample(t) if u is None else u
    return FitProblem(record=Measured(t, x, u), plant=PLANT, friction=law, bounds=bounds)


def test_residual_zero_at_truth():
    prob = make_problem()
    assert residual(TRUTH, prob) < 1e-15


def test_residual_runs_the_problem_deadband():
    # the forward model keeps the nominal law's deadband, so a record made
    # with a wide one is matched exactly at the truth
    prob = make_problem(t_end=0.3, law=replace(LAW, deadband=0.02))
    assert residual(TRUTH, prob) == 0.0
    # the default deadband detects other reversals on the same record
    assert residual(TRUTH, replace(prob, friction=LAW)) > 1e-6


def test_residual_positive_off_truth():
    prob = make_problem()
    off = (2.4, 0.002, 2000.0)
    assert residual(off, prob) > 1e-7


def test_residual_validation():
    prob = make_problem()
    with pytest.raises(ValueError):
        residual((1.0, 2.0), prob)
    with pytest.raises(ValueError):
        residual((float("nan"), 0.002, 2000.0), prob)
    with pytest.raises(ValueError):
        residual((100.0, 0.002, 2000.0), prob)  # outside bounds


def test_problem_validation():
    # the grid and finiteness of the record are Measured's to check
    rec = make_problem().record
    t, x = rec.t, rec.x
    t_bad = t.copy()
    t_bad[-1] += 3e-4
    with pytest.raises(GridError):
        problem_on(t_bad, x)
    t_bad[-1] = np.nan
    with pytest.raises(GridError):
        problem_on(t_bad, x)
    for bad in (np.nan, np.inf):
        x_bad = x.copy()
        x_bad[5] = bad
        with pytest.raises(ValueError, match="not finite at row 5"):
            problem_on(t, x_bad)
    with pytest.raises(ValueError, match="at least 2 samples"):
        problem_on(t[:1], x[:1])
    # steps 1e-7 short of dt pass as uniform, yet 2 dt overflows where t[-1] does not
    d = np.finfo(float).max / (2 - 1e-7)
    with pytest.raises(ValueError, match="overflows"):
        problem_on(np.array([0.0, d, d + d * (1 - 1e-7)]), np.zeros(3))
    with pytest.raises(ValueError):
        problem_on(t, x, bounds=BOUNDS[:2])
    bad_bounds = (BOUNDS[0], (0.008, 0.0005)) + BOUNDS[2:]
    with pytest.raises(ValueError):
        problem_on(t, x, bounds=bad_bounds)


def test_theta_names_order():
    assert THETA_NAMES == ("sigma", "beta", "s_scale")


def test_fit_deterministic_and_improves():
    prob = make_problem()
    theta0 = (2.3, 0.0024, 1700.0)
    r1 = fit(prob, theta0)
    r2 = fit(prob, theta0)
    assert r1.theta == r2.theta
    assert r1.rms_residual == r2.rms_residual
    assert r1.iterations == r2.iterations
    assert r1.rms_residual < residual(theta0, prob)
    assert isinstance(r1.beta_insensitive, bool)
    for v, (lo, hi) in zip(r1.theta, BOUNDS):
        assert lo <= v <= hi


def test_residual_finite_at_bound_corners():
    # extreme but legal parameter sets may fit terribly, never produce NaN
    prob = make_problem()
    corners = [
        tuple(lo for lo, hi in BOUNDS),
        tuple(hi for lo, hi in BOUNDS),
        (0.5, 8e-3, 8000.0),
        (8.0, 5e-4, 500.0),
    ]
    for theta in corners:
        r = residual(theta, prob)
        assert not np.isnan(r)
        assert r > 0.0


def test_residual_noise_floor():
    # at the generating parameters only measurement noise remains
    traj = simulate(PLANT, LAW, TRAIN, SimConfig(dt=1e-3, t_end=0.12))
    cfg = SimConfig(dt=1e-3, t_end=0.12, noise_std=1e-6, seed=9)
    prob = problem_on(traj.t, measure(traj, cfg).x)
    assert 5e-7 < residual(TRUTH, prob) < 2e-6


def test_fit_from_truth_keeps_truth():
    prob = make_problem()
    res = fit(prob, TRUTH)
    assert tuple(res.theta) == TRUTH  # nothing beats a zero residual
    assert res.rms_residual == 0.0
    assert res.converged
    assert res.iterations == 0  # a zero cost is converged before the first step


def test_fit_rejects_bad_theta0():
    prob = make_problem()
    with pytest.raises(ValueError):
        fit(prob, (1.0, 2.0))


def test_problem_rejects_grid_not_starting_at_zero():
    # the forward run starts at t = 0, so a shifted grid would score +inf
    # at every candidate; the problem names t[0] instead
    rec = make_problem().record
    with pytest.raises(ValueError, match=r"t\[0\] = 0.5"):
        problem_on(rec.t + 0.5, rec.x)


def test_residual_runs_the_record_pulse():
    # the forward run is driven by the record's u: a later pulse, a negative
    # one and a train of two are all matched exactly at the truth
    trains = (((0.05, 0.005, 1.0),), ((0.01, 0.005, -1.0),),
              ((0.01, 0.005, 1.0), (0.06, 0.01, -0.8)))
    for pulses in trains:
        traj = simulate(PLANT, LAW, ImpulseTrain(pulses), SimConfig(dt=1e-3, t_end=0.12))
        prob = problem_on(traj.t, traj.x, u=traj.u)
        assert residual(TRUTH, prob) == 0.0


@pytest.mark.parametrize("u, match", [
    ([0.0] * 6, "zero in every row"),
    ([0.0, 1.0, 0.0, 1.0, 0.0, 0.0], None),
    ([0.0, 1.0, 2.0, 0.0, 0.0, 0.0], None),
], ids=["all_zero", "two_pulses", "staircase"])
def test_problem_needs_one_rectangular_pulse(u, match):
    # at least one: a u with no pulse is rejected, any other u is accepted
    t = np.arange(6) * 1e-3
    if match is None:
        problem_on(t, np.zeros(6), u=np.array(u))
        return
    with pytest.raises(ValueError, match=match):
        problem_on(t, np.zeros(6), u=np.array(u))

