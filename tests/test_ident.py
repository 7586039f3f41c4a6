"""Identification tests: the forward model, problem validation, short fits and their spread."""

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
    rms,
    simulate,
    simulate_forced,
)

PLANT = PlantParams(m=0.052)
LAW = FrictionParams(c_f=0.2143, sigma=2.0, beta=0.002, s_scale=2000.0)


def per_name(f=lambda v: v, **override):
    """f of LAW's value of each name in THETA_NAMES, in order; a keyword replaces its entry."""
    return tuple(override[n] if n in override else f(getattr(LAW, n)) for n in THETA_NAMES)


TRUTH = per_name()
BOUNDS = per_name(lambda v: (v / 4, v * 4))  # 4x box: scaling by 4 is exact


TRAIN = ImpulseTrain(((0.01, 0.005, 1.0),))


def make_problem(t_end=0.12, dt=1e-3, law=LAW):
    traj = simulate(PLANT, law, TRAIN, SimConfig(dt=dt, t_end=t_end))
    return problem_on(traj.t, traj.x, law=law)


def problem_on(t, x, law=LAW, bounds=BOUNDS, u=None):
    """A problem on this record; its u defaults to the truth pulse sampled on t."""
    u = TRAIN.sample(t) if u is None else u
    return FitProblem(record=Measured(t, x, u), plant=PLANT, friction=law, bounds=bounds)


def residual(theta, prob):
    """RMS of x from a forward run at theta on the record's u, against the record's x."""
    rec = prob.record
    law = replace(prob.friction, **dict(zip(THETA_NAMES, theta)))
    return rms(simulate_forced(prob.plant, law, rec.u, rec.dt).x, rec.x)


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
    off = per_name(sigma=2.4)
    assert residual(off, prob) > 1e-7


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
    bad_bounds = per_name(lambda v: (v / 4, v * 4), beta=(0.008, 0.0005))
    with pytest.raises(ValueError):
        problem_on(t, x, bounds=bad_bounds)


def test_theta_names_order():
    assert THETA_NAMES == ("sigma", "beta", "s_scale")


def test_fit_deterministic_and_improves():
    prob = make_problem()
    theta0 = per_name(sigma=2.3, beta=0.0024, s_scale=1700.0)
    start = replace(prob, friction=replace(LAW, **dict(zip(THETA_NAMES, theta0))))
    r1 = fit(start)
    r2 = fit(start)
    assert r1.theta == r2.theta
    assert r1.rms_residual == r2.rms_residual
    assert r1.iterations == r2.iterations
    assert r1.rms_residual < residual(theta0, prob)
    assert r1.rel_se == r2.rel_se and r1.corr == r2.corr
    # the record is noise-free: the fit leaves a residual, and SEs, at rounding level
    assert len(r1.rel_se) == len(THETA_NAMES)
    assert all(0.0 <= se < 1e-12 for se in r1.rel_se)
    assert [pair[:2] for pair in r1.corr] == [("sigma", "beta"), ("sigma", "s_scale"),
                                              ("beta", "s_scale")]
    assert all(-1.0 <= c <= 1.0 for _, _, c in r1.corr)
    for v, (lo, hi) in zip(r1.theta, BOUNDS):
        assert lo <= v <= hi


def test_residual_finite_at_bound_corners():
    # extreme but legal parameter sets may fit terribly, never produce NaN
    prob = make_problem()
    corners = [
        tuple(lo for lo, hi in BOUNDS),
        tuple(hi for lo, hi in BOUNDS),
        per_name(sigma=0.5, beta=8e-3, s_scale=8000.0),
        per_name(sigma=8.0, beta=5e-4, s_scale=500.0),
    ]
    for theta in corners:
        r = residual(theta, prob)
        assert not np.isnan(r)
        assert r > 0.0


def test_residual_noise_floor():
    # at the generating parameters only measurement noise remains
    traj = simulate(PLANT, LAW, TRAIN, SimConfig(dt=1e-3, t_end=0.12))
    cfg = SimConfig(dt=1e-3, t_end=0.12, noise_std=1e-6, seed=9)
    prob = problem_on(traj.t, measure(traj.t, traj.x, traj.u, cfg).x)
    assert 5e-7 < residual(TRUTH, prob) < 2e-6


def test_fit_from_truth_keeps_truth():
    prob = make_problem()
    res = fit(prob)
    assert tuple(res.theta) == TRUTH  # nothing beats a zero residual
    assert res.rms_residual == 0.0
    assert res.converged
    assert res.iterations == 0  # a zero cost is converged before the first step


@pytest.mark.parametrize("t0", [0.5, 1e3])
def test_fit_is_the_same_wherever_the_clock_starts(t0):
    # the forward run starts at rest at the record's first row and steps by
    # its dt, so a shifted clock moves only the rounding of dt = t[1] - t[0]
    cfg = SimConfig(dt=1e-3, t_end=0.08, noise_std=2e-6, seed=7)  # the golden identify record
    traj = simulate(PLANT, LAW, TRAIN, cfg)
    x = measure(traj.t, traj.x, traj.u, cfg).x
    base = fit(problem_on(traj.t, x))
    res = fit(problem_on(traj.t + t0, x, u=traj.u))
    assert base.iterations > 0 and res.converged
    assert res.iterations == base.iterations
    np.testing.assert_allclose(res.theta, base.theta, rtol=1e-8, atol=0)


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


def test_rel_se_understates_the_error_near_the_coulomb_level():
    # one 0.18 N pulse, just under c_f: the linearised SE is local, and the
    # fit lands about 15 SE away from the truth in sigma
    cfg = SimConfig(dt=5e-4, t_end=0.3, noise_std=5e-7, seed=7)
    traj = simulate(PLANT, LAW, ImpulseTrain(((0.01, 0.005, 0.18),)), cfg)
    start = per_name(sigma=2.6, beta=0.0015, s_scale=1500.0)
    prob = problem_on(traj.t, measure(traj.t, traj.x, traj.u, cfg).x, u=traj.u,
                      law=replace(LAW, **dict(zip(THETA_NAMES, start))),
                      bounds=tuple((v / 4, v * 4) for v in start))
    res = fit(prob)
    assert res.converged and res.iterations == 44
    sigma_err = abs(res.theta[0] / LAW.sigma - 1.0)
    assert sigma_err == pytest.approx(0.0181, abs=1e-4)
    assert res.rel_se[0] == pytest.approx(0.00122, abs=1e-5)
    assert sigma_err > 10 * res.rel_se[0]
