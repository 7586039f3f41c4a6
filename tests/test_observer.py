"""Observer tests: exact hold step, error decay, guards, metrics."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from frictionobs import (
    FrictionParams,
    ObserverDiverged,
    ImpulseTrain,
    Measured,
    ObserverGains,
    PlantParams,
    SimConfig,
    design_gains,
    e_obs_series,
    measure,
    observer_matrix,
    observer_update,
    rms,
    run_observer,
    simulate,
    validate_robust,
)

M_KG = 0.052
FRICTION = FrictionParams(c_f=0.2143, sigma=2.0, beta=0.002, s_scale=2000.0)
GAINS = design_gains((-350.0, -10.0), M_KG, FRICTION.sigma / FRICTION.beta)


def test_observer_matrix_shift():
    g = ObserverGains(l1=360.0, l2=-182.0)
    assert observer_matrix(g, M_KG, 0.0) == ((-360.0, -1.0 / M_KG), (182.0, 0.0))


def _update_cases():
    """(z, x_held, u, dt, gains, m, phi) inputs for the hold step."""
    rng = np.random.default_rng(7)
    sob = FRICTION.sigma / FRICTION.beta
    for phi in (sob, sob + 56.25, sob + 500.0, sob + FRICTION.kappa):
        yield (rng.uniform(-1, 1, size=2), rng.uniform(-1e-3, 1e-3), rng.uniform(-2, 2),
               5e-4, GAINS, M_KG, phi)
    for _ in range(2000):
        m = 10.0 ** rng.uniform(-2, 0)
        g = ObserverGains(l1=10.0 ** rng.uniform(0, 3.5), l2=rng.uniform(-1e4, 1e4))
        phi = g.l2 + 10.0 ** rng.uniform(-2, 4.5)
        yield (rng.uniform(-1, 1, size=2), rng.uniform(-1e-3, 1e-3), rng.uniform(-2, 2),
               10.0 ** rng.uniform(-6, -2), g, m, phi)
    # a double eigenvalue: q = l1^2/4 - (phi - l2)/m is exactly 0 at phi = 1818,
    # and a few ulps of phi either side make it the smallest q of either sign
    g = ObserverGains(l1=400.0, l2=-182.0)
    assert 0.25 * g.l1 * g.l1 - (1818.0 - g.l2) / 0.05 == 0.0
    for direction in (-math.inf, math.inf):
        phi = 1818.0
        for _ in range(4):
            yield np.array([0.3, -0.7]), 4e-4, 1.3, 5e-4, g, 0.05, phi
            phi = math.nextafter(phi, direction)
    # l1 dt = 1500: cosh(mu dt) alone would overflow
    yield np.array([0.3, -0.7]), 4e-4, 1.3, 5e-4, ObserverGains(3e6, -182.0), 0.05, 1000.0


def test_observer_update_matches_augmented_expm():
    for z, x_held, u, dt, g, m, phi in _update_cases():
        M = np.array(observer_matrix(g, m, phi))
        c = M @ np.array([g.l1, g.l2]) * x_held + np.array([u / m, 0.0])
        aug = np.zeros((3, 3))
        aug[:2, :2] = M
        aug[:2, 2] = c
        ref = expm(aug * dt) @ np.array([z[0], z[1], 1.0])
        got = observer_update(z[0], z[1], x_held, u, dt, g, m, phi)
        for k in range(2):
            assert abs(got[k] - ref[k]) <= 1e-12 * max(1.0, abs(ref[k])), (dt, g, m, phi)


def test_observer_update_guards():
    # the hold needs a finite step and det M = (phi - l2)/m > 0
    with pytest.raises(ValueError, match="phi must exceed l2"):
        observer_update(0.0, 0.0, 0.0, 0.0, 5e-4, GAINS, M_KG, GAINS.l2)
    with pytest.raises(ValueError, match="phi must exceed l2"):
        observer_update(0.0, 0.0, 0.0, 0.0, 5e-4, GAINS, M_KG, GAINS.l2 - 1.0)
    for dt in (0.0, -5e-4, math.nan, math.inf):
        with pytest.raises(ValueError, match="dt must be finite"):
            observer_update(0.0, 0.0, 0.0, 0.0, dt, GAINS, M_KG, 1000.0)


def test_frozen_phi_error_decay():
    # linear truth x' = v, v' = (u - f)/m, f' = phi*v simulated exactly via
    # expm; the observer chain run at the same frozen phi must shed its
    # initial error by 1e-3 within 10/|lam_slow| seconds
    # dt = 1e-4 keeps the O(dt^2) hold-discretization floor well under the bound
    phi_star = 100.0
    lam_slow = -10.0
    g = design_gains((-350.0, lam_slow), M_KG)
    dt = 1e-4
    n = int(round((10.0 / abs(lam_slow)) / dt)) + 1
    A = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, -1.0 / M_KG], [0.0, phi_star, 0.0]])
    step = expm(A * dt)
    w = np.array([0.0, 0.2, 0.1])
    xs = np.empty(n)
    vs = np.empty(n)
    fs = np.empty(n)
    for k in range(n):
        xs[k], vs[k], fs[k] = w
        w = step @ w
    z1 = z2 = 0.0
    err0 = math.hypot(0.0 + g.l1 * xs[0] - vs[0], 0.0 + g.l2 * xs[0] - fs[0])
    for k in range(1, n):
        z1, z2 = observer_update(z1, z2, 0.5 * (xs[k - 1] + xs[k]), 0.0, dt, g, M_KG, phi_star)
    w2 = z1 + g.l1 * xs[-1]
    w3 = z2 + g.l2 * xs[-1]
    err = math.hypot(w2 - vs[-1], w3 - fs[-1])
    assert err < 1e-3 * err0


@settings(max_examples=200, deadline=None)
@given(
    m=st.floats(0.01, 1.0),
    lam_fast=st.floats(-3000.0, -10.0),
    slow_share=st.floats(1.0 / 300.0, 1.0),
    sob=st.floats(0.0, 1e4),
    kappa_share=st.floats(0.0, 1.0, exclude_max=True),
    phi_share=st.floats(0.0, 1.0),
    angle=st.floats(0.0, 2.0 * math.pi),
    steps=st.integers(1, 300),
)
def test_frozen_phi_error_decays_for_robust_designs(
    m, lam_fast, slow_share, sob, kappa_share, phi_share, angle, steps
):
    # A design that passes validate_robust has real error poles lam1 <= lam2 < 0
    # for every frozen phi in [sob, sob + kappa], and then
    #   |exp(M t)| <= exp(lam2 t) * (1 + t |M - lam2 I|),
    # since M's two-point interpolation has a divided difference of at most
    # t exp(lam2 t). At t = 20/|lam2| that is exp(-20) * (1 + 20 r), with
    # r = |M - lam2 I|_F / |lam2| at most about 4300 over the ranges drawn,
    # so an error of norm 1 must fall below 1e-3 (the bound gives 1.8e-4).
    g = design_gains((lam_fast, slow_share * lam_fast), m, sob)
    # cond_b holds iff kappa < m (lam1 - lam2)^2 / 4 at the placed poles
    kappa = kappa_share * m * (lam_fast - slow_share * lam_fast) ** 2 / 4.0
    assume(validate_robust(g, m, sob, kappa).passed)
    phi = sob + phi_share * kappa
    disc = g.l1 * g.l1 - 4.0 * (phi - g.l2) / m
    lam_slow = (-g.l1 + math.sqrt(max(disc, 0.0))) / 2.0
    dt = 20.0 / abs(lam_slow) / steps
    e = (math.cos(angle), math.sin(angle))
    for _ in range(steps):
        e = observer_update(e[0], e[1], 0.0, 0.0, dt, g, m, phi)
    assert math.hypot(*e) < 1e-3


def test_error_decay_rates_match_designed_poles():
    # with x = 0, u = 0 the recursion is the homogeneous error system e' = M e;
    # the realized modal decay rates must equal the placed poles
    from scipy.integrate import solve_ivp

    g = ObserverGains(360.0, -182.0)
    M = np.array(observer_matrix(g, M_KG, 0.0))
    evals, evecs = np.linalg.eig(M)
    order = np.argsort(evals.real)
    evals, evecs = evals[order], evecs[:, order]
    dt = 5e-4
    e = (0.1, 0.05)
    hist = [e]
    for _ in range(1000):
        e = observer_update(e[0], e[1], 0.0, 0.0, dt, g, M_KG, 0.0)
        hist.append(e)
    H = np.array(hist)
    t = np.arange(len(H)) * dt

    sol = solve_ivp(lambda _, y: M @ y, (0.0, t[-1]), [0.1, 0.05],
                    dense_output=True, rtol=1e-11, atol=1e-14)
    assert np.max(np.abs(H - sol.sol(t).T)) < 1e-9 * np.max(np.abs(H[0]))

    comps = np.abs(np.linalg.solve(evecs, H.T))
    slow = comps[1]
    keep = slow > slow[0] * 1e-5
    r_slow = np.polyfit(t[keep], np.log(slow[keep]), 1)[0]
    fast = comps[0]
    keep = fast > fast[0] * 1e-3  # fast mode hits the slow-mode floor quickly
    r_fast = np.polyfit(t[keep], np.log(fast[keep]), 1)[0]
    assert r_fast == pytest.approx(evals[0].real, rel=0.02)
    assert r_slow == pytest.approx(evals[1].real, rel=0.02)


def test_constant_measurement_estimates_settle_to_zero():
    n, dt = 1200, 5e-4
    t = np.arange(n) * dt
    g = design_gains((-350.0, -10.0), M_KG, FRICTION.sigma / FRICTION.beta)
    out = run_observer(Measured(t, np.zeros(n), np.zeros(n)), g, M_KG, FRICTION)
    assert np.all(out.w2 == 0.0) and np.all(out.w3 == 0.0)
    # constant nonzero x: transient from the zero initial state dies out
    out = run_observer(Measured(t, np.full(n, 1e-3), np.zeros(n)), g, M_KG, FRICTION)
    assert abs(out.w2[-1]) < 1e-12
    assert abs(out.w3[-1]) < 1e-12


def _unchecked(t, x, u):
    # a record that skips Measured's checks, as a direct caller could forge one
    rec = object.__new__(Measured)
    for name, col in (("t", t), ("x", x), ("u", u)):
        object.__setattr__(rec, name, np.asarray(col, dtype=float))
    return rec


def test_gain_guard_rejects_unstable_pair():
    t = np.arange(3) * 5e-4
    meas = Measured(t, np.zeros(3), np.zeros(3))
    bad = ObserverGains(l1=-5.0, l2=0.0)
    with pytest.raises(ValueError, match="violate l1 > 0"):
        run_observer(meas, bad, M_KG, FRICTION)
    sob = FRICTION.sigma / FRICTION.beta
    bad2 = ObserverGains(l1=100.0, l2=sob + 1.0)
    with pytest.raises(ValueError, match="violate l1 > 0"):
        run_observer(meas, bad2, M_KG, FRICTION)


def test_nan_guard():
    # run_observer does not check x again: a forged non-finite x reaches the
    # estimates, which the divergence check then rejects at that sample
    t = np.arange(3) * 5e-4
    for bad in (math.nan, math.inf):
        with pytest.raises(ObserverDiverged) as exc:
            run_observer(_unchecked(t, [0.0, bad, 0.0], [0.0] * 3), GAINS, M_KG, FRICTION)
        assert exc.value.row == 1


def test_run_observer_empty_and_single():
    empty = Measured(np.array([]), np.array([]), np.array([]))
    out = run_observer(empty, GAINS, M_KG, FRICTION)
    assert len(out) == 0 and all(len(c) == 0 for c in (out.w2, out.w3, out.phi, out.e_obs))
    one = Measured(np.array([0.0]), np.array([1e-5]), np.array([0.5]))
    out = run_observer(one, GAINS, M_KG, FRICTION)
    assert len(out) == 1 and out.t[0] == 0.0
    assert out.w2[0] == GAINS.l1 * 1e-5
    assert out.e_obs[0] == 0.0


def test_run_observer_holds_columns_packed():
    # w2, w3 and phi are written as packed float64 values, 8 bytes a sample
    # each; with e_obs and its temporaries the run peaks near 40 bytes a
    # sample, and lists of Python floats would take about 110. The record is
    # shorter than the plant's in test_plant.py because tracemalloc slows
    # this loop 18-fold.
    n = 20_000
    t = np.arange(n) * 5e-4
    meas = Measured(t, 1e-3 * np.sin(5.0 * t), np.where(np.arange(n) % 2000 < 20, 1.0, 0.0))
    tracemalloc.start()
    try:
        out = run_observer(meas, GAINS, M_KG, FRICTION)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(out) == n and np.ptp(out.phi) > 0.0
    assert peak <= 64 * n


def test_replica_phi_spans_presliding_to_sliding():
    plant = PlantParams(m=M_KG)
    cfg = SimConfig(dt=5e-4, t_end=0.6)
    traj = simulate(plant, FRICTION, ImpulseTrain(((0.05, 0.01, 1.6),)), cfg)
    meas = measure(traj, cfg)
    out = run_observer(meas, GAINS, M_KG, FRICTION)
    sob = FRICTION.sigma / FRICTION.beta
    phis = out.phi
    assert np.all(phis >= sob - 1e-9)
    assert phis.min() == pytest.approx(sob, rel=1e-12)  # gross sliding reached
    assert phis.max() > sob + 100.0  # presliding stiffness was active


def test_estimates_track_truth_after_transient():
    plant = PlantParams(m=M_KG)
    cfg = SimConfig(dt=5e-4, t_end=0.6)
    traj = simulate(plant, FRICTION, ImpulseTrain(((0.05, 0.01, 1.6),)), cfg)
    meas = measure(traj, cfg)  # noise-free
    w2 = run_observer(meas, GAINS, M_KG, FRICTION).w2
    peak = np.max(np.abs(traj.v))
    settled = traj.t > 0.05 + 0.5  # 5/|lam_slow| after the pulse
    assert np.max(np.abs(w2[settled] - traj.v[settled])) < 0.01 * peak


def test_observer_beats_central_difference_velocity():
    # At micrometre noise the observer is a better velocity sensor than
    # differentiating the measurement: central differences amplify noise by
    # noise_std/(dt*sqrt(2)) regardless of signal size. Slow-lag friction and
    # gains placed at the true sigma/beta keep the sliding-phase model bias
    # small. Measured at seed 5: observer 1.10e-3, FD 2.87e-3 (2.6x); worst
    # seed in 0..19 still wins 2.5x.
    plant = PlantParams(m=M_KG)
    truth = FrictionParams(c_f=0.2143, sigma=0.6, beta=0.016, s_scale=500.0)
    g = design_gains((-400.0, -150.0), M_KG, truth.sigma / truth.beta)
    cfg = SimConfig(dt=5e-4, t_end=1.0, noise_std=2e-6, seed=5)
    traj = simulate(plant, truth, ImpulseTrain(((0.05, 0.01, 0.6),)), cfg)
    meas = measure(traj, cfg)
    w2 = run_observer(meas, g, M_KG, truth).w2
    fd = np.gradient(meas.x, cfg.dt)
    inner = slice(1, -1)  # central differences exist only at interior points
    rms_obs = rms(w2[inner] - traj.v[inner])
    rms_fd = rms(fd[inner] - traj.v[inner])
    assert rms_obs < rms_fd
    assert rms_obs < 0.5 * rms_fd  # frozen margin guard


def test_rms_and_integrated_velocity():
    assert rms(np.array([])) == 0.0
    assert rms(np.array([3.0, 4.0])) == pytest.approx(math.sqrt(12.5), rel=1e-15)
    # on a still record e_obs is minus the running integral of w2, current sample included
    w2 = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(e_obs_series(np.zeros(3), w2, 0.5), -np.array([0.5, 1.5, 3.0]))


def test_overflowing_estimates_raise_diverged():
    t = np.arange(6) * 1e-3
    x = np.array([0.0, 0.0, 0.0, 1e306, -1e306, 0.0])
    with pytest.raises(ObserverDiverged) as exc:
        run_observer(Measured(t, x, np.zeros(6)), GAINS, M_KG, FRICTION)
    assert exc.value.row == 3 and "t = 0.003" in str(exc.value)


def test_rms_rescales_only_on_overflow():
    rng = np.random.default_rng(8)
    for _ in range(200):
        a = rng.standard_normal(rng.integers(1, 50)) * 10.0 ** rng.integers(-150, 150)
        assert rms(a) == float(np.sqrt(np.mean(a * a)))
    # a*a overflows here; the plain formula would give inf
    assert rms(np.array([1e200, -1e200])) == 1e200
    assert rms(np.array([1.7976931348623157e308] * 3)) == pytest.approx(1.7976931348623157e308)
    assert rms(np.array([3e200, 4e200])) == pytest.approx(math.sqrt(12.5) * 1e200, rel=1e-15)
    assert rms(np.array([1.0, math.inf])) == math.inf and math.isnan(rms(np.array([math.nan])))
    # the difference form: plain sqrt(mean(d*d)) to the bit unless a - b or its square overflows
    for _ in range(200):
        n = rng.integers(1, 50)
        scale = 10.0 ** rng.integers(-150, 150)
        a, b = rng.standard_normal(n) * scale, rng.standard_normal(n) * scale
        assert rms(a, b) == float(np.sqrt(np.mean((a - b) * (a - b))))
    assert rms(np.array([]), np.array([])) == 0.0
    big = 1.7976931348623157e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warning on any path
        # a - b overflows; true value sqrt(((-2)^2 + 1^2) / 4) * 1e308
        got = rms(np.array([-1e308, 0.0, 0.0, 0.0]), np.array([1e308, -1e308, 0.0, 0.0]))
        assert got == pytest.approx(math.sqrt(1.25) * 1e308, rel=1e-15)
        assert rms(np.array([3e200, 1e200]), np.array([-1e200, 1e200])) == pytest.approx(
            math.sqrt(8.0) * 1e200, rel=1e-15)
        assert rms(np.array([big, -big]), np.array([0.0, 0.0])) == big
        # beyond the float range: a true RMS of 2 * big
        assert rms(np.array([big, big]), np.array([-big, -big])) == math.inf
        assert rms(np.array([1.0]), np.array([math.inf])) == math.inf
        assert math.isnan(rms(np.array([math.inf]), np.array([math.inf])))


def test_e_obs_series_definition():
    x = np.array([0.0, 1e-3, 2.5e-3])
    w2 = np.array([0.0, 2.0, 3.0])
    dt = 5e-4
    expect = (x - x[0]) - np.cumsum(w2) * dt
    assert np.allclose(e_obs_series(x, w2, dt), expect, rtol=0, atol=0)
