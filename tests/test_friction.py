"""Friction model unit tests: virgin curve, branch algebra, lag, reversals."""

import math

import numpy as np
import pytest

from frictionobs import (
    FrictionParams,
    PlantParams,
    PreslidingState,
    coulomb_force,
    coulomb_stiffness,
    deadband_sign,
    default_kappa,
    f0_branch,
    presliding_force,
    simulate_forced,
    update_presliding,
)

P = FrictionParams(c_f=0.2143, sigma=2.0, beta=0.002, s_scale=2000.0)


def test_default_kappa_frozen_value():
    # 2 * 2000 * 0.2143 * (-ln 1e-4), evaluated independently
    assert default_kappa(0.2143, 2000.0) == pytest.approx(7895.103766857982, rel=0, abs=1e-9)


def test_params_validation():
    for kw in (
        dict(c_f=0.0),
        dict(sigma=-1.0),
        dict(beta=0.0),
        dict(s_scale=math.inf),
        dict(z_floor=0.0),
        dict(z_floor=1.0),
    ):
        bad = dict(c_f=0.2, sigma=2.0, beta=0.002, s_scale=2000.0)
        bad.update(kw)
        with pytest.raises(ValueError):
            FrictionParams(**bad)


def test_kappa_below_consistent_floor_rejected():
    floor = default_kappa(0.2, 2000.0)
    with pytest.raises(ValueError):
        FrictionParams(c_f=0.2, sigma=2.0, beta=0.002, s_scale=2000.0, kappa=0.5 * floor)
    fp = FrictionParams(c_f=0.2, sigma=2.0, beta=0.002, s_scale=2000.0, kappa=2.0 * floor)
    assert fp.kappa == 2.0 * floor
    assert FrictionParams(c_f=0.2, sigma=2.0, beta=0.002, s_scale=2000.0).kappa == floor


def test_beta_ok_margin():
    fp = FrictionParams(c_f=0.2, sigma=2.0, beta=0.002, s_scale=2000.0)
    # beta * sigma * margin vs m: 0.002*2*10 = 0.04 <= 0.052
    assert fp.beta_ok(0.052)
    assert not fp.beta_ok(0.052, margin=30.0)
    with pytest.raises(ValueError):
        fp.beta_ok(0.0)


def test_f0_endpoints_exact():
    assert f0_branch(1.0) == 1.0
    assert f0_branch(-1.0) == -1.0


def test_f0_peak_value():
    # z*(1 - ln z) at z = 1/e is 2/e
    assert f0_branch(1.0 / math.e) == pytest.approx(0.7357588823428847, rel=0, abs=1e-15)


def test_f0_odd_and_monotone():
    zs = np.linspace(0.01, 1.0, 200)
    vals = np.array([f0_branch(z) for z in zs])
    neg = np.array([f0_branch(-z) for z in zs])
    assert np.allclose(neg, -vals, rtol=0, atol=0)
    assert np.all(np.diff(vals) > 0)


def test_f0_domain_errors():
    for z in (0.0, 1.5, -1.0000001, math.nan):
        with pytest.raises(ValueError):
            f0_branch(z)


def test_branch_closure_exact():
    # every branch ends exactly at its direction
    for f_r in (-1.0, -0.6, -0.2143, 0.0, 0.37, 1.0):
        assert presliding_force(1.0, f_r, 1) == 1.0
        assert presliding_force(-1.0, f_r, -1) == -1.0


def test_virgin_branch_is_f0():
    for z in (0.05, 0.3, 0.9):
        assert presliding_force(z, 0.0, 1) == f0_branch(z)


def test_presliding_force_validation():
    with pytest.raises(ValueError):
        presliding_force(0.5, 0.0, 0)
    with pytest.raises(ValueError):
        presliding_force(0.5, 1.2, 1)


def test_stiffness_slope_and_cap():
    # virgin branch slope is s*c_f*(-ln z); the cap engages at the floor
    ps = PreslidingState(z=0.1, f_r=0.0, dir=1)
    expect = P.s_scale * P.c_f * 1.0 * (-math.log(0.1))
    assert coulomb_stiffness(ps, P) == pytest.approx(expect, rel=1e-15)
    at_floor = PreslidingState(z=1e-7, f_r=-1.0, dir=1)  # |dir - f_r| = 2
    assert coulomb_stiffness(at_floor, P) == P.kappa
    assert coulomb_stiffness(PreslidingState(z=1.0, f_r=0.0, dir=1), P) == 0.0
    assert coulomb_stiffness(PreslidingState(saturated=True, dir=1, z=1.0, f_r=1.0), P) == 0.0


def test_coulomb_force_saturated_follows_v_sign():
    ps = PreslidingState(z=1.0, f_r=1.0, dir=1, saturated=True)
    assert coulomb_force(ps, P, 1) == P.c_f
    assert coulomb_force(ps, P, -1) == -P.c_f
    assert coulomb_force(ps, P, 0) == P.c_f  # falls back to the branch direction


def test_deadband_sign():
    assert deadband_sign(2e-4) == 1
    assert deadband_sign(-2e-4) == -1
    assert deadband_sign(5e-5) == 0
    assert deadband_sign(0.5, deadband=1.0) == 0


def test_reversal_memorizes_level_and_resets_z():
    ps = PreslidingState()
    dz = 0.4 / P.s_scale
    ps = update_presliding(ps, dz, 1, P)
    level = coulomb_force(ps, P) / P.c_f
    ps2 = update_presliding(ps, -1e-6, -1, P)
    assert ps2.dir == -1
    assert ps2.f_r == pytest.approx(level, rel=1e-15)
    assert not ps2.saturated
    # z restarted then advanced by s_scale*dx
    assert ps2.z == pytest.approx(P.s_scale * -1e-6, rel=1e-12)


def test_saturation_erases_memory():
    ps = PreslidingState()
    ps = update_presliding(ps, 2.0 / P.s_scale, 1, P)
    assert ps.saturated and ps.z == 1.0 and ps.f_r == 1.0
    # next reversal starts from the erased level +1, not the pre-saturation branch
    ps = update_presliding(ps, -1e-6, -1, P)
    assert ps.f_r == 1.0 and ps.dir == -1 and not ps.saturated


def test_force_bounded_on_random_walk():
    rng = np.random.default_rng(3)
    ps = PreslidingState()
    for dx in rng.uniform(-1.5e-4, 1.5e-4, size=10_000):
        vs = deadband_sign(dx / 1e-3)
        ps = update_presliding(ps, float(dx), vs, P)
        assert abs(coulomb_force(ps, P, vs)) <= P.c_f + 1e-15


def _held_velocity_run(fp, v, dt, n):
    # a mass of 1e20 kg takes one kick to v and then keeps v to the last bit,
    # since dt * f / m is far below half an ulp of v
    m = 1e20
    u = np.zeros(n)
    u[0] = v * m / dt
    traj = simulate_forced(PlantParams(m), fp, u, dt)
    assert np.all(traj.v[1:] == traj.v[1])
    return traj


def test_viscous_lag_exact_update():
    # c_f ~ 0 leaves only the viscous lag in f; with v held from step 1 on
    # it follows sigma*v*(1 - exp(-k dt/beta)) exactly
    fp = FrictionParams(c_f=1e-300, sigma=P.sigma, beta=P.beta, s_scale=P.s_scale)
    dt = 5e-4
    traj = _held_velocity_run(fp, 0.05, dt, 40)
    v = traj.v[1]
    for k in range(1, 40):
        expect = fp.sigma * v * (1.0 - math.exp(-k * dt / fp.beta))
        assert traj.f[k] == pytest.approx(expect, rel=1e-12)


def test_rest_gives_zero_force():
    traj = simulate_forced(PlantParams(0.052), P, np.zeros(50), 5e-4)
    assert np.all(traj.f == 0.0)


def test_constant_velocity_fixed_points():
    # sustained sliding: viscous part settles at sigma*v, Coulomb part saturates
    traj = _held_velocity_run(P, 0.05, 5e-4, 4001)
    assert traj.f[-1] == pytest.approx(P.sigma * traj.v[1] + P.c_f, abs=1e-12)


def test_full_reversal_traverses_to_opposite_bound():
    # from the saturated +C_f level, -1/s of travel closes the branch at -C_f
    ps = PreslidingState()
    ps = update_presliding(ps, 2.0 / P.s_scale, 1, P)
    assert ps.saturated and ps.f_r == 1.0
    ps = update_presliding(ps, -1.0 / P.s_scale, -1, P)
    assert ps.z == -1.0
    assert coulomb_force(ps, P, -1) == -P.c_f


def test_total_force_split():
    # the force of a step is F_c of the advanced branch plus the lagged F_v
    dt = 5e-4
    traj = simulate_forced(PlantParams(0.052), P, np.array([0.02 * 0.052 / dt, 0.0]), dt)
    v = traj.v[1]
    ps = update_presliding(PreslidingState(), v * dt, 1, P)
    target = P.sigma * v
    f_v = target + (0.0 - target) * math.exp(-dt / P.beta)
    assert traj.f[1] == pytest.approx(coulomb_force(ps, P, 1) + f_v, rel=1e-15)


def test_plant_loop_guards():
    dt = 5e-4
    # a NaN input makes v NaN on the next step; the friction step then refuses it
    with pytest.raises(ValueError):
        simulate_forced(PlantParams(0.052), P, np.array([0.0, math.nan, 0.0]), dt)
    for bad_dt in (0.0, -dt, math.nan):
        with pytest.raises(ValueError):
            simulate_forced(PlantParams(0.052), P, np.zeros(3), bad_dt)
