"""Plant integration tests: grid, pulses, integrator wiring, measurement."""

import math
import tracemalloc

import numpy as np
import pytest

from frictionobs import (
    FrictionParams,
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

PLANT = PlantParams(m=0.052)
FRICTION = FrictionParams(c_f=0.2143, sigma=2.0, beta=0.002, s_scale=2000.0)


def test_grid_sample_count_and_spacing():
    cfg = SimConfig(dt=5e-4, t_end=0.1)
    traj = simulate(PLANT, FRICTION, ImpulseTrain(), cfg)
    assert len(traj) == cfg.n_samples == 201
    assert traj.t[0] == 0.0
    assert np.allclose(np.diff(traj.t), 5e-4, rtol=0, atol=1e-15)


def test_n_samples_floor_boundary():
    # t_end just below a grid point still lands the floor on the lower k
    assert SimConfig(dt=0.1, t_end=0.3).n_samples == 4
    assert SimConfig(dt=0.1, t_end=0.2999).n_samples == 3


def test_pulse_validation():
    with pytest.raises(ValueError):
        ImpulseTrain(((0.0, 0.0, 1.0),))
    with pytest.raises(ValueError):
        ImpulseTrain(((0.0, 0.2, 1.0), (0.1, 0.1, 1.0)))  # overlap
    with pytest.raises(ValueError):
        ImpulseTrain(((0.0, math.inf, 1.0),))


def test_pulse_edges_half_open():
    train = ImpulseTrain(((0.1, 0.05, 2.0),))
    t = np.array([0.0999, 0.1, 0.125, 0.15, 0.1501])
    u = train.sample(t)
    assert list(u) == [0.0, 2.0, 2.0, 0.0, 0.0]


def test_rest_stays_at_rest():
    traj = simulate(PLANT, FRICTION, ImpulseTrain(), SimConfig(dt=1e-3, t_end=0.05))
    assert np.all(traj.x == 0.0) and np.all(traj.v == 0.0)


def test_semi_implicit_update_order_exact():
    # with negligible friction and constant u the discrete map has the closed
    # form v_k = k*dt*u/m, x_k = dt^2*(u/m)*k*(k+1)/2 (v updated before x)
    weak = FrictionParams(c_f=1e-12, sigma=1e-12, beta=1.0, s_scale=1e-6)
    u0, dt, n = 0.8, 1e-3, 50
    traj = simulate(PLANT, weak, ImpulseTrain(((0.0, 1.0, u0),)), SimConfig(dt=dt, t_end=(n - 1) * dt))
    k = np.arange(n)
    v_exact = k * dt * u0 / PLANT.m
    x_exact = dt * dt * (u0 / PLANT.m) * k * (k + 1) / 2.0
    assert np.allclose(traj.v, v_exact, rtol=1e-9, atol=1e-12)
    assert np.allclose(traj.x, x_exact, rtol=1e-9, atol=1e-12)


def test_divergence_guard():
    cfg = SimConfig(dt=1e-3, t_end=1.0, v_max=0.05)
    with pytest.raises(SimulationDiverged) as exc:
        simulate(PLANT, FRICTION, ImpulseTrain(((0.0, 1.0, 5.0),)), cfg)
    assert exc.value.t > 0.0
    assert abs(exc.value.v) > 0.05


def test_dt_halving_consistency():
    train = ImpulseTrain(((0.01, 0.01, 1.6),))
    fp = FrictionParams(c_f=0.2143, sigma=0.6, beta=0.016, s_scale=500.0)
    x_end = {}
    for dt in (5e-4, 2.5e-4):
        traj = simulate(PLANT, fp, train, SimConfig(dt=dt, t_end=0.6))
        x_end[dt] = traj.x[-1]
    rel = abs(x_end[2.5e-4] - x_end[5e-4]) / abs(x_end[2.5e-4])
    assert rel < 0.01


def test_friction_dissipates():
    # net friction work is positive over a run with motion; steps where the
    # velocity crosses zero are excluded (force sign is ambiguous there)
    traj = simulate(
        PLANT, FRICTION, ImpulseTrain(((0.01, 0.01, 1.2),)), SimConfig(dt=5e-4, t_end=0.5)
    )
    keep = traj.v[:-1] * traj.v[1:] > 0
    work = np.sum((traj.f[:-1] * traj.v[:-1])[keep]) * 5e-4
    assert work > 0.0
    assert np.max(np.abs(traj.v)) > 0.05  # the run actually moved


def test_force_column_matches_input():
    train = ImpulseTrain(((0.0, 0.01, 1.0), (0.05, 0.01, -0.5)))
    cfg = SimConfig(dt=1e-3, t_end=0.1)
    traj = simulate(PLANT, FRICTION, train, cfg)
    assert np.array_equal(traj.u, train.sample(traj.t))


def test_simulate_forced_matches_simulate():
    train = ImpulseTrain(((0.01, 0.02, 1.0),))
    cfg = SimConfig(dt=1e-3, t_end=0.2)
    a = simulate(PLANT, FRICTION, train, cfg)
    b = simulate_forced(PLANT, FRICTION, a.u, cfg.dt)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.v, b.v) and np.array_equal(a.f, b.f)


def test_constant_force_viscous_steady_state():
    # u > C_f held long enough: Coulomb saturates and v settles at (u - C_f)/sigma
    u = np.full(int(0.5 / 5e-4) + 1, 1.0)
    traj = simulate_forced(PLANT, FRICTION, u, 5e-4)
    v_ss = (1.0 - FRICTION.c_f) / FRICTION.sigma
    assert traj.v[-1] == pytest.approx(v_ss, rel=1e-6)


def test_impulse_stop_time_matches_momentum_balance():
    # with sigma ~ 0 the friction impulse c_f * t_stop must absorb the input
    # impulse J, so the disk stops near t = J/c_f after the pulse starts
    fp = FrictionParams(c_f=0.2143, sigma=0.01, beta=0.002, s_scale=2000.0)
    cfg = SimConfig(dt=5e-4, t_end=0.2)
    traj = simulate(PLANT, fp, ImpulseTrain(((0.0, 0.01, 1.0),)), cfg)
    # discrete Coulomb stopping chatters within one velocity quantum of zero
    quantum = cfg.dt * fp.c_f / PLANT.m
    idx = np.where((traj.t > 0.01) & (np.abs(traj.v) < quantum))[0]
    t_stop = traj.t[idx[0]]
    assert t_stop == pytest.approx(0.01 / fp.c_f, rel=0.10)


def test_measure_identity_when_noise_and_quant_off():
    traj = simulate(PLANT, FRICTION, ImpulseTrain(((0.01, 0.01, 1.0),)), SimConfig(dt=1e-3, t_end=0.1))
    m = measure(traj, SimConfig(dt=1e-3, t_end=0.1, noise_std=0.0, quant=0.0))
    assert np.array_equal(m.x, traj.x)


def test_measured_rejects_non_finite():
    t = np.array([0.0, 1e-3, 2e-3])
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="x is not finite at row 1"):
            Measured(t, np.array([0.0, bad, 0.0]), np.zeros(3))
        with pytest.raises(ValueError, match="u is not finite at row 2"):
            Measured(t, np.zeros(3), np.array([0.0, 0.0, -bad]))


def test_measured_grid_error_row():
    t = np.array([0.0, 1e-3, 2e-3, 3.5e-3])
    with pytest.raises(GridError) as exc:
        Measured(t, np.zeros(4), np.zeros(4))
    assert exc.value.row == 3
    with pytest.raises(GridError):
        Measured(np.array([0.0, -1e-3]), np.zeros(2), np.zeros(2))
    # NaN compares false, so a NaN timestamp must not pass as an on-grid gap
    with pytest.raises(GridError) as exc:
        Measured(np.array([0.0, 1e-3, math.nan, 3e-3]), np.zeros(4), np.zeros(4))
    assert exc.value.row == 2


def test_measured_dt():
    assert Measured(np.array([0.0, 5e-4, 1e-3]), np.zeros(3), np.zeros(3)).dt == 5e-4
    for n in (0, 1):
        assert Measured(np.zeros(n), np.zeros(n), np.zeros(n)).dt == 0.0


def test_measure_quantization_reference_value():
    t = np.array([0.0, 1e-3, 2e-3])
    traj = Trajectory(t, np.array([0.0, 2.34e-6, -0.4e-6]), np.zeros(3), np.zeros(3), np.zeros(3))
    m = measure(traj, SimConfig(dt=1e-3, t_end=2e-3, quant=1e-6))
    assert m.x[1] == 2e-6
    assert m.x[2] == -1e-6  # floor quantization rounds toward minus infinity


def test_measure_noise_determinism():
    traj = simulate(PLANT, FRICTION, ImpulseTrain(((0.01, 0.01, 1.0),)), SimConfig(dt=1e-3, t_end=0.2))
    cfg = SimConfig(dt=1e-3, t_end=0.2, noise_std=1e-6, seed=42)
    m1 = measure(traj, cfg)
    m2 = measure(traj, cfg)
    assert np.array_equal(m1.x, m2.x)
    m3 = measure(traj, SimConfig(dt=1e-3, t_end=0.2, noise_std=1e-6, seed=43))
    assert not np.array_equal(m1.x, m3.x)


def test_measure_quantization_floors():
    traj = simulate(PLANT, FRICTION, ImpulseTrain(((0.01, 0.01, 1.0),)), SimConfig(dt=1e-3, t_end=0.2))
    q = 1e-6
    m = measure(traj, SimConfig(dt=1e-3, t_end=0.2, quant=q))
    assert np.all(m.x <= traj.x + 1e-18)
    assert np.all(traj.x - m.x < q * (1 + 1e-9))
    steps = np.round(m.x / q)
    assert np.allclose(m.x, steps * q, rtol=0, atol=1e-15)


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(dt=0.0, t_end=1.0)
    with pytest.raises(ValueError):
        SimConfig(dt=1e-3, t_end=-1.0)
    with pytest.raises(ValueError):
        SimConfig(dt=1e-3, t_end=1.0, noise_std=-1e-6)
    with pytest.raises(ValueError):
        SimConfig(dt=1e-3, t_end=1.0, v_max=0.0)
    with pytest.raises(ValueError, match="t_end / dt"):
        SimConfig(dt=1e-10, t_end=1e300)  # the sample count overflows


def test_lag_overflow_is_divergence():
    # sigma * v overflows to inf, the lag update gives inf - inf = NaN, and
    # the NaN velocity is reported as a divergence, not a bare ValueError
    fp = FrictionParams(c_f=0.2143, sigma=1.7e308, beta=0.002, s_scale=2000.0)
    train = ImpulseTrain(((0.0, 1e-3, 300.0),))
    with pytest.raises(SimulationDiverged) as info:
        simulate(PLANT, fp, train, SimConfig(dt=5e-4, t_end=0.01))
    assert math.isnan(info.value.v)


def test_forced_run_holds_columns_packed():
    # x, v and f are written as packed float64 values, 8 bytes a sample
    # each; with the time grid the run peaks near 42 bytes a sample, and
    # lists of Python floats would take about 129
    n = 100_000
    u = np.where(np.arange(n) % 2000 < 20, 1.0, 0.0)
    tracemalloc.start()
    try:
        traj = simulate_forced(PLANT, FRICTION, u, 5e-4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(traj) == n and np.abs(traj.v).max() > 0.01
    assert peak <= 48 * n
