"""Plant integration tests: grid, pulses, integrator wiring, measurement."""

import math
import tracemalloc

import numpy as np
import pytest

from frictionobs import grid, plant
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
    m = measure(traj.t, traj.x, traj.u, SimConfig(dt=1e-3, t_end=0.1, noise_std=0.0, quant=0.0))
    assert np.array_equal(m.x, traj.x)


def test_measured_rejects_non_finite():
    t = np.array([0.0, 1e-3, 2e-3])
    # columns of unequal length, in a record or a trajectory
    with pytest.raises(ValueError, match="measured columns must have equal length"):
        Measured(t, np.zeros(3), np.zeros(2))
    with pytest.raises(ValueError, match="trajectory columns must have equal length"):
        Trajectory(t, np.zeros(3), np.zeros(3), np.zeros(2), np.zeros(3))
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
    # a NaN first stamp breaks the grid at row 0, whatever follows it
    with pytest.raises(GridError) as exc:
        Measured(np.array([math.nan, 1e-3]), np.zeros(2), np.zeros(2))
    assert exc.value.row == 0


def test_measured_dt():
    assert Measured(np.array([0.0, 5e-4, 1e-3]), np.zeros(3), np.zeros(3)).dt == 5e-4
    for n in (0, 1):
        assert Measured(np.zeros(n), np.zeros(n), np.zeros(n)).dt == 0.0


def test_measure_quantization_reference_value():
    t = np.array([0.0, 1e-3, 2e-3])
    traj = Trajectory(t, np.array([0.0, 2.34e-6, -0.4e-6]), np.zeros(3), np.zeros(3), np.zeros(3))
    m = measure(traj.t, traj.x, traj.u, SimConfig(dt=1e-3, t_end=2e-3, quant=1e-6))
    assert m.x[1] == 2e-6
    assert m.x[2] == -1e-6  # floor quantization rounds toward minus infinity


def test_measure_noise_determinism():
    traj = simulate(PLANT, FRICTION, ImpulseTrain(((0.01, 0.01, 1.0),)), SimConfig(dt=1e-3, t_end=0.2))
    cfg = SimConfig(dt=1e-3, t_end=0.2, noise_std=1e-6, seed=42)
    m1 = measure(traj.t, traj.x, traj.u, cfg)
    m2 = measure(traj.t, traj.x, traj.u, cfg)
    assert np.array_equal(m1.x, m2.x)
    m3 = measure(traj.t, traj.x, traj.u, SimConfig(dt=1e-3, t_end=0.2, noise_std=1e-6, seed=43))
    assert not np.array_equal(m1.x, m3.x)


def test_measure_quantization_floors():
    traj = simulate(PLANT, FRICTION, ImpulseTrain(((0.01, 0.01, 1.0),)), SimConfig(dt=1e-3, t_end=0.2))
    q = 1e-6
    m = measure(traj.t, traj.x, traj.u, SimConfig(dt=1e-3, t_end=0.2, quant=q))
    assert np.all(m.x <= traj.x + 1e-18)
    assert np.all(traj.x - m.x < q * (1 + 1e-9))
    steps = np.round(m.x / q)
    assert np.allclose(m.x, steps * q, rtol=0, atol=1e-15)


@pytest.mark.parametrize("rows", [1, 7, 4096])
@pytest.mark.parametrize("quant", [0.0, 1e-6])
@pytest.mark.parametrize("seed", [0, 5, 42])
def test_measure_equals_the_sensor_in_blocks(rows, quant, seed):
    # one noise stream, drawn in blocks of any size: 7 splits no block
    # boundary the others have, and 4096 is the block the CLI writes
    traj = simulate(PLANT, FRICTION, ImpulseTrain(((0.01, 0.01, 1.0),)),
                    SimConfig(dt=1e-4, t_end=1.0))
    cfg = SimConfig(dt=1e-4, t_end=1.0, noise_std=1e-6, quant=quant, seed=seed)
    whole = measure(traj.t, traj.x, traj.u, cfg).x
    measured = plant.sensor(cfg)
    blocks = [measured(traj.x[lo:lo + rows]) for lo in range(0, len(traj), rows)]
    assert np.concatenate(blocks).tobytes() == whole.tobytes()
    # a start mid-stream: the rows before it are measured and dropped
    start = len(traj) // 2 + 3
    measured = plant.sensor(cfg)
    for lo in range(0, start, rows):
        measured(traj.x[lo:min(lo + rows, start)])
    rest = [measured(traj.x[lo:lo + rows]) for lo in range(start, len(traj), rows)]
    assert np.concatenate(rest).tobytes() == whole[start:].tobytes()


@pytest.mark.parametrize("rows", [1, 7, 4096])
def test_simulate_blocks_join_to_simulate(rows):
    train = ImpulseTrain(((0.01, 0.01, 1.0), (0.3, 0.02, -1.2)))
    cfg = SimConfig(dt=1e-4, t_end=0.5)
    whole = simulate(PLANT, FRICTION, train, cfg)
    blocks = list(plant.simulate_blocks(PLANT, FRICTION, train, cfg, rows))
    assert [len(b) for b in blocks[:-1]] == [rows] * (len(blocks) - 1)
    for name in ("t", "x", "v", "f", "u"):
        joined = np.concatenate([getattr(b, name) for b in blocks])
        assert joined.tobytes() == getattr(whole, name).tobytes(), name


def test_simulate_blocks_diverge_where_simulate_does():
    # the divergence is in the third block of 7 rows, and no block is
    # yielded past the one before it
    train = ImpulseTrain(((1.5e-3, 1e-3, 300.0),))
    cfg = SimConfig(dt=1e-4, t_end=0.01, v_max=1.0)
    with pytest.raises(SimulationDiverged) as whole:
        simulate(PLANT, FRICTION, train, cfg)
    blocks = plant.simulate_blocks(PLANT, FRICTION, train, cfg, 7)
    assert [len(next(blocks)) for _ in range(2)] == [7, 7]
    with pytest.raises(SimulationDiverged) as blocked:
        next(blocks)
    assert str(blocked.value) == str(whole.value)
    assert blocked.value.t == whole.value.t == pytest.approx(1.7e-3)


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


def _grid_break_whole(t):
    """grid_break as one whole-array pass: the reference for the chunked check."""
    if len(t) and not math.isfinite(t[0]):
        return 0
    if len(t) < 2:
        return None
    dt = float(t[1] - t[0])
    if not 0.0 < dt < math.inf:
        return 1
    off = ~(np.abs(np.diff(t) - dt) <= max(1e-12, 1e-6 * dt))
    return int(np.argmax(off)) + 1 if off.any() else None


def _same_grid_whole(a, b):
    """same_grid with whole-array temporaries: the reference for the one-temporary check."""
    if len(a) != len(b):
        return False
    if len(a) == 0:
        return True
    tol = max(1e-9, 1e-9 * float(np.max(np.abs(a))))
    if len(a) > 1 and math.isfinite(a[1] - a[0]):
        tol = min(tol, abs(a[1] - a[0]) / 2)  # half a step: one row apart never agrees
    return bool(np.all(np.abs(a - b) <= tol))


@pytest.mark.parametrize("extra", [-2, -1, 0, 1, 2, grid._GRID_CHUNK + 1])
def test_grid_checks_match_whole_array_formulas(extra):
    c = grid._GRID_CHUNK
    n = c + extra
    base = np.arange(n) * 5e-4
    # rows around the first chunk edge (row c is the last step of chunk 0),
    # the last row, and one row of the second chunk edge where there is one
    rows = sorted({r for r in (1, 2, c - 1, c, c + 1, n - 1, 2 * c, 2 * c + 1) if 0 <= r < n})
    cases = [base, base + 3.0, np.arange(n) * 1e-3 - 7.0, base + 1e6]
    for r in rows:
        for change in (1e-9, -2e-4, 5e-4, math.nan, math.inf):
            t = base.copy()
            t[r] += change
            cases.append(t)
        t = base.copy()
        t[r:] += 1e-6
        cases.append(t)
    for t in cases:
        assert grid.grid_break(t) == _grid_break_whole(t)
        # inf - inf is NaN, which both formulas reject, with numpy's warning
        with np.errstate(invalid="ignore"):
            # base + 1e6 + 5e-4 is one row after base + 1e6, which 1e-9 * 1e6 would pass
            for b in (base, base + 2e-9, base * (1 + 1e-12), t[::-1], base + (1e6 + 5e-4)):
                assert grid.same_grid(t, b) == _same_grid_whole(t, b)
                assert grid.same_grid(b, t) == _same_grid_whole(b, t)
    assert grid.same_grid(base + 1e6, base + 1e6)
    assert not grid.same_grid(base + 1e6, base + (1e6 + 5e-4))
    # a break one row before the chunk edge, at it, one row after it, and in the last row
    for r in (c - 1, c, c + 1, n - 1):
        if r < n:
            t = base.copy()
            t[r] += 1e-3
            assert grid.grid_break(t) == r
