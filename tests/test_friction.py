"""Friction model unit tests: virgin curve, branch algebra, lag, reversals.

The hysteresis law is checked through the kernel the plant and the
observer run: ``advance`` folds a branch state (z, f_r, dir) over
displacement increments, ``level`` is its normalized Coulomb level and
``stiffness`` its slope.
"""

import itertools
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frictionobs import (
    FrictionParams,
    PlantParams,
    advance,
    level,
    simulate_forced,
    stiffness,
)

P = FrictionParams(c_f=0.2143, sigma=2.0, beta=0.002, s_scale=2000.0)
REST = (0.0, 0.0, 0)  # (z, f_r, dir) before any motion


def step(state, dx, v_sign):
    """The branch state after one displacement increment, as the plant loop takes it.

    v_sign is the velocity's sign, read through a deadband of 0.
    """
    return advance(*state, dx, v_sign, 0.0, P.s_scale, P.z_floor)


def flat(state):
    """True on a flat branch (f_r == dir != 0), which saturation leaves."""
    return state[1] == state[2] != 0


def force(state):
    """Coulomb force c_f * level of a branch state, as the plant loop computes it."""
    return P.c_f * level(*state, P.z_floor)


def virgin(z):
    """The virgin branch f0(z) as the kernel evaluates it: f_r = 0, dir = sign(z)."""
    return level(z, 0.0, 1 if z > 0 else -1, P.z_floor)


def test_default_kappa_frozen_value():
    # 2 * 2000 * 0.2143 * (-ln 1e-4), evaluated independently
    assert P.kappa == pytest.approx(7895.103766857982, rel=0, abs=1e-9)


def test_params_validation():
    for kw in (
        dict(c_f=0.0),
        dict(sigma=-1.0),
        dict(beta=0.0),
        dict(s_scale=math.inf),
        dict(z_floor=0.0),
        dict(z_floor=1.0),
        dict(deadband=-1e-4),
        dict(deadband=math.nan),
        dict(deadband=math.inf),
    ):
        bad = dict(c_f=0.2, sigma=2.0, beta=0.002, s_scale=2000.0)
        bad.update(kw)
        with pytest.raises(ValueError):
            FrictionParams(**bad)


def test_kappa_derived_from_the_law():
    fp = FrictionParams(c_f=0.2, sigma=2.0, beta=0.002, s_scale=2000.0, z_floor=1e-3)
    assert fp.kappa == 2.0 * 2000.0 * 0.2 * (-math.log(1e-3))
    assert fp.deadband == 1e-4
    with pytest.raises(TypeError):
        FrictionParams(c_f=0.2, sigma=2.0, beta=0.002, s_scale=2000.0, kappa=1e7)
    with pytest.raises(AttributeError):
        fp.kappa = 1e7


def test_f0_endpoints_exact():
    assert virgin(1.0) == 1.0
    assert virgin(-1.0) == -1.0


def test_f0_peak_value():
    # z*(1 - ln z) at z = 1/e is 2/e
    assert virgin(1.0 / math.e) == pytest.approx(0.7357588823428847, rel=0, abs=1e-15)


def test_f0_odd_and_monotone():
    zs = np.linspace(0.01, 1.0, 200)
    vals = np.array([virgin(z) for z in zs])
    neg = np.array([virgin(-z) for z in zs])
    assert np.allclose(neg, -vals, rtol=0, atol=0)
    assert np.all(np.diff(vals) > 0)


def test_branch_closure_exact():
    # every branch ends exactly at its direction
    for f_r in (-1.0, -0.6, -0.2143, 0.0, 0.37, 1.0):
        assert level(1.0, f_r, 1, P.z_floor) == 1.0
        assert level(-1.0, f_r, -1, P.z_floor) == -1.0


def test_virgin_branch_is_f0():
    for z in (0.05, 0.3, 0.9):
        assert level(z, 0.0, 1, P.z_floor) == z * (1.0 - math.log(z))


def test_stiffness_slope_and_cap():
    # virgin branch slope is s*c_f*(-ln z); the clip at the floor attains kappa
    args = (P.s_scale, P.c_f, P.z_floor)
    expect = P.s_scale * P.c_f * 1.0 * (-math.log(0.1))
    assert stiffness(0.1, 0.0, 1, *args) == pytest.approx(expect, rel=1e-15)
    assert stiffness(1e-7, -1.0, 1, *args) == P.kappa  # |dir - f_r| = 2
    assert stiffness(1.0, 0.0, 1, *args) == 0.0
    # a flat branch is stiff nowhere, also where z has crept back inside (-1, 1)
    assert stiffness(1.0, 1.0, 1, *args) == 0.0
    assert stiffness(0.5, 1.0, 1, *args) == 0.0


def test_coulomb_force_saturated_follows_v_sign():
    # a push through |z| = 1 locks the force at c_f * sign(v) for as long as v keeps its sign
    state = step(REST, 2.0 / P.s_scale, 1)
    assert flat(state) and force(state) == P.c_f
    state = step(state, 1e-6, 1)
    assert flat(state) and force(state) == P.c_f
    state = step(state, -4.0 / P.s_scale, -1)
    assert flat(state) and force(state) == -P.c_f
    state = step(state, -1e-6, -1)
    assert flat(state) and force(state) == -P.c_f


def test_advance_reads_v_through_the_deadband():
    def direction(state, v, deadband=P.deadband):
        return advance(*state, 0.0, v, deadband, P.s_scale, P.z_floor)[2]

    assert direction(REST, 2e-4) == 1
    assert direction(REST, -2e-4) == -1
    assert direction(REST, 5e-5) == 0
    assert direction(REST, P.deadband) == 0  # the edge is inside
    assert direction(REST, 0.5, deadband=1.0) == 0
    assert direction(REST, math.nan) == 0
    # a velocity inside the deadband does not reverse a moving branch
    moving = step(REST, 1e-5, 1)
    assert direction(moving, -5e-5) == 1
    assert direction(moving, -2e-4) == -1
    assert direction(moving, -1e-300, deadband=0.0) == -1


def test_reversal_memorizes_level_and_resets_z():
    dz = 0.4 / P.s_scale
    state = step(REST, dz, 1)
    lvl = force(state) / P.c_f
    z, f_r, d = step(state, -1e-6, -1)
    assert d == -1
    assert f_r == pytest.approx(lvl, rel=1e-15)
    # z restarted then advanced by s_scale*dx
    assert z == pytest.approx(P.s_scale * -1e-6, rel=1e-12)


def test_saturation_erases_memory():
    z, f_r, d = state = step(REST, 2.0 / P.s_scale, 1)
    assert z == 1.0 and f_r == 1.0 and d == 1
    # next reversal starts from the erased level +1, not the pre-saturation branch
    z, f_r, d = step(state, -1e-6, -1)
    assert f_r == 1.0 and d == -1


# displacement increments up to 0.3 in z, each with a velocity sign of its own
PATHS = st.lists(
    st.tuples(st.floats(-1.5e-4, 1.5e-4), st.sampled_from([-1, 0, 1])), max_size=300
)
_WALK = np.random.default_rng(3).uniform(-1.5e-4, 1.5e-4, size=10_000)


@settings(max_examples=200, deadline=None)
@given(PATHS)
# the walk at dt = 1 ms, its velocity's sign read through the default deadband
@example([(dx, (dx > 1e-7) - (dx < -1e-7)) for dx in _WALK.tolist()])
def test_force_bounded_on_random_walk(path):
    # |F_c| <= c_f on every state a path folds through, the saturated ones included
    state = REST
    for dx, v_sign in path:
        state = step(state, dx, v_sign)
        assert abs(force(state)) <= P.c_f


@settings(max_examples=200, deadline=None)
@given(PATHS, st.sampled_from([-1, 1]), st.floats(1.5, 3.0))
def test_saturation_closes_branch_after_any_path(path, direction, push):
    # whatever branch a path leaves, a push to z * dir >= 1 lands on level dir
    # exactly, and the next reversal starts from the memorized level dir
    state = REST
    for dx, v_sign in path:
        state = step(state, dx, v_sign)
    # a path may leave z on either side of zero; the push covers that too
    state = step(state, direction * (push + abs(state[0])) / P.s_scale, direction)
    z, f_r, d = state
    assert flat(state) and z * d >= 1.0
    assert level(*state, P.z_floor) == direction
    z, f_r, d = step(state, -direction * 1e-6, -direction)
    assert f_r == direction and d == -direction


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
    state = step(REST, 2.0 / P.s_scale, 1)
    assert flat(state) and state[1] == 1.0
    state = step(state, -1.0 / P.s_scale, -1)
    assert state[0] == -1.0
    assert force(state) == -P.c_f


def test_total_force_split():
    # the force of a step is F_c of the advanced branch plus the lagged F_v
    dt = 5e-4
    traj = simulate_forced(PlantParams(0.052), P, np.array([0.02 * 0.052 / dt, 0.0]), dt)
    v = traj.v[1]
    state = step(REST, v * dt, 1)
    target = P.sigma * v
    f_v = target + (0.0 - target) * math.exp(-dt / P.beta)
    assert traj.f[1] == pytest.approx(force(state) + f_v, rel=1e-15)


def test_plant_loop_guards():
    dt = 5e-4
    # the plant loop checks that the input is finite before its first step
    with pytest.raises(ValueError):
        simulate_forced(PlantParams(0.052), P, np.array([0.0, math.nan, 0.0]), dt)
    for bad_dt in (0.0, -dt, math.nan):
        with pytest.raises(ValueError):
            simulate_forced(PlantParams(0.052), P, np.zeros(3), bad_dt)


# -- the kernel against its builtin-call form ---------------------------------------


def _level_builtins(z, f_r, dir, z_floor):
    """level as it was written with abs/min/max/copysign: the bit-for-bit reference."""
    if dir == 0 or f_r == dir:
        return f_r
    if z == 0.0:
        zc = dir * z_floor
    else:
        zc = math.copysign(min(max(abs(z), z_floor), 1.0), z)
    fp = abs(dir - f_r) * (zc * (1.0 - math.log(abs(zc)))) + f_r
    return min(1.0, max(-1.0, fp))


def _stiffness_builtins(z, f_r, dir, s_scale, c_f, z_floor):
    """stiffness as it was written with abs/min/max: the bit-for-bit reference."""
    if f_r == dir:
        return 0.0
    zc = min(max(abs(z), z_floor), 1.0)
    return s_scale * c_f * abs(dir - f_r) * max(0.0, -math.log(zc))


def _advance_builtins(z, f_r, dir, dx, v, deadband, s_scale, z_floor):
    """advance on _level_builtins."""
    v_sign = 1 if v > deadband else -1 if v < -deadband else 0
    if v_sign != 0 and v_sign != dir:
        f_r = _level_builtins(z, f_r, dir, z_floor)
        z = 0.0
        dir = v_sign
    if dir != 0:
        z += s_scale * dx
        if z * dir >= 1.0:
            z = f_r = float(dir)
    return z, f_r, dir


def _bits(*values):
    """The exact bits of each float (NaN payload and the sign of zero included)."""
    return [struct.pack("<d", v) for v in values]


def _assert_kernel_matches(z, f_r, dir, z_floor, s_scale, c_f, dx, v, deadband):
    assert _bits(level(z, f_r, dir, z_floor)) == _bits(_level_builtins(z, f_r, dir, z_floor))
    assert (_bits(stiffness(z, f_r, dir, s_scale, c_f, z_floor))
            == _bits(_stiffness_builtins(z, f_r, dir, s_scale, c_f, z_floor)))
    got = advance(z, f_r, dir, dx, v, deadband, s_scale, z_floor)
    want = _advance_builtins(z, f_r, dir, dx, v, deadband, s_scale, z_floor)
    assert _bits(*got[:2]) == _bits(*want[:2]) and got[2] == want[2]


def test_kernel_matches_its_builtin_form_on_the_edges():
    # z on both sides of each clip edge's sign; f_r on the flat branch and inside it
    z_floor = P.z_floor
    zs = [0.0, -0.0, z_floor, -z_floor, 1.0, -1.0, math.inf, -math.inf, math.nan, -math.nan]
    for z, dir, f_r, v in itertools.product(zs, [-1, 0, 1], [-1.0, -0.5, 0.0, -0.0, 0.5, 1.0],
                                            [-1.0, 0.0, 1.0]):
        _assert_kernel_matches(z, f_r, dir, z_floor, P.s_scale, P.c_f, 1e-6, v, P.deadband)


@settings(max_examples=1000, deadline=None)
@given(z=st.one_of(st.floats(-2.0, 2.0), st.floats(allow_nan=True, allow_infinity=True)),
       f_r=st.floats(-1.0, 1.0), on_flat=st.booleans(), dir=st.sampled_from([-1, 0, 1]),
       z_floor=st.floats(1e-12, 0.5), s_scale=st.floats(1e-3, 1e6), c_f=st.floats(1e-3, 1e3),
       dx=st.floats(-1e-3, 1e-3), v=st.floats(-1.0, 1.0), deadband=st.sampled_from([0.0, 1e-4]))
def test_kernel_matches_its_builtin_form_bit_for_bit(z, f_r, on_flat, dir, z_floor, s_scale, c_f,
                                                     dx, v, deadband):
    f_r = float(dir) if on_flat else f_r
    _assert_kernel_matches(z, f_r, dir, z_floor, s_scale, c_f, dx, v, deadband)
