"""Reference equality: the plant and observer loops against folds over the public API.

The plant loop and the observer's presliding replica run the hysteresis law
on local floats. Each must reproduce, bit for bit, a plain loop written here
over the kernel (``advance``, ``level``, ``stiffness``), ``observer_update``
and the exact viscous-lag update, with the branch state kept in one tuple.
Random impulse trains cover presliding only, gross sliding with saturation,
and reversals from rest.
"""

import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from frictionobs import (
    FrictionParams,
    ImpulseTrain,
    PlantParams,
    SimConfig,
    advance,
    deadband_sign,
    design_gains,
    level,
    measure,
    observer_update,
    run_observer,
    simulate,
    simulate_forced,
    stiffness,
)

M_KG = 0.052
C_F = 0.2143
REST = (0.0, 0.0, 0, False)  # branch state (z, f_r, dir, sat) before any motion


def reference_plant(m, fp, u, dt):
    """x, v, f of the semi-implicit plant, one public-API friction step per sample."""
    n = len(u)
    xs, vs, fs = np.zeros(n), np.zeros(n), np.zeros(n)
    x = v = f_v = 0.0
    state = REST
    for k in range(n):
        target = fp.sigma * v
        f_v = target + (f_v - target) * math.exp(-dt / fp.beta)
        sign = deadband_sign(v, fp.deadband)
        state = advance(*state, v * dt, sign, fp.s_scale, fp.z_floor)
        f = fp.c_f * level(*state, fp.z_floor) + f_v
        xs[k], vs[k], fs[k] = x, v, f
        if k < n - 1:
            v += dt * (float(u[k]) - f) / m
            x += dt * v
    return xs, vs, fs


def reference_observer(x, u, dt, g, m, fp):
    """w2~, w3~ and phi of the observer, folded over the public API."""
    n = len(x)
    w2s, w3s, phis = np.zeros(n), np.zeros(n), np.zeros(n)
    z1 = z2 = 0.0
    state = REST
    sob = fp.sigma / fp.beta
    for k in range(n):
        phi = stiffness(*state, fp.s_scale, fp.c_f, fp.z_floor) + sob
        dx = 0.0
        if k:
            dx = x[k] - x[k - 1]
            z1, z2 = observer_update(
                z1, z2, 0.5 * (x[k - 1] + x[k]), u[k - 1], dt, g, m, phi
            )
        w2 = z1 + g.l1 * x[k]
        w3 = z2 + g.l2 * x[k]
        state = advance(*state, dx, deadband_sign(w2, fp.deadband), fp.s_scale, fp.z_floor)
        w2s[k], w3s[k], phis[k] = w2, w3, phi
    return w2s, w3s, phis


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


@st.composite
def scenarios(draw):
    """(friction, impulse train, sim config) for one of three regimes."""
    regime = draw(st.sampled_from(["presliding", "sliding", "reversal"]))
    fp = FrictionParams(
        c_f=C_F,
        sigma=draw(st.sampled_from([0.6, 2.0])),
        beta=draw(st.sampled_from([0.002, 0.016])),
        s_scale=draw(st.sampled_from([500.0, 2000.0])),
        deadband=draw(st.sampled_from([1e-4, 1e-3])),
    )
    dt = draw(st.sampled_from([2.5e-4, 5e-4, 1e-3]))
    n_pulses = draw(st.integers(1, 4))
    sign = draw(st.sampled_from([-1.0, 1.0]))
    pulses = []
    t = draw(st.floats(0.0, 0.02))
    for _ in range(n_pulses):
        if regime == "presliding":
            amp = draw(st.floats(0.01, 0.95 * C_F))
            dur = draw(st.floats(2e-3, 0.05))
            gap = draw(st.floats(5e-3, 0.05))
            sign = draw(st.sampled_from([-1.0, 1.0]))
        elif regime == "sliding":
            amp = draw(st.floats(1.0, 3.0))
            dur = draw(st.floats(5e-3, 0.03))
            gap = draw(st.floats(0.0, 0.05))
            sign = draw(st.sampled_from([-1.0, 1.0]))
        else:
            # alternating pushes with room to stop in between
            amp = draw(st.floats(0.3, 1.6))
            dur = draw(st.floats(3e-3, 0.015))
            gap = draw(st.floats(0.06, 0.15))
            sign = -sign
        pulses.append((t, dur, sign * amp))
        t += dur + gap
    cfg = SimConfig(
        dt=dt,
        t_end=t + draw(st.floats(0.0, 0.1)),
        noise_std=draw(st.sampled_from([0.0, 5e-7])),
        seed=draw(st.integers(0, 2**16)),
    )
    return fp, ImpulseTrain(tuple(pulses)), cfg


PROPERTY = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@PROPERTY
@given(scenarios())
def test_plant_matches_reference_loop(case):
    fp, train, cfg = case
    traj = simulate(PlantParams(M_KG), fp, train, cfg)
    forced = simulate_forced(PlantParams(M_KG), fp, traj.u, cfg.dt)
    xs, vs, fs = reference_plant(M_KG, fp, traj.u, cfg.dt)
    for got in (traj, forced):
        assert _bits(got.x) == _bits(xs)
        assert _bits(got.v) == _bits(vs)
        assert _bits(got.f) == _bits(fs)


@PROPERTY
@given(scenarios(), st.floats(-600.0, -200.0), st.floats(-80.0, -5.0))
def test_observer_matches_reference_fold(case, lam_fast, lam_slow):
    fp, train, cfg = case
    g = design_gains((lam_fast, lam_slow), M_KG, fp.sigma / fp.beta)
    meas = measure(simulate(PlantParams(M_KG), fp, train, cfg), cfg)
    est = run_observer(meas, g, M_KG, fp)
    w2, w3, phi = reference_observer(meas.x.tolist(), meas.u.tolist(), cfg.dt, g, M_KG, fp)
    assert _bits(est.w2) == _bits(w2)
    assert _bits(est.w3) == _bits(w3)
    assert _bits(est.phi) == _bits(phi)
