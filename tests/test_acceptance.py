"""Acceptance suite.

One test per criterion, each printing a single PASS/FAIL line on the real
stdout (bypassing capture) so the run log always shows the verdicts:

  1 gain reproduction          exact values and placed poles
  2 robustness conditions      1000 randomized gain sets, root oracle
  3 pole-gap monotonicity      gap at phi = 0 is the sweep maximum
  4 presliding map             endpoints, slope vs FD, closure, bound
  5 frozen-phi observer        decay factor and one-step expm match
  6 end-to-end scenario        RMS(e_obs) < RMS(e_model), 1% windows
  7 identification round-trip  sigma and s within 5%, deterministic
  8 determinism and I/O        byte-identical CSVs, ingest/emit identity
"""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from frictionobs import (
    FitProblem,
    FrictionParams,
    ImpulseTrain,
    Measured,
    PlantParams,
    SimConfig,
    advance,
    deadband_sign,
    design_gains,
    fit,
    level,
    measure,
    observer_matrix,
    observer_update,
    read_columns,
    rms,
    run_observer,
    simulate,
    simulate_forced,
    validate_robust,
    write_columns,
)
from frictionobs.cli import main
from frictionobs.csvio import ESTIMATES_HEADER, MEASURED_HEADER, SIM_HEADER

M_KG = 0.052
C_F = 0.2143


def _verdict(capsys, num: int, label: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num} ({label}): {detail}",
              flush=True)
    assert ok, f"criterion {num} ({label}): {detail}"


# -- criterion 1 -------------------------------------------------------------

def test_criterion_1_gain_reproduction(capsys):
    g = design_gains((-350.0, -10.0), M_KG, sob=0.0)
    exact = g.l1 == 360.0 and g.l2 == -182.0
    lam = sorted(float(z.real) for z in np.roots([1.0, g.l1, -g.l2 / M_KG]))
    ref = np.sort(np.linalg.eigvals(np.array(observer_matrix(g, M_KG, 0.0))).real)
    placed = (
        abs(lam[0] + 350.0) <= 1e-9 * 350.0
        and abs(lam[1] + 10.0) <= 1e-9 * 10.0
        and np.allclose(lam, ref, rtol=1e-9)
    )
    _verdict(capsys, 1, "gain reproduction", exact and placed,
             f"l1={g.l1!r} l2={g.l2!r} poles={lam}")


# -- criteria 2 and 3 share one randomized population ------------------------

@pytest.fixture(scope="module")
def random_population():
    from frictionobs import ObserverGains

    rng = np.random.default_rng(2024)
    cases = []
    while len(cases) < 1000:
        m = rng.uniform(0.01, 1.0)
        sob = rng.uniform(0.0, 100.0)
        kappa = rng.uniform(0.0, 1e5)
        l2 = sob - 10.0 ** rng.uniform(-2, 2)
        bound = 2.0 * math.sqrt((kappa + sob - l2) / m)
        l1 = bound * (1.0 + 10.0 ** rng.uniform(-3, 1))
        gains = ObserverGains(l1=l1, l2=l2)
        if not validate_robust(gains, m, sob, kappa).passed:
            continue
        cases.append((gains, m, sob, kappa))
    return cases


def test_criterion_2_robustness_conditions(random_population, capsys):
    bad = 0
    worst_imag = 0.0
    worst_real = -math.inf
    for gains, m, sob, kappa in random_population:
        phis = np.linspace(0.0, kappa, 100)
        for phi in phis:
            r = np.roots([1.0, gains.l1, (sob + phi - gains.l2) / m])
            imag = np.max(np.abs(r.imag)) / max(1.0, np.max(np.abs(r.real)))
            real = float(np.max(r.real))
            worst_imag = max(worst_imag, imag)
            worst_real = max(worst_real, real)
            if imag > 1e-9 or real > 0.0:
                bad += 1
    _verdict(capsys, 2, "robustness conditions", bad == 0,
             f"1000 gain sets x 100 phi: {bad} counterexamples, "
             f"worst imag ratio {worst_imag:.2e}, worst real part {worst_real:.3e}")


def test_criterion_3_pole_gap_monotone(random_population, capsys):
    bad = 0
    for gains, m, sob, kappa in random_population:
        phis = np.linspace(0.0, kappa, 100)
        # the observer's error matrix carries sigma/beta inside its phi
        lam = np.linalg.eigvals(np.array([observer_matrix(gains, m, sob + phi) for phi in phis]))
        gaps = np.abs(lam[:, 1].real - lam[:, 0].real)
        # allow roundoff slack of a few ulps relative to the gap scale
        if gaps[0] < np.max(gaps) * (1.0 - 1e-12):
            bad += 1
    _verdict(capsys, 3, "pole-gap monotonicity", bad == 0,
             f"gap at phi=0 is the sweep maximum in 1000/1000 cases" if bad == 0
             else f"{bad} cases had the maximum gap away from phi=0")


# -- criterion 4 -------------------------------------------------------------

def test_criterion_4_presliding_map(capsys):
    p = FrictionParams(c_f=C_F, sigma=2.0, beta=0.002, s_scale=2000.0)

    def f0(z):
        # the virgin branch (f_r = 0) as the kernel evaluates it
        return level(z, 0.0, 1 if z > 0 else -1, False, p.z_floor)

    endpoints = f0(1.0) == 1.0 and f0(-1.0) == -1.0

    zs = np.linspace(0.01, 0.99, 197)
    worst_rel = 0.0
    for z in zs:
        h = 1e-5 * z
        fd = (f0(z + h) - f0(z - h)) / (2.0 * h)
        true = -math.log(z)  # analytic slope of z*(1 - ln z)
        worst_rel = max(worst_rel, abs(fd - true) / abs(true))
    slope_ok = worst_rel <= 1e-6

    closure = all(
        level(1.0, f_r, 1, False, p.z_floor) * C_F == C_F
        and level(-1.0, f_r, -1, False, p.z_floor) * C_F == -C_F
        for f_r in (-1.0, -0.5, 0.0, 0.2143, 0.77, 1.0)
    )

    rng = np.random.default_rng(99)
    state = (0.0, 0.0, 0, False)  # (z, f_r, dir, sat) at rest
    bound_ok = True
    peak = 0.0
    saturations = 0
    dz = 2.0 ** -10 / p.s_scale  # exact binary step keeps z increments clean
    # sustained same-direction stretches so z can accumulate through |z| = 1;
    # each stretch flip exercises a reversal from a different branch level
    for stretch in range(32):
        direction = 1 if stretch % 3 != 2 else -1
        for k in range(128):
            step = direction * dz * float(rng.integers(0, 41))
            vs = deadband_sign(step / 5e-4)
            was_sat = state[3]
            state = advance(*state, step, vs, p.s_scale, p.z_floor)
            saturations += int(state[3] and not was_sat)
            fc = C_F * level(*state, p.z_floor)
            peak = max(peak, abs(fc))
            if abs(fc) > C_F:
                bound_ok = False
    explored = peak == C_F and saturations > 5  # bound actually reached
    _verdict(capsys, 4, "presliding map",
             endpoints and slope_ok and closure and bound_ok and explored,
             f"endpoints exact={endpoints}, slope rel err {worst_rel:.2e}, "
             f"closure exact={closure}, |F_c| peak {peak!r} <= {C_F} "
             f"across {saturations} saturation events")


# -- criterion 5 -------------------------------------------------------------

def test_criterion_5_frozen_phi_observer(capsys):
    g = design_gains((-350.0, -10.0), M_KG)
    dt = 5e-4

    # one-step maps: homogeneous and forced, against matrix-exponential refs
    worst = 0.0
    rng = np.random.default_rng(31)
    for phi in (0.0, 1.0, 56.25, 500.0, 2000.0, 7895.0):
        M = np.array(observer_matrix(g, M_KG, phi))
        z = rng.uniform(-0.5, 0.5, size=2)
        x_held = rng.uniform(-1e-3, 1e-3)
        u = rng.uniform(-2.0, 2.0)
        c = M @ np.array([g.l1, g.l2]) * x_held + np.array([u / M_KG, 0.0])
        aug = np.zeros((3, 3))
        aug[:2, :2] = M
        aug[:2, 2] = c
        ref = expm(aug * dt) @ np.array([z[0], z[1], 1.0])
        z1n, z2n = observer_update(z[0], z[1], x_held, u, dt, g, M_KG, phi)
        scale = max(1.0, float(np.max(np.abs(ref[:2]))))
        worst = max(worst, abs(z1n - ref[0]) / scale, abs(z2n - ref[1]) / scale)
    maps_ok = worst <= 1e-8

    # error decay on the linear plant x' = v, v' = (u - f)/m, f' = phi*v;
    # the undamped truth keeps oscillating, so the hold discretization
    # leaves an O(dt^2) tracking floor: dt = 1e-4 puts it near 1e-4 of e0
    phi_star = 100.0
    lam_slow = 10.0
    horizon = 10.0 / lam_slow
    dt = 1e-4
    n = int(round(horizon / dt)) + 1
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
    e0 = math.hypot(g.l1 * xs[0] - vs[0], g.l2 * xs[0] - fs[0])
    for k in range(1, n):
        z1, z2 = observer_update(z1, z2, 0.5 * (xs[k - 1] + xs[k]), 0.0, dt, g, M_KG, phi_star)
    e_end = math.hypot(z1 + g.l1 * xs[-1] - vs[-1], z2 + g.l2 * xs[-1] - fs[-1])
    decay = e_end / e0
    decay_ok = decay <= 1e-3
    _verdict(capsys, 5, "frozen-phi observer", maps_ok and decay_ok,
             f"one-step worst rel err {worst:.2e} <= 1e-8, "
             f"decay {decay:.2e} <= 1e-3 within {horizon} s")


# -- criterion 6 -------------------------------------------------------------

E2E_TRUTH = FrictionParams(c_f=C_F, sigma=0.6, beta=0.016, s_scale=500.0)
E2E_NOMINAL = FrictionParams(c_f=C_F, sigma=0.9, beta=0.016, s_scale=500.0)  # +50% sigma
E2E_PULSES = (
    (0.3, 0.01, 1.6),
    (1.4, 0.01, -1.28),
    (2.5, 0.01, 1.44),
    (3.6, 0.01, -1.52),
    (4.7, 0.01, 1.2),
)
E2E_SIM = SimConfig(dt=5e-4, t_end=5.7, noise_std=5e-7, quant=0.0, seed=7)
E2E_POLES = (-650.0, -60.0)


def test_criterion_6_end_to_end(capsys):
    plant = PlantParams(m=M_KG)
    sob_nom = E2E_NOMINAL.sigma / E2E_NOMINAL.beta
    g = design_gains(E2E_POLES, M_KG, sob_nom)
    assert validate_robust(g, M_KG, sob_nom, E2E_NOMINAL.kappa).passed

    traj = simulate(plant, E2E_TRUTH, ImpulseTrain(E2E_PULSES), E2E_SIM)
    meas = measure(traj, E2E_SIM)
    est = run_observer(meas, g, M_KG, E2E_NOMINAL)
    model = simulate_forced(plant, E2E_NOMINAL, meas.u, E2E_SIM.dt, E2E_SIM.v_max)
    rms_obs, rms_model = rms(est.e_obs), rms(meas.x - model.x)
    rms_ok = rms_obs < rms_model

    w2 = est.w2
    settle = 5.0 / abs(max(E2E_POLES))  # slow pole
    conv_ok = True
    margins = []
    starts = [p[0] for p in E2E_PULSES] + [E2E_SIM.t_end + E2E_SIM.dt]
    for i in range(len(E2E_PULSES)):
        seg = (traj.t >= starts[i]) & (traj.t < starts[i + 1])
        peak = np.max(np.abs(traj.v[seg]))
        window = seg & (traj.t >= starts[i] + settle)
        err = np.max(np.abs(w2[window] - traj.v[window]))
        margins.append(err / (0.01 * peak))
        if err > 0.01 * peak:
            conv_ok = False
    _verdict(capsys, 6, "end-to-end scenario", rms_ok and conv_ok,
             f"rms_e_obs={rms_obs:.3e} < rms_e_model={rms_model:.3e}, "
             f"window errors at {['%.2f' % m for m in margins]} of the 1% bars")


# -- criterion 7 -------------------------------------------------------------

IDENT_TRUTH = (2.0, 0.002, 2000.0)
IDENT_PULSE = (0.01, 0.005, 1.0)
IDENT_BOUNDS = ((0.5, 8.0), (5e-4, 8e-3), (500.0, 8000.0))
IDENT_THETA0 = (2.6, 0.0015, 1500.0)


def test_criterion_7_identification_round_trip(capsys):
    sigma, beta, s_scale = IDENT_TRUTH
    plant = PlantParams(m=M_KG)
    fp = FrictionParams(c_f=C_F, sigma=sigma, beta=beta, s_scale=s_scale)
    cfg = SimConfig(dt=5e-4, t_end=0.3, noise_std=0.0, seed=1)
    traj = simulate(plant, fp, ImpulseTrain((IDENT_PULSE,)), cfg)
    problem = FitProblem(record=Measured(traj.t, traj.x, traj.u), plant=plant, friction=fp,
                         bounds=IDENT_BOUNDS)
    r1 = fit(problem, IDENT_THETA0)
    r2 = fit(problem, IDENT_THETA0)
    sig_err = abs(r1.theta[0] - sigma) / sigma
    s_err = abs(r1.theta[2] - s_scale) / s_scale
    deterministic = r1.theta == r2.theta and r1.rms_residual == r2.rms_residual
    ok = sig_err < 0.05 and s_err < 0.05 and deterministic
    _verdict(capsys, 7, "identification round-trip", ok,
             f"sigma err {sig_err:.2%}, s err {s_err:.2%} (< 5%), "
             f"deterministic={deterministic}, rms={r1.rms_residual:.1e}")


# -- criterion 8 -------------------------------------------------------------

CFG_TEXT = """\
plant.m = 0.052
friction.sigma = 2.0
friction.beta = 0.002
friction.s_scale = 2000
sim.dt = 5e-4
sim.t_end = 0.5
sim.noise_std = 2e-6
sim.quant = 1e-7
sim.seed = 11
scenario.pulses = 0.05,0.01,1.6; 0.3,0.01,-1.2
observer.poles = -350, -10
"""


def test_criterion_8_determinism_and_io(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CFG_TEXT, encoding="utf-8")
    pairs = []
    for tag in ("a", "b"):
        d = tmp_path / tag
        d.mkdir()
        sim = d / "sim.csv"
        est = d / "est.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(sim)]) == 0
        assert main(["observe", "--config", str(cfg),
                     "--measured", str(d / "sim_measured.csv"), "--out", str(est)]) == 0
        pairs.append((sim, d / "sim_measured.csv", est))
    capsys.readouterr()
    byte_identical = all(
        pairs[0][i].read_bytes() == pairs[1][i].read_bytes() for i in range(3)
    )

    identity_ok = True
    for path, header in ((pairs[0][0], SIM_HEADER), (pairs[0][1], MEASURED_HEADER),
                         (pairs[0][2], ESTIMATES_HEADER)):
        cols = read_columns(path, header)
        echo = tmp_path / ("echo_" + path.name)
        write_columns(echo, header, cols)
        if echo.read_bytes() != path.read_bytes():
            identity_ok = False
        cols2 = read_columns(echo, header)
        if not all(np.array_equal(c1, c2) for c1, c2 in zip(cols, cols2)):
            identity_ok = False
    _verdict(capsys, 8, "determinism and I/O", byte_identical and identity_ok,
             f"rerun CSVs byte-identical={byte_identical}, "
             f"ingest/emit identity={identity_ok}")


def test_identify_on_the_two_pulse_record(tmp_path, capsys):
    # criterion 8's noisy two-pulse record, fitted from criterion 7's start point
    # through the CLI: the forward model runs the record's own u
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CFG_TEXT, encoding="utf-8")
    start = tmp_path / "start.cfg"
    start.write_text(CFG_TEXT.replace("sigma = 2.0", "sigma = 2.6")
                     .replace("beta = 0.002", "beta = 0.0015")
                     .replace("s_scale = 2000", "s_scale = 1500"), encoding="utf-8")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim.csv")]) == 0
    report = tmp_path / "fit.txt"
    assert main(["identify", "--config", str(start), "--measured",
                 str(tmp_path / "sim_measured.csv"), "--out", str(report),
                 "--bounds-factor", "4"]) == 0
    assert capsys.readouterr().err == ""
    got = dict(line.split(" = ") for line in report.read_text(encoding="utf-8").splitlines())
    assert got["converged"] == "true"
    assert abs(float(got["sigma"]) - 2.0) / 2.0 < 0.05
    assert abs(float(got["s_scale"]) - 2000.0) / 2000.0 < 0.05
    # the first pulse, read from u
    assert (got["amplitude"], got["width"]) == ("1.6", "0.01")
