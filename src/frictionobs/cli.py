"""Command-line front end: simulate | design | observe | identify | compare.

Exit codes are stable: 0 success, 1 configuration/argument parse error,
2 simulation divergence, 3 gain-design conditions failed (gains are still
printed), 4 CSV schema violation or grid/length mismatch. Success paths
print to stdout only.
"""

from __future__ import annotations

import argparse
import math
import shutil
import sys
from dataclasses import replace
from pathlib import Path

from .config import Config, ConfigError, load_config
from .csvio import (
    ESTIMATES_HEADER,
    MEASURED_HEADER,
    SIM_HEADER,
    CsvSchemaError,
    read_columns,
    write_columns,
)
from .gains import design_gains, validate_robust
from .ident import THETA_NAMES, FitProblem, fit
from .observer import GridError, error_metrics, rms, run_observer
from .plant import (
    Measured,
    SimulationDiverged,
    Trajectory,
    measure,
    same_grid,
    simulate,
    simulate_forced,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DIVERGED = 2
EXIT_DESIGN = 3
EXIT_SCHEMA = 4


def _fmt(v: float) -> str:
    return repr(float(v))


def _write_sim_csv(path: Path, traj: Trajectory) -> None:
    write_columns(path, SIM_HEADER, [traj.t, traj.x, traj.v, traj.f, traj.u])


def _write_measured_csv(path: Path, meas: Measured) -> None:
    write_columns(path, MEASURED_HEADER, [meas.t, meas.x, meas.u])


def _derived_measured_path(out: Path) -> Path:
    return out.with_name(out.stem + "_measured" + (out.suffix or ".csv"))


def _run_path(path: Path, i: int) -> Path:
    return path.with_name(f"{path.stem}_run{i:03d}{path.suffix or '.csv'}")


def cmd_simulate(args: argparse.Namespace) -> int:
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out = Path(args.out)
    measured_out = Path(args.measured_out) if args.measured_out else _derived_measured_path(out)
    runs = args.runs
    if runs < 1:
        print("--runs must be >= 1", file=sys.stderr)
        return EXIT_CONFIG
    paths = [(out, measured_out)]
    if runs > 1:
        paths = [(_run_path(out, i), _run_path(measured_out, i)) for i in range(runs)]
    try:
        traj = simulate(cfg.plant, cfg.friction, cfg.scenario, cfg.sim, cfg.observer.deadband)
    except SimulationDiverged as exc:
        print(f"simulation diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    # the seed only reaches the measurement noise, so every run shares one truth
    for i, (s_path, m_path) in enumerate(paths):
        if i == 0:
            _write_sim_csv(s_path, traj)
        else:
            shutil.copyfile(paths[0][0], s_path)
        seed = cfg.sim.seed + i
        _write_measured_csv(m_path, measure(traj, replace(cfg.sim, seed=seed)))
        print(f"seed {seed}: wrote {s_path} and {m_path}")
    return EXIT_OK


def cmd_design(args: argparse.Namespace) -> int:
    parts = [p.strip() for p in args.poles.split(",")]
    if len(parts) != 2:
        print(f"invalid pole specification {args.poles!r}: need two values", file=sys.stderr)
        return EXIT_CONFIG
    try:
        poles = (float(parts[0]), float(parts[1]))
        g = design_gains(poles, args.m, args.sob)
        report = validate_robust(g, args.m, args.sob, args.kappa)
    except ValueError as exc:
        print(f"invalid design request: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"l1 = {_fmt(g.l1)}")
    print(f"l2 = {_fmt(g.l2)}")
    print(f"cond_a = {str(report.cond_a).lower()}")
    print(f"cond_b = {str(report.cond_b).lower()}")
    print(f"cond_stab = {str(report.cond_stab).lower()}")
    print(f"worst_discriminant = {_fmt(report.worst_discriminant)}")
    print(f"lam1_range = {_fmt(report.lam1_range[0])}, {_fmt(report.lam1_range[1])}")
    print(f"lam2_range = {_fmt(report.lam2_range[0])}, {_fmt(report.lam2_range[1])}")
    return EXIT_OK if report.passed else EXIT_DESIGN


def cmd_observe(args: argparse.Namespace) -> int:
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        t, x, u = read_columns(args.measured, MEASURED_HEADER)
    except CsvSchemaError as exc:
        print(f"measured CSV rejected: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    meas = Measured(t, x, u)
    try:
        est = run_observer(
            meas, cfg.observer.gains, cfg.plant.m, cfg.friction, cfg.observer.deadband
        )
    except GridError as exc:
        print(f"measured CSV rejected: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except ValueError as exc:
        # Measured has checked x and u, so what is left is the gain condition
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    write_columns(Path(args.out), ESTIMATES_HEADER, [est.t, est.w2, est.w3, est.phi, est.e_obs])
    if len(est) == 0:
        print(f"no samples; wrote {args.out}")
        return EXIT_OK
    print(f"rms_e_obs = {_fmt(rms(est.e_obs))}")
    if args.truth:
        try:
            ts, xs, vs, fs, us = read_columns(args.truth, SIM_HEADER)
        except CsvSchemaError as exc:
            print(f"truth CSV rejected: {exc}", file=sys.stderr)
            return EXIT_SCHEMA
        if not same_grid(t, ts):
            print("truth CSV rejected: grid does not match the measured sequence", file=sys.stderr)
            return EXIT_SCHEMA
        if len(t) < 2:
            print("truth CSV rejected: --truth needs at least 2 samples", file=sys.stderr)
            return EXIT_SCHEMA
        try:
            model = simulate_forced(cfg.plant, cfg.friction, u, float(t[1] - t[0]),
                                    cfg.sim.v_max, cfg.observer.deadband)
        except SimulationDiverged as exc:
            print(f"nominal model diverged: {exc}", file=sys.stderr)
            return EXIT_DIVERGED
        metrics = error_metrics(meas, est, model)
        print(f"rms_velocity_error = {_fmt(rms(est.w2 - vs))}")
        print(f"rms_e_model = {_fmt(metrics.rms_model)}")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_identify(args: argparse.Namespace) -> int:
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        t, x, u = read_columns(args.measured, MEASURED_HEADER)
    except CsvSchemaError as exc:
        print(f"measured CSV rejected: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    if args.impulse_start is not None:
        t0 = args.impulse_start
        amp0, width0 = 1.0, 0.005
        if cfg.scenario.pulses:
            _, width0, amp0 = cfg.scenario.pulses[0]
    elif cfg.scenario.pulses:
        t0, width0, amp0 = cfg.scenario.pulses[0]
    else:
        print("no impulse start: give --impulse-start or a scenario.pulses entry",
              file=sys.stderr)
        return EXIT_CONFIG
    theta0 = (cfg.friction.sigma, cfg.friction.beta, cfg.friction.s_scale, abs(amp0), width0)
    f = args.bounds_factor
    if f <= 1.0:
        print("--bounds-factor must be > 1", file=sys.stderr)
        return EXIT_CONFIG
    bounds = tuple((v / f, v * f) for v in theta0)
    try:
        problem = FitProblem(
            t=t, x=x, plant=cfg.plant, c_f=cfg.friction.c_f, impulse_start=t0,
            bounds=bounds, z_floor=cfg.friction.z_floor,
        )
    except ValueError as exc:
        print(f"measured CSV rejected: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    result = fit(problem, theta0)
    if not math.isfinite(result.rms_residual):
        print("fit diverged: no candidate gave a finite residual", file=sys.stderr)
        return EXIT_DIVERGED
    lines = [f"{name} = {_fmt(v)}" for name, v in zip(THETA_NAMES, result.theta)]
    lines.append(f"rms_residual = {_fmt(result.rms_residual)}")
    lines.append(f"iterations = {result.iterations}")
    lines.append(f"converged = {str(result.converged).lower()}")
    lines.append(f"beta_insensitive = {str(result.beta_insensitive).lower()}")
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    for line in lines:
        print(line)
    print(f"wrote {args.out}")
    return EXIT_OK


PLOT_SCRIPT = """\
#!/usr/bin/env python3
# Plot a merged comparison CSV (pass its path as the only argument).
import csv, sys

import matplotlib.pyplot as plt

rows = list(csv.DictReader(open(sys.argv[1], encoding="utf-8")))
t = [float(r["t"]) for r in rows]
fig, axes = plt.subplots(3, 1, sharex=True, figsize=(8, 9))
axes[0].plot(t, [float(r["v"]) for r in rows], label="v")
axes[0].plot(t, [float(r["w2_tilde"]) for r in rows], "--", label="w2_tilde")
axes[0].set_ylabel("velocity [m/s]"); axes[0].legend()
axes[1].plot(t, [float(r["f"]) for r in rows], label="f")
axes[1].plot(t, [float(r["w3_tilde"]) for r in rows], "--", label="w3_tilde")
axes[1].set_ylabel("friction [N]"); axes[1].legend()
axes[2].plot(t, [float(r["e_obs"]) for r in rows], label="e_obs")
axes[2].set_ylabel("e_obs [m]"); axes[2].set_xlabel("t [s]"); axes[2].legend()
plt.tight_layout(); plt.show()
"""


def cmd_compare(args: argparse.Namespace) -> int:
    try:
        ts, xs, vs, fs, us = read_columns(args.sim, SIM_HEADER)
    except CsvSchemaError as exc:
        print(f"sim CSV rejected: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    try:
        te, w2, w3, phi, e_obs = read_columns(args.estimates, ESTIMATES_HEADER)
    except CsvSchemaError as exc:
        print(f"estimates CSV rejected: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    if len(ts) != len(te):
        print(
            f"row count mismatch: sim has {len(ts)} rows, estimates has {len(te)}",
            file=sys.stderr,
        )
        return EXIT_SCHEMA
    if not same_grid(ts, te):
        print("timestamp mismatch between sim and estimates", file=sys.stderr)
        return EXIT_SCHEMA
    header = ("t", "x", "v", "f", "u", "w2_tilde", "w3_tilde", "phi", "e_obs")
    write_columns(Path(args.out), header, [ts, xs, vs, fs, us, w2, w3, phi, e_obs])
    print(f"rows = {len(ts)}")
    print(f"rms_e_obs = {_fmt(rms(e_obs))}")
    print(f"rms_velocity_error = {_fmt(rms(w2 - vs))}")
    print(f"rms_force_error = {_fmt(rms(w3 - fs))}")
    if args.plot_script:
        Path(args.plot_script).write_text(PLOT_SCRIPT, encoding="utf-8")
        print(f"wrote {args.plot_script}")
    print(f"wrote {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frictionobs",
        description="Simulate, observe and identify a 1-DOF system with presliding friction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run the plant and write sim-out + measured CSVs")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="sim-out CSV path (t,x,v,f,u)")
    p.add_argument("--measured-out", default=None,
                   help="measured CSV path (t,x,u); default: <out>_measured.csv")
    p.add_argument("--runs", type=int, default=1,
                   help="batch of independent runs with seeds seed..seed+N-1")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("design", help="design observer gains and check robustness")
    p.add_argument("--poles", required=True, help="two poles, e.g. '-350,-10'")
    p.add_argument("--m", type=float, default=0.052)
    p.add_argument("--sob", type=float, default=0.0, help="sigma/beta coupling term")
    p.add_argument("--kappa", type=float, default=0.0, help="presliding stiffness bound")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("observe", help="run the observer over a measured CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--measured", required=True, help="measured CSV (t,x,u)")
    p.add_argument("--out", required=True, help="estimates CSV path")
    p.add_argument("--truth", default=None, help="optional sim-out CSV for error metrics")
    p.set_defaults(func=cmd_observe)

    p = sub.add_parser("identify", help="fit friction parameters to a measured CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--measured", required=True, help="measured CSV (t,x,u)")
    p.add_argument("--out", required=True, help="report path (key=value lines)")
    p.add_argument("--impulse-start", type=float, default=None,
                   help="pulse onset; default: first scenario pulse")
    p.add_argument("--bounds-factor", type=float, default=10.0,
                   help="search box is theta0/f .. theta0*f")
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("compare", help="merge sim and estimates CSVs for plotting")
    p.add_argument("--sim", required=True, help="sim-out CSV (t,x,v,f,u)")
    p.add_argument("--estimates", required=True, help="estimates CSV")
    p.add_argument("--out", required=True, help="merged CSV path")
    p.add_argument("--plot-script", default=None,
                   help="also write a standalone matplotlib script here")
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # argparse mistakes '-350,-10' for an option flag; fold the pair into
    # --poles=... so the space-separated form keeps working
    argv = list(argv)
    for i in range(len(argv) - 1):
        if argv[i] == "--poles" and argv[i + 1].startswith("-"):
            argv[i : i + 2] = [f"--poles={argv[i + 1]}"]
            break
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; fold those into the config-error code
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG
    return args.func(args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
