"""Command-line front end: simulate | design | observe | identify | compare.

Exit codes are stable: 0 success, 1 configuration/argument error (a
non-finite flag or config value included, two outputs that name one
file, and a `compare` output that names an input), an output that cannot
be written or a record too long to hold in memory, 2 simulation
divergence or observer estimates that overflow to inf or NaN, or an
`identify` start point with no finite residual, 3
gain-design conditions failed (gains are still printed), 4 CSV schema
violation, grid/length mismatch, or a record for `identify` that does
not start at t = 0, whose span (samples - 1) * dt overflows, or whose u is
zero in every row or too small for x to respond to the fitted parameters.
`identify` calls fit(problem), which starts from the config's friction law.
Each command reads and checks its inputs, and runs its simulation,
observer or fit, before it opens its first output, so a rejected input
leaves no output behind; `simulate --runs` measures each seed between its
writes, and removes what it wrote when a later seed or write fails. The
commands raise; `main` turns the exception into its exit code and one
stderr line, an argument that argparse rejects included. Success paths
print to stdout only.
"""

from __future__ import annotations

import argparse
import math
import shutil
import sys
from dataclasses import replace
from pathlib import Path
from typing import NoReturn

import numpy as np

from .config import ConfigError, load_config, parse_poles
from .csvio import (
    ESTIMATES_HEADER,
    MEASURED_HEADER,
    SIM_HEADER,
    CsvSchemaError,
    read_columns,
    splice_rows,
    write_columns,
)
from .gains import design_gains, validate_robust
from .ident import THETA_NAMES, FitProblem, fit
from .observer import ObserverDiverged, rms, run_observer
from .plant import (GridError, Measured, SimulationDiverged, measure, same_grid, simulate,
                    simulate_forced)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DIVERGED = 2
EXIT_DESIGN = 3
EXIT_SCHEMA = 4

# exit code and stderr prefix of each failure a command raises; main looks
# the type up along the exception's MRO, and any other exception is a bug
# that keeps its traceback
_FAILURES = {
    ConfigError: (EXIT_CONFIG, "config error: "),
    OSError: (EXIT_CONFIG, "cannot write output: "),
    SimulationDiverged: (EXIT_DIVERGED, "simulation diverged: "),
    ObserverDiverged: (EXIT_DIVERGED, "observer diverged: "),
    CsvSchemaError: (EXIT_SCHEMA, ""),
    MemoryError: (EXIT_CONFIG, "out of memory: "),
}


class _NoFiniteResidual(SimulationDiverged):
    """The forward run that identify starts from diverged or failed."""

    def __init__(self) -> None:
        RuntimeError.__init__(self, "the start point gives no finite residual")


def _fmt(v: float) -> str:
    return repr(float(v))


def _read(path: str, header: tuple[str, ...], role: str) -> list:
    """read_columns, with the file's role named in a rejection."""
    try:
        return read_columns(path, header)
    except CsvSchemaError as exc:
        raise CsvSchemaError(f"{role} CSV rejected: {exc}", exc.row) from None


def _read_measured(path: str) -> Measured:
    """_read of a measured CSV as a Measured; a grid break is rejected in _read's row numbers."""
    t, x, u = _read(path, MEASURED_HEADER, "measured")
    try:
        return Measured(t, x, u)
    except GridError as exc:
        k = exc.row
        raise CsvSchemaError(
            f"measured CSV rejected: {path}: row {k + 1}: t = {float(t[k])!r} "
            "breaks the uniform grid", k + 1,
        ) from None


def _run_path(path: Path, i: int) -> Path:
    return path.with_name(f"{path.stem}_run{i:03d}{path.suffix or '.csv'}")


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    if args.runs < 1:
        raise ConfigError("--runs must be >= 1")
    out = Path(args.out)
    measured_out = (Path(args.measured_out) if args.measured_out
                    else out.with_name(out.stem + "_measured" + (out.suffix or ".csv")))
    paths = [(out, measured_out)]
    if args.runs > 1:
        paths = [(_run_path(out, i), _run_path(measured_out, i)) for i in range(args.runs)]
    if len({p.resolve() for pair in paths for p in pair}) < 2 * len(paths):
        raise ConfigError("--measured-out names the --out file")
    traj = simulate(cfg.plant, cfg.friction, cfg.scenario, cfg.sim)
    lines, written = [], []
    try:
        # the seed only reaches the measurement noise, so every run shares one truth
        for i, (s_path, m_path) in enumerate(paths):
            seed = cfg.sim.seed + i
            try:
                meas = measure(traj, replace(cfg.sim, seed=seed))
            except ValueError as exc:
                # finite settings can still overflow x: a huge noise_std, a tiny quant
                raise ConfigError(f"sim.noise_std/sim.quant: {exc}") from None
            if i == 0:
                write_columns(s_path, SIM_HEADER, [traj.t, traj.x, traj.v, traj.f, traj.u])
            else:
                shutil.copyfile(paths[0][0], s_path)
            written.append(s_path)
            write_columns(m_path, MEASURED_HEADER, [meas.t, meas.x, meas.u])
            written.append(m_path)
            lines.append(f"seed {seed}: wrote {s_path} and {m_path}")
    except Exception:
        # a later seed's failure must not leave the earlier runs' files behind
        for path in written:
            path.unlink(missing_ok=True)
        raise
    print("\n".join(lines))
    return EXIT_OK


def cmd_design(args: argparse.Namespace) -> int:
    poles = parse_poles(args.poles, "--poles")
    try:
        g = design_gains(poles, args.m, args.sob)
        report = validate_robust(g, args.m, args.sob, args.kappa)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
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
    cfg = load_config(args.config)
    meas = _read_measured(args.measured)
    n = len(meas)
    if args.truth:
        truth = _read(args.truth, SIM_HEADER, "truth")
        # copies of the two columns used, so the 5-column table is freed
        # before the observer and the model run
        ts, vs = truth[0].copy(), truth[2].copy()
        del truth
        if not same_grid(meas.t, ts):
            raise CsvSchemaError("truth CSV rejected: grid does not match the measured sequence")
        if n < 2:
            raise CsvSchemaError("truth CSV rejected: --truth needs at least 2 samples")
    try:
        est = run_observer(meas, cfg.gains, cfg.plant.m, cfg.friction)
    except ValueError as exc:
        # Measured checked the record, so what is left is the gain condition
        raise ConfigError(str(exc)) from None
    lines = [f"rms_e_obs = {_fmt(rms(est.e_obs))}"] if n else []
    if args.truth:
        model = simulate_forced(cfg.plant, cfg.friction, meas.u, meas.dt, cfg.sim.v_max)
        lines.append(f"rms_velocity_error = {_fmt(rms(est.w2, vs))}")
        # the model runs from rest at row 0, row for row, like the observer
        lines.append(f"rms_e_model = {_fmt(rms(meas.x, model.x))}")
    lines.append(f"wrote {args.out}" if n else f"no samples; wrote {args.out}")
    write_columns(Path(args.out), ESTIMATES_HEADER, [est.t, est.w2, est.w3, est.phi, est.e_obs])
    print("\n".join(lines))
    return EXIT_OK


def _first_pulse(u, dt: float) -> tuple[float, float]:
    """(value, duration) of the run of equal values that starts at u's first nonzero row."""
    k = int(np.flatnonzero(u)[0])
    ends = np.flatnonzero(u[k:] != u[k])
    return float(u[k]), (int(ends[0]) if len(ends) else len(u) - k) * dt


def cmd_identify(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    meas = _read_measured(args.measured)
    theta0 = [getattr(cfg.friction, name) for name in THETA_NAMES]
    f = args.bounds_factor
    bounds = tuple((v / f, v * f) for v in theta0)
    for name, v, (lo, hi) in zip(THETA_NAMES, theta0, bounds):
        # fails for f <= 1, a non-finite f and an overflow
        if not 0.0 < lo < hi < math.inf:
            raise ConfigError(
                f"no finite positive search box for {name} = {v!r} with --bounds-factor {f!r}"
            )
    try:
        problem = FitProblem(record=meas, plant=cfg.plant, friction=cfg.friction, bounds=bounds)
        result = fit(problem)
    except ValueError as exc:
        raise CsvSchemaError(f"measured CSV rejected: {exc}") from None
    if not math.isfinite(result.rms_residual):
        raise _NoFiniteResidual()
    # the excitation is read, not fitted: FitProblem has checked that u is nonzero somewhere
    amplitude, width = _first_pulse(meas.u, meas.dt)
    lines = [f"{name} = {_fmt(v)}" for name, v in zip(THETA_NAMES, result.theta)]
    lines.append(f"amplitude = {_fmt(amplitude)}")
    lines.append(f"width = {_fmt(width)}")
    lines.append(f"rms_residual = {_fmt(result.rms_residual)}")
    lines.append(f"iterations = {result.iterations}")
    lines.append(f"converged = {str(result.converged).lower()}")
    lines.append(f"beta_insensitive = {str(result.beta_insensitive).lower()}")
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("\n".join(lines + [f"wrote {args.out}"]))
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
    # no output may name another file: the merged rows are copied from the
    # inputs while --out is written
    named = (("--sim", args.sim), ("--estimates", args.estimates), ("--out", args.out))
    for out_flag, out in (("--out", args.out), ("--plot-script", args.plot_script)):
        for flag, path in named:
            if out and flag != out_flag and Path(out).resolve() == Path(path).resolve():
                raise ConfigError(f"{out_flag} names the {flag} file")
    ts, xs, vs, fs, us = _read(args.sim, SIM_HEADER, "sim")
    te, w2, w3, phi, e_obs = _read(args.estimates, ESTIMATES_HEADER, "estimates")
    if len(ts) != len(te):
        raise CsvSchemaError(
            f"row count mismatch: sim has {len(ts)} rows, estimates has {len(te)}"
        )
    if not same_grid(ts, te):
        raise CsvSchemaError("timestamp mismatch between sim and estimates")
    lines = [f"rows = {len(ts)}", f"rms_e_obs = {_fmt(rms(e_obs))}",
             f"rms_velocity_error = {_fmt(rms(w2, vs))}", f"rms_force_error = {_fmt(rms(w3, fs))}"]
    if args.plot_script:
        # the short script first: when it cannot be written, no merged CSV is left behind
        Path(args.plot_script).write_text(PLOT_SCRIPT, encoding="utf-8")
        lines.append(f"wrote {args.plot_script}")
    try:
        # plain inputs are spliced line by line; any other input is formatted anew
        if not splice_rows(args.out, args.sim, SIM_HEADER, args.estimates, ESTIMATES_HEADER):
            write_columns(Path(args.out), SIM_HEADER + ESTIMATES_HEADER[1:],
                          [ts, xs, vs, fs, us, w2, w3, phi, e_obs])
    except OSError:
        if args.plot_script:
            Path(args.plot_script).unlink(missing_ok=True)
        raise
    lines.append(f"wrote {args.out}")
    print("\n".join(lines))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise ConfigError rather than exit.

    Subparsers are built from the same class, so this covers every command.
    """

    def error(self, message: str) -> NoReturn:
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit:
        # only -h/--help exits, once it has printed its text to stdout
        return EXIT_OK
    except tuple(_FAILURES) as exc:
        code, prefix = next(_FAILURES[c] for c in type(exc).__mro__ if c in _FAILURES)
        print(prefix + str(exc), file=sys.stderr)
        return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
