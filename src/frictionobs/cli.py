"""Command-line front end: simulate | design | observe | identify | compare.

Exit codes are stable: 0 success, 1 configuration/argument error (a
non-finite flag or config value included, and an output that names an input
or another output), an output that cannot be written, a `simulate` record
whose CSVs cannot fit in the free space of their file systems, or one too
long to address, 2 simulation divergence or observer estimates that overflow
to inf or NaN, or an `identify` start point with no finite residual, 3
gain-design conditions failed (gains are still printed), 4 CSV schema
violation, grid/length mismatch, or a record for `identify` whose span
(samples - 1) * dt overflows, whose u is zero in every row, that is too
short (x responds to the fitted parameters only from two samples after u's
first nonzero row k, so it needs k + 3 samples), or whose u is too small for
x to respond to them.
`identify` calls fit(problem), which starts from the config's friction law.
Each command checks its file names before it opens a file. `observe`,
`identify` and `compare` read and check their inputs, and compute their
results, before they open their first output, so a rejected input leaves no
output behind. `simulate` first refuses a record whose CSVs, every row
counted at its shortest, cannot fit in their file systems' free space
(csvio._check_room). It then folds the plant once, a 4096-row block at a
time, and writes the truth CSV and each seed's measured CSV from every
block (csvio.write_blocks), so it holds one block whatever the record's
length; seeds beyond what RLIMIT_NOFILE lets it hold open are folded in
groups, and the truth CSV's copies under `--runs` come last. It removes
every file it wrote when the fold or a write fails. With two CPUs,
`observe --truth` reads the truth and runs the open-loop model in a forked
child while it runs the observer, `compare` reads `--sim` in a child while
it reads `--estimates`, and every CSV of two or more 4096-row blocks but
`compare`'s merged CSV, `simulate`'s included, is written in two halves,
one in a child (csvio._in_parallel); a child that dies before it hands back
its result exits 1. `compare` splices its merged CSV from two plain inputs
in one pass, and formats any other anew. Of two failures, `observe` reports
a rejected truth, then the observer's, then the model's; `compare` a
rejected `--sim` before rejected estimates; and `simulate` a divergence,
then the first rejected row of the lowest seed with one, then an unwritable
or failed output or a dead child, wherever in the record each comes: on any
failure but a divergence it folds the record again, writing nothing, to
find the first. The commands raise; `main` turns the exception into its
exit code and one stderr line, an argument that argparse rejects included.
Success paths print to stdout only, and only once every output is written:
where stdout is a closed pipe, a command exits 1 (`cannot write output:
[Errno 32] Broken pipe`) with its outputs complete, whether or not stdout
is buffered.

Importing this module sets ``OPENBLAS_NUM_THREADS`` to 1 unless the
environment already sets it, before numpy loads, so a CLI process runs one
OS thread.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path
from typing import Callable, Iterator, NoReturn

# numpy's OpenBLAS starts one thread per CPU when it loads. The only BLAS calls
# here are ident.fit's 3x3 normal equations (J^T J, J^T r and their solve),
# which gain nothing from more threads, and a process with one thread forks
# safely in csvio._in_parallel. A value the user set still wins. This must
# run before numpy loads, so before the package's own modules are imported.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# csvio, the largest module imported here, is compiled before numpy loads.
# Without a bytecode cache (PYTHONDONTWRITEBYTECODE) the compiler's scratch
# memory for a module compiled after numpy stays resident: on CPython 3.11,
# importing csvio after numpy peaked at 29.2 MB under wait4, against 28.8 MB
# before it.
from .csvio import (
    ESTIMATES_HEADER,
    MEASURED_HEADER,
    SIM_HEADER,
    CsvSchemaError,
    _ROWS,
    _append,
    _block,
    _check_room,
    _in_parallel,
    _output,
    _outputs_at_once,
    _read_columns,
    _reading,
    read_columns,
    splice_rows,
    write_blocks,
    write_columns,
)
from .config import Config, ConfigError, load_config, parse_poles
from .ident import THETA_NAMES, FitProblem, fit
from .observer import ObserverDiverged, design_gains, rms, run_observer, validate_robust
from .grid import GridError, same_grid
from .plant import (Measured, SimConfig, SimulationDiverged, Trajectory, sensor,
                    simulate_blocks, simulate_forced)

import numpy as np

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
    # a forked half of observe --truth or compare that died: ahead of OSError in its MRO
    ChildProcessError: (EXIT_CONFIG, "process failed: "),
}


class _NoFiniteResidual(SimulationDiverged):
    """The forward run that identify starts from diverged or failed."""

    def __init__(self) -> None:
        RuntimeError.__init__(self, "the start point gives no finite residual")


def _fmt(v: float) -> str:
    return repr(float(v))


@contextlib.contextmanager
def _rejected(role: str) -> Iterator[None]:
    """A CsvSchemaError raised in the block, with the file's role named in it."""
    try:
        yield
    except CsvSchemaError as exc:
        raise CsvSchemaError(f"{role} CSV rejected: {exc}", exc.row) from None


def _read(path: str, header: tuple[str, ...], role: str) -> list:
    """read_columns, with the file's role named in a rejection."""
    with _rejected(role):
        return read_columns(path, header)


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


def _check_files(args: argparse.Namespace, outputs: list[tuple[str, str | Path | None]]) -> None:
    """Reject an output, a (flag, path) pair, that names an input of args or an earlier output."""
    inputs = [(f, getattr(args, f[2:], None)) for f in ("--config", "--measured", "--truth",
                                                          "--sim", "--estimates")]
    seen: dict[object, str] = {}
    for i, (flag, p) in enumerate(inputs + outputs):
        if p:
            # a file that exists is known by its inode, which a hard link shares;
            # os.path.exists is False, not an error, where a directory cannot be searched
            path = Path(p).resolve()
            key = (path.stat().st_dev, path.stat().st_ino) if os.path.exists(path) else path
            if i >= len(inputs) and key in seen:
                raise ConfigError(f"{flag} names the {seen[key]} file")
            seen.setdefault(key, flag)


def cmd_simulate(args: argparse.Namespace) -> int:
    # before the paths are built, a pair a run; _run000 to _run999 take three digits
    if not 1 <= args.runs <= 1000:
        raise ConfigError("--runs must be between 1 and 1000")
    out = Path(args.out)
    measured_out = (Path(args.measured_out) if args.measured_out
                    else out.with_name(out.stem + "_measured" + (out.suffix or ".csv")))
    paths = [(out, measured_out)]
    if args.runs != 1:
        paths = [(_run_path(out, i), _run_path(measured_out, i)) for i in range(args.runs)]
    _check_files(args, [f for s, m in paths for f in (("--out", s), ("--measured-out", m))])
    cfg = load_config(args.config)
    n = cfg.sim.n_samples
    # the seed only reaches the measurement noise, so every run shares one truth
    sims = [replace(cfg.sim, seed=cfg.sim.seed + i) for i in range(args.runs)]
    truth = paths[0][0]
    _check_room([(s, SIM_HEADER) for s, _ in paths] + [(m, MEASURED_HEADER) for _, m in paths], n)
    # the truth CSV, then each seed's measured CSV: a run of None is the truth
    outputs = [(truth, SIM_HEADER)] + [(m, MEASURED_HEADER) for _, m in paths]
    runs = [None, *sims]
    written = []
    try:
        # one fold of the plant a group of outputs that can be open at once
        step = _outputs_at_once()
        if cfg.sim.noise_std > 0:
            np.random  # imported once, before a fold's halves fork, not once in each
        for i in range(0, len(outputs), step):
            write_blocks(outputs[i:i + step], n, partial(_blocks, cfg, runs[i:i + step]))
            written += [path for path, _ in outputs[i:i + step]]
        for s_path, _ in paths[1:]:
            with open(truth, "rb") as src, _output(s_path) as copy:
                _append(copy, src)
            written.append(s_path)
    except BaseException as exc:
        # a failed fold or write must not leave files behind
        for path in written:
            path.unlink(missing_ok=True)
        if isinstance(exc, (ConfigError, OSError, MemoryError)):
            # the record's own failure comes before any other
            _check_record(cfg, sims)
        raise
    print("\n".join(f"seed {sim.seed}: wrote {s} and {m}" for sim, (s, m) in zip(sims, paths)))
    return EXIT_OK


def _measured(measured: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
              row: int) -> np.ndarray:
    """measured(x) of the record's rows from row on; a non-finite one is the config's error."""
    x = measured(x)
    ok = np.isfinite(x)
    if not ok.all():
        # finite settings can still overflow x: a huge noise_std, a tiny quant
        raise ConfigError("sim.noise_std/sim.quant: measured x is not finite at row "
                          f"{row + int(np.argmin(ok))}")
    return x


def _truth_blocks(cfg: Config) -> Iterator[tuple[int, Trajectory]]:
    """(first row, block) of the config's run, folded from rest a 4096-row block at a time."""
    return zip(range(0, cfg.sim.n_samples, _ROWS),
               simulate_blocks(cfg.plant, cfg.friction, cfg.scenario, cfg.sim, _ROWS))


def _blocks(cfg: Config, runs: list[SimConfig | None], lo: int) -> Iterator[bytes]:
    """The record's CSV lines from row lo, a block at a time (``csvio.write_blocks``' fold).

    A run of None gives the truth CSV's lines, and a SimConfig the measured
    CSV's of its seed. Every seed is measured in every block from rest, rows
    before lo too, so each noise stream and rejection check runs as from row 0.
    """
    sensors = [run and sensor(run) for run in runs]
    for row, b in _truth_blocks(cfg):
        for s in sensors:
            columns = [b.t, _measured(s, b.x, row), b.u] if s else [b.t, b.x, b.v, b.f, b.u]
            if row >= lo:
                yield _block(columns, 0)


def _check_record(cfg: Config, sims: list[SimConfig]) -> None:
    """Raise the record's own failure, if it has one, from one fold that writes nothing.

    That is a divergence, or else the first rejected row of the lowest seed
    with one.
    """
    sensors = [sensor(sim) for sim in sims]
    rejected = None
    for row, b in _truth_blocks(cfg):
        # a seed past the lowest one rejected so far is no longer measured
        for i, measured in enumerate(sensors):
            try:
                _measured(measured, b.x, row)
            except ConfigError as exc:
                del sensors[i:]
                rejected = exc
                break
    if rejected:
        raise rejected


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
    _check_files(args, [("--out", args.out)])
    cfg = load_config(args.config)
    meas = _read_measured(args.measured)
    n = len(meas)

    def observe():
        nonlocal meas
        try:
            return run_observer(meas, cfg.gains, cfg.plant.m, cfg.friction)
        except ValueError as exc:
            # Measured checked the record, so what is left is the gain condition
            raise ConfigError(str(exc)) from None
        finally:
            # x and u are read for the last time: on one CPU, _in_parallel has
            # run the model first; est.t is meas.t
            del meas

    if not args.truth:
        est = observe()
    else:
        with _rejected("truth"), _reading(Path(args.truth)):
            pass  # a truth that cannot be opened costs no observer pass

        def model():
            truth = _read(args.truth, SIM_HEADER, "truth")
            if not same_grid(meas.t, truth[0]):
                raise CsvSchemaError("truth CSV rejected: grid does not match the measured sequence")
            if n < 2:
                raise CsvSchemaError("truth CSV rejected: --truth needs at least 2 samples")
            vs = truth[2]
            del truth
            # the model runs from rest at row 0, row for row, like the observer
            try:
                return vs, rms(meas.x, simulate_forced(cfg.plant, cfg.friction, meas.u, meas.dt,
                                                       cfg.sim.v_max).x)
            except SimulationDiverged as exc:
                return vs, exc  # the observer's own failures are reported first

        # the truth's rejections come before the observer's failures
        (vs, e_model), est = _in_parallel(model, observe)
        if isinstance(e_model, SimulationDiverged):
            raise e_model
    lines = [f"rms_e_obs = {_fmt(rms(est.e_obs))}"] if n else []
    if args.truth:
        lines.append(f"rms_velocity_error = {_fmt(rms(est.w2, vs))}")
        lines.append(f"rms_e_model = {_fmt(e_model)}")
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
    _check_files(args, [("--out", args.out)])
    cfg = load_config(args.config)
    meas = _read_measured(args.measured)
    theta0 = [getattr(cfg.friction, name) for name in THETA_NAMES]
    f = args.bounds_factor
    for name, v in zip(THETA_NAMES, theta0):
        # fails for f <= 1 (before v / f, which f = 0 cannot divide), a non-finite f and an overflow
        if not (f > 1 and 0.0 < v / f < v * f < math.inf):
            raise ConfigError(
                f"no finite positive search box for {name} = {v!r} with --bounds-factor {f!r}"
            )
    bounds = tuple((v / f, v * f) for v in theta0)
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
    lines += [f"amplitude = {_fmt(amplitude)}", f"width = {_fmt(width)}",
              f"rms_residual = {_fmt(result.rms_residual)}", f"iterations = {result.iterations}",
              f"converged = {str(result.converged).lower()}"]
    lines += [f"{name}_rel_se = {_fmt(se)}" for name, se in zip(THETA_NAMES, result.rel_se)]
    # the pair of largest |correlation|; the first in THETA_NAMES order wins a tie
    a, b, c = max(result.corr, key=lambda pair: abs(pair[2]))
    lines += [f"max_corr = {_fmt(c)}", f"max_corr_pair = {a},{b}"]
    with _output(args.out) as out:
        out.write(("\n".join(lines) + "\n").encode())
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
    _check_files(args, [("--out", args.out), ("--plot-script", args.plot_script)])

    def sim():
        with _rejected("sim"):
            (ts, _, vs, fs, _), plain = _read_columns(args.sim, SIM_HEADER)
        return ts, vs, fs, plain

    def estimates():
        with _rejected("estimates"):
            (te, w2, w3, _, e_obs), plain = _read_columns(args.estimates, ESTIMATES_HEADER)
        return te, w2, w3, e_obs, plain

    # each column is an array of its own, so x, u and phi are freed as they are read
    (ts, vs, fs, sim_plain), (te, w2, w3, e_obs, est_plain) = _in_parallel(sim, estimates)
    if len(ts) != len(te):
        raise CsvSchemaError(
            f"row count mismatch: sim has {len(ts)} rows, estimates has {len(te)}"
        )
    if not same_grid(ts, te):
        raise CsvSchemaError("timestamp mismatch between sim and estimates")
    lines = [f"rows = {len(ts)}", f"rms_e_obs = {_fmt(rms(e_obs))}",
             f"rms_velocity_error = {_fmt(rms(w2, vs))}",
             f"rms_force_error = {_fmt(rms(w3, fs))}"]
    del ts, vs, fs, te, w2, w3, e_obs
    if args.plot_script:
        # the short script first: when it cannot be written, no merged CSV is left behind
        with _output(args.plot_script) as out:
            out.write(PLOT_SCRIPT.encode())
        lines.append(f"wrote {args.plot_script}")
    try:
        # plain inputs (read in bulk) are spliced line by line; any other is formatted anew
        if sim_plain and est_plain:
            splice_rows(args.out, args.sim, args.estimates)
        else:
            write_columns(Path(args.out), SIM_HEADER + ESTIMATES_HEADER[1:],
                          _read(args.sim, SIM_HEADER, "sim")
                          + _read(args.estimates, ESTIMATES_HEADER, "estimates")[1:])
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
                   help="batch of 1 to 1000 runs with seeds seed..seed+N-1")
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
        code = args.func(args)
        try:
            # a closed pipe fails here, not in the flush at exit, which would exit 120
            sys.stdout.flush()
        except OSError:
            # what is left in the buffer goes nowhere, so the flush at exit cannot fail again
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
            raise
        return code
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
