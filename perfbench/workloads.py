"""Seeded inputs, command sequences and output checks of the benchmark workloads.

A generator turns a seed into the files one workload needs (config files and,
for ``fit``, a recorded response) inside a work directory and returns a
``Workload``: the CLI commands of one iteration, the files each command reads
and writes, and the check applied to each command's output. The program only
ever sees those files.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

M_KG = 0.052
C_F = 0.2143
DT = 5e-4
DEADBAND = 1e-4  # the config default for observer.deadband [m/s]
Z_FLOOR = 1e-4  # the config default for friction.z_floor

SIM_HEADER = ("t", "x", "v", "f", "u")
MEASURED_HEADER = ("t", "x", "u")
ESTIMATES_HEADER = ("t", "w2_tilde", "w3_tilde", "phi", "e_obs")
MERGED_HEADER = SIM_HEADER + ESTIMATES_HEADER[1:]

# track: criterion 6's plant under +50% sigma mismatch, stretched to 60 s
TRACK_T_END = 60.0
TRACK_PULSES = 50
TRACK_POLES = "-650,-60"
TRACK_TRUTH = {"sigma": 0.6, "beta": 0.016, "s_scale": 500.0}
TRACK_NOMINAL = {"sigma": 0.9, "beta": 0.016, "s_scale": 500.0}
TRACK_NOISE = 5e-7

# fit: criterion 7's truth and start point, searched over theta0/4 .. theta0*4
FIT_T_END = 0.3
FIT_TRUTH = {"sigma": 2.0, "beta": 0.002, "s_scale": 2000.0}
FIT_TRUTH_PULSE = (0.01, 0.005, 1.0)
FIT_THETA0 = {"sigma": 2.6, "beta": 0.0015, "s_scale": 1500.0}
FIT_THETA0_PULSE = (0.01, 0.004, 0.8)
FIT_BOUNDS_FACTOR = 4.0
FIT_NOISE = 5e-7
# The noise stream of the fit record is fixed (the config default seed), not
# drawn from --seed: any change to it changes the Nelder-Mead path, and seeds
# 1-8 gave 339-973 iterations (3.0-8.1 s), a spread no bound could absorb.
FIT_NOISE_SEED = 7
# rms_residual may be at most this share of the record's peak |x|
FIT_RESIDUAL_SHARE = 0.01

# batch: the track truth config fanned out over one run per core of the
# reference machine, so the program's pool never has more workers than cores
BATCH_RUNS = 2


class CheckFailed(Exception):
    """A command's output broke the workload's contract."""


@dataclass
class Command:
    """One CLI call: its arguments, the files it reads and writes, its check.

    ``check`` receives the command's stdout and returns the values it parsed
    from it (for example ``vel_rmse``); it raises CheckFailed on a bad output.
    """

    name: str
    argv: list[str]
    reads: list[str]
    # written file -> its CSV header (None for a file that is not a CSV)
    writes: dict[str, tuple[str, ...] | None]
    check: Callable[[str], dict[str, float]]


@dataclass
class Workload:
    workdir: Path
    commands: list[Command]
    samples: int
    pulses: int
    # the truth CSV the input properties are measured on after the first iteration
    truth_csv: str
    # tasks the program hands to its own process pool in one iteration
    pool_tasks: int = 0
    properties: dict[str, float] = field(default_factory=dict)


def parse_report(stdout: str) -> dict[str, str]:
    """The ``key = value`` lines a command printed."""
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = value.strip()
    return out


def _number(report: dict[str, str], key: str) -> float:
    try:
        return float(report[key])
    except (KeyError, ValueError):
        raise CheckFailed(f"no numeric {key!r} in the output") from None


def csv_rows(path: Path, header: tuple[str, ...]) -> int:
    """Data rows of a CSV after checking its header; cells are not parsed."""
    data = path.read_bytes()
    first = data.split(b"\n", 1)[0].decode()
    if first != ",".join(header):
        raise CheckFailed(f"{path.name}: header {first!r}, expected {','.join(header)}")
    return data.count(b"\n") - 1


def load_csv(path: Path, header: tuple[str, ...]) -> np.ndarray:
    """Parse every cell of a CSV into an (n, len(header)) array."""
    text = path.read_text(encoding="utf-8")
    first, _, body = text.partition("\n")
    if first != ",".join(header):
        raise CheckFailed(f"{path.name}: header {first!r}, expected {','.join(header)}")
    cells = body.replace("\n", ",").split(",")
    if cells[-1] == "":
        cells.pop()
    try:
        return np.array(cells, dtype=float).reshape(-1, len(header))
    except ValueError as exc:
        raise CheckFailed(f"{path.name}: does not parse as {len(header)} numeric columns: {exc}")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digests(w: Workload) -> dict[str, str]:
    """SHA-256 of every file the workload's commands write."""
    return {name: sha256(w.workdir / name) for c in w.commands for name in c.writes}


def _expect_rows(workdir: Path, name: str, header: tuple[str, ...], n: int) -> None:
    got = csv_rows(workdir / name, header)
    if got != n:
        raise CheckFailed(f"{name}: {got} rows, expected {n}")


def _write_config(path: Path, friction: dict[str, float], t_end: float, noise: float,
                  seed: int, pulses: list[tuple[float, float, float]],
                  poles: str | None = None) -> None:
    lines = [
        f"plant.m = {M_KG!r}",
        f"friction.c_f = {C_F!r}",
        *(f"friction.{k} = {v!r}" for k, v in friction.items()),
        f"sim.dt = {DT!r}",
        f"sim.t_end = {t_end!r}",
        f"sim.noise_std = {noise!r}",
        f"sim.seed = {seed}",
        "scenario.pulses = " + "; ".join(f"{a!r},{b!r},{c!r}" for a, b, c in pulses),
    ]
    if poles:
        lines.append(f"observer.poles = {poles}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _n_samples(t_end: float) -> int:
    return int(math.floor(t_end / DT + 1e-9)) + 1


def track_pulses(seed: int) -> list[tuple[float, float, float]]:
    """~50 alternating 10 ms pulses: most drive gross sliding, some stay presliding.

    A pulse above the Coulomb level (1.2-1.6 N) breaks away into gross
    sliding; one of 0.10-0.18 N is below c_f = 0.2143 N and stays on a
    presliding branch.
    """
    rng = random.Random(seed)
    pulses = []
    for i in range(TRACK_PULSES):
        start = 0.3 + 1.18 * i + rng.uniform(-0.1, 0.1)
        if rng.random() < 0.2:
            amp = rng.uniform(0.10, 0.18)
        else:
            amp = rng.uniform(1.2, 1.6)
        pulses.append((round(start, 4), 0.01, round(amp if i % 2 == 0 else -amp, 4)))
    return pulses


def _write_truth(workdir: Path, seed: int) -> list[tuple[float, float, float]]:
    pulses = track_pulses(seed)
    # the program's noise stream takes a non-negative seed
    _write_config(workdir / "truth.cfg", TRACK_TRUTH, TRACK_T_END, TRACK_NOISE, seed % 2**31,
                  pulses, TRACK_POLES)
    return pulses


def track(workdir: Path, seed: int, setup_command: Callable[[list[str]], str]) -> Workload:
    pulses = _write_truth(workdir, seed)
    _write_config(workdir / "nominal.cfg", TRACK_NOMINAL, TRACK_T_END, TRACK_NOISE,
                  seed % 2**31, pulses, TRACK_POLES)
    n = _n_samples(TRACK_T_END)
    sob = TRACK_NOMINAL["sigma"] / TRACK_NOMINAL["beta"]
    # the stiffness cap the nominal config implies (FrictionParams' default kappa)
    kappa = 2.0 * TRACK_NOMINAL["s_scale"] * C_F * (-math.log(Z_FLOOR))

    def check_design(out: str) -> dict[str, float]:
        report = parse_report(out)
        for cond in ("cond_a", "cond_b", "cond_stab"):
            if report.get(cond) != "true":
                raise CheckFailed(f"design: {cond} = {report.get(cond)}")
        return {}

    def check_simulate(out: str) -> dict[str, float]:
        _expect_rows(workdir, "sim.csv", SIM_HEADER, n)
        _expect_rows(workdir, "sim_measured.csv", MEASURED_HEADER, n)
        return {}

    def check_observe(out: str) -> dict[str, float]:
        _expect_rows(workdir, "est.csv", ESTIMATES_HEADER, n)
        report = parse_report(out)
        e_obs, e_model = _number(report, "rms_e_obs"), _number(report, "rms_e_model")
        if not e_obs < e_model:
            raise CheckFailed(f"observe: rms_e_obs {e_obs!r} is not below rms_e_model {e_model!r}")
        return {"vel_rmse": _number(report, "rms_velocity_error"),
                "rms_e_obs": e_obs, "rms_e_model": e_model}

    def check_compare(out: str) -> dict[str, float]:
        rows = _number(parse_report(out), "rows")
        if rows != n:
            raise CheckFailed(f"compare: rows = {rows}, expected {n}")
        _expect_rows(workdir, "merged.csv", MERGED_HEADER, n)
        return {}

    commands = [
        Command("design", ["design", f"--poles={TRACK_POLES}", "--m", repr(M_KG),
                           "--sob", repr(sob), "--kappa", repr(kappa)], [], {}, check_design),
        Command("simulate", ["simulate", "--config", "truth.cfg", "--out", "sim.csv"],
                ["truth.cfg"], {"sim.csv": SIM_HEADER, "sim_measured.csv": MEASURED_HEADER},
                check_simulate),
        Command("observe", ["observe", "--config", "nominal.cfg", "--measured",
                            "sim_measured.csv", "--out", "est.csv", "--truth", "sim.csv"],
                ["nominal.cfg", "sim_measured.csv", "sim.csv"], {"est.csv": ESTIMATES_HEADER},
                check_observe),
        Command("compare", ["compare", "--sim", "sim.csv", "--estimates", "est.csv",
                            "--out", "merged.csv"],
                ["sim.csv", "est.csv"], {"merged.csv": MERGED_HEADER}, check_compare),
    ]
    return Workload(workdir, commands, n, len(pulses), "sim.csv")


def fit(workdir: Path, seed: int, setup_command: Callable[[list[str]], str]) -> Workload:
    # the record ignores the seed on purpose; see FIT_NOISE_SEED
    _write_config(workdir / "record.cfg", FIT_TRUTH, FIT_T_END, FIT_NOISE, FIT_NOISE_SEED,
                  [FIT_TRUTH_PULSE])
    _write_config(workdir / "fit.cfg", FIT_THETA0, FIT_T_END, 0.0, FIT_NOISE_SEED,
                  [FIT_THETA0_PULSE])
    setup_command(["simulate", "--config", "record.cfg", "--out", "record.csv"])
    n = _n_samples(FIT_T_END)
    record = load_csv(workdir / "record_measured.csv", MEASURED_HEADER)
    if len(record) != n:
        raise CheckFailed(f"record_measured.csv: {len(record)} rows, expected {n}")
    peak_x = float(np.max(np.abs(record[:, 1])))
    theta0 = (*FIT_THETA0.values(), FIT_THETA0_PULSE[2], FIT_THETA0_PULSE[1])
    names = ("sigma", "beta", "s_scale", "amplitude", "width")

    def check_identify(out: str) -> dict[str, float]:
        report = parse_report(out)
        if report.get("converged") != "true":
            raise CheckFailed(f"identify: converged = {report.get('converged')}")
        for name, v0 in zip(names, theta0):
            v = _number(report, name)
            if not v0 / FIT_BOUNDS_FACTOR <= v <= v0 * FIT_BOUNDS_FACTOR:
                raise CheckFailed(f"identify: {name} = {v!r} outside its box")
        residual = _number(report, "rms_residual")
        if not residual <= FIT_RESIDUAL_SHARE * peak_x:
            raise CheckFailed(f"identify: rms_residual {residual!r} above "
                              f"{FIT_RESIDUAL_SHARE} x peak |x| {peak_x!r}")
        printed = [line for line in out.splitlines() if not line.startswith("wrote ")]
        if (workdir / "fit.txt").read_text(encoding="utf-8").splitlines() != printed:
            raise CheckFailed("identify: fit.txt differs from the printed report")
        return {"fit_residual": residual, "iterations": _number(report, "iterations")}

    commands = [
        Command("identify", ["identify", "--config", "fit.cfg", "--measured",
                             "record_measured.csv", "--out", "fit.txt",
                             "--bounds-factor", repr(FIT_BOUNDS_FACTOR)],
                ["fit.cfg", "record_measured.csv"], {"fit.txt": None}, check_identify),
    ]
    return Workload(workdir, commands, n, 1, "record.csv")


def batch(workdir: Path, seed: int, setup_command: Callable[[list[str]], str]) -> Workload:
    pulses = _write_truth(workdir, seed)
    n = _n_samples(TRACK_T_END)
    sims = [f"batch_run{i:03d}.csv" for i in range(BATCH_RUNS)]
    measured = [f"batch_measured_run{i:03d}.csv" for i in range(BATCH_RUNS)]

    def check_simulate(out: str) -> dict[str, float]:
        for name in sims:
            _expect_rows(workdir, name, SIM_HEADER, n)
        for name in measured:
            _expect_rows(workdir, name, MEASURED_HEADER, n)
        if len({sha256(workdir / name) for name in measured}) != BATCH_RUNS:
            raise CheckFailed("simulate --runs: measured CSVs of different seeds are identical")
        return {}

    commands = [
        Command("simulate", ["simulate", "--config", "truth.cfg", "--out", "batch.csv",
                             "--runs", str(BATCH_RUNS)],
                ["truth.cfg"],
                {**dict.fromkeys(sims, SIM_HEADER), **dict.fromkeys(measured, MEASURED_HEADER)},
                check_simulate),
    ]
    return Workload(workdir, commands, n, len(pulses), sims[0], pool_tasks=BATCH_RUNS)


GENERATORS = {"track": track, "fit": fit, "batch": batch}


def describe(w: Workload) -> None:
    """Fill in the input properties from the files of a finished iteration.

    Every written CSV is parsed in full once here, so a file that only
    passed the per-iteration row count is still checked cell by cell.
    """
    for c in w.commands:
        for name, header in c.writes.items():
            if header is not None:
                rows = load_csv(w.workdir / name, header)
                if len(rows) != w.samples:
                    raise CheckFailed(f"{name}: {len(rows)} parsed rows, expected {w.samples}")
    v = load_csv(w.workdir / w.truth_csv, SIM_HEADER)[:, 2]
    sign = np.where(v > DEADBAND, 1, np.where(v < -DEADBAND, -1, 0))
    moving = sign[sign != 0]
    # a reversal as the friction model counts it: the first motion from rest,
    # then every change of the deadband-filtered sign
    reversals = int(len(moving) > 0) + int(np.count_nonzero(moving[1:] != moving[:-1]))
    w.properties = {
        "samples": w.samples,
        "pulses": w.pulses,
        "truth_reversals": reversals,
        "moving_share": float(np.count_nonzero(sign)) / len(v),
        "bytes_read": sum((w.workdir / f).stat().st_size for c in w.commands for f in c.reads),
        "bytes_written": sum((w.workdir / f).stat().st_size for c in w.commands for f in c.writes),
    }
