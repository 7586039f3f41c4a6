#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the frictionobs command line.

    python3 perfbench/run.py --workload {track,fit,batch} --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout; the program is taken from ./src.
The seed generates the workload's input files (workloads.py), then the
workload's command sequence is repeated until S seconds have passed.

--trace 0 runs every command as its own ``python -m frictionobs.cli``
process and reports the end-to-end metrics: medians over the iterations of
the sequence's wall time, CPU time and peak RSS, and the median import time
of a fresh interpreter (setup_s). --trace 1 reports the per-layer metrics:
one untraced process iteration gives the per-command wall times, then
untraced and traced in-process iterations alternate, the traced ones under
the wrappers of layertrace.py.

Every command must exit 0 with empty stderr and pass its workload's output
check. Human-readable lines and a ``details`` JSON line come first; the last
line is the result: correct, attempted and failed (commands) and metrics.
The exit code is 0 when every output was correct, 1 when one was not, and 2
when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import layertrace
import workloads
from workloads import CheckFailed, Command, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

# no iteration starts after RUN_BUDGET_S, and a command still running at
# DEADLINE_S is killed, so that a run ends inside 180 s
RUN_BUDGET_S = 120.0
DEADLINE_S = 170.0
# setup_s is the median of fresh-interpreter imports, a few taken before each
# iteration so that they sample the same stretch of machine load
IMPORTS_PER_ITERATION = 2
MIN_IMPORTS = 7
CLI_COMMANDS = ("design", "simulate", "observe", "compare", "identify")


@dataclass
class Outcome:
    name: str
    wall: float
    cpu: float = 0.0
    rss_mb: float = 0.0
    problem: str | None = None
    values: dict[str, float] = field(default_factory=dict)


def judge(cmd: Command, code: int, stdout: str, stderr: str, o: Outcome) -> Outcome:
    """Apply the README contract (exit 0, silent stderr) and the workload's check."""
    if code != 0:
        o.problem = f"{cmd.name}: exit {code}: {stderr.strip()[-400:]}"
    elif stderr:
        o.problem = f"{cmd.name}: stderr on success: {stderr.strip()[-400:]}"
    else:
        try:
            o.values = cmd.check(stdout)
        except CheckFailed as exc:
            o.problem = str(exc)
    return o


class Runner:
    """Runs CLI commands in the work directory: through the launcher or in-process."""

    def __init__(self, workdir: Path, started: float) -> None:
        self.workdir = workdir
        self.deadline = started + DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.launcher = subprocess.Popen([sys.executable, str(HERE / "launch.py")],
                                         stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def close(self) -> None:
        self.launcher.stdin.close()
        self.launcher.wait()

    def spawn(self, argv: list[str]) -> tuple[int, str, str, dict]:
        """Run one process to completion; returns code, stdout, stderr and its usage."""
        out, err = self.workdir / ".stdout", self.workdir / ".stderr"
        self.launcher.stdin.write(json.dumps({
            "argv": argv, "cwd": str(self.workdir), "env": self.env,
            "stdout": str(out), "stderr": str(err),
            "timeout": max(1.0, self.deadline - time.perf_counter()),
        }) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise RuntimeError("the process launcher exited")
        usage = json.loads(reply)
        return (usage["code"], out.read_text(errors="replace"), err.read_text(errors="replace"),
                usage)

    def setup_command(self, argv: list[str]) -> str:
        """Run a command that prepares inputs; any failure stops the benchmark."""
        code, stdout, stderr, _ = self.spawn([sys.executable, "-m", "frictionobs.cli", *argv])
        if code != 0 or stderr:
            raise RuntimeError(f"set-up command {argv} failed with exit {code}: {stderr.strip()}")
        return stdout

    def process(self, cmd: Command) -> Outcome:
        code, stdout, stderr, usage = self.spawn(
            [sys.executable, "-m", "frictionobs.cli", *cmd.argv])
        o = Outcome(cmd.name, usage["wall"], usage["cpu"], usage["maxrss_kb"] / 1024.0)
        return judge(cmd, code, stdout, stderr, o)

    def in_process(self, cmd: Command, main) -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(cmd.argv)
        except Exception:  # a traceback is a failed command, not a failed benchmark
            code = -1
            err.write(traceback.format_exc())
        return judge(cmd, code, out.getvalue(), err.getvalue(),
                     Outcome(cmd.name, time.perf_counter() - t0))

    def import_s(self) -> float:
        """Wall time of a fresh interpreter importing the CLI module."""
        code, _, stderr, usage = self.spawn([sys.executable, "-c", "import frictionobs.cli"])
        if code != 0:
            raise RuntimeError(f"importing frictionobs.cli failed: {stderr.strip()}")
        return usage["wall"]


@dataclass
class Tally:
    """Commands attempted and failed over a run, with the first problems seen."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(problem)

    def add(self, outcomes: list[Outcome]) -> None:
        for o in outcomes:
            self.attempted += 1
            if o.problem:
                self.fail(o.problem)


def run_iterations(seconds: float, started: float, once) -> list:
    """Call ``once`` until ``seconds`` have passed since the first call (at least once)."""
    results = []
    t0 = time.perf_counter()
    while not results or (time.perf_counter() - t0 < seconds
                          and time.perf_counter() - started < RUN_BUDGET_S):
        results.append(once())
    return results


def end_to_end(w: Workload, runner: Runner, seconds: float, started: float,
               tally: Tally, details: dict) -> dict[str, tuple[float, str]]:
    runner.import_s()  # the first import also writes the bytecode cache
    imports: list[float] = []
    first_digests: dict[str, str] = {}
    repeat_identical = True

    def once() -> list[Outcome]:
        nonlocal repeat_identical
        imports.extend(runner.import_s() for _ in range(IMPORTS_PER_ITERATION))
        outcomes = []
        for cmd in w.commands:
            outcomes.append(runner.process(cmd))
            if outcomes[-1].problem:
                break
        tally.add(outcomes)
        if all(o.problem is None for o in outcomes):
            got = workloads.digests(w)
            if not first_digests:
                first_digests.update(got)
            repeat_identical &= got == first_digests
        return outcomes

    iterations = run_iterations(seconds, started, once)
    while len(imports) < MIN_IMPORTS:
        imports.append(runner.import_s())
    if first_digests:
        try:
            workloads.describe(w)
        except CheckFailed as exc:
            tally.fail(str(exc))

    walls = [sum(o.wall for o in it) for it in iterations]
    per_command: dict[str, list[float]] = {}
    for o in (o for it in iterations for o in it):
        per_command.setdefault(o.name, []).append(o.wall)
    details.update(
        iteration_wall_s=walls,
        command_wall_s={k: statistics.median(v) for k, v in per_command.items()},
        fail_frac=tally.failed / max(tally.attempted, 1),
        outputs={k: v for it in iterations for o in it for k, v in o.values.items()},
        inputs=w.properties,
        sha256=first_digests,
        outputs_repeat_identical=repeat_identical,
    )
    return {
        "setup_s": (statistics.median(imports), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(sum(o.cpu for o in it) for it in iterations), "s"),
        "peak_rss_mb": (statistics.median(max(o.rss_mb for o in it) for it in iterations), "MB"),
    }


def per_layer(w: Workload, runner: Runner, seconds: float, started: float,
              tally: Tally, details: dict) -> dict[str, tuple[float, str]]:
    sys.path.insert(0, str(SRC))
    import frictionobs.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "frictionobs":
        raise RuntimeError(f"frictionobs imported from {cli.__file__}, not from {SRC}")
    tracer = layertrace.frictionobs_tracer(w.workdir)

    untraced = [runner.process(c) for c in w.commands]
    tally.add(untraced)
    metrics = {f"cli.{c}.wall_s": (0.0, "s") for c in CLI_COMMANDS}
    metrics.update({f"cli.{o.name}.wall_s": (o.wall, "s") for o in untraced})

    pool_tasks_seen = []

    def in_process(traced: bool) -> tuple[float, dict]:
        tracer.reset()
        if traced:
            tracer.install()
        try:
            outcomes = [runner.in_process(c, cli.main) for c in w.commands]
        finally:
            tracer.uninstall()
        tracer.collect_workers()
        if traced:
            pool_tasks_seen.append(tracer.worker_tasks)
        tally.add(outcomes)
        return sum(o.wall for o in outcomes), tracer.snapshot()

    def once() -> tuple[tuple, tuple]:
        return in_process(False), in_process(True)

    cwd = os.getcwd()
    os.chdir(w.workdir)
    try:
        pairs = run_iterations(seconds, started, once)
        if len(pairs) < 2:
            pairs.append(once())
    finally:
        os.chdir(cwd)

    snaps = [snap for _, (_, snap) in pairs]
    layer = [layertrace.layer_metrics(snap) for snap in snaps]
    for name, (value, unit) in layer[0].items():
        # counts repeat exactly (checked below); times are medians over the traced iterations
        if unit not in ("count", "B"):
            value = statistics.median(m[name][0] for m in layer)
        metrics[name] = (value, unit)
    plain = statistics.median(wall for (wall, _), _ in pairs)
    traced = statistics.median(wall for _, (wall, _) in pairs)
    metrics["trace.overhead_frac"] = (traced / plain - 1.0, "ratio")

    first = layertrace.counts(snaps[0])
    for i, snap in enumerate(snaps[1:], start=2):
        differ = sorted(k for k, v in layertrace.counts(snap).items() if first.get(k) != v)
        if differ:
            tally.fail(f"traced iteration {i} counts differ from the first: {differ}")
    absent = {}
    if min(pool_tasks_seen) < w.pool_tasks:
        reason = (f"{min(pool_tasks_seen)} of {w.pool_tasks} pool tasks reported counts; "
                  "pool workers that are not forked do not inherit the wrappers")
        absent = dict.fromkeys(layertrace.WORKER_SPANS, reason)
    details.update(
        traced_iterations=len(pairs),
        untraced_wall_s=plain,
        traced_wall_s=traced,
        spans=snaps[0],
        not_wrapped=tracer.missing,
        absent=absent,
    )
    return metrics


def check_manifest(metrics: dict[str, tuple[float, str]], trace: int) -> None:
    """The metrics must be exactly those BENCHMARK.json declares, in its units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    measured = {name: unit for name, (_, unit) in metrics.items()}
    if declared != measured:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: declared {declared}, "
                           f"measured {measured}")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    started = time.perf_counter()
    if not (SRC / "frictionobs" / "cli.py").is_file():
        print(f"no frictionobs sources at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    workdir = WORK_ROOT / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tally, details = Tally(), {}
    runner = None
    try:
        runner = Runner(workdir, started)
        w = workloads.GENERATORS[args.workload](workdir, args.seed, runner.setup_command)
        measure = per_layer if args.trace else end_to_end
        metrics = measure(w, runner, args.seconds, started, tally, details)
        check_manifest(metrics, args.trace)
    except (RuntimeError, CheckFailed) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    finally:
        if runner is not None:
            runner.close()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {tally.attempted} commands, "
          f"{tally.failed} failed, {time.perf_counter() - started:.1f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:.6g} {unit}")
    if not args.trace:
        print(f"  {'fail_frac':<40} {details['fail_frac']:.6g} ({tally.failed}/{tally.attempted})")
        for name, unit in (("vel_rmse", "m/s"), ("fit_residual", "m")):
            if name in details["outputs"]:
                print(f"  {name:<40} {details['outputs'][name]:.6g} {unit}")
    for span, reason in details.get("absent", {}).items():
        print(f"  absent: {span}: {reason}")
    for problem in tally.problems:
        print(f"  FAILED: {problem}")
    print("details " + json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
