"""Outside-in layer tracing: module attributes swapped for timing wrappers.

The program is not edited. Each traced function is replaced, in the module
namespace its callers look it up in, by a wrapper that counts calls and adds
up inclusive and self time (the span minus the spans of wrapped functions
called inside it). Hooks add work counts (rows, bytes, samples) at the same
boundary. Removing the wrappers restores the original attributes.

``cmd_simulate --runs N`` runs the plant in forked pool workers. Their
wrappers are inherited with the fork; the wrapped pool target writes each
task's counts to a file that the parent merges, so those layers are seen
too. If the workers are not forked, no file appears and the caller reports
the workers' layers as not visible.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import time
from pathlib import Path
from typing import Any, Callable

# span fields that count work; they must repeat exactly between traced iterations
COUNT_FIELDS = ("calls", "rows", "bytes", "samples", "inf", "improve", "iterations")
# the spans ``cmd_simulate --runs N`` runs inside its pool workers
WORKER_SPANS = ("config.load_config", "csvio.write_columns", "plant.simulate", "plant.measure",
                "friction.step_friction")

# Per-layer metrics, named <span>.<field>. A field is a span field or a ratio of
# two of them; a span a workload never enters reads 0 calls and 0 s.
LAYER_METRICS = (
    "config.load_config.calls", "config.load_config.s",
    "csvio.write_columns.calls", "csvio.write_columns.rows", "csvio.write_columns.bytes",
    "csvio.write_columns.s", "csvio.write_columns.mb_per_s",
    "csvio.read_columns.calls", "csvio.read_columns.rows", "csvio.read_columns.bytes",
    "csvio.read_columns.s", "csvio.read_columns.mb_per_s",
    "plant.simulate.calls", "plant.simulate.samples", "plant.simulate.self_s",
    "plant.simulate.us_per_sample",
    "plant.simulate_forced.calls", "plant.simulate_forced.self_s",
    "plant.measure.s",
    "friction.step_friction.calls", "friction.step_friction.self_s",
    "friction.step_friction.us_per_call",
    "friction.update_presliding.calls", "friction.update_presliding.self_s",
    "friction.coulomb_stiffness.calls", "friction.coulomb_stiffness.self_s",
    "observer.run_observer.s", "observer.run_observer.self_s",
    "observer.observer_step.calls", "observer.observer_step.self_s",
    "observer.zoh_discretize.calls", "observer.zoh_discretize.self_s",
    "observer.zoh_discretize.us_per_call",
    "observer.error_metrics.s",
    "gains.validate_robust.s",
    "ident.fit.s", "ident.residual.calls", "ident.residual.self_s",
    "ident.residual.inf_frac", "ident.residual.improve_frac", "ident.iterations",
)
_ALIASES = {"ident.iterations": "ident.fit.iterations"}
_UNITS = {"calls": "count", "rows": "count", "samples": "count", "iterations": "count",
          "bytes": "B", "s": "s", "self_s": "s"}
# derived field -> (numerator field, denominator field, scale, unit)
_RATIOS = {
    "mb_per_s": ("bytes", "s", 1e-6, "MB/s"),
    "us_per_sample": ("self_s", "samples", 1e6, "us"),
    "us_per_call": ("self_s", "calls", 1e6, "us"),
    "inf_frac": ("inf", "calls", 1.0, "ratio"),
    "improve_frac": ("improve", "calls", 1.0, "ratio"),
}


def layer_metrics(snap: dict[str, dict[str, float]]) -> dict[str, tuple[float, str]]:
    """LAYER_METRICS as (value, unit) from one snapshot; a ratio over 0 reads 0."""
    out = {}
    for metric in LAYER_METRICS:
        span, _, fld = _ALIASES.get(metric, metric).rpartition(".")
        d = snap.get(span, {})
        if fld in _RATIOS:
            num, den, scale, unit = _RATIOS[fld]
            out[metric] = (d.get(num, 0) / d[den] * scale if d.get(den) else 0.0, unit)
        else:
            out[metric] = (d.get(fld, 0), _UNITS[fld])
    return out


def counts(snap: dict[str, dict[str, float]]) -> dict[str, float]:
    """The work counts of one snapshot, which repeat exactly for identical inputs."""
    return {f"{span}.{k}": v for span, d in snap.items() for k, v in d.items()
            if k in COUNT_FIELDS}


class Stat:
    __slots__ = ("calls", "s", "self_s", "extra")

    def __init__(self) -> None:
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.extra: dict[str, float] = {}

    def add(self, key: str, amount: float) -> None:
        self.extra[key] = self.extra.get(key, 0) + amount

    def as_dict(self) -> dict[str, float]:
        return {"calls": self.calls, "s": self.s, "self_s": self.self_s, **self.extra}


class Tracer:
    """Call counts, inclusive and self times of the wrapped functions, by span name."""

    def __init__(self, worker_dir: Path) -> None:
        self.worker_dir = worker_dir
        self.stats: dict[str, Stat] = {}
        self.missing: list[str] = []
        self.worker_tasks = 0
        self._open = [0.0]  # time spent in wrapped callees, one entry per open span
        self._patches: list[tuple[Any, str, Any, Any]] = []
        self._pid = os.getpid()
        self._best_residual = math.inf

    # -- wrapping --------------------------------------------------------

    def wrap(self, module: str, attr: str, name: str,
             before: Callable[[], None] | None = None,
             after: Callable[[Stat, tuple, Any], None] | None = None) -> None:
        """Replace ``frictionobs.<module>.<attr>`` with a wrapper recording span ``name``."""
        mod = importlib.import_module(f"frictionobs.{module}")
        fn = getattr(mod, attr, None)
        stat = self.stats.setdefault(name, Stat())
        if fn is None:
            self.missing.append(f"{module}.{attr}")
            return
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before()
            open_spans.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = open_spans.pop()
                open_spans[-1] += dt
                stat.calls += 1
                stat.s += dt
                stat.self_s += dt - inner
            if after is not None:
                after(stat, args, result)
            return result

        self._patches.append((mod, attr, fn, wrapper))

    def ship_from_workers(self, module: str, attr: str) -> None:
        """Wrap a pool target so forked workers write their counts for the parent."""
        mod = importlib.import_module(f"frictionobs.{module}")
        fn = getattr(mod, attr, None)
        if fn is None:
            self.missing.append(f"{module}.{attr}")
            return

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() == self._pid:
                return fn(*args, **kwargs)
            before = self.snapshot()
            result = fn(*args, **kwargs)
            delta = {}
            for name, now in self.snapshot().items():
                was = before[name]
                delta[name] = {k: v - was.get(k, 0) for k, v in now.items()}
            path = self.worker_dir / f"trace-worker-{os.getpid()}-{time.monotonic_ns()}.json"
            path.write_text(json.dumps(delta), encoding="utf-8")
            return result

        # functools.wraps keeps the original's name, so the pool still pickles
        # the target by reference and the forked worker resolves it to this wrapper
        self._patches.append((mod, attr, fn, wrapper))

    def install(self) -> None:
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, fn, _ in self._patches:
            setattr(mod, attr, fn)

    # -- results ---------------------------------------------------------

    def reset(self) -> None:
        for stat in self.stats.values():
            stat.__init__()
        self.worker_tasks = 0

    def snapshot(self) -> dict[str, dict[str, float]]:
        return {name: stat.as_dict() for name, stat in self.stats.items()}

    def collect_workers(self) -> None:
        """Merge and delete the count files written by pool workers."""
        for path in sorted(self.worker_dir.glob("trace-worker-*.json")):
            for name, delta in json.loads(path.read_text(encoding="utf-8")).items():
                stat = self.stats.setdefault(name, Stat())
                stat.calls += delta.pop("calls")
                stat.s += delta.pop("s")
                stat.self_s += delta.pop("self_s")
                for key, amount in delta.items():
                    stat.add(key, amount)
            path.unlink()
            self.worker_tasks += 1

    # -- hooks for the frictionobs layers --------------------------------

    def _start_fit(self) -> None:
        self._best_residual = math.inf

    def _residual_done(self, stat: Stat, args: tuple, r: float) -> None:
        stat.add("inf", r == math.inf)
        if r < self._best_residual:
            self._best_residual = r
            stat.add("improve", 1)


def _written(stat: Stat, args: tuple, result: Any) -> None:
    path, _, columns = args[:3]
    stat.add("rows", len(columns[0]) if columns else 0)
    stat.add("bytes", os.path.getsize(path))


def _read(stat: Stat, args: tuple, columns: Any) -> None:
    stat.add("rows", len(columns[0]) if columns else 0)
    stat.add("bytes", os.path.getsize(args[0]))


def _samples(stat: Stat, args: tuple, traj: Any) -> None:
    stat.add("samples", len(traj))


def _iterations(stat: Stat, args: tuple, result: Any) -> None:
    stat.add("iterations", result.iterations)


def frictionobs_tracer(worker_dir: Path) -> Tracer:
    """A tracer over the layers of the frictionobs package; ``install`` puts it in place.

    Each function is wrapped where its callers look it up: the CLI's
    imports for the command-level calls, ``plant.step_friction`` for the
    plant's friction kernel, ``observer.*`` for the observer's presliding
    replica, ``ident.simulate`` and ``ident.residual`` for the fitter.
    """
    t = Tracer(worker_dir)
    t.wrap("cli", "load_config", "config.load_config")
    t.wrap("cli", "write_columns", "csvio.write_columns", after=_written)
    t.wrap("cli", "read_columns", "csvio.read_columns", after=_read)
    t.wrap("cli", "simulate", "plant.simulate", after=_samples)
    t.wrap("ident", "simulate", "plant.simulate", after=_samples)
    t.wrap("cli", "simulate_forced", "plant.simulate_forced")
    t.wrap("cli", "measure", "plant.measure")
    t.wrap("plant", "step_friction", "friction.step_friction")
    t.wrap("observer", "update_presliding", "friction.update_presliding")
    t.wrap("observer", "coulomb_stiffness", "friction.coulomb_stiffness")
    t.wrap("cli", "run_observer", "observer.run_observer")
    t.wrap("observer", "observer_step", "observer.observer_step")
    t.wrap("observer", "zoh_discretize", "observer.zoh_discretize")
    t.wrap("cli", "error_metrics", "observer.error_metrics")
    t.wrap("cli", "validate_robust", "gains.validate_robust")
    t.wrap("cli", "fit", "ident.fit", before=t._start_fit, after=_iterations)
    t.wrap("ident", "residual", "ident.residual", after=t._residual_done)
    t.ship_from_workers("cli", "_simulate_one")
    return t
