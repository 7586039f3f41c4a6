"""The package's surface: what ``__all__`` promises, what it no longer holds, what
importing it loads, and the module attributes that the benchmark's layer tracer wraps."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import frictionobs

# removed with the state-object friction API, the pole helpers and ErrorMetrics;
# the pipeline runs friction.level/advance/stiffness, numpy checks the poles;
# FrictionParams now holds the deadband and derives kappa; observer_update holds
# its own real-arithmetic step; friction.advance reads v through the deadband
REMOVED = (
    "PreslidingState", "update_presliding", "coulomb_force", "coulomb_stiffness",
    "presliding_force", "f0_branch", "char_poly", "eigenvalues", "integrated_velocity",
    "ErrorMetrics", "error_metrics", "ObserverSettings", "default_kappa", "zoh_discretize",
    "deadband_sign", "DEFAULT_DEADBAND", "DEFAULT_Z_FLOOR", "residual",
)


def test_public_surface():
    namespace = {}
    exec("from frictionobs import *", namespace)
    assert not set(frictionobs.__all__) - namespace.keys()
    assert len(set(frictionobs.__all__)) == len(frictionobs.__all__)
    # dir() lists every exported name, loaded or not yet, once and in order
    listed = dir(frictionobs)
    assert set(frictionobs.__all__) <= set(listed) and listed == sorted(set(listed))
    assert not [name for name in REMOVED if hasattr(frictionobs, name)]
    assert not hasattr(frictionobs.FrictionParams, "beta_ok")


SOURCES = sorted((Path(frictionobs.__file__).parent).glob("*.py"))


def _unused_imports(tree):
    """Names a module's import statements bind but its code never reads."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert _unused_imports(tree) == []


def _call_sites(tree, module, callees):
    """module.function (module alone at its top level) of each call in tree of one of callees."""
    sites = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{module}.{node.name}"
        elif isinstance(node, ast.Call) and ast.unparse(node.func) in callees:
            sites.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, module)
    return sites


def _sites(callees):
    """_call_sites of callees in every module of the package."""
    return [site for path in SOURCES
            for site in _call_sites(ast.parse(path.read_text(encoding="utf-8")), path.stem,
                                    callees)]


def test_one_fork_site():
    # every fork goes through one protocol: csvio._in_parallel hands back a
    # child's result or its failure, with its type, and reaps the child
    assert _sites(("os.fork", "fork")) == ["csvio._in_parallel"]


def test_one_temporary_file_site():
    # every CSV written in two halves goes through one writer, and no command
    # makes a temporary file of its own
    assert _sites(("tempfile.TemporaryFile", "TemporaryFile")) == ["csvio.write_blocks"]


def test_unused_import_guard_sees_a_leftover_import():
    tree = ast.parse("from __future__ import annotations\nimport os, shutil\n"
                     "from .friction import advance, level as lv\nos.getcwd()\nadvance()\n")
    assert _unused_imports(tree) == [(2, "shutil"), (3, "lv")]


def _imported_modules(tree):
    """The top-level name of each module tree imports, at any depth; '.' for the package's own."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("." if node.level else node.module.partition(".")[0])
    return names


def test_every_import_is_stdlib_or_a_declared_dependency():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[\w.-]+", dep).group().lower().replace("-", "_")
                for dep in project["dependencies"]}
    imported = set().union(*(_imported_modules(ast.parse(path.read_text(encoding="utf-8")))
                             for path in SOURCES))
    # a function's own import counts: csvio imports orjson where it formats
    assert {".", "numpy", "orjson"} <= imported
    assert imported - set(sys.stdlib_module_names) - {".", "frictionobs"} <= declared


def _in_fresh_interpreter(code, **env):
    """stdout of a new interpreter that runs code, with no OPENBLAS_NUM_THREADS but env's.

    This process has the variable once a test has imported frictionobs.cli,
    so the child gets a copy of the environment without it.
    """
    child = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    path = [str(Path(frictionobs.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    child.update(env, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child, timeout=60, check=True)
    return proc.stdout


# numpy's OpenBLAS starts one thread per CPU, so with one CPU every count is 1
@pytest.mark.skipif(not sys.platform.startswith("linux") or len(os.sched_getaffinity(0)) < 2,
                    reason="counts threads in /proc/self/task, on two CPUs or more")
@pytest.mark.parametrize("env, threads", [({}, 1), ({"OPENBLAS_NUM_THREADS": "2"}, 2)],
                         ids=["default", "user_set"])
def test_cli_process_runs_one_thread_unless_told_otherwise(env, threads):
    code = "import os, frictionobs.cli; print(len(os.listdir('/proc/self/task')))"
    assert int(_in_fresh_interpreter(code, **env)) == threads


def test_importing_the_package_loads_no_numpy():
    # a library caller's own numpy, imported later, keeps its BLAS threads
    code = "import sys, frictionobs; print('numpy' in sys.modules)"
    assert _in_fresh_interpreter(code) == "False\n"


def test_the_largest_modules_compile_before_numpy_loads(tmp_path):
    # without a bytecode cache (PYTHONDONTWRITEBYTECODE) the compiler's scratch
    # memory for a module compiled after numpy has loaded stays resident,
    # about 3 KB a line, so the two largest modules are compiled before it;
    # the empty cache prefix makes every module compile from source
    code = ("import importlib.machinery as m, os, sys\n"
            "compile = m.SourceFileLoader.source_to_code\n"
            "def traced(self, data, path, *args, **kwargs):\n"
            "    print(path, 'numpy' in sys.modules)\n"
            "    return compile(self, data, path, *args, **kwargs)\n"
            "m.SourceFileLoader.source_to_code = traced\n"
            "import frictionobs.cli\n")
    out = _in_fresh_interpreter(code, PYTHONDONTWRITEBYTECODE="1",
                                PYTHONPYCACHEPREFIX=str(tmp_path))
    numpy_loaded = {Path(path).name: loaded == "True"
                    for path, loaded in map(str.split, out.splitlines())
                    if Path(path) in SOURCES}
    by_size = sorted(SOURCES, key=lambda p: len(p.read_text(encoding="utf-8").splitlines()))
    assert {p.name for p in by_size[-2:]} == {"cli.py", "csvio.py"}
    assert numpy_loaded["cli.py"] is False and numpy_loaded["csvio.py"] is False
    # the trace does see numpy load: the smaller modules compile after it
    assert numpy_loaded["observer.py"] is True


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    """A noisy config (the first default pulse starts at 0.3 s), its CSVs and estimates."""
    from frictionobs.cli import main

    d = tmp_path_factory.mktemp("records")
    (d / "run.cfg").write_text("sim.t_end = 0.4\n")
    (d / "quiet.cfg").write_text("sim.t_end = 0.4\nsim.noise_std = 0\n")
    assert main(["simulate", "--config", str(d / "run.cfg"), "--out", str(d / "sim.csv")]) == 0
    assert main(["observe", "--config", str(d / "run.cfg"), "--measured",
                 str(d / "sim_measured.csv"), "--out", str(d / "est.csv")]) == 0
    return d


# importing numpy.random adds about 6 MB of RSS; simulate needs it only to draw noise
@pytest.mark.parametrize("argv, loaded", [
    ("simulate --config {d}/run.cfg --out {d}/noisy.csv", True),
    ("simulate --config {d}/quiet.cfg --out {d}/quiet.csv", False),
    ("design --poles=-350,-10", False),
    ("observe --config {d}/run.cfg --measured {d}/sim_measured.csv --out {d}/est2.csv"
     " --truth {d}/sim.csv", False),
    ("compare --sim {d}/sim.csv --estimates {d}/est.csv --out {d}/merged.csv", False),
    ("identify --config {d}/run.cfg --measured {d}/sim_measured.csv --out {d}/fit.txt", False),
], ids=["simulate_noisy", "simulate_quiet", "design", "observe", "compare", "identify"])
def test_only_a_noisy_simulate_loads_numpy_random(records, argv, loaded):
    code = ("import sys\nfrom frictionobs.cli import main\n"
            f"print(main({[a.format(d=records) for a in argv.split()]!r}),"
            " 'numpy.random' in sys.modules)")
    assert _in_fresh_interpreter(code).splitlines()[-1] == f"0 {loaded}"


# importing orjson adds about 0.87 MB of RSS and 8-17 ms; only a command
# that formats a CSV needs it, and compare splices plain inputs unformatted
@pytest.mark.parametrize("argv, loaded", [
    ("", False),
    ("simulate --config {d}/quiet.cfg --out {d}/quiet.csv", True),
    ("design --poles=-350,-10", False),
    ("observe --config {d}/run.cfg --measured {d}/sim_measured.csv --out {d}/est2.csv"
     " --truth {d}/sim.csv", True),
    ("compare --sim {d}/sim.csv --estimates {d}/est.csv --out {d}/merged.csv", False),
    ("identify --config {d}/run.cfg --measured {d}/sim_measured.csv --out {d}/fit.txt", False),
], ids=["import", "simulate", "design", "observe", "compare_plain", "identify"])
def test_only_a_command_that_formats_a_csv_loads_orjson(records, argv, loaded):
    run = f"main({[a.format(d=records) for a in argv.split()]!r})" if argv else "0"
    code = f"import sys\nfrom frictionobs.cli import main\nprint({run}, 'orjson' in sys.modules)"
    assert _in_fresh_interpreter(code).splitlines()[-1] == f"0 {loaded}"


# wrap targets in perfbench/layertrace.py that name functions gone from the
# package; each of their metrics reads 0 until the tracer is pointed at the
# kernel, and this list must shrink as that happens
STALE_TRACE_TARGETS = {
    ("plant", "step_friction"),
    ("observer", "update_presliding"),
    ("observer", "coulomb_stiffness"),
    ("observer", "observer_step"),
    ("cli", "error_metrics"),
    # the fitter's forward model is simulate_forced on the record's u
    ("ident", "simulate"),
    # simulate folds the plant and draws the noise a block at a time
    # (plant.simulate_blocks, plant.sensor)
    ("cli", "simulate"),
    ("cli", "measure"),
    # the hold step is written out in observer_update
    ("observer", "zoh_discretize"),
    # the fit's spread comes from its own Jacobian; no box probe calls a residual
    ("ident", "residual"),
}


def _trace_targets():
    """(module, attr) of every ``t.wrap(module, attr, ...)`` call in the benchmark's tracer."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        (node.args[0].value, node.args[1].value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "wrap" and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "t"
    ]


def test_trace_targets_resolve():
    targets = _trace_targets()
    assert len(targets) > len(STALE_TRACE_TARGETS)
    assert STALE_TRACE_TARGETS <= set(targets)
    for module, attr in targets:
        found = hasattr(importlib.import_module(f"frictionobs.{module}"), attr)
        assert found != ((module, attr) in STALE_TRACE_TARGETS), f"{module}.{attr}"
