"""The package's surface: what ``__all__`` promises, what it no longer holds, and
the module attributes that the benchmark's layer tracer wraps."""

import ast
import importlib
from pathlib import Path

import frictionobs

# removed with the state-object friction API, the pole helpers and ErrorMetrics;
# the pipeline runs friction.level/advance/stiffness, numpy checks the poles;
# FrictionParams now holds the deadband and derives kappa; observer_update holds
# its own real-arithmetic step
REMOVED = (
    "PreslidingState", "update_presliding", "coulomb_force", "coulomb_stiffness",
    "presliding_force", "f0_branch", "char_poly", "eigenvalues", "integrated_velocity",
    "ErrorMetrics", "error_metrics", "ObserverSettings", "default_kappa", "zoh_discretize",
)


def test_public_surface():
    namespace = {}
    exec("from frictionobs import *", namespace)
    assert not set(frictionobs.__all__) - namespace.keys()
    assert len(set(frictionobs.__all__)) == len(frictionobs.__all__)
    assert not [name for name in REMOVED if hasattr(frictionobs, name)]
    assert not hasattr(frictionobs.FrictionParams, "beta_ok")


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
    # the hold step is written out in observer_update
    ("observer", "zoh_discretize"),
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
