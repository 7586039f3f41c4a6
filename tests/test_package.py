"""The package's public surface: what ``__all__`` promises, and what it no longer holds."""

import frictionobs

# removed with the state-object friction API, the pole helpers and ErrorMetrics;
# the pipeline runs friction.level/advance/stiffness, numpy checks the poles;
# FrictionParams now holds the deadband and derives kappa
REMOVED = (
    "PreslidingState", "update_presliding", "coulomb_force", "coulomb_stiffness",
    "presliding_force", "f0_branch", "char_poly", "eigenvalues", "integrated_velocity",
    "ErrorMetrics", "error_metrics", "ObserverSettings", "default_kappa",
)


def test_public_surface():
    namespace = {}
    exec("from frictionobs import *", namespace)
    assert not set(frictionobs.__all__) - namespace.keys()
    assert len(set(frictionobs.__all__)) == len(frictionobs.__all__)
    assert not [name for name in REMOVED if hasattr(frictionobs, name)]
    assert not hasattr(frictionobs.FrictionParams, "beta_ok")
