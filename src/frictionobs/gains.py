"""Observer gain design and robustness checks.

The error dynamics of the reduced-order observer have the characteristic
polynomial

    lam^2 + L1*lam + (sob + phi - L2)/m = 0

where phi = dF_c/dx is the presliding stiffness (0 in gross sliding, up to
kappa in presliding) and sob = sigma/beta is the viscous-lag contribution.
Placing the poles at a chosen (lam1, lam2) for phi = 0 gives

    L1 = -(lam1 + lam2),   L2 = sob - m * lam1 * lam2.

Robustness over the whole stiffness range phi in [0, kappa] requires

    (a) L1 > 0
    (b) L1 > 2*sqrt((kappa + sob - L2)/m)   (poles stay real)
    plus L2 < sob so the zero-order coefficient stays positive at phi = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ObserverGains:
    """Correction gains: l1 [1/s] on the velocity state, l2 [N/m] on the force state."""

    l1: float
    l2: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.l1) and math.isfinite(self.l2)):
            raise ValueError("gains must be finite")


@dataclass(frozen=True)
class RobustReport:
    """Outcome of validate_robust over phi in [0, kappa].

    worst_discriminant is the characteristic discriminant at phi = kappa
    (it decreases monotonically in phi); lam1_range / lam2_range are the
    real-part intervals of the two poles over phi in [0, kappa].
    """

    cond_a: bool
    cond_b: bool
    cond_stab: bool
    worst_discriminant: float
    lam1_range: tuple[float, float]
    lam2_range: tuple[float, float]

    @property
    def passed(self) -> bool:
        return self.cond_a and self.cond_b and self.cond_stab


def design_gains(poles: tuple[float, float], m: float, sob: float = 0.0) -> ObserverGains:
    """Gains placing the phi = 0 poles at the requested real pair.

    Both poles must be real, finite and strictly negative.
    """
    lam1, lam2 = poles
    for lam in (lam1, lam2):
        if isinstance(lam, complex):
            raise ValueError("poles must be real")
        if not (math.isfinite(lam) and lam < 0):
            raise ValueError(f"poles must be finite and < 0, got {lam!r}")
    if m <= 0:
        raise ValueError(f"m must be > 0, got {m!r}")
    l1 = -(lam1 + lam2)
    l2 = sob - m * (lam1 * lam2)
    return ObserverGains(l1, l2)


def validate_robust(g: ObserverGains, m: float, sob: float, kappa: float) -> RobustReport:
    """Check the realness/stability conditions over the stiffness range.

    cond_a: L1 > 0; cond_b: L1 > 2*sqrt((kappa + sob - L2)/m) (vacuous when
    the argument is negative); cond_stab: L2 < sob. m, sob and kappa must
    be finite, m > 0, sob >= 0 and kappa >= 0; otherwise ValueError. The
    discriminant falls monotonically in phi, so the pole ranges come from
    the endpoints phi = 0 and phi = kappa, with real part -L1/2 where the
    pair is complex.
    """
    if not (math.isfinite(m) and m > 0):
        raise ValueError(f"m must be finite and > 0, got {m!r}")
    for name, val in (("sob", sob), ("kappa", kappa)):
        if not (math.isfinite(val) and val >= 0):
            raise ValueError(f"{name} must be finite and >= 0, got {val!r}")
    cond_a = g.l1 > 0.0
    arg = (kappa + sob - g.l2) / m
    cond_b = True if arg < 0.0 else g.l1 > 2.0 * math.sqrt(arg)
    cond_stab = g.l2 < sob

    def real_parts(phi: float) -> tuple[float, float, float]:
        # (discriminant, Re lam1, Re lam2) at stiffness phi
        disc = g.l1 * g.l1 + (4.0 / m) * (g.l2 - phi - sob)
        r = math.sqrt(disc) if disc >= 0.0 else 0.0
        return disc, (-g.l1 - r) / 2.0, (-g.l1 + r) / 2.0

    _, lo1, hi2 = real_parts(0.0)
    worst, hi1, lo2 = real_parts(kappa)
    return RobustReport(
        cond_a=cond_a,
        cond_b=cond_b,
        cond_stab=cond_stab,
        worst_discriminant=worst,
        lam1_range=(lo1, hi1),
        lam2_range=(lo2, hi2),
    )
