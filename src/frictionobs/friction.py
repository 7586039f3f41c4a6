"""Presliding-hysteresis friction with a first-order viscous lag.

The friction force on the moving body is the sum of two terms:

* a Coulomb term F_c that, while the contact is in presliding, traverses
  smooth hysteresis branches built from the normalized virgin curve
  f0(z) = z*(1 - ln|z|) on 0 < |z| <= 1, and saturates at +-c_f in gross
  sliding once |z| reaches 1;
* a viscous term F_v that relaxes toward sigma*v with time constant beta
  (first-order frictional lag), integrated exactly per step.

The presliding coordinate is z = s_scale * integral of v since the last
velocity reversal. Each reversal spawns a new branch: the normalized force
level at the reversal instant is memorized as f_r, z restarts from zero,
and the branch is the rescaled virgin curve

    f_p(z) = |dir - f_r| * f0(z) + f_r

which runs from f_r at z = 0 to dir (i.e. +-1) at z = dir. Saturation at
|z| >= 1 erases the branch memory: it leaves the flat branch f_r == dir, of
level f_r and stiffness 0 wherever z goes, and the next reversal starts from +-1.

The branch slope diverges like -ln|z| as z -> 0, so stiffness queries clip
|z| from below at z_floor. With |dir - f_r| <= 2 the clip alone bounds the
stiffness by kappa = 2 * s_scale * c_f * (-ln z_floor); there is no separate
cap. ``FrictionParams`` holds the whole law, the reversal deadband included,
for the plant, the observer's replica and the fitter's forward model alike.

The law is a scalar kernel on plain floats: ``advance`` (reversal, advance,
saturation), ``level`` (clipped normalized Coulomb level) and ``stiffness``
(dF_c/dx) take the branch state as (z, f_r, dir) and return floats or
tuples; ``advance`` reads the velocity through the reversal deadband. The
plant loop and the observer's replica keep that state in local variables
and allocate nothing per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

@dataclass(frozen=True)
class FrictionParams:
    """Friction law parameters.

    Parameters
    ----------
    c_f : float
        Coulomb force level [N], > 0.
    sigma : float
        Viscous coefficient [N s/m], > 0.
    beta : float
        Time constant of the frictional lag [s], > 0.
    s_scale : float
        Scaling of the presliding coordinate, z = s_scale * x-travel [1/m], > 0.
    z_floor : float
        Lower clip on |z| in stiffness/force branch evaluations, 0 < z_floor < 1.
    deadband : float
        Reversal detection deadband on the velocity [m/s], finite and >= 0.
    """

    c_f: float
    sigma: float
    beta: float
    s_scale: float
    z_floor: float = 1e-4
    deadband: float = 1e-4

    def __post_init__(self) -> None:
        for name in ("c_f", "sigma", "beta", "s_scale"):
            val = getattr(self, name)
            if not (isinstance(val, (int, float)) and math.isfinite(val) and val > 0):
                raise ValueError(f"{name} must be finite and > 0, got {val!r}")
        if not (0.0 < self.z_floor < 1.0):
            raise ValueError(f"z_floor must lie in (0, 1), got {self.z_floor!r}")
        if not (math.isfinite(self.deadband) and self.deadband >= 0):
            raise ValueError(f"deadband must be finite and >= 0, got {self.deadband!r}")

    @property
    def kappa(self) -> float:
        """Largest presliding stiffness [N/m]: 2 * s_scale * c_f * (-ln z_floor)."""
        return 2.0 * self.s_scale * self.c_f * (-math.log(self.z_floor))


def level(z: float, f_r: float, dir: int, z_floor: float) -> float:
    """Normalized Coulomb level of a branch state, clipped into [-1, 1].

    A flat branch (f_r == dir, saturation included) and a state that never
    moved (dir == 0) sit at f_r. Otherwise the branch is evaluated at z
    clipped away from zero.
    """
    if dir == 0 or f_r == dir:
        return f_r
    # |z| clipped into [z_floor, 1], on z's side of zero; a branch that just
    # spawned (z == 0) is evaluated on its own side. Comparisons stand in for
    # abs/min/max/copysign, which cost a builtin call each on every step: each
    # conditional keeps the operand the builtin keeps, NaN and -0.0 included
    side = 1.0 if z > 0.0 or z == 0.0 and dir > 0 else -1.0
    a = side * z
    a = z_floor if a < z_floor else 1.0 if a > 1.0 else a
    # the rescaled virgin branch, |dir - f_r| * f0(z) + f_r
    fp = (dir - f_r if dir > f_r else f_r - dir) * (side * a * (1.0 - math.log(a))) + f_r
    # clipped into [-1, 1]; a NaN level reads -1, as min(1, max(-1, fp)) gives
    return (fp if fp < 1.0 else 1.0) if fp > -1.0 else -1.0


def advance(
    z: float,
    f_r: float,
    dir: int,
    dx: float,
    v: float,
    deadband: float,
    s_scale: float,
    z_floor: float,
) -> tuple[float, float, int]:
    """Advance a branch state by a displacement increment dx [m]; returns (z, f_r, dir).

    The sign of v counts only when |v| > deadband. A sign opposite to the
    stored branch direction (or the first sign from rest) is a reversal: the
    current normalized level is memorized as f_r, z restarts at zero, and the
    branch direction flips. z then advances by s_scale * dx. Reaching
    z * dir >= 1 saturates the branch and erases its memory (f_r <- dir).
    """
    v_sign = 1 if v > deadband else -1 if v < -deadband else 0
    if v_sign != 0 and v_sign != dir:
        f_r = level(z, f_r, dir, z_floor)
        z = 0.0
        dir = v_sign
    if dir != 0:
        z += s_scale * dx
        if z * dir >= 1.0:
            z = f_r = float(dir)
    return z, f_r, dir


def stiffness(
    z: float,
    f_r: float,
    dir: int,
    s_scale: float,
    c_f: float,
    z_floor: float,
) -> float:
    """Displacement stiffness dF_c/dx [N/m] of a branch state, in [0, kappa].

    In presliding this is s_scale * c_f * |dir - f_r| * (-ln |z|) with |z|
    clipped at z_floor; zero on a flat branch (force locked at c_f * f_r).
    """
    if f_r == dir:
        return 0.0
    # written without builtin calls, as in level
    a = z if z > 0.0 else -z
    a = z_floor if a < z_floor else 1.0 if a > 1.0 else a
    g = -math.log(a)
    return s_scale * c_f * (dir - f_r if dir > f_r else f_r - dir) * (g if g > 0.0 else 0.0)
