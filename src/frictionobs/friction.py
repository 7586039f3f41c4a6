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
|z| >= 1 erases the branch memory, so the next reversal starts from +-1.

The branch slope diverges like -ln|z| as z -> 0, so stiffness queries clip
|z| from below at z_floor. With |dir - f_r| <= 2 the clip alone bounds the
stiffness by kappa = 2 * s_scale * c_f * (-ln z_floor); there is no separate
cap. ``FrictionParams`` holds the whole law, the reversal deadband included,
for the plant, the observer's replica and the fitter's forward model alike.

The law is a scalar kernel on plain floats: ``advance`` (reversal, advance,
saturation), ``level`` (clipped normalized Coulomb level) and ``stiffness``
(dF_c/dx) take the branch state as (z, f_r, dir, sat) and return floats or
tuples, so the plant loop and the observer's replica keep that state in
local variables and allocate nothing per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Module defaults for the FrictionParams fields of the same names.
DEFAULT_Z_FLOOR = 1e-4
DEFAULT_DEADBAND = 1e-4  # reversal detection deadband on v [m/s]


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
    z_floor: float = DEFAULT_Z_FLOOR
    deadband: float = DEFAULT_DEADBAND

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


def level(z: float, f_r: float, dir: int, sat: bool, z_floor: float) -> float:
    """Normalized Coulomb level of a branch state, clipped into [-1, 1].

    Saturated states sit at dir. A state that never moved (dir == 0) sits at
    f_r. Otherwise the branch is evaluated at z clipped away from zero.
    """
    if sat:
        return float(dir)
    if dir == 0:
        return f_r
    if z == 0.0:
        zc = dir * z_floor  # branch just spawned, evaluate on its own side
    else:
        zc = math.copysign(min(max(abs(z), z_floor), 1.0), z)
    # the rescaled virgin branch, |dir - f_r| * f0(z) + f_r
    fp = abs(dir - f_r) * (zc * (1.0 - math.log(abs(zc)))) + f_r
    return min(1.0, max(-1.0, fp))


def advance(
    z: float,
    f_r: float,
    dir: int,
    sat: bool,
    dx: float,
    v_sign: int,
    s_scale: float,
    z_floor: float,
) -> tuple[float, float, int, bool]:
    """Advance a branch state by a displacement increment dx [m]; returns (z, f_r, dir, sat).

    v_sign is the deadband-filtered velocity sign driving reversal
    detection. A sign opposite to the stored branch direction (or the first
    nonzero sign from rest) is a reversal: the current normalized level is
    memorized as f_r, z restarts at zero, and the branch direction flips.
    z then advances by s_scale * dx. Reaching z * dir >= 1 saturates the
    branch and erases its memory (f_r <- dir).
    """
    if v_sign != 0 and v_sign != dir:
        f_r = level(z, f_r, dir, sat, z_floor)
        z = 0.0
        dir = v_sign
        sat = False
    if dir != 0:
        z += s_scale * dx
        if z * dir >= 1.0:
            z = float(dir)
            sat = True
            f_r = float(dir)
    return z, f_r, dir, sat


def stiffness(
    z: float,
    f_r: float,
    dir: int,
    sat: bool,
    s_scale: float,
    c_f: float,
    z_floor: float,
) -> float:
    """Displacement stiffness dF_c/dx [N/m] of a branch state, in [0, kappa].

    In presliding this is s_scale * c_f * |dir - f_r| * (-ln |z|) with |z|
    clipped at z_floor; zero when saturated (force locked at +-c_f).
    """
    if sat:
        return 0.0
    zc = min(max(abs(z), z_floor), 1.0)
    return s_scale * c_f * abs(dir - f_r) * max(0.0, -math.log(zc))


def deadband_sign(v: float, deadband: float = DEFAULT_DEADBAND) -> int:
    """Sign of v seen through the reversal deadband: 0 when |v| <= deadband."""
    if v > deadband:
        return 1
    if v < -deadband:
        return -1
    return 0
