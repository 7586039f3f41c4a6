"""Reduced-order observer for velocity and friction force from displacement.

The plant state w = (x, v, f) is split into the measured part (x) and the
estimated part z = (v, f). In regular form the estimated block evolves as

    z' = a22 z + b_z u,      x' = a12 z,
    a22 = [[0, -1/m], [phi, 0]],   b_z = (1/m, 0),   a12 = (1, 0),

where phi = dF_c/dx + sigma/beta lumps the presliding stiffness dF_c/dx (0
in gross sliding, up to kappa in presliding) and the viscous-lag coupling
sob = sigma/beta, so phi ranges over [sob, sob + kappa]. With correction
gain L = (l1, l2) the observer is

    z~' = M z~ + M L x + b_z u,    M = a22 - L a12,

and the estimates are recovered by the back-transform w~ = z~ + L x. For
any frozen phi the estimation error obeys e' = M e, so the error poles are
the roots of

    lam^2 + l1 lam + (phi - l2)/m = 0.

``design_gains`` places them at a chosen real pair (lam1, lam2) for phi = sob:

    l1 = -(lam1 + lam2),   l2 = sob - m lam1 lam2.

``validate_robust`` checks them over phi in [sob, sob + kappa]: (a) l1 > 0;
(b) l1 > 2 sqrt((sob + kappa - l2)/m), so the poles stay real up to
phi = sob + kappa; (c) l2 < sob, so the pole product (phi - l2)/m stays > 0.

Each step integrates the frozen-phi system exactly with x and u held, the
2x2 matrix exponential written in closed form in real arithmetic (see
``observer_update``). phi itself comes from an observer-internal replica of
the presliding state, driven by the measured displacement increments with
reversal detection on sign(w2~). The replica runs the same scalar hysteresis
kernel as the plant (``friction.advance`` and ``friction.stiffness``), its
state held in local floats of the ``run_observer`` loop. That loop reads x
and u from the record's float64 buffers and writes w2, w3 and phi as packed
float64 values, 8 bytes a sample, which the returned Estimates' arrays share.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .friction import FrictionParams, advance, stiffness
from .plant import Measured

_E_OBS_CHUNK = 1 << 14  # samples of x that e_obs_series shifts at a time

Mat2 = tuple[tuple[float, float], tuple[float, float]]


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
    """Outcome of validate_robust over phi in [sob, sob + kappa].

    worst_discriminant is the characteristic discriminant at phi = sob + kappa
    (it decreases monotonically in phi); lam1_range / lam2_range are the
    real-part intervals of the two poles over phi in [sob, sob + kappa].
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
    """Gains placing the phi = sob poles at the requested real pair.

    Both poles must be real, finite and < 0, m finite and > 0, sob finite.
    """
    lam1, lam2 = poles
    for lam in (lam1, lam2):
        if isinstance(lam, complex):
            raise ValueError("poles must be real")
        if not (math.isfinite(lam) and lam < 0):
            raise ValueError(f"poles must be finite and < 0, got {lam!r}")
    if not (math.isfinite(m) and m > 0):
        raise ValueError(f"m must be finite and > 0, got {m!r}")
    if not math.isfinite(sob):
        raise ValueError(f"sob must be finite, got {sob!r}")
    l1 = -(lam1 + lam2)
    l2 = sob - m * (lam1 * lam2)
    return ObserverGains(l1, l2)


def validate_robust(g: ObserverGains, m: float, sob: float, kappa: float) -> RobustReport:
    """Check the realness/stability conditions over phi in [sob, sob + kappa].

    cond_a: l1 > 0; cond_b: l1 > 2*sqrt((kappa + sob - l2)/m) (vacuous when
    the argument is negative); cond_stab: l2 < sob. m, sob and kappa must
    be finite, m > 0, sob >= 0 and kappa >= 0; otherwise ValueError. The
    discriminant falls monotonically in phi, so the pole ranges come from
    the endpoints phi = sob and phi = sob + kappa, with real part -l1/2
    where the pair is complex.
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

    def real_parts(dfc_dx: float) -> tuple[float, float, float]:
        # (discriminant, Re lam1, Re lam2) at phi = sob + dfc_dx, the stiffness dfc_dx
        # divided before it is scaled: 4.0 / m overflows for a subnormal m
        disc = g.l1 * g.l1 + 4.0 * ((g.l2 - dfc_dx - sob) / m)
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


class ObserverDiverged(RuntimeError):
    """An estimate overflowed to inf or NaN; carries the first such sample index."""

    def __init__(self, row: int, t: float):
        super().__init__(f"estimates not finite at sample {row} (t = {t!r} s)")
        self.row = row


def observer_matrix(g: ObserverGains, m: float, phi: float) -> Mat2:
    """Closed-loop error matrix M = a22 - L a12."""
    return ((-g.l1, -1.0 / m), (phi - g.l2, 0.0))


def observer_update(
    z1: float,
    z2: float,
    x_held: float,
    u: float,
    dt: float,
    g: ObserverGains,
    m: float,
    phi: float,
) -> tuple[float, float]:
    """One frozen-phi observer step, exact for x and u held; returns (z1', z2').

    Integrates z~' = M z~ + M L x + b_z u over dt. In w~ = z~ + L x that is
    w~' = M w~ + b_z u, so the step is z~' = Phi w~ + J b_z u - L x with

        Phi = exp(M dt) = e ((c - a s) I + s M),
        J b_z = M^-1 (Phi - I) b_z = (e s / m, 1 - e (c - a s)),

    a = -l1/2, e = exp(a dt), q = a^2 - det M and (c, s) equal to
    (cosh(mu dt), sinh(mu dt)/mu) for q = mu^2 > 0, (cos(w dt), sin(w dt)/w)
    for q = -w^2 < 0 and (1, dt) for q = 0. The caller emits z~' + L x (see
    ``run_observer``). Raises ValueError unless dt is finite and > 0 and
    phi > l2, i.e. det M = (phi - l2)/m > 0.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and > 0, got {dt!r}")
    l1, l2 = g.l1, g.l2
    if not phi > l2:
        raise ValueError(f"phi must exceed l2 = {l2!r}, got {phi!r}")
    k = phi - l2
    a = -0.5 * l1
    q = a * a - k / m
    if q > 0.0:
        # e times exp(mu dt) and (c, s) times exp(-mu dt), so that no exponent is
        # positive (l1 > 0, det > 0); cosh(mu dt) overflows from l1 dt ~ 1400
        mu = math.sqrt(q)
        y = math.expm1(-2.0 * mu * dt)
        e, c, s = math.exp((a + mu) * dt), 1.0 + 0.5 * y, -0.5 * y / mu
    elif q < 0.0:
        w = math.sqrt(-q)
        e, c, s = math.exp(a * dt), math.cos(w * dt), math.sin(w * dt) / w
    else:
        e, c, s = math.exp(a * dt), 1.0, dt
    d, es = e * (c - a * s), e * s
    w2, w3 = z1 + l1 * x_held, z2 + l2 * x_held
    z1n = (d - es * l1) * w2 + es * (u - w3) / m - l1 * x_held
    z2n = es * k * w2 + d * (w3 - u) + u - l2 * x_held
    return z1n, z2n


@dataclass(frozen=True)
class Estimates:
    """Observer output as columns on the measured grid.

    t [s], velocity estimate w2 (w2~) [m/s], force estimate w3 (w3~) [N],
    the phi the observer used at each sample [N/m] and the
    displacement-consistency error e_obs [m] (see ``e_obs_series``).
    """

    t: np.ndarray
    w2: np.ndarray
    w3: np.ndarray
    phi: np.ndarray
    e_obs: np.ndarray

    def __len__(self) -> int:
        return len(self.t)


def run_observer(
    measured: Measured,
    g: ObserverGains,
    m: float,
    fp: FrictionParams,
) -> Estimates:
    """Fold the observer over a measured sequence from zero initial state.

    Arriving at sample k, the hold step from k-1 to k is completed first
    (``observer_update`` with x held at the interval midpoint
    (x[k-1]+x[k])/2 and u at u[k-1], phi frozen at its value from the
    replica as of k-1), then the estimate at t_k is emitted as z~ + L x[k].
    Holding the midpoint removes the O(l1 dt/2) velocity bias of a
    start-of-interval hold. The presliding replica then advances with the
    measured displacement increment, using sign(w2~) through fp.deadband
    for reversal detection.

    The record comes checked by ``Measured``: x and u finite on a uniform
    grid of step ``measured.dt``. The gains must satisfy l1 > 0 and
    l2 < sigma/beta; otherwise ValueError. Finite inputs near the float
    limits can still overflow the estimates (w2, w3 or e_obs) to inf or
    NaN, which raises ObserverDiverged naming the first such sample. An
    empty sequence yields empty columns.
    """
    sob = fp.sigma / fp.beta
    if not (g.l1 > 0.0 and g.l2 < sob):
        raise ValueError(
            f"gains (l1={g.l1!r}, l2={g.l2!r}) violate l1 > 0, l2 < sigma/beta = {sob!r}"
        )
    t = measured.t
    n = len(measured)
    # a single sample needs no integration step (dt = 0), but still gets its estimate
    dt = measured.dt
    # packed float64 columns, 8 bytes a sample where a list of floats takes
    # 32; a memoryview stores a float in half the time array item assignment takes
    x = memoryview(measured.x)
    u = memoryview(measured.u)
    l1, l2 = g.l1, g.l2
    s_scale, c_f, z_floor, deadband = fp.s_scale, fp.c_f, fp.z_floor, fp.deadband
    w2_d, w3_d, phi_d = (memoryview(array("d", [0.0]) * n) for _ in range(3))
    z1 = z2 = 0.0
    # replica of the presliding state: see friction.advance
    z = f_r = 0.0
    d = 0
    x_prev = 0.0
    for k in range(n):
        phi_k = stiffness(z, f_r, d, s_scale, c_f, z_floor) + sob
        x_k = x[k]
        if k:
            dx = x_k - x_prev
            z1, z2 = observer_update(
                z1, z2, 0.5 * (x_prev + x_k), u[k - 1], dt, g, m, phi_k
            )
        else:
            dx = 0.0
        x_prev = x_k
        w2_k = z1 + l1 * x_k
        w2_d[k] = w2_k
        w3_d[k] = z2 + l2 * x_k
        phi_d[k] = phi_k
        z, f_r, d = advance(z, f_r, d, dx, w2_k, deadband, s_scale, z_floor)
    w2, w3, phi = np.frombuffer(w2_d), np.frombuffer(w3_d), np.frombuffer(phi_d)
    # an overflow here is reported by the finiteness check below
    with np.errstate(over="ignore", invalid="ignore"):
        e_obs = e_obs_series(measured.x, w2, dt) if n else np.empty(0)
    ok = np.isfinite(w2) & np.isfinite(w3) & np.isfinite(e_obs)
    if not ok.all():
        k = int(np.argmin(ok))
        raise ObserverDiverged(k, float(t[k]))
    return Estimates(t, w2, w3, phi, e_obs)


def rms(a: np.ndarray, b: np.ndarray | float = 0.0) -> float:
    """Root-mean-square of the difference a - b (of a alone by default); 0.0 for an empty a.

    When a and b are finite but the difference or its mean square overflows,
    both are rescaled by their largest magnitude before they are subtracted,
    so an RMS within the float range stays finite and one beyond it is inf.
    Any other result is the plain sqrt(mean(d*d)) of d = a - b, to the bit.
    """
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return 0.0
    b = np.asarray(b, dtype=float)
    # inf - inf from non-finite inputs is NaN, as the plain formula gives
    with np.errstate(over="ignore", invalid="ignore"):
        d = a - b
        d *= d
        ms = np.mean(d)
    if ms == math.inf and np.isfinite(a).all() and np.isfinite(b).all():
        s = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))))
        d = a / s - b / s
        # a float product past the range is inf, with no numpy warning
        return s * math.sqrt(float(np.mean(d * d)))
    return float(np.sqrt(ms))


def e_obs_series(x_meas: np.ndarray, w2: np.ndarray, dt: float) -> np.ndarray:
    """Displacement-consistency error x - x(0) - integral of w2~.

    The integral is the rectangle-rule running sum of w2~ on its own grid,
    so it includes the current estimate. The result is the one full-length
    array: the sum is scaled and subtracted in place, x - x(0) a chunk at a
    time, so each cell takes the same operations as
    ``(x - x[0]) - np.cumsum(w2) * dt``, to the bit.
    """
    x_meas = np.asarray(x_meas, dtype=float)
    e = np.cumsum(np.asarray(w2, dtype=float))
    e *= dt
    x0 = x_meas[0]
    for lo in range(0, len(e), _E_OBS_CHUNK):
        chunk = e[lo:lo + _E_OBS_CHUNK]
        np.subtract(x_meas[lo:lo + _E_OBS_CHUNK] - x0, chunk, out=chunk)
    return e
