"""Reduced-order observer for velocity and friction force from displacement.

The plant state w = (x, v, f) is split into the measured part (x) and the
estimated part z = (v, f). In regular form the estimated block evolves as

    z' = a22 z + b_z u,      x' = a12 z,
    a22 = [[0, -1/m], [phi, 0]],   b_z = (1/m, 0),   a12 = (1, 0),

where phi = dF_c/dx + sigma/beta lumps the presliding stiffness and the
viscous-lag coupling. With correction gain L = (l1, l2) the observer is

    z~' = M z~ + M L x + b_z u,    M = a22 - L a12,

and the estimates are recovered by the back-transform w~ = z~ + L x. For
any frozen phi the estimation error obeys e' = M e, so the error poles are
the roots of lam^2 + l1 lam + (phi - l2)/m.

Each step discretizes the frozen-phi system exactly (zero-order hold on x
and u) via a closed-form 2x2 matrix exponential. phi itself comes from an
observer-internal replica of the presliding state, driven by the measured
displacement increments with reversal detection on sign(w2~). The replica
runs the same scalar hysteresis kernel as the plant (``friction.advance``
and ``friction.stiffness``), its state held in local floats of the
``run_observer`` loop.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .friction import FrictionParams, advance, deadband_sign, stiffness
from .gains import ObserverGains
from .plant import Measured

Mat2 = tuple[tuple[float, float], tuple[float, float]]


class ObserverDiverged(RuntimeError):
    """An estimate overflowed to inf or NaN; carries the first such sample index."""

    def __init__(self, row: int, t: float):
        super().__init__(f"estimates not finite at sample {row} (t = {t!r} s)")
        self.row = row


def observer_matrix(g: ObserverGains, m: float, phi: float) -> Mat2:
    """Closed-loop error matrix M = a22 - L a12."""
    return ((-g.l1, -1.0 / m), (phi - g.l2, 0.0))


# ---------------------------------------------------------------------------
# exact zero-order-hold discretization of a 2x2 system
# ---------------------------------------------------------------------------

def _expint(r: complex, dt: float) -> complex:
    # integral of e^{r s} over [0, dt]; series below |r dt| ~ 1e-6 to dodge
    # the (e^z - 1)/r cancellation
    z = r * dt
    if abs(z) < 1e-6:
        return dt * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0)))
    return (cmath.exp(z) - 1.0) / r


def zoh_discretize(M: Mat2, dt: float) -> tuple[Mat2, Mat2]:
    """Exact hold pair: Phi = exp(M dt) and J = integral of exp(M s) over [0, dt].

    Closed form through the eigenvalues r = a +- mu of the 2x2 (Lagrange
    interpolation on distinct eigenvalues, Cayley-Hamilton confluent form
    when they nearly coincide). Complex intermediates; results are real.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and > 0, got {dt!r}")
    (m00, m01), (m10, m11) = M
    a = 0.5 * (m00 + m11)
    det = m00 * m11 - m01 * m10
    mu = cmath.sqrt(complex(a * a - det))
    r1 = a + mu
    r2 = a - mu
    if abs((r1 - r2) * dt) > 1e-5:
        den = r1 - r2
        e1, e2 = cmath.exp(r1 * dt), cmath.exp(r2 * dt)
        ei1, ei2 = _expint(r1, dt), _expint(r2, dt)
        # f(M) = cm * M + ci * I with cm = (f1-f2)/(r1-r2), ci = (r1 f2 - r2 f1)/(r1-r2)
        pm, pi = (e1 - e2) / den, (r1 * e2 - r2 * e1) / den
        jm, ji = (ei1 - ei2) / den, (r1 * ei2 - r2 * ei1) / den
    else:
        # treat as a double eigenvalue r = a; then M = r I + N with N^2 = 0
        r = a
        er = cmath.exp(r * dt)
        i0 = _expint(r, dt)
        z = r * dt
        if abs(z) < 1e-4:
            # integral of s e^{r s}: dt^2 (1/2 + z/3 + z^2/8 + z^3/30 + ...)
            i1 = dt * dt * (0.5 + z * (1.0 / 3.0 + z * (0.125 + z / 30.0)))
        else:
            i1 = (dt * er - i0) / r
        pm, pi = er * dt, er * (1.0 - z)
        jm, ji = i1, i0 - r * i1
    phi_mat: Mat2 = (
        ((pm * m00 + pi).real, (pm * m01).real),
        ((pm * m10).real, (pm * m11 + pi).real),
    )
    j_mat: Mat2 = (
        ((jm * m00 + ji).real, (jm * m01).real),
        ((jm * m10).real, (jm * m11 + ji).real),
    )
    return phi_mat, j_mat


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
    """One frozen-phi observer step; returns (z1', z2').

    Integrates z~' = M z~ + M L x + b_z u over dt with x and u held at the
    given constants. The estimates are z~' + L x, back-transformed by the
    caller at the x it emits them for (see ``run_observer``).
    """
    M = observer_matrix(g, m, phi)
    ph, jj = zoh_discretize(M, dt)
    (p00, p01), (p10, p11) = ph
    (j00, j01), (j10, j11) = jj
    (a00, a01), (a10, a11) = M
    # forcing c = M L x + b_z u, held over the step
    c1 = (a00 * g.l1 + a01 * g.l2) * x_held + u / m
    c2 = (a10 * g.l1 + a11 * g.l2) * x_held
    z1n = p00 * z1 + p01 * z2 + j00 * c1 + j01 * c2
    z2n = p10 * z1 + p11 * z2 + j10 * c1 + j11 * c2
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
    x = measured.x.tolist()
    u = measured.u.tolist()
    l1, l2 = g.l1, g.l2
    s_scale, c_f, z_floor, deadband = fp.s_scale, fp.c_f, fp.z_floor, fp.deadband
    w2, w3, phi = np.empty(n), np.empty(n), np.empty(n)
    z1 = z2 = 0.0
    # replica of the presliding state: see friction.advance
    z = f_r = 0.0
    d = 0
    sat = False
    for k in range(n):
        phi_k = stiffness(z, f_r, d, sat, s_scale, c_f, z_floor) + sob
        x_k = x[k]
        if k:
            dx = x_k - x[k - 1]
            z1, z2 = observer_update(
                z1, z2, 0.5 * (x[k - 1] + x_k), u[k - 1], dt, g, m, phi_k
            )
        else:
            dx = 0.0
        w2_k = z1 + l1 * x_k
        w2[k] = w2_k
        w3[k] = z2 + l2 * x_k
        phi[k] = phi_k
        z, f_r, d, sat = advance(z, f_r, d, sat, dx, deadband_sign(w2_k, deadband),
                                 s_scale, z_floor)
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
        ms = np.mean(d * d)
    if ms == math.inf and np.isfinite(a).all() and np.isfinite(b).all():
        s = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))))
        d = a / s - b / s
        # a float product past the range is inf, with no numpy warning
        return s * math.sqrt(float(np.mean(d * d)))
    return float(np.sqrt(ms))


def e_obs_series(x_meas: np.ndarray, w2: np.ndarray, dt: float) -> np.ndarray:
    """Displacement-consistency error x - x(0) - integral of w2~.

    The integral is the rectangle-rule running sum of w2~ on its own grid,
    so it includes the current estimate.
    """
    x_meas = np.asarray(x_meas, dtype=float)
    return (x_meas - x_meas[0]) - np.cumsum(np.asarray(w2, dtype=float)) * dt
