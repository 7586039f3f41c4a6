"""Gain design and robustness checks against independent root-finding."""

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from frictionobs import ObserverGains, design_gains, validate_robust

M = 0.052


def error_poles(g, m, phi, sob):
    """numpy's roots of the error polynomial lam^2 + l1 lam + (sob + phi - l2)/m, fast first."""
    return np.sort_complex(np.roots([1.0, g.l1, (sob + phi - g.l2) / m]))


def test_design_reference_pair_exact():
    g = design_gains((-350.0, -10.0), M)
    assert g.l1 == 360.0
    assert g.l2 == -182.0  # 0.052 * 3500 is exact in binary


def test_design_with_coupling_shift():
    g = design_gains((-650.0, -60.0), M, sob=56.25)
    assert g.l1 == 710.0
    assert g.l2 == 56.25 - 0.052 * 39000.0


def test_design_example_pairs():
    g = design_gains((-1.0, -1.0), 1.0)
    assert (g.l1, g.l2) == (2.0, -1.0)
    g = design_gains((-350.0, -10.0), M, sob=50.0)
    assert (g.l1, g.l2) == (360.0, -132.0)


def test_cond_a_reports_nonpositive_l1():
    rep = validate_robust(ObserverGains(-1.0, 0.0), 1.0, 0.0, 0.0)
    assert not rep.cond_a
    assert not rep.passed


def test_design_validation():
    for poles in ((-350.0, 10.0), (0.0, -10.0), (complex(-3, 1), -10.0), (-math.inf, -1.0)):
        with pytest.raises(ValueError):
            design_gains(poles, M)
    for m in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"m must be finite and > 0, got {m!r}"):
            design_gains((-350.0, -10.0), m)
        with pytest.raises(ValueError, match=f"m must be finite and > 0, got {m!r}"):
            validate_robust(ObserverGains(360.0, -182.0), m, 0.0, 0.0)
    for gains in ((math.nan, -182.0), (360.0, math.inf)):
        with pytest.raises(ValueError, match="gains must be finite"):
            ObserverGains(*gains)
    for sob in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"sob must be finite, got {sob!r}"):
            design_gains((-350.0, -10.0), M, sob)


def test_placed_poles_recovered():
    for poles in ((-350.0, -10.0), (-800.0, -25.0), (-90.0, -80.0)):
        for sob in (0.0, 40.0):
            g = design_gains(poles, M, sob)
            lam = error_poles(g, M, 0.0, sob)
            got = sorted((lam[0].real, lam[1].real))
            assert got == pytest.approx(sorted(poles), rel=1e-12)
            assert lam[0].imag == 0.0 and lam[1].imag == 0.0


def test_cond_b_thresholds_frozen():
    g = ObserverGains(l1=360.0, l2=-182.0)
    # threshold 2*sqrt((kappa + sob - l2)/m) frozen from independent evaluation
    r0 = validate_robust(g, M, 0.0, 0.0)
    assert 2.0 * math.sqrt((0.0 + 0.0 + 182.0) / M) == pytest.approx(
        118.32159566199232, rel=0, abs=1e-9
    )
    assert r0.cond_b and r0.passed
    r1 = validate_robust(g, M, 0.0, 2000.0)
    assert 2.0 * math.sqrt((2000.0 + 0.0 + 182.0) / M) == pytest.approx(
        409.690314562297, rel=0, abs=1e-9
    )
    assert not r1.cond_b and not r1.passed
    assert r1.worst_discriminant < 0.0 < r0.worst_discriminant


def test_cond_stab_requires_l2_below_sob():
    g = ObserverGains(l1=500.0, l2=10.0)
    assert not validate_robust(g, M, 5.0, 0.0).cond_stab
    assert validate_robust(g, M, 15.0, 0.0).cond_stab


def test_pole_ranges_cover_sweep():
    g = design_gains((-650.0, -60.0), M)
    rep = validate_robust(g, M, 0.0, 1000.0)
    assert rep.passed
    lo1, hi1 = rep.lam1_range
    lo2, hi2 = rep.lam2_range
    # fast pole first: its interval sits left of the slow one
    assert lo1 <= hi1 <= lo2 <= hi2 < 0.0
    # rising phi pulls the pair together: fast pole tops out at phi = kappa,
    # slow pole bottoms out there
    l0 = error_poles(g, M, 0.0, 0.0)
    lk = error_poles(g, M, 1000.0, 0.0)
    assert lo1 == pytest.approx(l0[0].real, rel=1e-12)
    assert hi1 == pytest.approx(lk[0].real, rel=1e-12)
    assert lo2 == pytest.approx(lk[1].real, rel=1e-12)
    assert hi2 == pytest.approx(l0[1].real, rel=1e-12)


def test_randomized_condition_logic():
    # constructed gains on either side of the realness bound behave as
    # validate_robust claims, judged by numpy roots over a phi sweep
    rng = np.random.default_rng(5)
    for _ in range(200):
        m = rng.uniform(0.01, 1.0)
        sob = rng.uniform(0.0, 100.0)
        kappa = rng.uniform(0.0, 1e5)
        l2 = sob - 10.0 ** rng.uniform(-2, 2)
        bound = 2.0 * math.sqrt((kappa + sob - l2) / m)
        ok = bool(rng.integers(0, 2))
        l1 = bound * (1.0 + 10.0 ** rng.uniform(-3, 1)) if ok else bound * rng.uniform(0.2, 0.999)
        g = ObserverGains(l1=l1, l2=l2)
        rep = validate_robust(g, m, sob, kappa)
        assert rep.cond_a and rep.cond_stab
        assert rep.cond_b == ok
        phis = np.linspace(0.0, kappa, 25)
        roots = [np.roots([1.0, g.l1, (sob + p - g.l2) / m]) for p in phis]
        if ok:
            assert rep.passed
            for r in roots:
                assert np.all(np.abs(r.imag) <= 1e-9 * np.abs(r.real))
                assert np.all(r.real < 0.0)
        else:
            # realness fails at the stiff end: the phi = kappa pair is complex
            assert np.any(np.abs(roots[-1].imag) > 0.0)


def test_gap_threshold_equivalence():
    # for designed gains cond_b reduces to |lam1 - lam2| > 2*sqrt(kappa/m)
    for m, kappa, sob in ((0.052, 2000.0, 0.0), (0.3, 500.0, 25.0), (0.052, 7895.1, 56.25)):
        thresh = 2.0 * math.sqrt(kappa / m)
        lam_slow = -10.0
        for gap in np.linspace(0.1 * thresh, 3.0 * thresh, 41):
            if abs(gap - thresh) < 1e-9 * thresh:
                continue
            g = design_gains((lam_slow - gap, lam_slow), m, sob)
            rep = validate_robust(g, m, sob, kappa)
            assert rep.cond_b == (gap > thresh), (m, kappa, sob, gap)


def test_discriminant_monotone_in_gap():
    discs = []
    for gap in np.linspace(50.0, 2000.0, 30):
        g = design_gains((-10.0 - gap, -10.0), M, 0.0)
        discs.append(validate_robust(g, M, 0.0, 3000.0).worst_discriminant)
    assert np.all(np.diff(discs) > 0)


def test_pole_ranges_for_a_subnormal_m():
    # (l2 - sob)/m is formed before it is scaled by 4: 4/m overflows here
    m = 1e-320
    rep = validate_robust(design_gains((-350.0, -10.0), m), m, 0.0, 0.0)
    assert rep.lam1_range == (-350.0, -350.0)
    assert rep.lam2_range == (-10.0, -10.0)
    assert rep.worst_discriminant == 340.0**2


@given(
    m=st.floats(1e-3, 1e3),
    sob=st.floats(0.0, 1e6),
    kappa=st.floats(0.0, 1e6),
    gap=st.floats(1e-6, 1e6),
    margin=st.floats(1e-6, 1e3),
)
def test_certified_gains_are_a_placed_real_pair(m, sob, kappa, gap, margin):
    # gains that pass validate_robust have real, negative poles at phi = sob,
    # and placing those poles gives the same gains back
    l2 = sob - gap
    l1 = 2.0 * math.sqrt((kappa + sob - l2) / m) * (1.0 + margin)
    g = ObserverGains(l1, l2)
    assume(validate_robust(g, m, sob, kappa).passed)
    # roots of lam^2 + l1 lam + (sob - l2)/m without cancellation: the fast
    # one from the quadratic formula, the slow one from the product
    disc = l1 * l1 + 4.0 * ((l2 - sob) / m)
    assert disc > 0.0
    lam1 = -0.5 * (l1 + math.sqrt(disc))
    lam2 = ((sob - l2) / m) / lam1
    assert lam1 < 0.0 and lam2 < 0.0
    back = design_gains((lam1, lam2), m, sob)
    # a relative 1e-13 (about 450 ulp); l2 is compared as l2 - sob, the
    # placed product -m lam1 lam2, which a near-zero l2 leaves well scaled
    assert back.l1 == pytest.approx(l1, rel=1e-13, abs=0)
    assert back.l2 - sob == pytest.approx(l2 - sob, rel=1e-13, abs=0)
