"""Energy-density construction, threshold expansion, and arc diagnostics."""

import math

import numpy as np
import pytest

from tailsurv.errors import DomainError
from tailsurv.model import InitialState, WBPotential
from tailsurv.spectral import SpectralDensity, arc_density_magnitude

from conftest import REFERENCE_BETAS, make_density, make_potential


# ------------------------------------------------------------------ #
# construction and validation                                        #
# ------------------------------------------------------------------ #

def test_mismatched_initial_state_rejected():
    pot = make_potential(0.3)
    with pytest.raises(DomainError):
        SpectralDensity(pot, InitialState(r_a=2.5))


def test_series_depth_validated():
    pot = make_potential(0.3)
    with pytest.raises(DomainError):
        SpectralDensity(pot, InitialState.from_potential(pot), n_series=0)


@pytest.mark.parametrize("beta", REFERENCE_BETAS)
def test_density_normalizes_to_unity(beta, density_for):
    # measured within 3.3e-13 of one
    assert density_for(beta).normalization_integral() == pytest.approx(
        1.0, abs=1.0e-12)


# ------------------------------------------------------------------ #
# real-axis density                                                  #
# ------------------------------------------------------------------ #

def test_density_nonnegative_and_vectorized(density_for):
    den = density_for(0.3)
    e = np.geomspace(1.0e-4, 12.0, 200)
    w = den.omega(e)
    assert w.shape == e.shape
    assert np.all(w >= 0.0)
    assert den.omega(0.25) == pytest.approx(w[np.searchsorted(e, 0.25)],
                                            rel=1.0)  # same order of magnitude
    assert isinstance(den.omega(0.25), float)


@pytest.mark.parametrize("beta", (0.3, 0.7))
def test_density_above_switch_is_independent_of_call_split(beta, density_for):
    # |k r_d| >= 12.5 takes the Hankel-product series, whose term count is
    # fixed per order, so each value is the same whatever shares its call
    den = density_for(beta)
    z = np.linspace(12.6, 60.0, 301)
    for e in ((z / den.pot.r_d) ** 2, (z * np.exp(-0.3j) / den.pot.r_d) ** 2):
        whole = den.omega(e)
        assert np.array_equal(np.concatenate((den.omega(e[:7]), den.omega(e[7:]))), whole)
        assert np.array_equal(den.omega(e[::-1]), whole[::-1])
        # one energy below the switch in the call leaves the others alone
        assert np.array_equal(den.omega(np.concatenate((e[:1] / 4.0, e)))[1:], whole)


def test_density_rejects_nonpositive_real_energy(density_for):
    den = density_for(0.3)
    with pytest.raises(DomainError):
        den.omega(0.0)
    with pytest.raises(DomainError):
        den.omega(-0.5)


@pytest.mark.parametrize("beta,slope", ((0.3, 0.8), (0.7, 1.2), (1.0, 1.5)))
def test_threshold_power_law_exponent(beta, slope, density_for):
    # log-slope of omega near E = 0 approaches beta + 1/2
    den = density_for(beta)
    e_lo, e_hi = 1.0e-7, 1.0e-6
    measured = (math.log(den.omega(e_hi)) - math.log(den.omega(e_lo))) \
        / math.log(e_hi / e_lo)
    assert measured == pytest.approx(slope, rel=1.0e-2)


def test_attractive_tail_threshold_vanishes_with_steep_slope(density_for):
    # for -1/2 < beta < 0 the density still vanishes at threshold, but
    # its derivative grows without bound as E -> 0
    den = density_for(-0.4)
    w4, w6, w8 = den.omega(1.0e-4), den.omega(1.0e-6), den.omega(1.0e-8)
    assert w4 > w6 > w8 > 0.0
    assert w4 == pytest.approx(0.5548, rel=1.0e-3)
    assert w8 == pytest.approx(0.1453, rel=1.0e-3)
    slope_fine = (den.omega(2.0e-8) - w8) / 1.0e-8
    slope_coarse = (den.omega(2.0e-6) - w6) / 1.0e-6
    assert slope_fine > 10.0 * slope_coarse > 0.0


def test_resonance_peak_grows_with_tail_exponent(density_for):
    e = np.linspace(0.02, 0.2, 1801)
    peaks = {}
    for beta in REFERENCE_BETAS:
        w = density_for(beta).omega(e)
        peaks[beta] = (float(np.max(w)), float(e[np.argmax(w)]))
    heights = [peaks[b][0] for b in sorted(peaks)]
    assert heights == sorted(heights)
    assert peaks[-0.4][0] == pytest.approx(3.798192, rel=1.0e-4)
    assert peaks[0.7][0] == pytest.approx(6.094160, rel=1.0e-4)
    # peak positions drift upward as well
    positions = [peaks[b][1] for b in sorted(peaks)]
    assert positions == sorted(positions)


def test_lower_half_plane_continuation_is_continuous(density_for):
    den = density_for(0.3)
    on_axis = den.omega(0.3)
    just_below = den.omega(0.3 - 1.0e-9j)
    assert abs(just_below - on_axis) < 1.0e-8


# Continued density at beta = 0.3 (reference geometry), frozen from
# 40-digit mpmath: J and Y Bessel products, closed-form well and barrier.
_CONTINUED_REFERENCE = {
    2.0 - 2.0j: 0.01887269855818114 - 0.008043421510406733j,    # |z| = 5.7
    -3.0j: 0.0021225129799887733 + 0.00883097498203496j,        # |z| = 5.9
    -19.5j: 0.00010420022635215565 - 9.283929229362441e-06j,    # |z| = 15.0
    -40.0j: 5.549981673604064e-06 - 1.1776453847349071e-05j,    # |z| = 21.5
}


def _continued_rel_errors(den, energies):
    e = np.asarray(energies, dtype=complex)
    ref = np.asarray([_CONTINUED_REFERENCE[x] for x in energies])
    return np.abs(den.omega(e) / ref - 1.0)


def test_continuation_matches_mpmath_at_moderate_argument(density_for):
    assert np.all(_continued_rel_errors(density_for(0.3), [2.0 - 2.0j, -3.0j])
                  <= 1.0e-11)


def test_continuation_matches_mpmath_on_the_rotated_axis(density_for):
    assert np.all(_continued_rel_errors(density_for(0.3), [-19.5j, -40.0j])
                  <= 1.0e-10)


# ------------------------------------------------------------------ #
# Jost modulus                                                       #
# ------------------------------------------------------------------ #

def test_free_jost_modulus_is_unity():
    den = make_density(0.0, v0=0.0, vb=0.0)
    for k in (0.5, 1.0, 2.5):
        assert den.jost_modulus_sq(k) == pytest.approx(1.0, rel=1.0e-12)
    assert den.threshold.jost_scale == pytest.approx(1.0, rel=1.0e-12)


def test_jost_modulus_domain_checks(density_for):
    den = density_for(0.3)
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(DomainError):
            den.jost_modulus_sq(bad)
    arr = den.jost_modulus_sq(np.array([0.5, 1.0]))
    assert arr.shape == (2,)
    assert arr[0] == den.jost_modulus_sq(0.5)


@pytest.mark.parametrize("beta,dev", ((-0.1, 0.003831), (0.3, 0.006901),
                                      (0.7, 0.004788)))
def test_jost_scale_reached_within_two_percent_by_k_002(beta, dev, density_for):
    den = density_for(beta)
    scale = den.threshold.jost_scale
    k = 0.02
    measured = abs(math.sqrt(den.jost_modulus_sq(k)) * k**beta / scale - 1.0)
    assert measured == pytest.approx(dev, rel=5.0e-2)
    assert measured <= 0.02


@pytest.mark.parametrize("beta", (-0.4, -0.1, 0.3, 0.7))
@pytest.mark.xfail(strict=True,
                   reason="the limiting scale is approached only like a "
                          "slow sub-integer power of k; at k = 0.05 the "
                          "residual deviation is 2.2-39.6 percent across "
                          "the reference tails, above the quoted 2 "
                          "percent; see CHANGES.md")
def test_jost_scale_reached_within_two_percent_by_k_005(beta, density_for):
    den = density_for(beta)
    scale = den.threshold.jost_scale
    k = 0.05
    measured = abs(math.sqrt(den.jost_modulus_sq(k)) * k**beta / scale - 1.0)
    assert measured <= 0.02


def test_attractive_jost_deviation_decays_like_fractional_power(density_for):
    # for beta = -0.4 the approach to the limiting scale goes as
    # k^{2 beta + 1} = k^{0.2}: one decade in k shrinks the deviation
    # by 10^{-0.2} ~ 0.631
    den = density_for(-0.4)
    scale = den.threshold.jost_scale
    devs = [abs(math.sqrt(den.jost_modulus_sq(k)) * k**-0.4 / scale - 1.0)
            for k in (1.0e-2, 1.0e-3, 1.0e-4, 1.0e-5)]
    for lo, hi in zip(devs[1:], devs[:-1]):
        assert 0.60 <= lo / hi <= 0.66


# ------------------------------------------------------------------ #
# threshold coefficients                                             #
# ------------------------------------------------------------------ #

def test_threshold_coefficient_identities(density_for):
    th = density_for(-0.4).threshold
    assert th.beta == -0.4
    assert th.nu == pytest.approx(0.1, rel=1.0e-14)
    assert th.jost_scale > 0.0 and th.density_scale > 0.0
    series = th.require_series()
    # first expansion coefficient is the leading scale itself
    assert series[0] == th.density_scale
    # second follows from the ratio of the down and mid combination
    # weights
    assert series[1] == pytest.approx(
        -th.density_scale * th.coeff_mid / th.coeff_down, rel=1.0e-12)
    assert th.density_scale == pytest.approx(0.7215643016, rel=1.0e-9)
    assert series[1] == pytest.approx(1.0355225778, rel=1.0e-9)


def test_density_scale_matches_threshold_law(density_for):
    # omega(E) ~ density_scale * E^{beta + 1/2} near threshold
    for beta, tol in ((0.3, 1.0e-3), (0.7, 1.0e-3)):
        den = density_for(beta)
        e = 1.0e-6
        ratio = den.omega(e) / (den.threshold.density_scale * e**(beta + 0.5))
        assert ratio == pytest.approx(1.0, abs=tol)


def test_integer_order_degeneracy_blocks_series():
    # beta = 1/2 puts the two Riccati branches at integer separation;
    # the subleading expansion degenerates and is withheld
    den = make_density(0.5)
    th = den.threshold
    assert th.density_series is None
    assert th.density_scale > 0.0 and th.jost_scale > 0.0
    with pytest.raises(DomainError):
        th.require_series()


def test_phase_shift_diagnostic_is_finite(density_for):
    den = density_for(0.3)
    for k in (0.3, 1.0, 2.5):
        delta = den.phase_shift(k)
        assert isinstance(delta, float) and math.isfinite(delta)


# ------------------------------------------------------------------ #
# arc diagnostic                                                     #
# ------------------------------------------------------------------ #

def test_arc_magnitude_decreases_along_ray():
    pot = make_potential(0.7)
    init = InitialState.from_potential(pot)
    vals = [arc_density_magnitude(pot, init, radius, -math.pi / 8.0)
            for radius in (50.0, 100.0, 200.0, 400.0)]
    assert all(hi > lo for hi, lo in zip(vals, vals[1:]))


def test_arc_magnitude_validation():
    pot = make_potential(0.3)
    init = InitialState.from_potential(pot)
    with pytest.raises(DomainError):
        arc_density_magnitude(pot, init, 2.0, -math.pi / 8.0)  # |k r_d| < 10
    with pytest.raises(DomainError):
        arc_density_magnitude(pot, init, -5.0, -math.pi / 8.0)
    for angle in (0.0, -math.pi / 4.0, 0.3):
        with pytest.raises(DomainError):
            arc_density_magnitude(pot, init, 200.0, angle)


def test_arc_magnitude_converges_toward_real_axis():
    # at fixed radius the magnitude approaches a finite limit as the ray
    # rotates up to the real axis, and the tail exponent no longer
    # matters at such large momenta
    vals = {}
    for beta in (0.0, 0.7):
        pot = make_potential(beta)
        init = InitialState.from_potential(pot)
        vals[beta] = (arc_density_magnitude(pot, init, 200.0, -1.0e-5),
                      arc_density_magnitude(pot, init, 200.0, -1.0e-6))
    for beta, (v5, v6) in vals.items():
        assert 1.0 <= v5 / v6 <= 1.05
        assert v6 < 200.0**2
    assert vals[0.0][1] == pytest.approx(vals[0.7][1], rel=1.0e-4)
