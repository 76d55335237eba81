"""Energy-density construction, threshold expansion, and arc diagnostics."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from tailsurv import spectral
from tailsurv.errors import DomainError
from tailsurv.model import InitialState, WBPotential
from tailsurv.specfun import riccati_combos
from tailsurv.spectral import (SpectralDensity, _shifted_well, _work_block,
                               arc_density_magnitude)
from tailsurv.survival import spectral_mass

from conftest import REFERENCE_BETAS, make_density, make_potential


# ------------------------------------------------------------------ #
# construction and validation                                        #
# ------------------------------------------------------------------ #

def test_mismatched_initial_state_rejected():
    pot = make_potential(0.3)
    with pytest.raises(DomainError):
        SpectralDensity(pot, InitialState(r_a=2.5))


@pytest.mark.parametrize("beta", REFERENCE_BETAS)
def test_density_normalizes_to_unity(beta, density_for):
    # measured within 3.3e-13 of one
    assert spectral_mass(density_for(beta)) == pytest.approx(
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


@pytest.mark.parametrize("beta", (-0.4, 0.0, 0.3, 0.7, 1.0))
def test_density_kernel_call_matches_validated_combos(beta, monkeypatch):
    # omega and the Jost modulus validate k once and call the combinations'
    # kernel directly; the public, validating riccati_combos gives the same bits
    den = make_density(beta)
    rng = np.random.default_rng(3)
    e_real = np.concatenate((np.geomspace(1.0e-12, 4.0e4, 400), rng.uniform(0.01, 60.0, 400)))
    e_cplx = rng.uniform(0.01, 60.0, 400) * np.exp(-1j * rng.uniform(0.0, 0.5 * np.pi, 400))
    direct = [f(x) for x in (e_real, e_cplx) for f in (den.omega, den.jost_modulus_sq)]
    monkeypatch.setattr(spectral, "_combos",
                        lambda order, z, out=None: tuple(riccati_combos(order, z)))
    routed = [f(x) for x in (e_real, e_cplx) for f in (den.omega, den.jost_modulus_sq)]
    assert all(np.array_equal(a, b) for a, b in zip(direct, routed))


def _work_block_inputs(den):
    """Energies by route: series only (below vb), Hankel only, mixed across
    |k r_d| = 12.5, straddling E = vb, and the rotated axis E = -iu/t."""
    rng = np.random.default_rng(5)
    switch = (12.5 / den.pot.r_d) ** 2
    return {"series": rng.uniform(1.0e-8, 1.0, 700),
            "hankel": rng.uniform(20.0, 400.0, 700),
            "switch": rng.uniform(0.5 * switch, 2.0 * switch, 700),
            "barrier": rng.uniform(0.5 * den.pot.vb, 2.0 * den.pot.vb, 700),
            "rotated": -1j * np.geomspace(1.0e-9, 40.0, 912) / 50.0}


@pytest.mark.parametrize("beta", (-0.4, 0.0, 0.3, 1.0, 1.4999))
def test_density_work_block_gives_the_same_bits(beta):
    den = make_density(beta)
    blocks = {float: _work_block(1000), complex: _work_block(1000, complex)}
    for name, e in _work_block_inputs(den).items():
        block = blocks[complex if np.iscomplexobj(e) else float]
        # a block wider than the call, dirty from the previous call
        block.fill(np.nan)
        for _ in range(2):
            got = den.omega(e, work=block)
            assert np.array_equal(got, den.omega(e)), name
            assert not np.shares_memory(got, block), name
    # the energies may sit in the block's row 0
    e = blocks[float][0, :700]
    e[:] = _work_block_inputs(den)["switch"]
    assert np.array_equal(den.omega(e, work=blocks[float]), den.omega(e.copy()))


def test_density_rejects_a_work_block_that_does_not_fit():
    den = make_density(0.3)
    e = np.linspace(1.0, 30.0, 50)
    for block in (_work_block(49), _work_block(50, complex), _work_block(50)[1:]):
        with pytest.raises(DomainError, match="work"):
            den.omega(e, work=block)


@pytest.mark.parametrize("beta", (0.3, 1.0))
@pytest.mark.parametrize("lo, hi", ((1.0e-6, 1.0), (20.0, 85.0)))
def test_density_with_a_work_block_allocates_only_its_result(beta, lo, hi):
    # a chunk of the brute force: all series below vb, or all Hankel above
    # it; beyond its 256 KB result the call allocates only boolean masks
    # (a call split at the switch or at vb also copies out its two parts)
    den = make_density(beta)
    e = np.linspace(lo, hi, 32768)
    block = _work_block(e.size)
    den.omega(e, work=block)
    tracemalloc.start()
    try:
        got = den.omega(e, work=block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= got.nbytes + 3 * e.size


@pytest.mark.parametrize("beta", (0.3, 0.7))
def test_density_is_independent_of_call_split_across_barrier_top(beta, density_for):
    # vb = 16 lies above |k r_d| = 12.5 (E = 13.5), so pieces cut at the
    # switch and at vb keep every series element's call partners: each piece
    # takes the one-signed barrier route, the whole call the split one
    den = density_for(beta, vb=16.0)
    e = np.sort(np.append(np.geomspace(0.5, 60.0, 301), 16.0))
    whole = den.omega(e)
    cuts = np.searchsorted(e, [(12.5 / den.pot.r_d) ** 2, 16.0])
    assert np.array_equal(np.concatenate([den.omega(p) for p in np.split(e, cuts)]), whole)


@pytest.mark.parametrize("ray", (1.0, np.exp(-0.3j)), ids=("real", "ray"))
def test_density_is_smooth_through_its_removable_points(ray, density_for):
    # E = vb (zero barrier momentum) and k_I = k_a (zero shifted well
    # phase) exactly, approached at +-1e-7 along the real axis or a ray
    den = density_for(0.3)
    k_a = den.init.k_a
    e_a = k_a * k_a - den.pot.v0
    assert np.sqrt(e_a + den.pot.v0) == k_a
    for e0 in (den.pot.vb, e_a):
        vals = den.omega(e0 + np.array([-1.0e-7, 0.0, 1.0e-7]) * ray)
        assert np.all(np.isfinite(vals))
        assert np.max(np.abs(vals[[0, 2]] / vals[1] - 1.0)) <= 1.0e-6


def test_density_at_its_removable_points_equals_the_limit(density_for):
    # E = vb (zero barrier momentum) and E = k_a^2 - v0 (zero shifted well
    # phase) take the masked quotients, alone or among other energies; the
    # mean of the neighbours at +-1e-6 is the limit to O(1e-12)
    den = density_for(0.3)
    k_a = den.init.k_a
    for e0 in (den.pot.vb, k_a * k_a - den.pot.v0):
        vals = den.omega(e0 + np.array([-1.0e-6, 0.0, 1.0e-6]))
        limit = 0.5 * (vals[0] + vals[2])
        for got in (vals[1], den.omega(e0)):
            assert abs(got / limit - 1.0) <= 1.0e-10


def test_long_barrier_straddling_vb_warns_nothing():
    # the mixed-sign barrier pair evaluates cosh and sinh at every energy,
    # and they overflow above vb on a long barrier, where they are discarded
    pot = WBPotential(v0=0.5, vb=1.8, r_a=0.5, r_d=20.0, beta=0.3)
    den = SpectralDensity(pot, InitialState.from_potential(pot))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = den.omega(np.geomspace(1.0e-3, 4.0e4, 2000))
    assert np.all(np.isfinite(vals)) and np.all(vals > 0.0)


@pytest.mark.parametrize("n_a", (1, 2))
@pytest.mark.parametrize("ray", (1.0, np.exp(-0.25j)), ids=("real", "ray"))
def test_mode_overlap_factor_is_continuous_through_its_removable_point(n_a, ray):
    # sin(k_I r_a) / (k_a^2 - k_I^2) -> (-1)^(n_a+1) r_a / (2 k_a) as
    # k_I -> k_a, approached from either side of |k_I - k_a| = 1e-6
    r_a = 3.0
    k_a = n_a * math.pi / r_a
    limit = (-1.0) ** (n_a + 1) * r_a / (2.0 * k_a)
    d = np.array([-1.01e-6, -0.99e-6, 0.0, 0.99e-6, 1.01e-6]) * ray
    got = _shifted_well(k_a + d, k_a, n_a)[2]
    assert got[2] == pytest.approx(limit, rel=1.0e-15)
    assert np.max(np.abs(got / limit - 1.0)) <= 1.0e-6
    far = k_a + 0.3 * ray
    assert _shifted_well(np.asarray([far]), k_a, n_a)[2][0] == pytest.approx(
        np.sin(far * r_a) / (k_a ** 2 - far ** 2), rel=1.0e-13)


def test_density_rejects_nonpositive_real_energy(density_for):
    # the threshold refinement shares the density's input check
    den = density_for(0.3)
    for fn in (den.omega, den.threshold_pade_omega):
        for bad in (0.0, -0.5, 0j, np.nan, np.array([1.0, np.inf])):
            with pytest.raises(DomainError):
                fn(bad)


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
    series = th.series(6)
    # first expansion coefficient is the leading scale itself, the second
    # its product with -a, the first ratio of the refinement
    assert series[0] == th.density_scale
    assert series[1] == pytest.approx(-th.density_scale * th.ratios[0], rel=1.0e-12)
    # the six coefficients the record stored before it kept only (a, b)
    stored = (0.7215643015687653, 1.035522577764214, 1.0753423351784472,
              0.9537699541474215, 0.7566334267720677, 0.5429252769366076)
    assert np.max(np.abs(np.array(series) / stored - 1.0)) <= 1.0e-14


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
    assert th.ratios is None
    assert th.density_scale > 0.0 and th.jost_scale > 0.0
    assert th.series(1) == (th.density_scale,)
    with pytest.raises(DomainError):
        th.series(2)


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
