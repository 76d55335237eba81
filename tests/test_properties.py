"""Properties that must hold for any valid potential, not only the reference tails.

Every test here draws from one strategy of well-barrier potentials with
an inverse-square tail; draws that fail validation (bound states,
geometry) are discarded with `assume`.  The examples are derandomized
by the profile in conftest.py, so every run checks the same potentials.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as st

from tailsurv import (InitialState, SpectralDensity, WBPotential, spectral_mass, survival_exact,
                      survival_laplace_axis)
from tailsurv.errors import ConfigError, DomainError, ToleranceError
from tailsurv.oracle import oracle_match_coefficients, oracle_survival_bruteforce
from tailsurv.survival import (_GL_W, _GL_X, _LAPLACE_U, _LAPLACE_W, _PHASE_SWITCH,
                               _PanelTable, _build_table, _table_amplitudes)

from conftest import reference_amplitude, reference_table, zero_energy_boundary_gap


@st.composite
def valid_potentials(draw) -> WBPotential:
    """v0, vb in [0, 3], r_a in [0.5, 4], r_d - r_a in [0.1, 2], beta in (-0.49, 1.5)."""
    v0 = draw(st.floats(0.0, 3.0))
    vb = draw(st.floats(0.0, 3.0))
    r_a = draw(st.floats(0.5, 4.0))
    width = draw(st.floats(0.1, 2.0))
    beta = draw(st.floats(-0.49, 1.5, exclude_min=True, exclude_max=True))
    try:
        return WBPotential(v0=v0, vb=vb, r_a=r_a, r_d=r_a + width, beta=beta)
    except ConfigError:
        assume(False)


@settings(max_examples=50)
@given(pot=valid_potentials())
def test_zero_energy_boundary_matches_the_array_kernel(pot):
    # validation's scalar closed form against regular_boundary_sq(pot, 0.0)
    assert max(zero_energy_boundary_gap(pot)) <= 1.0e-14


@settings(max_examples=50)
@given(pot=valid_potentials(), n_a=st.sampled_from((1, 2)))
@example(pot=WBPotential(v0=0.0, vb=1.0, r_a=1.0, r_d=2.0, beta=0.3), n_a=1)
@example(pot=WBPotential(v0=0.0, vb=1.0, r_a=1.0, r_d=2.0, beta=0.3), n_a=2)
@example(pot=WBPotential(v0=0.5, vb=1.8, r_a=3.0, r_d=3.4, beta=0.3), n_a=1)
# a shallow well: g0 through the shifted phase d = (k - k_a) r_a ~ -pi was off
# by eps pi / (k r_a), 2.6e-6 relative here
@example(pot=WBPotential(v0=1.0e-20, vb=0.0, r_a=1.0, r_d=2.0, beta=0.0), n_a=1)
def test_threshold_well_factor_matches_mpmath(pot, n_a):
    # density_scale = 2 k_a^2 / (pi r_a) g0^2 / jost_scale^2 with the zero-energy
    # well factor g0 = sin(k r_a) / k / (k_a^2 - v0), k = sqrt(v0), r_a at v0 = 0
    init = InitialState.from_potential(pot, n_a=n_a)
    try:
        th = SpectralDensity(pot, init).threshold
    except DomainError:   # degenerate threshold, refused for any n_a
        assume(False)
    got = th.density_scale * th.jost_scale ** 2 / (2.0 * init.k_a ** 2 / (math.pi * pot.r_a))
    with mpmath.workdps(40):
        v0, r_a = mpmath.mpf(pot.v0), mpmath.mpf(pot.r_a)
        k = mpmath.sqrt(v0)
        sinc = mpmath.sin(k * r_a) / k if v0 > 0 else r_a
        want = (sinc / ((n_a * mpmath.pi / r_a) ** 2 - v0)) ** 2
        assert abs(got / want - 1) <= 1.0e-13


@settings(max_examples=10)
@given(pot=valid_potentials())
# structure near threshold: the fractional Richardson threshold sum refused
# it (estimates 2.0e-7 apart); mapped, it agrees with exact within 7e-11
@example(pot=WBPotential(v0=2.5, vb=3.0, r_a=1.5, r_d=3.5, beta=1.375))
def test_exact_survival_matches_brute_force(pot):
    density = SpectralDensity(pot, InitialState.from_potential(pot))
    times = np.array([60.0, 200.0])
    exact = survival_exact(density, times).probability
    brute = oracle_survival_bruteforce(density, times)
    assert np.all(np.abs(exact - brute) <= 1.0e-8)
    assert np.all(exact <= 1.0) and np.all(brute <= 1.0)


@pytest.mark.xfail(strict=True, reason=(
    "spectral_mass misses 1 by up to 2.5e-9 on narrow wells: in 300 valid "
    "uniform draws of this strategy's ranges (numpy seed 7) 77 missed 1e-10, "
    "all with r_a <= 0.914, and every pass had r_a >= 0.900; the explicit "
    "example reads mass - 1 = -2.38e-9"))
@settings(max_examples=10, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@example(pot=WBPotential(v0=0.6018201719609856, vb=1.1086089318066201,
                         r_a=0.5130698471822659, r_d=2.1901605338055825,
                         beta=-0.1826224486877347))
@given(pot=valid_potentials())
def test_density_is_normalized(pot):
    density = SpectralDensity(pot, InitialState.from_potential(pot))
    assert abs(spectral_mass(density) - 1.0) <= 1.0e-10


@settings(max_examples=10)
@given(pot=valid_potentials())
def test_density_and_jost_modulus_match_the_ode_oracle(pot):
    # (a, b) of a j_hat + b n_hat from RK4 and a linear solve give C^2 = a^2 + b^2
    init = InitialState.from_potential(pot)
    density = SpectralDensity(pot, init)
    k_a = init.k_a
    e = np.array([0.3, 1.7, 5.0])
    k_i = np.sqrt(e + pot.v0)
    keep = np.abs(k_i - k_a) * pot.r_a > 1.0e-2  # away from the removable point
    assert keep.sum() >= 2
    for energy, kk_i in zip(e[keep], k_i[keep]):
        k = math.sqrt(energy)
        a, b = oracle_match_coefficients(pot, k)
        c_sq = a * a + b * b
        overlap = math.sin(kk_i * pot.r_a) / (k_a ** 2 - kk_i ** 2)
        want = 2.0 * k_a ** 2 / (math.pi * pot.r_a) * overlap ** 2 / (kk_i ** 2 * k * c_sq)
        assert abs(density.omega(energy) / want - 1.0) <= 1.0e-8
        assert abs(density.jost_modulus_sq(k) / (k * k * c_sq) - 1.0) <= 1.0e-8


@settings(max_examples=50)
@given(vals=st.lists(st.floats(-1.0, 1.0), min_size=16, max_size=16),
       theta=st.lists(st.floats(1.0e-6, _PHASE_SWITCH), min_size=1, max_size=40),
       log2_half=st.integers(-10, 6))
def test_half_angle_gauss_sums_match_mpmath(vals, theta, log2_half):
    # one panel [-half, half] with random node values, at phase turns
    # t half = theta up to the switch (exact, as half is a power of 2):
    # every pair takes the half-angle Gauss sum, against the same sum in
    # mpmath (theta >= 1e-6 keeps the zero tail term's 1/t powers finite)
    half = 2.0 ** log2_half
    vals = np.array(vals)
    table = _PanelTable(mid=np.zeros(1), half=np.array([half]), vals=vals[None, :],
                        coef=np.zeros((1, 16)), resid=np.zeros(1), depth=np.zeros(1, int),
                        r_a=1.0, e_max=1.0, sub_mass=0.0, n_evals=0)
    theta = np.array(theta)
    amps, _, n_small = _table_amplitudes(table, theta / half)
    # up to theta = 1 the whole panel has |E t| <= 1: the moment series sums it
    assert n_small == np.count_nonzero(theta > 1.0)
    bound = 4.0 * np.finfo(float).eps * half * np.sum(np.abs(_GL_W * vals))
    with mpmath.workdps(30):
        for amp, th in zip(amps, theta):
            ref = half * mpmath.fsum(mpmath.mpf(w) * v * mpmath.expj(-mpmath.mpf(th) * x)
                                     for w, v, x in zip(_GL_W, vals, _GL_X))
            assert abs(amp - complex(ref)) <= bound


# no shrinking: each example costs ~0.1 s of mpmath quadrature, and a
# shrink of a failing one ran for minutes
@settings(max_examples=10, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(coef=st.lists(st.floats(-1.0, 1.0), min_size=16, max_size=16),
       log_theta=st.floats(1.0, 4.0, exclude_min=True), log2_half=st.integers(-10, 6))
def test_closed_form_panel_matches_mpmath_quadrature(coef, log_theta, log2_half):
    # one panel [-half, half] holding a degree-15 polynomial, drawn in
    # monomials and tabulated in Chebyshev form, at times with t half =
    # theta in (10, 1e4] (exact, as half is a power of 2); just above the
    # switch the high-order terms weigh most.  A zero panel above it, the
    # table's one unbisected top, makes the tail by parts zero.
    half = 2.0 ** log2_half
    cheb = np.zeros((2, 16))
    lead = np.polynomial.chebyshev.poly2cheb(coef)   # trailing zeros trimmed
    cheb[0, :lead.size] = lead
    table = _PanelTable(mid=np.array([0.0, 2.0 * half]), half=np.full(2, half),
                        vals=np.zeros((2, 16)), coef=cheb, resid=np.zeros(2),
                        depth=np.array([1, 0]), r_a=1.0, e_max=3.0 * half,
                        sub_mass=0.0, n_evals=0)
    theta = np.array([10.25, 10.0 ** log_theta])
    amps, _, n_small = _table_amplitudes(table, theta / half)
    assert n_small == 0
    # the integrand is entire, so [-1, 1] is deformed onto the legs
    # s = +-1 - i y, where it decays like e^{-theta y} instead of oscillating
    poly = coef[::-1]
    with mpmath.workdps(20):
        for amp, th in zip(amps, theta):
            def leg(end, th=th):
                return mpmath.quad(lambda y: mpmath.polyval(poly, end - 1j * y)
                                   * mpmath.exp(-th * y), [0, 100 / th])
            ref = 1j * half * (mpmath.expj(-th) * leg(1) - mpmath.expj(th) * leg(-1))
            assert abs(amp - complex(ref)) <= 16 * np.finfo(float).eps * half * np.sum(np.abs(coef))


@settings(max_examples=10)
@given(pot=valid_potentials(),
       log_t=st.lists(st.floats(-1.0, math.log10(2000.0)), min_size=1, max_size=40))
def test_batched_amplitudes_match_per_time_reference(pot, log_t):
    density = SpectralDensity(pot, InitialState.from_potential(pot))
    table = _build_table(density.omega, pot.r_a, 2500.0)
    t = 10.0 ** np.array(log_t)
    amps, parts, _ = _table_amplitudes(table, t)
    ref = [reference_amplitude(table, x) for x in t]
    assert np.max(np.abs(amps - [a for a, _ in ref])) <= 1.0e-14
    assert np.allclose(parts.sum(axis=1), [e for _, e in ref], rtol=1.0e-12, atol=0.0)


@settings(max_examples=5)
@example(pot=WBPotential(v0=0.753, vb=2.418, r_a=2.868, r_d=4.33, beta=0.7629))
@example(pot=WBPotential(v0=2.57, vb=2.49, r_a=0.99, r_d=2.09, beta=0.02))
@given(pot=valid_potentials())
def test_table_keeps_the_panels_of_one_call_per_level(pot):
    # a call's series term count follows its largest |k r_d|, so node values
    # evaluated a level early may move in the last bits (2.8e-12 relative
    # in the second example at e_max 8100), but never a panel
    density = SpectralDensity(pot, InitialState.from_potential(pot))
    for e_max in (64.0, 8100.0):
        table = _build_table(density.omega, pot.r_a, e_max)
        ref = reference_table(density.omega, pot.r_a, e_max)
        for name in ("mid", "half", "depth"):
            assert np.array_equal(getattr(table, name), getattr(ref, name)), name
        scale = np.max(np.abs(ref.vals), axis=1, keepdims=True)
        assert np.max(np.abs(table.vals - ref.vals) / scale) <= 1.0e-11


# `tailsurv survive`'s default grid: t from 0.1 to 2000, 200 per decade
CLI_GRID = np.geomspace(0.1, 2000.0, round(200 * math.log10(2000.0 / 0.1)))


def _full_table_amplitude(table, t: float) -> complex:
    """A(t) from every panel of the table and the tail at e_max, the sum
    before each time got its own energy window."""
    return reference_amplitude(table, t, e_top=table.e_max)[0]


@settings(max_examples=10)
@given(pot=valid_potentials(),
       picks=st.lists(st.integers(0, CLI_GRID.size - 1), min_size=1, max_size=12))
def test_windowed_amplitude_is_within_its_estimate_of_the_full_table(pot, picks):
    # each time sums its own window of the table: the moment series below
    # E t = 1 and the tail above e_cut stand for the rest, so the stated
    # estimate must cover the difference
    density = SpectralDensity(pot, InitialState.from_potential(pot))
    batched = survival_exact(density, CLI_GRID, abs_tol=1.0)
    table = _build_table(density.omega, pot.r_a, batched.meta["e_max"])
    for i in picks:
        full = _full_table_amplitude(table, float(CLI_GRID[i]))
        assert abs(batched.amplitudes[i] - full) <= batched.meta["error_estimate"][i]


@pytest.mark.xfail(strict=True, reason=(
    "at e_max the truncation estimate |d_5| / t^6, the larger of d_5 at e_max "
    "and mid-panel, still understates a one-time table's tail: v0 2.36, vb 1.63, "
    "r_a 1.03, r_d 3.02, beta ~0 at t = 0.2888 alone (e_max 114.8, abs_tol 1) "
    "states 1.27e-6, all truncation, and sits 2.83e-6 from the grid (e_max "
    "957.8, 3.02e-11) and from a 4e4 table; the same well at t = 0.3765 is "
    "0.975 of both estimates, and v0 = vb = 0, r_a 1, r_d 2, beta 0 at "
    "t = 0.1135 is 0.25"))
@settings(max_examples=10, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@example(pot=WBPotential(v0=0.0, vb=0.0, r_a=1.0, r_d=2.0, beta=0.0), picks=[11])
@example(pot=WBPotential(v0=2.3596597436966724, vb=1.6286842366666314,
                         r_a=1.0316314127636044, r_d=3.016216691144486,
                         beta=-1.1125369292536007e-308), picks=[115, 92])
@given(pot=valid_potentials(),
       picks=st.lists(st.integers(0, CLI_GRID.size - 1), min_size=1, max_size=12))
def test_one_time_alone_agrees_with_the_grid_within_both_estimates(pot, picks):
    # one time alone tabulates to its own e_max and sums the whole table
    density = SpectralDensity(pot, InitialState.from_potential(pot))
    batched = survival_exact(density, CLI_GRID, abs_tol=1.0)
    for i in picks:
        alone = survival_exact(density, [float(CLI_GRID[i])], abs_tol=1.0)
        assert abs(alone.amplitudes[0] - batched.amplitudes[i]) <= (
            alone.meta["max_error_estimate"] + batched.meta["error_estimate"][i])


@settings(max_examples=20)
@given(pot=valid_potentials())
def test_exact_answers_the_cli_grid_unless_a_table_cannot_mend_it(pot):
    # a truncation part that breaks abs_tol deepens the table and every cut
    # with it, so a refusal names another part; where a deeper table was
    # built, P agrees with a table 4x deeper still that sums every panel
    density = SpectralDensity(pot, InitialState.from_potential(pot))
    try:
        s = survival_exact(density, CLI_GRID)
    except ToleranceError as exc:
        assert "largest part truncation" not in str(exc)
        return
    if s.meta["table_builds"] > 1:
        table = reference_table(density.omega, pot.r_a, 4.0 * s.meta["e_max"])
        for i in (0, int(np.argmax(s.meta["error_estimate"]))):
            full = _full_table_amplitude(table, float(CLI_GRID[i]))
            assert abs(s.probability[i] - abs(full) ** 2) <= 1.0e-8


@settings(max_examples=30)
@given(pot=valid_potentials())
# the largest gap of a 300-well scan, at t = 0.3
@example(pot=WBPotential(v0=0.5, vb=1.8, r_a=3.0, r_d=3.4, beta=-0.43))
# the continued density overflows on the axis at t = 0.3
@example(pot=WBPotential(v0=0.0, vb=0.0, r_a=1.0, r_d=3.0, beta=0.0))
def test_laplace_axis_matches_the_full_rule(pot):
    # the rotated-axis rule closes its lowest halving panels by the threshold
    # power law, or a time sums them where omega / u^nu drifts: within
    # rounding of the sum over all 912 nodes, for both forms
    density = SpectralDensity(pot, InitialState.from_potential(pot))
    t = np.array([0.3, 1.0, 10.0, 200.0, 2000.0, 1.0e6])
    e = (-1j * _LAPLACE_U[None, :] / t[:, None]).ravel()
    for form, fn in (("continued", density.omega), ("threshold", density.threshold_pade_omega)):
        try:
            with np.errstate(all="ignore"):   # not finite on some wells, as below
                full = -1j * (fn(e).reshape(t.size, -1) @ _LAPLACE_W)[:, 0] / t
        except DomainError:   # a degenerate threshold refinement, refused by both
            with pytest.raises(DomainError):
                survival_laplace_axis(density, t, form=form)
            continue
        # the continued density overflows at |E| = u / t ~ 80 on some wells
        # (v0 = vb = 0, r_a 1, r_d 3 at t = 0.3): no rule is finite there, and
        # the route refuses; every other time is compared
        fin = np.isfinite(full)
        if not fin.all():
            with pytest.raises(ToleranceError, match=r"^rotated-axis stage: "):
                survival_laplace_axis(density, t, form=form)
        if fin.any():
            got = survival_laplace_axis(density, t[fin], form=form).amplitudes
            assert np.max(np.abs(got / full[fin] - 1.0)) <= 1.0e-14
