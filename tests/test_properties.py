"""Properties that must hold for any valid potential, not only the reference tails.

Every test here draws from one strategy of well-barrier potentials with
an inverse-square tail; draws that fail validation (bound states,
geometry) are discarded with `assume`.  The examples are derandomized
by the profile in conftest.py, so every run checks the same potentials.
"""

import math

import mpmath
import numpy as np
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from tailsurv import InitialState, SpectralDensity, WBPotential, survival_exact
from tailsurv.errors import ConfigError
from tailsurv.oracle import oracle_match_coefficients, oracle_survival_bruteforce
from tailsurv.survival import (_DERIV_TERMS, _GL_W, _GL_X, _PHASE_SWITCH, _PanelTable,
                               _build_table, _table_amplitudes)

from conftest import reference_amplitude


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


@settings(max_examples=10)
@given(pot=valid_potentials())
def test_exact_survival_matches_brute_force(pot):
    density = SpectralDensity(pot, InitialState.from_potential(pot))
    times = np.array([60.0, 200.0])
    exact = survival_exact(density, times).probability
    brute = oracle_survival_bruteforce(density, times)
    assert np.all(np.abs(exact - brute) <= 1.0e-8)
    assert np.all(exact <= 1.0) and np.all(brute <= 1.0)


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
                        mono=np.zeros((1, 16)), resid=np.zeros(1), e_max=1.0,
                        end_derivs=np.zeros(_DERIV_TERMS), sub_mass=0.0, n_evals=0)
    theta = np.array(theta)
    amps, _, n_small = _table_amplitudes(table, theta / half)
    assert n_small == theta.size
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
    # one panel [-half, half] holding a degree-15 polynomial, at times
    # with t half = theta in (10, 1e4] (exact, as half is a power of 2);
    # just above the switch the high-order terms weigh most
    half = 2.0 ** log2_half
    table = _PanelTable(mid=np.zeros(1), half=np.array([half]), vals=np.zeros((1, 16)),
                        mono=np.array([coef]), resid=np.zeros(1), e_max=1.0,
                        end_derivs=np.zeros(_DERIV_TERMS), sub_mass=0.0, n_evals=0)
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
