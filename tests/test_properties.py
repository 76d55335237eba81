"""Properties that must hold for any valid potential, not only the reference tails.

Every test here draws from one strategy of well-barrier potentials with
an inverse-square tail; draws that fail validation (bound states,
geometry) are discarded with `assume`.  The examples are derandomized
by the profile in conftest.py, so every run checks the same potentials.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tailsurv import InitialState, SpectralDensity, WBPotential, survival_exact
from tailsurv.errors import ConfigError
from tailsurv.oracle import oracle_match_coefficients, oracle_survival_bruteforce


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
