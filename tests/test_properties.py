"""Properties that must hold for any valid potential, not only the reference tails.

Every test here draws from one strategy of well-barrier potentials with
an inverse-square tail; draws that fail validation (bound states,
geometry) are discarded with `assume`.  The examples are derandomized
by the profile in conftest.py, so every run checks the same potentials.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tailsurv import InitialState, SpectralDensity, WBPotential, survival_exact
from tailsurv.errors import ConfigError
from tailsurv.oracle import oracle_survival_bruteforce


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
