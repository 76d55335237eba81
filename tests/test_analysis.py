"""Window fits, resonance width, and the tail-exponent sweep."""

import numpy as np
import pytest

from tailsurv.errors import ConvergenceError, DomainError
from tailsurv.model import InitialState, WBPotential
from tailsurv.spectral import SpectralDensity
from tailsurv.survival import SurvivalSeries
from tailsurv.analysis import (beta_sweep, fit_exponential, fit_power_law,
                               resonance_width)

from conftest import make_density, make_potential


def synthetic_series(times, probability):
    return SurvivalSeries(times=np.asarray(times, dtype=float),
                          probability=np.asarray(probability, dtype=float),
                          amplitudes=None, method="synthetic", meta={})


# ------------------------------------------------------------------ #
# power-law fit                                                      #
# ------------------------------------------------------------------ #

def test_power_fit_recovers_synthetic_exactly():
    t = np.linspace(400.0, 800.0, 50)
    series = synthetic_series(t, 7.0 * t**-3.6)
    fit = fit_power_law(series, 400.0, 800.0)
    assert abs(fit.mu_f - 3.6) <= 1.0e-12
    assert fit.prefactor == pytest.approx(7.0, rel=1.0e-12)
    assert fit.rms_residual <= 1.0e-12
    assert fit.n_points == 50
    assert fit.window == (400.0, 800.0)


def test_power_fit_deterministic():
    t = np.linspace(400.0, 800.0, 50)
    series = synthetic_series(t, 7.0 * t**-3.6 * (1.0 + 0.01 * np.sin(t)))
    a = fit_power_law(series, 400.0, 800.0)
    b = fit_power_law(series, 400.0, 800.0)
    assert (a.mu_f == b.mu_f and a.prefactor == b.prefactor
            and a.rms_residual == b.rms_residual)


def test_power_fit_window_validation():
    t = np.linspace(400.0, 800.0, 50)
    series = synthetic_series(t, t**-3.0)
    with pytest.raises(DomainError):
        fit_power_law(series, 800.0, 400.0)
    with pytest.raises(DomainError):
        fit_power_law(series, 430.0, 440.0)  # too few samples inside
    bad = synthetic_series(t, np.where(t > 600.0, 0.0, t**-3.0))
    with pytest.raises(DomainError):
        fit_power_law(bad, 400.0, 800.0)


# ------------------------------------------------------------------ #
# exponential fit and resonance width                                #
# ------------------------------------------------------------------ #

def test_exponential_fit_recovers_synthetic_exactly():
    t = np.linspace(20.0, 100.0, 40)
    rate, rms = fit_exponential(synthetic_series(t, np.exp(-0.05 * t)),
                                20.0, 100.0)
    assert abs(rate - 0.05) <= 1.0e-12
    assert rms <= 1.0e-12


def test_narrow_resonance_decay_rate_matches_width(density_for,
                                                   width_series_for):
    # beta = 0.7: clean exponential stage whose rate tracks the
    # Lorentzian width of the density peak within a couple of percent
    rate, rms = fit_exponential(width_series_for(0.7), 20.0, 100.0)
    _, width = resonance_width(density_for(0.7))
    assert rate == pytest.approx(0.075973, rel=1.0e-3)
    assert width == pytest.approx(0.07750936, rel=1.0e-6)
    assert abs(rate / width - 1.0) <= 0.10
    assert rms < 0.2


@pytest.mark.xfail(strict=True,
                   reason="for beta = 0.3 the broad resonance never "
                          "yields a clean exponential stage: the fitted "
                          "rate on [20, 100] sits 22 percent above the "
                          "Lorentzian width, beyond the quoted 10 "
                          "percent; see CHANGES.md")
def test_broad_resonance_decay_rate_matches_width(density_for,
                                                  width_series_for):
    rate, _ = fit_exponential(width_series_for(0.3), 20.0, 100.0)
    _, width = resonance_width(density_for(0.3))
    assert abs(rate / width - 1.0) <= 0.10


def test_decay_rates_separate_broad_from_narrow(width_series_for):
    rate_broad, _ = fit_exponential(width_series_for(0.3), 20.0, 100.0)
    rate_narrow, _ = fit_exponential(width_series_for(0.7), 20.0, 100.0)
    assert rate_broad == pytest.approx(0.142765, rel=1.0e-3)
    assert abs(rate_broad - rate_narrow) > 0.3 * rate_narrow


def test_resonance_width_frozen_values(density_for):
    expected = {0.3: (0.08908743, 0.11662970),
                0.7: (0.09582588, 0.07750936)}
    for beta, (peak, width) in expected.items():
        got = resonance_width(density_for(beta))
        assert got[0] == pytest.approx(peak, rel=1.0e-6)
        assert got[1] == pytest.approx(width, rel=1.0e-6)
        assert resonance_width(density_for(beta)) == got


def test_resonance_width_requires_interior_peak():
    # a second-mode initial state pushes the density maximum past the
    # search ceiling
    pot = make_potential(0.3, v0=0.0, vb=0.0)
    den = SpectralDensity(pot, InitialState.from_potential(pot, n_a=2))
    with pytest.raises(ConvergenceError):
        resonance_width(den)


# ------------------------------------------------------------------ #
# sweep                                                              #
# ------------------------------------------------------------------ #

def test_sweep_rows_sorted_and_annotated(repulsive_sweep_rows):
    betas = [row.beta for row in repulsive_sweep_rows]
    assert betas == sorted(betas)
    assert len(repulsive_sweep_rows) == 21
    for row in repulsive_sweep_rows:
        assert row.mu_predicted == pytest.approx(2.0 * row.beta + 3.0,
                                                 rel=1.0e-14)


def test_sweep_row_equals_direct_fit(repulsive_sweep_rows, power_fit_for):
    row = next(r for r in repulsive_sweep_rows if r.beta == 0.3)
    fit = power_fit_for(0.3)
    assert row.mu_f == fit.mu_f
    assert row.prefactor == fit.prefactor


def test_sweep_accepts_unsorted_input():
    rows = beta_sweep(make_potential(0.0), betas=(0.3, 0.0), n_samples=12)
    assert [r.beta for r in rows] == [0.0, 0.3]


def test_repulsive_sweep_tracks_predicted_exponent(repulsive_sweep_rows):
    # up to beta ~ 0.8 the fitted exponent lands on 2 beta + 3 within
    # 0.05 with a clean fit; beyond that the crossover to the power law
    # moves past the window (covered by the companion expected failure)
    spot = {0.0: 2.9994, 0.3: 3.6166, 0.7: 4.3947, 0.8: 4.6091}
    for row in repulsive_sweep_rows:
        if row.beta > 0.801:
            continue
        assert abs(row.mu_f - row.mu_predicted) <= 0.05
        assert row.residual < 1.0e-2
        if row.beta in spot:
            assert row.mu_f == pytest.approx(spot[row.beta], rel=1.0e-3)


@pytest.mark.xfail(strict=True,
                   reason="for beta >= 0.85 the exponential-to-power "
                          "crossover moves into or past [400, 800]; at "
                          "beta = 1.0 the fitted exponent is 3.92 "
                          "against the predicted 5.0; see "
                          "CHANGES.md")
def test_sweep_exponent_law_through_beta_one(repulsive_sweep_rows):
    for row in repulsive_sweep_rows:
        if row.beta < 0.849:
            continue
        assert abs(row.mu_f - row.mu_predicted) <= 0.05
        assert row.residual < 1.0e-2


def test_attractive_branch_flattens_toward_half(attractive_sweep_rows):
    # between beta = -0.45 and -0.30 the fitted exponent still grows
    # with beta, but successive steps shrink toward the wall at -1/2,
    # and every exponent exceeds 2 beta + 3 by more than the repulsive
    # tolerance
    mus = [row.mu_f for row in attractive_sweep_rows]
    assert mus == sorted(mus)
    steps = np.diff(mus)
    assert np.all(steps > 0.0)
    assert list(steps) == sorted(steps)
    offsets = [row.mu_f - row.mu_predicted for row in attractive_sweep_rows]
    assert all(o > 0.05 for o in offsets)
    assert offsets == sorted(offsets, reverse=True)
    by_beta = {row.beta: row.mu_f for row in attractive_sweep_rows}
    assert by_beta[-0.45] == pytest.approx(2.3946, rel=1.0e-3)
    assert by_beta[-0.30] == pytest.approx(2.5000, rel=1.0e-3)


def test_attractive_exponent_tracks_barrier_height(attractive_sweep_rows):
    # same geometry with a lower barrier: the attractive-branch
    # exponents drop by well over the sensitivity threshold
    lower = beta_sweep(make_potential(0.0, vb=1.6),
                       betas=(-0.45, -0.40, -0.30))
    std = {row.beta: row.mu_f for row in attractive_sweep_rows}
    for row in lower:
        assert std[row.beta] - row.mu_f > 0.02
    drop = {row.beta: std[row.beta] - row.mu_f for row in lower}
    assert drop[-0.45] == pytest.approx(0.1639, abs=5.0e-3)
    assert drop[-0.30] == pytest.approx(0.1279, abs=5.0e-3)
