"""Shared fixtures: the reference parameter set and memoized pipelines.

The expensive objects (densities, exact survival series, power-law
fits, the repulsive-branch sweep) are cached per session so that the
module tests and the acceptance tests share one computation.
"""
from __future__ import annotations

import math
import time

import numpy as np
import pytest
from hypothesis import settings
from scipy.special import spherical_jn

import tailsurv.survival
from tailsurv import (InitialState, SpectralDensity, WBPotential, beta_sweep,
                      fit_power_law, survival_exact)
from tailsurv.model import regular_boundary_sq
from tailsurv.survival import (_DERIV_HI, _DERIV_TERMS, _GL_W, _GL_X, _MIN_WIDTH,
                               _PANEL_RTOL, _PHASE_SWITCH, _envelope_tail, _eval_panels,
                               _initial_panels, _interp, _table_from_levels)

SESSION_T0 = time.time()

# Property tests draw the same examples on every run, with no per-example
# deadline (the first draws pay for imports and coefficient caches).
settings.register_profile("reproducible", derandomize=True, deadline=None)
settings.load_profile("reproducible")

#: The reference well-barrier geometry used throughout the test suite.
REFERENCE = {"v0": 0.5, "vb": 1.8, "r_a": 3.0, "r_d": 3.4}

#: Tail strengths of the four reference density curves.
REFERENCE_BETAS = (-0.4, -0.1, 0.3, 0.7)

#: Default fitting window for long-time exponent fits.
WINDOW = (400.0, 800.0)


def make_potential(beta: float, **overrides) -> WBPotential:
    params = dict(REFERENCE)
    params.update(overrides)
    return WBPotential(beta=beta, **params)


def make_density(beta: float, **overrides) -> SpectralDensity:
    pot = make_potential(beta, **overrides)
    return SpectralDensity(pot, InitialState.from_potential(pot))


def legendre_coefficients(vals):
    """Legendre coefficients of the degree-15 interpolant through node values
    at the 16 Gauss nodes, by Gauss projection: c_j = (j + 1/2) sum_k w_k
    P_j(x_k) v_k, exact as the interpolant times P_j has degree <= 30."""
    return ((vals * _GL_W) @ np.polynomial.legendre.legvander(_GL_X, 15)) * (np.arange(16) + 0.5)


def legendre_panel_sums(leg, theta):
    """int_{-1}^{1} q(s) e^{-i theta s} ds for Legendre coefficients leg
    (..., 16) and phase turns theta broadcast against leg's leading axes,
    from int P_j(s) e^{-i theta s} ds = 2 (-i)^j j_j(theta)."""
    j = np.arange(16)
    jn = spherical_jn(j, np.asarray(theta, float)[..., None])
    return np.sum(leg * (2.0 * (-1j) ** j * jn), axis=-1)


def reference_amplitude(table, t: float, e_top: float | None = None,
                        k_a: float | None = None):
    """A(t) and its error estimate from a panel table, for one time,
    panel by panel.

    A plain reference for the batched `_table_amplitudes`: every panel
    up to the time's window top e_cut, the moment block below E t = 1
    included, takes its complex Gauss sum below the phase switch and the
    exact integral of its interpolant's Legendre series above it, and the
    tail by parts starts at e_cut.  e_cut is the lowest edge at or above
    e_top (by default max(64, (6 r_a / t)^2), at most e_max) that tops an
    unbisected panel or the table.  t = 0 gives the mass with the envelope
    beyond e_max (`_envelope_tail`), which needs the state's k_a.
    """
    if t == 0.0:
        total = (float(np.sum((table.vals @ _GL_W) * table.half)) + table.sub_mass
                 + _envelope_tail(k_a, table.r_a, table.e_max))
        est = float(np.sum(table.resid * table.half)) + abs(table.sub_mass) * 0.5
        return complex(total, 0.0), est
    if e_top is None:
        e_top = min(max(64.0, (6.0 * table.r_a / t) ** 2), table.e_max)
    edge = table.mid + table.half
    tops = [p for p in range(edge.size) if table.depth[p] == 0 and edge[p] >= e_top]
    top = tops[0] if tops else edge.size - 1
    e_cut = table.e_max if top == edge.size - 1 else edge[top]
    keep = np.arange(edge.size) <= top

    theta = t * table.half
    phase = np.exp(-1j * t * table.mid)
    small = (theta <= _PHASE_SWITCH) & keep
    large = (theta > _PHASE_SWITCH) & keep
    acc = 0.0 + 0.0j
    if np.any(small):
        osc = np.exp(-1j * (theta[small, None] * _GL_X[None, :]))
        sums = ((table.vals[small] * osc) @ _GL_W)
        acc += np.sum(table.half[small] * phase[small] * sums)
    if np.any(large):
        leg = legendre_coefficients(table.vals[large])
        sums = legendre_panel_sums(leg, theta[large])
        acc += np.sum(table.half[large] * phase[large] * sums)

    # d^n omega / dE^n at e_cut from the Chebyshev coefficients of the panel below
    derivs = (table.coef[top] @ _DERIV_HI[:_DERIV_TERMS].T) / table.half[top] ** np.arange(
        _DERIV_TERMS)
    it = 1j * t
    tail = 0.0 + 0.0j
    for n in range(_DERIV_TERMS):
        tail += derivs[n] / it ** (n + 1)
    tail *= np.exp(-1j * e_cut * t)
    acc += tail

    damp = np.minimum(1.0, 4.0 / theta)
    est = float(np.sum((table.resid * table.half * damp)[keep]))
    last = abs(derivs[-1])
    if top < edge.size - 1:   # below e_max, also the last derivative mid-panel
        n = _DERIV_TERMS - 1
        cheb = np.polynomial.chebyshev
        last = max(last, abs(cheb.chebval(0.0, cheb.chebder(table.coef[top], n)))
                   / table.half[top] ** n)
    est += last / t ** _DERIV_TERMS
    est += table.sub_mass
    return complex(acc), est


def record_table_builds(monkeypatch) -> list:
    """The e_max of each table `survival_exact` builds, in order."""
    builds, build = [], tailsurv.survival._build_table
    monkeypatch.setattr(tailsurv.survival, "_build_table",
                        lambda omega, r_a, top: builds.append(top) or build(omega, r_a, top))
    return builds


def reference_table(omega, r_a: float, e_max: float):
    """A panel table built with one density call per bisection level.

    A plain reference for `_build_table`, which evaluates two levels per
    call: the same initial panels, acceptance rule and bisection, with
    each level's pending panels evaluated on their own.
    """
    mid, half = _initial_panels(r_a, e_max)
    kept, n_evals = [], 0
    while True:
        vals = _eval_panels(omega, mid, half)
        n_evals += vals.size
        coef, resid = _interp(vals)
        done = (resid <= _PANEL_RTOL * np.max(np.abs(vals), axis=1)) | (half <= _MIN_WIDTH)
        kept.append((mid[done], half[done], vals[done], coef[done], resid[done]))
        if done.all():
            break
        half = 0.5 * half[~done]
        mid = np.stack((mid[~done] - half, mid[~done] + half), axis=1).ravel()
        half = np.repeat(half, 2)
    return _table_from_levels(kept, r_a, e_max, n_evals)


def zero_energy_boundary_gap(pot) -> tuple[float, float]:
    """How far validation's scalar (u, u') at r_d and zero energy sits from
    `regular_boundary_sq(pot, 0.0)`, each gap over the terms it sums.

    u = sinc_a cos_b + cos_a sinc_b is scaled by |sinc_a cos_b| + |cos_a
    sinc_b|, and u' = cos_a cos_b + vb sinc_a sinc_b by |cos_b| + |vb
    sinc_a sinc_b|: the kernel's half-angle cosine is accurate to ~1 eps
    absolute, so cos_a near zero (k r_a near pi/2) counts at unit size.
    """
    sinc_a, u, du = pot._zero_energy_boundary()
    u_ref, du_ref = regular_boundary_sq(pot, 0.0)
    k, kappa = math.sqrt(pot.v0), math.sqrt(pot.vb)
    cos_a = math.cos(k * pot.r_a)
    cos_b = math.cosh(kappa * pot.r_b)
    sinc_b = math.sinh(kappa * pot.r_b) / kappa if kappa > 0.0 else pot.r_b
    return (abs(u - u_ref) / (abs(sinc_a * cos_b) + abs(cos_a * sinc_b)),
            abs(du - du_ref) / (abs(cos_b) + abs(pot.vb * sinc_a * sinc_b)))


@pytest.fixture(scope="session")
def density_for():
    """Memoized density factory keyed by tail strength and overrides."""
    cache: dict = {}

    def get(beta: float, **overrides) -> SpectralDensity:
        key = (beta, tuple(sorted(overrides.items())))
        if key not in cache:
            cache[key] = make_density(beta, **overrides)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def exact_series_for(density_for):
    """Memoized exact survival series on a uniform time window."""
    cache: dict = {}

    def get(beta: float, t_lo: float = WINDOW[0], t_hi: float = WINDOW[1],
            n: int = 50, **overrides):
        key = (beta, t_lo, t_hi, n, tuple(sorted(overrides.items())))
        if key not in cache:
            times = np.linspace(t_lo, t_hi, n)
            cache[key] = survival_exact(density_for(beta, **overrides), times)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def power_fit_for(exact_series_for):
    """Memoized power-law fit of the exact curve on a window."""
    cache: dict = {}

    def get(beta: float, t_lo: float = WINDOW[0], t_hi: float = WINDOW[1],
            n: int = 50, **overrides):
        key = (beta, t_lo, t_hi, n, tuple(sorted(overrides.items())))
        if key not in cache:
            series = exact_series_for(beta, t_lo, t_hi, n, **overrides)
            cache[key] = fit_power_law(series, t_lo, t_hi)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def width_series_for(density_for):
    """Memoized exact survival curve on the exponential-stage window."""
    cache: dict = {}

    def get(beta: float):
        if beta not in cache:
            times = np.linspace(20.0, 100.0, 40)
            cache[beta] = survival_exact(density_for(beta), times)
        return cache[beta]

    return get


@pytest.fixture(scope="session")
def repulsive_sweep_rows():
    """One sweep of the non-negative tail-strength grid, shared."""
    betas = np.round(np.arange(0.0, 1.0001, 0.05), 10)
    return beta_sweep(make_potential(0.0), betas)


@pytest.fixture(scope="session")
def attractive_sweep_rows():
    """One sweep of the attractive branch close to the -1/2 wall."""
    return beta_sweep(make_potential(0.0), betas=(-0.45, -0.40, -0.35, -0.30))


@pytest.fixture(scope="session")
def suite_elapsed():
    """Callable returning seconds since test collection started."""
    return lambda: time.time() - SESSION_T0


def pytest_collection_modifyitems(items):
    """Run the acceptance gate last so its wall-clock and budget checks
    cover the full suite and its fixtures are already warm."""
    items.sort(key=lambda item: item.fspath.basename == "test_acceptance.py")


#: Verdict lines filled in by the acceptance gate, one per criterion.
ACCEPTANCE_SCORECARD: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_SCORECARD:
        terminalreporter.section("acceptance scorecard")
        for line in ACCEPTANCE_SCORECARD:
            terminalreporter.write_line(line)
