"""Window fits of the survival curve and tail-strength sweeps.

The long-time decay is characterized by the effective exponent mu_f:
the negated slope of an ordinary least-squares line through ln P vs
ln t over a finite window.  For repulsive tails mu_f reproduces the
limit law 2 beta + 3; for attractive tails the closely spaced
threshold exponents make mu_f window- and parameter-dependent, which
the sweep table exposes.  The intermediate-time exponential stage is
characterized the same way against t (not ln t), with the density's
resonance width serving as the independent scale for the decay rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DomainError
from .model import InitialState, WBPotential
from .spectral import SpectralDensity
from .survival import SurvivalSeries, survival_exact


@dataclass(frozen=True)
class FitResult:
    """Power-law fit P(t) ~ prefactor * t^{-mu_f} over a window."""

    mu_f: float
    prefactor: float
    window: tuple[float, float]
    rms_residual: float
    n_points: int


@dataclass(frozen=True)
class SweepRow:
    """One tail strength in a sweep: fitted vs predicted exponent.  `meta`
    (not compared) holds the exact series' cost and error meta and the
    fit's rms residual."""

    beta: float
    mu_f: float
    prefactor: float
    mu_predicted: float
    residual: float
    meta: dict = field(default_factory=dict, compare=False)


def _window_samples(series: SurvivalSeries, t_lo: float, t_hi: float):
    if not t_lo < t_hi:
        raise DomainError(f"need t_lo < t_hi, got [{t_lo:g}, {t_hi:g}]")
    mask = (series.times >= t_lo) & (series.times <= t_hi)
    t = series.times[mask]
    p = series.probability[mask]
    if t.size < 10:
        raise DomainError(
            f"window [{t_lo:g}, {t_hi:g}] covers only {t.size} samples; "
            "need at least 10")
    if not (np.isfinite(p).all() and (p > 0.0).all()):
        raise DomainError("survival probabilities must be positive and finite to fit logs")
    return t, p


def _line_fit(x: np.ndarray, y: np.ndarray, window: tuple[float, float]
              ) -> tuple[float, float, float]:
    """Least-squares line through (x, y): slope, intercept and rms residual.

    The centred closed form: slope = sum(xc yc) / sum(xc^2) with xc, yc
    the deviations from the means, and residuals yc - slope xc.  Raises
    DomainError naming the window when x holds fewer than two distinct
    values, where no line is determined.
    """
    if x.min() == x.max():
        raise DomainError(
            f"window [{window[0]:g}, {window[1]:g}]: all {x.size} samples sit at "
            f"one abscissa ({x[0]:g}); a line needs two distinct ones")
    n = x.size
    x_mean, y_mean = float(x.sum()) / n, float(y.sum()) / n
    xc, yc = x - x_mean, y - y_mean
    slope = float(xc @ yc) / float(xc @ xc)
    xc *= slope
    yc -= xc
    return slope, y_mean - slope * x_mean, math.sqrt(float(yc @ yc) / n)


def fit_power_law(series: SurvivalSeries, t_lo: float, t_hi: float) -> FitResult:
    """Least-squares line through ln P vs ln t on [t_lo, t_hi].

    Slope gives -mu_f, intercept the prefactor; rms residual is in
    ln P units.  Deterministic: equal inputs give identical results.
    """
    t, p = _window_samples(series, t_lo, t_hi)
    slope, intercept, rms = _line_fit(np.log(t), np.log(p), (t_lo, t_hi))
    return FitResult(mu_f=-slope, prefactor=math.exp(intercept),
                     window=(float(t_lo), float(t_hi)), rms_residual=rms,
                     n_points=int(t.size))


def fit_exponential(series: SurvivalSeries, t_lo: float, t_hi: float
                    ) -> tuple[float, float]:
    """Decay rate of an exponential stage: ln P regressed on t.

    Returns (rate, rms_residual); the window must sit inside the
    exponential regime for the rate to be meaningful.
    """
    t, p = _window_samples(series, t_lo, t_hi)
    slope, _, rms = _line_fit(t, np.log(p), (t_lo, t_hi))
    return -slope, rms


def resonance_width(density: SpectralDensity) -> tuple[float, float]:
    """Peak position and width of the density's dominant resonance.

    Fits a Lorentzian to the density over +-3 half-widths around its
    maximum (window clipped below to stay on positive energies, since
    the peak sits within a few widths of threshold for the reference
    geometry).  Returns (peak_energy, width); the width sets the decay
    rate of the intermediate-time exponential stage.
    """
    from scipy.optimize import curve_fit  # deferred: costs ~0.6 s to import

    e_grid = np.geomspace(1.0e-4, 4.0, 8001)
    om = density.omega(e_grid)
    i_pk = int(np.argmax(om))
    if i_pk in (0, om.size - 1):
        raise ConvergenceError("no interior density maximum below E = 4")
    e_pk = float(e_grid[i_pk])
    pk = float(om[i_pk])
    half = 0.5 * pk
    above = om >= half
    i_lo = i_pk
    while i_lo > 0 and above[i_lo - 1]:
        i_lo -= 1
    i_hi = i_pk
    while i_hi < om.size - 1 and above[i_hi + 1]:
        i_hi += 1
    if i_hi == om.size - 1:
        raise ConvergenceError("density does not fall to half maximum below E = 4")
    fwhm = float(e_grid[i_hi] - e_grid[max(i_lo, 1)])

    lo = max(e_pk - 1.5 * fwhm, 0.02 * e_pk)
    hi = e_pk + 1.5 * fwhm
    e_fit = np.linspace(lo, hi, 600)
    om_fit = density.omega(e_fit)

    def lorentz(e, height, center, width):
        return height * (width / 2.0) ** 2 / ((e - center) ** 2 + (width / 2.0) ** 2)

    try:
        popt, _ = curve_fit(lorentz, e_fit, om_fit, p0=(pk, e_pk, fwhm),
                            maxfev=20000)
    except RuntimeError as exc:
        raise ConvergenceError(f"Lorentzian fit failed: {exc}") from exc
    return float(popt[1]), float(abs(popt[2]))


def beta_sweep(base: WBPotential, betas,
               window: tuple[float, float] = (400.0, 800.0),
               n_samples: int = 50) -> list[SweepRow]:
    """Effective exponent across tail strengths at fixed geometry.

    For each beta the potential is revalidated, the survival curve is
    computed on n_samples equally spaced times inside the window, and
    the power law is fitted.  Rows come back sorted by beta.
    """
    betas = sorted(float(b) for b in betas)
    times = np.linspace(window[0], window[1], n_samples)
    rows = []
    for b in betas:
        pot = WBPotential(v0=base.v0, vb=base.vb, r_a=base.r_a,
                          r_d=base.r_d, beta=b)
        density = SpectralDensity(pot, InitialState.from_potential(pot))
        series = survival_exact(density, times)
        fit = fit_power_law(series, window[0], window[1])
        meta = {key: series.meta[key] for key in ("panels", "density_evals", "max_error_estimate",
                                                  "error_parts", "table_s", "amplitude_s")}
        rows.append(SweepRow(beta=b, mu_f=fit.mu_f, prefactor=fit.prefactor,
                             mu_predicted=2.0 * b + 3.0, residual=fit.rms_residual,
                             meta=dict(meta, rms_residual=fit.rms_residual)))
    return rows

