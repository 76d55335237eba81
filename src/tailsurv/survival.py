"""Survival amplitude and probability of the decaying state.

The exact amplitude is the oscillatory integral

    A(t) = int_0^inf omega(E) exp(-i E t) dE ,

evaluated by a panel table built once per time grid: the density is
interpolated on each panel by a degree-15 polynomial at fixed
Gauss-Legendre nodes, and each panel contributes either the plain
Gauss sum (when the phase turn t * half_width is small) or exact
polynomial-times-exponential moments via a stable integration-by-parts
recursion (when it is large); all times are evaluated together, in
blocks, in real arithmetic.  Geometrically shrinking panels resolve
the threshold power law down to E ~ 1e-13, adaptive bisection resolves
the resonance peak, and the truncated high-energy tail is summed by
integration by parts using end-point derivatives of the last panel's
interpolant.

The long-time representation rotates the contour onto the negative
imaginary energy axis,

    A_v(t) = -i int_0^inf dx exp(-x t) omega(-i x),

which is non-oscillatory; with x = u / t one fixed composite
Gauss-Legendre rule in u serves every time, on the continued density
(or its threshold refinement).  Expanding that integral at the
threshold yields the inverse-power asymptotic models, with everything
beyond A_v (the resonance-pole part) decaying exponentially and read
off the exact amplitude instead.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, ResourceLimitError, ToleranceError
from .specfun import gamma
from .spectral import SpectralDensity, ThresholdCoeffs

# Phase turn t * half_width above which a panel switches from the
# direct Gauss sum to polynomial moments.  Gauss-Legendre with 16
# nodes integrates e^{-i theta s} to ~1e-15 relative for theta <= 10.
_PHASE_SWITCH = 10.0

# Relative interpolation residual target per panel, and bisection limits.
_PANEL_RTOL = 5.0e-10
_MAX_DEPTH = 48
_MIN_WIDTH = 1.0e-8

# Cap on density evaluations per panel table.  The largest tables in
# use take 14 128-14 256 (e_max = 4e4); without a cap, tails within
# ~5e-4 of beta = 1/2, whose density carries ~1e-9 of cancellation
# noise, bisect toward _MAX_DEPTH for minutes and gigabytes.
_MAX_TABLE_EVALS = 200_000

# Outer edge of the geometric threshold panels; below their last edge
# the remaining mass is added as a power-law estimate.
_GEOM_EDGE = 0.0625
_GEOM_FLOOR = 1.0e-13

_DERIV_TERMS = 6  # integration-by-parts tail depth

# Times per block of the batched amplitude; a block's temporaries are
# a few (block, panels, 8) float arrays, ~2 MB each at 900 panels.
_TIME_BLOCK = 32


def _gauss_basis():
    x, w = np.polynomial.legendre.leggauss(16)
    vander = np.vander(x, 16, increasing=True)
    mono_from_vals = np.linalg.inv(vander)
    cheb_vander = np.polynomial.chebyshev.chebvander(x, 15)
    cheb_from_vals = np.linalg.inv(cheb_vander)
    return x, w, mono_from_vals, cheb_from_vals


_GL_X, _GL_W, _MONO_FROM_VALS, _CHEB_FROM_VALS = _gauss_basis()

# Factorial-style derivative extraction at s = 1: row n holds
# d^n/ds^n s^j | s=1 = j!/(j-n)!  for j >= n.
_END_DERIV = np.zeros((_DERIV_TERMS, 16))
for _n in range(_DERIV_TERMS):
    for _j in range(_n, 16):
        _END_DERIV[_n, _j] = math.perm(_j, _n)


@dataclass(frozen=True)
class SurvivalSeries:
    """Survival data on a time grid.

    amplitudes is None for probability-space asymptotic models, which
    carry no phase information.
    """

    times: np.ndarray
    probability: np.ndarray
    amplitudes: np.ndarray | None
    method: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.times.shape != self.probability.shape:
            raise DomainError("times and probability shapes differ")


@dataclass(frozen=True)
class AsymptoticModel:
    """Sum of inverse powers approximating the long-time survival.

    space "amplitude": A(t) ~ sum_m coeff_m (i t)^{-expo_m}, and the
    probability is the squared modulus.  space "probability":
    P(t) ~ sum_m coeff_m t^{-expo_m} directly.  origin records which
    construction produced the model ("one-term" or "multi-term").
    """

    origin: str
    space: str
    coefficients: tuple[float, ...]
    exponents: tuple[float, ...]
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.space not in ("amplitude", "probability"):
            raise DomainError(f"unknown model space {self.space!r}")
        if len(self.coefficients) != len(self.exponents):
            raise DomainError("coefficient/exponent length mismatch")

    def evaluate(self, times) -> SurvivalSeries:
        t = np.asarray(times, dtype=float)
        if np.any(t <= 0.0):
            raise DomainError("asymptotic models need t > 0")
        if self.space == "probability":
            p = np.zeros_like(t)
            for c, s in zip(self.coefficients, self.exponents):
                p = p + c * t ** (-s)
            return SurvivalSeries(times=t, probability=p, amplitudes=None,
                                  method=f"asymptote-{self.origin}",
                                  meta=dict(self.meta))
        amp = np.zeros(t.shape, dtype=complex)
        for c, s in zip(self.coefficients, self.exponents):
            # (i t)^{-s} with i = e^{i pi/2}: modulus t^{-s}, fixed phase
            amp = amp + c * t ** (-s) * np.exp(-0.5j * math.pi * s)
        return SurvivalSeries(times=t, probability=np.abs(amp) ** 2,
                              amplitudes=amp,
                              method=f"asymptote-{self.origin}",
                              meta=dict(self.meta))


# ----------------------------------------------------------------- #
# panel table                                                       #
# ----------------------------------------------------------------- #

@dataclass
class _PanelTable:
    mid: np.ndarray          # (P,)
    half: np.ndarray         # (P,)
    vals: np.ndarray         # (P, 16) density at Gauss nodes
    mono: np.ndarray         # (P, 16) monomial coefficients, scaled coord
    resid: np.ndarray        # (P,) absolute interpolation-residual scale
    e_max: float
    end_derivs: np.ndarray   # (D,) density derivatives at e_max
    sub_mass: float          # estimated integral below the lowest edge
    n_evals: int


def _eval_panels(omega: Callable, edges: np.ndarray):
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = mid[:, None] + half[:, None] * _GL_X[None, :]
    vals = omega(nodes.ravel()).reshape(nodes.shape)
    return mid, half, vals


def _interp(vals: np.ndarray):
    """Monomial coefficients and residual scale for panel node values."""
    mono = vals @ _MONO_FROM_VALS.T
    cheb = vals @ _CHEB_FROM_VALS.T
    resid = np.abs(cheb[:, -2]) + np.abs(cheb[:, -1])
    return mono, resid


def _build_table(omega: Callable, r_a: float, e_max: float) -> _PanelTable:
    """Adaptive panel table for int omega(E) e^{-iEt} dE on [0, e_max].

    Panels are bisected until their interpolation residual is within
    _PANEL_RTOL of their largest value; the density's evaluation error
    (a few parts in 1e11 away from beta ~ 1/2) stays below that.
    """
    geo_lo = _GEOM_EDGE * 2.0 ** -math.ceil(math.log2(_GEOM_EDGE / _GEOM_FLOOR))
    n_geo = round(math.log2(_GEOM_EDGE / geo_lo))
    geom = _GEOM_EDGE * 2.0 ** -np.arange(n_geo + 1, dtype=float)
    edges = [geom[::-1]]
    lo = _GEOM_EDGE
    if e_max <= 4.0:
        raise DomainError(f"e_max = {e_max:g} too small; need > 4")
    edges.append(np.linspace(lo, 4.0, 32)[1:])
    edges.append(np.linspace(4.0, 16.0, 25)[1:])
    hi_mid = min(70.0, e_max)
    edges.append(np.arange(17.0, hi_mid + 0.5, 1.0))
    if edges[-1][-1] != hi_mid:
        edges.append(np.asarray([hi_mid]))
    if e_max > 70.0:
        dk = math.pi / (4.0 * r_a)
        ks = np.arange(math.sqrt(70.0) + dk, math.sqrt(e_max), dk)
        edges.append(ks * ks)
        edges.append(np.asarray([e_max]))
    edges = np.concatenate(edges)

    mid, half, vals = _eval_panels(omega, edges)
    n_evals = vals.size
    mono, resid = _interp(vals)
    fixed = mid < _GEOM_EDGE  # geometric panels are self-similar; no refinement

    # adaptive bisection queue
    keep_mid, keep_half, keep_vals, keep_mono, keep_resid = \
        [mid[fixed]], [half[fixed]], [vals[fixed]], [mono[fixed]], [resid[fixed]]
    queue = [(float(m), float(h), v, c, float(r), 0)
             for m, h, v, c, r in zip(mid[~fixed], half[~fixed], vals[~fixed],
                                      mono[~fixed], resid[~fixed])]
    while queue:
        m, h, v, c, r, depth = queue.pop()
        if (r <= _PANEL_RTOL * float(np.max(np.abs(v))) or depth >= _MAX_DEPTH
                or h <= _MIN_WIDTH):
            keep_mid.append(np.asarray([m]))
            keep_half.append(np.asarray([h]))
            keep_vals.append(v[None, :])
            keep_mono.append(c[None, :])
            keep_resid.append(np.asarray([r]))
            continue
        if n_evals + 2 * _GL_X.size > _MAX_TABLE_EVALS:
            raise ResourceLimitError(
                f"panel table: {n_evals} density evaluations used, next "
                f"bisection would exceed the budget of {_MAX_TABLE_EVALS} "
                f"(panel [{m - h:.6g}, {m + h:.6g}] at depth {depth})")
        sub_edges = np.asarray([m - h, m, m + h])
        sm, sh, sv = _eval_panels(omega, sub_edges)
        n_evals += sv.size
        smono, sresid = _interp(sv)
        for i in range(2):
            queue.append((float(sm[i]), float(sh[i]), sv[i], smono[i],
                          float(sresid[i]), depth + 1))

    mid = np.concatenate(keep_mid)
    order = np.argsort(mid)
    mid = mid[order]
    half = np.concatenate(keep_half)[order]
    vals = np.concatenate(keep_vals, axis=0)[order]
    mono = np.concatenate(keep_mono, axis=0)[order]
    resid = np.concatenate(keep_resid)[order]

    # end derivatives from the last panel's interpolant:
    # d^n omega / dE^n = (d^n p / ds^n at s=1) / half^n
    last = mono[-1]
    h_last = half[-1]
    end = (_END_DERIV @ last) / h_last ** np.arange(_DERIV_TERMS)

    # mass below the lowest edge from the local power law
    e0, e1 = mid[0], mid[1]
    w0 = float(vals[0].mean()), float(vals[1].mean())
    local_p = math.log(w0[1] / w0[0]) / math.log(e1 / e0)
    cut = mid[0] - half[0]
    om_cut = float(omega(np.asarray([cut]))[0])
    sub_mass = om_cut * cut / (local_p + 1.0)

    return _PanelTable(mid=mid, half=half, vals=vals, mono=mono, resid=resid,
                       e_max=float(edges[-1]), end_derivs=end,
                       sub_mass=sub_mass, n_evals=n_evals)


def _table_mass(table: _PanelTable) -> float:
    """Integral of the tabulated density plus the sub-threshold mass."""
    return float(np.sum((table.vals @ _GL_W) * table.half)) + table.sub_mass


def _table_amplitudes(table: _PanelTable, t: np.ndarray):
    """A(t) for times t > 0, and the (T, 3) interpolation, truncation
    and sub-threshold parts of its error estimate.

    Panel p adds half e^{-i t mid} S_p(theta), theta = t half.  Below
    the phase switch S_p is the Gauss sum over the node pairs +-x, as
    cosines and sines; above it S_p = sum_j mono_j m_j with moments
    m_j = int_{-1}^{1} s^j e^{-i theta s} ds, real for even j and
    imaginary for odd j, from the upward integration-by-parts recursion
    in real arithmetic (stable there: j/theta stays near one).  With
    panels sorted by half-width and times ascending, the small-phase
    panels of each block of _TIME_BLOCK times are a prefix.
    """
    order = np.argsort(table.half, kind="stable")
    half, mid, mono = table.half[order], table.mid[order], table.mono[order]
    vw = table.vals[order] * _GL_W
    vsum, vdif = vw[:, 8:] + vw[:, 7::-1], vw[:, 7::-1] - vw[:, 8:]
    resid = table.resid[order] * half
    t_order = np.argsort(t)
    amps = np.empty(t.shape, dtype=complex)
    parts = np.empty(t.shape + (3,))
    for a in range(0, t.size, _TIME_BLOCK):
        idx = t_order[a:a + _TIME_BLOCK]
        theta = t[idx, None] * half
        small = theta <= _PHASE_SWITCH
        n_hi, n_lo = int(small[0].sum()), int(small[-1].sum())
        s_re, s_im = np.zeros(theta.shape), np.zeros(theta.shape)
        arg = theta[:, :n_hi, None] * _GL_X[8:]
        s_re[:, :n_hi] = np.einsum("bpk,pk->bp", np.cos(arg), vsum[:n_hi]) * small[:, :n_hi]
        s_im[:, :n_hi] = np.einsum("bpk,pk->bp", np.sin(arg), vdif[:n_hi]) * small[:, :n_hi]
        # moments; small-phase entries are clamped to stay finite, then masked
        th = np.maximum(theta[:, n_lo:], _PHASE_SWITCH)
        inv, cos2, sin2 = 1.0 / th, 2.0 * np.cos(th), 2.0 * np.sin(th)
        r = sin2 * inv
        m_re, m_im = mono[n_lo:, 0] * r, np.zeros(th.shape)
        for j in range(1, 16):
            if j % 2:  # m_j = -i r_j
                r = (j * r - cos2) * inv
                m_im -= mono[n_lo:, j] * r
            else:
                r = (sin2 - j * r) * inv
                m_re += mono[n_lo:, j] * r
        big = ~small[:, n_lo:]
        s_re[:, n_lo:] += m_re * big
        s_im[:, n_lo:] += m_im * big
        ph = t[idx, None] * mid
        cp, sp = np.cos(ph), np.sin(ph)
        # pairwise sums over panels: a BLAS dot here loses ~2 ulp at t ~ 0.1
        amps[idx] = (np.sum((cp * s_re + sp * s_im) * half, axis=1)
                     + 1j * np.sum((cp * s_im - sp * s_re) * half, axis=1))
        parts[idx, 0] = np.minimum(1.0, 4.0 / theta) @ resid

    # truncated tail by parts: e^{-iEt} sum_n d_n / (it)^{n+1}
    it = 1j * t
    tail = sum(table.end_derivs[n] / it ** (n + 1) for n in range(_DERIV_TERMS))
    amps += tail * np.exp(-1j * table.e_max * t)
    parts[:, 1] = abs(table.end_derivs[-1]) / t ** _DERIV_TERMS
    parts[:, 2] = table.sub_mass
    return amps, parts


def _envelope_tail(k_a: float, r_a: float, e_max: float) -> float:
    """Mass of the density beyond e_max from its high-energy envelope.

    Leading secular term plus the first oscillatory correction from
    integrating the squared inner-well oscillation by parts; leaves a
    residual two powers of momentum further down.
    """
    k = math.sqrt(e_max)
    lead = 2.0 * k_a ** 2 / (math.pi * r_a)
    return lead * (e_max ** -1.5 / 3.0
                   + math.sin(2.0 * r_a * k) / (2.0 * r_a * k ** 4))


def _pick_e_max(r_a: float, times: np.ndarray) -> float:
    pos = times[times > 0.0]
    t_min = float(np.min(pos)) if pos.size else 1.0
    t_min = max(t_min, 0.05)
    e_max = max(64.0, (3.0 * r_a / t_min) ** 2)
    if np.any(times == 0.0):
        # t = 0 leans on the envelope estimate of the truncated mass,
        # whose own error only drops fast enough beyond this scale
        e_max = max(e_max, 2500.0)
    return min(e_max, 4.0e4)


def survival_exact(density: SpectralDensity, times, *,
                   abs_tol: float = 1.0e-8, e_max: float | None = None
                   ) -> SurvivalSeries:
    """Exact survival probability by direct oscillatory quadrature.

    The density is tabulated once on adaptive panels covering
    [~1e-13, e_max], and all requested times are evaluated together
    from the table, in blocks of _TIME_BLOCK times.  The achieved-error
    estimate (interpolation residuals, damped by phase mixing, plus the
    next-order truncation correction and the sub-threshold mass) is
    checked against abs_tol per time; failure raises with the worst
    offender reported.  meta gives the worst estimate, its three parts
    at that time (error_parts) and the table and amplitude stage times
    in seconds.  P(0) includes the analytic estimate of mass beyond
    e_max so the normalization limit is reproduced.
    """
    t_arr = np.atleast_1d(np.asarray(times, dtype=float)).copy()
    if np.any(t_arr < 0.0):
        raise DomainError("survival times must be >= 0")
    if e_max is None:
        e_max = _pick_e_max(density.pot.r_a, t_arr)
    start = time.perf_counter()
    table = _build_table(density.omega, density.pot.r_a, e_max)
    table_s = time.perf_counter() - start

    amps = np.empty(t_arr.shape, dtype=complex)
    parts = np.empty(t_arr.shape + (3,))
    pos = t_arr > 0.0
    amps[pos], parts[pos] = _table_amplitudes(table, t_arr[pos])
    if not pos.all():
        # t = 0: the whole mass, with the envelope of the density beyond e_max
        amps[~pos] = _table_mass(table) + _envelope_tail(
            density.init.k_a, density.pot.r_a, table.e_max)
        parts[~pos] = (float(np.sum(table.resid * table.half)), 0.0,
                       abs(table.sub_mass) * 0.5)
    amplitude_s = time.perf_counter() - start - table_s

    ests = parts.sum(axis=1)
    i_bad = int(np.argmax(ests))
    worst = float(ests[i_bad])
    if worst > abs_tol:
        raise ToleranceError(
            f"quadrature error estimate {worst:.3e} at t = {t_arr[i_bad]:g} "
            f"exceeds abs_tol = {abs_tol:.3e}; increase e_max or abs_tol")

    prob = np.abs(amps) ** 2
    meta = {"e_max": table.e_max, "panels": int(table.mid.size),
            "density_evals": table.n_evals,
            "max_error_estimate": worst,
            "error_parts": dict(zip(("interpolation", "truncation", "sub_threshold"),
                                    parts[i_bad].tolist())),
            "table_s": table_s, "amplitude_s": amplitude_s}
    return SurvivalSeries(times=t_arr, probability=prob, amplitudes=amps,
                          method="exact", meta=meta)


def spectral_mass(density: SpectralDensity, e_hi: float = 4.0e4) -> float:
    """Integral of the density over [0, e_hi] plus the envelope tail."""
    table = _build_table(density.omega, density.pot.r_a, float(e_hi))
    return _table_mass(table) + _envelope_tail(density.init.k_a, density.pot.r_a,
                                               table.e_max)


# ----------------------------------------------------------------- #
# rotated-contour representation                                    #
# ----------------------------------------------------------------- #

# Rotated-axis rule on [0, u_max]: width-4 panels above u = 4, and
# below it panels halving toward u = 0 down to 4 * 2^-48 ~ 1.4e-14, so
# the u^nu threshold factor is smooth on each (the skipped sliver weighs
# ~1.4e-14 relative).  Weight column 0 is the 16-point Gauss sum, column
# 1 its companion, the degree-13 interpolant on the same nodes (the sum
# less its T_14 term; T_15 integrates to zero); both include e^{-u}.
_LAPLACE_U_MAX = 40.0
_LAPLACE_BLOCK = 200_000  # density evaluations per call
_edges = np.concatenate((4.0 * 2.0 ** -np.arange(48.0, 0.0, -1.0),
                         np.arange(4.0, _LAPLACE_U_MAX + 1.0, 4.0)))
_half = 0.5 * (_edges[1:] - _edges[:-1])
_LAPLACE_U = (0.5 * (_edges[1:] + _edges[:-1])[:, None] + _half[:, None] * _GL_X).ravel()
_LAPLACE_W = np.exp(-_LAPLACE_U)[:, None] * np.kron(_half[:, None], np.stack(
    (_GL_W, _GL_W - 2.0 / (1.0 - 14.0 ** 2) * _CHEB_FROM_VALS[14]), axis=1))


def survival_laplace_axis(density: SpectralDensity, times, *,
                          form: str = "continued") -> SurvivalSeries:
    """Long-time amplitude from the negative imaginary energy axis.

    With E = -i x and then x = u / t,

        A_v(t) = (-i / t) int_0^{u_max} e^{-u} omega(-i u / t) du,

    u_max = 40.  The integrand is smooth apart from its u^nu threshold
    factor, so one fixed composite Gauss-Legendre rule serves every
    time, through vectorized density calls of at most _LAPLACE_BLOCK
    nodes; accuracy is t-independent.  meta reports the nodes per time
    and, as error estimate, the largest relative difference from the
    rule's degree-13 companion.  form "continued" uses the full
    continued density; form "threshold" uses its three-term threshold
    refinement, valid once u_max / t is small against the potential
    scales.  This is the contour part only: it omits the resonance-pole
    contribution, which is significant roughly below t ~ 200 for the
    reference parameters.
    """
    if form not in ("continued", "threshold"):
        raise DomainError(f"unknown laplace-axis form {form!r}")
    fn = density.omega if form == "continued" else density.threshold_pade_omega
    t_arr = np.atleast_1d(np.asarray(times, dtype=float)).copy()
    if np.any(t_arr <= 0.0):
        raise DomainError("laplace-axis evaluation needs t > 0")

    sums = np.empty((t_arr.size, 2), dtype=complex)
    step = _LAPLACE_BLOCK // _LAPLACE_U.size
    for a in range(0, t_arr.size, step):
        e = -1j * _LAPLACE_U[None, :] / t_arr[a:a + step, None]
        sums[a:a + step] = fn(e.ravel()).reshape(e.shape) @ _LAPLACE_W
    amps = -1j * sums[:, 0] / t_arr
    rel_err = np.abs(sums[:, 0] - sums[:, 1]) / np.abs(sums[:, 0])
    prob = np.abs(amps) ** 2
    meta = {"u_max": _LAPLACE_U_MAX, "form": form, "nodes": int(_LAPLACE_U.size),
            "max_rel_error_estimate": float(np.max(rel_err))}
    return SurvivalSeries(times=t_arr, probability=prob, amplitudes=amps,
                          method=f"laplace-{form}", meta=meta)


# ----------------------------------------------------------------- #
# asymptotic models                                                 #
# ----------------------------------------------------------------- #

def asymptote_one_term(coeffs: ThresholdCoeffs) -> AsymptoticModel:
    """Leading long-time power law in probability space.

    P(t) ~ density_scale^2 Gamma(beta + 3/2)^2 t^{-(2 beta + 3)}.
    """
    g = gamma(coeffs.beta + 1.5)
    amp = (coeffs.density_scale * g) ** 2
    return AsymptoticModel(origin="one-term", space="probability",
                           coefficients=(amp,),
                           exponents=(2.0 * coeffs.beta + 3.0,),
                           meta={"beta": coeffs.beta, "nu": coeffs.nu})


def asymptote_series(coeffs: ThresholdCoeffs, n_terms: int = 4
                     ) -> AsymptoticModel:
    """Multi-term amplitude-space asymptote from the threshold series.

    A_v(t) ~ sum_{m=1}^{M} c_m Gamma(1 + m nu) (i t)^{-(1 + m nu)}
    with c_m the threshold density-series coefficients.  Needed for
    attractive tails, where consecutive exponents are closely spaced
    and a single term misrepresents finite-time behaviour.
    """
    series = coeffs.require_series()
    if not 1 <= n_terms <= len(series):
        raise DomainError(
            f"n_terms must be in [1, {len(series)}], got {n_terms}")
    nu = coeffs.nu
    cs, es = [], []
    for m in range(1, n_terms + 1):
        cs.append(series[m - 1] * gamma(1.0 + m * nu))
        es.append(1.0 + m * nu)
    return AsymptoticModel(origin="multi-term", space="amplitude",
                           coefficients=tuple(cs), exponents=tuple(es),
                           meta={"beta": coeffs.beta, "nu": nu,
                                 "n_terms": n_terms})
