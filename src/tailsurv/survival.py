"""Survival amplitude and probability of the decaying state.

The exact amplitude is the oscillatory integral

    A(t) = int_0^inf omega(E) exp(-i E t) dE ,

evaluated by a panel table built once per time grid: the density is
interpolated on each panel by a degree-15 polynomial at fixed
Gauss-Legendre nodes, and each panel contributes either its Gauss sum,
from one half-angle tangent per node pair (phase turn t * half_width at
most 4), or the exact integral of its polynomial times the exponential,
by parts in closed form (16 terms), both exact to rounding at 4; all
times are evaluated together, in blocks, in real arithmetic, each block
with one table of panel sums, one phase factor per (panel, time) pair
and one sum over panels.  The panels start as geometrically shrinking
ones down to E ~ 1e-13, for the threshold power law, and uniform ones in
k = sqrt(E) above; one refinement loop then bisects, level by level,
every panel whose interpolant misses its target (the resonance peak
chiefly), evaluating two levels per density call.  Each time sums only
the panels of its own energy window this way.  The panels wholly below
E = 1/t enter as one Taylor series in -it over the table's cumulative
energy moments.  The density above the window's top e_cut, the table
end that t / 2 would need (4x per deeper table, at most e_max), is
summed by parts from the derivatives of the interpolant of the panel
below e_cut, with its truncation stated from the last one at e_cut or
mid-panel, whichever is larger.  A density averaging 0 (underflowed) or
NaN on the two lowest panels is refused after the first density call.

The long-time representation rotates the contour onto the negative
imaginary energy axis,

    A_v(t) = -i int_0^inf dx exp(-x t) omega(-i x),

which is non-oscillatory; with x = u / t one fixed composite
Gauss-Legendre rule in u serves every time, on the continued density
(or its threshold refinement).  Its lowest panels, as many as the
threshold power law u^nu (nu = beta + 1/2) leaves negligible, are
replaced by that law's integral in closed form.  Expanding that
integral at the threshold yields the inverse-power asymptotic models,
with everything beyond A_v (the resonance-pole part) decaying
exponentially and read off the exact amplitude instead.  A time whose
sum on the axis is not finite is refused.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, ResourceLimitError, ToleranceError
from .model import _horner, _sincos, _tan_half, _vector
from .spectral import SpectralDensity, ThresholdCoeffs

# Phase turn t * half_width above which a panel switches from the
# direct Gauss sum to the closed form, where both are exact to rounding.  On
# the reference well's 8100-deep tables, per panel over its largest node
# value, the Gauss sum is within 7.7e-16 of the exact integral up to theta = 6
# (1.4e-14 at 8, 3.4e-12 at 10), the closed form within 1.2e-15 from 4 up
# (1.4e-15 at 3, 1.0e-14 at 2).
_PHASE_SWITCH = 4.0

# Relative interpolation residual target per panel, and the narrowest bisected.
_PANEL_RTOL = 5.0e-10
_MIN_WIDTH = 1.0e-8

# Cap on density evaluations per panel table.  On the reference geometry
# tables take 1776-1968 at e_max = 64 (the sweep's), 7936-8128 at 4e4
# (`spectral_mass`, grids that hold t = 0) and ~24 000 at the 5.2e5 that
# survival_exact deepens to from t = 0.001; without a cap, a density whose
# evaluation error exceeds _PANEL_RTOL would bisect toward _MIN_WIDTH for
# minutes and gigabytes.
_MAX_TABLE_EVALS = 200_000

# Outer edge of the geometric threshold panels, where the panels
# uniform in k begin; below their last edge (~5.7e-14) the remaining
# mass is added as a power-law estimate.
_GEOM_EDGE = 0.25
_GEOM_FLOOR = 1.0e-13

_DERIV_TERMS = 6  # integration-by-parts tail depth
_MOMENT_TERMS = 20  # Taylor terms for the panels below E t = 1 (even)
# E^m / m! is built up one factor E / m at a time
_MOMENT_STEPS = 1.0 / np.arange(1.0, _MOMENT_TERMS)[:, None, None]

# Top of the `spectral_mass` table, of a grid holding t = 0, and of the e_max
# `survival_exact` starts from (it deepens past it only where the truncation
# breaks abs_tol): P(0) is that mass squared bit for bit.
_MASS_E_HI = 4.0e4

# Times per block of the batched amplitude.  The largest temporaries are
# two (8, Gauss rows, block) float arrays for the Gauss sums, ~0.7 MB
# each at the CLI grid's shortest times (177 of its 229 panels); its
# amplitude stage peaks at 2.7 MB (1.7 MB at 32, 4.4 MB at 128).  64
# keeps a sweep's 50 times in one block (32 cost it 1.3x).  survive-grid
# op_p50_s in the harness, 2-vCPU x86-64 with a 2 MB L2 per core, against
# 64: 32 is 13% slower, 96 and 128 are 2-4% faster at +1.6 and +0.3 MB
# peak RSS, and 256 is 33% slower; 64 stays, two doublings below that cliff.
_TIME_BLOCK = 64


_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)
# Chebyshev coefficients in s of the interpolant through the 16 node values
_CHEB_FROM_VALS = np.linalg.inv(np.polynomial.chebyshev.chebvander(_GL_X, 15))

# Derivatives of T_j at s = 1 and -1: row n holds T_j^(n)(1) = prod_{k<n} (j^2 - k^2)
# / (2k + 1), an integer rounded once, and T_j^(n)(-1) = (-1)^(j-n) T_j^(n)(1).
_DERIV_HI = np.array([[math.prod(j * j - k * k for k in range(n)) // math.prod(range(1, 2 * n, 2))
                       for j in range(16)] for n in range(16)], float)
_DERIV_LO = _DERIV_HI * (-1.0) ** np.subtract.outer(np.arange(16), np.arange(16))
# T_j^(n)(0), n = _DERIV_TERMS - 1: the by-parts tail's last derivative mid-panel
_DERIV_MID = np.polynomial.chebyshev.chebval(
    0.0, np.polynomial.chebyshev.chebder(np.eye(16), _DERIV_TERMS - 1))
# Powers n + 1 of 1/t in the closed form, even n then odd n: (2, 1, 8, 1).
_POWERS = np.arange(1.0, 17.0).reshape(8, 2).T.reshape(2, 1, 8, 1)
# q^(n)(-1) + q^(n)(1) and q^(n)(-1) - q^(n)(1) from the Chebyshev
# coefficients of q, signed (-1)^(n//2): (sum/difference, j, n)
_END_COMBOS = (np.stack((_DERIV_LO + _DERIV_HI, _DERIV_LO - _DERIV_HI)).transpose(0, 2, 1)
               * (-1.0) ** (np.arange(16) // 2))


@dataclass(frozen=True)
class SurvivalSeries:
    """Survival data on a time grid.

    amplitudes is None for probabilities read back from a file, which
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
    """Sum of inverse powers approximating the long-time amplitude.

    A(t) ~ sum_m coeff_m (i t)^{-expo_m}, and the probability is its
    squared modulus.  origin records which construction produced the
    model ("one-term" or "multi-term").
    """

    origin: str
    coefficients: tuple[float, ...]
    exponents: tuple[float, ...]
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.coefficients) != len(self.exponents):
            raise DomainError("coefficient/exponent length mismatch")

    def evaluate(self, times) -> SurvivalSeries:
        t = _vector(times, "times", float)[0]
        if np.any(t <= 0.0):
            raise DomainError("asymptotic models need t > 0")
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
    coef: np.ndarray         # (P, 16) Chebyshev coefficients of the interpolant in s
    resid: np.ndarray        # (P,) absolute interpolation-residual scale
    depth: np.ndarray        # (P,) bisection level; 0 for an initial panel
    r_a: float
    e_max: float
    sub_mass: float          # estimated integral below the lowest edge
    n_evals: int


def _eval_panels(omega: Callable, mid: np.ndarray, half: np.ndarray):
    """Density at the Gauss nodes of every panel, in one call."""
    nodes = mid[:, None] + half[:, None] * _GL_X
    return omega(nodes.ravel()).reshape(nodes.shape)


def _bisect(mid: np.ndarray, half: np.ndarray):
    """Both halves of every panel, left then right, in panel order."""
    half = 0.5 * half
    return np.stack((mid - half, mid + half), axis=1).ravel(), np.repeat(half, 2)


def _interp(vals: np.ndarray):
    """Chebyshev coefficients and residual scale for panel node values."""
    coef = vals @ _CHEB_FROM_VALS.T
    return coef, np.abs(coef[:, -2]) + np.abs(coef[:, -1])


def _initial_panels(r_a: float, e_max: float):
    """Middles and half-widths of `_build_table`'s initial panels, e_max > _GEOM_EDGE."""
    n_geo = math.ceil(math.log2(_GEOM_EDGE / _GEOM_FLOOR))
    k_lo, k_hi = math.sqrt(_GEOM_EDGE), math.sqrt(e_max)
    ks = np.linspace(k_lo, k_hi, math.ceil((k_hi - k_lo) * 2.0 * r_a / math.pi) + 1)
    edges = np.concatenate((_GEOM_EDGE * 2.0 ** -np.arange(n_geo, 0, -1.0), ks * ks))
    edges[-1] = e_max
    return 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])


def _build_table(omega: Callable, r_a: float, e_max: float) -> _PanelTable:
    """Adaptive panel table for int omega(E) e^{-iEt} dE on [0, e_max].

    The initial panels halve geometrically from _GEOM_EDGE toward
    _GEOM_FLOOR and are uniform in k = sqrt(E) from _GEOM_EDGE to e_max,
    at most pi / (2 r_a) wide: half a period of the well factor
    sin^2(k_I r_a).  Each bisection level keeps the panels whose
    interpolation residual is within _PANEL_RTOL of their largest value
    (or that reached _MIN_WIDTH) and bisects the rest, until every panel
    is kept or the next level would pass _MAX_TABLE_EVALS
    (ResourceLimitError); the density's evaluation error (up to 1.2e-10
    relative, from the series at |k r_d| just below 12.5 for orders with
    nu - n near -1/2) stays below that 5e-10 target.  Level 0 evaluates
    the initial panels in one density call; each later call evaluates the
    pending panels together with both halves of each (16 + 32 nodes per
    panel), so the halves of a rejected panel are judged at the next
    level without a call of their own.  That saves one call per two
    levels past the first at the price of the halves of accepted panels,
    evaluated and dropped (n_evals counts them); nearly every table
    bisects at least twice, at the resonance peak.  Level 0 refuses a
    density averaging 0 or NaN on the two lowest panels.
    """
    mid, half = _initial_panels(r_a, e_max)
    kept, n_evals, vals = [], 0, None
    for depth in itertools.count():
        kids = None
        if vals is None:
            ahead = depth > 0
            n_call = (3 if ahead else 1) * mid.size * _GL_X.size
            if n_evals + n_call > _MAX_TABLE_EVALS:
                raise ResourceLimitError(
                    f"panel table: {n_evals} density evaluations used, bisection "
                    f"level {depth} ({mid.size} panels from E = {mid[0] - half[0]:.6g}) "
                    f"would exceed the budget of {_MAX_TABLE_EVALS}")
            if ahead:
                kids = _bisect(mid, half)
                vals = _eval_panels(omega, np.concatenate((mid, kids[0])),
                                    np.concatenate((half, kids[1])))
                vals, kids = vals[:mid.size], (*kids, vals[mid.size:])
            else:
                vals = _eval_panels(omega, mid, half)
            n_evals += n_call
            # the power fit below the table takes the two lowest panels' means
            if depth == 0 and not (w := vals[:2].mean(axis=1)).min() > 0.0:
                raise ToleranceError(
                    f"table stage: the density averages {w[0]:g} and {w[1]:g} on the two "
                    f"lowest panels, E = {mid[0] - half[0]:.6g} to {mid[1] + half[1]:.6g}: "
                    "it underflowed or is NaN, which no e_max or abs_tol mends")
        coef, resid = _interp(vals)
        done = (resid <= _PANEL_RTOL * np.max(np.abs(vals), axis=1)) | (half <= _MIN_WIDTH)
        kept.append((mid[done], half[done], vals[done], coef[done], resid[done]))
        if done.all():
            break
        if kids is None:
            (mid, half), vals = _bisect(mid[~done], half[~done]), None
        else:   # the halves of the rejected panels, already evaluated
            mid, half, vals = (a[np.repeat(~done, 2)] for a in kids)
    return _table_from_levels(kept, r_a, e_max, n_evals)


def _table_from_levels(kept: list, r_a: float, e_max: float, n_evals: int) -> _PanelTable:
    """The table from the accepted panels of each bisection level, a list
    of (mid, half, vals, coef, resid) tuples from level 0 on."""
    order = np.argsort(np.concatenate([level[0] for level in kept]))
    mid, half, vals, coef, resid = (np.concatenate(c)[order] for c in zip(*kept))
    depth = np.repeat(np.arange(len(kept)), [level[0].size for level in kept])[order]

    # mass below the lowest edge: the power law through the first two panels' means
    w0, w1 = float(vals[0].mean()), float(vals[1].mean())
    local_p = math.log(w1 / w0) / math.log(mid[1] / mid[0])
    cut = mid[0] - half[0]
    sub_mass = float(coef[0] @ (-1.0) ** np.arange(16)) * cut / (local_p + 1.0)

    return _PanelTable(mid=mid, half=half, vals=vals, coef=coef, resid=resid,
                       depth=depth, r_a=float(r_a), e_max=float(e_max),
                       sub_mass=sub_mass, n_evals=n_evals)


def _mass(table: _PanelTable, k_a: float) -> float:
    """Integral of the tabulated density, plus the sub-threshold mass and
    the envelope of the density beyond e_max (`_envelope_tail`)."""
    return (float(np.sum((table.vals @ _GL_W) * table.half)) + table.sub_mass
            + _envelope_tail(k_a, table.r_a, table.e_max))


def _e_needed(r_a: float, t):
    """Energy a table must reach for time t, and at least 64: the density
    oscillates in E at a rate ~r_a / sqrt(E), so beyond this each by-parts
    term of the truncated tail is ~1/3 of the one before."""
    return np.maximum(64.0, (3.0 * r_a / t) ** 2)


def _windows(table: _PanelTable, t: np.ndarray, reach: float = 1.0):
    """Each time's window [lo, hi) of panels, in energy order, and its top
    edge e_cut.

    The panels below lo lie wholly at E <= 1/t.  Those from hi up lie
    above e_cut, the lowest edge at or above reach * _e_needed(r_a, t / 2)
    (at most e_max) that tops an unbisected panel or the table; reach is
    how many times deeper than its first table `survival_exact` has
    built.  Those panels are uniform in k, ~k pi / r_a wide in E, never a
    bisection sliver, so the derivatives at a cut below e_max are not
    divided by a sliver's half-width to high powers.
    """
    edge = table.mid + table.half
    tops = np.append(np.flatnonzero(table.depth[:-1] == 0), edge.size - 1)
    k = np.searchsorted(edge[tops],
                        np.minimum(reach * _e_needed(table.r_a, 0.5 * t), table.e_max))
    hi = tops[np.minimum(k, tops.size - 1)] + 1
    lo = np.minimum(np.searchsorted(edge, 1.0 / t, side="right"), hi)
    return lo, hi, np.where(hi == edge.size, table.e_max, edge[hi - 1])


def _panel_sum(x: np.ndarray) -> np.ndarray:
    """Sum over the panels (axis 0) of a block, in panel order: numpy sums
    (panel, time) row by row, but a lone (panel, 1) column pairwise."""
    return x.sum(axis=0) if x.shape[1] > 1 else np.cumsum(x, axis=0)[-1:].sum(axis=0)


def _table_amplitudes(table: _PanelTable, t: np.ndarray, windows=None):
    """A(t) for times t > 0, and the (T, 3) interpolation, truncation
    and sub-threshold parts of its error estimate.

    Each time sums the panels of its own window one by one (`_windows`,
    whose result a caller that has it passes as windows).  Panel p adds
    half e^{-i t mid} S_p(theta), theta = t half (half is in the
    tables).  Below the switch S_p is the Gauss sum over the node
    pairs +-x, cos = c - 1 and sin = u c by u = tan(theta x/2) and
    c = 2/(1+u^2); above it S_p is the panel interpolant q by parts,
    sum_{n<16} [q^(n)(-1) e^{i theta} - q^(n)(1) e^{-i theta}] / (i theta)^(n+1),
    whose four real sums over n are one matrix product per block of
    _TIME_BLOCK times.  Block arrays are (panel, time): the Gauss sums
    run node-major over (8, panel, time) into one table of S_p, the
    closed form replaces them above the switch, and the table, masked by
    each time's window, times e^{-i t mid} is summed panel after panel
    once, a pair outside its window adding an exact zero, so blocks of
    two or more times give the same bits.
    The panels below the window, where E t <= 1, are one Taylor series
    sum_{m<20} (-it)^m M_m / m! in the cumulative energy moments M_m of
    the Gauss node values, whose truncation is <= 1/20! ~ 4e-19 of their
    mass.  Those above it are the by-parts tail at e_cut,
    e^{-i e_cut t} sum_n d_n / (it)^(n+1), from the derivatives d_n of
    the panel below e_cut.  The interpolation part sums, in panel order
    too, the residuals of the panels below e_cut (damped by phase mixing
    in the window), and the truncation part is |d_5| / t^6, the larger of
    d_5 at e_cut and at its panel's middle, e_max included.  Also returns
    the number of (time, panel) pairs summed by the Gauss rule.
    """
    lo, hi, e_cut = _windows(table, t) if windows is None else windows
    half, mid = table.half, table.mid
    vw = table.vals * _GL_W * half[:, None]
    resid = table.resid * half

    # below the windows: cumulative moments of the panels up to the lowest
    # window, v w half E^m / m! summed over each panel's nodes
    n_low = int(lo.max(initial=0))
    step = (mid[:n_low, None] + half[:n_low, None] * _GL_X) * _MOMENT_STEPS
    terms = np.empty((_MOMENT_TERMS, n_low, 16))
    terms[0] = vw[:n_low]
    for m in range(1, _MOMENT_TERMS):
        np.multiply(terms[m - 1], step[m - 1], out=terms[m])
    mom = np.zeros((n_low + 1, _MOMENT_TERMS))
    np.cumsum((terms @ np.ones(16)).T, axis=0, out=mom[1:])
    mom = mom[lo]
    # Horner in -t^2 over even and odd m: (-it)^(2j) = (-t^2)^j
    w = -t * t
    amps = _horner(mom.T[0::2], w) - 1j * t * _horner(mom.T[1::2], w)
    parts = np.empty(t.shape + (3,))
    parts[:, 0] = np.concatenate(([0.0], np.cumsum(resid[:n_low])))[lo]

    # the panels in some window, [p0, p1)
    p0, p1 = int(lo.min(initial=mid.size)), int(hi.max(initial=0))
    vsum, vdif = vw[p0:p1, 8:] + vw[p0:p1, 7::-1], vw[p0:p1, 7::-1] - vw[p0:p1, 8:]
    vsum_tot = vsum.sum(axis=1)   # sum v cos = sum v c - sum v
    # the end combinations over half^n, as (parity of n, sum/difference,
    # panel, n // 2)
    ends = table.coef[p0:p1] @ _END_COMBOS
    ends /= half[p0:p1, None] ** np.arange(16.0)
    ends = np.ascontiguousarray(ends.reshape(2, -1, 8, 2).transpose(3, 0, 1, 2))
    t_order, n_small = np.argsort(t), 0
    rows = np.arange(mid.size)[:, None]
    for a in range(0, t.size, _TIME_BLOCK):
        idx = t_order[a:a + _TIME_BLOCK]
        tb = t[idx]
        # lo and hi fall as t rises: the block's windows span [b0, b1)
        b0, b1 = lo[idx[-1]], hi[idx[0]]
        win = (rows[b0:b1] >= lo[idx]) & (rows[b0:b1] < hi[idx])
        theta = half[b0:b1, None] * tb
        small = theta <= _PHASE_SWITCH
        n_small += int(np.count_nonzero(small & win))
        # S_p(theta) = s_re + i s_im: the Gauss sum on the rows where the
        # block's smallest t is below the switch, the closed form where
        # theta is above it, on the rows where the largest t is
        s_re, s_im = np.empty_like(theta), np.empty_like(theta)
        g = np.flatnonzero(small[:, 0])
        u = _tan_half(theta[g], _GL_X[8:, None, None])   # node-major: (8, row, time)
        cc = np.square(u)
        np.divide(2.0, np.add(cc, 1.0, out=cc), out=cc)
        s_re[g] = np.einsum("kpb,pk->pb", cc, vsum[g + b0 - p0]) - vsum_tot[g + b0 - p0, None]
        u *= cc
        s_im[g] = np.einsum("kpb,pk->pb", u, vdif[g + b0 - p0])
        del u, cc
        c = np.flatnonzero(~small[:, -1])
        with np.errstate(over="ignore", invalid="ignore"):  # at small theta, replaced
            (e_sum, e_dif), (o_sum, o_dif) = ends[:, :, c + (b0 - p0)] @ tb ** -_POWERS
            sin2, cos2 = _sincos(theta[c])
            s_re[c] = np.where(small[c], s_re[c], sin2 * e_sum - cos2 * o_dif)
            s_im[c] = np.where(small[c], s_im[c], -(cos2 * e_dif + sin2 * o_sum))
        # S is finite at every pair of a finite table, so a pair outside its
        # window adds an exact zero to the panel sum: no sum depends on the block
        s_re *= win
        s_im *= win
        sp, cp = _sincos(tb, mid[b0:b1, None])
        amps[idx] += _panel_sum(cp * s_re + sp * s_im) + 1j * _panel_sum(cp * s_im - sp * s_re)
        damp = np.minimum(1.0, 4.0 / theta) * resid[b0:b1, None]
        parts[idx, 0] += np.where(win, damp, 0.0).sum(axis=0)

    # above the windows, by parts at e_cut: e^{-iEt} sum_n d_n / (it)^{n+1}, d_n = q^(n)(1) / half^n
    coef, h_cut = table.coef[hi - 1], table.half[hi - 1, None]
    d = (coef @ _DERIV_HI[:_DERIV_TERMS].T) / h_cut ** np.arange(_DERIV_TERMS)
    x = -1j / t   # 1 / (it)
    amps += _horner(d.T, x) * x * np.exp(-1j * e_cut * t)
    # the last derivative may nearly vanish at e_cut as the density
    # oscillates, so its value mid-panel, a quarter period of the well factor
    # away, bounds it too: on the small well's first CLI-grid table (e_cut =
    # e_max = 324) the tail at t = 0.1 is off by 1.48e-6, the edge value gives
    # 2.11e-9 and the mid-panel one 1.15e-6, which deepens the table
    mid_last = np.abs(coef @ _DERIV_MID) / h_cut[:, 0] ** (_DERIV_TERMS - 1)
    parts[:, 1] = np.maximum(np.abs(d[:, -1]), mid_last) / t ** _DERIV_TERMS
    parts[:, 2] = table.sub_mass
    return amps, parts, n_small


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
    """The e_max `survival_exact` starts from: `_e_needed` at the smallest
    time (from 0.05 on), at most _MASS_E_HI, which a grid holding t = 0 takes."""
    pos = times[times > 0.0]
    t_min = float(np.min(pos)) if pos.size else 1.0
    return (_MASS_E_HI if np.any(times == 0.0)
            else min(float(_e_needed(r_a, max(t_min, 0.05))), _MASS_E_HI))


def survival_exact(density: SpectralDensity, times, *, abs_tol: float = 1.0e-8
                   ) -> SurvivalSeries:
    """Exact survival probability by direct oscillatory quadrature.

    The density is tabulated on adaptive panels covering [~1e-13, e_max], and
    all requested times are evaluated together from the table, in blocks of
    _TIME_BLOCK times.  Each time t > 0 sums its own energy window panel by
    panel: below E = 1/t one moment series stands for the panels, and above
    e_cut, the table end that t / 2 would ask for (at most e_max), the by-parts
    tail does.  The achieved-error estimate (interpolation residuals below
    e_cut, damped by phase mixing, plus the next-order truncation correction,
    the larger of its values at e_cut and mid-panel below it, e_max included,
    and the sub-threshold mass) is checked against abs_tol (> 0, or
    DomainError) per time.  e_max starts at `_pick_e_max`'s; while the worst
    time's finite estimate fails with its truncation as the largest part, the
    table is built again to 4 e_max and every time's cut target moves 4x with
    it, each build within _MAX_TABLE_EVALS (or ResourceLimitError).  Failure
    raises with the worst offender reported.  meta gives the final e_max, the
    builds (table_builds), the estimate per time (error_estimate), the worst
    one, its three parts at that time (error_parts), e_cut per time (e_max at
    t = 0), the (time > 0, panel) pairs summed by Gauss rule, in closed form,
    by the moment series and by the tail (small_phase_pairs,
    large_phase_pairs, low_energy_pairs, beyond_cut_pairs), and the density
    evaluations and the table and amplitude stage seconds of all builds.
    """
    if not abs_tol > 0.0:   # NaN too
        raise DomainError(f"abs_tol must be positive, got {abs_tol:g}")
    t_arr = _vector(times, "survival times", float)[0].copy()
    if np.any(t_arr < 0.0):
        raise DomainError("survival times must be >= 0")
    e_max = e_start = _pick_e_max(density.pot.r_a, t_arr)
    pos = t_arr > 0.0
    builds, n_evals, table_s, amplitude_s = 0, 0, 0.0, 0.0
    while True:
        start = time.perf_counter()
        table = _build_table(density.omega, density.pot.r_a, e_max)
        split = time.perf_counter()
        builds, n_evals, table_s = builds + 1, n_evals + table.n_evals, table_s + split - start
        amps, parts = np.empty(t_arr.shape, dtype=complex), np.empty(t_arr.shape + (3,))
        e_cut = np.full(t_arr.shape, table.e_max)
        lo, hi, e_cut[pos] = windows = _windows(table, t_arr[pos], e_max / e_start)
        amps[pos], parts[pos], n_small = _table_amplitudes(table, t_arr[pos], windows)
        if not pos.all():
            # t = 0: the whole mass, with the envelope of the density beyond e_max
            amps[~pos] = _mass(table, density.init.k_a)
            parts[~pos] = (float(np.sum(table.resid * table.half)), 0.0,
                           abs(table.sub_mass) * 0.5)
        amplitude_s += time.perf_counter() - split
        i_bad = int(np.argmax(ests := parts.sum(axis=1)))
        worst, largest = float(ests[i_bad]), int(np.argmax(parts[i_bad]))
        # a deeper table, with every cut as much deeper, mends a finite
        # estimate whose largest part is the truncation; a NaN one is refused
        if worst <= abs_tol or not math.isfinite(worst) or largest != 1:
            break
        e_max *= 4.0
    names = ("interpolation", "truncation", "sub_threshold")
    error_parts = dict(zip(names, parts[i_bad].tolist()))
    if not worst <= abs_tol:  # a NaN estimate is refused too, and named as the largest part
        raise ToleranceError(
            f"amplitude stage: error estimate {worst:.3e} at t = {t_arr[i_bad]:g} exceeds "
            f"abs_tol = {abs_tol:.3e}; largest part {names[largest]} ("
            + ", ".join(f"{key} {val:.3e}" for key, val in error_parts.items())
            + "); raise abs_tol")

    prob = np.abs(amps) ** 2
    n_panels = int(table.mid.size)
    n_low, n_beyond = int(lo.sum()), int((n_panels - hi).sum())
    meta = {"e_max": table.e_max, "table_builds": builds, "panels": n_panels,
            "density_evals": n_evals,
            "error_estimate": ests, "max_error_estimate": worst,
            "error_parts": error_parts, "e_cut": e_cut, "small_phase_pairs": n_small,
            "large_phase_pairs": int(pos.sum()) * n_panels - n_small - n_low - n_beyond,
            "low_energy_pairs": n_low, "beyond_cut_pairs": n_beyond,
            "table_s": table_s, "amplitude_s": amplitude_s}
    return SurvivalSeries(times=t_arr, probability=prob, amplitudes=amps,
                          method="exact", meta=meta)


def spectral_mass(density: SpectralDensity) -> float:
    """Integral of the density over the continuum (1 for a valid state).

    The tabulated integral over [0, _MASS_E_HI] plus the envelope tail;
    ToleranceError where `_build_table` refuses, or where that is not finite.
    """
    table = _build_table(density.omega, density.pot.r_a, _MASS_E_HI)
    mass = _mass(table, density.init.k_a)
    if not math.isfinite(mass):
        raise ToleranceError(f"mass stage: spectral mass {mass} after {table.n_evals} "
                             "density evaluations is not finite")
    return mass


# ----------------------------------------------------------------- #
# rotated-contour representation                                    #
# ----------------------------------------------------------------- #

# Rotated-axis rule on [0, u_max]: width-4 panels above u = 4, and below it
# _LAPLACE_HALVINGS panels halving toward u = 0 down to 4 * 2^-48 ~ 1.4e-14,
# so the u^nu threshold factor is smooth on each.  Weight column 0 is the
# 16-point Gauss sum, column 1 its companion, the degree-13 interpolant on
# the same nodes (the sum less its T_14 term; T_15 integrates to zero); both
# include e^{-u}.  A call sums only the nodes above the halving panels that
# the threshold law makes negligible, and that law over them in closed form
# (`_laplace_end`); where it drops none (nu < 0.07) the sliver below
# 1.4e-14 is left out, ~1.4e-14^(nu + 1) relative.
_LAPLACE_U_MAX = 40.0
_LAPLACE_HALVINGS = 48
_LAPLACE_BLOCK = 200_000  # density evaluations per call
# Relative size below which the threshold law's next term on a dropped
# panel, and the closed-form end's drift, count as negligible.
_LAPLACE_END_TOL = 1.0e-15
_edges = np.concatenate((4.0 * 2.0 ** -np.arange(float(_LAPLACE_HALVINGS), 0.0, -1.0),
                         np.arange(4.0, _LAPLACE_U_MAX + 1.0, 4.0)))
_half = 0.5 * (_edges[1:] - _edges[:-1])
_LAPLACE_U = (0.5 * (_edges[1:] + _edges[:-1])[:, None] + _half[:, None] * _GL_X).ravel()
_LAPLACE_W = np.exp(-_LAPLACE_U)[:, None] * np.kron(_half[:, None], np.stack(
    (_GL_W, _GL_W - 2.0 / (1.0 - 14.0 ** 2) * _CHEB_FROM_VALS[14]), axis=1))
# Nodes of a range whose density `_axis_sums` returns too: the lowest and
# highest of its first panel, and its last
_PROBES = np.array([0, 15, -1])


@functools.lru_cache(maxsize=64)
def _laplace_end(nu: float) -> tuple[int, float, float, float]:
    """The rule's threshold end at nu: (lo, end, ratio, beyond).

    The halving panels dropped are the lowest ones whose upper edge u_e has
    u_e^(2 nu + 1) <= _LAPLACE_END_TOL: there the threshold law's next
    term, relative size ~u^nu on a part of size ~u^(nu + 1), is negligible.
    lo is the first kept node, u_1; end is the lower incomplete gamma
    series over [0, u_s], u_s the lowest kept edge, three terms of
    sum_j (-1)^j u_s^(nu+1+j) / (j! (nu+1+j)) (DLMF 8.7.1), over u_1^nu,
    so that end times the density at u_1 is the closed-form end (0 where
    nothing is dropped); ratio is (u_1 / u_16)^nu, u_16 the first kept
    panel's top node; beyond is Gamma(nu + 1, u_max) <= u_max^nu e^{-u_max}
    / (1 - nu / u_max) over u_N^nu, u_N the last node.
    """
    tops = _edges[1:_LAPLACE_HALVINGS + 1]
    n_drop = int(np.count_nonzero(tops ** (2.0 * nu + 1.0) <= _LAPLACE_END_TOL))
    lo = 16 * n_drop
    u_s, u_1, u_16 = float(_edges[n_drop]), float(_LAPLACE_U[lo]), float(_LAPLACE_U[lo + 15])
    end = sum((-1.0) ** j * u_s ** (nu + 1.0 + j) / (math.factorial(j) * (nu + 1.0 + j))
              for j in range(3)) / u_1 ** nu if n_drop else 0.0
    x = _LAPLACE_U_MAX
    beyond = x ** nu * math.exp(-x) / (1.0 - nu / x) if nu < x else math.inf
    return lo, end, (u_1 / u_16) ** nu, beyond / float(_LAPLACE_U[-1]) ** nu


def _axis_sums(fn: Callable, t: np.ndarray, lo: int, hi: int):
    """Both weight columns' sums over the rule's nodes [lo, hi) at each
    time, in density calls of at most _LAPLACE_BLOCK nodes, and the
    density at the _PROBES nodes of that range."""
    u, w = _LAPLACE_U[lo:hi], _LAPLACE_W[lo:hi]
    sums = np.empty((t.size, 2), dtype=complex)
    probes = np.empty((t.size, 3), dtype=complex)
    step = _LAPLACE_BLOCK // u.size
    for a in range(0, t.size, step):
        e = -1j * u[None, :] / t[a:a + step, None]
        # a density that is not finite on the axis is refused by name below
        with np.errstate(all="ignore"):
            vals = fn(e.ravel()).reshape(e.shape)
            sums[a:a + step] = vals @ w
        probes[a:a + step] = vals[:, _PROBES]
    return sums, probes


def survival_laplace_axis(density: SpectralDensity, times, *,
                          form: str = "continued") -> SurvivalSeries:
    """Long-time amplitude from the negative imaginary energy axis.

    With E = -i x and then x = u / t,

        A_v(t) = (-i / t) int_0^{u_max} e^{-u} omega(-i u / t) du,

    u_max = 40.  The integrand is smooth apart from its u^nu threshold
    factor, nu = beta + 1/2, so one fixed composite Gauss-Legendre rule
    serves every time, through vectorized density calls of at most
    _LAPLACE_BLOCK nodes; accuracy is t-independent.  Below the lowest
    edge u_s that the threshold law leaves worth summing (`_laplace_end`),
    the integrand is taken as g_1 u^nu e^{-u}, with g_1 = omega / u^nu at
    the lowest kept node u_1, and integrated in closed form.  Where that
    end times the drift of omega / u^nu across the first kept panel,
    |g(u_16) / g(u_1) - 1|, exceeds _LAPLACE_END_TOL of the sum, the
    time takes the dropped panels instead, in one more density call for
    all such times.

    A time whose amplitude or estimate is not finite (omega overflows on
    the axis at small t on some wells) raises ToleranceError naming it.
    meta gives the nodes per time on the common path, the number of
    times that took the dropped panels (fallback_times) and, as error
    estimate, the largest over times of the relative sum of three parts
    (error_parts, at that time): the difference from the rule's
    degree-13 companion, the end's drift, and a bound on the integral
    beyond u_max from the last node's value and the e^{-u} u^nu decay.
    form "continued" uses the full continued density; form "threshold"
    uses its three-term threshold refinement, valid once u_max / t is
    small against the potential scales.  This is the contour part only:
    it omits the resonance-pole contribution, which is significant
    roughly below t ~ 200 for the reference parameters.
    """
    if form not in ("continued", "threshold"):
        raise DomainError(f"unknown laplace-axis form {form!r}")
    fn = density.omega if form == "continued" else density.threshold_pade_omega
    t_arr = _vector(times, "survival times", float)[0].copy()
    if np.any(t_arr <= 0.0):
        raise DomainError("laplace-axis evaluation needs t > 0")

    lo, end, ratio, beyond = _laplace_end(density.pot.beta + 0.5)
    sums, probes = _axis_sums(fn, t_arr, lo, _LAPLACE_U.size)
    scale = np.abs(sums[:, 0])
    n_back = 0
    # |g_1 gamma| |g(u_16) / g(u_1) - 1|, g = omega / u^nu
    drift = end * np.abs(probes[:, 1] * ratio - probes[:, 0])
    if lo:
        keep = drift <= _LAPLACE_END_TOL * scale   # a NaN drift falls back
        n_back = keep.size - int(np.count_nonzero(keep))
        if n_back:
            sums[keep] += end * probes[keep, :1]
            sums[~keep] += _axis_sums(fn, t_arr[~keep], 0, lo)[0]
            drift[~keep] = 0.0
        else:
            sums += end * probes[:, :1]
    parts = (np.abs(sums[:, 0] - sums[:, 1]), drift, beyond * np.abs(probes[:, 2]))
    ests = (parts[0] + parts[1] + parts[2]) / scale
    i_bad = int(np.argmax(ests))   # the first NaN, if any
    if not math.isfinite(ests[i_bad]):   # as it is wherever the sum is not
        raise ToleranceError(
            f"rotated-axis stage: the error estimate at t = {t_arr[i_bad]:g} is "
            f"{ests[i_bad]}: the {form} density is not finite on the axis there, or sums to 0")
    amps = -1j * sums[:, 0] / t_arr
    prob = np.abs(amps) ** 2
    meta = {"u_max": _LAPLACE_U_MAX, "form": form, "nodes": int(_LAPLACE_U.size - lo),
            "fallback_times": n_back, "max_rel_error_estimate": float(ests[i_bad]),
            "error_parts": {name: float(part[i_bad] / scale[i_bad]) for name, part in
                            zip(("companion", "threshold_end", "beyond_u_max"), parts)}}
    return SurvivalSeries(times=t_arr, probability=prob, amplitudes=amps,
                          method=f"laplace-{form}", meta=meta)


# ----------------------------------------------------------------- #
# asymptotic models                                                 #
# ----------------------------------------------------------------- #

# Most terms `asymptote_series` takes.
_MAX_SERIES_TERMS = 6


def asymptote_one_term(coeffs: ThresholdCoeffs) -> AsymptoticModel:
    """Leading long-time power law of the amplitude, `asymptote_series(coeffs, 1)`:
    A(t) ~ density_scale Gamma(nu + 1) (i t)^{-(nu + 1)}, so
    P(t) ~ density_scale^2 Gamma(beta + 3/2)^2 t^{-(2 beta + 3)}."""
    return asymptote_series(coeffs, 1)


def asymptote_series(coeffs: ThresholdCoeffs, n_terms: int = 4
                     ) -> AsymptoticModel:
    """Multi-term amplitude-space asymptote from the threshold series.

    A_v(t) ~ sum_{m=1}^{M} c_m Gamma(1 + m nu) (i t)^{-(1 + m nu)}
    with c_m from `ThresholdCoeffs.series`.  Needed for attractive tails,
    where consecutive exponents are closely spaced and a single term
    misrepresents finite-time behaviour.  One term, origin "one-term",
    needs only the leading threshold law, so it holds at integer nu too;
    more are refused there.
    """
    if not 1 <= n_terms <= _MAX_SERIES_TERMS:
        raise DomainError(f"n_terms must be in [1, {_MAX_SERIES_TERMS}], got {n_terms}")
    nu = coeffs.nu
    es = tuple(1.0 + m * nu for m in range(1, n_terms + 1))
    return AsymptoticModel(origin="one-term" if n_terms == 1 else "multi-term",
                           coefficients=tuple(c * math.gamma(e)
                                              for c, e in zip(coeffs.series(n_terms), es)),
                           exponents=es,
                           meta={"beta": coeffs.beta, "nu": nu, "n_terms": n_terms})
