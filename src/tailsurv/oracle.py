"""Independent verification routes for the main computational pipeline.

Every function here reaches the same physical quantities as the
production modules through a deliberately different numerical scheme:

* fixed-step fourth-order integration of the radial equation instead of
  the closed piecewise forms, squaring one step map per segment;
* a direct 2x2 linear solve for the exterior matching coefficients
  instead of the assembled quadratic-combination formula;
* trapezoid sums instead of the panel/moment oscillatory integrator,
  in two pieces joined by a C-infinity partition of unity at E ~ 1:
  the threshold piece on a uniform grid in s, E = exp(1 + s - e^{-s}),
  a double-exponential map that makes its sums converge geometrically
  through the E^nu rise at E = 0, and the bulk, smooth at both ends of
  the junction, on a uniform grid in E.  Both follow one rule: sums at
  a step h and h/2 from one pass on the h/2 grid, h at first
  min(0.1, pi/(4t)) in s or 2 pi/(t + 400) in E, then the finer grid's
  midpoints only until the two agree.  The bulk ends at a double zero
  of the density, the first past E = 64, doubled until the first five
  terms by parts of the integral left out past it are below 1e-12 in
  amplitude at the smallest time.  The sums run in chunks, each
  evaluating the density into one work block allocated once.

None of the production results are reused internally beyond the shared
special-function evaluations that define the problem itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from . import survival
from .errors import DomainError, ResourceLimitError
from .model import _sincos, regular_boundary_sq
from .specfun import BesselOrder, riccati_pair_with_derivatives
from .spectral import _work_block

try:
    from resource import RUSAGE_SELF, getrusage
except ImportError:  # not on every platform
    getrusage = None

# Hard cap on brute-force grid size.  The grid is streamed in chunks, so
# this guards runtime, not memory.
_MAX_BRUTE_POINTS = 40_000_000
# Grid points per density call, times max(2, number of times summed).
# The work block takes 104 bytes per point of a call (3.4 MB at 32 768
# points), the weight row 8; the phases of up to four times at once
# reuse the block.  16 384-point calls made the brute force 2.2x slower
# (per-call Python work), and 65 536-point calls were no faster and
# peaked at twice the memory.  The chunks run on one thread: at the
# `verify` times each sum is one chunk, while grids of many chunks ran
# 1.4x faster on two (t = 1: 38 against 53 ms, 2-vCPU x86-64 host).
_BRUTE_CHUNK = 65_536
# RK4 steps relative to r_d: the node count's, and the finer one of the
# boundary and matching checks (the Jost modulus by linear solve then
# agrees with the closed form to ~1e-12).
_RK4_STEP = 1.0e-3
_MATCH_STEP = 1.0e-4
# The zero-energy node count integrates out to this multiple of r_d.
_NODE_R_MAX = 10.0


def _segments(breakpoints, step: float):
    """(r, r_end, n, width) of each segment from r = 0: n RK4 steps of `width`.

    `breakpoints` lists radii of potential discontinuities plus the end
    radius, in increasing order; steps are aligned to each segment so
    the fourth-order accuracy survives the jumps.
    """
    r = 0.0
    for r_end in breakpoints:
        n = max(1, math.ceil((r_end - r) / step))
        yield r, r_end, n, (r_end - r) / n
        r = r_end


def _rk4_grid(breakpoints, step: float):
    """Width and sample radii of every RK4 step of `_segments`.

    Returns (h, radii): radii has shape (3, n_steps), each step's start,
    midpoint and end.
    """
    h, radii = [], []
    for r, r_end, n, width in _segments(breakpoints, step):
        r0 = r + np.arange(n) * width
        # keep sample points strictly inside the segment so boundary
        # steps see the correct side of each discontinuity
        radii.append(np.clip(np.stack((r0, r0 + 0.5 * width, r0 + width)),
                             r + 1e-12, r_end - 1e-12))
        h.append(np.full(n, width))
    return np.concatenate(h), np.concatenate(radii, axis=1)


def _rk4_steps(v_func, k_sq, breakpoints, step: float):
    """Step maps of classical RK4 for u'' = (v(r) - k^2) u from r = 0.

    One RK4 step of the linear system (u, u')' = [[0, 1], [g, 0]] (u, u'),
    g = v - k^2, is the 2x2 matrix I + D.  Returns D as an array of shape
    (4, n_steps) + k_sq.shape holding (D_uu, D_ud, D_du, D_dd), in step
    order; D rather than I + D, so that the O(h^2 g) diagonal is not
    rounded against 1.  Vectorized over k_sq; v_func is called once, on
    the radii of `_rk4_grid`.
    """
    k_sq = np.asarray(k_sq, dtype=float)
    h, radii = _rk4_grid(breakpoints, step)
    v = v_func(radii)
    g0, gm, g1 = v.reshape(v.shape + (1,) * k_sq.ndim) - k_sq
    h = h.reshape(h.shape + (1,) * k_sq.ndim)
    h2 = h * h
    return np.stack((h2 / 6.0 * (g0 + 2.0 * gm) + h2 * h2 / 24.0 * gm * g0,
                     h + h2 * h / 6.0 * gm,
                     h / 6.0 * (g0 + 4.0 * gm + g1) + h2 * h / 12.0 * gm * (g0 + g1),
                     h2 / 6.0 * (2.0 * gm + g1) + h2 * h2 / 24.0 * gm * g1))


def rk4_radial(v_func, k_sq, breakpoints, step: float):
    """Integrate u'' = (v(r) - k^2) u from r = 0 with u = 0, u' = 1.

    Returns (u, u') at the final breakpoint.  v must be constant between
    breakpoints (DomainError if it differs at a segment's first and last
    sample radii), so a segment's step maps are all the one `_rk4_steps`
    builds: binary powering raises it to the step count, and segments
    compose, later on the left.  Maps are held as D of I + D, stacked
    2x2 matrices over k_sq, and (I + L)(I + E) is I + (L + E + L @ E).
    """
    shape = np.shape(k_sq) + (2, 2)
    total = np.zeros(shape)  # D = 0: the identity
    for r, r_end, n, width in _segments(breakpoints, step):
        v_first, v_last = v_func(np.array([r + 1e-12, r_end - 1e-12]))
        if v_first != v_last:
            raise DomainError(f"rk4_radial needs v constant on ({r:g}, {r_end:g})")
        # one step of the segment, on radii shifted by r
        power = _rk4_steps(lambda x: v_func(x + r), k_sq, (width,), width)[:, 0]
        power = np.moveaxis(power, 0, -1).reshape(shape)
        while n:
            if n & 1:
                total = power + total + power @ total
            n >>= 1
            if n:
                power = power + power + power @ power
    return total[..., 0, 1], 1.0 + total[..., 1, 1]


def count_nodes_zero_energy(pot) -> int:
    """Nodes of the zero-energy regular solution on (0, _NODE_R_MAX * r_d].

    Counts strict sign changes of u over the RK4 steps.  A node signals
    a bound state in the spectrum.
    """
    breakpoints = (pot.r_a, pot.r_d, _NODE_R_MAX * pot.r_d)
    d = _rk4_steps(pot.v, 0.0, breakpoints, _RK4_STEP * pot.r_d)
    u, du = 0.0, 1.0
    changes, last = 0, 0
    for d_uu, d_ud, d_du, d_dd in zip(*d.tolist()):
        u, du = u + d_uu * u + d_ud * du, du + d_du * u + d_dd * du
        sign = (u > 0.0) - (u < 0.0)
        if sign:
            if last == -sign:
                changes += 1
            last = sign
    return changes


def ode_oracle_boundary_many(pot, ks):
    """Vectorized regular-solution boundary data at r_d for real k values.

    One integration pass carries all momenta simultaneously.  Returns
    (u, du) arrays aligned with ks.
    """
    ks = np.asarray(ks, dtype=float)
    return rk4_radial(pot.v, ks * ks, (pot.r_a, pot.r_d), _MATCH_STEP * pot.r_d)


def oracle_match_coefficients(pot, k: float):
    """Exterior expansion coefficients (a, b) by direct linear solve.

    Matches ODE-integrated (u, u') at r_d, in steps of _MATCH_STEP * r_d,
    against a j_hat(k r) + b n_hat(k r); returns (a, b).  The production
    Jost modulus can then be cross-checked against k^2 (a^2 + b^2).
    """
    k = float(k)
    if k <= 0.0:
        raise DomainError(f"matching requires k > 0, got {k:g}")
    u, du = ode_oracle_boundary_many(pot, [k])
    a, b = _match_boundary(pot, k, float(u[0]), float(du[0]))
    return float(a), float(b)


def _match_boundary(pot, k, u, du):
    """(a, b) with a j_hat + b n_hat matching (u, u') at r_d.

    k, u and du are scalars or arrays of one shape: one Riccati call and
    one stacked 2x2 solve serve every momentum.
    """
    k = np.asarray(k, dtype=float)
    j, jp, n, np_ = riccati_pair_with_derivatives(BesselOrder(pot.beta), k * pot.r_d)
    mat = np.stack((np.stack((j, n), axis=-1), np.stack((k * jp, k * np_), axis=-1)), axis=-2)
    rhs = np.stack((u, du), axis=-1)[..., None]
    a, b = np.moveaxis(np.linalg.solve(mat, rhs)[..., 0], -1, 0)
    return a, b


# The threshold piece sums psi omega on (0, b], the bulk (1 - psi) omega
# from a up, where psi is a C-infinity step from 1 at E <= a to 0 at E >= b
# over the junction (a, b): neither piece has an end point there.
_BRUTE_JUNCTION = (0.5, 1.0)
# The threshold piece is summed in s on [_BRUTE_S_START, 0], mapped by
# E = exp(1 + s - e^{-s}) onto (9.7e-26, 1 = b]: psi omega dE/ds falls like
# exp(-(nu + 1) e^{-s}) towards s = -inf and, through psi, to all orders at
# s = 0, so its sums converge geometrically for any nu = beta + 1/2 > 0.
# The mass left out below E(-4), omega(E) E / (nu + 1) there, is 2.4e-27
# at beta = -0.499 in the reference geometry.
_BRUTE_S_START = -4.0
# The threshold's step starts at min(_BRUTE_S_STEP, pi/(_BRUTE_STEPS_PER_PI
# J t)) in s, J = _BRUTE_S_JACOBIAN bounding dE/ds = E (1 + e^{-s}): 4 samples
# per period of e^{-iEt} where the grid is sparsest in E.  A trapezoid sum's
# error is the integrand's transform at the aliased frequencies, the bulk's
# first at 2 pi/h - t, so from 2 pi/(t + _BRUTE_BULK_BAND) at tau, past which
# F(tau) = |int (1 - psi) omega e^{-iE tau} dE| is below the first pass's gap,
# and the accepted sum's at 2 tau + t.  On the reference wells F is 2.8e-10,
# 1.8e-11 and 6e-15 at tau = 300, 400 and 800; 300 moved P by 1.2e-12 at t = 0.
_BRUTE_S_STEP = 0.1
_BRUTE_S_JACOBIAN = 2.0
_BRUTE_STEPS_PER_PI = 2.0
_BRUTE_BULK_BAND = 400.0
# Amplitude tolerance on each piece's sums at steps h and h/2: half the
# 1e-8 at which `run_verification` compares P = |A|^2.
_BRUTE_NESTED_TOL = 5.0e-9
# For t > 0 the bulk ends at a double zero e_out of omega, the first at or
# past _BRUTE_E_START, then the first past twice e_out while the amplitude
# `_tail_estimate` states past it, at the smallest time, exceeds
# _BRUTE_TAIL_TOL.  On the reference well t = 60 leaves 1.7e-12 past the
# first zero past 64 and 9.8e-14 past the next, 157.4; t = 0.5 ends at 5843.
_BRUTE_E_START = 64.0
_BRUTE_TAIL_TOL = 1.0e-12


def _taper(e, vals, scratch, keep: str) -> None:
    """Multiply `vals` in place by psi(e) (`keep` "below") or 1 - psi(e) ("above").

    psi = f(1 - x)/(f(x) + f(1 - x)) with f(s) = e^{-1/s} and x = (e - a)/(b - a)
    across the junction (a, b): 1 at e <= a, 0 at e >= b.  `e` is sorted;
    psi is computed only on its slice inside (a, b), in the heads of the
    two `scratch` rows.
    """
    a, b = _BRUTE_JUNCTION
    i, j = np.searchsorted(e, a, side="right"), np.searchsorted(e, b, side="left")
    if keep == "below":
        vals[j:] = 0.0
    else:
        vals[:i] = 0.0
    x, y = (row[:j - i] for row in scratch)
    np.multiply(np.subtract(e[i:j], a, out=x), 1.0 / (b - a), out=x)
    np.multiply(np.subtract(1.0, x, out=y), x, out=y)
    np.divide(np.add(np.multiply(x, -2.0, out=x), 1.0, out=x), y, out=x)
    # x is now d = 1/x - 1/(1 - x): psi = 1/(1 + e^{-d}), 1 - psi = 1/(1 + e^{d});
    # e^{|d|} overflows to inf only where the factor rounds to 0 anyway
    if keep == "below":
        np.negative(x, out=x)
    with np.errstate(over="ignore"):
        np.exp(x, out=x)
    vals[i:j] /= np.add(x, 1.0, out=x)


def _trapezoid_sums(density, times: np.ndarray, counts: dict):
    """trapezoid(lo, hi, n, keep, midpoints=False): a piece's trapezoid sums
    of omega(E) e^{-iEt} at `times` on n panels of [lo, hi].

    `keep` "below" sums psi omega (see `_taper`) on a uniform grid in s,
    with E = exp(1 + s - e^{-s}) and the weight dE/ds = E (1 + e^{-s});
    "above" sums (1 - psi) omega on a uniform grid in E.  It returns T(h)
    and, from the even-indexed points (the 2h grid's, for even n), T(2h);
    with `midpoints`, the n panels' midpoint rule M(h) and 0, so that
    T(h/2) = (T(h) + M(h))/2 evaluates only the new points.
    The grid is streamed in chunks of `_BRUTE_CHUNK / max(2, len(times))`
    points, one density call each (counted, with its seconds, in counts).
    One `_work_block` (its bytes go to counts) and one weight row serve
    every chunk of every sum: row 0 of the block holds the chunk's grid, the
    density's intermediates rows 1 to 12, and once the density call is
    done `_taper` works in rows 1 and 2, then those 12 rows take
    sin E t, cos E t and a scratch row for up to four times at once, and
    matrix-vector products with the chunk's values give its sums.
    """
    chunk = _BRUTE_CHUNK // max(2, times.size)
    index = np.arange(chunk + 1, dtype=float)
    block, weight_row = _work_block(chunk + 1), np.empty(chunk + 1)
    counts["work_bytes"] = max(counts.get("work_bytes", 0), block.nbytes)
    free = block[1:].reshape(-1)

    def trapezoid(lo: float, hi: float, n: int, keep: str, midpoints: bool = False):
        h, total, density_s = (hi - lo) / n, np.zeros((2, times.size), dtype=complex), 0.0
        for a in range(0, n, chunk):
            b = min(a + chunk, n)
            # np.linspace(lo, hi, n + 1)'s points, or their midpoints, in the
            # block's row 0; the trapezoid grid's last chunk also carries hi
            closes = b == n and not midpoints
            x = block[0, :b + closes - a]
            np.multiply(np.add(index[:x.size], a + 0.5 * midpoints, out=x), h, out=x)
            x += lo
            if closes:
                x[-1] = hi
            if keep == "below":  # x becomes E(s), the weight E (1 + e^{-s})
                weight = weight_row[:x.size]
                np.exp(np.negative(x, out=weight), out=weight)
                np.exp(np.subtract(np.add(x, 1.0, out=x), weight, out=x), out=x)
                weight += 1.0
                weight *= x
            start = perf_counter()
            vals = density.omega(x, work=block)
            density_s += perf_counter() - start
            if keep == "below":
                vals *= weight
            _taper(x, vals, block[1:3], keep)
            if a == 0 and not midpoints:  # the trapezoid's end points take half weight
                vals[0] *= 0.5
            if closes:
                vals[-1] *= 0.5
            ev = slice(a & 1, None, 2)  # the grid's even indices, its sum at step 2h
            for i in range(0, times.size, 4):  # 3 rows per time: 4 times fill 12 rows
                t = times[i:i + 4, None]
                sin, cos, scratch = free[:3 * t.size * x.size].reshape(3, t.size, x.size)
                _sincos(x, t, out=(sin, cos, scratch))
                total[0, i:i + 4] += cos @ vals - 1j * (sin @ vals)
                if not midpoints:
                    total[1, i:i + 4] += cos[:, ev] @ vals[ev] - 1j * (sin[:, ev] @ vals[ev])
        counts["density_calls"] = counts.get("density_calls", 0) + math.ceil(n / chunk)
        counts["density_s"] = counts.get("density_s", 0.0) + density_s
        return total * [[h], [2.0 * h]]

    return trapezoid


def _refined_sum(trapezoid, lo: float, hi: float, n: int, keep: str, t: float,
                 counts: dict) -> np.ndarray:
    """A piece's sum T(h/2), with T(h) from the same `trapezoid` pass.

    h = (hi - lo)/n at first.  While the two differ by more than
    _BRUTE_NESTED_TOL it evaluates the finer grid's midpoints only, so both
    steps halve and the finer sum becomes the coarser one; once the grid
    would pass _MAX_BRUTE_POINTS it raises ResourceLimitError naming the
    piece, both steps and the disagreement.  Its evaluations and largest
    accepted disagreement go to counts["<piece>_evals"] and ["<piece>_gap"].
    """
    piece = "threshold" if keep == "below" else "bulk"
    fine, coarse = trapezoid(lo, hi, 2 * n, keep)
    evals, n = 2 * n + 1, 2 * n
    while not (gap := float(np.max(np.abs(fine - coarse)))) <= _BRUTE_NESTED_TOL:
        if 2 * n + 1 > _MAX_BRUTE_POINTS:
            h = (hi - lo) / n
            raise ResourceLimitError(
                f"brute-force oracle: grid of {2 * n + 1} points at t = {t:g} "
                f"exceeds _MAX_BRUTE_POINTS = {_MAX_BRUTE_POINTS}: the {piece} sums at "
                f"steps {2.0 * h:.3g} and {h:.3g} differ by {gap:.3g} > "
                f"_BRUTE_NESTED_TOL = {_BRUTE_NESTED_TOL:g}")
        coarse, fine = fine, 0.5 * (fine + trapezoid(lo, hi, n, keep, midpoints=True)[0])
        evals, n = evals + n, 2 * n
    counts[f"{piece}_evals"] = counts.get(f"{piece}_evals", 0) + evals
    counts[f"{piece}_gap"] = max(counts.get(f"{piece}_gap", 0.0), gap)
    return fine


def _omega_zero(density, e: float) -> float:
    """The first double zero of omega at or past e.

    omega carries sin^2(k_I r_a), k_I = sqrt(E + v0), so it has one at
    E = (m pi / r_a)^2 - v0 for every integer m but the mode's n_a, where
    the overlap sin(k_I r_a) / (k_a^2 - k_I^2) does not vanish.
    """
    r_a, v0 = density.pot.r_a, density.pot.v0
    m = math.ceil(r_a * math.sqrt(e + v0) / math.pi)
    m += m == density.init.n_a
    return (m * math.pi / r_a) ** 2 - v0


# n! times the inverse Vandermonde matrix of j = -2..2: row n gives the n-th
# derivative at j = 0 of the quartic through five values at unit step
_STENCIL = np.array([[0, 0, 12, 0, 0], [1, -8, 0, 8, -1], [-1, 16, -30, 16, -1],
                     [-6, 12, 0, -12, 6], [12, -48, 72, -48, 12]]) / 12.0


def _tail_estimate(density, e_out: np.ndarray, t: float) -> np.ndarray:
    """sum_{n < 5} |omega^(n)(e)| / t^(n + 1) for each e in `e_out`, the first
    five terms by parts of the integral of omega e^{-iEt} past e, from one
    density call at e + j h, j = -2..2, h a step of 0.05 in k_I r_a.  At a
    double zero the n = 2 term leads and the n = 4 term adds (r_a/(k t))^2."""
    h = 0.1 * np.sqrt(e_out + density.pot.v0)[:, None] / density.pot.r_a
    vals = density.omega((e_out[:, None] + h * np.arange(-2.0, 3.0)).ravel())
    n = np.arange(5.0)
    return np.sum(np.abs(vals.reshape(-1, 5) @ _STENCIL.T) / (h ** n * t ** (n + 1)), axis=1)


def _candidate_ends(density, t: float):
    """(e_out, tail estimate at t) for the first double zero of omega past
    _BRUTE_E_START, then the first past twice the last, three per density call."""
    e = 0.5 * _BRUTE_E_START
    while True:
        ends = np.array([e := _omega_zero(density, 2.0 * e) for _ in range(3)])
        yield from zip(ends, _tail_estimate(density, ends, t))


def _bruteforce_on_one_grid(density, times: np.ndarray, counts: dict):
    """Survival at `times` (all zero, or all positive) on one grid.

    For the largest time t, the threshold piece runs over s in
    [_BRUTE_S_START, 0] from step min(_BRUTE_S_STEP, pi/(_BRUTE_STEPS_PER_PI
    _BRUTE_S_JACOBIAN t)), the bulk from a to e_out (_BRUTE_TAIL_TOL) from
    2 pi/(t + _BRUTE_BULK_BAND); `_refined_sum` refines each.
    """
    t, r_a = float(times.max()), density.pot.r_a
    per_t = math.pi / (_BRUTE_STEPS_PER_PI * t) if t else math.inf
    bulk_step = 2.0 * math.pi / (t + _BRUTE_BULK_BAND)
    if t == 0.0:  # past 2500; the envelope estimate of the rest states no error
        k_out = (math.ceil(2.0 * r_a * 50.0 / math.pi - 0.5) + 0.5) * math.pi / (2.0 * r_a)
        e_out = k_out * k_out
    else:
        candidates = _candidate_ends(density, t_min := float(times.min()))
        e_out, tail = next(candidates)
        while not tail <= _BRUTE_TAIL_TOL:
            e_next, tail_next = next(candidates)
            n_points = 2 * math.ceil((e_next - _BRUTE_JUNCTION[0]) / bulk_step) + 1
            if n_points > _MAX_BRUTE_POINTS:
                raise ResourceLimitError(
                    f"brute-force oracle: grid of {n_points} points at t = {t:g} exceeds "
                    f"_MAX_BRUTE_POINTS = {_MAX_BRUTE_POINTS}: the bulk's tail past "
                    f"e_out = {e_out:.6g} at t = {t_min:g} is {tail:.3g} > "
                    f"_BRUTE_TAIL_TOL = {_BRUTE_TAIL_TOL:g}")
            e_out, tail = e_next, tail_next
        counts["e_out"], counts["tail_estimate"] = e_out, float(tail)

    pieces = [(keep, lo, hi, math.ceil((hi - lo) / step))
              for keep, lo, hi, step in (
                  ("below", _BRUTE_S_START, 0.0, min(_BRUTE_S_STEP, per_t / _BRUTE_S_JACOBIAN)),
                  ("above", _BRUTE_JUNCTION[0], e_out, bulk_step))]
    trapezoid = _trapezoid_sums(density, times, counts)
    amp = sum(_refined_sum(trapezoid, lo, hi, n, keep, t, counts)
              for keep, lo, hi, n in pieces)
    if t == 0.0:
        amp += survival._envelope_tail(density.init.k_a, density.pot.r_a, e_out)
    return np.abs(amp) ** 2


def oracle_survival_bruteforce(density, t, *, counts: dict | None = None):
    """Survival probability by trapezoid sums refined until they agree.

    Deliberately independent of the panel integrator: plain trapezoid
    sums in two pieces, split by psi, a C-infinity step from 1 below
    E = 0.5 to 0 above E = 1 (`_BRUTE_JUNCTION`).  The threshold piece
    psi omega rises like E^nu at E = 0, so it is summed in s with
    E = exp(1 + s - e^{-s}), s in [-4, 0]: a double-exponential map,
    under which the sum converges geometrically whatever nu is and
    leaves out only the mass below E(-4) = 9.7e-26 (2.4e-27 at
    beta = -0.499 in the reference geometry).  The bulk
    (1 - psi) omega vanishes to all orders at E = 0.5, so its sums in E
    converge geometrically once the step resolves e^{-iEt} and the
    taper.  Both pieces follow one rule (`_refined_sum`): sums at a
    step h and h/2 from one pass on the h/2 grid, h at first
    min(0.1, pi/(4 t)) in s, 4 samples per period of e^{-iEt} where that
    grid is sparsest in E, and 2 pi/(t + 400) in E, which puts the bulk
    sum's first alias past its spectral reach; then the finer grid's
    midpoints only while the two differ by more than _BRUTE_NESTED_TOL.
    For t > 0 the bulk ends at a double zero e_out of the density, where
    the remainder's first two terms by parts vanish, deep enough that the
    first five, at the smallest time, are below _BRUTE_TAIL_TOL.  For t = 0 it
    ends past E = 2500 and adds the envelope estimate of the rest.
    Rather than return an aliased or truncated sum it raises
    ResourceLimitError, naming the piece and the disagreement, or the
    tail, where the grid would need more than _MAX_BRUTE_POINTS points.

    `t` is a scalar (returns a float) or an array (returns an array of
    its shape).  All positive times share the density evaluations on the
    grids the largest of them needs; t = 0 has its own.  If `counts` is
    given, the density evaluations of the threshold and bulk pieces, the
    density calls and the seconds inside them are added to its
    "threshold_evals", "bulk_evals", "density_calls" and "density_s"
    entries, "work_bytes" holds the bytes of the largest work block,
    "threshold_gap" and "bulk_gap" the largest disagreement of each
    piece's nested sums that was accepted, and for positive times
    "e_out" the bulk's end and "tail_estimate" its five terms there.
    """
    times = np.asarray(t, dtype=float)
    flat = times.ravel()
    if not np.all(flat >= 0.0):
        raise DomainError(f"time must be >= 0, got {flat[~(flat >= 0.0)][0]:g}")
    if np.any(flat > 1000.0):
        raise ResourceLimitError(
            f"brute-force quadrature is capped at t <= 1000, got {flat.max():g}")
    out, counts = np.empty(flat.shape), {} if counts is None else counts
    for group in (flat == 0.0, flat > 0.0):
        if group.any():
            out[group] = _bruteforce_on_one_grid(density, flat[group], counts)
    return float(out[0]) if times.ndim == 0 else out.reshape(times.shape)


@dataclass(frozen=True)
class OracleCheck:
    """One verification row: measured discrepancy against a tolerance."""

    name: str
    measured: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.measured <= self.tolerance


@dataclass(frozen=True)
class OracleReport:
    """Bundle of verification rows with an overall verdict.

    `meta` records what the checks cost and the brute force's stated
    errors: density evaluations, calls and seconds, the bytes of the
    brute force's work block, its nested gaps, bulk end and tail
    estimate, its minor page faults (None where `resource` is missing),
    RK4 steps and stage seconds.  It takes no part in comparing reports.
    """

    checks: tuple[OracleCheck, ...] = field(default_factory=tuple)
    meta: dict = field(default_factory=dict, compare=False)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self):
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            yield f"{status}  {c.name}: measured {c.measured:.3e} (tolerance {c.tolerance:.1e})"


def run_verification(density, times=(100.0, 500.0)) -> OracleReport:
    """Cross-check the production pipeline on the given density.

    Covers: closed-form boundary vs integration, Jost modulus vs linear
    solve, and exact survival vs brute-force quadrature at spot times.
    """
    pot = density.pot
    checks = []
    meta: dict = {}

    t0 = perf_counter()
    ks = np.linspace(0.05, 3.0, 30)
    match_ks = np.array([0.5, 1.0, 2.5])  # integrated in the same RK4 pass as ks
    u_ode, du_ode = ode_oracle_boundary_many(pot, np.r_[ks, match_ks])
    meta["rk4_steps"] = sum(n for *_, n, _ in _segments((pot.r_a, pot.r_d),
                                                         _MATCH_STEP * pot.r_d))
    u, du = regular_boundary_sq(pot, ks ** 2)
    scale = np.maximum(np.maximum(np.abs(u), np.abs(du)), 1e-30)
    rel = float(np.max(np.maximum(np.abs(u - u_ode[:ks.size]),
                                  np.abs(du - du_ode[:ks.size])) / scale))
    checks.append(OracleCheck("closed-form boundary vs integrated", rel, 1.0e-8))

    a, b = _match_boundary(pot, match_ks, u_ode[ks.size:], du_ode[ks.size:])
    direct = density.jost_modulus_sq(match_ks)
    solved = match_ks * match_ks * (a * a + b * b)
    worst = float(np.max(np.abs(direct - solved) / np.abs(direct)))
    checks.append(OracleCheck("Jost modulus vs linear solve", worst, 1.0e-8))
    t1 = perf_counter()

    times = np.asarray(times, dtype=float)
    series = survival.survival_exact(density, times)
    faults = getrusage(RUSAGE_SELF).ru_minflt if getrusage else None
    t2 = perf_counter()
    brute = oracle_survival_bruteforce(density, times, counts=meta)
    faults = getrusage(RUSAGE_SELF).ru_minflt - faults if getrusage else None
    worst = float(np.max(np.abs(series.probability - brute)))
    checks.append(OracleCheck("survival exact vs brute force", worst, 1.0e-8))
    meta.update(boundary_s=t1 - t0, exact_s=t2 - t1,
                bruteforce_s=perf_counter() - t2, minor_faults=faults)
    return OracleReport(checks=tuple(checks), meta=meta)
