"""Independent verification routes for the main computational pipeline.

Every function here reaches the same physical quantities as the
production modules through a deliberately different numerical scheme:

* fixed-step fourth-order integration of the radial equation instead of
  the closed piecewise forms, squaring one step map per segment;
* a direct 2x2 linear solve for the exterior matching coefficients
  instead of the assembled quadratic-combination formula;
* uniform trapezoid sums instead of the panel/moment oscillatory
  integrator, in two pieces joined by a C-infinity partition of unity
  at E ~ 1: fractional-power Richardson extrapolation at threshold, and
  a bulk smooth at both ends of the junction, whose sums converge
  geometrically from 8 samples per period of e^{-iEt}, at most 8e-3
  apart, and are refined by adding midpoints.  Each piece's nested
  estimates must agree before a result is returned.  The sums run in
  chunks on two threads, each evaluating the density into one work
  block that it allocates once.

None of the production results are reused internally beyond the shared
special-function evaluations that define the problem itself.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from .errors import DomainError, ResourceLimitError, ToleranceError
from .model import _sincos, regular_boundary_sq
from .specfun import BesselOrder, riccati_pair_with_derivatives
from .spectral import _work_block
from .survival import _envelope_tail, survival_exact

try:
    from resource import RUSAGE_SELF, getrusage
except ImportError:  # not on every platform
    getrusage = None

# Hard cap on brute-force grid size.  The grid is streamed in chunks, so
# this guards runtime, not memory.
_MAX_BRUTE_POINTS = 40_000_000
# Grid points per density call, times max(2, number of times summed).
# Each worker's work block takes 104 bytes per point of a call (3.4 MB
# at 32 768 points), the phase rows 16 per point and time.  At t = (60,
# 200) the brute force peaks at 8.6 MB (tracemalloc); 16 384-point calls
# made it 2.2x slower (per-call Python work holds the GIL), and 65 536-point
# calls were no faster and peaked at 17 MB.
_BRUTE_CHUNK = 65_536
# numpy and BLAS release the GIL in their loops: the brute force at
# t = (60, 200) took 0.20-0.31 s on two threads, 0.30-0.37 s on one and
# 0.33-0.45 s on three or four (2-vCPU x86-64 host).
_BRUTE_WORKERS = min(2, os.cpu_count() or 1)
# RK4 steps relative to r_d: the node count's, and the finer one of the
# boundary and matching checks (the Jost modulus by linear solve then
# agrees with the closed form to ~1e-12).
_RK4_STEP = 1.0e-3
_MATCH_STEP = 1.0e-4
# The zero-energy node count integrates out to this multiple of r_d.
_NODE_R_MAX = 10.0


def _rk4_grid(breakpoints, step: float):
    """Width and sample radii of every RK4 step from r = 0.

    `breakpoints` lists radii of potential discontinuities plus the end
    radius, in increasing order; steps are aligned to each segment so
    the fourth-order accuracy survives the jumps.  Returns (h, radii):
    radii has shape (3, n_steps), each step's start, midpoint and end.
    """
    h, radii = [], []
    r = 0.0
    for r_end in breakpoints:
        n = max(1, int(math.ceil((r_end - r) / step)))
        width = (r_end - r) / n
        r0 = r + np.arange(n) * width
        # keep sample points strictly inside the segment so boundary
        # steps see the correct side of each discontinuity
        radii.append(np.clip(np.stack((r0, r0 + 0.5 * width, r0 + width)),
                             r + 1e-12, r_end - 1e-12))
        h.append(np.full(n, width))
        r = r_end
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


def _compose(l, e):
    """D of (I + L)(I + E) = I + (L + E + L E), maps as (D_uu, D_ud, D_du, D_dd)."""
    l_uu, l_ud, l_du, l_dd = l
    e_uu, e_ud, e_du, e_dd = e
    return np.stack((l_uu + e_uu + l_uu * e_uu + l_ud * e_du,
                     l_ud + e_ud + l_uu * e_ud + l_ud * e_dd,
                     l_du + e_du + l_du * e_uu + l_dd * e_du,
                     l_dd + e_dd + l_du * e_ud + l_dd * e_dd))


def rk4_radial(v_func, k_sq, breakpoints, step: float):
    """Integrate u'' = (v(r) - k^2) u from r = 0 with u = 0, u' = 1.

    Returns (u, u') at the final breakpoint.  v must be constant between
    breakpoints (DomainError if it differs at a segment's first and last
    sample radii), so a segment's step maps are all the one `_rk4_steps`
    builds: binary powering raises it to the step count, and segments
    compose, later on the left, by `_compose`.
    """
    total, r = np.zeros((4,) + np.shape(k_sq)), 0.0  # D = 0: the identity
    for r_end in breakpoints:
        n = max(1, int(math.ceil((r_end - r) / step)))
        width = (r_end - r) / n
        v_first, v_last = v_func(np.array([r + 1e-12, r_end - 1e-12]))
        if v_first != v_last:
            raise DomainError(f"rk4_radial needs v constant on ({r:g}, {r_end:g})")
        # one step of the segment, on radii shifted by r
        power = _rk4_steps(lambda x: v_func(x + r), k_sq, (width,), width)[:, 0]
        while n:
            if n & 1:
                total = _compose(power, total)
            n >>= 1
            if n:
                power = _compose(power, power)
        r = r_end
    return total[1], 1.0 + total[3]


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
    return _match_boundary(pot, k, float(u[0]), float(du[0]))


def _match_boundary(pot, k: float, u: float, du: float):
    """(a, b) with a j_hat + b n_hat matching (u, u') at r_d."""
    j, jp, n, np_ = riccati_pair_with_derivatives(BesselOrder(pot.beta), k * pot.r_d)
    mat = np.array([[j, n], [k * jp, k * np_]], dtype=float)
    a, b = np.linalg.solve(mat, np.array([u, du], dtype=float))
    return float(a), float(b)


# The threshold piece sums psi omega on [0, b], the bulk (1 - psi) omega
# from a up, where psi is a C-infinity step from 1 at E <= a to 0 at E >= b
# over the junction (a, b): neither piece has an end point there.
_BRUTE_JUNCTION = (0.5, 1.0)
_BRUTE_THRESHOLD_STEP = 4.0e-5  # coarsest threshold step: 0.04 rad of e^{-iEt} at t = 1000
# The bulk step starts at min(_BRUTE_BULK_STEP, pi/(_BRUTE_BULK_STEPS_PER_PI t)):
# under 1/60 of the taper's width of 0.5, (1 - psi) omega's sharpest smooth
# feature, and 8 samples per period of e^{-iEt}.  A narrower resonance halves
# the step: from 8e-3 one ~1e-3 wide stops at 5e-4, from 1e-2 at 3.1e-4.
_BRUTE_BULK_STEP = 8.0e-3
_BRUTE_BULK_STEPS_PER_PI = 4.0
# Amplitude tolerance on each piece's nested estimates, the bulk's sums at
# steps h and h/2 and the threshold's two finest Richardson estimates: half
# the 1e-8 at which `run_verification` compares P = |A|^2.
_BRUTE_NESTED_TOL = 5.0e-9
_BRUTE_E_MAX = 400.0            # the grid ends at the first snap point past it


def _richardson_weights(exponents: tuple[float, ...]) -> np.ndarray:
    """Combination weights for nested trapezoid sums at steps h/2^i.

    Solves for weights that keep the integral (sum one) while removing
    every error contribution proportional to h^s for the given
    exponents; uses one more grid level than exponents killed.
    """
    m = len(exponents) + 1
    mat = np.ones((m, m))
    for j, s in enumerate(exponents):
        # level i is 2^i times coarser than the finest grid, so an error
        # term c h^s enters the level-i sum scaled by 2^(s i)
        mat[j + 1] = 2.0 ** (s * np.arange(m))
    rhs = np.zeros(m)
    rhs[0] = 1.0
    return np.linalg.solve(mat, rhs)


def _threshold_error_exponents(nu: float) -> tuple[float, ...]:
    """Slowest trapezoid error powers for a density rising like E^nu.

    The fractional rise contributes h^(1+nu), h^(1+2nu), ... on top of
    the smooth h^2, h^4 family.  Three powers are removed, near-coincident
    candidates merged so the extrapolation weights stay modest; but for
    nu <= 0.15 that would merge the rungs 1+2nu and 1+3nu into 1+nu, whose
    terms then shrink only ~2.2x per halving.  There the three rungs and
    h^2 are removed, with one more level: the weights' sum of moduli
    stays below 45 for every nu > 0.
    """
    if nu <= 0.15:
        return (1.0 + nu, 1.0 + 2.0 * nu, 1.0 + 3.0 * nu, 2.0)
    cands = sorted([1.0 + nu, 1.0 + 2.0 * nu, 1.0 + 3.0 * nu, 2.0, 3.0])
    kept: list[float] = []
    for s in cands:
        if all(abs(s - x) > 0.15 for x in kept):
            kept.append(s)
        if len(kept) == 3:
            break
    return tuple(kept)


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


def _nested_trapezoid(density, times, lo: float, hi: float, n_fine: int, n_levels: int,
                      counts: dict, keep: str | None = None,
                      midpoints: bool = False) -> np.ndarray:
    """Trapezoid sums of omega(E) e^{-iEt} on nested uniform grids.

    The finest grid has n_fine panels (n_fine divisible by
    2^(n_levels-1)); coarser sums use every 2nd, 4th, ... point.  The
    grid is streamed on `_BRUTE_WORKERS` threads in chunks of
    `_BRUTE_CHUNK / max(2, len(times))` points (a multiple of the
    coarsest stride), one density call each (counted, with its seconds,
    in counts), and each time keeps one running sum per residue of the
    grid index modulo that stride, plus the two end points.  Each worker
    allocates one `_work_block` (its bytes go to counts) and reuses it
    for all its chunks: row 0 holds the chunk's grid and the density's
    intermediates the rest.  With `keep` "below" ("above") the density
    values are multiplied in place by psi (1 - psi), see `_taper`, which
    works in the block's rows 1 and 2 once the density call is done.
    With `midpoints` the points are the n_fine panels' midpoints and the
    sum (n_levels 1) is their midpoint rule M(h): T(h/2) = (T(h) +
    M(h))/2 evaluates only the new points.  Within a chunk starting at
    e0 the phase is e^{-i t e0} times one row e^{-i t h j} per time,
    computed once; one batched matrix-vector product of the rows with
    the chunk's values gives its residue sums.  Returns the sums, shape
    (n_levels, len(times)), finest first.
    """
    import threading
    from concurrent.futures import ThreadPoolExecutor  # imports logging: not at load

    times = np.asarray(times, dtype=float)
    width = 2 ** (n_levels - 1)
    chunk = max(width, _BRUTE_CHUNK // max(2, times.size) // width * width)
    h = (hi - lo) / n_fine
    # rows[p, i, j] holds cos (i < len(times)), then sin, of t_i h (j width + p):
    # a C-contiguous matrix per residue p, for BLAS to multiply by its values
    offsets = np.ascontiguousarray((h * np.arange(chunk)).reshape(-1, width).T)
    sin, cos = _sincos(times[:, None], offsets[:, None, :])
    rows = np.concatenate((cos, sin), axis=1)
    del sin, cos, offsets
    index = np.arange(chunk + 1, dtype=float)
    local, blocks, failed = threading.local(), [], threading.Event()

    def chunk_sum(a):
        if failed.is_set():  # a chunk has raised: its error reaches the caller
            return None
        if not hasattr(local, "block"):  # one per worker, reused for its chunks
            local.block = _work_block(chunk + 1)
            blocks.append(local.block.nbytes)
        b = min(a + chunk, n_fine)
        # np.linspace(lo, hi, n_fine + 1)'s points, or their midpoints, in the
        # block's row 0; the trapezoid grid's last chunk also carries hi
        closes = b == n_fine and not midpoints
        e = local.block[0, :b + closes - a]
        np.multiply(np.add(index[:e.size], a + 0.5 * midpoints, out=e), h, out=e)
        e += lo
        if closes:
            e[-1] = hi
        start = perf_counter()  # E = 0 takes 0, the density's limit at threshold
        try:
            vals = (np.r_[0.0, density.omega(e[1:], work=local.block)] if e[0] == 0.0
                    else density.omega(e, work=local.block))
        except BaseException:
            failed.set()
            raise
        seconds = perf_counter() - start
        if keep is not None:
            _taper(e, vals, local.block[1:3], keep)
        q = (b - a) // width
        cos_sin = (rows[:, :, :q] @ vals[:q * width].reshape(q, width).T[:, :, None])[..., 0].T
        return vals[0], vals[-1], np.exp(-1j * times * e[0])[:, None] * (
            cos_sin[:times.size] - 1j * cos_sin[times.size:]), seconds

    starts = range(0, n_fine, chunk)
    acc = np.zeros((times.size, width), dtype=complex)
    density_s = 0.0
    # Executor.map yields in chunk order, so the sums are the serial ones
    # for any worker count; an exception cancels the chunks not started,
    # and those a worker starts before that skip their density call
    with ThreadPoolExecutor(_BRUTE_WORKERS) as pool:
        for i, (first, last, part, seconds) in enumerate(pool.map(chunk_sum, starts)):
            if i == 0:
                g_lo = first * np.exp(-1j * times * lo)
            acc += part
            density_s += seconds
    counts["density_calls"] = counts.get("density_calls", 0) + len(starts)
    counts["density_s"] = counts.get("density_s", 0.0) + density_s
    counts["work_bytes"] = max(counts.get("work_bytes", 0), sum(blocks))
    # the trapezoid's end points take half weight; the midpoint rule has none
    ends = 0.0 if midpoints else 0.5 * last * np.exp(-1j * times * hi) - 0.5 * g_lo
    sums = [h * 2 ** lev * (acc[:, ::2 ** lev].sum(axis=1) + ends) for lev in range(n_levels)]
    return np.array(sums)


def _bruteforce_on_one_grid(density, times: np.ndarray, counts: dict):
    """Survival at `times` (all zero, or all positive) from one pass.

    The threshold piece is the Richardson combination of its nested sums
    of psi omega on [0, b], at coarsest step _BRUTE_THRESHOLD_STEP.  The
    bulk sums (1 - psi) omega from a to the snapped e_out at steps h and
    h/2, h = min(_BRUTE_BULK_STEP, pi/(_BRUTE_BULK_STEPS_PER_PI t)) for
    the largest time t, adds the finer grid's midpoints while the two
    differ by more than _BRUTE_NESTED_TOL, and returns the finer sum.
    """
    t = float(times.max())
    r_a = density.pot.r_a
    k_req = math.sqrt(max(_BRUTE_E_MAX, 2500.0) if t == 0.0 else _BRUTE_E_MAX)
    if t == 0.0:
        m = math.ceil(2.0 * r_a * k_req / math.pi - 0.5)
        k_out = (m + 0.5) * math.pi / (2.0 * r_a)
    else:
        k_out = math.ceil(r_a * k_req / math.pi) * math.pi / r_a
    e_out = k_out * k_out

    a, b = _BRUTE_JUNCTION
    exponents = _threshold_error_exponents(density.pot.beta + 0.5)
    levels = len(exponents) + 1  # the finest has 2^(levels - 1) panels per coarsest one
    n_thr = 2 ** (levels - 1) * math.ceil(b / _BRUTE_THRESHOLD_STEP)
    h_bulk = min(_BRUTE_BULK_STEP, math.pi / (_BRUTE_BULK_STEPS_PER_PI * t) if t else math.inf)
    n_bulk = 2 * math.ceil((e_out - a) / h_bulk)   # the finer level's panels
    n_points = max(n_thr, n_bulk) + 1
    if n_points > _MAX_BRUTE_POINTS:
        raise ResourceLimitError(
            f"brute-force oracle: grid of {n_points} points at t = {t:g} "
            f"exceeds _MAX_BRUTE_POINTS = {_MAX_BRUTE_POINTS}")

    sums = _nested_trapezoid(density, times, 0.0, b, n_thr, levels, counts, keep="below")
    counts["threshold_evals"] = counts.get("threshold_evals", 0) + n_thr  # all but E = 0
    # the two finest estimates: every level, and all but the coarsest
    amp = _richardson_weights(exponents) @ sums
    gap = float(np.max(np.abs(amp - _richardson_weights(exponents[:-1]) @ sums[:-1])))
    counts["threshold_gap"] = max(counts.get("threshold_gap", 0.0), gap)
    if not gap <= _BRUTE_NESTED_TOL:
        raise ToleranceError(
            f"brute-force oracle: threshold Richardson estimates at t = {t:g} "
            f"differ by {gap:.3g} > _BRUTE_NESTED_TOL = {_BRUTE_NESTED_TOL:g}")
    fine, coarse = _nested_trapezoid(density, times, a, e_out, n_bulk, 2, counts, keep="above")
    counts["bulk_evals"] = counts.get("bulk_evals", 0) + n_bulk + 1
    while not (gap := float(np.max(np.abs(fine - coarse)))) <= _BRUTE_NESTED_TOL:
        if 2 * n_bulk + 1 > _MAX_BRUTE_POINTS:
            h = (e_out - a) / n_bulk
            raise ResourceLimitError(
                f"brute-force oracle: grid of {2 * n_bulk + 1} points at t = {t:g} "
                f"exceeds _MAX_BRUTE_POINTS = {_MAX_BRUTE_POINTS}: the bulk sums at "
                f"steps {2.0 * h:.3g} and {h:.3g} differ by {gap:.3g} > "
                f"_BRUTE_NESTED_TOL = {_BRUTE_NESTED_TOL:g}")
        (mid,) = _nested_trapezoid(density, times, a, e_out, n_bulk, 1, counts,
                                   keep="above", midpoints=True)
        counts["bulk_evals"] += n_bulk
        coarse, fine = fine, 0.5 * (fine + mid)
        n_bulk *= 2
    counts["bulk_gap"] = max(counts.get("bulk_gap", 0.0), gap)
    amp += fine
    if t == 0.0:
        amp += _envelope_tail(density.init.k_a, density.pot.r_a, e_out)
    return np.abs(amp) ** 2


def oracle_survival_bruteforce(density, t, *, counts: dict | None = None):
    """Survival probability by trapezoid sums with Richardson extrapolation.

    Deliberately independent of the panel integrator: plain uniform
    trapezoid sums in two pieces, split by psi, a C-infinity step from 1
    below E = 0.5 to 0 above E = 1 (`_BRUTE_JUNCTION`).  The threshold
    piece psi omega rises with a fractional power at E = 0, so coarsened
    companions remove its slowest error powers with exponent-matched
    weights.  The bulk (1 - psi) omega vanishes to all orders at E = 0.5,
    so its sums converge geometrically once the step resolves e^{-iEt}
    and the taper: at first min(8e-3, pi/(4 t)), halved for the sum
    returned, then halved again by adding midpoints while the two sums
    disagree.  The upper end is snapped, at or past _BRUTE_E_MAX, to a
    zero of the density's high-energy oscillation (a double zero for
    t > 0, making the remainder's boundary terms vanish; for t = 0 a
    point where the envelope estimate of the remaining mass is most
    accurate, and at least 2500 so that estimate is small to begin
    with).  Rather than return an aliased sum it raises: ToleranceError
    where the threshold piece's two finest estimates differ by more than
    _BRUTE_NESTED_TOL, ResourceLimitError (naming the disagreement)
    where the bulk's would need more than _MAX_BRUTE_POINTS points to
    agree that well.

    `t` is a scalar (returns a float) or an array (returns an array of
    its shape).  All positive times share one density pass on the grid
    the largest of them needs; t = 0 has its own grid.  If `counts` is
    given, the density evaluations of the threshold and bulk pieces, the
    density calls and the seconds inside them are added to its
    "threshold_evals", "bulk_evals", "density_calls" and "density_s"
    entries, "work_bytes" holds the most bytes the workers' blocks took
    in one pass, and "threshold_gap" and "bulk_gap" the largest
    disagreement of each piece's nested estimates that was accepted.
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

    `meta` records what the checks cost: density evaluations, calls and
    seconds, brute-force worker threads and the bytes of their work
    blocks, the brute force's minor page faults (None where `resource`
    is missing), RK4 steps and stage seconds.  It takes no part in
    comparing reports.
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
    match_ks = (0.5, 1.0, 2.5)  # integrated in the same RK4 pass as ks
    u_ode, du_ode = ode_oracle_boundary_many(pot, np.r_[ks, match_ks])
    meta["rk4_steps"] = _rk4_grid((pot.r_a, pot.r_d), _MATCH_STEP * pot.r_d)[0].size
    u, du = regular_boundary_sq(pot, ks ** 2)
    scale = np.maximum(np.maximum(np.abs(u), np.abs(du)), 1e-30)
    rel = float(np.max(np.maximum(np.abs(u - u_ode[:ks.size]),
                                  np.abs(du - du_ode[:ks.size])) / scale))
    checks.append(OracleCheck("closed-form boundary vs integrated", rel, 1.0e-8))

    worst = 0.0
    for i, k in enumerate(match_ks, start=ks.size):
        a, b = _match_boundary(pot, k, float(u_ode[i]), float(du_ode[i]))
        direct = density.jost_modulus_sq(k)
        solved = k * k * (a * a + b * b)
        worst = max(worst, abs(direct - solved) / abs(direct))
    checks.append(OracleCheck("Jost modulus vs linear solve", worst, 1.0e-8))
    t1 = perf_counter()

    times = np.asarray(times, dtype=float)
    series = survival_exact(density, times)
    faults = getrusage(RUSAGE_SELF).ru_minflt if getrusage else None
    t2 = perf_counter()
    brute = oracle_survival_bruteforce(density, times, counts=meta)
    faults = getrusage(RUSAGE_SELF).ru_minflt - faults if getrusage else None
    worst = float(np.max(np.abs(series.probability - brute)))
    checks.append(OracleCheck("survival exact vs brute force", worst, 1.0e-8))
    meta.update(workers=_BRUTE_WORKERS, boundary_s=t1 - t0, exact_s=t2 - t1,
                bruteforce_s=perf_counter() - t2, minor_faults=faults)
    return OracleReport(checks=tuple(checks), meta=meta)
