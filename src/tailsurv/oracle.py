"""Independent verification routes for the main computational pipeline.

Every function here reaches the same physical quantities as the
production modules through a deliberately different numerical scheme:

* fixed-step fourth-order integration of the radial equation instead of
  the closed piecewise forms;
* a direct 2x2 linear solve for the exterior matching coefficients
  instead of the assembled quadratic-combination formula;
* uniform ultra-fine trapezoidal quadrature with one Richardson step
  instead of the panel/moment oscillatory integrator.

None of the production results are reused internally beyond the shared
special-function evaluations that define the problem itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ResourceLimitError
from .specfun import BesselOrder, riccati_pair_with_derivatives
from .survival import _envelope_tail

# Hard cap on brute-force grid size (memory and runtime guard).
_MAX_BRUTE_POINTS = 40_000_000


def _rk4_steps(v_func, k_sq, breakpoints, step: float):
    """Yield (u, u') after each step of u'' = (v(r) - k^2) u from r = 0.

    Classical RK4 on the first-order system, started at u = 0, u' = 1.
    `breakpoints` lists radii of potential discontinuities plus the end
    radius, in increasing order; steps are aligned to each segment so
    the fourth-order accuracy survives the jumps.  Vectorized over
    k_sq; v_func is called once per segment on the array of every
    step's start, midpoint and end radius.
    """
    k_sq = np.asarray(k_sq, dtype=float)
    u = np.zeros_like(k_sq)
    du = np.ones_like(k_sq)
    r = 0.0
    for r_end in breakpoints:
        n = max(1, int(math.ceil((r_end - r) / step)))
        h = (r_end - r) / n
        # keep sample points strictly inside the segment so boundary
        # steps see the correct side of each discontinuity
        r0 = r + np.arange(n) * h
        v0, vm, v1 = v_func(np.clip(np.stack((r0, r0 + 0.5 * h, r0 + h)),
                                    r + 1e-12, r_end - 1e-12))
        for i in range(n):
            g0, gm, g1 = v0[i] - k_sq, vm[i] - k_sq, v1[i] - k_sq
            k1u, k1d = du, g0 * u
            k2u, k2d = du + 0.5 * h * k1d, gm * (u + 0.5 * h * k1u)
            k3u, k3d = du + 0.5 * h * k2d, gm * (u + 0.5 * h * k2u)
            k4u, k4d = du + h * k3d, g1 * (u + h * k3u)
            u = u + h / 6.0 * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
            du = du + h / 6.0 * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
            yield u, du
        r = r_end


def rk4_radial(v_func, k_sq, breakpoints, step: float):
    """Integrate u'' = (v(r) - k^2) u from r = 0 with u = 0, u' = 1.

    Returns (u, u') at the final breakpoint; see `_rk4_steps`.
    """
    for u, du in _rk4_steps(v_func, k_sq, breakpoints, step):
        pass
    return u, du


def count_nodes_zero_energy(pot, r_max_factor: float = 10.0,
                            step_factor: float = 1.0e-3) -> int:
    """Nodes of the zero-energy regular solution on (0, r_max_factor * r_d].

    Counts strict sign changes of u over the RK4 steps.  A node signals
    a bound state in the spectrum.
    """
    breakpoints = (pot.r_a, pot.r_d, r_max_factor * pot.r_d)
    changes, last = 0, 0
    for u, _ in _rk4_steps(pot.v, 0.0, breakpoints, step_factor * pot.r_d):
        sign = int(np.sign(u))
        if sign:
            if last == -sign:
                changes += 1
            last = sign
    return changes


def ode_oracle_boundary_many(pot, ks, step: float | None = None):
    """Vectorized regular-solution boundary data at r_d for real k values.

    One integration pass carries all momenta simultaneously; `step`
    defaults to 1e-3 * r_d and must not exceed it.  Returns (u, du)
    arrays aligned with ks.
    """
    if step is None:
        step = 1.0e-3 * pot.r_d
    if step > 1.0e-3 * pot.r_d:
        raise DomainError(
            f"oracle step must be <= 1e-3 * r_d = {1.0e-3 * pot.r_d:g}, got {step:g}")
    ks = np.asarray(ks, dtype=float)
    return rk4_radial(pot.v, ks * ks, (pot.r_a, pot.r_d), step)


def ode_oracle_boundary(pot, k: float, step: float | None = None):
    """Regular-solution boundary data at r_d by fixed-step integration."""
    from .model import RegularSolutionBoundary

    k = float(k)
    u, du = ode_oracle_boundary_many(pot, [k], step)
    return RegularSolutionBoundary(k=k, u=float(u[0]), du=float(du[0]))


def oracle_match_coefficients(pot, k: float, step: float | None = None):
    """Exterior expansion coefficients (a, b) by direct linear solve.

    Matches ODE-integrated (u, u') at r_d against a j_hat(k r) +
    b n_hat(k r); returns (a, b).  The production Jost modulus can then
    be cross-checked against k^2 (a^2 + b^2).
    """
    k = float(k)
    if k <= 0.0:
        raise DomainError(f"matching requires k > 0, got {k:g}")
    bnd = ode_oracle_boundary(pot, k, step)
    order = BesselOrder(pot.beta)
    x_d = k * pot.r_d
    j, jp, n, np_ = riccati_pair_with_derivatives(order, x_d)
    mat = np.array([[j, n], [k * jp, k * np_]], dtype=float)
    rhs = np.array([bnd.u, bnd.du], dtype=float)
    a, b = np.linalg.solve(mat, rhs)
    return float(a), float(b)


_BRUTE_THRESHOLD_EDGE = 1.0     # end of the fractional-power segment
_BRUTE_THRESHOLD_STEP = 4.0e-5  # base step there (<= pi/(64 t) for t <= 1000)
_BRUTE_BULK_STEP = 2.0e-3       # bulk step cap; resolves the resonance peak


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
    """Three slowest trapezoid error powers for a density rising like E^nu.

    The fractional rise contributes h^(1+nu), h^(1+2nu), ... on top of
    the smooth h^2, h^4 family; near-coincident candidates are merged so
    the extrapolation weights stay modest.
    """
    cands = sorted([1.0 + nu, 1.0 + 2.0 * nu, 1.0 + 3.0 * nu, 2.0, 3.0])
    kept: list[float] = []
    for s in cands:
        if all(abs(s - x) > 0.15 for x in kept):
            kept.append(s)
        if len(kept) == 3:
            break
    return tuple(kept)


def _nested_trapezoid(density, t: float, lo: float, hi: float,
                      n_fine: int, n_levels: int) -> list[complex]:
    """Trapezoid sums of omega(E) e^{-iEt} on nested uniform grids.

    The finest grid has n_fine panels (n_fine divisible by
    2^(n_levels-1)); coarser sums reuse every 2nd, 4th, ... point.
    Returns the sums finest first.
    """
    grid = np.linspace(lo, hi, n_fine + 1)
    vals = np.empty(n_fine + 1)
    start = 0
    if grid[0] == 0.0:
        vals[0] = 0.0  # limit value of the density at threshold
        start = 1
    chunk = 250_000
    for a in range(start, n_fine + 1, chunk):
        b = min(a + chunk, n_fine + 1)
        vals[a:b] = density.omega(grid[a:b])
    g = vals * np.exp(-1j * t * grid)
    out = []
    h_fine = (hi - lo) / n_fine
    for lev in range(n_levels):
        stride = 2 ** lev
        sub = g[::stride]
        out.append(h_fine * stride
                   * (np.sum(sub) - 0.5 * (sub[0] + sub[-1])))
    return out


def oracle_survival_bruteforce(density, t: float, e_max: float = 400.0,
                               step_divisor: float = 64.0) -> float:
    """Survival probability by trapezoid sums with Richardson extrapolation.

    Deliberately independent of the panel integrator: plain uniform
    trapezoid sums, every step at or below pi/(step_divisor * t), in
    two pieces.  On [0, 1] the density rises with a fractional power,
    so three coarsened companions remove the three slowest error powers
    with exponent-matched weights; the bulk piece uses the classical
    one-halving h^2 extrapolation.  The upper end is snapped to a zero
    of the density's high-energy oscillation (a double zero for t > 0,
    making the remainder's boundary terms vanish; for t = 0 a point
    where the envelope estimate of the remaining mass is most accurate,
    and at least 2500 so that estimate is small to begin with).
    """
    t = float(t)
    if t < 0.0:
        raise DomainError(f"time must be >= 0, got {t:g}")
    if t > 1000.0:
        raise ResourceLimitError(
            f"brute-force quadrature is capped at t <= 1000, got {t:g}")
    bound = math.pi / (step_divisor * max(t, 1.0))
    r_a = density.pot.r_a
    k_req = math.sqrt(max(e_max, 2500.0 if t == 0.0 else e_max))
    if t == 0.0:
        m = math.ceil(2.0 * r_a * k_req / math.pi - 0.5)
        k_out = (m + 0.5) * math.pi / (2.0 * r_a)
    else:
        k_out = math.ceil(r_a * k_req / math.pi) * math.pi / r_a
    e_out = k_out * k_out

    edge = _BRUTE_THRESHOLD_EDGE
    h_thr = min(_BRUTE_THRESHOLD_STEP, bound)
    n_thr = -8 * (-math.ceil(edge / h_thr) // 8)   # multiple of 8
    h_bulk = min(_BRUTE_BULK_STEP, bound)
    n_bulk = 2 * math.ceil((e_out - edge) / (2.0 * h_bulk))
    if max(8 * n_thr, 2 * n_bulk) + 1 > _MAX_BRUTE_POINTS:
        raise ResourceLimitError(
            f"brute-force grid of {2 * n_bulk + 1} points exceeds the cap")

    nu = density.pot.beta + 0.5
    weights = _richardson_weights(_threshold_error_exponents(nu))
    sums_thr = _nested_trapezoid(density, t, 0.0, edge, 8 * n_thr,
                                 len(weights))
    amp = complex(np.dot(weights, sums_thr))
    sums_bulk = _nested_trapezoid(density, t, edge, e_out, 2 * n_bulk, 2)
    amp += (4.0 * sums_bulk[0] - sums_bulk[1]) / 3.0
    if t == 0.0:
        amp += _envelope_tail(density.init.k_a, density.pot.r_a, e_out)
    return float(abs(amp) ** 2)


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
    """Bundle of verification rows with an overall verdict."""

    checks: tuple[OracleCheck, ...] = field(default_factory=tuple)

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
    from .model import regular_boundary
    from .survival import survival_exact

    pot = density.pot
    checks = []

    ks = np.linspace(0.05, 3.0, 30)
    u_ode, du_ode = ode_oracle_boundary_many(pot, ks, step=1.0e-4 * pot.r_d)
    rel = 0.0
    for i, k in enumerate(ks):
        closed = regular_boundary(pot, float(k))
        scale = max(abs(closed.u), abs(closed.du), 1e-30)
        rel = max(rel, abs(closed.u - u_ode[i]) / scale,
                  abs(closed.du - du_ode[i]) / scale)
    checks.append(OracleCheck("closed-form boundary vs integrated", rel, 1.0e-8))

    worst = 0.0
    for k in (0.5, 1.0, 2.5):
        a, b = oracle_match_coefficients(pot, k, step=1.0e-4 * pot.r_d)
        direct = density.jost_modulus_sq(k)
        solved = k * k * (a * a + b * b)
        worst = max(worst, abs(direct - solved) / abs(direct))
    checks.append(OracleCheck("Jost modulus vs linear solve", worst, 1.0e-8))

    series = survival_exact(density, np.asarray(times, dtype=float))
    worst = 0.0
    for i, t in enumerate(times):
        brute = oracle_survival_bruteforce(density, float(t))
        worst = max(worst, abs(series.probability[i] - brute))
    checks.append(OracleCheck("survival exact vs brute force", worst, 1.0e-8))

    return OracleReport(checks=tuple(checks))
