"""Independent cross-checks: ODE integration, linear solve, brute quadrature."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

import tailsurv.oracle
import tailsurv.survival
from tailsurv import specfun
from tailsurv.errors import DomainError, ResourceLimitError, ToleranceError
from tailsurv.model import regular_boundary_sq
from tailsurv.oracle import (OracleCheck, ode_oracle_boundary_many,
                             oracle_match_coefficients,
                             oracle_survival_bruteforce, rk4_radial,
                             run_verification)
from tailsurv.oracle import (_match_boundary, _omega_zero, _rk4_grid, _rk4_steps,
                             _taper, _trapezoid_sums)
from tailsurv.survival import survival_exact

from conftest import REFERENCE_BETAS, make_density, make_potential

# the reference geometry at each of REFERENCE_BETAS, and the narrow-resonance well
NARROW = dict(beta=0.7629, v0=0.753, vb=2.418, r_a=2.868, r_d=4.33)
NEAR_THRESHOLD = dict(beta=1.375, v0=2.5, vb=3.0, r_a=1.5, r_d=3.5)
SMALL = dict(beta=0.2, v0=0.2, vb=3.0, r_a=0.6, r_d=1.5)
WELLS = [dict(beta=b) for b in REFERENCE_BETAS] + [NARROW]
WELL_IDS = [f"beta{b}" for b in REFERENCE_BETAS] + ["narrow-resonance"]


# ------------------------------------------------------------------ #
# ODE boundary oracle                                                #
# ------------------------------------------------------------------ #

def test_integration_reproduces_free_trig():
    pot = make_potential(0.0, v0=0.0, vb=0.0)
    (u,), (du,) = ode_oracle_boundary_many(pot, [1.0])
    assert abs(u - math.sin(pot.r_d)) < 1.0e-10
    assert abs(du - math.cos(pot.r_d)) < 1.0e-10


def test_default_step_matches_closed_form_on_grid():
    # the node count's step, 1e-3 r_d, ten times the boundary oracle's
    pot = make_potential(0.3)
    ks = np.linspace(0.05, 3.0, 30)
    u, du = rk4_radial(pot.v, ks ** 2, (pot.r_a, pot.r_d), 1.0e-3 * pot.r_d)
    worst = 0.0
    for i, (cu, cdu) in enumerate(zip(*regular_boundary_sq(pot, ks ** 2))):
        scale = max(abs(cu), abs(cdu))
        worst = max(worst, abs(cu - u[i]) / scale, abs(cdu - du[i]) / scale)
    assert worst < 1.0e-8


def test_finer_step_tightens_agreement():
    pot = make_potential(0.7)
    ks = np.linspace(0.3, 2.7, 5)
    u, du = rk4_radial(pot.v, ks ** 2, (pot.r_a, pot.r_d), 1.0e-4 * pot.r_d)
    assert np.array_equal(u, ode_oracle_boundary_many(pot, ks)[0])
    for i, (cu, cdu) in enumerate(zip(*regular_boundary_sq(pot, ks ** 2))):
        scale = max(abs(cu), abs(cdu))
        assert abs(cu - u[i]) / scale < 1.0e-11
        assert abs(cdu - du[i]) / scale < 1.0e-11


def _classical_rk4_walk(pot, k_sq, breakpoints, step):
    """Reference: textbook RK4 stages, one step at a time, on the oracle's radii."""
    h, radii = _rk4_grid(breakpoints, step)
    u, du = np.zeros_like(k_sq), np.ones_like(k_sq)
    for w, samples in zip(h, radii.T):
        g0, gm, g1 = (pot.v(x) - k_sq for x in samples)
        k1u, k1d = du, g0 * u
        k2u, k2d = du + 0.5 * w * k1d, gm * (u + 0.5 * w * k1u)
        k3u, k3d = du + 0.5 * w * k2d, gm * (u + 0.5 * w * k2u)
        k4u, k4d = du + w * k3d, g1 * (u + w * k3u)
        u = u + w / 6.0 * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        du = du + w / 6.0 * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
    return u, du


def test_composed_step_maps_match_step_walks():
    # raising each segment's one step map to its step count by squaring
    # reorders the rounding only; each step map is the classical
    # four-stage step
    pot = make_potential(0.3)
    k_sq = np.linspace(0.05, 3.0, 7) ** 2
    breakpoints, step = (pot.r_a, pot.r_d), 1.0e-3 * pot.r_d
    u, du = rk4_radial(pot.v, k_sq, breakpoints, step)
    d = _rk4_steps(pot.v, k_sq, breakpoints, step)
    walk_u, walk_du = np.zeros_like(k_sq), np.ones_like(k_sq)
    for d_uu, d_ud, d_du, d_dd in zip(*d):
        walk_u, walk_du = (walk_u + d_uu * walk_u + d_ud * walk_du,
                           walk_du + d_du * walk_u + d_dd * walk_du)
    ref_u, ref_du = _classical_rk4_walk(pot, k_sq, breakpoints, step)
    scale = np.maximum(np.abs(ref_u), np.abs(ref_du))
    for a, b in ((u, walk_u), (du, walk_du), (u, ref_u), (du, ref_du)):
        assert np.max(np.abs(a - b) / scale) <= 1.0e-13


def test_rk4_needs_a_constant_potential_per_segment():
    pot = make_potential(0.3)
    with pytest.raises(DomainError, match="v constant"):
        rk4_radial(pot.v, 1.0, (pot.r_a, pot.r_d, 2.0 * pot.r_d), 1.0e-3 * pot.r_d)


# ------------------------------------------------------------------ #
# exterior matching                                                  #
# ------------------------------------------------------------------ #

def test_matching_from_one_batched_pass_is_bit_identical():
    # run_verification takes its matching data from the boundary-check pass
    pot = make_potential(0.3)
    ks = np.concatenate((np.linspace(0.05, 3.0, 30), (0.5, 1.0, 2.5)))
    u, du = ode_oracle_boundary_many(pot, ks)
    for i, k in enumerate((0.5, 1.0, 2.5), start=30):
        (su,), (sdu,) = ode_oracle_boundary_many(pot, [k])
        assert (su, sdu) == (u[i], du[i])
        assert _match_boundary(pot, k, float(u[i]), float(du[i])) \
            == oracle_match_coefficients(pot, k)


@pytest.mark.parametrize("kw", WELLS, ids=WELL_IDS)
def test_matching_on_an_array_agrees_with_one_momentum_at_a_time(kw):
    # one Riccati call and one stacked solve for every momentum, as
    # run_verification matches its three; the series may size its terms by
    # the call's largest argument, so allow the last bits to move
    pot = make_potential(**kw)
    ks = np.array([0.05, 0.5, 1.0, 1.7, 2.5, 3.0])
    u, du = ode_oracle_boundary_many(pot, ks)
    a, b = _match_boundary(pot, ks, u, du)
    assert a.shape == b.shape == ks.shape
    for i, k in enumerate(ks):
        sa, sb = _match_boundary(pot, k, float(u[i]), float(du[i]))
        scale = math.hypot(sa, sb)
        assert max(abs(a[i] - sa), abs(b[i] - sb)) <= 1.0e-14 * scale


def test_free_matching_gives_unit_modulus():
    pot = make_potential(0.0, v0=0.0, vb=0.0)
    a, b = oracle_match_coefficients(pot, 1.3)
    assert 1.3**2 * (a * a + b * b) == pytest.approx(1.0, abs=1.0e-10)


def test_matching_requires_positive_momentum():
    pot = make_potential(0.3)
    for k in (0.0, -1.0):
        with pytest.raises(DomainError):
            oracle_match_coefficients(pot, k)


def test_matching_agrees_with_production_jost(density_for):
    den = density_for(0.3)
    k = 1.0
    a, b = oracle_match_coefficients(den.pot, k)
    assert k * k * (a * a + b * b) == pytest.approx(
        den.jost_modulus_sq(k), rel=1.0e-8)


# ------------------------------------------------------------------ #
# brute-force survival                                               #
# ------------------------------------------------------------------ #

def test_brute_force_starts_at_unity(density_for):
    assert oracle_survival_bruteforce(density_for(0.3), 0.0) == pytest.approx(
        1.0, abs=1.0e-8)


def test_brute_force_matches_exact_spot(density_for):
    den = density_for(0.3)
    exact = survival_exact(den, np.array([1.0])).probability[0]
    brute = oracle_survival_bruteforce(den, 1.0)
    assert abs(exact - brute) < 1.0e-8


def test_brute_force_validation(density_for):
    den = density_for(0.3)
    for t in (-1.0, [5.0, -1.0], np.array([[-1.0]])):
        with pytest.raises(DomainError):
            oracle_survival_bruteforce(den, t)
    for t in (1500.0, [5.0, 1500.0], np.array([[1500.0]])):
        with pytest.raises(ResourceLimitError):
            oracle_survival_bruteforce(den, t)


def test_brute_force_grid_cap_names_stage_size_and_cap(density_for, monkeypatch):
    # t = 0.03 moves the bulk's end past E = 48 360, where the tail still
    # reads 1.9e-12; the next end's grid at the steps of t = 1000 (2 pi/1400
    # and its half) trips the cap before any sum is taken
    den = density_for(0.3)
    sums = []
    monkeypatch.setattr(tailsurv.oracle, "_trapezoid_sums", lambda *a: sums.append(a))
    with pytest.raises(ResourceLimitError, match=(
            r"^brute-force oracle: grid of 43106605 points at t = 1000 "
            r"exceeds _MAX_BRUTE_POINTS = 40000000: the bulk's tail past "
            r"e_out = 48360\.6 at t = 0\.03 is 1\.89e-12 > _BRUTE_TAIL_TOL = 1e-12$")):
        oracle_survival_bruteforce(den, [0.03, 1000.0])
    assert sums == []


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_brute_force_refuses_a_trapped_state_its_grid_misses():
    # behind an opaque barrier (sqrt(vb) (r_d - r_a) = 200) the state is
    # trapped, P ~ 1, in a resonance far narrower than any grid step: the
    # sums agreed at once and P came back 0 from a density tiny but not 0 on
    # the whole grid.  The grid's mass with the envelope is the envelope's
    # alone (the zero-density wells are in test_survival's underflow test)
    den = make_density(0.3, v0=0.5, vb=1.0e6, r_a=3.0, r_d=3.2)
    for t, mass in ((0.0, r"6\.14e-07"), (1.0, r"0\.000132")):
        with pytest.raises(ToleranceError, match=(
                rf"^brute-force oracle: at t = {t:g} the grid's mass, with the envelope past "
                rf"e_out = [\d.]+, is {mass}, not the state's 1 within _BRUTE_MASS_TOL = 0\.001: ")):
            oracle_survival_bruteforce(den, t)


def _bulk_resonance_density():
    # a resonance ~1e-3 wide that bulk steps of 1.71e-3 and 8.54e-4 alias,
    # their sums 9.9e-7 apart, and that 8.54e-4 and 4.27e-4 resolve
    return make_density(1.0, v0=1.5, vb=3.0, r_a=1.5, r_d=3.5)


def test_bulk_step_halves_until_its_nested_sums_agree(monkeypatch):
    den = _bulk_resonance_density()
    omega, sums, passes = den.omega, tailsurv.oracle._trapezoid_sums, []

    def recording_omega(e):
        if passes:  # not the tail estimate's calls, which come first
            passes[-1][1].append(e.copy())
        return omega(e)

    def recording_sums(*args):
        trapezoid = sums(*args)

        def one_pass(lo, hi, n, keep, midpoints=False):
            passes.append((keep, []))
            return trapezoid(lo, hi, n, keep, midpoints)
        return one_pass

    monkeypatch.setattr(den, "omega", recording_omega)
    monkeypatch.setattr(tailsurv.oracle, "_trapezoid_sums", recording_sums)
    counts = {}
    brute = oracle_survival_bruteforce(den, 60.0, counts=counts)
    # the threshold passes come first; then the bulk's first pass, on the
    # grid of step pi/460 (half of 2 pi/(60 + 400)), then four halvings: each
    # evaluates only the midpoints of the grid before it
    bulk = [np.sort(np.concatenate(e)) for keep, e in passes if keep == "above"]
    assert [keep for keep, _ in passes[-len(bulk):]] == ["above"] * len(bulk)
    grid, *halvings = bulk
    n = math.ceil((counts["e_out"] - 0.5) / (2.0 * math.pi / 460.0))
    assert np.allclose(grid, np.linspace(0.5, counts["e_out"], 2 * n + 1), rtol=1.0e-15, atol=0.0)
    assert len(halvings) == 4
    for new in halvings:
        assert np.allclose(new, 0.5 * (grid[1:] + grid[:-1]), rtol=1.0e-15, atol=0.0)
        grid = np.sort(np.concatenate((grid, new)))
    # the final grid's size, where evaluating every level afresh takes 707 735
    assert counts["bulk_evals"] == grid.size == 365_281
    assert counts["bulk_gap"] <= tailsurv.oracle._BRUTE_NESTED_TOL
    assert abs(brute - survival_exact(den, [60.0]).probability[0]) <= 1.0e-10


def test_bulk_refinement_cap_names_the_disagreement(monkeypatch):
    monkeypatch.setattr(tailsurv.oracle, "_MAX_BRUTE_POINTS", 300_000)
    with pytest.raises(ResourceLimitError, match=(
            r"^brute-force oracle: grid of 365281 points at t = 60 exceeds "
            r"_MAX_BRUTE_POINTS = 300000: the bulk sums at steps 0\.00171 and "
            r"0\.000854 differ by 9\.87e-07 > _BRUTE_NESTED_TOL = 5e-09$")):
        oracle_survival_bruteforce(_bulk_resonance_density(), 60.0)


def test_brute_force_refuses_an_aliased_threshold(monkeypatch):
    # a resonance below E = 1 far narrower than the threshold's first steps:
    # an unchecked sum returned P = 1.4457 at t = 5, where exact gives 0.9572
    # with a stated error of 1.1e-11.  The threshold sums agree from
    # 10.5 M points on (then within 5.3e-12 of exact); under a cap of 1 M
    # the oracle refuses and names the piece, its steps in s and the gap
    den = make_density(0.3, vb=5.0, r_d=5.5)
    exact = survival_exact(den, [5.0])
    assert abs(exact.probability[0] - 0.95716) <= 1.0e-5
    assert exact.meta["max_error_estimate"] <= 1.0e-10
    monkeypatch.setattr(tailsurv.oracle, "_MAX_BRUTE_POINTS", 1_000_000)
    with pytest.raises(ResourceLimitError, match=(
            r"^brute-force oracle: grid of 1310721 points at t = 5 exceeds "
            r"_MAX_BRUTE_POINTS = 1000000: the threshold sums at steps 1\.22e-05 "
            r"and 6\.1e-06 differ by 0\.085 > _BRUTE_NESTED_TOL = 5e-09$")):
        oracle_survival_bruteforce(den, 5.0)


@pytest.mark.parametrize("e_max", [100.0, 200.0], ids=["e_max100", "e_max200"])
@pytest.mark.parametrize("kw", [dict(beta=-0.2), dict(beta=0.3), dict(beta=1.0), NARROW],
                         ids=["beta-0.2", "beta0.3", "beta1.0", "narrow-resonance"])
def test_bulk_step_pi_over_2t_matches_a_16_times_finer_rule(monkeypatch, kw, e_max):
    # first steps of 2 pi/(t + _BRUTE_BULK_BAND) in E and pi/(4 t) in s, and
    # their halves, against a rule 16 times finer in both pieces (below the
    # cap of 0.1 in s), with the bulk's end searched from the first zero of
    # omega past e_max.  The times come in two calls: t = 1 sets the end
    # (E ~ 2900), where the t = 1000 steps would take 80 M fine points, and
    # t = 0 is only checked for its nested sums.  At the longer times the end
    # is the first zero past e_max, so the fine grid stays under 2.2 M
    # points.  The distance to the fine rule is held to the two pieces' gaps
    # together
    den = make_density(**kw)
    monkeypatch.setattr(tailsurv.oracle, "_BRUTE_E_START", e_max)
    for times in ([0.0, 1.0, 5.0], [60.0, 200.0, 1000.0]):
        times = np.array(times)
        pos = times > 0.0
        counts = {}
        coarse = oracle_survival_bruteforce(den, times, counts=counts)
        with monkeypatch.context() as m:
            _finer_rule(m, 16.0, times.max())
            fine = oracle_survival_bruteforce(den, times[pos])
        diff = np.abs(coarse[pos] - fine)
        # the gaps are in amplitude: P = |A|^2 moves by up to (2 |A| + gap) gap
        gap = counts["bulk_gap"] + counts["threshold_gap"]
        assert np.all(diff <= (2.0 * np.sqrt(coarse[pos]) + gap) * gap)
        if e_max == 200.0:
            # one pass each: the nested sums agree well inside the tolerance
            assert counts["bulk_gap"] <= tailsurv.oracle._BRUTE_NESTED_TOL / 10.0
            if times[0] >= 60.0:
                assert diff.max() <= 1.0e-13


def _finer_rule(m, factor: float, t_max: float) -> None:
    """Patch the oracle's first steps `factor` times finer in both pieces at t_max."""
    oracle = tailsurv.oracle
    m.setattr(oracle, "_BRUTE_STEPS_PER_PI", factor * oracle._BRUTE_STEPS_PER_PI)
    m.setattr(oracle, "_BRUTE_BULK_BAND", (factor - 1.0) * t_max + factor * oracle._BRUTE_BULK_BAND)


# the verify times on every well above but the near-threshold one (below);
# the short times, whose bulk runs to E ~ 2900-5800, on the well that moved
# most there and on the narrow one
FINER_CASES = (
    [pytest.param(kw, [60.0, 200.0], id=f"{name}-verify")
     for kw, name in zip(WELLS + [SMALL], WELL_IDS + ["small-well"])]
    + [pytest.param(kw, times, id=f"{name}-{label}")
       for kw, name in ((dict(beta=-0.4), "beta-0.4"), (NARROW, "narrow-resonance"))
       for times, label in (([0.0, 1.0], "t0-t1"), ([0.5, 5.0, 10.0], "short"))])


def _four_times_finer(monkeypatch, den, times):
    """The oracle at `times`, and again with both pieces' first steps 4 times
    finer (the threshold's cap of 0.1 in s as well); the first run's counts."""
    counts = {}
    coarse = oracle_survival_bruteforce(den, times, counts=counts)
    with monkeypatch.context() as m:
        _finer_rule(m, 4.0, max(times))
        m.setattr(tailsurv.oracle, "_BRUTE_S_STEP", tailsurv.oracle._BRUTE_S_STEP / 4.0)
        return coarse, oracle_survival_bruteforce(den, times), counts


@pytest.mark.parametrize("kw, times", FINER_CASES)
def test_brute_force_matches_itself_started_four_times_finer(monkeypatch, kw, times):
    # the returned sum, not only its nested gap: the bulk's first pass puts
    # its first alias at t + _BRUTE_BULK_BAND, so the accepted sum's at
    # t + 2 _BRUTE_BULK_BAND (measured: <= 2.0e-14 here, 1.2e-12 at t = 0
    # with a band of 300)
    coarse, fine, _ = _four_times_finer(monkeypatch, make_density(**kw), times)
    assert np.max(np.abs(coarse - fine)) <= 1.0e-13


def test_near_threshold_well_moves_within_its_threshold_gap(monkeypatch):
    # the near-threshold well's threshold piece stops at a gap g = 7.6e-12,
    # and a 4 times finer start moves P by 2.8e-13 (5.5e-13 at 16 times,
    # 1.6e-15 from the bulk alone): P = |A|^2 may move by (2 |A| + g) g
    coarse, fine, counts = _four_times_finer(monkeypatch, make_density(**NEAR_THRESHOLD),
                                             [60.0, 200.0])
    gap = counts["threshold_gap"] + counts["bulk_gap"]
    assert counts["bulk_gap"] <= 1.0e-13
    assert np.all(np.abs(coarse - fine) <= (2.0 * np.sqrt(coarse) + gap) * gap)


def test_small_nu_brute_force_holds_1e_8():
    # beta = -0.45 (nu = 0.05): with the rungs merged the brute force was off
    # by 2.9e-8 at t = 5 and 1.2e-8 at t = 10, shrinking ~2.3x per halving of
    # its threshold step, and the verification row failed
    report = run_verification(make_density(-0.45), (5.0, 10.0))
    assert report.all_passed, list(report.lines())
    assert report.meta["threshold_gap"] <= tailsurv.oracle._BRUTE_NESTED_TOL


@pytest.mark.parametrize("beta", [-0.45, -0.499])
def test_brute_force_at_small_nu_matches_exact_within_1e_11(beta):
    # nu = 0.05 and 0.001: the mapped threshold sum converges whatever the
    # power of the rise at E = 0; the fractional Richardson scheme it
    # replaced was off by 1.45e-10 and 9.1e-10 here
    den = make_density(beta)
    times = np.array([10.0, 60.0])
    exact = survival_exact(den, times).probability
    assert np.max(np.abs(oracle_survival_bruteforce(den, times) - exact)) <= 1.0e-11


def test_taper_is_a_smooth_partition_of_unity():
    a, b = tailsurv.oracle._BRUTE_JUNCTION
    e = np.linspace(0.0, 1.5, 3001)
    below, above = np.ones(e.size), np.ones(e.size)
    _taper(e, below, "below")
    _taper(e, above, "above")
    assert np.all(below[e <= a] == 1.0) and np.all(below[e >= b] == 0.0)
    assert np.all(above[e <= a] == 0.0) and np.all(above[e >= b] == 1.0)
    assert np.max(np.abs(below + above - 1.0)) <= 4.0e-16
    assert np.all(np.diff(below) <= 0.0)
    inside = (e > a) & (e < b)
    x = (e[inside] - a) / (b - a)
    f = lambda s: np.exp(-1.0 / s)  # noqa: E731
    assert np.allclose(below[inside], f(1.0 - x) / (f(x) + f(1.0 - x)), rtol=1.0e-13, atol=0.0)


def _one_sum(den, times, lo, hi, n, keep, midpoints=False, counts=None):
    """One pass: the trapezoid sums at steps h and 2h (or the midpoint sum and 0)."""
    trapezoid = _trapezoid_sums(den, np.asarray(times, dtype=float),
                                {} if counts is None else counts)
    return trapezoid(lo, hi, n, keep, midpoints)


# each piece's grid: the threshold's in s, the bulk's on a stretch of E across the taper
PIECES = {"below": (-4.0, 0.0), "above": (0.5, 1.75)}


@pytest.mark.parametrize("keep", ["below", "above"])
def test_tapered_nested_sums_match_whole_grid_sums(monkeypatch, keep):
    # one pass of each piece against numpy's trapezoid on the whole grid and
    # on its even-indexed points: the threshold's is uniform in s, at
    # E = exp(1 + s - e^{-s}) with weight dE/ds.  Chunks of
    # 2002 // max(2, len(times)) points, 1001 or 667: 4096 panels leave a
    # partial last chunk, and every other chunk starts on an odd index
    den = make_density(0.3)
    monkeypatch.setattr(tailsurv.oracle, "_BRUTE_CHUNK", 2002)
    (lo, hi), n = PIECES[keep], 4096
    x = np.linspace(lo, hi, n + 1)
    if keep == "below":
        e = np.exp(1.0 + x - np.exp(-x))
        vals = den.omega(e) * e * (1.0 + np.exp(-x))
    else:
        e = x
        vals = den.omega(e)
    _taper(e, vals, keep)
    for times in ([30.0], [1.0, 7.0, 30.0]):
        counts = {}
        got = _one_sum(den, times, lo, hi, n, keep, counts=counts)
        # the last column sums omega alone: the piece's mass on each grid
        terms = np.vstack((vals * np.exp(-1j * np.outer(times, e)), vals))
        for sums, ref in zip(got, (np.trapezoid(terms, x, axis=1),
                                   np.trapezoid(terms[:, ::2], x[::2], axis=1))):
            assert np.max(np.abs(sums - ref)) <= 1.0e-14 * np.max(np.abs(ref))
        chunk = 2002 // max(2, len(times))
        assert n % chunk and counts["density_calls"] == -(-n // chunk)
        assert counts["density_s"] > 0.0


@pytest.mark.parametrize("times", [[30.0], [1.0, 7.0, 30.0]])
def test_midpoint_sum_halves_the_trapezoid_step(monkeypatch, times):
    # (T(h) + M(h)) / 2 is T(h/2) in both pieces, across the taper and with
    # a partial last chunk (1000 or 666 points against 2048)
    den = make_density(0.3)
    monkeypatch.setattr(tailsurv.oracle, "_BRUTE_CHUNK", 2 * 1000)
    n = 2048
    for keep, (lo, hi) in PIECES.items():
        coarse = _one_sum(den, times, lo, hi, n, keep)[0]
        mid = _one_sum(den, times, lo, hi, n, keep, midpoints=True)[0]
        fine = _one_sum(den, times, lo, hi, 2 * n, keep)[0]
        assert np.max(np.abs(0.5 * (coarse + mid) - fine)) <= 1.0e-14 * np.max(np.abs(fine))


def test_verification_at_verify_times_stays_under_a_million_evaluations(density_for):
    # 2 039 threshold and 29 971 bulk points, the bulk up to e_out = 157.4 from
    # a step of 2 pi/600; from min(8e-3, pi/(2t)) it took 39 959, ending at
    # E = 438.6 111 575, the fractional Richardson threshold 200 000 and the
    # 64-per-pi rule 3.77 M
    report = run_verification(density_for(0.3), (60.0, 200.0))
    assert report.all_passed
    assert report.meta["threshold_evals"] <= 2_100
    assert report.meta["bulk_evals"] <= 33_000


@pytest.mark.parametrize("kw, threshold_evals",
                         list(zip(WELLS, [2039] * len(REFERENCE_BETAS) + [8153])), ids=WELL_IDS)
def test_bulk_takes_one_pass_at_verify_times(kw, threshold_evals):
    # at t = (60, 200) the bulk's first sums, at steps 2 pi/600 and pi/600 in
    # E up to e_out, agree within a tenth of the tolerance (1.7e-11 to
    # 1.9e-11 on the reference wells, 5.3e-13 on the narrow one), so no
    # midpoints follow; the threshold keeps its steps of pi/800 in s and its
    # evaluations
    den = make_density(**kw)
    counts = {}
    oracle_survival_bruteforce(den, np.array([60.0, 200.0]), counts=counts)
    assert 64.0 <= counts["e_out"] <= 400.0
    assert counts["tail_estimate"] <= tailsurv.oracle._BRUTE_TAIL_TOL
    step = 2.0 * math.pi / (200.0 + tailsurv.oracle._BRUTE_BULK_BAND)
    n = math.ceil((counts["e_out"] - 0.5) / step)
    assert counts["bulk_evals"] == 2 * n + 1
    assert counts["bulk_gap"] <= tailsurv.oracle._BRUTE_NESTED_TOL / 10.0
    assert counts["threshold_evals"] == threshold_evals


def test_a_one_pass_piece_makes_one_density_call(monkeypatch):
    # at the verify times each piece's first pair of sums comes from one pass
    # on the finer grid, one density call per chunk of _BRUTE_CHUNK / 2
    # panels (the 2039 threshold points in one call, the 29 971 bulk points
    # in 8192, 8192, 8192 and 5395), after one call for the three candidate
    # ends' stencils
    den = make_density(0.3)
    omega, calls = den.omega, []

    def recording(e):
        calls.append(e.size)
        return omega(e)

    monkeypatch.setattr(den, "omega", recording)
    counts = {}
    oracle_survival_bruteforce(den, np.array([60.0, 200.0]), counts=counts)
    chunk = tailsurv.oracle._BRUTE_CHUNK // 2
    passes = {piece: math.ceil((counts[f"{piece}_evals"] - 1) / chunk)
              for piece in ("threshold", "bulk")}
    assert calls[0] == 15
    sizes = {"threshold": calls[1:1 + passes["threshold"]],
             "bulk": calls[1 + passes["threshold"]:]}
    for piece, n_calls in passes.items():
        assert len(sizes[piece]) == n_calls
        assert sum(sizes[piece]) == counts[f"{piece}_evals"]
        assert all(size == chunk for size in sizes[piece][:-1])
    assert counts["density_calls"] == len(calls) - 1 == passes["threshold"] + passes["bulk"] > 2


@pytest.mark.parametrize("kw", [dict(beta=0.3, v0=0.0), dict(beta=0.3), NEAR_THRESHOLD],
                         ids=["v0-0", "v0-0.5", "v0-2.5"])
def test_bulk_ends_on_a_double_zero_of_omega(kw):
    # omega carries sin^2(k_I r_a) with k_I = sqrt(E + v0): at e_out it is
    # 0 to rounding (4e-29 of its neighbours), where k_out r_a = m pi
    # read 2.5e-3 at v0 = 0.5
    den = make_density(**kw)
    counts = {}
    oracle_survival_bruteforce(den, 60.0, counts=counts)
    v0, r_a = den.pot.v0, den.pot.r_a
    k_i = math.sqrt(counts["e_out"] + v0)
    quarter = [(k_i + s * math.pi / (4.0 * r_a)) ** 2 - v0 for s in (-1.0, 1.0)]
    below, at, above = den.omega(np.array([quarter[0], counts["e_out"], quarter[1]]))
    assert abs(at) <= 1.0e-24 * max(below, above)


@pytest.mark.parametrize("t", [0.5, 10.0])
@pytest.mark.parametrize("kw", [dict(beta=0.3), SMALL], ids=["beta0.3", "small-well"])
def test_tail_estimate_states_the_integral_left_out(kw, t):
    # what the bulk leaves out: omega e^{-iEt} from e_out to the zero past
    # 64 e_out, whose own tail is ~5e-7 of e_out's, summed on 32 points per
    # period of e^{-iEt} (both ends are double zeros).  The five terms by
    # parts exceed it by 0.1-0.3% here; four fell 0.3% short at t = 0.5
    den = make_density(**kw)
    counts = {}
    oracle_survival_bruteforce(den, t, counts=counts)
    e_out, tail = counts["e_out"], counts["tail_estimate"]
    e_deep = _omega_zero(den, 64.0 * e_out)
    n = math.ceil((e_deep - e_out) * 32.0 * t / (2.0 * math.pi))
    left_out = abs(_trapezoid_sums(den, np.array([t]), {})(e_out, e_deep, n, "above")[0, 0])
    assert left_out <= tail <= 1.01 * left_out
    assert tail <= tailsurv.oracle._BRUTE_TAIL_TOL


@pytest.mark.parametrize("kw", [
    dict(beta=0.3),
    pytest.param(SMALL, marks=pytest.mark.xfail(strict=True, reason=(
        "at t = 0 the bulk ends near E = 2606 and adds the envelope estimate of "
        "the rest, which states no error: on the small well the brute force is "
        "1.7e-6 from exact's P(0), the squared spectral mass (4.5e-10 on the "
        "reference well)")))], ids=["beta0.3", "small-well"])
def test_bruteforce_at_t0_matches_the_spectral_mass(kw):
    den = make_density(**kw)
    exact = survival_exact(den, [0.0]).probability[0]
    assert abs(oracle_survival_bruteforce(den, 0.0) - exact) <= 1.0e-8


@pytest.mark.parametrize("beta", REFERENCE_BETAS)
def test_batched_times_match_one_call_per_time(density_for, beta):
    # the positive times share the t = 500 grid, up to the end that t = 1
    # needs, and t = 0 has its own, up from e = 2500
    den = density_for(beta)
    times = np.array([0.0, 1.0, 60.0, 200.0, 500.0])
    batched = oracle_survival_bruteforce(den, times)
    assert batched.shape == times.shape
    for t, p in zip(times, batched):
        single = oracle_survival_bruteforce(den, t)
        assert isinstance(single, float)
        assert abs(p - single) <= 1.0e-12


def test_brute_force_does_not_depend_on_chunk_length(density_for, monkeypatch):
    den = density_for(0.3)
    times = np.array([60.0, 200.0])
    counts, small_counts = {}, {}
    default = oracle_survival_bruteforce(den, times, counts=counts)
    # chunks of 2003 points for each of the two times, well below the
    # default: odd, so every other chunk starts on an odd index of the grid,
    # and not a divisor of the grid sizes, so the last chunk is partial; the
    # coarser sum of each first pass, from the even-indexed points, agrees
    # as well, so the pieces stop after the same passes
    monkeypatch.setattr(tailsurv.oracle, "_BRUTE_CHUNK", 2 * 2003)
    small = oracle_survival_bruteforce(den, times, counts=small_counts)
    assert np.all(np.abs(small - default) <= 1.0e-13 * default)
    assert small_counts["density_calls"] > counts["density_calls"]
    for key in ("threshold_evals", "bulk_evals"):
        assert small_counts[key] == counts[key]
    for key in ("threshold_gap", "bulk_gap"):
        assert small_counts[key] == pytest.approx(counts[key], rel=1.0e-3)


def test_density_error_in_a_chunk_reaches_the_caller(monkeypatch):
    # at t = 1 the bulk's first pass streams in chunks of 4096 points; the
    # third one's error ends the oracle, and no later chunk is evaluated
    den = make_density(0.3)
    calls, omega = itertools.count(), den.omega

    def failing(e):
        # the threshold's chunks and the tail estimates' stencils (15 points) pass
        if e[0] >= 0.5 and e.size != 15 and next(calls) == 2:
            raise DomainError("third bulk chunk")
        return omega(e)

    monkeypatch.setattr(den, "omega", failing)
    monkeypatch.setattr(tailsurv.oracle, "_BRUTE_CHUNK", 2 * 4096)
    with pytest.raises(DomainError, match="third bulk chunk"):
        oracle_survival_bruteforce(den, 1.0)
    assert next(calls) == 3


def test_chunks_started_after_an_error_skip_the_density(monkeypatch):
    # the bulk's first pass at t = 1 streams in chunks of 8192 points; the
    # third one fails, and the chunks after it make no density call
    den = make_density(0.3)
    omega, chunks = den.omega, []
    step = 8192 * math.pi / 401.0  # bulk chunk length for one time, at step pi/(1 + 400)
    monkeypatch.setattr(tailsurv.oracle, "_BRUTE_CHUNK", 2 * 8192)

    def third_fails(e):
        if e[0] < 0.5 or e.size == 15:  # the threshold piece's, the tail estimates'
            return omega(e)
        k = round((e[0] - 0.5) / step)
        chunks.append(k)
        if k == 2:
            raise DomainError("third chunk")
        return omega(e)

    monkeypatch.setattr(den, "omega", third_fails)
    with pytest.raises(DomainError, match="third chunk"):
        oracle_survival_bruteforce(den, 1.0)
    assert chunks == [0, 1, 2]


def test_brute_force_memory_does_not_grow_with_grid(density_for):
    den = density_for(0.3)
    tracemalloc.start()
    try:
        oracle_survival_bruteforce(den, 200.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2**20


# ------------------------------------------------------------------ #
# report                                                             #
# ------------------------------------------------------------------ #

def test_verification_looks_up_exact_survival_in_its_module(monkeypatch):
    # a wrapper swapped into tailsurv.survival, as a tracer installs one,
    # sees run_verification's one call
    calls, exact = [], tailsurv.survival.survival_exact

    def counting(*args, **kwargs):
        calls.append(args)
        return exact(*args, **kwargs)

    monkeypatch.setattr(tailsurv.survival, "survival_exact", counting)
    assert run_verification(make_density(0.3), (1.0, 5.0)).all_passed
    assert len(calls) == 1


def test_check_verdict_logic():
    assert OracleCheck("x", 2.0e-9, 1.0e-8).passed
    assert not OracleCheck("x", 2.0e-8, 1.0e-8).passed


def test_verification_report(density_for):
    report = run_verification(density_for(0.3))
    assert report.all_passed
    lines = list(report.lines())
    assert len(lines) == 3
    assert all(line.startswith("pass") for line in lines)
    joined = "\n".join(lines)
    for label in ("boundary", "Jost", "brute"):
        assert label in joined
    meta = report.meta
    pot = density_for(0.3).pot
    assert meta["rk4_steps"] == _rk4_grid((pot.r_a, pot.r_d),
                                          tailsurv.oracle._MATCH_STEP * pot.r_d)[0].size
    assert meta["threshold_evals"] > 0 and meta["bulk_evals"] > 0
    # one call per chunk of at most _BRUTE_CHUNK / 2 points, for two times
    assert meta["density_calls"] >= (meta["threshold_evals"] + meta["bulk_evals"]) \
        / (tailsurv.oracle._BRUTE_CHUNK // 2)
    assert "workers" not in meta
    assert all(meta[k] >= 0.0 for k in ("boundary_s", "exact_s", "bruteforce_s"))
    # seconds inside the density calls, summed over the chunks
    assert 0.0 < meta["density_s"] <= meta["bruteforce_s"]
    # the bulk's end, a double zero of omega, and its stated tail
    assert 64.0 <= meta["e_out"] and 0.0 < meta["tail_estimate"] <= 1.0e-12
    # minor page faults of the brute force, where `resource` exists
    try:
        import resource  # noqa: F401
    except ImportError:
        assert meta["minor_faults"] is None
    else:
        assert isinstance(meta["minor_faults"], int) and meta["minor_faults"] >= 0
