"""Independent cross-checks: ODE integration, linear solve, brute quadrature."""

import itertools
import math
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import tailsurv.oracle
from tailsurv import specfun
from tailsurv.errors import DomainError, ResourceLimitError
from tailsurv.model import regular_boundary_sq
from tailsurv.oracle import (OracleCheck, ode_oracle_boundary_many,
                             oracle_match_coefficients,
                             oracle_survival_bruteforce, rk4_radial,
                             run_verification)
from tailsurv.oracle import (_match_boundary, _rk4_grid, _rk4_steps, _taper,
                             _trapezoid_sums)
from tailsurv.spectral import _work_block
from tailsurv.survival import survival_exact

from conftest import REFERENCE_BETAS, make_density, make_potential


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
    # the bulk grid of t = 1000 (step pi/4000 and its half) up to
    # e_max = 20 000 trips the cap before any density call
    monkeypatch.setattr(tailsurv.oracle, "_BRUTE_E_MAX", 20000.0)
    with pytest.raises(ResourceLimitError, match=(
            r"^brute-force oracle: grid of 51649305 points at t = 1000 "
            r"exceeds _MAX_BRUTE_POINTS = 40000000$")):
        oracle_survival_bruteforce(density_for(0.3), 1000.0)


def _bulk_resonance_density():
    # a resonance ~1e-3 wide that bulk steps of 2e-3 and 1e-3 alias, their
    # sums 7.4e-6 apart, and that 1e-3 and 5e-4 resolve
    return make_density(1.0, v0=1.5, vb=3.0, r_a=1.5, r_d=3.5)


def test_bulk_step_halves_until_its_nested_sums_agree(monkeypatch):
    den = _bulk_resonance_density()
    omega, sums, passes = den.omega, tailsurv.oracle._trapezoid_sums, []

    def recording_omega(e, *, work=None):
        passes[-1][1].append(e.copy())
        return omega(e, work=work)

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
    # the threshold passes come first; then the bulk at step 8e-3 and its
    # midpoints, then three halvings: each evaluates only the midpoints of
    # the grid before it
    bulk = [np.sort(np.concatenate(e)) for keep, e in passes if keep == "above"]
    assert [keep for keep, _ in passes[-len(bulk):]] == ["above"] * len(bulk)
    grid, *halvings = [np.sort(np.concatenate(bulk[:2]))] + bulk[2:]
    assert len(halvings) == 3
    for new in halvings:
        assert np.allclose(new, 0.5 * (grid[1:] + grid[:-1]), rtol=1.0e-15, atol=0.0)
        grid = np.sort(np.concatenate((grid, new)))
    # the final grid's size, where evaluating every level afresh takes 1 643 074
    assert counts["bulk_evals"] == grid.size == 876_305
    assert counts["bulk_gap"] <= tailsurv.oracle._BRUTE_NESTED_TOL
    assert abs(brute - survival_exact(den, [60.0]).probability[0]) <= 1.0e-10


def test_bulk_refinement_cap_names_the_disagreement(monkeypatch):
    monkeypatch.setattr(tailsurv.oracle, "_MAX_BRUTE_POINTS", 800_000)
    with pytest.raises(ResourceLimitError, match=(
            r"^brute-force oracle: grid of 876305 points at t = 60 exceeds "
            r"_MAX_BRUTE_POINTS = 800000: the bulk sums at steps 0.002 and 0.001 "
            r"differ by 7.42e-06 > _BRUTE_NESTED_TOL = 5e-09$")):
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


@pytest.mark.parametrize("kw", [dict(beta=-0.2), dict(beta=0.3), dict(beta=1.0),
                                dict(beta=0.7629, v0=0.753, vb=2.418, r_a=2.868, r_d=4.33)],
                         ids=["beta-0.2", "beta0.3", "beta1.0", "narrow-resonance"])
def test_bulk_step_pi_over_4t_matches_the_64_per_pi_rule(monkeypatch, kw):
    # the steps of pi/(64 t) and their halves, the bulk rule the unsmoothed
    # split at E = 1 needed, against pi/(4 t) and their halves, in both pieces;
    # the positive times share the t = 1000 grid, and t = 0 (steps 0.1 and
    # 8e-3 under both rules) is only checked for its nested sums.  e_max =
    # 100 keeps the fine rule's grid at 4 M points; at 400 the largest
    # difference is 3.8e-15
    den = make_density(**kw)
    monkeypatch.setattr(tailsurv.oracle, "_BRUTE_E_MAX", 100.0)
    times = np.array([0.0, 1.0, 5.0, 60.0, 200.0, 1000.0])
    counts = {}
    coarse = oracle_survival_bruteforce(den, times, counts=counts)
    # one pass each: the nested sums agree far inside the tolerance (their
    # gap is the end point's h^4 term at e_out ~ 100, <= 7.1e-15 at ~400)
    assert counts["bulk_gap"] <= 1.0e-12
    monkeypatch.setattr(tailsurv.oracle, "_BRUTE_STEPS_PER_PI", 64.0)
    fine = oracle_survival_bruteforce(den, times[1:])
    assert np.max(np.abs(coarse[1:] - fine)) <= 1.0e-13


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
    below, above, scratch = np.ones(e.size), np.ones(e.size), np.empty((2, e.size))
    _taper(e, below, scratch, "below")
    _taper(e, above, scratch, "above")
    assert np.all(below[e <= a] == 1.0) and np.all(below[e >= b] == 0.0)
    assert np.all(above[e <= a] == 0.0) and np.all(above[e >= b] == 1.0)
    assert np.max(np.abs(below + above - 1.0)) <= 4.0e-16
    assert np.all(np.diff(below) <= 0.0)
    inside = (e > a) & (e < b)
    x = (e[inside] - a) / (b - a)
    f = lambda s: np.exp(-1.0 / s)  # noqa: E731
    assert np.allclose(below[inside], f(1.0 - x) / (f(x) + f(1.0 - x)), rtol=1.0e-13, atol=0.0)


def test_taper_allocates_no_chunk_sized_array():
    e = np.linspace(0.0, 1.5, 65537)
    vals, scratch = np.ones(e.size), np.empty((2, e.size))
    tracemalloc.start()
    try:
        _taper(e, vals, scratch, "above")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4096


def _one_sum(den, times, lo, hi, n, keep, midpoints=False, counts=None):
    """One trapezoid (or midpoint) sum on a fresh pool of two workers."""
    with ThreadPoolExecutor(2) as pool:
        trapezoid = _trapezoid_sums(den, np.asarray(times, dtype=float),
                                    {} if counts is None else counts, pool)
        return trapezoid(lo, hi, n, keep, midpoints)


# each piece's grid: the threshold's in s, the bulk's on a stretch of E across the taper
PIECES = {"below": (-4.0, 0.0), "above": (0.5, 1.75)}


@pytest.mark.parametrize("keep", ["below", "above"])
def test_tapered_nested_sums_match_whole_grid_sums(monkeypatch, keep):
    # one sum of each piece against numpy's trapezoid on the whole grid: the
    # threshold's is uniform in s, at E = exp(1 + s - e^{-s}) with weight
    # dE/ds.  Chunks of 2000 // max(2, len(times)) points: 4096 panels
    # leave a partial last chunk
    den = make_density(0.3)
    monkeypatch.setattr(tailsurv.oracle, "_BRUTE_CHUNK", 2 * 1000)
    (lo, hi), n = PIECES[keep], 4096
    x = np.linspace(lo, hi, n + 1)
    if keep == "below":
        e = np.exp(1.0 + x - np.exp(-x))
        vals = den.omega(e) * e * (1.0 + np.exp(-x))
    else:
        e = x
        vals = den.omega(e)
    _taper(e, vals, np.empty((2, e.size)), keep)
    for times in ([30.0], [1.0, 7.0, 30.0]):
        counts = {}
        got = _one_sum(den, times, lo, hi, n, keep, counts=counts)
        ref = np.trapezoid(vals * np.exp(-1j * np.outer(times, e)), x, axis=1)
        assert np.max(np.abs(got - ref)) <= 1.0e-14 * np.max(np.abs(ref))
        chunk = 2000 // max(2, len(times))
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
        coarse = _one_sum(den, times, lo, hi, n, keep)
        mid = _one_sum(den, times, lo, hi, n, keep, midpoints=True)
        fine = _one_sum(den, times, lo, hi, 2 * n, keep)
        assert np.max(np.abs(0.5 * (coarse + mid) - fine)) <= 1.0e-14 * np.max(np.abs(fine))


def test_verification_at_verify_times_stays_under_a_million_evaluations(density_for):
    # 2 039 threshold and 223 149 bulk points, where the fractional
    # Richardson threshold took 200 000 and the 64-per-pi rule 3.77 M
    report = run_verification(density_for(0.3), (60.0, 200.0))
    assert report.all_passed
    assert report.meta["threshold_evals"] <= 2_100
    assert report.meta["threshold_evals"] + report.meta["bulk_evals"] < 240_000


@pytest.mark.parametrize("beta", REFERENCE_BETAS)
def test_batched_times_match_one_call_per_time(density_for, monkeypatch, beta):
    # the positive times share the t = 500 grid; e_max = 100 keeps every
    # grid but t = 0's (which starts from e = 2500) four times smaller
    den = density_for(beta)
    monkeypatch.setattr(tailsurv.oracle, "_BRUTE_E_MAX", 100.0)
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
    default = oracle_survival_bruteforce(den, times)
    # chunks of 8008 points for each of the two times: not a divisor of
    # the grid sizes, so the last chunk is partial
    monkeypatch.setattr(tailsurv.oracle, "_BRUTE_CHUNK", 2 * 8008)
    small = oracle_survival_bruteforce(den, times)
    assert np.all(np.abs(small - default) <= 1.0e-13 * default)


@pytest.mark.parametrize("t", [5.0, [3.0, 20.0], [0.0, 1.0, 7.0, 30.0]])
def test_brute_force_is_bit_identical_for_any_worker_count(monkeypatch, t):
    # a fresh order, with both coefficient caches cleared, so that the
    # workers fill the caches concurrently; the first chunk returns last,
    # and four workers on a short switch interval interleave the most
    den = make_density(0.4137)
    omega = den.omega
    monkeypatch.setattr(tailsurv.oracle, "_BRUTE_E_MAX", 100.0)
    runs = []
    for workers in (1, 2, 4):
        calls = itertools.count()

        def first_returns_last(e, *, work=None):
            out = omega(e, work=work)
            if next(calls) == 0:
                time.sleep(0.05)
            return out

        monkeypatch.setattr(den, "omega", first_returns_last)
        monkeypatch.setattr(tailsurv.oracle, "_BRUTE_WORKERS", workers)
        specfun._series_tables.cache_clear()
        specfun._large_x_coefficients.cache_clear()
        threads, interval = threading.active_count(), sys.getswitchinterval()
        sys.setswitchinterval(1.0e-6)
        try:
            runs.append(oracle_survival_bruteforce(den, t))
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == threads
    assert np.array_equal(runs[0], runs[1]) and np.array_equal(runs[0], runs[2])


def test_density_error_in_a_chunk_reaches_the_caller(monkeypatch):
    # at t = 1 the bulk's first sum (54 770 points) streams in 14 chunks of 4096
    den = make_density(0.3)
    calls, omega = itertools.count(), den.omega

    def failing(e, *, work=None):
        if e[0] >= 0.5 and next(calls) == 2:
            raise DomainError("third bulk chunk")
        return omega(e, work=work)

    monkeypatch.setattr(den, "omega", failing)
    monkeypatch.setattr(tailsurv.oracle, "_BRUTE_CHUNK", 2 * 4096)
    threads = threading.active_count()
    with pytest.raises(DomainError, match="third bulk chunk"):
        oracle_survival_bruteforce(den, 1.0)
    assert threading.active_count() == threads
    # the 14 chunks of the bulk's first sum are not all evaluated
    assert next(calls) < 14


def test_chunks_started_after_an_error_skip_the_density(monkeypatch):
    # the first chunk of the bulk's first sum (seven chunks of 8192 points
    # at t = 1) holds its worker for 0.2 s, so the other worker runs the
    # second, the failing third and then reaches the later chunks before
    # the caller sees the error: those skip their density call
    den = make_density(0.3)
    omega, chunks = den.omega, []
    step = 8192 * 8.0e-3  # bulk chunk length for one time
    monkeypatch.setattr(tailsurv.oracle, "_BRUTE_CHUNK", 2 * 8192)

    def slow_first_third_fails(e, *, work=None):
        if e[0] < 0.5:  # the threshold piece's
            return omega(e, work=work)
        k = round((e[0] - 0.5) / step)
        chunks.append(k)
        if k == 0:
            time.sleep(0.2)
        if k == 2:
            raise DomainError("third chunk")
        return omega(e, work=work)

    monkeypatch.setattr(den, "omega", slow_first_third_fails)
    monkeypatch.setattr(tailsurv.oracle, "_BRUTE_WORKERS", 2)
    with pytest.raises(DomainError, match="third chunk"):
        oracle_survival_bruteforce(den, 1.0)
    assert sorted(chunks) == [0, 1, 2]


def test_brute_force_workers_each_reuse_one_block(monkeypatch):
    # every chunk's energies sit in row 0 of its worker's block, and a pass
    # sees no more blocks than workers
    den = make_density(0.3)
    omega, blocks, calls = den.omega, set(), []

    def recording(e, *, work=None):
        assert work is not None and np.shares_memory(e, work[0])
        blocks.add(id(work))
        calls.append(e.size)
        return omega(e, work=work)

    monkeypatch.setattr(den, "omega", recording)
    monkeypatch.setattr(tailsurv.oracle, "_BRUTE_E_MAX", 100.0)
    counts = {}
    oracle_survival_bruteforce(den, [60.0, 200.0], counts=counts)
    # two passes (threshold and bulk), each with its own blocks
    assert len(blocks) <= 2 * tailsurv.oracle._BRUTE_WORKERS
    assert len(calls) == counts["density_calls"] > len(blocks)
    per_block = _work_block(tailsurv.oracle._BRUTE_CHUNK // 2 + 1).nbytes
    assert counts["work_bytes"] in [per_block * w
                                    for w in range(1, tailsurv.oracle._BRUTE_WORKERS + 1)]


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
    assert meta["rk4_steps"] > 0
    assert meta["threshold_evals"] > 0 and meta["bulk_evals"] > 0
    # one call per chunk of at most _BRUTE_CHUNK / 2 points, for two times
    assert meta["density_calls"] >= (meta["threshold_evals"] + meta["bulk_evals"]) \
        / (tailsurv.oracle._BRUTE_CHUNK // 2)
    assert meta["workers"] == tailsurv.oracle._BRUTE_WORKERS
    assert all(meta[k] >= 0.0 for k in ("boundary_s", "exact_s", "bruteforce_s"))
    # seconds inside the density calls, summed over the workers' chunks
    assert 0.0 < meta["density_s"] <= meta["workers"] * meta["bruteforce_s"]
    # one block per worker that took a chunk, of 13 rows of a chunk's points
    per_block = _work_block(tailsurv.oracle._BRUTE_CHUNK // 2 + 1).nbytes
    assert meta["work_bytes"] in [per_block * w for w in range(1, meta["workers"] + 1)]
    # minor page faults of the brute force, where `resource` exists
    try:
        import resource  # noqa: F401
    except ImportError:
        assert meta["minor_faults"] is None
    else:
        assert isinstance(meta["minor_faults"], int) and meta["minor_faults"] >= 0
