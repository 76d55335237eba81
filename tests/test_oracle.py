"""Independent cross-checks: ODE integration, linear solve, brute quadrature."""

import itertools
import math
import sys
import threading
import time
import tracemalloc

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
from tailsurv.oracle import _match_boundary, _nested_trapezoid, _rk4_grid, _rk4_steps
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
    pot = make_potential(0.3)
    ks = np.linspace(0.05, 3.0, 30)
    u, du = ode_oracle_boundary_many(pot, ks)
    worst = 0.0
    for i, (cu, cdu) in enumerate(zip(*regular_boundary_sq(pot, ks ** 2))):
        scale = max(abs(cu), abs(cdu))
        worst = max(worst, abs(cu - u[i]) / scale, abs(cdu - du[i]) / scale)
    assert worst < 1.0e-8


def test_finer_step_tightens_agreement():
    pot = make_potential(0.7)
    ks = np.linspace(0.3, 2.7, 5)
    u, du = ode_oracle_boundary_many(pot, ks, step=1.0e-4 * pot.r_d)
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


def test_step_cap_enforced():
    pot = make_potential(0.3)
    with pytest.raises(DomainError):
        ode_oracle_boundary_many(pot, [1.0], step=4.0e-3)


# ------------------------------------------------------------------ #
# exterior matching                                                  #
# ------------------------------------------------------------------ #

def test_matching_from_one_batched_pass_is_bit_identical():
    # run_verification takes its matching data from the boundary-check pass
    pot = make_potential(0.3)
    ks = np.concatenate((np.linspace(0.05, 3.0, 30), (0.5, 1.0, 2.5)))
    step = 1.0e-4 * pot.r_d
    u, du = ode_oracle_boundary_many(pot, ks, step=step)
    for i, k in enumerate((0.5, 1.0, 2.5), start=30):
        (su,), (sdu,) = ode_oracle_boundary_many(pot, [k], step=step)
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


def test_brute_force_grid_cap_names_stage_size_and_cap(density_for):
    # the bulk grid of t = 1000 up to e_max = 2000 trips the cap
    with pytest.raises(ResourceLimitError, match=(
            r"^brute-force oracle: grid of 82573373 points at t = 1000 "
            r"exceeds _MAX_BRUTE_POINTS = 40000000$")):
        oracle_survival_bruteforce(density_for(0.3), 1000.0, e_max=2000.0)


@pytest.mark.parametrize("beta", REFERENCE_BETAS)
def test_batched_times_match_one_call_per_time(density_for, beta):
    # the positive times share the t = 500 grid; e_max = 100 keeps every
    # grid but t = 0's (which starts from e = 2500) four times smaller
    den = density_for(beta)
    times = np.array([0.0, 1.0, 60.0, 200.0, 500.0])
    batched = oracle_survival_bruteforce(den, times, e_max=100.0)
    assert batched.shape == times.shape
    for t, p in zip(times, batched):
        single = oracle_survival_bruteforce(den, t, e_max=100.0)
        assert isinstance(single, float)
        assert abs(p - single) <= 1.0e-12


@pytest.mark.parametrize("lo", [0.0, 1.0])
@pytest.mark.parametrize("times", [[30.0], [1.0, 7.0, 30.0]])
@pytest.mark.parametrize("n_levels", [2, 4])
def test_nested_trapezoid_matches_whole_grid_sums(monkeypatch, lo, times, n_levels):
    # chunks of 2000 // max(2, len(times)) points, rounded down to the
    # coarsest stride: 4096 panels leave a partial last chunk
    den = make_density(0.3)
    monkeypatch.setattr(tailsurv.oracle, "_BRUTE_CHUNK", 2 * 1000)
    counts = {}
    n_fine, hi = 4096, lo + 1.0
    got = _nested_trapezoid(den, times, lo, hi, n_fine, n_levels, counts)
    e = np.linspace(lo, hi, n_fine + 1)
    vals = np.zeros(e.size)
    vals[e > 0.0] = den.omega(e[e > 0.0])
    g = vals * np.exp(-1j * np.outer(times, e))
    for lev in range(n_levels):
        stride = 2 ** lev
        sub = g[:, ::stride]
        ref = (hi - lo) / n_fine * stride * (sub.sum(axis=1) - 0.5 * (sub[:, 0] + sub[:, -1]))
        assert np.max(np.abs(got[lev] - ref)) <= 1.0e-14 * np.max(np.abs(ref))
    chunk = 2000 // max(2, len(times)) // 2 ** (n_levels - 1) * 2 ** (n_levels - 1)
    assert n_fine % chunk and counts["density_calls"] == -(-n_fine // chunk)
    assert counts["density_s"] > 0.0


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
        specfun._SERIES_COEF_CACHE.clear()
        specfun._LARGE_X_COEF_CACHE.clear()
        threads, interval = threading.active_count(), sys.getswitchinterval()
        sys.setswitchinterval(1.0e-6)
        try:
            runs.append(oracle_survival_bruteforce(den, t, e_max=100.0))
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == threads
    assert np.array_equal(runs[0], runs[1]) and np.array_equal(runs[0], runs[2])


def test_density_error_in_a_chunk_reaches_the_caller(monkeypatch):
    den = make_density(0.3)
    calls, omega = itertools.count(), den.omega

    def failing(e, *, work=None):
        if next(calls) == 2:
            raise DomainError("third chunk")
        return omega(e, work=work)

    monkeypatch.setattr(den, "omega", failing)
    threads = threading.active_count()
    with pytest.raises(DomainError, match="third chunk"):
        oracle_survival_bruteforce(den, 1.0)
    assert threading.active_count() == threads
    # the seven chunks of the threshold piece are not all evaluated
    assert next(calls) < 7


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
    counts = {}
    oracle_survival_bruteforce(den, [60.0, 200.0], e_max=100.0, counts=counts)
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
