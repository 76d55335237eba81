"""Exact survival integral, rotated-axis route, and asymptotic models."""

import math
import os
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest

import tailsurv.survival
from tailsurv import InitialState, SpectralDensity, WBPotential
from tailsurv.errors import DomainError, ResourceLimitError, ToleranceError
from tailsurv.oracle import oracle_survival_bruteforce
from tailsurv.survival import (SurvivalSeries, asymptote_one_term,
                               asymptote_series, spectral_mass,
                               survival_exact, survival_laplace_axis)
from tailsurv.survival import (_MIN_WIDTH, _PANEL_RTOL, _PHASE_SWITCH, _PanelTable,
                               _build_table, _table_amplitudes)

from conftest import (REFERENCE_BETAS, WINDOW, legendre_coefficients, legendre_panel_sums,
                      make_density, record_table_builds, reference_amplitude,
                      reference_table)


# ------------------------------------------------------------------ #
# series container                                                   #
# ------------------------------------------------------------------ #

def test_series_container_validates_shapes():
    with pytest.raises(DomainError):
        SurvivalSeries(times=np.array([1.0, 2.0]),
                       probability=np.array([1.0]),
                       amplitudes=None, method="exact", meta={})


# ------------------------------------------------------------------ #
# exact evaluation                                                   #
# ------------------------------------------------------------------ #

def test_survival_starts_at_unity(density_for):
    s = survival_exact(density_for(0.3), np.array([0.0]))
    assert s.probability[0] == pytest.approx(1.0, abs=1.0e-6)
    assert s.amplitudes[0] == pytest.approx(1.0, abs=1.0e-6)
    # P(0) is the squared spectral mass, bit for bit, with positive times
    # on the grid too; on a table ending at E = 2500 it was off by up to
    # 2.5e-6 (small well) and 1.6e-8 (near-threshold well)
    for well in (dict(beta=0.3), dict(beta=0.2, v0=0.2, vb=3.0, r_a=0.6, r_d=1.5),
                 dict(beta=1.375, v0=2.5, vb=3.0, r_a=1.5, r_d=3.5)):
        density = make_density(**well)
        p0 = survival_exact(density, [0.0, 1.0, 60.0]).probability[0]
        assert p0 == spectral_mass(density) ** 2
        assert abs(p0 - 1.0) <= 1.0e-8


def test_survival_bounded_by_unity(density_for):
    times = np.concatenate(([0.0], np.geomspace(0.1, 2000.0, 40)))
    s = survival_exact(density_for(0.3), times)
    assert np.all(s.probability <= 1.0 + 1.0e-12)
    assert np.all(s.probability >= 0.0)


def test_survival_rejects_negative_times(density_for):
    with pytest.raises(DomainError):
        survival_exact(density_for(0.3), np.array([-1.0, 2.0]))


@pytest.mark.parametrize("abs_tol", (0.0, -1.0, math.nan))
def test_survival_refuses_a_tolerance_that_is_not_positive(density_for, abs_tol):
    # before, these reached the estimate check and raised a ToleranceError
    with pytest.raises(DomainError, match="abs_tol must be positive"):
        survival_exact(density_for(0.3), np.array([500.0]), abs_tol=abs_tol)


def test_survival_takes_an_infinite_tolerance(density_for):
    s = survival_exact(density_for(0.3), np.array([500.0]), abs_tol=math.inf)
    assert s.meta["max_error_estimate"] <= 1.0e-8


def test_survival_unreachable_tolerance_raises(density_for):
    with pytest.raises(ToleranceError):
        survival_exact(density_for(0.3), np.array([500.0]), abs_tol=1.0e-16)


def _start_table_at(monkeypatch, e_max):
    """Make survival_exact start from e_max (None: its own pick), and return
    the list of the e_max of each table it builds."""
    if e_max is not None:
        monkeypatch.setattr(tailsurv.survival, "_pick_e_max", lambda r_a, times: e_max)
    return record_table_builds(monkeypatch)


@pytest.mark.parametrize("times,abs_tol,e_max,t_bad,largest", (
    ((500.0,), 1.0e-16, None, "500", "interpolation"),        # tiny budget
    # from e_max = 20 the truncation at t = 0.5 is largest up to e_max = 320; at
    # 1280 the interpolation is (4.6e-12, truncation 4.9e-13), which no table mends
    ((500.0, 0.5), 1.0e-12, 20.0, "0.5", "interpolation")))
def test_tolerance_error_names_stage_time_and_largest_part(times, abs_tol, e_max, t_bad,
                                                           largest, density_for, monkeypatch):
    builds = _start_table_at(monkeypatch, e_max)
    with pytest.raises(ToleranceError) as exc:
        survival_exact(density_for(0.3), np.array(times), abs_tol=abs_tol)
    msg = str(exc.value)
    assert msg.startswith("amplitude stage: ") and f"at t = {t_bad} " in msg
    assert f"largest part {largest} (" in msg
    assert all(f"{part} " in msg for part in ("interpolation", "truncation", "sub_threshold"))
    assert msg.endswith("); raise abs_tol") and "e_max" not in msg
    assert builds == ([64.0] if e_max is None else [20.0, 80.0, 320.0, 1280.0])


@pytest.mark.parametrize("e_max", (4.0e4, 1.6e5))
def test_a_deeper_table_moves_a_cut_below_its_top(e_max, density_for, monkeypatch):
    # t = 2 cuts at the first edge at or above (6 r_a / t)^2 = 81, far below
    # e_max, where its truncation part (1.2e-10 from 4e4) is largest: the 4x
    # deeper table cuts at the first edge at or above 324, where the
    # interpolation is largest, which no table mends
    builds = _start_table_at(monkeypatch, e_max)
    with pytest.raises(ToleranceError) as exc:
        survival_exact(density_for(0.3), np.array([2.0, 500.0]), abs_tol=1.0e-12)
    assert builds == [e_max, 4.0 * e_max]
    msg = str(exc.value)
    assert "at t = 2 exceeds" in msg and "largest part interpolation (" in msg
    assert msg.endswith("); raise abs_tol") and "e_max" not in msg


def test_survival_reports_accuracy_metadata(density_for):
    s = survival_exact(density_for(0.3), np.array([50.0, 100.0]))
    assert s.method == "exact"
    assert s.meta["max_error_estimate"] <= 1.0e-8
    # the first table, at (3 r_a / t)^2 from t = 50 but at least 64, passes
    assert (s.meta["e_max"], s.meta["table_builds"]) == (64.0, 1)


def test_panel_table_budget_names_stage_and_count(density_for, monkeypatch):
    monkeypatch.setattr(tailsurv.survival, "_MAX_TABLE_EVALS", 3000)
    with pytest.raises(ResourceLimitError,
                       match=r"panel table: \d+ density evaluations .* budget of 3000"):
        survival_exact(density_for(0.3), np.array([0.1, 500.0]))


@pytest.mark.parametrize("beta", (0.498, 0.499, 0.501, 0.4995, 0.5005,
                                  0.4999999, 1.4999, 1.5001))
def test_exact_near_half_integer_order(beta):
    # nu = beta + 1/2 near an integer: 1968 density evaluations up to
    # beta = 0.5005 and 2256 at 1.4999 and 1.5001, as at beta = 0.49 (1968)
    s = survival_exact(make_density(beta), np.linspace(*WINDOW, 50))
    assert s.meta["density_evals"] <= 3000
    assert s.meta["max_error_estimate"] <= 1.0e-8
    assert np.all((s.probability > 0.0) & (s.probability < 1.0))


def _narrow_resonance_density():
    pot = WBPotential(v0=0.753, vb=2.418, r_a=2.868, r_d=4.33, beta=0.7629)
    return SpectralDensity(pot, InitialState.from_potential(pot))


def test_geometric_panels_bisect_near_narrow_resonance():
    # resonance at E ~ 0.068 with width ~ 0.0022: its tail leaves an
    # interpolation residual of 6.2e-6 on the geometric panel
    # [0.03125, 0.0625] unless that panel is bisected like the others
    density = _narrow_resonance_density()
    times = np.array([60.0, 200.0])
    s = survival_exact(density, times)
    assert s.meta["max_error_estimate"] <= 1.0e-8
    for t, p in zip(times, s.probability):
        assert abs(p - oracle_survival_bruteforce(density, t)) <= 1.0e-10


def _counted(density):
    """density.omega, and the list of element counts of its calls."""
    calls, inner = [], density.omega

    def omega(e, **kwargs):
        calls.append(np.size(e))
        return inner(e, **kwargs)

    return omega, calls


def test_table_evaluates_two_bisection_levels_per_density_call():
    density = _narrow_resonance_density()
    omega, calls = _counted(density)
    table = _build_table(omega, density.pot.r_a, 64.0)
    levels = int(table.depth.max())
    # the first call holds the initial panels, each later one the pending
    # panels and both halves of each: 5 calls for 7 levels here (8 with a
    # call per level), and no one-point call for the sub-threshold density
    assert levels == 7 and len(calls) <= 1 + math.ceil(levels / 2)
    assert calls[0] % 16 == 0 and all(n % 48 == 0 for n in calls[1:])
    assert min(calls) >= 16
    assert sum(calls) == table.n_evals


@pytest.mark.parametrize("times", (np.linspace(*WINDOW, 50),
                                   np.geomspace(0.1, 2000.0, 860)), ids=("sweep", "cli"))
def test_exact_makes_two_density_calls_on_the_reference_geometry(times):
    # levels 0 to 2: the initial panels, then level 1 with its halves
    density = make_density(0.3)
    density.omega, calls = _counted(density)
    s = survival_exact(density, times)
    assert len(calls) == 2 and sum(calls) == s.meta["density_evals"]


@pytest.mark.parametrize("e_max", (64.0, 8100.0, 4.0e4))
@pytest.mark.parametrize("beta", (-0.45, 0.3, 0.498, 1.4))
def test_table_equals_one_call_per_level_on_the_reference_geometry(beta, e_max, density_for):
    den = density_for(beta)
    table = _build_table(den.omega, den.pot.r_a, e_max)
    ref = reference_table(den.omega, den.pot.r_a, e_max)
    for name in ("mid", "half", "vals", "coef", "resid", "depth",
                 "r_a", "e_max", "sub_mass"):
        assert np.array_equal(getattr(table, name), getattr(ref, name)), name
    assert table.n_evals > ref.n_evals


@pytest.mark.parametrize("beta", (-0.45, 0.3, 1.4))
def test_panel_interpolants_match_their_legendre_projection(beta, density_for):
    # every panel's coefficients against the Legendre projection of its node
    # values, a well-conditioned route to the same interpolant: its ends, and
    # its closed-form sums one panel at a time, each with a zero panel above
    # it as the table's top.  Monomial coefficients from the inverse
    # Vandermonde matrix (condition 3.3e5) missed by up to 5.9e-12 and
    # 6.8e-13 of the panel's largest node value, these by 1.3e-14 and 1.4e-15.
    den = density_for(beta)
    table = _build_table(den.omega, den.pot.r_a, 8100.0)
    scale = np.max(np.abs(table.vals), axis=1)
    leg = legendre_coefficients(table.vals)
    for end in (np.ones(16), (-1.0) ** np.arange(16)):   # T_j and P_j at s = 1 and -1
        assert np.max(np.abs(table.coef @ end - leg @ end) / scale) <= 1.0e-13
    theta = np.array([4.5, 10.5, 15.0, 40.0, 300.0])
    for coef, h, v, lc in zip(table.coef, table.half, scale, leg):
        one = _PanelTable(mid=np.array([0.0, 2.0 * h]), half=np.full(2, h),
                          vals=np.zeros((2, 16)), coef=np.vstack((coef, np.zeros(16))),
                          resid=np.zeros(2), depth=np.array([1, 0]), r_a=1.0,
                          e_max=3.0 * h, sub_mass=0.0, n_evals=0)
        t = theta / h
        amps, _, n_small = _table_amplitudes(one, t)
        assert n_small == 0
        assert np.max(np.abs(amps / h - legendre_panel_sums(lc, t * h))) <= 1.0e-14 * v


@pytest.mark.parametrize("e_max", (64.0, 64.0000001, 2500.0, 8061.5644))
def test_table_panels_meet_target_and_tile_up_to_e_max(e_max):
    density = _narrow_resonance_density()
    table = _build_table(density.omega, density.pot.r_a, e_max)
    scale = np.max(np.abs(table.vals), axis=1)
    assert np.all((table.resid <= _PANEL_RTOL * scale) | (table.half <= _MIN_WIDTH))
    lo, hi = table.mid - table.half, table.mid + table.half
    assert np.all(table.half > 0.0)
    assert np.all(np.abs(lo[1:] - hi[:-1]) <= 1.0e-15 * hi[:-1])
    assert table.e_max == e_max and hi[-1] == pytest.approx(e_max, rel=1.0e-15)


def test_exact_holds_tolerance_on_a_grid_from_t_1_1(density_for, monkeypatch):
    # t_min = 1.1 puts the first e_max at 66.9, off any round grid edge; the
    # last panel must still end there, neither reversed nor a sliver.  Its
    # truncation part there, the larger of d_5 at e_max and mid-panel, is
    # 1.6e-8 and deepens the table once; the edge value alone is 3.5e-9 at
    # t = 1.1, where that table's A is 5.5e-9 off
    builds = _start_table_at(monkeypatch, None)
    density = density_for(0.3)
    s = survival_exact(density, np.geomspace(1.1, 100.0, 60))
    assert builds == [pytest.approx((9.0 / 1.1) ** 2), pytest.approx(4.0 * (9.0 / 1.1) ** 2)]
    assert s.meta["max_error_estimate"] <= 1.0e-8
    ref = reference_table(density.omega, density.pot.r_a, 4.0e4)
    for t, amp, est in zip(s.times[:5], s.amplitudes, s.meta["error_estimate"]):
        deep, deep_est = reference_amplitude(ref, t, e_top=4.0e4)
        assert abs(amp - deep) <= est + deep_est


@pytest.mark.parametrize("e_max", (64.0000001, 8061.5644))
def test_exact_holds_tolerance_when_e_max_just_passes_a_grid_edge(density_for, e_max,
                                                                  monkeypatch):
    # a sliver last panel ending at e_max would blow up the end
    # derivatives that sum the truncated tail (estimates 5e22 and 0.05);
    # the table that starts there passes, with no deeper one
    _start_table_at(monkeypatch, e_max)
    s = survival_exact(density_for(0.3), np.array([2.0, 50.0]))
    assert s.meta["max_error_estimate"] <= 1.0e-8
    assert (s.meta["e_max"], s.meta["table_builds"]) == (e_max, 1)


@pytest.mark.parametrize("well,t", [
    pytest.param(dict(beta=0.2, v0=0.2, vb=3.0, r_a=0.6, r_d=1.5), 0.1, id="small-well-t0.1"),
    pytest.param(dict(beta=0.7629, v0=0.753, vb=2.418, r_a=2.868, r_d=4.33), 1.0,
                 marks=pytest.mark.xfail(strict=True, reason=(
                     "the truncation part at e_max, the larger of d_5 there and "
                     "mid-panel, understates the error on the narrow-resonance well "
                     "alone: at t = 1 it takes e_max = 74.03 and states 4.68e-9 "
                     "(truncation 4.66e-9), but A is 1.61e-8 from its "
                     "value at e_max = 4e4 (P off by 1.81e-8, past 1e-8); e_max 400, "
                     "1600, 6400 and 4e4 agree within 4e-12, and the brute force "
                     "agrees with them within 1.1e-9")),
                 id="narrow-resonance-t1"),
    pytest.param(dict(beta=0.3, v0=0.5, vb=16.0, r_a=3.0, r_d=4.0), 0.5,
                 marks=pytest.mark.xfail(strict=True, reason=(
                     "the truncation part at e_max, the larger of d_5 there and "
                     "mid-panel, understates the error on the vb 16 well: at t = 0.5 "
                     "its one table, e_max = 324, states "
                     "4.68e-10 (truncation 4.18e-10), but A is 1.92e-9 from a table "
                     "to 4e4 that states 2.11e-11; it passes abs_tol, so no deeper "
                     "table is built")),
                 id="vb16-t0.5")])
def test_exact_states_a_bound_on_its_truncation_at_a_small_time(well, t):
    density = make_density(**well)
    s = survival_exact(density, [t])
    deep = reference_amplitude(reference_table(density.omega, density.pot.r_a, 4.0e4), t)[0]
    assert abs(s.amplitudes[0] - deep) <= s.meta["max_error_estimate"]


@pytest.mark.parametrize("times,builds", (([1.0], 2), ([1.0, 10.0, 60.0, 200.0, 1000.0], 2),
                                          ([0.5], 1)))
def test_exact_deepens_its_table_where_the_truncation_at_its_top_breaks_abs_tol(times, builds):
    # t = 1 starts at e_max = (3 r_a)^2 = 81, whose truncation part 2.8e-8
    # was refused while [0.5] (e_max 324) answered; a second table, at 324,
    # states 5.6e-11 at t = 1
    density = make_density(0.3, vb=16.0, r_d=4.0)
    s = survival_exact(density, times)
    assert (s.meta["e_max"], s.meta["table_builds"]) == (324.0, builds)
    assert s.meta["max_error_estimate"] <= 1.0e-8
    if times == [1.0]:
        assert s.meta["max_error_estimate"] <= 6.0e-11
        deep = reference_amplitude(reference_table(density.omega, density.pot.r_a, 4.0e4), 1.0)
        assert abs(s.amplitudes[0] - deep[0]) <= s.meta["max_error_estimate"] + deep[1]


@pytest.mark.parametrize("well", (dict(v0=0.0, vb=0.0, r_a=1.0, r_d=3.0),
                                  dict(v0=1.0e-20, vb=0.0, r_a=1.0, r_d=2.0)),
                         ids=("barrier-free", "shallow"))
def test_exact_deepens_every_cut_with_its_table(well):
    # t = 1 cuts at the first unbisected top at or above 64, far below the
    # e_max = 4e4 that t = 0 takes, with a truncation part of 1.1e-8; the 4x
    # deeper table moves that cut 4x and states 1.7e-10
    density = make_density(0.0, **well)
    s = survival_exact(density, [0.0, 1.0, 60.0])
    assert (s.meta["e_max"], s.meta["table_builds"]) == (1.6e5, 2)
    assert s.meta["max_error_estimate"] <= 2.0e-10
    # the per-panel reference on a table as deep, cut where exact cut; at
    # t = 0 it is the mass with the envelope beyond e_max, without which it
    # sat 97.6x both stated errors away
    ref = reference_table(density.omega, density.pot.r_a, 1.6e5)
    for t, amp, e_cut in zip(s.times, s.amplitudes, s.meta["e_cut"]):
        want = reference_amplitude(ref, t, e_top=e_cut, k_a=density.init.k_a)[0]
        assert abs(amp - want) <= 1.0e-14


@pytest.mark.xfail(strict=True, reason=(
    "P(0)'s stated error leaves out the envelope's missing E^{-7/2} term: on "
    "v0 0.60182, vb 1.10861, r_a 0.51307, r_d 2.19016, beta -0.18262 it states "
    "8.6e-12 while |P(0) - 1| = 4.76e-9, and on v0 0.2, vb 3, r_a 0.6, r_d 1.5, "
    "beta 0.2 it states 7.1e-11 while |P(0) - 1| = 1.88e-9"))
def test_exact_states_a_bound_on_its_normalization_at_t0():
    for well in (dict(v0=0.6018201719609856, vb=1.1086089318066201, r_a=0.5130698471822659,
                      r_d=2.1901605338055825, beta=-0.1826224486877347),
                 dict(beta=0.2, v0=0.2, vb=3.0, r_a=0.6, r_d=1.5)):
        s = survival_exact(make_density(**well), [0.0])
        assert abs(s.probability[0] - 1.0) <= s.meta["error_estimate"][0]


def test_exact_states_a_bound_near_threshold():
    # exact is 7.0e-13 and 9.8e-13 from the brute force at t = 10 and 60,
    # inside its stated 6.3e-12 and 5.0e-12; when the brute force's bulk
    # ended off a zero of omega (k_out r_a = m pi at v0 = 2.5) it read
    # 2.47e-10 and 6.9e-11 from exact
    density = make_density(beta=1.375, v0=2.5, vb=3.0, r_a=1.5, r_d=3.5)
    times = np.array([10.0, 60.0])
    s = survival_exact(density, times)
    counts = {}
    brute = oracle_survival_bruteforce(density, times, counts=counts)
    gap = counts["threshold_gap"] + counts["bulk_gap"]
    assert np.all(np.abs(s.probability - brute) <= s.meta["error_estimate"] + gap)


def _switch_straddling_times(table):
    """Unsorted times with repeats and t = 0 that put every panel on both
    sides of the phase switch, some exactly at it."""
    lo = _PHASE_SWITCH / table.half.max()
    hi = _PHASE_SWITCH / table.half.min()
    t = np.geomspace(0.5 * lo, 2.0 * hi, 61)
    t = np.concatenate((t, t[::7], _PHASE_SWITCH / table.half[::40],
                        [0.0, 500.0, 0.0]))
    return np.random.default_rng(7).permutation(t)


@pytest.mark.parametrize("beta", REFERENCE_BETAS)
def test_batched_amplitudes_match_per_time_reference(density_for, monkeypatch, beta):
    den = density_for(beta)
    table = _build_table(den.omega, den.pot.r_a, 2500.0)
    t = _switch_straddling_times(table)
    ref = [reference_amplitude(table, float(x), k_a=den.init.k_a) for x in t]
    ref_amp = np.array([a for a, _ in ref])
    ref_est = np.array([e for _, e in ref])

    _start_table_at(monkeypatch, 2500.0)
    s = survival_exact(den, t, abs_tol=1.0)
    monkeypatch.undo()
    assert s.meta["panels"] == table.mid.size
    assert np.max(np.abs(s.amplitudes - ref_amp)) <= 1.0e-14
    assert s.meta["max_error_estimate"] == pytest.approx(np.max(ref_est), rel=1.0e-12)
    pos = t > 0.0
    monkeypatch.setattr(tailsurv.survival, "_TIME_BLOCK", t.size)  # one block
    amps, parts, _ = _table_amplitudes(table, t[pos])
    assert np.max(np.abs(amps - ref_amp[pos])) <= 1.0e-14
    assert np.max(np.abs(parts.sum(axis=1) / ref_est[pos] - 1.0)) <= 1.0e-12


def test_batched_moments_stay_finite_in_wide_blocks(density_for):
    # at t = 1e-12 every panel is below the switch, theta down to ~3e-26,
    # where the closed form run for the block's t = 1e16 overflows
    # (t^-16 half^-16) unless its masked pairs are kept out
    den = density_for(0.3)
    table = _build_table(den.omega, den.pot.r_a, 2500.0)
    t = np.array([1.0e-12, 1.0e16])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        amps, _, _ = _table_amplitudes(table, t)
    ref = np.array([reference_amplitude(table, x)[0] for x in t])
    assert np.max(np.abs(amps / ref - 1.0)) <= 1.0e-12


@pytest.mark.parametrize("block", [1, 7, 13])
def test_exact_blocks_match_one_call(density_for, monkeypatch, block):
    # each block's panel sums are summed panel after panel, and a pair
    # outside its window adds an exact zero, so blocks of two or more
    # times give the bits of one call
    t = np.concatenate(([0.0], np.geomspace(0.1, 2000.0, 45)))
    for beta in (-0.45, 0.3, 1.0):
        den = density_for(beta)
        whole = survival_exact(den, t)
        monkeypatch.setattr(tailsurv.survival, "_TIME_BLOCK", block)
        split = survival_exact(den, t)
        monkeypatch.undo()
        if block > 1:
            assert np.array_equal(split.amplitudes, whole.amplitudes)
            assert np.array_equal(split.meta["error_estimate"], whole.meta["error_estimate"])
            continue
        # a one-time block is summed in panel order too, but its closed form
        # is a matrix-vector product, rounded unlike a block's matrix product
        # (measured <= 3.9e-18)
        assert np.max(np.abs(split.amplitudes - whole.amplitudes)) <= 2.0e-16
        assert split.meta["max_error_estimate"] == pytest.approx(
            whole.meta["max_error_estimate"], rel=1.0e-14)


def test_exact_meta_splits_error_and_times_stages(density_for):
    for t in ([0.0, 50.0, 100.0], np.geomspace(400.0, 800.0, 20)):
        meta = survival_exact(density_for(0.3), t).meta
        parts = meta["error_parts"]
        assert set(parts) == {"interpolation", "truncation", "sub_threshold"}
        assert all(v >= 0.0 for v in parts.values())
        assert sum(parts.values()) == pytest.approx(meta["max_error_estimate"],
                                                    rel=1.0e-15)
        assert meta["table_s"] > 0.0 and meta["amplitude_s"] > 0.0


def test_exact_meta_counts_pairs_per_route(density_for):
    # t = 0 is the table's mass and goes to no route; each t > 0 sends
    # every panel to the moment series (E t <= 1 on all of it), the Gauss
    # sum, the closed form, or the tail beyond its window's top e_cut
    den = density_for(0.3)
    t = np.concatenate(([0.0], np.geomspace(0.1, 2000.0, 45)))
    meta = survival_exact(den, t).meta
    routes = ("small_phase_pairs", "large_phase_pairs", "low_energy_pairs", "beyond_cut_pairs")
    # with t = 0 on the grid the table is spectral_mass's, up to E = 4e4
    assert (meta["panels"],) + tuple(meta[key] for key in routes) == (440, 1061, 1784, 1861, 15094)
    assert sum(meta[key] for key in routes) == 45 * 440
    assert meta["e_cut"].shape == t.shape and meta["e_cut"][0] == meta["e_max"]
    table = _build_table(den.omega, den.pot.r_a, meta["e_max"])
    tt = t[1:, None]
    below = table.mid < meta["e_cut"][1:, None]
    low = (table.mid + table.half) * tt <= 1.0
    assert meta["low_energy_pairs"] == np.count_nonzero(low & below)
    assert meta["beyond_cut_pairs"] == np.count_nonzero(~below)
    assert meta["small_phase_pairs"] == np.count_nonzero(
        below & ~low & (tt * table.half <= _PHASE_SWITCH))
    # the CLI grid, 860 times in 14 blocks, whose table ends at e_max = 8100
    meta = survival_exact(den, np.geomspace(0.1, 2000.0, 860)).meta
    assert (meta["panels"],) + tuple(meta[key] for key in routes) == (
        229, 19_204, 27_829, 35_547, 114_360)


def test_exact_meta_has_an_error_estimate_per_time(density_for):
    t = np.array([0.0, 3.0, 50.0, 400.0, 800.0])
    meta = survival_exact(density_for(0.3), t).meta
    est = meta["error_estimate"]
    assert est.shape == t.shape
    assert np.max(est) == meta["max_error_estimate"]
    assert np.isfinite(est[0]) and est[0] >= 0.0


def test_spectral_mass_accounts_for_everything(density_for):
    assert spectral_mass(density_for(0.3)) == pytest.approx(1.0, abs=1.0e-6)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("r_d", [3.5, 3.7])
def test_underflowing_density_is_refused_by_stage(r_d, monkeypatch):
    # sqrt(vb) (r_d - r_a) = 500 and 700, inside the opacity cap: omega
    # underflows to 0 below the barrier top, and P = [0, 0] came back with a NaN
    # error estimate after 944 evaluations, and a NaN mass.  Each route refuses
    # at its source: the panel table after its first density call, the rotated
    # axis where its sum is not finite, the brute force where its grid's mass
    # is not 1 (it read the trapped state as decayed, P = 0), the threshold
    # law where its Jost scale squared overflows (a bare OverflowError, also out
    # of the rotated axis's threshold form and the asymptotic models).  No refusal gives advice
    # that cannot help, and survival.py warns nothing (omega's own overflow
    # warnings remain)
    den = make_density(0.3, v0=0.5, vb=1.0e6, r_a=3.0, r_d=r_d)
    calls, omega = [], den.omega
    monkeypatch.setattr(den, "omega", lambda e: calls.append(e.size) or omega(e))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for route in (lambda: survival_exact(den, [1.0, 100.0]), lambda: spectral_mass(den)):
            calls.clear()
            with pytest.raises(ToleranceError, match=(
                    r"^table stage: the density averages 0 and 0 on the two lowest panels, "
                    r"E = 5\.68434e-14 to 2\.27374e-13: it underflowed or is NaN, which no "
                    r"e_max or abs_tol mends$")) as refused:
                route()
            assert len(calls) == 1
            assert "increase e_max" not in str(refused.value)
        with pytest.raises(ToleranceError,
                           match=r"^rotated-axis stage: the error estimate at t = 1 is nan: "):
            survival_laplace_axis(den, [1.0, 100.0])
        with pytest.raises(ToleranceError, match=(
                r"^brute-force oracle: at t = 1 the grid's mass, with the envelope past "
                r"e_out = 69\.6839, is 0\.000132, not the state's 1 ")):
            oracle_survival_bruteforce(den, 1.0)
        for route in (lambda: den.threshold, lambda: asymptote_one_term(den.threshold),
                      lambda: survival_laplace_axis(den, [1.0e6], form="threshold")):
            with pytest.raises(ToleranceError, match=(
                    r"^threshold stage: the Jost scale \S+ squared overflows")) as refused:
                route()
            assert "e_max" not in str(refused.value)
    assert not [w for w in caught if w.filename == tailsurv.survival.__file__]


# ------------------------------------------------------------------ #
# rotated-axis (Laplace) route                                       #
# ------------------------------------------------------------------ #

def test_laplace_matches_exact_in_the_tail_window(density_for,
                                                  exact_series_for):
    # the rotated-contour route omits the resonance-pole contribution;
    # deep in the window that part has decayed for every reference tail,
    # fastest for the narrow-resonance case beta = 0.7 where a residual
    # ~1 percent imprint remains
    devs = {}
    for beta in (-0.4, -0.1, 0.3, 0.7):
        exact = exact_series_for(beta, n=21)
        lap = survival_laplace_axis(density_for(beta), exact.times)
        devs[beta] = float(np.max(np.abs(lap.probability / exact.probability
                                         - 1.0)))
        assert devs[beta] < 5.0e-2
    assert devs[0.3] < 1.0e-4
    assert devs[0.7] == pytest.approx(9.5e-3, rel=0.1)
    assert devs[0.7] > devs[0.3]


def test_laplace_amplitude_matches_exact_with_phase(density_for):
    # A(t) = int omega(E) e^{-iEt} dE rotated by E = -iu/t picks up
    # dE = -(i/t) du; compare complex amplitudes, not just |A|^2
    t = np.array([800.0, 2000.0])
    for beta in (-0.4, -0.1, 0.3, 0.7):
        exact = survival_exact(density_for(beta), t).amplitudes
        lap = survival_laplace_axis(density_for(beta), t).amplitudes
        assert np.max(np.abs(lap - exact)) < 1.0e-11
        assert np.max(np.abs(lap / exact - 1.0)) < 1.0e-6


def test_series_amplitude_matches_exact_with_phase(density_for):
    t = np.array([2000.0])
    for beta in (-0.1, 0.3):
        exact = survival_exact(density_for(beta), t).amplitudes
        model = asymptote_series(density_for(beta).threshold, n_terms=4)
        ratio = model.evaluate(t).amplitudes / exact
        assert np.abs(ratio - 1.0)[0] < 2.0e-2


def test_pole_part_negligible_past_t300(density_for):
    for beta in (-0.1, 0.3, 0.7):
        den = density_for(beta)
        t = np.array([300.0])
        exact = survival_exact(den, t).probability[0]
        lap = survival_laplace_axis(den, t).probability[0]
        assert abs(lap / exact - 1.0) < 1.0e-2


def test_pole_part_still_visible_at_t250_for_narrow_resonance(density_for):
    # just before the crossover the pole and power-law parts interfere
    # destructively for beta = 0.7; the pole-free route misses that dip
    den = density_for(0.7)
    t = np.array([250.0])
    exact = survival_exact(den, t).probability[0]
    lap = survival_laplace_axis(den, t).probability[0]
    assert abs(lap / exact - 1.0) > 0.2


def test_tail_window_scaling_exponent(density_for):
    # P(2t)/P(t) -> 2^{-(2 beta + 3)} once the power law dominates
    den = density_for(0.7)
    s = survival_exact(den, np.array([500.0, 1000.0]))
    ratio = s.probability[1] / s.probability[0]
    assert ratio == pytest.approx(2.0**-4.4, rel=2.0e-2)


def test_laplace_threshold_form_close_in_window(density_for,
                                                exact_series_for):
    exact = exact_series_for(-0.4)
    lap = survival_laplace_axis(density_for(-0.4), exact.times,
                                form="threshold")
    dev = np.max(np.abs(lap.probability / exact.probability - 1.0))
    assert dev < 0.10


def _quad_laplace_amplitude(fn, t: float) -> complex:
    """A_v(t) by two adaptive quads, one per part, on the same [0, 40]."""
    from scipy.integrate import quad

    def part(take):
        return quad(lambda u: take(fn(-1j * u / t)) * math.exp(-u), 0.0, 40.0,
                    limit=300, epsabs=1.0e-13, epsrel=1.0e-13)[0]

    return -1j * complex(part(np.real), part(np.imag)) / t


@pytest.mark.parametrize("form", ["continued", "threshold"])
def test_laplace_rule_matches_adaptive_quadrature(density_for, form):
    t = np.array([200.0, 500.0, 1000.0, 2000.0])
    for beta in REFERENCE_BETAS:
        den = density_for(beta)
        fn = den.omega if form == "continued" else den.threshold_pade_omega
        lap = survival_laplace_axis(den, t, form=form)
        ref = np.array([_quad_laplace_amplitude(fn, float(x)) for x in t])
        assert np.max(np.abs(lap.amplitudes / ref - 1.0)) <= 1.0e-12
        # the 912-node rule less the halving panels closed in closed form
        assert lap.meta["nodes"] == {-0.4: 848, -0.1: 624, 0.3: 496, 0.7: 416}[beta]
        assert 0.0 < lap.meta["max_rel_error_estimate"] < 1.0e-12


def _full_rule_amplitudes(fn, t: np.ndarray) -> np.ndarray:
    """A_v(t) from every node of the 912-node rule, in one density call."""
    e = -1j * tailsurv.survival._LAPLACE_U[None, :] / t[:, None]
    return -1j * (fn(e.ravel()).reshape(e.shape) @ tailsurv.survival._LAPLACE_W)[:, 0] / t


@pytest.mark.parametrize("beta,nodes", ((-0.45, 912), (-0.3, 752), (0.0, 576), (0.3, 496),
                                        (0.7, 416), (1.0, 384), (1.4, 352)))
def test_laplace_rule_closes_the_panels_the_threshold_law_makes_negligible(beta, nodes):
    den = make_density(beta)
    t = np.array([0.3, 1.0, 10.0, 200.0, 2000.0, 1.0e6])
    lap = survival_laplace_axis(den, t)
    full = _full_rule_amplitudes(den.omega, t)
    assert lap.meta["nodes"] == nodes
    assert np.max(np.abs(lap.amplitudes / full - 1.0)) <= 1.0e-14
    if nodes == 912:    # nothing dropped: the full rule's sums, bit for bit
        assert np.array_equal(lap.amplitudes, full) and lap.meta["fallback_times"] == 0
    else:
        # t = 0.3 takes the dropped panels (omega / u^nu drifts across the
        # first kept panel); t >= 2000 keeps the closed-form end
        assert lap.meta["fallback_times"] >= 1
        assert survival_laplace_axis(den, t[4:]).meta["fallback_times"] == 0


@pytest.mark.parametrize("beta", (2.0, 3.0, 4.0))
def test_laplace_estimate_covers_the_cut_at_u_max(beta):
    # the rule stops at u_max = 40; the same rule carried on to 80 by ten more
    # width-4 panels differs from it by the integral beyond 40
    den = make_density(beta)
    mids = np.arange(42.0, 80.0, 4.0)
    u = (mids[:, None] + 2.0 * tailsurv.survival._GL_X).ravel()
    w = np.exp(-u) * np.tile(2.0 * tailsurv.survival._GL_W, mids.size)
    for t in (100.0, 1000.0):
        lap = survival_laplace_axis(den, [t])
        extended = lap.amplitudes[0] - 1j * (den.omega(-1j * u / t) @ w) / t
        gap = abs(lap.amplitudes[0] / extended - 1.0)
        assert gap <= lap.meta["max_rel_error_estimate"]
        assert gap <= lap.meta["error_parts"]["beyond_u_max"] <= 1.2 * gap


def test_laplace_blocks_match_one_call(density_for, monkeypatch):
    den = density_for(0.3)
    t = np.geomspace(200.0, 2000.0, 7)
    whole = survival_laplace_axis(den, t).amplitudes
    monkeypatch.setattr(tailsurv.survival, "_LAPLACE_BLOCK", 3000)  # 3 times a call
    # equal to rounding: the series length follows the largest |k r_d| per call
    assert np.max(np.abs(survival_laplace_axis(den, t).amplitudes / whole - 1.0)) < 1.0e-14


@pytest.mark.filterwarnings("error")
def test_laplace_refuses_where_the_density_is_not_finite_on_the_axis():
    # on a barrier-free well the continued density is +-inf on the axis at
    # t = 0.3, at u = 24.5 to 40 (|E| >~ 80): NaN amplitudes and a NaN estimate
    # came back unrefused.  Later times stay finite.  The refusal is the one
    # report of the fault: neither the density nor the sums warn
    den = make_density(0.0, v0=0.0, vb=0.0, r_a=1.0, r_d=3.0)
    with pytest.raises(ToleranceError, match=r"^rotated-axis stage: the error estimate at "
                                             r"t = 0\.3 is nan: the continued density"):
        survival_laplace_axis(den, [0.3, 1.0])
    lap = survival_laplace_axis(den, [0.5, 1.0, 2.0, 5.0])
    assert np.all(np.isfinite(lap.amplitudes))
    assert math.isfinite(lap.meta["max_rel_error_estimate"])


def _barrier_free_axis_amplitude(k_a: float, t: float) -> complex:
    """A_v(t) on the full rotated-axis rule for v0 = vb = 0, r_a = 1, beta = 0,
    in 30-digit mpmath: there C^2 = 1/k^2 exactly, so
    omega = (2 k_a^2 / pi) sin^2(k) / ((k_a^2 - k^2)^2 k)."""
    with mpmath.workdps(30):
        k_a, total = mpmath.mpf(k_a), 0
        for u, w in zip(tailsurv.survival._LAPLACE_U, tailsurv.survival._LAPLACE_W[:, 0]):
            k = mpmath.sqrt(mpmath.mpc(0, -u / t))
            total += w * mpmath.sin(k) ** 2 / ((k_a ** 2 - k ** 2) ** 2 * k)
        return complex(-2j * k_a ** 2 / mpmath.pi * total / t)


def _axis_understates(t, actual, stated):
    return pytest.mark.xfail(strict=True, reason=(
        f"the rotated axis understates its error on the barrier-free well at t = {t}: "
        f"{actual} relative from the 30-digit rule against a stated {stated}, from "
        "C^2's cancellation off the real axis (ROADMAP item 15)"))


@pytest.mark.parametrize("t", (pytest.param(0.5, marks=_axis_understates(0.5, 1.45e-6, 4.48e-9)),
                               pytest.param(1.0, marks=_axis_understates(1, 1.95e-9, 1.95e-11)),
                               pytest.param(2.0, marks=_axis_understates(2, 3.25e-13, 3.94e-14)),
                               5.0))
def test_laplace_states_its_error_on_the_barrier_free_well(t):
    # t = 5: 2.1e-15 against a stated 4.2e-14
    den = make_density(0.0, v0=0.0, vb=0.0, r_a=1.0, r_d=3.0)
    lap = survival_laplace_axis(den, [t])
    ref = _barrier_free_axis_amplitude(den.init.k_a, t)
    assert abs(lap.amplitudes[0] / ref - 1.0) <= lap.meta["max_rel_error_estimate"]


def test_laplace_route_loads_no_scipy():
    code = ("import sys, tailsurv.cli\n"
            "from tailsurv import (InitialState, SpectralDensity, WBPotential,\n"
            "                      survival_laplace_axis)\n"
            "pot = WBPotential(v0=0.5, vb=1.8, r_a=3.0, r_d=3.4, beta=0.3)\n"
            "den = SpectralDensity(pot, InitialState.from_potential(pot))\n"
            "survival_laplace_axis(den, [500.0, 1000.0])\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True)
    assert out.stdout.strip() == "[]"


def test_laplace_validation(density_for):
    den = density_for(0.3)
    with pytest.raises(DomainError):
        survival_laplace_axis(den, np.array([500.0]), form="bogus")
    with pytest.raises(DomainError):
        survival_laplace_axis(den, np.array([0.0]))


# ------------------------------------------------------------------ #
# asymptotic models                                                  #
# ------------------------------------------------------------------ #

def test_one_term_model_structure(density_for):
    for beta in (0.7, 1.0):
        th = (density_for(beta) if beta != 1.0
              else make_density(1.0)).threshold
        model = asymptote_one_term(th)
        nu = beta + 0.5
        # amplitude space: |A|^2 decays with exponent 2 (nu + 1) = 2 beta + 3
        assert list(model.exponents) == [pytest.approx(nu + 1.0)]
        predicted = th.density_scale * math.gamma(1.0 + nu)
        assert model.coefficients[0] == pytest.approx(predicted, rel=1.0e-12)


def test_series_model_structure(density_for):
    th = density_for(-0.4).threshold
    model = asymptote_series(th, n_terms=4)
    nu = th.nu
    series = th.series(4)
    for m, (c, s) in enumerate(zip(model.coefficients, model.exponents)):
        assert s == pytest.approx(1.0 + nu * (m + 1), rel=1.0e-12)
        assert c == pytest.approx(series[m] * math.gamma(1.0 + nu * (m + 1)),
                                  rel=1.0e-12)


def test_series_first_term_reproduces_one_term(density_for):
    th = density_for(-0.4).threshold
    t = np.geomspace(10.0, 1000.0, 7)
    one = asymptote_one_term(th).evaluate(t).probability
    s1 = asymptote_series(th, n_terms=1).evaluate(t).probability
    assert np.allclose(s1, one, rtol=1.0e-12, atol=0.0)


@pytest.mark.parametrize("beta", (-0.4, 0.3, 0.5, 0.7))
def test_one_term_amplitude_is_first_series_term(beta, density_for):
    # phase included, not only |A|^2; at the integer order nu = 1 too
    th = density_for(beta).threshold
    t = np.geomspace(10.0, 1000.0, 7)
    one = asymptote_one_term(th).evaluate(t).amplitudes
    s1 = asymptote_series(th, n_terms=1).evaluate(t).amplitudes
    assert np.all(np.isfinite(s1)) and np.array_equal(one, s1)


def test_series_magnitude_invariant_under_phase_branch(density_for):
    # the model's fixed branch of (i t)^{-s} only rotates the complex
    # amplitude; the resulting magnitude matches the opposite branch
    th = density_for(-0.4).threshold
    model = asymptote_series(th, n_terms=4)
    t = np.geomspace(50.0, 2000.0, 9)
    branch_down = np.zeros(t.shape, dtype=complex)
    branch_up = np.zeros(t.shape, dtype=complex)
    for c, s in zip(model.coefficients, model.exponents):
        branch_down += c * t**-s * np.exp(-0.5j * math.pi * s)
        branch_up += c * t**-s * np.exp(+0.5j * math.pi * s)
    assert np.allclose(np.abs(branch_down), np.abs(branch_up),
                       rtol=1.0e-13, atol=0.0)
    assert np.allclose(np.abs(branch_down)**2,
                       model.evaluate(t).probability, rtol=1.0e-12)


def test_longer_series_is_uniformly_closer(density_for, exact_series_for):
    exact = exact_series_for(-0.4)
    th = density_for(-0.4).threshold
    dev2 = np.abs(asymptote_series(th, n_terms=2).evaluate(exact.times)
                  .probability / exact.probability - 1.0)
    dev4 = np.abs(asymptote_series(th, n_terms=4).evaluate(exact.times)
                  .probability / exact.probability - 1.0)
    assert np.all(dev4 < dev2)
    assert np.max(dev2) == pytest.approx(0.504, rel=5.0e-2)
    assert np.max(dev4) == pytest.approx(0.103, rel=5.0e-2)


def test_series_depth_validation(density_for):
    th = density_for(-0.4).threshold
    with pytest.raises(DomainError):
        asymptote_series(th, n_terms=0)
    with pytest.raises(DomainError):
        asymptote_series(th, n_terms=7)


def test_series_blocked_at_integer_order():
    den = make_density(0.5)
    th = den.threshold
    with pytest.raises(DomainError):
        asymptote_series(th)
    # the rational refinement is refused in the same words
    with pytest.raises(DomainError) as series_err:
        asymptote_series(th, n_terms=2)
    with pytest.raises(DomainError) as pade_err:
        den.threshold_pade_omega(1.0e-4)
    assert str(pade_err.value) == str(series_err.value)
    # the one-term model only needs the leading scale and still works
    model = asymptote_one_term(th)
    assert np.isfinite(model.evaluate(np.array([100.0])).probability[0])
    assert np.isfinite(model.evaluate(np.array([100.0])).amplitudes[0])


def test_models_reject_nonpositive_times(density_for):
    model = asymptote_one_term(density_for(-0.4).threshold)
    with pytest.raises(DomainError):
        model.evaluate(np.array([0.0, 10.0]))
