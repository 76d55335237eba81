"""Independent cross-checks: ODE integration, linear solve, brute quadrature."""

import math

import numpy as np
import pytest

from tailsurv.errors import DomainError, ResourceLimitError
from tailsurv.model import regular_boundary
from tailsurv.oracle import (OracleCheck, ode_oracle_boundary,
                             ode_oracle_boundary_many,
                             oracle_match_coefficients,
                             oracle_survival_bruteforce, run_verification)
from tailsurv.oracle import _match_boundary
from tailsurv.survival import survival_exact

from conftest import make_potential


# ------------------------------------------------------------------ #
# ODE boundary oracle                                                #
# ------------------------------------------------------------------ #

def test_integration_reproduces_free_trig():
    pot = make_potential(0.0, v0=0.0, vb=0.0)
    bnd = ode_oracle_boundary(pot, 1.0)
    assert abs(bnd.u - math.sin(pot.r_d)) < 1.0e-10
    assert abs(bnd.du - math.cos(pot.r_d)) < 1.0e-10


def test_default_step_matches_closed_form_on_grid():
    pot = make_potential(0.3)
    ks = np.linspace(0.05, 3.0, 30)
    u, du = ode_oracle_boundary_many(pot, ks)
    worst = 0.0
    for i, k in enumerate(ks):
        closed = regular_boundary(pot, float(k))
        scale = max(abs(closed.u), abs(closed.du))
        worst = max(worst, abs(closed.u - u[i]) / scale,
                    abs(closed.du - du[i]) / scale)
    assert worst < 1.0e-8


def test_finer_step_tightens_agreement():
    pot = make_potential(0.7)
    ks = np.linspace(0.3, 2.7, 5)
    u, du = ode_oracle_boundary_many(pot, ks, step=1.0e-4 * pot.r_d)
    for i, k in enumerate(ks):
        closed = regular_boundary(pot, float(k))
        scale = max(abs(closed.u), abs(closed.du))
        assert abs(closed.u - u[i]) / scale < 1.0e-11
        assert abs(closed.du - du[i]) / scale < 1.0e-11


def test_step_cap_enforced():
    pot = make_potential(0.3)
    with pytest.raises(DomainError):
        ode_oracle_boundary_many(pot, [1.0], step=4.0e-3)


def test_scalar_and_vector_oracles_agree():
    pot = make_potential(0.3)
    single = ode_oracle_boundary(pot, 1.3)
    u, du = ode_oracle_boundary_many(pot, [1.3])
    assert single.u == u[0] and single.du == du[0]
    assert single.k == 1.3


# ------------------------------------------------------------------ #
# exterior matching                                                  #
# ------------------------------------------------------------------ #

def test_matching_from_one_batched_pass_is_bit_identical():
    # run_verification takes its matching data from the boundary-check pass
    pot = make_potential(0.3)
    ks = np.concatenate((np.linspace(0.05, 3.0, 30), (0.5, 1.0, 2.5)))
    u, du = ode_oracle_boundary_many(pot, ks)
    for i, k in enumerate((0.5, 1.0, 2.5), start=30):
        single = ode_oracle_boundary(pot, k)
        assert (single.u, single.du) == (u[i], du[i])
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
    a, b = oracle_match_coefficients(den.pot, k, step=1.0e-4 * den.pot.r_d)
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
    with pytest.raises(DomainError):
        oracle_survival_bruteforce(den, -1.0)
    with pytest.raises(ResourceLimitError):
        oracle_survival_bruteforce(den, 1500.0)


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
