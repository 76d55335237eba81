"""Special-function layer: series values, closed forms, identities."""
from __future__ import annotations

import math

import numpy as np
import pytest

from tailsurv.errors import ConvergenceError, DomainError
from tailsurv.specfun import (BesselOrder, gamma, riccati_combos, riccati_j,
                              riccati_large_x_combos, riccati_n,
                              riccati_pair_with_derivatives)

WRONSKIAN_BETAS = (-0.4, -0.1, 0.3, 0.7, 1.0)

# High-precision reference values (j, n, j', n') computed with 40-digit
# arithmetic from the cylinder-function representation
# sqrt(pi x / 2) * {J, Y}_{beta + 1/2}(x).  The x = 12 row carries a
# looser tolerance: alternating-series cancellation leaves an absolute
# noise floor of order e^x * eps on the small components.
REFERENCE_VALUES = [
    (-0.4, 0.5, 1.0e-12,
     0.765561755255853996, -0.516031899457786485,
     0.739795869073453118, 0.807566114982302177),
    (-0.4, 7.3, 1.0e-12,
     0.997223441733800867, 0.057954354532267881,
     -0.0577902188202499718, 0.999425769050503494),
    (0.3, 2.0, 1.0e-12,
     1.018858013600787, 0.0485043701573053358,
     -0.0637734769420884266, 0.978454990156061644),
    (0.7, 0.05, 1.0e-12,
     0.00303980564133138491, -6.86878035025411458,
     0.103318845492233522, 95.5079299559585215),
    (0.7, 12.0, 1.0e-9,
     -1.00100985975879141, 0.0457627579362335134,
     -0.0452347380671215148, -0.996923181028398484),
    (1.0, 3.0, 1.0e-12,
     1.03703249928706786, 0.18887749080694793,
     -0.204557491702488733, 0.92703333299812948),
    (-0.1, 0.37, 1.0e-12,
     0.426879377885979423, -0.858785336277833651,
     0.981363210590931232, 0.368299977292335763),
]


@pytest.mark.parametrize("beta,x,rtol,rj,rn,rjp,rnp", REFERENCE_VALUES)
def test_reference_values(beta, x, rtol, rj, rn, rjp, rnp):
    pair = riccati_pair_with_derivatives(BesselOrder(beta), x)
    for got, want in zip((pair.j, pair.n, pair.jp, pair.np_),
                         (rj, rn, rjp, rnp)):
        assert got == pytest.approx(want, rel=rtol)


def test_zero_order_trigonometric_forms():
    x = np.linspace(0.01, 20.0, 400)
    pair = riccati_pair_with_derivatives(BesselOrder(0.0), x)
    assert np.max(np.abs(pair.j - np.sin(x))) < 1.0e-12
    assert np.max(np.abs(pair.n + np.cos(x))) < 1.0e-12
    assert np.max(np.abs(pair.jp - np.cos(x))) < 1.0e-12
    assert np.max(np.abs(pair.np_ - np.sin(x))) < 1.0e-12


def test_unit_order_trigonometric_forms():
    x = np.linspace(0.01, 20.0, 400)
    pair = riccati_pair_with_derivatives(BesselOrder(1.0), x)
    j1 = np.sin(x) / x - np.cos(x)
    n1 = -np.cos(x) / x - np.sin(x)
    j1p = np.cos(x) / x - np.sin(x) / x ** 2 + np.sin(x)
    n1p = np.sin(x) / x + np.cos(x) / x ** 2 - np.cos(x)
    assert np.max(np.abs(pair.j - j1)) < 1.0e-12
    assert np.max(np.abs(pair.n - n1)) < 1.0e-12
    assert np.max(np.abs(pair.jp - j1p)) < 1.0e-12
    assert np.max(np.abs(pair.np_ - n1p)) < 1.0e-12


def test_zero_order_point_values():
    order = BesselOrder(0.0)
    assert riccati_n(order, math.pi) == pytest.approx(1.0, abs=1.0e-12)
    assert riccati_n(order, math.pi / 2) == pytest.approx(0.0, abs=1.0e-12)
    pair = riccati_pair_with_derivatives(order, math.pi)
    assert pair.jp == pytest.approx(-1.0, abs=1.0e-12)
    assert pair.np_ == pytest.approx(0.0, abs=1.0e-12)


@pytest.mark.parametrize("beta", WRONSKIAN_BETAS + (0.5,))
def test_wronskian_is_unity(beta):
    x = np.linspace(0.1, 10.0, 331)
    pair = riccati_pair_with_derivatives(BesselOrder(beta), x)
    wronskian = pair.j * pair.np_ - pair.jp * pair.n
    assert np.max(np.abs(wronskian - 1.0)) < 1.0e-10


@pytest.mark.parametrize("beta", WRONSKIAN_BETAS)
def test_real_axis_evaluation_is_real(beta):
    x = np.linspace(0.3, 9.0, 30).astype(complex)
    pair = riccati_pair_with_derivatives(BesselOrder(beta), x)
    for comp in pair:
        assert np.max(np.abs(comp.imag)) < 1.0e-13
    real_pair = riccati_pair_with_derivatives(BesselOrder(beta), x.real)
    assert np.allclose(pair.j.real, real_pair.j, rtol=1.0e-13, atol=0.0)


def test_derivative_matches_finite_difference_example():
    order = BesselOrder(0.7)
    h = 1.0e-5
    pair = riccati_pair_with_derivatives(order, 0.5)
    dj = (riccati_j(order, 0.5 + h) - riccati_j(order, 0.5 - h)) / (2 * h)
    dn = (riccati_n(order, 0.5 + h) - riccati_n(order, 0.5 - h)) / (2 * h)
    assert pair.jp == pytest.approx(dj, rel=1.0e-8)
    assert pair.np_ == pytest.approx(dn, rel=1.0e-8)


@pytest.mark.parametrize("beta", (-0.4, 0.3, 1.0))
def test_derivative_matches_finite_difference_sweep(beta):
    # step scaled to x so the O(h^2 f''') truncation stays below the
    # target even where the irregular solution steepens near the origin
    order = BesselOrder(beta)
    for x in (0.01, 0.1, 1.3, 4.0, 10.0):
        h = 1.0e-5 * x
        pair = riccati_pair_with_derivatives(order, x)
        dj = (riccati_j(order, x + h) - riccati_j(order, x - h)) / (2 * h)
        dn = (riccati_n(order, x + h) - riccati_n(order, x - h)) / (2 * h)
        scale = max(abs(pair.jp), abs(pair.np_))
        assert abs(pair.jp - dj) < 1.0e-8 * scale + 1.0e-10
        assert abs(pair.np_ - dn) < 1.0e-8 * scale + 1.0e-10


def test_small_argument_leading_terms():
    beta, x = 0.3, 1.0e-4
    nu = beta + 0.5
    j_lead = math.sqrt(math.pi / 2.0) / (2.0 ** nu * gamma(nu + 1.0)) \
        * x ** (beta + 1.0)
    n_lead = -math.sqrt(0.5 / math.pi) * gamma(nu) * 2.0 ** nu * x ** (-beta)
    order = BesselOrder(beta)
    # corrections are O(x^2) and, on the irregular branch, O(x^{2 nu})
    assert riccati_j(order, x) == pytest.approx(j_lead, rel=1.0e-5)
    assert riccati_n(order, x) == pytest.approx(n_lead, rel=1.0e-5)


def test_scalar_and_array_paths_agree():
    order = BesselOrder(0.3)
    scalar = riccati_pair_with_derivatives(order, 2.0)
    array = riccati_pair_with_derivatives(order, np.array([2.0, 5.0]))
    assert np.isscalar(scalar.j) or np.ndim(scalar.j) == 0
    for s, a in zip(scalar, array):
        assert s == a[0]


def test_half_integer_order_continuity():
    # nu = beta + 1/2 integer: the generic representation degenerates
    # and a dedicated route takes over; values must stay continuous.
    x = np.array([0.5, 2.0, 8.0])
    mid = riccati_pair_with_derivatives(BesselOrder(0.5), x)
    near = riccati_pair_with_derivatives(BesselOrder(0.5 + 1.0e-7), x)
    for m, n in zip(mid, near):
        assert np.allclose(m, n, rtol=2.0e-6)


def test_zero_argument_rejected():
    with pytest.raises(DomainError):
        riccati_pair_with_derivatives(BesselOrder(0.3), 0.0)


def test_series_term_cap_raises():
    # the term-ratio dry run exhausts its 200-term budget once terms
    # decay too slowly; far below that the series already loses accuracy
    # to cancellation, which is why combination evaluation switches to
    # the large-argument forms past the documented threshold
    with pytest.raises(ConvergenceError):
        riccati_pair_with_derivatives(BesselOrder(0.3), 400.0)


def test_invalid_orders_rejected():
    with pytest.raises(DomainError):
        BesselOrder(-0.5)
    with pytest.raises(DomainError):
        BesselOrder(float("nan"))


# ------------------------------------------------------------------ #
# large-argument combination forms                                   #
# ------------------------------------------------------------------ #

def test_large_x_combos_zero_order_exact():
    combos = riccati_large_x_combos(BesselOrder(0.0), np.array([10.0, 25.0, 300.0]))
    assert np.all(combos.sum_sq == 1.0)
    assert np.all(combos.cross == 0.0)
    assert np.all(combos.sum_sq_deriv == 1.0)


@pytest.mark.xfail(strict=True,
                   reason="truncation of the large-argument forms is "
                          "exactly z^-4 on the derivative combination at "
                          "integer order: 6.25e-6 at z = 20, above the "
                          "1e-6 target; see CHANGES.md")
def test_large_x_combos_match_series_at_20():
    order = BesselOrder(1.0)
    direct = riccati_combos(order, np.array([20.0]))
    asym = riccati_large_x_combos(order, np.array([20.0]))
    for d, a in zip(direct, asym):
        assert abs(d[0] - a[0]) < 1.0e-6


@pytest.mark.xfail(strict=True,
                   reason="two independent floors sit above the 1e-8 "
                          "target at z = 50: the large-argument forms "
                          "truncate at O(z^-4) ~ 6e-8, and the direct "
                          "series route loses ~e^z eps ~ 1e9 absolute to "
                          "cancellation; see CHANGES.md")
def test_large_x_combos_match_series_at_50():
    order = BesselOrder(0.7)
    direct = riccati_combos(order, np.array([50.0]))
    asym = riccati_large_x_combos(order, np.array([50.0]))
    for d, a in zip(direct, asym):
        assert abs(d[0] - a[0]) < 1.0e-8


@pytest.mark.parametrize("beta", (0.3, 0.7, 1.0))
def test_large_x_combos_truncation_bound(beta):
    # truncation error of the kept forms is O(z^-4); the constant is
    # modest (measured below 1.1 * (1 + beta (beta + 1)) over the range).
    # The direct-series reference itself loses ~e^z eps absolute to
    # cancellation at non-integer order, so the comparison range stops at
    # z = 20 except for the integer order, which uses closed trig forms.
    order = BesselOrder(beta)
    bound_scale = 1.0 + beta * (beta + 1.0)
    z_hi = 50.1 if order.is_integer_beta else 20.1
    for z in np.arange(10.0, z_hi, 2.0):
        direct = riccati_combos(order, np.array([z]))
        asym = riccati_large_x_combos(order, np.array([z]))
        for d, a in zip(direct, asym):
            assert abs(d[0] - a[0]) <= 1.5 * bound_scale / z ** 4


def test_large_x_combos_domain_cutoff():
    with pytest.raises(DomainError):
        riccati_large_x_combos(BesselOrder(0.3), 9.0)


# ------------------------------------------------------------------ #
# gamma function                                                     #
# ------------------------------------------------------------------ #

def test_gamma_integer_values():
    expected = 1.0
    for n in range(1, 12):
        assert gamma(n) == pytest.approx(expected, rel=1.0e-12)
        expected *= n


def test_gamma_half_integer_values():
    root_pi = math.sqrt(math.pi)
    assert gamma(0.5) == pytest.approx(root_pi, rel=1.0e-12)
    assert gamma(1.5) == pytest.approx(root_pi / 2.0, rel=1.0e-12)
    assert gamma(2.5) == pytest.approx(3.0 * root_pi / 4.0, rel=1.0e-12)
    assert gamma(-0.5) == pytest.approx(-2.0 * root_pi, rel=1.0e-12)
    assert gamma(-1.5) == pytest.approx(4.0 * root_pi / 3.0, rel=1.0e-12)


def test_gamma_recurrence_real_and_complex():
    for z in (0.23, 1.7, 4.1, 0.9 + 0.4j, 2.0 - 1.3j):
        assert gamma(z + 1) == pytest.approx(z * gamma(z), rel=1.0e-12)


def test_gamma_reflection():
    for z in (0.3, 0.71, 0.5 + 0.2j):
        lhs = gamma(z) * gamma(1 - z)
        rhs = math.pi / np.sin(math.pi * z)
        assert lhs == pytest.approx(rhs, rel=1.0e-12)


def test_gamma_conjugate_symmetry():
    z = 1.3 + 0.8j
    assert gamma(np.conj(z)) == pytest.approx(np.conj(gamma(z)), rel=1.0e-13)
