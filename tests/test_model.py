"""Potential validation, initial state, and closed-form boundary data."""

import ast
import inspect
import math
from functools import partial
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

import tailsurv.model
from tailsurv.errors import ConfigError, DomainError
from tailsurv.model import (InitialState, WBPotential, _sincos, _trig_sqrt,
                            regular_boundary_sq)
from tailsurv.oracle import count_nodes_zero_energy
from tailsurv.specfun import (BesselOrder, riccati_combos, riccati_large_x_combos,
                              riccati_pair_with_derivatives)
from tailsurv.survival import asymptote_one_term, survival_exact, survival_laplace_axis

from conftest import REFERENCE, make_density, make_potential


# ------------------------------------------------------------------ #
# potential validation                                               #
# ------------------------------------------------------------------ #

@pytest.mark.parametrize("overrides", (
    dict(v0=-0.1),
    dict(vb=-1.0),
    dict(r_a=3.4, r_d=3.0),
    dict(r_a=0.0),
    dict(r_a=-2.0),
    dict(beta=-0.5),
    dict(beta=-0.8),
    dict(v0=float("nan")),
    dict(vb=float("inf")),
    dict(beta=True),
))
def test_invalid_parameters_rejected(overrides):
    with pytest.raises(ConfigError):
        make_potential(overrides.pop("beta", 0.3), **overrides)


@pytest.mark.parametrize("v0", (2.0, 5.0))
def test_bound_state_supporting_wells_rejected(v0):
    with pytest.raises(ConfigError, match="bound state"):
        make_potential(0.3, v0=v0)


def _unvalidated(**params) -> WBPotential:
    """A WBPotential that skips __post_init__, so wells that bind can be probed."""
    pot = object.__new__(WBPotential)
    for name, val in params.items():
        object.__setattr__(pot, name, float(val))
    return pot


def _exterior_node(pot) -> float | None:
    """Zero beyond r_d of A r^(beta+1) + B r^(-beta), matched at r_d by a linear solve."""
    u, du = regular_boundary_sq(pot, 0.0)
    p, q, r = pot.beta + 1.0, -pot.beta, pot.r_d
    a, b = np.linalg.solve([[r ** p, r ** q], [p * r ** (p - 1.0), q * r ** (q - 1.0)]],
                           [u, du])
    if a == 0.0 or -b / a <= 0.0:
        return None
    r0 = (-b / a) ** (1.0 / (2.0 * pot.beta + 1.0))
    return r0 if r0 > r else None


@settings(max_examples=15)
@given(v0=st.floats(0.0, 3.0), vb=st.floats(0.0, 3.0), r_a=st.floats(0.5, 4.0),
       width=st.floats(0.1, 2.0), beta=st.floats(-0.49, 1.5))
def test_node_count_matches_rk4_oracle(v0, vb, r_a, width, beta):
    pot = _unvalidated(v0=v0, vb=vb, r_a=r_a, r_d=r_a + width, beta=beta)
    r0 = _exterior_node(pot)
    # the oracle integrates to 10 r_d; keep any exterior node well inside
    assume(r0 is None or r0 < 9.0 * pot.r_d)
    assert pot._count_zero_energy_nodes() == count_nodes_zero_energy(pot)


def test_far_exterior_node_rejected():
    # the zero-energy node sits at r ~ 48.6, beyond the oracle's 10 r_d
    params = dict(v0=0.58, vb=1.8, r_a=3.0, r_d=3.4, beta=-0.1)
    assert _exterior_node(_unvalidated(**params)) == pytest.approx(48.6, abs=0.05)
    assert count_nodes_zero_energy(_unvalidated(**params)) == 0
    with pytest.raises(ConfigError, match="1 bound state"):
        WBPotential(**params)


@pytest.mark.parametrize("r_d", (3.4, 8.0))
def test_node_count_square_well_without_barrier_or_tail(r_d):
    # vb = 0 and beta = 0: a bare square well, which binds
    # floor(k r_a / pi + 1/2) s-wave states (exterior u = A r + B)
    r_a = 3.0
    for k_ra in (0.3, 1.5, 1.6, 4.6, 4.8, 8.0):
        pot = _unvalidated(v0=(k_ra / r_a) ** 2, vb=0.0, r_a=r_a, r_d=r_d, beta=0.0)
        assert pot._count_zero_energy_nodes() == math.floor(k_ra / math.pi + 0.5)


@pytest.mark.parametrize("beta", (-0.45, -0.1, 0.0, 0.7))
@pytest.mark.parametrize("vb", (0.0, 1.8))
def test_no_well_never_binds(beta, vb):
    # v0 = 0: u = r in the well; barrier >= 0 and a tail above -1/(4 r^2)
    pot = make_potential(beta, v0=0.0, vb=vb)
    assert pot._count_zero_energy_nodes() == 0


@pytest.mark.parametrize("params", (
    dict(v0=0.5, vb=1.8, beta=0.0),
    dict(v0=1.3, vb=1.8, beta=0.0),
    dict(v0=0.5, vb=0.0, beta=0.3),
    dict(v0=1.0, vb=0.0, beta=-0.3),
))
def test_node_count_edge_cases_match_oracle(params):
    pot = _unvalidated(r_a=3.0, r_d=3.4, **params)
    assert pot._count_zero_energy_nodes() == count_nodes_zero_energy(pot)


def test_model_does_not_import_oracle():
    tree = ast.parse(inspect.getsource(tailsurv.model))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not any("oracle" in name for name in imported), imported


def test_only_sincos_reaches_numpy_sin_and_cos():
    # every phase goes through the one tan-based kernel; a direct
    # np.sin or np.cos (called or passed as a function) is a second route,
    # and np.tan outside the model's half-angle helper a second home for it
    home = {"sin": "_sincos", "cos": "_sincos", "tan": "_tan_half"}
    offenders = []
    for path in sorted(Path(inspect.getfile(tailsurv.model)).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        inside = {name: set() for name in home.values()}
        for node in ast.walk(tree):
            if (isinstance(node, ast.FunctionDef) and node.name in inside
                    and path.name == "model.py"):
                inside[node.name].update(id(sub) for sub in ast.walk(node))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in home
                    and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
                    and id(node) not in inside[home[node.attr]]):
                offenders.append(f"{path.name}:{node.lineno}")
            elif (isinstance(node, ast.ImportFrom) and node.module == "numpy"
                  and {a.name for a in node.names} & set(home)):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, offenders


def test_fields_coerced_to_float():
    pot = WBPotential(v0=0, vb=2, r_a=3, r_d=4, beta=1)
    for name in ("v0", "vb", "r_a", "r_d", "beta"):
        assert isinstance(getattr(pot, name), float)


def test_derived_geometry_properties():
    pot = make_potential(0.7)
    assert pot.r_b == pytest.approx(0.4, rel=1.0e-14)
    assert pot.tail_strength == pytest.approx(0.7 * 1.7, rel=1.0e-14)
    assert make_potential(-0.4).tail_strength == pytest.approx(-0.24, rel=1.0e-14)
    assert make_potential(0.0).tail_strength == 0.0


def test_profile_piecewise_values():
    pot = make_potential(0.7)
    assert pot.v(1.0) == -0.5
    assert pot.v(3.2) == 1.8
    # r_a belongs to the barrier, r_d to the tail
    assert pot.v(3.0) == 1.8
    assert pot.v(3.4) == pytest.approx(pot.tail_strength / 3.4**2, rel=1.0e-14)
    assert pot.v(10.0) == pytest.approx(pot.tail_strength / 100.0, rel=1.0e-14)
    arr = pot.v(np.array([1.0, 3.2, 5.0]))
    assert arr.shape == (3,)
    assert arr[0] == -0.5 and arr[1] == 1.8
    assert isinstance(pot.v(1.0), float)


def test_profile_requires_positive_radius():
    pot = make_potential(0.3)
    with pytest.raises(DomainError):
        pot.v(0.0)
    with pytest.raises(DomainError):
        pot.v(np.array([1.0, -0.5]))


def test_free_potential_is_valid_and_flat():
    pot = make_potential(0.0, v0=0.0, vb=0.0)
    for r in (0.5, 3.2, 8.0):
        assert pot.v(r) == 0.0


# ------------------------------------------------------------------ #
# initial state                                                      #
# ------------------------------------------------------------------ #

def test_initial_state_wavenumber():
    pot = make_potential(0.3)
    state = InitialState.from_potential(pot)
    assert state.r_a == REFERENCE["r_a"]
    assert state.k_a == pytest.approx(math.pi / 3.0, rel=1.0e-15)
    assert InitialState.from_potential(pot, n_a=2).k_a == pytest.approx(
        2.0 * math.pi / 3.0, rel=1.0e-15)


@pytest.mark.parametrize("n_a", (0, -1, 1.5, True))
def test_initial_state_rejects_bad_mode_index(n_a):
    with pytest.raises(ConfigError):
        InitialState(r_a=3.0, n_a=n_a)


def test_initial_state_rejects_bad_radius():
    with pytest.raises(ConfigError):
        InitialState(r_a=0.0)
    with pytest.raises(ConfigError):
        InitialState(r_a=float("inf"))


def test_initial_state_wavefunction_shape_and_support():
    state = InitialState(r_a=3.0)
    assert state.wavefunction(1.5) == pytest.approx(math.sqrt(2.0 / 3.0),
                                                    rel=1.0e-14)
    assert state.wavefunction(4.0) == 0.0
    r = np.linspace(0.0, 3.0, 20001)
    norm = simpson(state.wavefunction(r) ** 2, x=r)
    assert norm == pytest.approx(1.0, abs=1.0e-10)
    assert isinstance(state.wavefunction(1.0), float)
    assert state.wavefunction(np.array([1.0, 5.0])).shape == (2,)


# ------------------------------------------------------------------ #
# regular-solution boundary data                                     #
# ------------------------------------------------------------------ #

def test_free_boundary_matches_trig_closed_form():
    pot = make_potential(0.0, v0=0.0, vb=0.0)
    k = 1.3
    u, du = regular_boundary_sq(pot, k * k)
    assert u == pytest.approx(math.sin(k * pot.r_d) / k, rel=1.0e-13)
    assert du == pytest.approx(math.cos(k * pot.r_d), rel=1.0e-13)


def test_boundary_real_for_real_momentum():
    u, du = regular_boundary_sq(make_potential(0.7), 2.1 ** 2)
    assert isinstance(u, float) and isinstance(du, float)


def test_zero_energy_boundary_frozen_values():
    u, du = regular_boundary_sq(make_potential(0.3), 0.0)
    assert u == pytest.approx(1.16358450282268, rel=1.0e-12)
    assert du == pytest.approx(0.309757549712616, rel=1.0e-12)


def test_small_momentum_limit_matches_zero_energy():
    pot = make_potential(0.3)
    u0, du0 = regular_boundary_sq(pot, 0.0)
    u, du = regular_boundary_sq(pot, 1.0e-8 ** 2)
    assert u == pytest.approx(u0, rel=1.0e-6)
    assert du == pytest.approx(du0, rel=1.0e-6)
    uu, dd = regular_boundary_sq(pot, np.array([0.0]))
    assert uu[0] == pytest.approx(u0, rel=1.0e-12)
    assert dd[0] == pytest.approx(du0, rel=1.0e-12)


def test_boundary_continuous_across_barrier_top():
    # k^2 = vb is a removable point of the piecewise forms
    pot = make_potential(0.3)
    kb = math.sqrt(REFERENCE["vb"])
    (lo, mid, hi), (dlo, dmid, dhi) = regular_boundary_sq(
        pot, np.array([kb - 1.0e-9, kb, kb + 1.0e-9]) ** 2)
    assert abs(hi - lo) < 1.0e-8
    assert abs(dhi - dlo) < 1.0e-8
    assert mid == pytest.approx(-0.715455189499, rel=1.0e-9)
    assert dmid == pytest.approx(-0.161947329384, rel=1.0e-9)


# cos(sqrt(z) L) and sin(sqrt(z) L)/sqrt(z) near their removable point
# z = 0, frozen from 40-digit mpmath: (z, L, sinc value, cos value)
_SINC_REFERENCE = (
    (0.0, 0.4, 0.4, 1.0),
    (1e-300, 0.4, 0.4, 1.0),
    (-1e-300, 0.4, 0.4, 1.0),
    (1e-30, 0.4, 0.4, 1.0),
    (-1e-30, 0.4, 0.4, 1.0),
    (1e-12, 0.4, 0.39999999999998936, 0.99999999999992),
    (-1e-12, 0.4, 0.4000000000000107, 1.00000000000008),
    (6e-08, 0.4, 0.39999999936, 0.9999999952),
    (-6e-08, 0.4, 0.40000000064, 1.0000000048),
    (1e-07, 0.4, 0.3999999989333334, 0.999999992),
    (-1e-07, 0.4, 0.40000000106666667, 1.000000008),
    (0.0001, 0.4, 0.3999989333341867, 0.9999920000106667),
    (-0.0001, 0.4, 0.40000106666752, 1.0000080000106666),
    ((1e-09+1e-09j), 0.4, (0.39999999998933333-1.0666666666496003e-11j),
     (0.99999999992-7.999999999786668e-11j)),
    ((5e-08-3e-08j), 0.4, (0.3999999994666667+3.1999999974400004e-10j),
     (0.999999996+2.3999999968e-09j)),
    (0.001j, 0.4, (0.39999999991466667-1.066666666634159e-05j),
     (0.9999999989333334-7.999999999431112e-05j)),
    (0.0, 3.0, 3.0, 1.0),
    (1e-300, 3.0, 3.0, 1.0),
    (-1e-300, 3.0, 3.0, 1.0),
    (1e-30, 3.0, 3.0, 1.0),
    (-1e-30, 3.0, 3.0, 1.0),
    (1e-12, 3.0, 2.9999999999955, 0.9999999999955),
    (-1e-12, 3.0, 3.0000000000045, 1.0000000000045),
    (6e-08, 3.0, 2.9999997300000074, 0.9999997300000122),
    (-6e-08, 3.0, 3.0000002700000072, 1.0000002700000121),
    (1e-07, 3.0, 2.99999955000002, 0.9999995500000337),
    (-1e-07, 3.0, 3.0000004500000204, 1.0000004500000337),
    (0.0001, 3.0, 2.999550020249566, 0.9995500337489875),
    (-0.0001, 3.0, 3.000450020250434, 1.0004500337510125),
    ((1e-09+1e-09j), 3.0, (2.9999999955-4.49999999595e-09j), (0.9999999955-4.49999999325e-09j)),
    ((5e-08-3e-08j), 3.0, (2.999999775000003+1.3499999392500009e-07j),
     (0.9999997750000054+1.349999898750002e-07j)),
    (0.001j, 3.0, (2.999997975000054-0.004499999566071433j),
     (0.9999966250001627-0.0044999989875000165j)),
)


@pytest.mark.parametrize("length", (0.4, 3.0))
def test_sinc_sqrt_matches_mpmath_near_zero(length):
    # the direct quotient is exact to rounding for every z != 0, so only
    # z = 0 itself takes the limit; real rows run mixed-sign and one by one
    rows = [row for row in _SINC_REFERENCE if row[1] == length]
    z = np.array([row[0] for row in rows])
    sinc_ref = np.array([row[2] for row in rows])
    cos_ref = np.array([row[3] for row in rows])
    real = z.imag == 0.0
    singles = [(z[i:i + 1].real, i) for i in np.flatnonzero(real)]
    for arg, keep in [(z, slice(None)), (z[real].real, real)] + singles:
        cos, sinc = _trig_sqrt(arg, length)
        assert np.max(np.abs(sinc / sinc_ref[keep] - 1.0)) <= 1.0e-14
        assert np.max(np.abs(cos / cos_ref[keep] - 1.0)) <= 1.0e-14
    assert _trig_sqrt(z[real].real, length)[1].dtype == float


@pytest.mark.parametrize("length", (0.4, 3.0, 20.0))
@pytest.mark.parametrize("with_out", (False, True))
def test_mixed_sign_call_is_bit_identical_to_the_per_sign_split(length, with_out):
    # z = E - vb over a table's energies, E = vb exactly among them; a
    # mixed-sign call must give each element what its own sign's call gives
    z = np.concatenate((np.geomspace(1.0e-6, 4.0e4, 400), [1.8])) - 1.8
    out = list(np.empty((6, z.size))) if with_out else (None,) * 6
    cos, sinc = _trig_sqrt(z, length, out)
    assert (z == 0.0).any() and (z < 0.0).any()
    pos = z >= 0.0
    for part in (pos, ~pos):
        part_cos, part_sinc = _trig_sqrt(z[part], length)
        assert part_cos.tobytes() == cos[part].tobytes()
        assert part_sinc.tobytes() == sinc[part].tobytes()


def test_boundary_at_removable_points_matches_mpmath():
    # k^2 = vb and k^2 = -v0 exactly: zero barrier and zero well momentum
    u, du = regular_boundary_sq(make_potential(0.3),
                                np.array([REFERENCE["vb"], -REFERENCE["v0"]]))
    assert np.max(np.abs(u / [-0.7154551894990966, 3.9941257424772316] - 1.0)) <= 1.0e-14
    assert np.max(np.abs(du / [-0.16194732938409492, 4.122134523211776] - 1.0)) <= 1.0e-14


def test_boundary_continuous_across_well_bottom():
    # k^2 = -v0 is the other removable point, reached through the
    # analytic-in-k^2 route
    pot = make_potential(0.3)
    eps = 2.5e-10
    u_lo, du_lo = regular_boundary_sq(pot, -REFERENCE["v0"] - eps)
    u_hi, du_hi = regular_boundary_sq(pot, -REFERENCE["v0"] + eps)
    assert abs(u_hi - u_lo) < 1.0e-8
    assert abs(du_hi - du_lo) < 1.0e-8


def test_boundary_sq_vectorized_and_consistent():
    pot = make_potential(0.3)
    u, du = regular_boundary_sq(pot, 1.3**2)
    uu, dd = regular_boundary_sq(pot, np.array([1.3**2]))
    assert u == uu[0] and du == dd[0]
    w = np.array([-0.3, 0.0, 0.5, 2.4])
    uu, dd = regular_boundary_sq(pot, w)
    assert uu.shape == w.shape and dd.shape == w.shape
    assert np.all(np.isfinite(uu)) and np.all(np.isfinite(dd))


def test_boundary_sq_conjugate_symmetry():
    # real coefficients: complex conjugation of k^2 conjugates the output
    pot = make_potential(0.7)
    u_p, du_p = regular_boundary_sq(pot, 0.3 + 0.1j)
    u_m, du_m = regular_boundary_sq(pot, 0.3 - 0.1j)
    assert u_p == pytest.approx(np.conj(u_m), rel=1.0e-12)
    assert du_p == pytest.approx(np.conj(du_m), rel=1.0e-12)


def test_boundary_sq_rejects_nonfinite():
    with pytest.raises(DomainError):
        regular_boundary_sq(make_potential(0.3), float("nan"))


# ------------------------------------------------------------------ #
# input boundary: every public entry point takes one or more finite  #
# numbers (model._vector) before its own domain check                #
# ------------------------------------------------------------------ #

@pytest.fixture(scope="module")
def entry_points():
    den = make_density(0.3)
    order = BesselOrder(0.3)
    return {
        "omega": den.omega,
        "jost_modulus_sq": den.jost_modulus_sq,
        "threshold_pade_omega": den.threshold_pade_omega,
        "riccati_pair_with_derivatives": partial(riccati_pair_with_derivatives, order),
        "riccati_combos": partial(riccati_combos, order),
        "riccati_large_x_combos": partial(riccati_large_x_combos, order),
        "regular_boundary_sq": partial(regular_boundary_sq, den.pot),
        "v": den.pot.v,
        "wavefunction": den.init.wavefunction,
        "survival_exact": partial(survival_exact, den),
        "survival_laplace_axis": partial(survival_laplace_axis, den),
        "evaluate": asymptote_one_term(den.threshold).evaluate,
    }


# 10.0 is a valid argument of each entry point.  A NaN time must not pass
# the t >= 0 check and come back as P(0) with a small stated error.
@pytest.mark.parametrize("bad", (
    math.nan, math.inf, -math.inf, [math.nan, 10.0], [10.0, math.inf],
    [-math.inf, 10.0], np.array([]), []),
    ids=("nan", "+inf", "-inf", "nan,10", "10,+inf", "-inf,10", "empty", "empty-list"))
@pytest.mark.parametrize("name", (
    "omega", "jost_modulus_sq", "threshold_pade_omega", "riccati_pair_with_derivatives",
    "riccati_combos", "riccati_large_x_combos", "regular_boundary_sq", "v",
    "wavefunction", "survival_exact", "survival_laplace_axis", "evaluate"))
def test_entry_points_reject_nonfinite_or_empty_input(entry_points, name, bad):
    with pytest.raises(DomainError, match="must be one or more finite numbers"):
        entry_points[name](bad)


# ------------------------------------------------------------------ #
# the sine-cosine kernel                                             #
# ------------------------------------------------------------------ #

_EPS = np.finfo(float).eps


def _mp_sincos(values):
    with mpmath.workprec(120):
        pts = [mpmath.mpc(complex(v)) for v in values]
        return ([complex(mpmath.sin(p)) for p in pts], [complex(mpmath.cos(p)) for p in pts])


@settings(max_examples=60)
@given(x=st.lists(st.floats(-1.0e8, 1.0e8), min_size=1, max_size=40),
       k=st.lists(st.integers(-60_000_000, 60_000_000), min_size=1, max_size=20),
       off=st.floats(-1.0e-6, 1.0e-6))
def test_sincos_real_within_4_eps_absolute(x, k, off):
    # uniform draws, and draws at and near the multiples of pi/2, where
    # one of the pair passes through zero and tan(x/2) through 0, +-1 or inf
    near = np.asarray(k) * (0.5 * np.pi)
    x = np.concatenate((x, near, near + off, np.nextafter(near, np.inf)))
    sin, cos = _sincos(x)
    sin_ref, cos_ref = _mp_sincos(x)
    assert np.max(np.abs(sin - np.real(sin_ref))) <= 4.0 * _EPS
    assert np.max(np.abs(cos - np.real(cos_ref))) <= 4.0 * _EPS


@settings(max_examples=60)
@given(mag=st.lists(st.floats(-300.0, -3.0), min_size=1, max_size=40),
       sign=st.sampled_from((-1.0, 1.0)))
def test_sincos_small_sin_within_4_eps_relative(mag, sign):
    # sinc and overlap quotients divide sin x by x, so small x needs
    # relative accuracy
    x = sign * 10.0 ** np.asarray(mag)
    sin, _ = _sincos(x)
    sin_ref = np.real(_mp_sincos(x)[0])
    assert np.max(np.abs(sin / sin_ref - 1.0)) <= 4.0 * _EPS


@settings(max_examples=60)
@given(x=st.lists(st.floats(-1.0e8, 1.0e8) | st.floats(-1.0e-300, 1.0e-300),
                  min_size=1, max_size=40))
def test_sincos_exact_at_zero_odd_and_even(x):
    x = np.asarray(x)
    sin, cos = _sincos(x)
    sin_neg, cos_neg = _sincos(-x)
    assert np.array_equal(sin_neg, -sin) and np.array_equal(cos_neg, cos)
    sin0, cos0 = _sincos(np.array([0.0, -0.0]))
    assert list(sin0) == [0.0, 0.0] and list(cos0) == [1.0, 1.0]
    assert math.copysign(1.0, sin0[1]) == -1.0


@settings(max_examples=60)
@given(a=st.lists(st.floats(-1.0e3, 1.0e3), min_size=1, max_size=30),
       b=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=30))
def test_sincos_complex_within_4_eps_of_cosh_scale(a, b):
    n = min(len(a), len(b))
    z = np.asarray(a[:n]) + 1j * np.asarray(b[:n])
    sin, cos = _sincos(z)
    sin_ref, cos_ref = _mp_sincos(z)
    scale = 4.0 * _EPS * np.maximum(1.0, np.cosh(z.imag))
    assert np.all(np.abs(sin - sin_ref) <= scale)
    assert np.all(np.abs(cos - cos_ref) <= scale)
