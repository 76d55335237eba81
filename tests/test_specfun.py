"""Special-function layer: series values, closed forms, identities."""
from __future__ import annotations

import cmath
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
    # the Hankel-product series past SERIES_COMBO_SWITCH
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


def test_large_x_combos_match_series_at_20():
    order = BesselOrder(1.0)
    direct = riccati_combos(order, np.array([20.0]))
    asym = riccati_large_x_combos(order, np.array([20.0]))
    for d, a in zip(direct, asym):
        assert abs(d[0] - a[0]) < 1.0e-6


@pytest.mark.xfail(strict=True,
                   reason="the direct-series reference is the inaccurate "
                          "side at z = 50: its alternating terms cancel and "
                          "lose ~e^z eps ~ 1e9 absolute, while the "
                          "Hankel-product series is at rounding level there "
                          "(checked against mpmath in "
                          "test_large_x_combos_match_mpmath)")
def test_large_x_combos_match_series_at_50():
    order = BesselOrder(0.7)
    direct = riccati_combos(order, np.array([50.0]))
    asym = riccati_large_x_combos(order, np.array([50.0]))
    for d, a in zip(direct, asym):
        assert abs(d[0] - a[0]) < 1.0e-8


@pytest.mark.parametrize("beta", (0.3, 0.7, 1.0))
def test_large_x_combos_truncation_bound(beta):
    # a loose O(z^-4) bound on the difference between the two routes.
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


# (beta, |z|, arg z, n^2 + j^2, n n' + j j') at z = |z| exp(i arg z),
# frozen from mpmath at 120 digits: (pi z / 2)(J^2 + Y^2) of order
# beta + 1/2 and its half-derivative.  (On the -pi/4 ray J^2 + Y^2
# cancels by up to e^{2 |Im z|} ~ 1e30, so 40 digits would not do.)
LARGE_X_REFERENCE = [
    (-0.4, 12.5, 0.0,
     0.9992399996810645+0j, 6.017945278499406e-05+0j),
    (-0.4, 12.5, -0.3,
     0.9993691848483226-0.00042620439489497177j, 3.806966429277516e-05+4.686401688856124e-05j),
    (-0.4, 12.5, -math.pi / 4,
     0.9999917609385164-0.0007677272985051573j, -4.246849991992179e-05+4.4328683054676134e-05j),
    (-0.4, 15.0, 0.0,
     0.9994705609189026+0j, 3.504193467556364e-05+0j),
    (-0.4, 15.0, -0.3,
     0.9995612819899488-0.0002975177975066354j, 2.2055787528621005e-05+2.733737075434359e-05j),
    (-0.4, 15.0, -math.pi / 4,
     0.9999960221164976-0.0005332416472733334j, -2.4754006981615153e-05+2.550327342720612e-05j),
    (-0.4, 20.0, 0.0,
     0.9997012440398656+0j, 1.4876373904502464e-05+0j),
    (-0.4, 20.0, -0.3,
     0.9997528593030642-0.00016823403148187897j, 9.31407088931003e-06+1.1626302151323693e-05j),
    (-0.4, 20.0, -math.pi / 4,
     0.9999987404372077-0.0002999836398398576j, -1.0515834135070162e-05+1.069390157385785e-05j),
    (-0.4, 50.0, 0.0,
     0.9999520321891928+0j, 9.587137627615573e-07+0j),
    (-0.4, 50.0, -0.3,
     0.9999603955937297-2.70728400142185e-05j, 5.966522898735086e-07+7.507102903439845e-07j),
    (-0.4, 50.0, -math.pi / 4,
     0.9999999677442875-4.799993290961393e-05j, -6.77907342398123e-07+6.797319847904444e-07j),
    (0.3, 12.5, 0.0,
     1.0012386270798517+0j, -9.836083344018698e-05+0j),
    (0.3, 12.5, -0.3,
     1.0010264705332639+0.0006959534652642683j, -6.192212463001319e-05-7.672526489501633e-05j),
    (0.3, 12.5, -math.pi / 4,
     1.0000096261254443+0.0012477134735111289j, 6.946211396240656e-05-7.163616252751864e-05j),
    (0.3, 15.0, 0.0,
     1.0008621081388034+0j, -5.7175894252689064e-05+0j),
    (0.3, 15.0, -0.3,
     1.0007135864555483+0.0004851130197877083j, -3.5862567816998495e-05-4.4656471026629946e-05j),
    (0.3, 15.0, -math.pi / 4,
     1.0000046467876236+0.0008665703625072293j, 4.0403770711128285e-05-4.127916939098456e-05j),
    (0.3, 20.0, 0.0,
     1.0004860451404316+0j, -2.4230333007946942e-05+0j),
    (0.3, 20.0, -0.3,
     1.0004018142481848+0.00027390803732773385j, -1.5140105014145765e-05-1.8948987196120035e-05j),
    (0.3, 20.0, -math.pi / 4,
     1.0000014712050957+0.00048748281935015133j, 1.7129907650190726e-05-1.733790605752646e-05j),
    (0.3, 50.0, 0.0,
     1.0000779623961662+0j, -1.5584972443203025e-06+0j),
    (0.3, 50.0, -0.3,
     1.0000643625106995+4.400706769915001e-05j, -9.696028388802183e-07-1.2204904329615628e-06j),
    (0.3, 50.0, -math.pi / 4,
     1.0000000376737137+7.799992955164065e-05j, 1.102018024394728e-06-1.1041491552800721e-06j),
    (0.499, 12.5, 0.0,
     1.0023795985695412+0j, -0.00018927624231680122+0j),
    (0.499, 12.5, -0.3,
     1.0019702383693674+0.001338498806620929j, -0.00011882576897586679-0.00014778207113306973j),
    (0.499, 12.5, -math.pi / 4,
     1.0000143596480477+0.0023932029882187985j, 0.00013371318694941123-0.00013695685706037523j),
    (0.499, 15.0, 0.0,
     1.0016554168744989+0j, -0.000109915574465621+0j),
    (0.499, 15.0, -0.3,
     1.0013693526440481+0.0009322244583583168j, -6.880592220500912e-05-8.590433524428717e-05j),
    (0.499, 15.0, -math.pi / 4,
     1.0000069311588287+0.0016620899527816204j, 7.768610413325316e-05-7.899196197481299e-05j),
    (0.499, 20.0, 0.0,
     1.0009328297852393+0j, -4.653406124528016e-05+0j),
    (0.499, 20.0, -0.3,
     1.0007708894431298+0.000525918665985934j, -2.9043060925773977e-05-3.64046988385897e-05j),
    (0.499, 20.0, -math.pi / 4,
     1.0000021943242532+0.0009349772594354517j, 3.2899622823469174e-05-3.320986401468035e-05j),
    (0.499, 50.0, 0.0,
     1.0001495441081947+0j, -2.9897622798380237e-06+0j),
    (0.499, 50.0, -0.3,
     1.0001234499901848+8.441835140335019e-05j, -1.8596975712312651e-06-2.3414803670774654e-06j),
    (0.499, 50.0, -math.pi / 4,
     1.000000056189403+0.0001496001016331105j, 2.1140728791031845e-06-2.1172514098158438e-06j),
    (0.7, 12.5, 0.0,
     1.0037935534624858+0j, -0.00030235575306064756+0j),
    (0.7, 12.5, -0.3,
     1.0031374416560979+0.002136714051068448j, -0.00018915947289879564-0.00023634524510703786j),
    (0.7, 12.5, -math.pi / 4,
     1.0000147829047124+0.003807622589584953j, 0.00021367924374585492-0.00021701920306652105j),
    (0.7, 15.0, 0.0,
     1.0026374266566094+0j, -0.00017536842811308396+0j),
    (0.7, 15.0, -0.3,
     1.0021799416309123+0.0014866312243728699j, -0.00010950851972852829-0.00013716935691857578j),
    (0.7, 15.0, -math.pi / 4,
     1.000007134698319+0.0026443176415091346j, 0.00012397024041018646-0.00012531458064058147j),
    (0.7, 20.0, 0.0,
     1.0014852629838042+0j, -7.415237990122805e-05+0j),
    (0.7, 20.0, -0.3,
     1.0012268633401364+0.0008378217603905236j, -4.621463803536508e-05-5.8037475634816235e-05j),
    (0.7, 20.0, -math.pi / 4,
     1.000002258606774+0.001487477384045967j, 5.24289996782312e-05-5.2748339620163735e-05j),
    (0.7, 50.0, 0.0,
     1.0002379422583787+0j, -4.757692175798747e-06+0j),
    (0.7, 50.0, -0.3,
     1.0001964088989388+0.00013433109518503624j, -2.958697024720043e-06-3.726333315372248e-06j),
    (0.7, 50.0, -math.pi / 4,
     1.0000000578336492+0.00023799990727519534j, 3.3641885718355223e-06-3.3674601172341775e-06j),
    (1.5, 12.5, 0.0,
     1.0120996417167192+0j, -0.0009758537962291558+0j),
    (1.5, 12.5, -0.3,
     1.009940791198898+0.006868518024022994j, -0.0005980186234487498-0.0007678386204089095j),
    (1.5, 12.5, -math.pi / 4,
     0.9998992551265502+0.012001204533872495j, 0.000690418195220238-0.0006676345445187417j),
    (1.5, 15.0, 0.0,
     1.008381551582312+0j, -0.0005619592334672828+0j),
    (1.5, 15.0, -0.3,
     1.0068954946203896+0.0047502755315968976j, -0.00034583537525153586-0.00044157843181675594j),
    (1.5, 15.0, -math.pi / 4,
     0.9999514017981019+0.008333737594623669j, 0.00039747486799687445-0.0003883135213425647j),
    (1.5, 20.0, 0.0,
     1.004702810017798+0j, -0.00023590252038564047+0j),
    (1.5, 20.0, -0.3,
     1.0038743495345237+0.0026610278149879034j, -0.00014580387182921178-0.0001851172547123526j),
    (1.5, 20.0, -math.pi / 4,
     0.999984620438933+0.004687572050454739j, 0.00016682319820253387-0.0001646483830302509j),
    (1.5, 50.0, 0.0,
     1.0007503934555353+0j, -1.5015732348974017e-05+0j),
    (1.5, 50.0, -0.3,
     1.0006191444560197+0.00042384855842225055j, -9.325272519043323e-06-1.1765598924689774e-05j),
    (1.5, 50.0, -math.pi / 4,
     0.9999996062508527+0.0007500002953075124j, 1.0617751130064751e-05-1.0595477362922909e-05j),
]


@pytest.mark.parametrize("radius,bound", ((12.5, 1.0e-11), (15.0, 1.0e-13),
                                          (20.0, 1.0e-13), (50.0, 1.0e-13)))
def test_large_x_combos_match_mpmath(radius, bound):
    # Both errors are taken relative to n^2 + j^2 ~ 1, the scale at which
    # the cross term enters C^2; against its own size (~1e-4 at |z| = 12.5)
    # the cross term carries up to 5e-8 there.  Measured: 4.0e-12,
    # 4.1e-14, 2.4e-17 and 4.1e-20 from |z| = 12.5 up.
    rows = [row for row in LARGE_X_REFERENCE if row[1] == radius]
    assert len(rows) == 15
    for beta, r, angle, sum_sq, cross in rows:
        got = riccati_large_x_combos(BesselOrder(beta), r * cmath.exp(1j * angle))
        assert abs(got.sum_sq - sum_sq) <= bound * abs(sum_sq)
        assert abs(got.cross - cross) <= bound * abs(sum_sq)


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
