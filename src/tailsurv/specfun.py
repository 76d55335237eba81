"""Special functions for inverse-square-tail scattering problems.

Provides a high-accuracy gamma function and the Riccati-Bessel pair
(j_hat, n_hat) of real order beta > -1/2 together with their first
derivatives, evaluated by ascending power series with term-wise
differentiation.  Three evaluation routes cover the full order range:

* generic order: reflection-form series (the n_hat series combines the
  order +nu and -nu solutions through cot/sin factors, nu = beta + 1/2);
* non-negative integer beta: closed trigonometric forms via stable
  low-order recurrences (the reflection factors are exactly degenerate
  there and the closed forms are cheaper and exact);
* beta within 1e-9 of a half-odd integer (nu integer): the reflection
  form is singular, so the logarithmic series of the integer-order
  second solution is used instead.

Series evaluation targets relative accuracy 1e-15 per term cutoff.  On
the real axis the alternating series loses roughly e^{|x|} * eps to
cancellation, so callers needing |x| beyond ~25 should switch to the
large-argument combination forms (`riccati_large_x_combos`).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, DomainError

SQRT_PI = math.sqrt(math.pi)
EULER_GAMMA = 0.57721566490153286

# Series controls: relative term cutoff and hard term cap.
SERIES_RTOL = 1.0e-15
SERIES_MAX_TERMS = 200

# Orders closer than this to a degenerate point switch evaluation route.
ORDER_DEGENERACY_TOL = 1.0e-9

# Lanczos approximation, g = 7, 9 coefficients.  Relative accuracy is a
# few ulp over the strip -5 <= Re z <= 50 used here.
_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def gamma(z: complex | float) -> complex | float:
    """Gamma function for real or complex scalar z.

    Uses the Lanczos rational approximation with reflection for
    Re z < 0.5.  Raises DomainError at the poles (non-positive
    integers) and on non-finite input.
    """
    if isinstance(z, (np.floating, np.integer)):
        z = float(z)
    elif isinstance(z, np.complexfloating):
        z = complex(z)
    if not isinstance(z, (int, float, complex)):
        raise DomainError(f"gamma expects a scalar, got {type(z).__name__}")
    zc = complex(z)
    if not (math.isfinite(zc.real) and math.isfinite(zc.imag)):
        raise DomainError(f"gamma argument must be finite, got {z!r}")
    if zc.imag == 0.0 and zc.real <= 0.0 and zc.real == round(zc.real):
        raise DomainError(f"gamma pole at z = {zc.real:g}")
    val = _gamma_complex(zc)
    if isinstance(z, complex):
        return val
    return val.real


def _gamma_complex(z: complex) -> complex:
    if z.real < 0.5:
        # Reflection; sin(pi z) is nonzero away from the poles.
        return math.pi / (cmath.sin(math.pi * z) * _gamma_complex(1.0 - z))
    z = z - 1.0
    acc = _LANCZOS_COEF[0]
    for i, c in enumerate(_LANCZOS_COEF[1:], start=1):
        acc = acc + c / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * cmath.exp(-t) * acc


def digamma_int(n: int) -> float:
    """Digamma at a positive integer: psi(n) = -gamma + H_{n-1}."""
    if n < 1:
        raise DomainError(f"digamma_int needs n >= 1, got {n}")
    return -EULER_GAMMA + sum(1.0 / j for j in range(1, n))


@dataclass(frozen=True)
class BesselOrder:
    """Order bookkeeping for the Riccati-Bessel pair.

    beta is the tail strength exponent; the cylinder order is
    nu = beta + 1/2.  Only beta > -1/2 keeps both solutions
    power-behaved at the origin.
    """

    beta: float

    def __post_init__(self) -> None:
        b = self.beta
        if not isinstance(b, (int, float)) or isinstance(b, bool):
            raise DomainError(f"beta must be a real number, got {b!r}")
        if not math.isfinite(b):
            raise DomainError(f"beta must be finite, got {b!r}")
        if b <= -0.5:
            raise DomainError(f"beta must exceed -1/2, got {b:g}")
        object.__setattr__(self, "beta", float(b))

    @property
    def nu(self) -> float:
        return self.beta + 0.5

    @property
    def is_integer_beta(self) -> bool:
        return abs(self.beta - round(self.beta)) < ORDER_DEGENERACY_TOL and round(self.beta) >= 0

    @property
    def is_integer_nu(self) -> bool:
        return abs(self.nu - round(self.nu)) < ORDER_DEGENERACY_TOL


class RiccatiPair(NamedTuple):
    """Values of (j_hat, j_hat', n_hat, n_hat') at one argument set."""

    j: np.ndarray | complex | float
    jp: np.ndarray | complex | float
    n: np.ndarray | complex | float
    np_: np.ndarray | complex | float


class RiccatiCombos(NamedTuple):
    """The three quadratic combinations entering the Jost modulus."""

    sum_sq: np.ndarray | complex | float       # n^2 + j^2
    cross: np.ndarray | complex | float        # n n' + j j'
    sum_sq_deriv: np.ndarray | complex | float  # n'^2 + j'^2


def _coerce_argument(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if not np.issubdtype(arr.dtype, np.number):
        raise DomainError("Riccati argument must be numeric")
    if not np.all(np.isfinite(arr)):
        raise DomainError("Riccati argument must be finite (no NaN/inf)")
    if np.any(arr == 0):
        raise DomainError("Riccati functions are not evaluated at x = 0")
    if np.issubdtype(arr.dtype, np.complexfloating):
        arr = arr.astype(np.complex128)
    else:
        arr = arr.astype(np.float64)
        if np.any(arr < 0):
            # Negative real arguments need the principal complex branch.
            arr = arr.astype(np.complex128)
    return arr, scalar


def _unpack(scalar: bool, *vals):
    if scalar:
        out = tuple(v[0] if isinstance(v, np.ndarray) else v for v in vals)
    else:
        out = vals
    return out if len(out) > 1 else out[0]


_SERIES_COEF_CACHE: dict[tuple[float, float, int], tuple[np.ndarray, np.ndarray]] = {}


def _series_term_count(w_max: float, ratio_shift: float) -> int:
    """Terms needed so the last one is below SERIES_RTOL of the running peak.

    Scalar dry run of the term-ratio recursion at the largest argument;
    the count is rounded up to a multiple of 8 to keep the coefficient
    cache small.
    """
    term = 1.0
    peak = 1.0
    for p in range(SERIES_MAX_TERMS):
        term *= w_max / ((p + 1.0) * abs(p + ratio_shift))
        peak = max(peak, term)
        if term <= SERIES_RTOL * peak:
            return min(SERIES_MAX_TERMS, 8 * ((p + 8) // 8))
    raise ConvergenceError(
        f"Riccati series did not converge within {SERIES_MAX_TERMS} terms "
        f"(max (x/2)^2 = {w_max:.3g})")


def _series_coefficients(exponent0: float, ratio_shift: float,
                         n_terms: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient tables for the power series and its derivative weight."""
    key = (exponent0, ratio_shift, n_terms)
    cached = _SERIES_COEF_CACHE.get(key)
    if cached is None:
        c = np.empty(n_terms + 1)
        c[0] = 1.0
        for p in range(n_terms):
            c[p + 1] = -c[p] / ((p + 1.0) * (p + ratio_shift))
        d = c * (exponent0 + 2.0 * np.arange(n_terms + 1))
        _SERIES_COEF_CACHE[key] = cached = (c, d)
    return cached


def _power_series(x: np.ndarray, exponent0: float, ratio_shift: float,
                  seed_scale: complex) -> tuple[np.ndarray, np.ndarray]:
    """Sum seed_scale * sum_p t_p x^{exponent0+2p} and its x-derivative.

    t_0 = 1 and t_{p+1}/t_p = -(x/2)^2 / ((p+1)(p+ratio_shift)).
    Evaluated as a Horner sum in (x/2)^2 with coefficients cached per
    (exponent0, ratio_shift, length); raises ConvergenceError at the
    term cap.  Returns (sum, d/dx sum).
    """
    half_sq = (0.5 * x) * (0.5 * x)
    n_terms = _series_term_count(float(np.max(np.abs(half_sq))), ratio_shift)
    coef, coef_d = _series_coefficients(exponent0, ratio_shift, n_terms)
    if np.iscomplexobj(x):
        base = np.exp(exponent0 * np.log(x))
    else:
        base = x ** exponent0
    total = np.full_like(base, coef[-1])
    total_d = np.full_like(base, coef_d[-1])
    for p in range(n_terms - 1, -1, -1):
        total = total * half_sq + coef[p]
        total_d = total_d * half_sq + coef_d[p]
    scale = seed_scale * base
    return scale * total, scale * total_d / x


def _pair_generic(beta: float, x: np.ndarray) -> tuple[np.ndarray, ...]:
    """Reflection-form series for non-degenerate order."""
    nu = beta + 0.5
    j, jp = _power_series(x, beta + 1.0, beta + 1.5,
                          SQRT_PI / (2.0 ** (beta + 1.0) * gamma(beta + 1.5)))
    s2, s2p = _power_series(x, -beta, 0.5 - beta,
                            SQRT_PI / (2.0 ** (-beta) * gamma(0.5 - beta)))
    cot_term = 1.0 / math.tan(nu * math.pi)
    csc_term = 1.0 / math.sin(nu * math.pi)
    n = cot_term * j - csc_term * s2
    np_ = cot_term * jp - csc_term * s2p
    return j, jp, n, np_


def _pair_integer_beta(ell: int, x: np.ndarray) -> tuple[np.ndarray, ...]:
    """Closed trigonometric forms, upward recurrence from order 0.

    Stable only for ell not much larger than |x|; the physical range here
    keeps ell at a handful at most.
    """
    sin_x, cos_x = np.sin(x), np.cos(x)
    jm1, j0 = cos_x, sin_x          # orders -1, 0
    nm1, n0 = sin_x, -cos_x
    for i in range(ell):
        jm1, j0 = j0, (2 * i + 1) / x * j0 - jm1
        nm1, n0 = n0, (2 * i + 1) / x * n0 - nm1
    jp = jm1 - ell / x * j0
    np_ = nm1 - ell / x * n0
    return j0, jp, n0, np_


def _pair_integer_nu(n_order: int, beta: float, x: np.ndarray) -> tuple[np.ndarray, ...]:
    """Logarithmic-series route for nu = integer n_order >= 0.

    The second solution picks up a log term; all pieces are summed with
    term-wise derivatives, sharing the regular solution's series.
    """
    j, jp = _power_series(x, beta + 1.0, beta + 1.5,
                          SQRT_PI / (2.0 ** (beta + 1.0) * gamma(beta + 1.5)))
    log_half = np.log(0.5 * x)

    # Finite sum: k = 0 .. n-1 of (n-k-1)!/k! (x/2)^{2k-n+1/2}.
    fin = np.zeros_like(j)
    fin_d = np.zeros_like(j)
    for k in range(n_order):
        coef = math.factorial(n_order - k - 1) / math.factorial(k)
        expo = 2.0 * k - n_order + 0.5
        if np.iscomplexobj(x):
            pw = np.exp(expo * np.log(0.5 * x))
        else:
            pw = (0.5 * x) ** expo
        fin += coef * pw
        fin_d += coef * pw * (expo / x)

    # Digamma-weighted series: k = 0 .. inf.
    half_sq = (0.5 * x) * (0.5 * x)
    expo0 = n_order + 0.5
    if np.iscomplexobj(x):
        c = np.exp(expo0 * np.log(0.5 * x)) / math.factorial(n_order)
    else:
        c = (0.5 * x) ** expo0 / math.factorial(n_order)
    psi_a = digamma_int(1)
    psi_b = digamma_int(n_order + 1)
    term = c * (psi_a + psi_b)
    tot = term.copy()
    tot_d = term * expo0
    env = np.abs(tot)
    converged = False
    for k in range(SERIES_MAX_TERMS):
        c = c * (-half_sq) / ((k + 1.0) * (k + n_order + 1.0))
        psi_a += 1.0 / (k + 1.0)
        psi_b += 1.0 / (k + n_order + 1.0)
        term = c * (psi_a + psi_b)
        tot += term
        tot_d += term * (expo0 + 2.0 * (k + 1.0))
        env = np.maximum(env, np.abs(tot))
        if np.all(np.abs(term) <= SERIES_RTOL * (env + np.finfo(float).tiny)):
            converged = True
            break
    if not converged:
        raise ConvergenceError(
            f"logarithmic Riccati series did not converge within {SERIES_MAX_TERMS} terms")

    n = (2.0 / math.pi) * log_half * j - (fin + tot) / SQRT_PI
    np_ = (2.0 / math.pi) * (j / x + log_half * jp) - (fin_d + tot_d / x) / SQRT_PI
    return j, jp, n, np_


def riccati_pair_with_derivatives(order: BesselOrder, x) -> RiccatiPair:
    """(j_hat, j_hat', n_hat, n_hat') at argument x (scalar or array).

    Real positive input yields real output; complex or negative input
    promotes to the principal complex branch.
    """
    arr, scalar = _coerce_argument(x)
    if order.is_integer_beta:
        vals = _pair_integer_beta(int(round(order.beta)), arr)
    elif order.is_integer_nu:
        vals = _pair_integer_nu(int(round(order.nu)), order.beta, arr)
    else:
        vals = _pair_generic(order.beta, arr)
    return RiccatiPair(*_unpack(scalar, *vals))


def riccati_j(order: BesselOrder, x):
    """Regular Riccati-Bessel function j_hat of the given order."""
    return riccati_pair_with_derivatives(order, x).j


def riccati_n(order: BesselOrder, x):
    """Irregular Riccati-Bessel function n_hat of the given order."""
    return riccati_pair_with_derivatives(order, x).n


def riccati_combos(order: BesselOrder, x) -> RiccatiCombos:
    """Quadratic combinations (n^2+j^2, nn'+jj', n'^2+j'^2) by direct series."""
    j, jp, n, np_ = riccati_pair_with_derivatives(order, x)
    return RiccatiCombos(n * n + j * j, n * np_ + j * jp, np_ * np_ + jp * jp)


def riccati_large_x_combos(order: BesselOrder, z) -> RiccatiCombos:
    """Leading large-argument forms of the quadratic combinations.

    Valid for |z| >= 10; the truncation error of the first two
    combinations is O(z^-4) relative (cross term O(z^-5) absolute).
    These forms stay accurate where the direct series loses all digits
    to cancellation, and they are the route used on large contour arcs.
    """
    arr, scalar = _coerce_argument(z)
    if np.any(np.abs(arr) < 10.0):
        raise DomainError(
            f"large-argument combos need |z| >= 10, got min |z| = {np.min(np.abs(arr)):.3g}")
    b = order.beta * (order.beta + 1.0)
    z2 = arr * arr
    sum_sq = 1.0 + b / (2.0 * z2)
    cross = -b / (2.0 * z2 * arr)
    sum_sq_deriv = 1.0 - b / (2.0 * z2)
    return RiccatiCombos(*_unpack(scalar, sum_sq, cross, sum_sq_deriv))
