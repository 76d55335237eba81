"""Special functions for inverse-square-tail scattering problems.

Provides the Riccati-Bessel pair (j_hat, n_hat) of real order
beta > -1/2 with its first derivatives, by one of two routes:

* integer beta: closed trigonometric forms via stable low-order
  recurrences (exact, and accurate beyond the series' reach);
* every other order: ascending series with term-wise differentiation and
  Temme's split nu = n + mu of nu = beta + 1/2, which sums the
  1/sin(mu pi) cancellation of the reflection form analytically and so
  stays accurate as nu passes through an integer.  On the real axis its
  alternating terms lose about e^{|x|} eps; past _SERIES_LOSS_BUDGET it
  raises ConvergenceError instead.

`riccati_combos` gives the quadratic combinations at any z != 0: from
the pair below |z| = SERIES_COMBO_SWITCH, from the asymptotic
Hankel-product series (`riccati_large_x_combos`) from there on.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, DomainError
from .model import _horner, _sincos, _vector

SQRT_PI = math.sqrt(math.pi)
_EPS = float(np.finfo(float).eps)

# Series controls: relative term cutoff, and the largest loss to
# cancellation (eps times the peak term) allowed; 1e-7 admits x ~ 22.5.
SERIES_RTOL = 1.0e-15
_SERIES_LOSS_BUDGET = 1.0e-7
# Entries kept by each per-order cache (an order takes ~2.5 KB in all).
_ORDER_CACHE_SIZE = 128

# |z| from which the quadratic combinations come from the Hankel-product
# series.  On the real axis the Hankel sums carry ~4e-12 there (e^{-2x})
# and the series up to 1.2e-10 of n^2 + j^2 at x = 12.49 (e^x eps, worst
# for mu = nu - n near -1/2: beta = 0.001, 2.02, 1 + 9e-10), below the
# panel table's _PANEL_RTOL = 5e-10; off it the series reaches 6.5e-10
# (arg z = -0.3).
SERIES_COMBO_SWITCH = 12.5


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
    def is_integer_beta(self) -> bool:
        # beta > -1/2, so an integer beta is a non-negative one
        return self.beta.is_integer()


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
    arr, scalar = _vector(x, "Riccati argument")
    if np.any(arr == 0):
        raise DomainError("Riccati functions are not evaluated at x = 0")
    real = not np.iscomplexobj(arr) and not np.any(arr < 0)  # else principal branch
    return arr.astype(np.float64 if real else np.complex128, copy=False), scalar


def _unpack(scalar: bool, *vals):
    return tuple(v[0] for v in vals) if scalar else vals


# Taylor coefficients of 1/Gamma(1 + x) about x = 0 (DLMF 5.7.1); 21
# terms reach rounding level on |x| <= 1/2.
_RGAMMA_TAYLOR = (
    1.0, 0.5772156649015329, -0.6558780715202539, -0.04200263503409524,
    0.16653861138229148, -0.04219773455554433, -0.009621971527876973,
    0.0072189432466631, -0.0011651675918590652, -0.00021524167411495098,
    0.0001280502823881162, -2.013485478078824e-05, -1.2504934821426706e-06,
    1.133027231981696e-06, -2.056338416977607e-07, 6.116095104481416e-09,
    5.002007644469223e-09, -1.18127457048702e-09, 1.0434267116911005e-10,
    7.782263439905071e-12, -3.696805618642206e-12,
)


class _SeriesTables(NamedTuple):
    """Horner tables in w = (x/2)^2 for the ascending series of one order."""

    mu: float            # nu - n, in [-1/2, 1/2)
    ratio: float         # mu / sin(mu pi), 1/pi at mu = 0
    shift: int           # n = floor(nu + 1/2): the n_hat table starts at w^-n
    j: np.ndarray        # sqrt(pi) (-1)^i a_i
    jd: np.ndarray       # (beta + 1 + 2i) times j
    n: np.ndarray        # sqrt(pi) c_i
    nd: np.ndarray       # (2i - beta) times n


@functools.lru_cache(maxsize=_ORDER_CACHE_SIZE)
def _series_tables(beta: float, n_terms: int) -> _SeriesTables:
    """Coefficients of j_hat = sqrt(pi) (x/2)^{beta+1} sum_i (-1)^i a_i w^i
    and n_hat = K j_hat + sqrt(pi) (x/2)^{-beta} sum_i c_i w^{i-n}.

    Temme's split nu = n + mu (J. Comput. Phys. 21 (1976) 343), with
    a_m = 1/(m! Gamma(m+nu+1)) and b_m = 1/((m+n)! Gamma(m+1-mu)) from the
    terms m >= n of J_{-nu}.  Summing the reflection form's 1/sin(mu pi)
    cancellation analytically gives c_{m+n} = (mu / sin mu pi) (-1)^m d_m
    with d_m = (a_m - b_m)/mu, and c_k = -Gamma(n-k+mu)/(pi k!) for k < n.
    d_0 comes from Gamma_1, Gamma_2 (Taylor series of 1/Gamma(1+x)) and
    ((1+mu)_n - n!)/mu, d_m from a recurrence with no difference of nearly
    equal terms.  Both tables hold n_terms + n + 1 entries.
    """
    nu = beta + 0.5
    n = math.floor(nu + 0.5)
    mu = nu - n
    gamma2 = sum(c * mu ** (2 * k) for k, c in enumerate(_RGAMMA_TAYLOR[0::2]))
    gamma1 = -sum(c * mu ** (2 * k) for k, c in enumerate(_RGAMMA_TAYLOR[1::2]))
    # (1+mu)_k for k = 0 .. n, and ((1+mu)_n - n!)/mu
    poch, poch_diff = [1.0], 0.0
    for k in range(1, n + 1):
        poch_diff = k * poch_diff + poch[-1]
        poch.append(poch[-1] * (k + mu))
    ratio = mu / math.sin(mu * math.pi) if mu else 1.0 / math.pi
    rgamma_1p_mu = gamma2 - mu * gamma1     # 1/Gamma(1+mu)
    size = n_terms + n + 1
    a = np.empty(size)                        # (-1)^m a_m
    d = np.empty(size - n)                    # (-1)^m d_m
    a[0] = rgamma_1p_mu / poch[n]
    b = (gamma2 + mu * gamma1) / math.factorial(n)
    d[0] = -(2.0 * gamma1 + poch_diff * b) / poch[n]
    for m in range(1, size):
        a[m] = -a[m - 1] / (m * (m + nu))
    for m in range(1, size - n):
        d[m] = (b * (2 * m + n) / ((m + n) * (m - mu)) - d[m - 1]) / (m * (m + nu))
        b /= -(m + n) * (m - mu)              # (-1)^m b_m
    head = [-poch[n - k - 1] / (math.pi * math.factorial(k) * rgamma_1p_mu) for k in range(n)]
    a *= SQRT_PI
    c = SQRT_PI * np.concatenate((head, ratio * d))
    i = np.arange(size)
    return _SeriesTables(mu, ratio, n, a, (beta + 1.0 + 2.0 * i) * a,
                         c, (2.0 * i - beta) * c)


def _series_term_count(w_max: float) -> int:
    """Terms needed so the last one is below SERIES_RTOL of the running peak.

    Scalar dry run of the term ratio w / ((p + 1)(p + 1/2)) at the largest
    argument (1/2 < min(nu + 1, 1 - mu) bounds a_m and b_m alike), raising
    once eps times the peak term passes _SERIES_LOSS_BUDGET.  The count is
    rounded up to a multiple of 8 to keep the coefficient cache small.
    """
    term = peak = 1.0
    for p in itertools.count():
        term *= w_max / ((p + 1.0) * (p + 0.5))
        peak = max(peak, term)
        if peak * _EPS > _SERIES_LOSS_BUDGET:
            raise ConvergenceError(
                f"Riccati series would lose {peak * _EPS:.2g} to "
                f"cancellation at max (x/2)^2 = {w_max:.3g}")
        if term <= SERIES_RTOL * peak:
            return 8 * ((p + 8) // 8)


def _pair_series(beta: float, x: np.ndarray) -> tuple[np.ndarray, ...]:
    """Ascending series for every order but integer beta (see _series_tables).

    n_hat = K j_hat + P sum_i c_i w^{i-n}, with P = sqrt(pi) (x/2)^{-beta},
    K = (cos mu pi - (x/2)^{-2 mu}) / sin mu pi -> 2 ln(x/2) / pi at mu = 0,
    and K' = 2 (mu / sin mu pi) (x/2)^{-2 mu} / x.  One log and two
    exponentials per element give every power: (x/2)^{beta+1}, (x/2)^{-2 mu}
    and their product over w^n, (x/2)^{-beta}.  The four sums are Horner's.
    """
    w = np.square(0.5 * x)
    tab = _series_tables(beta, _series_term_count(float(np.max(np.abs(w)))))
    j, jp, n, np_ = (_horner(c, w) for c in (tab.j, tab.jd, tab.n, tab.nd))
    log_half = np.log(0.5 * x)
    scale = np.exp((beta + 1.0) * log_half)
    j, jp = j * scale, jp * scale / x
    power = np.expm1(-2.0 * tab.mu * log_half)          # (x/2)^{-2 mu} - 1
    if tab.mu == 0.0:
        k_fac = log_half * (2.0 / math.pi)
    else:
        k_fac = power * (-1.0 / math.sin(tab.mu * math.pi)) - math.tan(0.5 * tab.mu * math.pi)
    power = power + 1.0
    scale = scale * power                               # (x/2)^{-beta} w^n
    for _ in range(tab.shift):
        scale = scale / w
    n, np_ = n * scale, np_ * scale / x
    kp_fac = power * (2.0 * tab.ratio) / x
    return j, jp, n + k_fac * j, np_ + kp_fac * j + k_fac * jp


def _pair_integer_beta(ell: int, x: np.ndarray) -> tuple[np.ndarray, ...]:
    """Closed trigonometric forms, upward recurrence from order 0.

    Stable only for ell not much larger than |x|; the physical range here
    keeps ell at a handful at most.
    """
    sin_x, cos_x = _sincos(x)
    jm1, j0 = cos_x, sin_x          # orders -1, 0
    nm1, n0 = sin_x, -cos_x
    for i in range(ell):
        jm1, j0 = j0, (2 * i + 1) / x * j0 - jm1
        nm1, n0 = n0, (2 * i + 1) / x * n0 - nm1
    return j0, jm1 - ell / x * j0, n0, nm1 - ell / x * n0


def _pair(order: BesselOrder, x: np.ndarray) -> tuple[np.ndarray, ...]:
    if order.is_integer_beta:
        return _pair_integer_beta(int(order.beta), x)
    return _pair_series(order.beta, x)


def riccati_pair_with_derivatives(order: BesselOrder, x) -> RiccatiPair:
    """(j_hat, j_hat', n_hat, n_hat') at argument x (scalar or array).

    Real positive input yields real output; complex or negative input
    promotes to the principal complex branch.  Off integer beta the
    series raises ConvergenceError from |x| ~ 22.5 on.
    """
    arr, scalar = _coerce_argument(x)
    return RiccatiPair(*_unpack(scalar, *_pair(order, arr)))


def _pair_combos(order: BesselOrder, x: np.ndarray) -> tuple[np.ndarray, ...]:
    """(n^2 + j^2, n n' + j j', n'^2 + j'^2) from the pair."""
    j, jp, n, np_ = _pair(order, x)
    return n * n + j * j, n * np_ + j * jp, np_ * np_ + jp * jp


def riccati_combos(order: BesselOrder, z) -> RiccatiCombos:
    """Quadratic combinations (n^2+j^2, nn'+jj', n'^2+j'^2) at any z != 0.

    Formed from the pair below |z| = SERIES_COMBO_SWITCH, the
    Hankel-product sums of `riccati_large_x_combos` from there on.  Real
    positive z gives real output, other z the principal complex branch.
    """
    arr, scalar = _coerce_argument(z)
    return RiccatiCombos(*_unpack(scalar, *_combos(order, arr)))


def _combos(order: BesselOrder, z: np.ndarray) -> tuple[np.ndarray, ...]:
    """`riccati_combos` on a validated 1-d float64 (z > 0) or complex128 array.

    A mixed call runs the pair on the near part and the Hankel sums on the
    far part, and puts each part's values in place.
    """
    near = np.abs(z) < SERIES_COMBO_SWITCH
    if near.all():
        return _pair_combos(order, z)
    if not near.any():
        return _hankel_combos(order.beta, z)
    full = tuple(np.empty_like(z) for _ in range(3))
    for part, combos in ((near, _pair_combos(order, z[near])),
                         (~near, _hankel_combos(order.beta, z[~near]))):
        for dst, src in zip(full, combos):
            dst[part] = src
    return full


@functools.lru_cache(maxsize=_ORDER_CACHE_SIZE)
def _large_x_coefficients(beta: float) -> tuple[np.ndarray, np.ndarray]:
    """a_k of n^2 + j^2 = sum_k a_k z^{-2k}, and k a_k: a_0 = 1,
    a_k = a_{k-1} (2k-1)/(2k) (mu - (2k-1)^2)/4 with mu = (2 beta + 1)^2.

    The asymptotic series is cut at its smallest term k |a_k| R^-2k at the
    switch radius R (k ~ 12; a zero term at integer beta): the count
    depends on the order alone, not on the other arguments in a call.
    """
    k = np.arange(1.0, 41.0)
    a = np.cumprod((2.0 * k - 1.0) / (2.0 * k)
                   * ((2.0 * beta + 1.0) ** 2 - (2.0 * k - 1.0) ** 2) / 4.0)
    n_keep = 1 + int(np.argmin(k * np.abs(a) / SERIES_COMBO_SWITCH ** (2.0 * k)))
    coef = np.concatenate(([1.0], a[:n_keep]))
    return coef, coef * np.arange(n_keep + 1)


def _hankel_combos(beta: float, z: np.ndarray) -> tuple[np.ndarray, ...]:
    """n^2 + j^2 = sum_k a_k z^{-2k} (DLMF 10.18.17), n n' + j j' is half
    its derivative, and n'^2 + j'^2 = (1 + (n n' + j j')^2) / (n^2 + j^2)
    by the Wronskian."""
    coef, coef_k = _large_x_coefficients(beta)
    inv_sq = np.reciprocal(z * z)
    sum_sq = _horner(coef, inv_sq)
    cross = -_horner(coef_k, inv_sq) / z
    return sum_sq, cross, (1.0 + cross * cross) / sum_sq


def riccati_large_x_combos(order: BesselOrder, z) -> RiccatiCombos:
    """Quadratic combinations from the asymptotic Hankel-product series,
    for |z| >= 10.  Error relative to n^2 + j^2: ~1e-9 at |z| = 10, ~4e-12
    at 12.5, ~4e-14 at 15, rounding from 20 on, none at integer beta."""
    arr, scalar = _coerce_argument(z)
    if np.any(np.abs(arr) < 10.0):
        raise DomainError(
            f"large-argument combos need |z| >= 10, got min |z| = {np.min(np.abs(arr)):.3g}")
    return RiccatiCombos(*_unpack(scalar, *_hankel_combos(order.beta, arr)))
