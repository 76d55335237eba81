"""Energy density of the decaying state over the continuum.

The density is assembled from the regular-solution boundary data and
the exterior Riccati-Bessel pair.  Writing the exterior solution as
a j_hat(kr) + b n_hat(kr), the squared matching-coefficient sum

    C^2(k) = (n'^2 + j'^2) u^2 + (n^2 + j^2) u'^2 / k^2
             - 2 (n n' + j j') u u' / k

gives the squared Jost-function modulus k^2 C^2(k) on the real axis,
and its analytic continuation off it (no moduli are taken, so the same
expression serves on the lower-half energy sheet used by the long-time
contour representation).  The density for the well mode of index n_a is

    omega(E) = 2 k_a^2 sin^2(k_I r_a)
               / (pi r_a k_I^2 k C^2 (k_a^2 - k_I^2)^2),

with k_I the interior momentum and k_a the mode momentum; omega
integrates to one over the continuum when no bound state exists.

Near threshold the density follows omega ~ zeta k^{2 beta + 1}; the
coefficients of that law and of its three-term refinement for
attractive tails are provided by `threshold_coeffs`.

The quadratic combinations come from the ascending series of the
Riccati pair below |k r_d| = SERIES_COMBO_SWITCH (12.5) and from the
asymptotic Hankel-product series above it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError
from .model import InitialState, WBPotential, regular_boundary_sq, zero_energy_boundary
from .specfun import (SERIES_COMBO_SWITCH, SQRT_PI, BesselOrder, RiccatiCombos, gamma,
                      riccati_combos, riccati_large_x_combos,
                      riccati_pair_with_derivatives)

# Interior momenta closer than this to the mode momentum use the
# series form of the removable sin(k_I r_a)/(k_a^2 - k_I^2) factor.
_MODE_RESONANT_CUT = 1.0e-6

# Orders this close to an integer nu degenerate the three-term
# threshold refinement (its reflection coefficients blow up).
_NU_INTEGER_CUT = 1.0e-6


@dataclass(frozen=True)
class ThresholdCoeffs:
    """Threshold behaviour of the Jost modulus and the density.

    jost_scale:     |f(k)| ~ jost_scale * k^{-beta} as k -> 0
    density_scale:  omega  ~ density_scale * k^{2 beta + 1}
    coeff_down/mid/up: coefficients of |f|^2 / k ~ coeff_down k^{-2 nu}
        + coeff_mid + coeff_up k^{2 nu}; None when nu is within
        1e-6 of an integer, where this expansion degenerates.
    density_series: coefficients of omega ~ sum_m c_m k^{2 m nu},
        m = 1 .. len; None exactly when the coeff block is None.
    """

    beta: float
    nu: float
    jost_scale: float
    density_scale: float
    coeff_down: float | None
    coeff_mid: float | None
    coeff_up: float | None
    density_series: tuple[float, ...] | None

    def require_series(self) -> tuple[float, ...]:
        if self.density_series is None:
            raise DomainError(
                f"threshold power series degenerates for nu = {self.nu:g} "
                "(within 1e-6 of an integer); only the leading law is available")
        return self.density_series


def _mode_overlap_factor(k_i, k_a: float, n_a: int):
    """sin(k_I r_a) / (k_a^2 - k_I^2) with its removable point resolved.

    r_a enters through k_a = n_a pi / r_a; the caller scales.  Works on
    real or complex arrays.
    """
    k_i = np.asarray(k_i)
    r_a = n_a * math.pi / k_a
    near = np.abs(k_i - k_a) < _MODE_RESONANT_CUT
    if np.any(near):
        delta = np.where(near, k_i - k_a, 0.0)
        arg = delta * r_a
        # sin(n_a pi + x) = (-1)^{n_a} sin x; sin(x)/x by series
        sinc = 1.0 - arg * arg / 6.0 * (1.0 - arg * arg / 20.0)
        sign = -1.0 if n_a % 2 == 0 else 1.0
        series = sign * (-r_a) * sinc / (2.0 * k_a + delta)
        direct = (np.sin(np.where(near, 0.0, k_i) * r_a)
                  / np.where(near, 1.0, (k_a - k_i) * (k_a + k_i)))
        return np.where(near, series, direct)
    return np.sin(k_i * r_a) / ((k_a - k_i) * (k_a + k_i))


class SpectralDensity:
    """Density of the decaying state over energy, with continuation.

    Holds a validated potential and initial state; threshold
    coefficients are computed on first use so parameter sets whose
    refinement degenerates still support plain density evaluation.
    """

    def __init__(self, pot: WBPotential, init: InitialState,
                 n_series: int = 6) -> None:
        if abs(init.r_a - pot.r_a) > 1e-12:
            raise DomainError(
                f"initial state r_a = {init.r_a:g} does not match potential r_a = {pot.r_a:g}")
        self.pot = pot
        self.init = init
        self.n_series = int(n_series)
        if self.n_series < 1:
            raise DomainError(f"n_series must be >= 1, got {n_series}")
        self.order = BesselOrder(pot.beta)

    # -- Jost modulus ------------------------------------------------

    def _combos(self, z):
        """Quadratic Riccati combinations at z = k r_d, split at SERIES_COMBO_SWITCH."""
        near = np.abs(z) < SERIES_COMBO_SWITCH
        if near.all():
            return riccati_combos(self.order, z)
        if not near.any():
            return riccati_large_x_combos(self.order, z)
        lo = riccati_combos(self.order, z[near])
        hi = riccati_large_x_combos(self.order, z[~near])
        fields = []
        for a, b in zip(lo, hi):
            full = np.empty(z.shape, dtype=z.dtype)  # a (3, n) block raised peak RSS
            full[near], full[~near] = a, b
            fields.append(full)
        return RiccatiCombos(*fields)

    def _c_sq(self, k, w):
        """C^2(k) from boundary data and Riccati combinations; w = k^2."""
        u, du = regular_boundary_sq(self.pot, w)
        combos = self._combos(k * self.pot.r_d)
        return (combos.sum_sq_deriv * u * u
                + combos.sum_sq * du * du / w
                - 2.0 * combos.cross * u * du / k)

    def jost_modulus_sq(self, k):
        """Squared Jost modulus k^2 C^2(k); scalar or array, k != 0.

        Real positive k gives the physical squared modulus; complex k
        gives its analytic continuation.
        """
        arr = np.asarray(k)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        if not np.all(np.isfinite(arr)):
            raise DomainError("k must be finite")
        if np.any(arr == 0):
            raise DomainError("Jost modulus is evaluated away from k = 0")
        if not np.iscomplexobj(arr):
            arr = arr.astype(float)
            if np.any(arr < 0):
                raise DomainError("real k must be positive")
        w = arr * arr
        out = w * self._c_sq(arr, w)
        return (out[0] if scalar else out)

    def phase_shift(self, k: float) -> float:
        """Tail-referenced scattering phase, a diagnostic only.

        atan2 of the matching coefficients; modulo pi ambiguities are
        not resolved across resonances.
        """
        k = float(k)
        if k <= 0.0:
            raise DomainError("phase shift needs real k > 0")
        u, du = regular_boundary_sq(self.pot, k * k)
        j, jp, n, np_ = riccati_pair_with_derivatives(self.order, k * self.pot.r_d)
        # solve u = a j + b n, du = k (a j' + b n'); Wronskian j n' - j' n = 1
        a = u * np_ - du * n / k
        b = du * j / k - u * jp
        return math.atan2(-b, a)

    # -- density -----------------------------------------------------

    def omega(self, e):
        """Density at energy e: real e > 0, or complex continuation.

        Real input must be positive (the density vanishes with a
        branch-type law at threshold, and negative real energies sit on
        the continuation cut).  Complex input is evaluated with the
        principal momentum branch k = sqrt(E), which realizes the
        lower-half-sheet continuation used by the contour
        representation.
        """
        arr = np.asarray(e)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        if not np.all(np.isfinite(arr)):
            raise DomainError("energy must be finite")
        if not np.iscomplexobj(arr):
            arr = arr.astype(float)
            if np.any(arr <= 0.0):
                raise DomainError(
                    "real energies must be positive (threshold and the cut excluded)")
        else:
            if np.any(arr == 0):
                raise DomainError("the density has a branch point at E = 0")
        w = arr
        k = np.sqrt(w)
        k_i = np.sqrt(w + self.pot.v0)
        c_sq = self._c_sq(k, w)
        k_a = self.init.k_a
        overlap = _mode_overlap_factor(k_i, k_a, self.init.n_a)
        pref = 2.0 * k_a ** 2 / (math.pi * self.pot.r_a)
        out = pref * overlap * overlap / ((w + self.pot.v0) * k * c_sq)
        return (out[0] if scalar else out)

    def threshold_pade_omega(self, e):
        """Three-term threshold refinement of the density.

        Valid for |E| well below the potential scales; accepts the same
        real/complex input as `omega`.  Requires the non-degenerate
        coefficient block.
        """
        th = self.threshold
        if th.coeff_down is None:
            raise DomainError(
                f"threshold refinement unavailable: nu = {th.nu:g} is within "
                "1e-6 of an integer")
        arr = np.asarray(e)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        if not np.iscomplexobj(arr):
            arr = arr.astype(float)
            if np.any(arr <= 0.0):
                raise DomainError("real energies must be positive")
        knu2 = arr ** th.nu if not np.iscomplexobj(arr) else np.exp(th.nu * np.log(arr))
        ratio_mid = th.coeff_mid / th.coeff_down
        ratio_up = th.coeff_up / th.coeff_down
        out = th.density_scale * knu2 / (1.0 + ratio_mid * knu2 + ratio_up * knu2 * knu2)
        return (out[0] if scalar else out)

    @cached_property
    def threshold(self) -> ThresholdCoeffs:
        return threshold_coeffs(self.pot, self.init, self.n_series)

    def normalization_integral(self, e_hi: float = 4.0e4) -> float:
        """Integral of the density over the continuum (should be 1)."""
        from .survival import spectral_mass

        return spectral_mass(self, e_hi)


def threshold_coeffs(pot: WBPotential, init: InitialState,
                     n_series: int = 6) -> ThresholdCoeffs:
    """Threshold expansion coefficients from zero-energy boundary data.

    Raises a domain error when the leading coefficient degenerates
    (the decaying state then couples to the tail at higher order than
    this expansion covers).
    """
    beta = pot.beta
    nu = beta + 0.5
    bnd = zero_energy_boundary(pot)
    r_d = pot.r_d
    bracket_minus = beta * bnd.u / r_d + bnd.du
    bracket_plus = (beta + 1.0) * bnd.u / r_d - bnd.du
    if abs(bracket_minus) < 1.0e-12:
        raise DomainError(
            "degenerate threshold: the zero-energy solution matches the "
            "decaying tail branch, so |f| ~ k^{-beta} fails")
    jost_scale = (2.0 ** beta * gamma(beta + 0.5) / (SQRT_PI * r_d ** beta)
                  * abs(bracket_minus))

    k_a = init.k_a
    # sin(k_I0 r_a) / (k_I0 (k_a^2 - v0)) with both removable points covered
    if pot.v0 < 1e-28:
        g0 = pot.r_a / (k_a * k_a - pot.v0)
    else:
        k_i0 = math.sqrt(pot.v0)
        g0 = float(_mode_overlap_factor(np.asarray([k_i0]), k_a, init.n_a)[0]) / k_i0
    density_scale = (2.0 * k_a ** 2 / (math.pi * pot.r_a)) * g0 * g0 / jost_scale ** 2

    if abs(nu - round(nu)) < _NU_INTEGER_CUT:
        return ThresholdCoeffs(beta=beta, nu=nu, jost_scale=jost_scale,
                               density_scale=density_scale, coeff_down=None,
                               coeff_mid=None, coeff_up=None, density_series=None)

    g_nu = gamma(nu)
    coeff_down = g_nu ** 2 * 2.0 ** (2.0 * nu - 1.0) / (math.pi * r_d ** (2.0 * nu - 1.0)) \
        * bracket_minus ** 2
    coeff_mid = (r_d / (nu * math.tan(nu * math.pi))) * bracket_minus * bracket_plus
    coeff_up = r_d ** (2.0 * nu + 1.0) * gamma(1.0 - nu) ** 2 \
        / (math.pi * 2.0 ** (2.0 * nu + 1.0) * nu ** 2) * bracket_plus ** 2

    # geometric expansion of density_scale k^{2 nu} / (1 + a k^{2 nu} + b k^{4 nu})
    a = coeff_mid / coeff_down
    b = coeff_up / coeff_down
    cs = [1.0]
    for m in range(1, n_series):
        nxt = -a * cs[m - 1] - (b * cs[m - 2] if m >= 2 else 0.0)
        cs.append(nxt)
    series = tuple(density_scale * c for c in cs)

    return ThresholdCoeffs(beta=beta, nu=nu, jost_scale=jost_scale,
                           density_scale=density_scale, coeff_down=coeff_down,
                           coeff_mid=coeff_mid, coeff_up=coeff_up,
                           density_series=series)


def arc_density_magnitude(pot: WBPotential, init: InitialState,
                          radius: float, angle: float) -> float:
    """|G| on the lower-half-plane arc k = radius * exp(i angle).

    G is the density stripped of its threshold-finite prefactor:
    sin^2(k_I r_a) / C^2, evaluated at E = k^2.  Its decay along
    momentum rays with angle in (-pi/4, 0) as the radius grows (the
    energy sweeps the fourth quadrant) is what lets the long-time
    contour be closed away from the real axis.

    Interior and barrier factors grow like exp(|Im k| r_d), far past
    double range at the radii of interest, so the evaluation factors
    each trigonometric piece as exp(i z) * O(1) and cancels the common
    growth analytically; only the surviving exp(2 Im(q r_b)) decay and
    O(1) factors are formed numerically.  Requires radius * r_d >= 10
    so the Hankel-product series applies.
    """
    radius = float(radius)
    angle = float(angle)
    if radius <= 0.0:
        raise DomainError(f"arc radius must be positive, got {radius:g}")
    if not -math.pi / 4.0 < angle < 0.0:
        raise DomainError(
            f"arc angle must lie in (-pi/4, 0), got {angle:g}")
    k = radius * np.exp(1j * angle)
    z = k * pot.r_d
    if abs(z) < 10.0:
        raise DomainError(
            f"arc radius too small: |k r_d| = {abs(z):.3g} < 10 needed for the "
            "Hankel-product series")
    w = k * k
    k_i = np.sqrt(w + pot.v0)       # Im < 0 on the open arc
    q = np.sqrt(w - pot.vb)         # barrier momentum; kappa^2 = -q^2
    za = k_i * pot.r_a
    zb = q * pot.r_b
    # sin z = e^{iz}(1 - e^{-2iz})/2i, cos z = e^{iz}(1 + e^{-2iz})/2;
    # with Im z < 0 the e^{-2iz} factors are bounded by 1.
    ea = np.exp(-2j * za)
    eb = np.exp(-2j * zb)
    sig_s = (1.0 - ea) / (2j * k_i)     # sin(za)/k_I, scale e^{i za} removed
    sig_c = (1.0 + ea) / 2.0            # cos(za), same scale removed
    tau_c = (1.0 + eb) / 2.0            # cosh(kappa r_b), scale e^{i zb}
    tau_s = (1.0 - eb) / (2j * q)       # sinh(kappa r_b)/kappa, same
    u_sc = sig_s * tau_c + sig_c * tau_s
    du_sc = -q * q * sig_s * tau_s + sig_c * tau_c
    combos = riccati_large_x_combos(BesselOrder(pot.beta), z)
    c_sq_sc = (combos.sum_sq_deriv * u_sc * u_sc
               + combos.sum_sq * du_sc * du_sc / w
               - 2.0 * combos.cross * u_sc * du_sc / k)
    # G = sin^2(za) / C^2 = e^{-2 i zb} * (k_I sig_s)^2 / scaled C^2
    log_mag = 2.0 * float(np.imag(zb)) + math.log(abs(k_i * k_i * sig_s * sig_s)) \
        - math.log(abs(c_sq_sc))
    if log_mag < -700.0:
        return 0.0
    return math.exp(log_mag)
