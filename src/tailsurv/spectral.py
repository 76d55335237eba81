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
attractive tails are provided by `SpectralDensity.threshold`.

The quadratic combinations at k r_d come from `specfun._combos` (the
kernel of `riccati_combos`) on momenta validated here.  `omega` makes
one pass per energy: three square roots (k, k_I, barrier momentum)
and, above the barrier, four circular functions.  The well's sine and
cosine come from the shifted phase d = (k_I - k_a) r_a, and sin d also
gives the mode-overlap factor, so it stays exact through k_I = k_a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError
from .model import (InitialState, WBPotential, _assemble_boundary, _mul, _sincos,
                    _well_boundary, regular_boundary_sq)
# riccati_combos and riccati_pair_with_derivatives stay importable here only
# because perfbench's tracer hooks them by these names
from .specfun import (SQRT_PI, BesselOrder, _combos, riccati_combos,
                      riccati_large_x_combos, riccati_pair_with_derivatives)

# Orders this close to an integer nu degenerate the three-term
# threshold refinement (its reflection coefficients blow up).
_NU_INTEGER_CUT = 1.0e-6

# Terms of the threshold density series, the most `asymptote_series` uses.
_DENSITY_SERIES_TERMS = 6


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


def _shifted_well(k_i, k_a: float, n_a: int, out=(None,) * 6):
    """(sin d, cos d, overlap) at the shifted well phase d = (k_I - k_a) r_a.

    With k_a r_a = n_a pi, sin(k_I r_a) = (-1)^n_a sin d, cos(k_I r_a) =
    (-1)^n_a cos d, and the mode-overlap factor sin(k_I r_a) / (k_a^2 -
    k_I^2) is (-1)^(n_a+1) r_a (sin d / d) / (k_a + k_I), which takes its
    limit r_a / (2 k_a) up to sign at d = 0.  The unshifted quotient
    would lose eps k_I r_a / |d| of relative accuracy near that point.
    r_a enters through k_a = n_a pi / r_a; the caller scales.  Works on
    real or complex arrays.  out: d, then `_sincos`'s; the overlap is new.
    """
    r_a = n_a * math.pi / k_a
    d = np.multiply(np.subtract(k_i, k_a, out=out[0]), r_a, out=out[0])
    sin_d, cos_d = _sincos(d, out=out[1:])
    overlap = np.divide(sin_d, d, out=np.ones_like(d), where=d != 0.0)
    overlap *= r_a if n_a % 2 else -r_a
    overlap /= np.add(k_a, k_i, out=out[3])
    return sin_d, cos_d, overlap


def _off_threshold(x, name: str):
    """x as a 1-d float or complex array, and whether it was a scalar.
    Raises unless x is finite, off the branch point 0 and, if real, positive."""
    arr, scalar = np.atleast_1d(np.asarray(x)), np.ndim(x) == 0
    arr = arr.astype(complex if np.iscomplexobj(arr) else float, copy=False)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite")
    if np.any(arr == 0 if np.iscomplexobj(arr) else arr <= 0.0):
        raise DomainError(f"{name} must be nonzero, and positive when real: "
                          "threshold and the continuation cut are excluded")
    return arr, scalar


def _c_sq(combos, k, w, u, du, out=(None,) * 4):
    """C^2(k) from the Riccati combinations at k r_d and (u, u'); w = k^2.
    out: scratch, then three that may be the combinations' own arrays (spent);
    no product overwrites an operand, as in `specfun._pair_combos`."""
    sum_sq, cross, sum_sq_deriv = combos
    c_sq = _mul(_mul(sum_sq_deriv, u, out[0]), u, out[3])
    part = _mul(_mul(sum_sq, du, out[0]), du, out[1])
    part /= w
    c_sq += part
    part = _mul(_mul(2.0, cross, out[0]), u, out[2])
    part = _mul(part, du, out[0])
    part /= k
    c_sq -= part
    return c_sq


def _work_block(n: int, dtype=float) -> np.ndarray:
    """A block for `SpectralDensity.omega(e, work=...)` on up to n energies of
    dtype float or complex; omega leaves row 0 to the caller (the energies)."""
    return np.empty((13, n), dtype)


class SpectralDensity:
    """Density of the decaying state over energy, with continuation.

    Holds a validated potential and initial state; threshold
    coefficients are computed on first use so parameter sets whose
    refinement degenerates still support plain density evaluation.
    """

    def __init__(self, pot: WBPotential, init: InitialState) -> None:
        if abs(init.r_a - pot.r_a) > 1e-12:
            raise DomainError(
                f"initial state r_a = {init.r_a:g} does not match potential r_a = {pot.r_a:g}")
        self.pot = pot
        self.init = init
        self.order = BesselOrder(pot.beta)

    # -- Jost modulus ------------------------------------------------

    def jost_modulus_sq(self, k):
        """Squared Jost modulus k^2 C^2(k); scalar or array, k != 0.

        Real positive k gives the physical squared modulus; complex k
        gives its analytic continuation.
        """
        arr, scalar = _off_threshold(k, "k")
        w = arr * arr
        out = w * _c_sq(_combos(self.order, arr * self.pot.r_d), arr, w,
                        *regular_boundary_sq(self.pot, w))
        return (out[0] if scalar else out)

    # -- density -----------------------------------------------------

    def omega(self, e, *, work=None):
        """Density at energy e: real e > 0, or complex continuation.

        Real input must be positive (the density vanishes with a
        branch-type law at threshold, and negative real energies sit on
        the continuation cut).  Complex input is evaluated with the
        principal momentum branch k = sqrt(E), which realizes the
        lower-half-sheet continuation used by the contour
        representation.

        Every intermediate goes into `work`, a `_work_block(n, dtype)` with n
        at least the number of energies and the input's dtype, or into one
        block per call without it; the result, a new array, is the same bits.
        """
        arr, scalar = _off_threshold(e, "energy")
        rows = list((_work_block(arr.size, arr.dtype) if work is None else work)[1:, :arr.size])
        if len(rows) != 12 or rows[0].size != arr.size or rows[0].dtype != arr.dtype:
            raise DomainError(f"work must be a _work_block({arr.size}, {arr.dtype}) or wider")
        k = np.sqrt(arr, out=rows[0])
        k_i = np.sqrt(np.add(arr, self.pot.v0, out=rows[1]), out=rows[1])
        k_a = self.init.k_a
        sin_d, cos_d, out = _shifted_well(k_i, k_a, self.init.n_a, rows[2:8])
        # the density's numerator, before the combinations: fewer live arrays
        out *= out
        out *= 2.0 * k_a ** 2 / (math.pi * self.pot.r_a)
        sin_d /= k_i
        k_i *= k_i
        k_i *= k
        out /= k_i
        # (sin d / k_I, cos d) is (-1)^n_a times the well pair; C^2 is even in it.
        # Live rows: k 0, sin_d 3, cos_d 4, then u 6 and du 4 (cos_d's).
        u, du = _well_boundary(self.pot, arr, sin_d, cos_d, rows[1:3] + rows[5:])
        combos = _combos(self.order, np.multiply(k, self.pot.r_d, out=rows[1]),
                         rows[2:4] + rows[5:6] + rows[7:])
        out /= _c_sq(combos, k, arr, u, du, [rows[1], *combos])
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
        arr, scalar = _off_threshold(e, "energy")
        knu2 = arr ** th.nu if not np.iscomplexobj(arr) else np.exp(th.nu * np.log(arr))
        ratio_mid = th.coeff_mid / th.coeff_down
        ratio_up = th.coeff_up / th.coeff_down
        out = th.density_scale * knu2 / (1.0 + ratio_mid * knu2 + ratio_up * knu2 * knu2)
        return (out[0] if scalar else out)

    @cached_property
    def threshold(self) -> ThresholdCoeffs:
        """Threshold expansion coefficients from zero-energy boundary data.

        Raises a domain error when the leading coefficient degenerates
        (the decaying state then couples to the tail at higher order than
        this expansion covers).
        """
        pot, init = self.pot, self.init
        beta = pot.beta
        nu = beta + 0.5
        u0, du0 = map(float, regular_boundary_sq(pot, 0.0))
        r_d = pot.r_d
        bracket_minus = beta * u0 / r_d + du0
        bracket_plus = (beta + 1.0) * u0 / r_d - du0
        if abs(bracket_minus) < 1.0e-12:
            raise DomainError(
                "degenerate threshold: the zero-energy solution matches the "
                "decaying tail branch, so |f| ~ k^{-beta} fails")
        jost_scale = (2.0 ** beta * math.gamma(beta + 0.5) / (SQRT_PI * r_d ** beta)
                      * abs(bracket_minus))

        k_a = init.k_a
        # sin(k_I0 r_a) / (k_I0 (k_a^2 - v0)) with both removable points covered
        if pot.v0 < 1e-28:
            g0 = pot.r_a / (k_a * k_a - pot.v0)
        else:
            k_i0 = math.sqrt(pot.v0)
            g0 = float(_shifted_well(np.asarray([k_i0]), k_a, init.n_a)[2][0]) / k_i0
        density_scale = (2.0 * k_a ** 2 / (math.pi * pot.r_a)) * g0 * g0 / jost_scale ** 2

        if abs(nu - round(nu)) < _NU_INTEGER_CUT:
            return ThresholdCoeffs(beta=beta, nu=nu, jost_scale=jost_scale,
                                   density_scale=density_scale, coeff_down=None,
                                   coeff_mid=None, coeff_up=None, density_series=None)

        g_nu = math.gamma(nu)
        coeff_down = g_nu ** 2 * 2.0 ** (2.0 * nu - 1.0) / (math.pi * r_d ** (2.0 * nu - 1.0)) \
            * bracket_minus ** 2
        coeff_mid = (r_d / (nu * math.tan(nu * math.pi))) * bracket_minus * bracket_plus
        coeff_up = r_d ** (2.0 * nu + 1.0) * math.gamma(1.0 - nu) ** 2 \
            / (math.pi * 2.0 ** (2.0 * nu + 1.0) * nu ** 2) * bracket_plus ** 2

        # geometric expansion of density_scale k^{2 nu} / (1 + a k^{2 nu} + b k^{4 nu})
        a = coeff_mid / coeff_down
        b = coeff_up / coeff_down
        cs = [1.0]
        for m in range(1, _DENSITY_SERIES_TERMS):
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
    # G = sin^2(za) / C^2 = e^{-2 i zb} * (k_I sig_s)^2 / scaled C^2
    log_mag = 2.0 * float(np.imag(zb)) + math.log(abs(k_i * k_i * sig_s * sig_s))
    u_sc, du_sc = _assemble_boundary(sig_s, sig_c, tau_c, tau_s, q * q)
    c_sq_sc = _c_sq(riccati_large_x_combos(BesselOrder(pot.beta), z), k, w, u_sc, du_sc)
    log_mag -= math.log(abs(c_sq_sc))
    if log_mag < -700.0:
        return 0.0
    return math.exp(log_mag)
