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
from .model import (InitialState, WBPotential, _assemble_boundary, _sincos, _vector,
                    _well_boundary, regular_boundary_sq)
# riccati_combos and riccati_pair_with_derivatives stay importable here only
# because perfbench's tracer hooks them by these names
from .specfun import (SQRT_PI, BesselOrder, _combos, riccati_combos,
                      riccati_large_x_combos, riccati_pair_with_derivatives)

# Orders this close to an integer nu degenerate the three-term
# threshold refinement (its reflection coefficients blow up).
_NU_INTEGER_CUT = 1.0e-6


@dataclass(frozen=True)
class ThresholdCoeffs:
    """Threshold behaviour of the Jost modulus and the density.

    jost_scale:     |f(k)| ~ jost_scale * k^{-beta} as k -> 0
    density_scale:  omega  ~ density_scale * k^{2 beta + 1}
    ratios: (a, b) of the three-term refinement omega ~ density_scale
        k^{2 nu} / (1 + a k^{2 nu} + b k^{4 nu}); None when nu is within
        _NU_INTEGER_CUT of an integer, where it degenerates.
    """

    beta: float
    jost_scale: float
    density_scale: float
    ratios: tuple[float, float] | None

    @property
    def nu(self) -> float:
        return self.beta + 0.5

    def series(self, n: int) -> tuple[float, ...]:
        """c_1 .. c_n of the refinement's expansion omega ~ sum_m c_m k^{2 m nu}:
        c_1 = density_scale at every nu, then c_m = -a c_{m-1} - b c_{m-2}."""
        if n > 1 and self.ratios is None:
            raise DomainError(
                f"threshold refinement degenerates for nu = {self.nu:g} (within "
                f"{_NU_INTEGER_CUT:g} of an integer); only the leading law is available")
        a, b = self.ratios or (0.0, 0.0)
        cs = [0.0, self.density_scale]
        while len(cs) <= n:
            cs.append(-a * cs[-1] - b * cs[-2])
        return tuple(cs[1:n + 1])


def _shifted_well(k_i, k_a: float, n_a: int):
    """(sin d, cos d, overlap) at the shifted well phase d = (k_I - k_a) r_a.

    With k_a r_a = n_a pi, sin(k_I r_a) = (-1)^n_a sin d, cos(k_I r_a) =
    (-1)^n_a cos d, and the mode-overlap factor sin(k_I r_a) / (k_a^2 -
    k_I^2) is (-1)^(n_a+1) r_a (sin d / d) / (k_a + k_I), which takes its
    limit r_a / (2 k_a) up to sign at d = 0.  The unshifted quotient
    would lose eps k_I r_a / |d| of relative accuracy near that point.
    r_a enters through k_a = n_a pi / r_a; the caller scales.  Works on
    real or complex arrays.
    """
    r_a = n_a * math.pi / k_a
    d = (k_i - k_a) * r_a
    sin_d, cos_d = _sincos(d)
    sinc_d = sin_d / d if d.all() else np.divide(sin_d, d, out=np.ones_like(d), where=d != 0.0)
    return sin_d, cos_d, sinc_d * (r_a if n_a % 2 else -r_a) / (k_a + k_i)


def _off_threshold(x, name: str):
    """x as a 1-d float or complex array, and whether it was a scalar.
    Raises unless x is finite, off the branch point 0 and, if real, positive."""
    arr, scalar = _vector(x, name)
    arr = arr.astype(complex if np.iscomplexobj(arr) else float, copy=False)
    if np.any(arr == 0 if np.iscomplexobj(arr) else arr <= 0.0):
        raise DomainError(f"{name} must be nonzero, and positive when real: "
                          "threshold and the continuation cut are excluded")
    return arr, scalar


def _c_sq(combos, k, w, u, du):
    """C^2(k) from the Riccati combinations at k r_d and (u, u'); w = k^2."""
    sum_sq, cross, sum_sq_deriv = combos
    return sum_sq_deriv * u * u + sum_sq * du * du / w - 2.0 * cross * u * du / k


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

    def omega(self, e):
        """Density at energy e: real e > 0, or complex continuation.

        Real input must be positive (the density vanishes with a
        branch-type law at threshold, and negative real energies sit on
        the continuation cut).  Complex input is evaluated with the
        principal momentum branch k = sqrt(E), which realizes the
        lower-half-sheet continuation used by the contour
        representation.
        """
        arr, scalar = _off_threshold(e, "energy")
        k = np.sqrt(arr)
        k_i = np.sqrt(arr + self.pot.v0)
        k_a = self.init.k_a
        sin_d, cos_d, overlap = _shifted_well(k_i, k_a, self.init.n_a)
        # (sin d / k_I, cos d) is (-1)^n_a times the well pair; C^2 is even in it
        u, du = _well_boundary(self.pot, arr, sin_d / k_i, cos_d)
        c_sq = _c_sq(_combos(self.order, k * self.pot.r_d), k, arr, u, du)
        out = (overlap * overlap * (2.0 * k_a ** 2 / (math.pi * self.pot.r_a))
               / (k_i * k_i * k) / c_sq)
        return (out[0] if scalar else out)

    def threshold_pade_omega(self, e):
        """Three-term threshold refinement of the density.

        Valid for |E| well below the potential scales; accepts the same
        real/complex input as `omega`.  Requires the non-degenerate
        refinement, which `ThresholdCoeffs.series` refuses at integer nu.
        """
        th = self.threshold
        th.series(2)  # refuses a degenerate refinement
        a, b = th.ratios
        arr, scalar = _off_threshold(e, "energy")
        knu2 = arr ** th.nu if not np.iscomplexobj(arr) else np.exp(th.nu * np.log(arr))
        out = th.density_scale * knu2 / (1.0 + a * knu2 + b * knu2 * knu2)
        return (out[0] if scalar else out)

    @cached_property
    def threshold(self) -> ThresholdCoeffs:
        """Threshold expansion coefficients from zero-energy boundary data.

        `WBPotential._zero_energy_boundary` gives u and u' at r_d, for the
        Jost scale and the refinement, and the well factor sin(k r_a) / k
        at k = sqrt(v0) (r_a at v0 = 0), for the density scale.  Raises a
        domain error when the leading coefficient degenerates
        (the decaying state then couples to the tail at higher order than
        this expansion covers).
        """
        pot, init = self.pot, self.init
        beta = pot.beta
        nu = beta + 0.5
        sinc_a, u0, du0 = pot._zero_energy_boundary()
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
        # the well factor sin(k_I0 r_a) / (k_I0 (k_a^2 - v0)) at k_I0 = sqrt(v0);
        # k_a^2 = v0 would put a node at r_a, which validation refuses
        g0 = sinc_a / (k_a * k_a - pot.v0)
        density_scale = (2.0 * k_a ** 2 / (math.pi * pot.r_a)) * g0 * g0 / jost_scale ** 2

        ratios = None
        if abs(nu - round(nu)) >= _NU_INTEGER_CUT:
            # the refinement's denominator is |1 + g e^{i nu pi} k^{2 nu}|^2
            g = ((0.5 * r_d) ** (2.0 * nu) * bracket_plus / bracket_minus
                 * math.gamma(1.0 - nu) / math.gamma(1.0 + nu))
            ratios = (2.0 * math.cos(nu * math.pi) * g, g * g)
        return ThresholdCoeffs(beta=beta, jost_scale=jost_scale,
                               density_scale=density_scale, ratios=ratios)


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
