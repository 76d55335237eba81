"""Well-barrier potential with an inverse-square exterior tail.

Geometry, in reduced units (hbar = 2m = 1, energy = k^2):

* inner well of depth v0 on 0 < r < r_a,
* flat barrier of height vb on r_a < r < r_d,
* tail beta(beta+1)/r^2 for r > r_d.

The regular radial solution u(k; r) (u(0) = 0, u'(0) = 1) has closed
piecewise-trigonometric forms inside r_d; `regular_boundary_sq`
evaluates its value and slope at the matching radius as analytic
functions of k^2, so complex momenta and the barrier-top crossing
k^2 = vb need no special casing by the caller.  Each region's pair
(cos(q L), sin(q L)/q) comes from one square root of q^2, and one
assembly of (u, u') serves this module and the density in `spectral`.

The private kernels take `out`, target arrays for their results and
intermediates in the order each names, as numpy's `out` does; a None
target is a new array.  The density passes rows of its work block.

The initial state is the lowest modes of the well region with an
infinite-wall cutoff at r_a: u_i(r) = sqrt(2/r_a) sin(n_a pi r / r_a)
for r <= r_a, zero outside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError


@dataclass(frozen=True)
class WBPotential:
    """Validated well-barrier-tail potential parameters.

    Construction rejects parameter sets that support a bound state,
    since the survival formalism assumes a purely continuous spectrum:
    the zero-energy regular solution must have no node on (0, inf).
    The nodes are counted exactly from the closed form of that solution
    in each region (see `_count_zero_energy_nodes`).
    """

    v0: float
    vb: float
    r_a: float
    r_d: float
    beta: float

    def __post_init__(self) -> None:
        for name in ("v0", "vb", "r_a", "r_d", "beta"):
            val = getattr(self, name)
            if not isinstance(val, (int, float)) or isinstance(val, bool) or not math.isfinite(val):
                raise ConfigError(f"{name} must be a finite real number, got {val!r}")
            object.__setattr__(self, name, float(val))
        if self.v0 < 0.0:
            raise ConfigError(f"well depth v0 must be >= 0, got {self.v0:g}")
        if self.vb < 0.0:
            raise ConfigError(f"barrier height vb must be >= 0, got {self.vb:g}")
        if not 0.0 < self.r_a < self.r_d:
            raise ConfigError(
                f"radii must satisfy 0 < r_a < r_d, got r_a = {self.r_a:g}, r_d = {self.r_d:g}")
        if self.beta <= -0.5:
            raise ConfigError(f"tail exponent beta must exceed -1/2, got {self.beta:g}")
        n_bound = self._count_zero_energy_nodes()
        if n_bound > 0:
            raise ConfigError(
                f"potential supports {n_bound} bound state(s); "
                "the survival formalism requires none")

    @property
    def r_b(self) -> float:
        """Barrier width r_d - r_a."""
        return self.r_d - self.r_a

    @property
    def tail_strength(self) -> float:
        """Coefficient beta(beta+1) of the 1/r^2 exterior."""
        return self.beta * (self.beta + 1.0)

    def v(self, r):
        """Potential profile; scalar or array radius, r > 0."""
        arr, scalar = _vector(r, "radius", float)
        if np.any(arr <= 0.0):
            raise DomainError("potential profile requires r > 0")
        out = np.where(arr < self.r_a, -self.v0, self.vb)
        tail = arr >= self.r_d
        out = np.where(tail, self.tail_strength / np.maximum(arr, 1e-300) ** 2, out)
        return float(out[0]) if scalar else out

    def _count_zero_energy_nodes(self) -> int:
        """Nodes of the zero-energy regular solution on (0, inf).

        By Sturm's oscillation theorem this is the number of bound
        states.  Region by region:

        * well, u = sin(k r)/k with k = sqrt(v0): ceil(k r_a/pi) - 1
          nodes inside (0, r_a);
        * barrier, u'' = vb u: a combination of exp(+-sqrt(vb) r) (or a
          line if vb = 0) has at most one zero, so there is a node in
          [r_a, r_d] exactly when u(r_a) u(r_d) <= 0;
        * exterior, u = A r^(beta+1) + B r^(-beta): at most one zero, at
          r0 = (-B/A)^(1/(2 beta+1)).  Since r^(2 beta+1) increases, r0
          lies beyond r_d exactly when u(r_d) and A differ in sign, and
          matching (u, u') at r_d gives
          sign(A) = sign(r_d u'(r_d) + beta u(r_d)).
        """
        k = math.sqrt(self.v0)
        if k > 0.0:
            nodes = math.ceil(k * self.r_a / math.pi) - 1
            u_a = math.sin(k * self.r_a) / k
        else:
            nodes, u_a = 0, self.r_a
        u, du = regular_boundary_sq(self, 0.0)
        if u_a * u <= 0.0:
            nodes += 1
        if u * (self.r_d * du + self.beta * u) < 0.0:
            nodes += 1
        return nodes


@dataclass(frozen=True)
class InitialState:
    """Sine mode confined to the well region, unit L2 norm."""

    r_a: float
    n_a: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.n_a, int) or isinstance(self.n_a, bool) or self.n_a < 1:
            raise ConfigError(f"mode index n_a must be a positive integer, got {self.n_a!r}")
        if not math.isfinite(self.r_a) or self.r_a <= 0.0:
            raise ConfigError(f"r_a must be positive and finite, got {self.r_a!r}")
        object.__setattr__(self, "r_a", float(self.r_a))

    @classmethod
    def from_potential(cls, pot: WBPotential, n_a: int = 1) -> "InitialState":
        return cls(r_a=pot.r_a, n_a=n_a)

    @property
    def k_a(self) -> float:
        """Interior wavenumber n_a pi / r_a of the mode."""
        return self.n_a * math.pi / self.r_a

    def wavefunction(self, r):
        """u_i(r); vanishes beyond r_a."""
        arr, scalar = _vector(r, "radius", float)
        amp = math.sqrt(2.0 / self.r_a)
        out = np.where(arr <= self.r_a, amp * _sincos(arr, self.k_a)[0], 0.0)
        return float(out[0]) if scalar else out


def _vector(x, name: str, dtype=None):
    """x as a 1-d array (of dtype, if given), and whether it was a scalar.
    Raises unless x holds one or more finite numbers; each caller checks
    its own domain and converts to its own dtype."""
    arr = np.asarray(x, dtype=dtype)
    if not (arr.size and np.issubdtype(arr.dtype, np.number) and np.isfinite(arr).all()):
        raise DomainError(f"{name} must be one or more finite numbers")
    return np.atleast_1d(arr), arr.ndim == 0


def _horner(coef, x, out=None):
    """sum_i coef[i] x^i, in out (not x): x coef[-1], then for each lower
    coefficient but the last, add it and multiply by x in place; coef[0]
    is added last.  coef[i] may be a scalar or an array like x."""
    acc = np.multiply(x, coef[-1], out=out)
    for c in coef[-2:0:-1]:
        acc += c
        acc *= x
    acc += coef[0]
    return acc


def _tan_half(x, scale=1.0, out=None):
    """tan(y/2) at real y = x scale (scale broadcasts), in out (may be x)."""
    u = np.multiply(x, np.multiply(scale, 0.5), out=out)   # exact: (x scale)/2
    return np.tan(u, out=u)


def _mul(a, b, out=None):
    """a * b in out; with no out the operator, whose scalar arithmetic can
    differ in the last bit from the array loop on complex scalars."""
    return a * b if out is None else np.multiply(a, b, out=out)


def _halves(row):
    """A complex row's memory as two rows of len(row) floats (a real row is
    its own first half); None gives Nones."""
    if row is None:
        return None, None
    flat = row.view(np.float64)
    return flat[:row.size], flat[row.size:]


def _head(out, m):
    """The first m entries of each target."""
    return [None if o is None else o[:m] for o in out]


def _sincos(x, scale=1.0, out=(None,) * 5):
    """(sin y, cos y) at y = x scale (scale broadcasts), real or complex.

    Real y: with u = tan(y/2), the one vectorized circular function on
    numpy 2.4 x86-64 (~3 ns against ~35 ns for sin or cos per element),
    sin y = 2u/(1+u^2) and cos y = (1-u^2)/(1+u^2), within 1.2 eps
    absolute (against mpmath, near multiples of pi/2 too) and sin within
    that relative for small |y|.  y = 0 gives exactly (0, 1), sin is odd
    and cos even, inf or nan gives nan.  A subnormal y loses its last
    bit to y/2: sin(5e-324) is 0.  Complex a + ib takes sin a cosh b +
    i cos a sinh b and cos a cosh b - i sin a sinh b.  out: sin, cos
    and three scratch (real x uses one); the first scratch may be x.
    """
    if np.iscomplexobj(x):
        x = np.multiply(x, scale, out=out[2])
        (a0, a1), (b0, b1) = _halves(out[3]), _halves(out[4])
        s, c = _sincos(x.real, out=(a0, b0, a1))
        ch, sh = np.cosh(x.imag, out=a1), np.sinh(x.imag, out=b1)
        re, im = _halves(x)                   # x is spent: its memory takes the products
        sin = np.multiply(1j, np.multiply(c, sh, out=im), out=out[0])
        sin += np.multiply(s, ch, out=re)
        cos = np.multiply(1j, np.multiply(s, sh, out=im), out=out[1])
        return sin, np.subtract(np.multiply(c, ch, out=re), cos, out=cos)
    u = _tan_half(x, scale, out[0])
    den = np.square(u, out=out[2])
    cos = np.subtract(1.0, den, out=out[1])
    den += 1.0
    cos /= den
    u += u
    u /= den
    return u, cos


def _trig_sqrt(z, length, out=(None,) * 6):
    """(cos(sqrt(z) L), sin(sqrt(z) L)/sqrt(z)), entire in z, from one square root.

    Negative real z gives (cosh, sinh/kappa), kappa = sqrt(-z).  A real
    call whose z are all >= 0 or all <= 0 takes one branch; a mixed-sign
    call runs both on sqrt(|z|) for every element and keeps the
    hyperbolic values where z < 0, so each kept element sees the same
    operations as on its own branch.  (The hyperbolic branch overflows
    only on long barriers at large z > 0, whose values it discards.)  The
    quotient is exact to rounding for z != 0; z = 0 takes the limit (1, L).
    out: the quotient, the cosine and four scratch.
    """
    if np.iscomplexobj(z) or z.min(initial=np.inf) >= 0.0:
        return _trig_pair(np.sqrt(z, out=out[5]), length, _sincos, out[:5])
    if z.max(initial=-np.inf) <= 0.0:
        s = np.sqrt(np.negative(z, out=out[5]), out=out[5])
        return _trig_pair(s, length, _sinh_cosh, out[:5])
    s = np.sqrt(np.abs(z, out=out[5]), out=out[5])
    cos, sinc = _trig_pair(s, length, _sincos, out[:3])
    with np.errstate(over="ignore"):
        cosh, sinh = _trig_pair(s, length, _sinh_cosh, (out[3], out[4], out[2]))
    neg = z < 0.0
    np.copyto(cos, cosh, where=neg)
    np.copyto(sinc, sinh, where=neg)
    return cos, sinc


def _sinh_cosh(x, out=(None,) * 2):
    return np.sinh(x, out=out[0]), np.cosh(x, out=out[1])


def _trig_pair(s, length, sin_cos, out=(None,) * 5):
    """(cos(s L), sin(s L)/s), limit L at s = 0; sin_cos is `_sincos` or
    `_sinh_cosh`, whose out this is (s L goes to out[2])."""
    sin, cos = sin_cos(np.multiply(s, length, out=out[2]), out=out)
    if s.all():
        sin /= s
    else:
        zero = s == 0.0
        np.divide(sin, s, out=sin, where=~zero)
        sin[zero] = length
    return cos, sin


def _well_boundary(pot: WBPotential, k_sq, sinc_a, cos_a, out=(None,) * 9):
    """(u, u') at r_d from k_sq and the well pair; see `_assemble_boundary`.
    out: k_sq - vb, then the targets of `_trig_sqrt`; u' is cos_a."""
    z_b = np.subtract(k_sq, pot.vb, out=out[0])    # minus the barrier's kappa^2
    cos_b, sinc_b = _trig_sqrt(z_b, pot.r_b, out[1:])
    return _assemble_boundary(sinc_a, cos_a, cos_b, sinc_b, z_b, out[3:])


def _assemble_boundary(sinc_a, cos_a, cos_b, sinc_b, z_b, out=(None,) * 2):
    """(u, u') at r_d from the well and barrier pairs.

    The well pair is (sin(k_I r_a)/k_I, cos(k_I r_a)), the barrier pair
    (cos(q r_b), sin(q r_b)/q) with q^2 = z_b = k^2 - vb, and u = sinc_a
    cos_b + cos_a sinc_b, u' = cos_a cos_b - z_b sinc_a sinc_b.  A factor
    common to either pair carries over to (u, u').  Works in place,
    overwriting sinc_a and cos_a; out: u and one scratch.
    """
    u = _mul(sinc_a, cos_b, out[0])
    u += _mul(cos_a, sinc_b, out[1])
    cos_a *= cos_b
    sinc_a *= sinc_b
    sinc_a *= z_b
    cos_a -= sinc_a
    return u, cos_a


def regular_boundary_sq(pot: WBPotential, k_sq):
    """(u, u') of the regular solution at r_d as functions of k^2.

    Vectorized over k_sq (real or complex array).  Both outputs are
    entire in k^2; all square roots appear only through even
    combinations, so no branch choice is involved.
    """
    w, scalar = _vector(k_sq, "k^2")
    cos_a, sinc_a = _trig_sqrt(w + pot.v0, pot.r_a)
    u, du = _well_boundary(pot, w, sinc_a, cos_a)
    return (u[0], du[0]) if scalar else (u, du)
