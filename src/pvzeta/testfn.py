"""Schwartz test functions with exact derivatives and closed-form transforms.

Built-in families are polynomial-times-Gaussian (closed under derivatives
and Fourier transforms) and compactly supported bumps (Fourier transform
by quadrature over the support, on the line only).  Every function
carries a decay descriptor so quadrature routines can truncate tails
honestly, and rays(directions), one 1D radial profile r -> phi(r d) of
every row d of a (rays, n) array, with exact derivatives of every order,
which the Mellin and extension routes consume as arrays (ray(d) for one).

Every pointwise evaluator of the package follows one contract, written
down in _evaluate: on the line a scalar gives a scalar and an array an
array of the same shape; in R^n the last axis holds the coordinates.

Three Fourier conventions are named explicitly and every transform call
takes one; there is no module default.  A convention is one number, the
scale w of its forward kernel e^{-i w m.xi} (_KERNEL_SCALE), from which
the closed Gaussian transforms and the numeric ones both follow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import quad
from .errors import ConfigError, DomainError
from .report import label_number, parse_spec


class FourierConvention(Enum):
    """Kernel / measure convention for the Fourier transform.

    TWOPI: forward kernel e^{-2 pi i m.xi}, measure dm (self-inverse up to
    reflection).  ANGULAR: forward kernel e^{-i m.xi}, inverse carries
    (2 pi)^{-n}.  ANGULAR_NORMALIZED: forward kernel e^{+i m.xi}, inverse
    kernel e^{-i m.xi} with measure (2 pi)^{-n} d xi.
    """

    TWOPI = "twopi"
    ANGULAR = "angular"
    ANGULAR_NORMALIZED = "angular-normalized"

    @classmethod
    def parse(cls, text):
        if isinstance(text, cls):
            return text
        key = str(text).strip().lower().replace("_", "-")
        for member in cls:
            if member.value == key:
                return member
        raise ConfigError(f"unknown Fourier convention: {text!r}")


@dataclass(frozen=True)
class Decay:
    """Tail bound descriptor: |phi(m)| <= C e^{-rate |m|^2} beyond shift,
    or phi = 0 outside |m - center| <= radius, or 'other' (scan to radius)."""

    kind: str  # gaussian | compact | other
    rate: float = 0.0
    radius: float = 0.0
    shift: float = 0.0  # a compact support's centre: signed on the line, its norm in R^n
    center: tuple = ()  # a compact support's centre, when known

    def cutoff(self, tol):
        """Radius beyond which the function is below tol (0 if unknown)."""
        if self.kind == "gaussian":
            big = max(-math.log(tol), 1.0)
            return self.shift + math.sqrt(big / self.rate) + 2.0 / math.sqrt(self.rate)
        if self.kind == "compact":
            return abs(self.shift) + self.radius
        return 0.0

    def angle(self):
        """Angle 2 asin(radius / |shift|) that a compact support off the
        origin subtends from it; 2 pi for any other support."""
        if self.kind == "compact" and abs(self.shift) > self.radius:
            return 2.0 * math.asin(self.radius / abs(self.shift))
        return 2.0 * math.pi


# ---------------------------------------------------------------------------
# 1D radial profiles


def _horner(c, x):
    """sum_k c[k] x^k by Horner's rule as numpy's polyval runs it, bit for
    bit, without polyval's argument checks."""
    acc = c[-1] + x * 0
    for k in range(len(c) - 2, -1, -1):
        acc = c[k] + acc * x
    return acc


class PolyGauss1D:
    """g(r) = (sum_k c_k r^k) e^{-a r^2}, closed under differentiation; a
    family of rays holds coefficients (degree, rays, 1) and rates (rays, 1)
    and gives (rays, nodes) at nodes (nodes,) or (rays, nodes)."""

    def __init__(self, coeffs, a):
        self.coeffs = np.atleast_1d(np.asarray(coeffs, dtype=complex))
        self.a = np.asarray(a, dtype=float)[()]
        # with zero imaginary parts, float64 steps give the complex steps' real parts exactly
        self._c = self.coeffs if np.any(self.coeffs.imag) else self.coeffs.real

    def __call__(self, r):
        # a scalar r is held as a numpy scalar: 0-d array arithmetic and
        # polyval's own checks cost four times the arithmetic
        r = np.asarray(r, dtype=float)[()]
        return (_horner(self._c, r) * np.exp(-self.a * r * r)).astype(complex)

    def derivative(self, k):
        c = self.coeffs
        a = self.a
        for _ in range(int(k)):
            d = np.zeros((len(c) + 1,) + c.shape[1:], dtype=complex)
            d[: len(c) - 1] += np.arange(1, len(c)).reshape((-1,) + (1,) * (c.ndim - 1)) * c[1:]
            d[1 : len(c) + 1] += -2.0 * a * c
            c = d
        return PolyGauss1D(c, a)

    def cutoff(self, tol):
        amp = np.sum(np.abs(self.coeffs), axis=0) + 1.0
        big = max(-math.log(tol), 1.0) + np.log(amp)
        r = np.sqrt(big / self.a) + 2.0 / np.sqrt(self.a)
        scale = np.maximum(np.abs(self.coeffs[0]), 1e-12)
        while True:
            grow = (np.abs(self(r)) > tol * scale) & (r < 1e6)
            if not np.any(grow):
                return r.ravel() if r.ndim else float(r)
            r = np.where(grow, r * 1.5, r)


class NumericProfile:
    """1D profile r -> fn(r, order), where fn(r, k) is the exact k-th
    derivative of a bump ray or of a numeric-transform ray."""

    def __init__(self, fn, decay, order, oscillation):
        self.fn = fn
        self.decay = decay
        self.order = int(order)
        self.oscillation = oscillation
        self._scan = None

    def __call__(self, r):
        return self.fn(np.asarray(r, dtype=float), self.order)

    def derivative(self, k):
        return NumericProfile(self.fn, self.decay, self.order + int(k), self.oscillation)

    def cutoff(self, tol):
        """The radius beyond which the profile is taken as zero.  A known
        decay gives its own cutoff.  Otherwise the profile is scanned once
        (the first scan serves every later tol) at r = 0.5 * 1.3^k against
        max(tol, 1e-13), since the scan cannot certify decay below the
        quadrature noise floor of the evaluator: the cut is the first of
        four consecutive samples below that fraction of the running peak,
        and the three after it certify the tail.  A scan that passes the
        decay's radius without such a streak returns its last sample, and
        the tail beyond it is not certified (cut_certified)."""
        if self.decay.kind != "other":
            return self.decay.cutoff(tol)
        if self._scan is None:
            tol = max(tol, 1e-13)
            r, peak, below, first = 0.5, 1e-300, 0, 0.0
            while r < self.decay.radius and below < 4:
                v = abs(complex(self(r)))
                peak = max(peak, v)
                below = below + 1 if v < tol * peak else 0
                if below == 1:
                    first = r
                r *= 1.3
            self._scan = (first, True) if below >= 4 else (r, False)
        return self._scan[0]

    def cut_certified(self, tol):
        """Whether the tail beyond cutoff(tol) is certified: always for a
        known decay, for a scan when it found its four samples."""
        self.cutoff(tol)
        return self._scan is None or self._scan[1]


# ---------------------------------------------------------------------------
# TestFunction


def _evaluate(fn, n, m):
    """The evaluation contract of every pointwise evaluator, in one place.

    fn takes points of shape (..., n) (last axis = coordinates) to values
    of shape (...); on the line a trailing axis of length 1 in its values
    is accepted too.  For n = 1, m holds points on the line: a scalar
    gives a scalar and an array an array of the same shape.  For n > 1 the
    last axis of m holds the coordinates."""
    m = np.asarray(m, dtype=float)
    if n > 1:
        return fn(m)
    return np.asarray(fn(m.reshape(-1, 1))).reshape(m.shape)[()]


class TestFunction:
    """A Schwartz-class function on R^n, evaluated under the contract of
    _evaluate.  ray(direction) returns the profile r -> phi(r * direction)
    (direction need not be normalized), rays(directions) one profile for
    the rows of a (rays, n) array, the rays on a leading axis (PolyGauss1D)."""

    def __init__(self, n, eval_fn, ray_fn, decay, label, fourier_fn=None, deriv_fn=None):
        self.n = int(n)
        self._eval = eval_fn
        self._ray = ray_fn
        self.decay = decay
        self.label = label
        self._fourier = fourier_fn
        self._deriv = deriv_fn

    def __call__(self, m):
        return _evaluate(self._eval, self.n, m)

    def ray(self, direction):
        return self.rays(np.atleast_1d(np.asarray(direction, dtype=float)))

    def rays(self, directions):
        directions = np.asarray(directions, dtype=float)
        if directions.ndim > 2 or directions.shape[-1:] != (self.n,):
            raise DomainError(f"ray direction must have length {self.n}")
        if not np.all(np.any(directions, axis=-1)):
            raise DomainError("ray direction must be nonzero")
        return self._ray(directions)

    def support_rays(self, order, rotated):
        """The nodes d and weights of quad.sphere_quadrature(n, order, rotated)
        whose rays {t d : t >= 0} meet the support, the one filter of the
        sphere rules: a compact support with a known centre drops each ray
        whose point nearest the centre lies outside the ball |m - center| < radius."""
        pts, wts = quad.sphere_quadrature(self.n, order, rotated)
        if self.decay.kind != "compact" or not self.decay.center:
            return pts, wts
        c = np.asarray(self.decay.center)
        along = (pts @ c) / np.sqrt(quad.sum_squares(pts))
        # the point of the ray nearest the centre: the origin, or the foot
        hit = float(c @ c) - np.where(along > 0.0, along * along, 0.0) < self.decay.radius * self.decay.radius
        return pts[hit], wts[hit]

    def derivative(self, alpha):
        """Exact partial derivative evaluator for the multi-index alpha
        (an int for n = 1), for the polynomial-Gaussian family; other
        functions raise DomainError (their ray profiles keep their own
        derivative)."""
        if isinstance(alpha, int):
            alpha = (alpha,)
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != self.n or any(a < 0 for a in alpha):
            raise DomainError(f"bad multi-index {alpha} for dimension {self.n}")
        if self._deriv is None:
            raise DomainError(f"multi-index derivatives need a polynomial-Gaussian test function, got {self.label}")
        return self._deriv(alpha)

    @property
    def has_closed_fourier(self):
        return self._fourier is not None

    def __repr__(self):
        return f"TestFunction({self.label})"


# ---------------------------------------------------------------------------
# Polynomial x Gaussian family


def _pg_eval(coeffs, a, n):
    # real coefficients give the same values in real arithmetic, at a
    # fraction of the cost of complex arithmetic
    real = all(complex(c).imag == 0.0 for c in coeffs.values())
    if real:
        coeffs = {beta: complex(c).real for beta, c in coeffs.items()}

    def ev(m):
        m = np.asarray(m, dtype=float)
        r2 = quad.sum_squares(m)
        # the sum starts at its first term and each monomial at its first
        # factor: 0 + c = c and 1 * x^b = x^b, the bits of zeros and ones
        out = None
        for beta, c in coeffs.items():
            mono = None
            for j, bj in enumerate(beta):
                if bj:
                    mono = m[..., j] ** bj if mono is None else mono * m[..., j] ** bj
            term = c if mono is None else c * mono
            out = term if out is None else out + term
        out = np.multiply(0.0 if out is None else out, np.exp(-a * r2))
        if not real and np.all(np.abs(out.imag) == 0.0):
            return out.real
        return out

    return ev


def _pg_diff(coeffs, a, axis):
    out = {}
    for beta, c in coeffs.items():
        if beta[axis] > 0:
            lo = tuple(b - (j == axis) for j, b in enumerate(beta))
            out[lo] = out.get(lo, 0.0) + beta[axis] * c
        hi = tuple(b + (j == axis) for j, b in enumerate(beta))
        out[hi] = out.get(hi, 0.0) - 2.0 * a * c
    return {b: c for b, c in out.items() if c != 0.0}


# the scale w of each convention's forward kernel e^{-i w m.xi}; every
# transform, closed or numeric, follows from it
_KERNEL_SCALE = {
    FourierConvention.TWOPI: 2.0 * math.pi,
    FourierConvention.ANGULAR: 1.0,
    FourierConvention.ANGULAR_NORMALIZED: -1.0,
}


def polygauss(coeffs, a, n, label=None):
    """P(m) e^{-a|m|^2} with P given as {multi-index: coefficient}."""
    if a <= 0:
        raise DomainError("gaussian rate must be positive")
    coeffs = {tuple(int(b) for b in beta): complex(c) for beta, c in coeffs.items()}
    for beta in coeffs:
        if len(beta) != n:
            raise DomainError("multi-index length must equal the dimension")
    label = label or f"polygauss:a={label_number(a)},n={n}"

    def ray_fn(directions):
        # the rays on a leading axis (rays, 1), or none for one direction
        lead = directions.shape[:-1] + (1,) * (directions.ndim - 1)
        a1 = a * (directions[..., None, :] @ directions[..., :, None]).reshape(lead)
        maxdeg = max((sum(b) for b in coeffs), default=0)
        c1 = np.zeros((maxdeg + 1,) + lead, dtype=complex)
        for beta, c in coeffs.items():
            mono = 1.0
            for j, bj in enumerate(beta):
                mono = mono * directions[..., j].reshape(lead) ** bj
            c1[sum(beta)] += c * mono
        return PolyGauss1D(c1, a1)

    def deriv(alpha):
        cur = coeffs
        for axis, k in enumerate(alpha):
            for _ in range(k):
                cur = _pg_diff(cur, a, axis)
        ev = _pg_eval(cur, a, n)
        return lambda m: _evaluate(ev, n, m)

    def fourier_fn(conv):
        # e^{-a|m|^2} goes to c0 e^{-b|xi|^2} with c0 = (pi/a)^{n/2} and
        # b = w^2/4a, and m_j to kappa d/dxi_j with kappa = i/w
        w = _KERNEL_SCALE[conv]
        c0 = (math.pi / a) ** (n / 2.0)
        b = w * w / (4.0 * a)
        kappa = 1j / w
        acc = {}
        for beta, c in coeffs.items():
            term = {tuple([0] * n): complex(c0)}
            for axis, k in enumerate(beta):
                for _ in range(k):
                    term = _pg_diff(term, b, axis)
            scale = c * kappa ** sum(beta)
            for g, v in term.items():
                acc[g] = acc.get(g, 0.0) + scale * v
        return polygauss(acc, b, n, label=f"ft[{conv.value}]({label})")

    out = TestFunction(
        n,
        _pg_eval(coeffs, a, n),
        ray_fn,
        Decay("gaussian", rate=a),
        label,
        fourier_fn=fourier_fn,
        deriv_fn=deriv,
    )
    out.polygauss = (coeffs, a)
    return out


def laplacian_power(phi, weights, N):
    """L^N phi for L = sum_i weights[i] d_i^2, exactly, as one
    polynomial-Gaussian TestFunction (weights = 1 / diag(B) gives the
    dual operator p*(d) of p(m) = m^T B m for diagonal B).  phi must be
    of the polynomial-Gaussian family."""
    if getattr(phi, "polygauss", None) is None:
        raise DomainError(f"L^N phi needs a polynomial-Gaussian test function, got {phi.label}")
    coeffs, a = phi.polygauss
    for _ in range(int(N)):
        acc = {}
        for axis, wt in enumerate(weights):
            for beta, c in _pg_diff(_pg_diff(coeffs, a, axis), a, axis).items():
                acc[beta] = acc.get(beta, 0.0) + wt * c
        coeffs = {beta: c for beta, c in acc.items() if c != 0.0}
    return polygauss(coeffs, a, phi.n, label=f"L^{int(N)}({phi.label})")


def gaussian(a, n=1):
    """phi(m) = e^{-a |m|^2}."""
    return polygauss({tuple([0] * n): 1.0}, a, n, label=f"gaussian:a={label_number(a)},n={n}")


def hermite_gaussian(d, a, n=1):
    """phi(m) = m_1^d e^{-a |m|^2} (monomial in the first coordinate)."""
    if d > 4:
        raise DomainError("polynomial degree capped at 4")
    beta = tuple([d] + [0] * (n - 1))
    return polygauss({beta: 1.0}, a, n, label=f"hermite:d={d},a={label_number(a)},n={n}")


# ---------------------------------------------------------------------------
# Bump

# Coefficients (increasing powers) of the polynomials P_j with
# F^(j)(q) = e^{-y} P_j(y) at y = 1/(1-q) for F(q) = e^{-1/(1-q)}:
# P_0 = 1 and P_{j+1} = y^2 (P_j' - P_j), since dy/dq = y^2.
_BUMP_POLYS = [np.ones(1)]


def _bump_ray_derivative(q, dq, half_d2q, k):
    """d^k/dr^k F(q(r)) for F(q) = e^{-1/(1-q)} on q < 1 (0 elsewhere), from
    q and q' = dq at the points and q''/2 = half_d2q (constant along a
    ray) of a quadratic q, by Faa di Bruno's formula: the sum over k/2 <= j <= k of
    k! / ((2j-k)! (k-j)!) q'^(2j-k) (q''/2)^(k-j) F^(j)(q)."""
    while len(_BUMP_POLYS) <= k:
        p = _BUMP_POLYS[-1]
        _BUMP_POLYS.append(np.concatenate([[0.0, 0.0], np.polynomial.polynomial.polysub(np.polynomial.polynomial.polyder(p), p)]))
    out = np.zeros(q.shape)
    # e^{-y} is 0.0 in double precision past y = 745, where y^(2k) may overflow
    live = 1.0 - q > 1.0 / 745.0
    y, dq = 1.0 / (1.0 - q[live]), dq[live]
    # coef (q''/2)^(k-j) is taken per ray and repeated over the ray's live points,
    # which lie together in row-major order; at j = k it is 1.0, and x * 1.0 = x
    half_d2q = np.asarray(half_d2q)
    per_ray = np.count_nonzero(live.reshape(half_d2q.size, -1), axis=1) if k > 1 else None
    acc = 0.0
    for j in range((k + 1) // 2, k + 1):
        term = dq ** (2 * j - k)
        if j < k:
            coef = math.factorial(k) // (math.factorial(2 * j - k) * math.factorial(k - j))
            term = np.repeat((coef * half_d2q ** (k - j)).ravel(), per_ray) * term
        acc = acc + term * _horner(_BUMP_POLYS[j], y)
    out[live] = np.exp(-y) * acc
    return out


def bump(center=0.0, radius=1.0, n=1):
    """Scaled e^{-1/(1-u^2)} profile supported on |m - center| <= radius."""
    if radius <= 0:
        raise DomainError("bump radius must be positive")
    c = np.zeros(n) + np.asarray(center, dtype=float)
    # the centre as parse_testfn reads it: a scalar, or coordinates joined by |
    ctext = "|".join(label_number(v) for v in np.atleast_1d(np.asarray(center, dtype=float)))
    label = f"bump:c={ctext},r={label_number(radius)},n={n}"

    def ev(m):
        m = np.asarray(m, dtype=float)
        u2 = quad.sum_squares(m - c) / radius ** 2
        out = np.zeros(u2.shape)
        inside = u2 < 1.0
        with np.errstate(divide="ignore", over="ignore"):
            out[inside] = np.exp(-1.0 / (1.0 - u2[inside]))
        return out

    decay = Decay("compact", radius=radius, shift=float(c[0]) if n == 1 else float(np.linalg.norm(c)), center=tuple(c))

    def ray_fn(directions):
        # q(r) = |r d - c|^2 / radius^2 = x^2 + h2, x = sa r - off, with sa = |d|,
        # off = c.d / |d| and h2 = |c|^2 - off^2 in units of radius, per ray
        lead = directions.shape[:-1] + (1,) * (directions.ndim - 1)
        d = directions.reshape(lead + (n,))
        sa = np.sqrt(d[..., None, :] @ d[..., :, None])[..., 0, 0] / radius
        off = (d[..., None, :] @ c)[..., 0] / (radius * radius * sa)
        h2 = np.maximum(float(c @ c) / radius ** 2 - off * off, 0.0)
        # the ray ends at the support's far edge x = sqrt(1 - h2), an endpoint
        # of the radial rules; a ray that misses the support keeps cut > 0
        edge = np.where(h2 < 1.0, (off + np.sqrt(np.maximum(1.0 - h2, 0.0))) / sa, 0.0)
        cut = np.where(edge > 0.0, edge, 1.0 / sa)

        def fn(r, k):
            if k == 0:
                return ev(r[..., None] * d)
            x = sa * r - off
            return _bump_ray_derivative(x * x + h2, 2.0 * sa * x, sa * sa, k)

        return NumericProfile(fn, Decay("compact", radius=cut.ravel() if cut.ndim else float(cut)), 0, None)

    return TestFunction(n, ev, ray_fn, decay, label)


# ---------------------------------------------------------------------------
# Fourier transform (closed form when available, quadrature otherwise)


def fourier(phi, convention):
    """Fourier transform of phi under the named convention.

    Returns a TestFunction: the closed form for the polynomial-Gaussian
    family, otherwise (n = 1 only) the quadrature-backed evaluator of
    _numeric_fourier.
    """
    convention = FourierConvention.parse(convention)
    if phi.has_closed_fourier:
        return phi._fourier(convention)
    return _numeric_fourier(phi, convention)


# the most entries the store of one numeric transform keeps: the nodes of
# its panel tables and the frequencies of its panel sums
_FT_CACHE = 1 << 22


def _cos_sin(theta):
    """cos and sin of theta from t = tan(theta / 2), as (1 - t^2) /
    (1 + t^2) and 2 t / (1 + t^2), within 2e-16 of both: numpy's float64
    tan is vectorized where its cos and sin are not (on an AVX-512 x86-64
    host, 15 ms per 2^20 entries against 61 ms)."""
    t = np.tan(0.5 * theta)
    tt = t * t
    inv = 1.0 / (1.0 + tt)
    return (1.0 - tt) * inv, 2.0 * t * inv


def _panel_sums(aw, width, table):
    """The sums of v(m) e^{-i a m} over the nodes m of a composite
    Gauss-Legendre rule on a support of the given width, for each angular
    frequency a >= 0 of the 1D array aw, each on the rule of its own
    panel count (see _numeric_fourier).  table(count) gives the weighted
    values v of the count-panel rule as (count, PANEL_ORDER), its panel
    mids and the node offsets from a mid."""
    # floor(a width / 10) + 32 panels, rounded up to a multiple of 16
    npanel = -(-((aw * width / 10.0).astype(int) + 32) // 16) * 16
    out = np.empty(aw.shape, dtype=complex)
    counts, group = np.unique(npanel, return_inverse=True)
    for g, count in enumerate(counts):
        idx = np.flatnonzero(group == g)
        wv, mids, offs = table(int(count))
        rows = max(1, quad.BLOCK // mids.size)
        for lo in range(0, idx.size, rows):
            sel = idx[lo : lo + rows]
            # the panel sums of v e^{-i a mid_p} are dc - i ds, taken in
            # real arithmetic (a third of the complex cost)
            pc, ps = _cos_sin(aw[sel, None] * mids)
            dc, ds = np.einsum("ip,pj->ij", pc, wv), np.einsum("ip,pj->ij", ps, wv)
            lc, ls = _cos_sin(aw[sel, None] * offs)
            out[sel] = np.sum(dc * lc - ds * ls, axis=-1) - 1j * np.sum(dc * ls + ds * lc, axis=-1)
    return out


def _numeric_fourier(phi, conv):
    """Transform of a compactly supported (real) phi on the line.

    At the angular frequency w = scale * xi of the convention, the k-th
    derivative (-i scale)^k integral m^k phi(m) e^{-i w m} dm over the
    support [c - rho, c + rho] (its edges are panel ends) runs on
    composite Gauss-Legendre with floor(|w| 2 rho / 10) + 32 panels,
    rounded up to a multiple of 16: a count tied to the total phase, with
    a floor of 32 panels for the essential singularities of a bump at the
    support edges (against adaptive QUADPACK the rule is then within
    3e-16 of a bump's transform at every |w| <= 380 tested).  The counts
    form a ladder, so the frequencies of one call share few panel tables
    (about 20 on the finest body of an Eq12 ray, against 341 distinct
    counts without the rounding), yet each frequency keeps a rule of its
    own.  A ray r -> F(r d) has the derivatives d^k F^(k)(r d).

    Every node is m = mid_p + h x_j on panel p, with the panel half-width
    h and the Gauss-Legendre nodes x_j, so the phase factors as
    e^{-i w mid_p} e^{-i w h x_j}: one phase per (frequency, panel) and
    one per (frequency, local node), contracted over the panels by einsum
    (_panel_sums).  Each call transforms all its frequencies together:
    those sharing a panel count share one evaluation of phi, and their
    panel phases are taken in blocks of at most quad.BLOCK entries.
    Every frequency is summed on its own row (einsum does not hand the
    contraction to BLAS, whose results depend on the number of rows), so
    its value does not depend on the other frequencies of the call.

    The sums run at |w|: phi is real and every step of _panel_sums is odd
    in w, so the sums at -w are the conjugates of those at |w|, bit for
    bit.  The transform keeps a store, bounded by _FT_CACHE entries, of
    the panel tables per (count, k) and of the sums, before the factor
    (-i scale)^k, per (k, |w| array): the ray -d of a Mellin transform
    asks for the nodes of the ray d and costs one conjugation."""
    if phi.n != 1:
        raise DomainError(f"numeric Fourier transforms are implemented on the line only, got n = {phi.n}")
    if phi.decay.kind != "compact":
        raise DomainError("numeric transform needs a compact support")
    scale = _KERNEL_SCALE[conv]
    label = f"ft[{conv.value}]({phi.label})"
    m_lo, m_hi = phi.decay.shift - phi.decay.radius, phi.decay.shift + phi.decay.radius
    store, stored = {}, 0

    def kept(key, size, build):
        nonlocal stored
        if key not in store:
            if stored > _FT_CACHE:
                store.clear()
                stored = 0
            store[key] = build()
            stored += size
        return store[key]

    def table(count, k):
        # the weighted values w phi(m) m^k as (count, PANEL_ORDER), the
        # panel mids and the node offsets h x_j from a mid
        def build():
            x, wx = quad.gauss_legendre(quad.PANEL_ORDER)
            half = 0.5 * (m_hi - m_lo) / count
            mids = np.linspace(m_lo + half, m_hi - half, count)
            nodes = mids[:, None] + half * x
            return half * wx * np.asarray(phi(nodes)) * nodes ** k, mids, half * x

        return kept((count, k), count * quad.PANEL_ORDER, build)

    def transform(xi, k):
        xi = np.asarray(xi, dtype=float)
        w = scale * xi.ravel()
        aw = np.abs(w)
        sums = kept((k, aw.tobytes()), aw.size, lambda: _panel_sums(aw, m_hi - m_lo, lambda count: table(count, k)))
        out = np.where(w < 0.0, sums.conj(), sums)
        if k:
            out = out * (-1j * scale) ** k
        if np.all(out.imag == 0.0):
            out = out.real
        return out.reshape(xi.shape)[()]

    # The transform of a function supported in |m| <= cut oscillates in xi
    # no faster than |scale| * cut radians per unit, hence this wavelength.
    wavelength = 2.0 * math.pi / (abs(scale) * phi.decay.cutoff(1e-18))
    # Its modulus spreads as 1 / (|scale| radius) wherever the support sits: a
    # tail scan stops at 4096 such widths (r = 4096 for the unit bump, TWOPI).
    reach = 4096.0 * 2.0 * math.pi / (abs(scale) * phi.decay.radius)

    def ray_fn(direction):
        if direction.ndim != 1:  # each ray oscillates at its own wavelength
            raise DomainError(f"the rays of {label} oscillate: take them one at a time (ray)")
        d = float(direction[0])
        return NumericProfile(lambda r, k: d ** k * transform(r * d, k), Decay("other", radius=reach / abs(d)), 0, wavelength / abs(d))

    return TestFunction(1, lambda m: transform(m[..., 0], 0), ray_fn, Decay("other"), label)


# ---------------------------------------------------------------------------
# CLI spec parsing


_TESTFN_KEYS = {"gaussian": ("a", "n"), "hermite": ("d", "a", "n"), "bump": ("c", "r", "n")}


def parse_testfn(spec):
    """Build a TestFunction from a string like 'gaussian:a=3.14159,n=1'
    (report.parse_spec), such as the label of a Gaussian, Hermite or bump."""
    name, kw = parse_spec(spec, _TESTFN_KEYS, "test-function family")
    try:
        if name == "gaussian":
            return gaussian(float(kw.get("a", math.pi)), int(kw.get("n", 1)))
        if name == "hermite":
            return hermite_gaussian(int(kw.get("d", 2)), float(kw.get("a", math.pi)), int(kw.get("n", 1)))
        center = [float(v) for v in kw.get("c", "0").split("|")]
        return bump(center[0] if len(center) == 1 else center, float(kw.get("r", 1.0)), int(kw.get("n", 1)))
    except (ValueError, DomainError) as exc:
        raise ConfigError(f"invalid test-function spec {spec!r}: {exc}") from exc
