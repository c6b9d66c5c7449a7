"""Homogeneous distributions on R and on R^n minus the origin.

t_+^s is t^s on t > 0 and 0 elsewhere, continued meromorphically in s by
integration by parts; at the poles s = -k it is replaced by the
log-regularized finite part

    <t_+^{-k}, phi> = -1/(k-1)! integral_0^inf log(t) phi^{(k)}(t) dt
                      + H_{k-1} phi^{(k-1)}(0) / (k-1)!

with H_{k-1} the (k-1)-th harmonic number.  R_s phi(m) = t_+^{s+n-1}
applied to the ray profile t -> phi(t m); at the critical degree s = -n
it is invariant under scaling of m, which is what makes the extension of
a degree -n homogeneous density k across the origin well defined up to
delta terms:

    kdot(phi) = <k, psi * R_{-n} phi>

for any radial cutoff psi(m) = eta(|m|) with logarithmic mass
integral_0^inf eta(t) dt/t = 1.  Since R_{-n} phi(t omega) = A(omega) -
log(t) phi(0) with A(omega) = R_{-n} phi(omega), it is the closed log-moment

    kdot(phi) = integral_S k(omega) [A(omega) - c_1(psi) phi(0)] d omega,

c_1(psi) = integral_0^inf eta(t) log(t) dt/t the log-mean of the cutoff,
and two cutoffs differ by (c_1(psi_2) - c_1(psi_1)) phi(0) integral_S k.
extend_kdot, the fast route, computes the inner rows A(omega) of a family
of rays at once, one per distinct ray.  pointwise_kdot, the reference of
homog-ambiguity, is the definition without the scaling law: psi and an
inner row enter at each node of a double-exponential outer rule.
homog-extension-restricts compares extend_kdot with direct_pair, one
adaptive subdivision for the rays of the rotated sphere rule.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import quad, special, testfn, zeta
from .errors import AccuracyError, DomainError
from .report import CheckReport, worst


# ---------------------------------------------------------------------------
# 1D profiles with exact derivatives used by the known-constant oracles


class ExpProfile:
    """g(t) = c e^{-a t}, closed under differentiation (the smooth
    extension of e^{-t} used by the Euler-Mascheroni oracle)."""

    def __init__(self, a, c=1.0):
        if a <= 0:
            raise DomainError("decay rate must be positive")
        self.a = float(a)
        self.c = complex(c)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = self.c * np.exp(-self.a * t)
        return out.real if self.c.imag == 0.0 else out

    def derivative(self, k):
        return ExpProfile(self.a, self.c * (-self.a) ** int(k))

    def cutoff(self, tol):
        amp = abs(self.c) + 1.0
        return (max(-math.log(tol), 1.0) + math.log(amp)) / self.a + 2.0


class ScaledProfile:
    """lam^{-1} g(t / lam) for a profile g, closed under differentiation."""

    def __init__(self, base, lam, order=0):
        if lam <= 0:
            raise DomainError("scale must be positive")
        self.base = base
        self.lam = float(lam)
        self.order = int(order)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        g = self.base if self.order == 0 else self.base.derivative(self.order)
        return np.asarray(g(t / self.lam)) / self.lam ** (self.order + 1)

    def derivative(self, k):
        return ScaledProfile(self.base, self.lam, self.order + int(k))

    def cutoff(self, tol):
        return self.base.cutoff(tol) * self.lam


# ---------------------------------------------------------------------------
# t_+^s


def tplus_profile(s, profile, tol=1e-11):
    """<t_+^s, g> for a 1D profile g, and at a pole s = -k for each ray
    of a family g."""
    s = complex(s)
    if s.imag == 0.0 and s.real <= -1.0 + 1e-14 and s.real == round(s.real):
        k = -int(round(s.real))
        gk = profile.derivative(k)
        gk1 = profile.derivative(k - 1) if k > 1 else profile
        # t = u^2 softens the log: log(t) dt = 4 u log(u) du
        res = quad.integrate_1d(lambda u: 4.0 * u * np.log(u) * gk(u * u), 0.0, math.sqrt(np.max(profile.cutoff(1e-18))), tol=tol)
        fact = math.factorial(k - 1)
        value = -res.value / fact + special.harmonic(k - 1) * np.asarray(gk1(np.zeros(1)))[..., 0] / fact
        return value.real if np.all(np.imag(value) == 0.0) else value
    mv = zeta.mellin_profile(profile, s, tol=tol)
    return complex(mv.value) if isinstance(mv.value, complex) else mv.value


# ---------------------------------------------------------------------------
# Homogeneous functionals and radial cutoffs


class HomogFunctional:
    """A distribution on R^n minus the origin, homogeneous of a stated
    degree and given by a pointwise density, paired by quadrature away
    from 0.  The density takes points of shape (..., n) to values of
    shape (...); for n = 1 a trailing axis of length 1 in the values is
    accepted.  Calling the functional evaluates the density under the
    contract of testfn._evaluate (on the line a scalar gives a scalar and
    an array an array of the same shape), and is the only place that
    shapes the density's values."""

    def __init__(self, degree, density, n, label):
        self.degree = complex(degree)
        self.density = density
        self.n = int(n)
        self.label = label

    def __call__(self, m):
        return testfn._evaluate(self.density, self.n, m)

    def direct_pair(self, phi, order):
        """Direct integral of density * phi over the ball |m| <= the support
        bound of phi (phi must vanish near 0 for this to be the honest
        pairing at the critical degree), adaptive (tol 1e-11) on one subdivision
        for the rays of the rotated sphere rule of extend_kdot's angular order
        that meet the support of phi."""
        n = self.n
        outer = phi.decay.cutoff(1e-16)
        if not np.isfinite(outer) or outer <= 0.0:
            raise DomainError("direct pairing needs a finite support bound")
        pts, wts = phi.support_rays(order, True)

        def integrand(t):
            # (rays, nodes) points on the line, (rays, nodes, n) off it
            m = np.multiply.outer(pts[:, 0], t) if n == 1 else pts[:, None, :] * t[:, None]
            return self(m) * np.asarray(phi(m)) * t ** (n - 1)

        total = complex(np.sum(wts * quad.integrate_1d(integrand, 0.0, outer, tol=1e-11).value))
        return total.real if total.imag == 0.0 else total

    def sphere_integral(self):
        """integral_S k, its order set by quad.angular_doubling at tol 1e-10."""

        def run(order):
            pts, wts = quad.sphere_quadrature(self.n, order, False)
            terms = wts * _at(self, pts)
            return complex(np.sum(terms)), float(np.sum(np.abs(terms)))

        return quad.angular_doubling((self.n,), run, 2.0 * math.pi, 1e-10)[0][0]


def homog_density(degree, density, n=1, label="k"):
    """HomogFunctional from a pointwise density on R^n minus the origin."""
    return HomogFunctional(degree, density, n=n, label=label)


class RadialCutoff:
    """psi(m) = eta(|m|) with eta smooth, supported in [a, b], and
    normalized so integral_0^inf eta(t) dt/t = 1."""

    def __init__(self, a, b, norm):
        self.a = float(a)
        self.b = float(b)
        self.norm = float(norm)
        self._log_mean = None

    def eta(self, t):
        u = (np.asarray(t, dtype=float) - 0.5 * (self.a + self.b)) / (0.5 * (self.b - self.a))
        with np.errstate(divide="ignore", over="ignore"):
            return self.norm * np.where(np.abs(u) < 1.0, np.exp(-1.0 / (1.0 - u * u)), 0.0)

    def _log_moment(self, power):
        """integral_0^inf eta(t) log(t)^power dt/t, adaptive at tol 1e-12,
        where the rule already stops on its roundoff floor."""
        res = quad.integrate_1d(lambda t: self.eta(t) * np.log(t) ** power / t, self.a, self.b, tol=1e-12)
        return float(np.real(complex(res.value)))

    def log_mass(self):
        return self._log_moment(0)

    def log_mean(self):
        """c_1 = integral_0^inf eta(t) log(t) dt/t; two cutoffs of unit log mass
        give extensions that differ by (c_1(psi_2) - c_1(psi_1)) phi(0) integral_S k.
        Computed once per cutoff."""
        if self._log_mean is None:
            self._log_mean = self._log_moment(1)
        return self._log_mean


@functools.cache
def make_cutoff(a, b):
    """Bump profile on [a, b] rescaled to unit logarithmic mass, built once
    per (a, b): a cutoff is a pure function of its ends."""
    if not (0.0 < a < b):
        raise DomainError("cutoff needs 0 < a < b")
    return RadialCutoff(a, b, 1.0 / RadialCutoff(a, b, 1.0).log_mass())


# ---------------------------------------------------------------------------
# R_s and the extension of degree -n densities


# Coarse panel counts of the inner rule in u = sqrt(tau); each fine rule
# doubles them.  128 fine panels left bumps of radius about 1 up to 6e-14
# off direct_pair and a Gaussian in the plane 1.3e-14 off its closed value.
_INNER_PANELS = (128, 256)
# Coarse step (the fine rule halves it) and edge |x| <= _DE_EDGE of the
# outer rule of pointwise_kdot; at the edge eta is below 1e-19 of its peak.
_DE_STEP, _DE_EDGE = 0.2, 2.6
# phi' points evaluated and contracted at once by _inner_rows (quad.BLOCK / 8,
# 8192).  One block for the whole t x tau grid falls out of cache: 53 x 4096
# points took about 3x as long per call.  The partition is part of the bits:
# BLAS rounds a row of a (1, N) complex product apart from the same row
# inside a (2, N) block, so a new block size moves rows.
_BLOCK_POINTS = quad.BLOCK // 8


def _inner_rows(phi, pts, t, cut, npanel):
    """R_{-n} phi(t omega) = -integral_0^cut log(tau) d/dtau phi(tau t omega) dtau,
    (rays, t), for the rays omega of phi through the rows of pts, one cut
    each, on one composite Gauss-Legendre rule in u = sqrt(tau) (the
    softening map of tplus_profile).  The part t g'(0) of the integrand
    (g the ray profile), which panels resolve only at second order, is
    integrated exactly: t g'(0) cut (1 - log cut).

    One row is computed per distinct ray: polynomial-Gaussian rays of the
    same exact coefficient bytes, rate and cut (the rays +-1 of an even
    phi) give the same row, bit for bit, and share it (one np.unique);
    bump rays never share.  The rule and g'(0) are taken once for all
    distinct rays; the rays go in groups so that a group's t block holds
    at most _BLOCK_POINTS points (one ray at a time once a block of t is
    that large), and each ray contracts its own slice."""
    cut = np.asarray(cut, dtype=float)
    if not np.all(np.isfinite(cut) & (cut > 0.0)):
        raise DomainError("fixed-rule extension needs a finite cutoff of the ray profile")
    dprof = phi.rays(pts).derivative(1)
    first = inverse = np.arange(cut.size)
    if isinstance(dprof, testfn.PolyGauss1D):
        keys = np.hstack([np.ascontiguousarray(dprof.coeffs[..., 0].T).view(float), dprof.a, cut[:, None]])
        keys = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1])))[:, 0]
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    cut = cut[first]
    u, w = quad.panel_rule(0.0, np.sqrt(cut), npanel)
    # -log(tau) dtau = -4 u log(u) du, cast once to the type of the values g'
    g0 = np.asarray(dprof(np.zeros((pts.shape[0], 1))))[first, 0]
    c = (-4.0 * w * u * np.log(u)).astype(g0.dtype)
    fix = (g0 * (cut * (1.0 - np.log(cut)) - c.sum(axis=-1)))[:, None]
    c, tau = c[:, :, None], (u * u)[:, None, :]
    block = max(1, _BLOCK_POINTS // tau.shape[-1])
    step = max(1, _BLOCK_POINTS // (min(len(t), block) * tau.shape[-1]))
    rows = []
    for i in range(0, first.size, step):
        group = phi.rays(pts[first[i : i + step]]).derivative(1)
        blocks = []
        for j in range(0, len(t), block):
            # d/dtau phi(tau t omega) = t g'(t tau); each ray contracts its own slice
            r = t[j : j + block, None] * tau[i : i + step]
            v = np.asarray(group(r.reshape(r.shape[0], -1))).reshape(r.shape)
            blocks.append((v @ c[i : i + step])[..., 0])
        rows.append(np.concatenate(blocks, axis=-1))
    return (t * (np.concatenate(rows) + fix))[inverse]


def _at(k, pts):
    """k at the points pts of shape (N, n), as points on the line when n = 1."""
    return np.asarray(k(pts[:, 0] if k.n == 1 else pts), dtype=complex)


def _extension(k, phi, what, terms):
    """The driver of both routes at tol = 1e-10.  terms(pts, wts, p, fine)
    takes the rays of one order of the plain sphere rule that meet the
    support of phi and returns the terms of the coarse (p inner panels) or
    fine sum, and what the caller keeps of it.  p climbs _INNER_PANELS
    until the two sums agree within tol of the fine L1 mass (AccuracyError
    past the last); the order doubles under quad.angular_doubling."""
    n, tol = k.n, 1e-10
    if k.degree != -n:
        raise DomainError(f"the extension is defined at the critical degree -n = {-n}, not {k.degree}")
    if phi.n != n:
        raise DomainError("test function dimension does not match the density")

    def run(order):
        pts, wts = phi.support_rays(order, False)
        for p in _INNER_PANELS:
            coarse = complex(np.sum(terms(pts, wts, p, False)[0]))
            fine, kept = terms(pts, wts, p, True)
            value, mass = complex(np.sum(fine)), float(np.sum(np.abs(fine)))
            gap = abs(value - coarse)
            if gap <= tol * mass:
                return value, mass, gap, p, kept
        raise AccuracyError(
            f"{what} unresolved: {2 * p} and {p} inner panels differ by {gap:.2e} on an L1 mass of {mass:.2e}"
        )

    (value, _, gap, p, kept), angular_gap, order = quad.angular_doubling((n,), run, phi.decay.angle(), tol)
    rule = {"coarse_fine_gap": gap, "inner_nodes": 2 * p * quad.PANEL_ORDER, "angular_order": order, "angular_gap": angular_gap}
    return (value.real if value.imag == 0.0 else value), rule, kept


def extend_kdot(k, psi, phi):
    """kdot(phi) = <k, psi * R_{-n} phi>, the extension of a degree -n
    density across the origin, by the closed log-moment with one inner row
    A(omega) per ray (_inner_rows) and c_1 = psi.log_mean().  Returns (value,
    rule), rule holding the coarse-fine gap, the fine inner node count and
    the angular order and gap (_extension).  On each ray of the last order
    A(omega) must match the adaptive tplus_profile within tol of the
    largest |A|, or AccuracyError is raised."""
    tol = 1e-10
    shift = psi.log_mean() * complex(phi(np.zeros(phi.n) if phi.n > 1 else 0.0))

    def terms(pts, wts, p, fine):
        a = _inner_rows(phi, pts, np.ones(1), phi.rays(pts).cutoff(1e-18), 2 * p if fine else p)[:, 0]
        return wts * _at(k, pts) * (a - shift), (pts, a)

    value, rule, (pts, a) = _extension(k, phi, "fixed-rule extension", terms)
    # R_{-n} phi = t_+^{-1} on the rays, adaptive, all rays on one subdivision
    ref = tplus_profile(-1.0, phi.rays(pts), tol=tol)
    off = np.flatnonzero(np.abs(ref - a) > tol * float(np.max(np.abs(a), initial=0.0)))
    if off.size:
        raise AccuracyError(f"fixed-rule R_{{-n}} phi at m = {pts[off[0]].tolist()} is {complex(a[off[0]]):.15g}, "
                            f"adaptive gives {complex(ref[off[0]]):.15g}")
    return value, rule


def pointwise_kdot(k, psi, phi):
    """kdot(phi) = <k, psi * R_{-n} phi> by its definition, without the
    scaling law: psi and k enter at each node t omega of a trapezoid rule
    in x, t = mid + half tanh(x), where eta = norm exp(-cosh(x)^2) decays
    double exponentially (Takahashi & Mori, Publ. RIMS 9 (1974)), and each
    node gets its own inner row.  Returns (value, rule), rule as
    extend_kdot's with the fine outer node count added."""
    mid, half = 0.5 * (psi.a + psi.b), 0.5 * (psi.b - psi.a)

    def terms(pts, wts, p, fine):
        h, npanel = (0.5 * _DE_STEP, 2 * p) if fine else (_DE_STEP, p)
        x = h * np.arange(-round(_DE_EDGE / h), round(_DE_EDGE / h) + 1)
        t = mid + half * np.tanh(x)
        # dt = half sech(x)^2 dx, and m = t omega has the measure t^{n-1} dt d omega
        outer = h * half / np.cosh(x) ** 2 * psi.eta(t) * t ** (k.n - 1)
        # the inner range of a ray serves every outer node of it
        cut = np.maximum(phi.rays(psi.a * pts).cutoff(1e-18), phi.rays(psi.b * pts).cutoff(1e-18))
        rows = _inner_rows(phi, pts, t, cut, npanel)
        dens = _at(k, (t[:, None] * pts[:, None, :]).reshape(-1, k.n)).reshape(rows.shape)
        return (wts[:, None] * outer * dens * rows).ravel(), len(t)

    value, rule, nodes = _extension(k, phi, "pointwise extension", terms)
    return value, {**rule, "outer_nodes": nodes}


# ---------------------------------------------------------------------------
# Packaged checks (CLI surface)


def check_homogeneity(s, phi, lam, tol=1e-8):
    """<t_+^s, lam^{-1} phi(./lam)> vs lam^s <t_+^s, phi> for phi on the line."""
    if phi.n != 1:
        raise DomainError("t_+^s pairs against functions on R")
    prof = phi.ray([1.0])
    lhs = tplus_profile(s, ScaledProfile(prof, lam))
    rhs = complex(lam) ** complex(s) * complex(tplus_profile(s, prof))
    return CheckReport(
        check="homog-homogeneity",
        params={"s": complex(s), "lambda": float(lam), "testfn": phi.label},
        lhs=complex(lhs),
        rhs=rhs,
        tolerance=tol,
        anchor="Eq13",
    )


def check_tplus_int(tol=1e-8):
    """Known-constant oracle: <t_+^{-1}, e^{-t}> = -EulerGamma."""
    val = tplus_profile(-1.0, ExpProfile(1.0))
    return CheckReport(
        check="homog-tplus-int",
        params={"k": 1, "testfn": "exp:a=1"},
        lhs=complex(val),
        rhs=complex(-np.euler_gamma),
        tolerance=tol,
        anchor="Eq13",
    )


def check_extension_restricts(k, psi, phi, tol=1e-8):
    """For phi supported away from 0 the extension must equal the direct
    pairing of the density against phi.  The extension runs the closed
    log-moment on fixed rules, the direct pairing adaptive quadrature on
    the rotated sphere rule."""
    value, rule = extend_kdot(k, psi, phi)
    rhs = k.direct_pair(phi, rule["angular_order"])
    return CheckReport(
        check="homog-extension-restricts",
        params={"density": k.label, "cutoff": [psi.a, psi.b], "testfn": phi.label},
        lhs=complex(value),
        rhs=complex(rhs),
        tolerance=tol,
        anchor="Eq13",
        extra={"rule": rule},
    )


def check_ambiguity(k, psi1, psi2, phis, tol=1e-6):
    """The difference of two extensions is a delta at 0: for every phi with
    phi(0) != 0, (kdot_1 - kdot_2)(phi) / phi(0) by pointwise_kdot must be
    the closed constant (c_1(psi2) - c_1(psi1)) integral_S k.  One report
    per phi; the worst carries the constants of all phis, their relative
    spread and the key-wise maximum of the reference rules."""
    closed = (psi2.log_mean() - psi1.log_mean()) * k.sphere_integral()
    params = {"density": k.label, "cutoffs": [[psi1.a, psi1.b], [psi2.a, psi2.b]], "count": len(phis)}
    reports, consts, rules = [], [], []
    for phi in phis:
        p0 = complex(phi(np.zeros(k.n) if k.n > 1 else 0.0))
        if abs(p0) < 1e-12:
            raise DomainError("ambiguity check needs phi(0) != 0")
        (v1, r1), (v2, r2) = pointwise_kdot(k, psi1, phi), pointwise_kdot(k, psi2, phi)
        rules += [r1, r2]
        consts.append((complex(v1) - complex(v2)) / p0)
        reports.append(CheckReport("homog-ambiguity", params, closed, consts[-1], tol, anchor="Eq13", extra={"testfn": phi.label}))
    rep = worst(reports)
    rep.extra.update(
        constants=consts,
        relative_spread=max(abs(c - consts[0]) for c in consts) / max(abs(consts[0]), 1e-300),
        rule={key: max(r[key] for r in rules) for key in rules[0]},
    )
    return rep
