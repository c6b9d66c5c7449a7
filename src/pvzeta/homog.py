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
integral_0^inf eta(t) dt/t = 1.  Two cutoffs give extensions that differ
by a multiple of phi(0) only.

extend_kdot evaluates this on fixed rules.  On each ray omega of the
sphere rule, whose order quad.angular_doubling measures, a composite
Gauss-Legendre rule on the cutoff annulus [a, b] carries the outer
integral, and every outer node t gets its own inner integral

    R_{-n} phi(t omega) = -integral_0^cut log(tau) d/dtau phi(tau t omega) dtau

on one composite Gauss-Legendre rule in u = sqrt(tau), shared by all
outer nodes and evaluated as a (nodes x inner nodes) array in row
blocks.  The scaling law R_{-n} phi(t omega) = A(omega) - log(t) phi(0)
is not used, so the cutoff-ambiguity check compares genuinely different
integrals.  A rule with twice the panels must agree with it, and at one
outer node per ray the adaptive tplus_profile must agree as well; either
disagreement beyond 1e-10 raises AccuracyError.  direct_pair, the other
side of the restriction check, stays on adaptive quadrature along the
rays of the rotated sphere rule of the measured order.
"""

from __future__ import annotations

import math

import numpy as np

from . import quad, special, testfn, zeta
from .errors import AccuracyError, DomainError
from .report import CheckReport


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
    """<t_+^s, g> for a 1D profile g."""
    s = complex(s)
    if s.imag == 0.0 and s.real <= -1.0 + 1e-14 and s.real == round(s.real):
        k = -int(round(s.real))
        gk = profile.derivative(k)
        gk1 = profile.derivative(k - 1) if k > 1 else profile
        # t = u^2 softens the log: log(t) dt = 4 u log(u) du
        res = quad.integrate_1d(lambda u: 4.0 * u * np.log(u) * gk(u * u), 0.0, math.sqrt(profile.cutoff(1e-18)), tol=tol)
        fact = math.factorial(k - 1)
        g0 = complex(gk1(0.0))
        value = -complex(res.value) / fact + special.harmonic(k - 1) * g0 / fact
        return value.real if value.imag == 0.0 else value
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
        pairing at the critical degree), adaptive (tol 1e-11) along the
        two rays of the line or each ray of the rotated sphere rule of the
        given order, the angular order of extend_kdot's rule."""
        n = self.n
        outer = phi.decay.cutoff(1e-16)
        if not np.isfinite(outer) or outer <= 0.0:
            raise DomainError("direct pairing needs a finite support bound")
        pts, wts = quad.sphere_quadrature(n, order, True)
        total = 0.0 + 0.0j
        # the rays as points on the line when n = 1, as in _kdot_rule
        for om, w in zip(pts[:, 0] if n == 1 else pts, wts):
            r = quad.integrate_1d(
                lambda t, om=om: self(t * om) * complex(phi(t * om)) * t ** (n - 1),
                0.0,
                outer,
                tol=1e-11,
            )
            total += w * complex(r.value)
        return total.real if total.imag == 0.0 else total


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

    def eta(self, t):
        t = np.asarray(t, dtype=float)
        mid = 0.5 * (self.a + self.b)
        half = 0.5 * (self.b - self.a)
        u = (t - mid) / half
        out = np.zeros(u.shape)
        inside = np.abs(u) < 1.0
        with np.errstate(divide="ignore", over="ignore"):
            out[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
        return self.norm * out

    def log_mass(self):
        res = quad.integrate_1d(lambda t: self.eta(t) / t, self.a, self.b, tol=1e-12)
        return float(np.real(complex(res.value)))


def make_cutoff(a, b):
    """Bump profile on [a, b] rescaled to unit logarithmic mass."""
    if not (0.0 < a < b):
        raise DomainError("cutoff needs 0 < a < b")
    raw = RadialCutoff(a, b, 1.0)
    mass = raw.log_mass()
    return RadialCutoff(a, b, 1.0 / mass)


# ---------------------------------------------------------------------------
# R_s and the extension of degree -n densities


def rs_transform(phi, s, m, tol=1e-11):
    """R_s phi(m) = t_+^{s+n-1} applied to t -> phi(t m), m != 0."""
    m = np.atleast_1d(np.asarray(m, dtype=float))
    if not np.any(m):
        raise DomainError("R_s is defined away from the origin")
    return tplus_profile(complex(s) + phi.n - 1.0, phi.ray(m), tol=tol)


# Panel counts of the fixed rules in extend_kdot (quad.panel_rule): the
# coarse outer rule on the cutoff annulus and the successive coarse inner
# rules in u = sqrt(tau); every fine rule doubles both counts of its
# coarse rule.
_OUTER_PANELS = 16
_INNER_PANELS = (64, 128, 256)
# points of phi' evaluated at once, which bounds the temporaries.  It
# stays below quad.BLOCK: blocks of BLOCK // len(tau) rows (2^16 points)
# took homog-ambiguity from 0.17 to 0.50 s and homog-extension from 0.09
# to 0.17 s (best of 3 on a 2-CPU host)
_BLOCK_POINTS = 1 << 13


def _rs_rows(dprof, t, cut, npanel):
    """R_{-n} phi(t omega) = -integral_0^cut log(tau) d/dtau phi(tau t omega) dtau
    for every outer node t of one ray, with dprof the derivative of the
    ray profile of omega.  One composite Gauss-Legendre rule in
    u = sqrt(tau) (the softening map of tplus_profile) serves all nodes;
    node t evaluates dprof at its own points t tau, in row blocks."""
    u, w = quad.panel_rule(0.0, math.sqrt(cut), npanel)
    tau = u * u
    # -log(tau) dtau = -4 u log(u) du
    c = -4.0 * w * u * np.log(u)
    block = max(1, _BLOCK_POINTS // len(tau))
    rows = []
    for i in range(0, len(t), block):
        tb = t[i : i + block]
        # d/dtau phi(tau t omega) = t g'(t tau) for the profile g of omega
        rows.append(tb * (np.asarray(dprof(tb[:, None] * tau)) @ c))
    return np.concatenate(rows)


def _kdot_rule(k, psi, rays, p_out, p_in, memo):
    """One composite rule for kdot(phi): value, the L1 mass of its terms,
    the outer nodes and the R_{-n} phi values of each ray at them.  memo
    keeps those values by ray and panel counts: the circle rule of twice
    the order repeats every ray of the last."""
    t, wt = quad.panel_rule(psi.a, psi.b, p_out)
    outer = wt * psi.eta(t) * t ** (k.n - 1)
    total, mass, rows = 0.0 + 0.0j, 0.0, []
    for om, w, dprof, cut in rays:
        key = (om.tobytes(), p_out, p_in)
        if key not in memo:
            memo[key] = _rs_rows(dprof, t, cut, p_in)
        r = memo[key]
        # the outer nodes of the ray, as points on the line when n = 1
        pts = t * om[0] if k.n == 1 else t[:, None] * om
        terms = w * outer * np.asarray(k(pts), dtype=complex) * r
        total += complex(np.sum(terms))
        mass += float(np.sum(np.abs(terms)))
        rows.append(r)
    return total, mass, t, rows


def extend_kdot(k, psi, phi):
    """kdot(phi) = <k, psi * R_{-n} phi>: the extension of a degree -n
    homogeneous density across the origin.  Returns (value, rule), rule
    holding the disagreement of the coarse and the fine rule, the fine
    node counts (outer nodes on each ray, inner nodes for each outer
    node), and the angular order and gap of quad.angular_doubling.

    On each ray of the sphere rule, the cutoff annulus carries a composite
    Gauss-Legendre outer rule and every outer node t its own inner
    integral R_{-n} phi(t omega), all on one shared inner rule.  The
    density is evaluated on (N, n) arrays of points.  The coarse rule is
    checked against the fine rule with twice the panels; while they differ
    by more than tol = 1e-10 of the L1 mass of the sum, the inner panel
    count is doubled, and past the last count AccuracyError is raised.
    The order of the sphere rule is doubled by quad.angular_doubling
    until two orders agree within tol of the L1 mass; each order starts
    at the inner panel count the last one settled on, and rays that miss
    a compact support of phi are left out.  At one outer node
    of each ray of the last order the fine inner value must also match
    the adaptive rs_transform within tol of the largest |R_{-n} phi|, or
    AccuracyError is raised."""
    tol = 1e-10
    n = k.n
    if k.degree != -n:
        raise DomainError(f"the extension is defined at the critical degree -n = {-n}, not {k.degree}")
    if phi.n != n:
        raise DomainError("test function dimension does not match the density")

    # the inner panel count that the last order settled on starts the next
    first, memo = 0, {}

    def run(order):
        nonlocal first
        pts, wts = quad.sphere_quadrature(n, order, False)
        rays = []
        for om, w in zip(pts, wts):
            if phi.decay.misses(om):  # R_{-n} phi vanishes on the ray
                continue
            # the inner range serves every outer node of the ray
            cut = max(phi.ray(psi.a * om).cutoff(1e-18), phi.ray(psi.b * om).cutoff(1e-18))
            if not (np.isfinite(cut) and cut > 0.0):
                raise DomainError("fixed-rule extension needs a finite cutoff of the ray profile")
            rays.append((om, w, phi.ray(om).derivative(1), cut))
        for i, p_in in enumerate(_INNER_PANELS[first:], first):
            coarse = _kdot_rule(k, psi, rays, _OUTER_PANELS, p_in, memo)[0]
            value, mass, t, rows = _kdot_rule(k, psi, rays, 2 * _OUTER_PANELS, 2 * p_in, memo)
            gap = abs(value - coarse)
            if gap <= tol * mass:
                first = i
                return value, mass, gap, p_in, rays, t, rows
        raise AccuracyError(
            f"fixed-rule extension unresolved: {2 * p_in} and {p_in} inner panels "
            f"differ by {gap:.2e} on an L1 mass of {mass:.2e}"
        )

    (value, _, gap, p_in, rays, t, rows), angular_gap, order = quad.angular_doubling((n,), run, phi.decay.angle(), tol)
    mid = len(t) // 2
    scale = max((float(np.max(np.abs(r))) for r in rows), default=0.0)
    for (om, _, _, _), r in zip(rays, rows):
        m = t[mid] * om
        ref = complex(rs_transform(phi, -float(n), m, tol=tol))
        if abs(ref - r[mid]) > tol * scale:
            raise AccuracyError(
                f"fixed-rule R_{{-n}} phi at m = {m.tolist()} is {complex(r[mid]):.15g}, "
                f"adaptive gives {ref:.15g}"
            )
    value = value.real if value.imag == 0.0 else value
    rule = {
        "coarse_fine_gap": gap,
        "outer_nodes": len(t),
        "inner_nodes": 2 * p_in * quad.PANEL_ORDER,
        "angular_order": order,
        "angular_gap": angular_gap,
    }
    return value, rule


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
    pairing of the density against phi.  The extension runs on fixed
    rules, the direct pairing on adaptive quadrature."""
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
    """The difference of two extensions is a delta at 0: the ratio
    (kdot_1 - kdot_2)(phi) / phi(0) must be the same constant for every
    phi with phi(0) != 0.  The rule is the key-wise maximum of the
    extensions' rules."""
    consts, rules = [], []
    for phi in phis:
        p0 = complex(phi(np.zeros(k.n) if k.n > 1 else 0.0))
        if abs(p0) < 1e-12:
            raise DomainError("ambiguity check needs phi(0) != 0")
        (v1, r1), (v2, r2) = extend_kdot(k, psi1, phi), extend_kdot(k, psi2, phi)
        rules += [r1, r2]
        consts.append((complex(v1) - complex(v2)) / p0)
    spread = max(abs(c - consts[0]) for c in consts) / max(abs(consts[0]), 1e-300)
    return CheckReport(
        check="homog-ambiguity",
        params={"density": k.label, "cutoffs": [[psi1.a, psi1.b], [psi2.a, psi2.b]], "count": len(phis)},
        lhs=complex(consts[0]),
        rhs=complex(consts[-1]),
        tolerance=tol,
        anchor="Eq13",
        extra={
            "constants": [complex(c) for c in consts],
            "relative_spread": spread,
            "rule": {key: max(r[key] for r in rules) for key in rules[0]},
        },
        residual=spread,
    )
