"""Local zeta functions with meromorphic continuation.

The radial Mellin transform M_s(phi)(omega) = integral_0^inf phi(r omega)
r^s dr is computed directly for Re s > -1 and continued by N-fold
integration by parts,

    M_s = (-1)^N / ((s+1) ... (s+N)) integral_0^inf r^{s+N} d^N/dr^N
          [phi(r omega)] dr,

with N minimal such that Re s + N > -1, plus one when Im s != 0 and
Re s + N < -0.9 (N <= 6); the convergent integral is
quad.power_integral.  For complex s the phase r^(i Im s) is built from
log r (or log u after a power substitution), since r underflows to 0
near the origin.  Local zeta integrals Z_i(s, phi) = integral over a
component of |p(m)|^s phi(m) dm reduce to this radial transform after
the polar factorization of the scalar kind (one ray) or of a definite
form (the sphere rule), in which |p| is exactly a power of the radius.

Indefinite forms are continued by the b-function of p(m) = m^T B m
(Sato & Shintani, Ann. of Math. 100 (1974); Gel'fand & Shilov,
Generalized Functions I, ch. III): with p*(d) = d^T B^{-1} d and
b(s) = 4 (s + 1)(s + n/2), p*(d)|p|^{s+1} = +-b(s)|p|^s on the component
where +-p > 0, so

    Z_+-(s, phi) = (+-1)^N Z_+-(s + N, p*(d)^N phi) / prod_{j<N} b(s + j),

with N minimal such that Re s + N > -1/2, where the hyperbolic
coordinates of quad.SignatureGeometry give a radial integral of
r^(2 (s + N) + n - 2) times the angular profile.

zeta_local hands the radial functions of every kind (the rays, or the
angular profile), which depend on s only through the depth N, and their
weights r^expo to one driver on the tanh-sinh rule
quad._radial_levels, and that driver runs under quad.angular_doubling,
which doubles the order of the sphere rules until two orders agree.
zeta_local_reference keeps independent routes, on the rotated sphere
rule of the order zeta_local measured: one adaptive transform per ray,
and the angular profile per radius under adaptive quadrature, continued
one step by the finite-difference stencil of quad.radial_power_integral.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import quad, testfn
from .errors import DomainError, PoleError
from .special import POLE_GUARD

MAX_CONTINUATION = 6


@dataclass
class MeroValue:
    """Value of an analytically continued quantity, with the distance to
    the nearest pole of the continuation and the number of integrations
    by parts that produced it; rule describes the shared rules (radial
    node count and last level gap, angular order and gap) when they
    produced the value."""

    value: complex
    pole_distance: float
    continuation_order: int
    rule: dict | None = None

    def __complex__(self):
        return complex(self.value)


def _neg_int_distance(s):
    """Distance from s to {-1, -2, -3, ...}."""
    s = complex(s)
    k = round(s.real)
    if k > -1:
        k = -1
    return abs(s - k)


def _continuation_depth(s):
    """Least N with Re s + N > -1: the integrations by parts that make
    the radial Mellin integral at s converge; one more when Im s != 0 and
    Re s + N < -0.9.  There the head's phase u^(i p Im s) in
    u = r^(1 + Re s + N) has p = 1 / (1 + Re s + N) above 10, up to 1000
    at Re s + N = -0.999, which adaptive quadrature does not resolve (on
    a Gaussian ray at s = -0.999 + 0.275i the direct head is off by 6.6e-2
    relative)."""
    N = 0
    while s.real + N <= -1.0 + 1e-12 or (s.imag != 0.0 and s.real + N < -0.9):
        N += 1
        if N > MAX_CONTINUATION:
            raise DomainError(f"continuation depth beyond N = {MAX_CONTINUATION} at s = {s}")
    return N


def _continuation(s, order=None):
    """Pole distance, by-parts depth N and divisor (-1)^N prod_{j<=N} (s + j)
    of the radial Mellin transform at s, shared by every Mellin route.
    Raises PoleError within POLE_GUARD of a pole; order forces a depth
    beyond the minimal one."""
    dist = _neg_int_distance(s)
    if dist < POLE_GUARD:
        raise PoleError(f"Mellin transform has a pole within {POLE_GUARD} of s = {s}")
    N = _continuation_depth(s)
    if order is not None:
        if order < N or order > MAX_CONTINUATION:
            raise DomainError(f"forced continuation order must lie in [{N}, {MAX_CONTINUATION}]")
        N = int(order)
    den = 1.0
    for j in range(1, N + 1):
        den = den * (s + j)
    return dist, N, -den if N % 2 else den


def mellin_profile(profile, s, tol=1e-11, order=None):
    """Radial Mellin transform of a 1D profile (see module docstring).

    order forces a continuation depth N beyond the minimal one (for
    overlap-consistency checks of the continuation itself)."""
    s = complex(s)
    dist, N, den = _continuation(s, order)
    g = profile if N == 0 else profile.derivative(N)
    res = quad.power_integral(g, s + N, profile.cutoff(1e-16), tol, getattr(profile, "oscillation", None))
    value = complex(res.value) / den
    if value.imag == 0.0:
        value = value.real
    return MeroValue(value, dist, N)


def mellin(phi, omega, s, tol=1e-11, order=None):
    """M_s(phi)(omega) for a TestFunction phi and a ray direction omega."""
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    return mellin_profile(phi.ray(omega), s, tol=tol, order=order)


# ---------------------------------------------------------------------------


# Level cap of the tanh-sinh rule quad._radial_levels, one for all three
# kinds.  At tol = 1e-10 Gaussian, Hermite and centred bump rays settle
# within 5 halvings, an off-centre or narrow bump (near support edge inside)
# within 9, and the angular profiles of polynomial-Gaussians on indefinite
# components within 5.
_DE_LEVELS = 9


def _check_target(space, component, phi):
    """Reject a component the space lacks or a test function of another dimension."""
    if component not in space.components:
        raise DomainError(f"component {component!r} not in {space.components}")
    if phi.n != space.n:
        raise DomainError("test function dimension does not match the space")


def _polar(space, component, s, order, rotated):
    """The polar factorization |p(r omega)|^s dm = r^expo |p(omega)|^s dr
    d omega of the scalar and definite kinds: (rays omega, their weights,
    the matrix B with |p(omega)| = omega^T B omega, expo).  The scalar
    kind has the one ray +-1 of its component and expo = s, a definite
    space the rule quad.sphere_quadrature(n, order, rotated) and
    expo = 2 s + n - 1."""
    if space.kind == "scalar1d":
        return np.array([[1.0 if component == "V1" else -1.0]]), np.ones(1), np.eye(1), s
    pts, wts = quad.sphere_quadrature(space.n, order, rotated)
    return pts, wts, space.Bmat, 2.0 * s + space.n - 1.0


def _polar_kind(space, component, s, phi):
    """The radial data that zeta_local integrates, for the scalar and
    definite kinds: (pole distance, depth N, radial exponent, dimensions
    of the sphere factors, the angle of phi's support, at), where at(order)
    gives (rows(r), weights, divisor, cutoff) for the rays of _polar at
    that order, continued by parts, on [0, largest ray cutoff]; the
    weights carry 1 / den, so the divisor is 1.  DomainError when a ray
    profile has no finite cutoff or oscillates: the level gap of the rule
    does not see an unresolved oscillation, so such a ray (the numeric
    Fourier transform of a bump) goes to mellin or zeta_local_reference,
    whose quad.power_integral sizes its panels to the wavelength."""
    sm = s if space.kind == "scalar1d" else 2.0 * s + space.n - 1.0
    dist, N, den = _continuation(sm)

    def at(order):
        pts, wts, B, _ = _polar(space, component, s, order, False)
        # a ray that misses phi's support adds 0
        hit = [not phi.decay.misses(om) for om in pts]
        pts, wts = pts[hit], wts[hit]
        profiles, cut = [], 0.0
        for om in pts:
            prof = phi.ray(om)
            if getattr(prof, "oscillation", None) is not None:
                raise DomainError(
                    f"the shared radial rule does not resolve the oscillating rays of {phi.label}; "
                    "zeta.mellin and zeta_local_reference take them on wavelength panels"
                )
            c = prof.cutoff(1e-16)
            if not (np.isfinite(c) and c > 0.0):
                raise DomainError(f"the shared radial rule needs a finite cutoff of every ray profile, got {c}")
            profiles.append(prof if N == 0 else prof.derivative(N))
            cut = max(cut, c)
        pom = np.einsum("ij,jk,ik->i", pts, B, pts)
        ps = pom ** s.real if s.imag == 0.0 else pom.astype(complex) ** s
        # with no ray left any cutoff serves
        return lambda r: [g(r) for g in profiles], wts * ps / den, 1.0, cut or 1.0

    dims = () if space.kind == "scalar1d" else (space.n,)
    return dist, N, sm + N, dims, phi.decay.angle(), at


def _signature_kind(space, component, s, phi):
    """The radial data of _polar_kind for an indefinite component: the
    b-function (module docstring) moves s to Re s + N > -1/2, where the
    radial weight r^(2 (s + N) + n - 2) of the hyperbolic coordinates of
    quad.SignatureGeometry is integrable.  The one row is the angular
    profile of L^N phi, with weight detfac and divisor den, so the value
    is (detfac sum) / den.  The sphere factors of the component are
    S^{k-1} and S^{n-k-1}, k its cosh-like directions; the support's angle
    is taken in the standardized coordinates, where the stretch of B can
    narrow it."""
    dist = _indefinite_pole_distance(space, s)
    N = 0
    while s.real + N <= -0.5:
        N += 1
        if N > MAX_CONTINUATION:
            raise DomainError(f"b-function continuation beyond N = {MAX_CONTINUATION} at s = {s}")
    den = 1.0
    for j in range(N):
        den = den * _b_function(space.n, s + j)
    if component == "minus" and N % 2:
        den = -den
    g = phi if N == 0 else testfn.laplacian_power(phi, 1.0 / np.diag(space.Bmat), N)
    rate = _standardized_rate(space, phi)

    def at(order):
        geom = quad.SignatureGeometry(space.Bmat, space.q, component, order, False)
        return lambda r: [geom.profile(g, r, rate)[0]], np.array([geom.detfac]), den, geom.radial_cutoff(rate)

    k = space.q if component == "plus" else space.n - space.q
    root = np.sqrt(np.abs(np.diag(space.Bmat)))
    dec = phi.decay
    angle = dataclasses.replace(dec, radius=dec.radius * root.min(), shift=dec.shift * root.max()).angle()
    return dist, N, 2.0 * (s + N) + space.n - 2.0, (k, space.n - k), angle, at


def zeta_local(space, component, s, phi, tol=1e-10):
    """Z_i(s, phi) = integral over component V_i of |p(m)|^s phi(m) dm,
    continued in s by radial integration by parts (scalar and definite
    kinds) or by the b-function (indefinite kind, see the module
    docstring; phi must then be polynomial-Gaussian when Re s <= -1/2).

    Every kind reduces to radial integrals of r^expo v(r) for the rows v
    of _polar_kind (the one ray of a scalar component, the sphere rule of
    a definite space) or _signature_kind (the angular profile of an
    indefinite component), and all rows share one tanh-sinh radial rule
    (Takahasi & Mori 1974), refined until two levels agree within tol of
    the L1 mass on every row, else AccuracyError at its level cap.  The
    order of the sphere rules is measured, not set: quad.angular_doubling
    doubles it until two orders agree within tol of the L1 mass of the
    sum (the scalar kind and S^0 factors are exact and run once).
    zeta_local_reference keeps independent routes.  Oscillating rays
    raise DomainError (see _polar_kind).  The value carries the rule:
    radial nodes and level gap, weighted and divided like the value, and
    the angular order that the finer order confirms within the angular
    gap (0 when no doubling ran), which zeta_local_reference takes."""
    s = complex(s)
    _check_target(space, component, phi)
    kind = _signature_kind if space.kind == "indefinite" else _polar_kind
    dist, N, expo, dims, angle, at = kind(space, component, s, phi)

    def run(order):
        rows, weights, den, cut = at(order)
        cur, prev, mass, nodes = quad._radial_levels(rows, expo, cut, tol, _DE_LEVELS)
        total = complex(np.sum(weights * cur)) / den
        gap = float(abs(np.sum(weights * (cur - prev)))) / abs(den)
        return total, float(np.sum(np.abs(weights) * mass)) / abs(den), nodes, gap

    (total, _, nodes, gap), angular_gap, order = quad.angular_doubling(dims, run, angle, tol)
    value = total.real if total.imag == 0.0 else total
    rule = {"radial_nodes": nodes, "level_gap": gap, "angular_order": order, "angular_gap": angular_gap}
    return MeroValue(value, dist, N, rule=rule)


def _b_function(n, s):
    """b(s) = 4 (s + 1)(s + n/2) of p(m) = m^T B m in n variables:
    p*(d)|p|^{s+1} = +-b(s)|p|^s on the component where +-p > 0."""
    return 4.0 * (s + 1.0) * (s + n / 2.0)


def _indefinite_pole_distance(space, s):
    """Distance from s to the poles -1 - k and -n/2 - k (k >= 0) of an
    indefinite zeta integral, the roots of the shifted b-functions;
    PoleError within POLE_GUARD."""
    dist = min(_neg_int_distance(s), _neg_int_distance(s + space.n / 2.0 - 1.0))
    if dist < POLE_GUARD:
        raise PoleError(f"zeta continuation pole near s = {s}")
    return dist


def _standardized_rate(space, phi):
    """Gaussian decay rate of phi in the standardized coordinates of
    quad.SignatureGeometry, where |m|^2 >= |x|^2 / max|b_i|."""
    rate = phi.decay.rate if phi.decay.kind == "gaussian" else 0.5
    return rate / float(np.max(np.abs(np.diag(space.Bmat))))


def zeta_local_reference(space, component, s, phi, order, tol=1e-10):
    """zeta_local by independent routes, for checks of the shared rules:
    one adaptive radial Mellin transform per ray of _polar for the scalar
    and definite kinds, and for an indefinite one the angular profile per
    radius under adaptive quadrature, continued by at most one
    finite-difference by-parts step (so Re s > -n/2 only).  Off n = 3 the
    angular profile is not smooth at r = 0 and the step is not valid:
    DomainError once Re beta <= -1 or Re s <= -1, beta = 2 s + n - 2.
    order is the angular order that zeta_local measured (its rule's
    angular_order); the sphere rules of that order are the rotated ones of
    quad.sphere_quadrature, so that no angular node, and no angular error,
    is common to both routes."""
    s = complex(s)
    _check_target(space, component, phi)
    if space.kind == "indefinite":
        beta = 2.0 * s + space.n - 2.0
        if space.n != 3 and min(beta.real, s.real) <= -1.0:
            raise DomainError(f"the finite-difference stencil does not continue past Re s = -1 or Re beta = -1 "
                              f"off n = 3 (n = {space.n}, s = {s})")
        dist = _indefinite_pole_distance(space, s)
        rate = _standardized_rate(space, phi)
        geom = quad.SignatureGeometry(space.Bmat, space.q, component, order, True)
        H = geom.angular_profile(lambda pts: np.asarray(phi(pts)), rate)
        val = geom.detfac * complex(quad.radial_power_integral(H, beta, geom.radial_cutoff(rate), tol=tol))
        # the stencil's by-parts steps: none while Re beta > -1, else one
        return MeroValue(val.real if val.imag == 0.0 else val, dist, int(beta.real <= -1.0))
    pts, wts, B, sm = _polar(space, component, s, order, True)
    total = 0.0 + 0.0j
    dist, depth = None, 0
    for om, w in zip(pts, wts):
        pom = float(om @ B @ om)
        mv = mellin_profile(phi.ray(om), sm, tol=tol)
        total += w * pom ** s * complex(mv.value)
        dist, depth = mv.pole_distance, mv.continuation_order
    value = total.real if total.imag == 0.0 else total
    return MeroValue(value, dist, depth)


def check_zeta_eval(space, component, s, phi, tol):
    """zeta_local at tol 1e-9 against zeta_local_reference at tol 1e-11,
    on the angular order that zeta_local measured: for the scalar and
    definite kinds the shared radial rule against the adaptive rule per
    ray, for the indefinite kind the b-function route against the
    finite-difference stencil."""
    from .report import CheckReport

    fast = zeta_local(space, component, s, phi, tol=1e-9)
    ref = zeta_local_reference(space, component, s, phi, fast.rule["angular_order"], tol=1e-11)
    return CheckReport(
        check="zeta-eval",
        params={"space": repr(space), "component": component, "s": complex(s), "testfn": phi.label},
        lhs=complex(fast.value),
        rhs=complex(ref.value),
        tolerance=tol,
        anchor="Eq5",
        extra={"continuation_order": ref.continuation_order, "pole_distance": ref.pole_distance, "rule": fast.rule},
    )


def check_mellin_overlap(phi, omega, s, order=2, tol=1e-8):
    """In the overlap region Re s > -1 the direct integral and the
    N-fold by-parts continuation must agree."""
    from .report import CheckReport

    s = complex(s)
    if s.real <= -1.0:
        raise DomainError("overlap check needs Re s > -1")
    direct = mellin(phi, omega, s)
    byparts = mellin(phi, omega, s, order=order)
    return CheckReport(
        check="mellin-overlap",
        params={"s": s, "omega": float(np.atleast_1d(omega)[0]), "order": order, "testfn": phi.label},
        lhs=complex(direct.value),
        rhs=complex(byparts.value),
        tolerance=tol,
        anchor="Eq5",
    )


def check_mellin_residue(phi, omega, k, tol=1e-3):
    """The continued transform has a simple pole at s = -k with residue
    phi^{(k-1)}(0) / (k-1)!; approach the pole along s = -k + 1e-4."""
    from .report import CheckReport

    if k < 1 or k != int(k):
        raise DomainError("poles sit at negative integers")
    k = int(k)
    prof = phi.ray(np.atleast_1d(np.asarray(omega, dtype=float)))
    # depth k makes the integrand r^eps phi^{(k)}(r), mild at r = 0
    eps = 1e-4
    approx = eps * complex(mellin_profile(prof, -k + eps, order=k).value)
    g = prof if k == 1 else prof.derivative(k - 1)
    expected = complex(g(0.0)) / math.factorial(k - 1)
    # the approach carries an O(eps) bias from the regular part, so a
    # vanishing residue is compared on the absolute scale
    return CheckReport(
        check="mellin-residue",
        params={"k": k, "eps": eps, "omega": float(np.atleast_1d(omega)[0]), "testfn": phi.label},
        lhs=approx,
        rhs=expected,
        tolerance=tol,
        anchor="Eq5",
        residual=abs(approx - expected) / max(abs(expected), 1.0),
    )


def check_zeta_montecarlo(space, component, s, phi, nsamples, seed):
    """Validate the hyperbolic-coordinate zeta integral against a seeded
    Cartesian Monte-Carlo estimate; pass iff the quadrature value sits
    within nsigma = 3 standard errors of the estimate."""
    from .report import CheckReport

    if space.kind != "indefinite":
        raise DomainError("the Monte-Carlo oracle targets the indefinite kind")
    s = complex(s)
    if s.imag != 0.0:
        raise DomainError("the Monte-Carlo oracle needs real s")
    mv = zeta_local(space, component, s, phi)
    g = lambda pts: np.real(np.asarray(phi(pts)))
    # by keyword: the benchmark's tracer reads the sample count as kwargs['nsamples']
    est, se = quad.monte_carlo_signature(g, space.Bmat, component, s.real, nsamples=int(nsamples), seed=seed)
    lhs = complex(mv.value)
    nsigma = 3.0
    band = nsigma * se
    return CheckReport(
        check="zeta-montecarlo",
        params={
            "space": repr(space),
            "component": component,
            "s": s,
            "testfn": phi.label,
            "nsamples": int(nsamples),
            "seed": int(seed),
            "nsigma": nsigma,
        },
        lhs=lhs,
        rhs=complex(est),
        tolerance=max(band / max(abs(lhs), abs(est), 1e-300), 1e-300),
        anchor="Eq22",
        extra={"standard_error": se, "sigma_band": band},
        passed=abs(lhs - complex(est)) < band,
    )
