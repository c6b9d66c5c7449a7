"""Local zeta functions with meromorphic continuation.

The radial Mellin transform M_s(phi)(omega) = integral_0^inf phi(r omega)
r^s dr is computed directly for Re s > -1 and continued by N-fold
integration by parts,

    M_s = (-1)^N / ((s+1) ... (s+N)) integral_0^inf r^{s+N} d^N/dr^N
          [phi(r omega)] dr,

with N minimal such that Re s + N > -1 (N <= 6).  Local zeta integrals
Z_i(s, phi) = integral over a component of |p(m)|^s phi(m) dm reduce to
this radial transform after the polar (definite) or hyperbolic
(indefinite) factorization, in which |p| is exactly a power of the
radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import phspace, quad
from .errors import DomainError, PoleError

POLE_GUARD = 1e-6
MAX_CONTINUATION = 6


@dataclass
class MeroValue:
    """Value of an analytically continued quantity, with the distance to
    the nearest pole of the continuation and the number of integrations
    by parts that produced it."""

    value: complex
    pole_distance: float
    continuation_order: int

    def __complex__(self):
        return complex(self.value)


def _neg_int_distance(s):
    """Distance from s to {-1, -2, -3, ...}."""
    s = complex(s)
    k = round(s.real)
    if k > -1:
        k = -1
    return abs(s - k)


def _oscillatory_mellin(integrand, expo, cut, wavelength):
    """Radial power integral of a uniformly oscillatory profile (the
    transform of a compactly supported function) on fixed Gauss-Legendre
    panels sized to the oscillation wavelength.  Adaptive subdivision is
    hopeless here: the integrand oscillates hundreds of times across the
    tail, so the grid is fixed up front and checked by panel doubling."""
    if not np.isfinite(cut):
        raise DomainError("oscillatory Mellin path needs a finite scanned cutoff")
    head_end = min(1.0, cut)
    if expo.real < 0.0:
        # substitute r = u^p on (0, head_end); the oscillation only slows
        # down in u, so the wavelength bound stays valid
        p = 1.0 / (1.0 + expo.real)
        h = lambda u: integrand(u ** p) * p * u ** (p - 1.0)
        head = quad.panel_integral(h, 0.0, head_end ** (1.0 + expo.real), panel_width=min(0.25, wavelength / 4.0), order=16)
    else:
        head = quad.panel_integral(integrand, 0.0, head_end, panel_width=min(0.25, wavelength / 4.0), order=16)
    total, err, neval = complex(head.value), head.error_estimate, head.evaluations
    if cut > head_end:
        body = quad.panel_integral(integrand, head_end, cut, panel_width=min(1.0, 1.25 * wavelength), order=16)
        total += complex(body.value)
        err += body.error_estimate
        neval += body.evaluations
    value = total.real if total.imag == 0.0 else total
    return quad.QuadResult(value, err, neval)


def mellin_profile(profile, s, tol=1e-11, pole_guard=POLE_GUARD, order=None):
    """Radial Mellin transform of a 1D profile (see module docstring).

    order forces a continuation depth N beyond the minimal one (for
    overlap-consistency checks of the continuation itself)."""
    s = complex(s)
    dist = _neg_int_distance(s)
    if dist < pole_guard:
        raise PoleError(f"Mellin transform has a pole within {pole_guard} of s = {s}")
    N = 0
    while s.real + N <= -1.0 + 1e-12:
        N += 1
        if N > MAX_CONTINUATION:
            raise DomainError(f"continuation depth beyond N = {MAX_CONTINUATION} at s = {s}")
    if order is not None:
        if order < N or order > MAX_CONTINUATION:
            raise DomainError(f"forced continuation order must lie in [{N}, {MAX_CONTINUATION}]")
        N = int(order)
    g = profile if N == 0 else profile.derivative(N)
    cut = profile.cutoff(1e-16) if hasattr(profile, "cutoff") else 0.0
    if cut <= 0.0:
        cut = np.inf
    expo = s + N
    spec = quad.SingularitySpec("left", expo.real) if expo.real < 0.0 else None

    def integrand(r):
        return r ** expo * g(r)

    osc = getattr(profile, "oscillation", None)
    if osc:
        res = _oscillatory_mellin(integrand, expo, cut, osc)
    else:
        res = quad.integrate_1d(integrand, 0.0, cut, spec=spec, tol=tol)
    pref = 1.0
    for j in range(1, N + 1):
        pref = pref * (s + j)
    value = complex(res.value) * (-1.0) ** N / pref
    if value.imag == 0.0:
        value = value.real
    return MeroValue(value, dist, N)


def mellin(phi, omega, s, tol=1e-11, pole_guard=POLE_GUARD, order=None):
    """M_s(phi)(omega) for a TestFunction phi and a ray direction omega."""
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    return mellin_profile(phi.ray(omega), s, tol=tol, pole_guard=pole_guard, order=order)


# ---------------------------------------------------------------------------


def zeta_local(space, component, s, phi, tol=1e-10, sphere_order=16, pole_guard=POLE_GUARD):
    """Z_i(s, phi) = integral over component V_i of |p(m)|^s phi(m) dm,
    continued in s by radial integration by parts."""
    s = complex(s)
    if component not in space.components:
        raise DomainError(f"component {component!r} not in {space.components}")
    if phi.n != space.n:
        raise DomainError("test function dimension does not match the space")

    if space.kind == "scalar1d":
        omega = 1.0 if component == "V1" else -1.0
        return mellin(phi, omega, s, tol=tol, pole_guard=pole_guard)

    if space.kind == "definite":
        B = space.Bmat
        n = space.n
        # |p(r omega)|^s = r^{2s} p(omega)^s: sphere x radial factorization
        pts, wts = quad.sphere_quadrature(n, order=sphere_order)
        total = 0.0 + 0.0j
        dist, order = None, 0
        for om, w in zip(pts, wts):
            pom = float(om @ B @ om)
            mv = mellin_profile(phi.ray(om), 2.0 * s + n - 1.0, tol=tol, pole_guard=pole_guard)
            total += w * pom ** s * complex(mv.value)
            dist, order = mv.pole_distance, mv.continuation_order
        value = total.real if total.imag == 0.0 else total
        return MeroValue(value, dist, order)

    # indefinite kind: hyperbolic coordinates, weight r^{2s} exactly
    if 2.0 * s.real <= -0.5 - MAX_CONTINUATION:
        raise DomainError("s too deep for radial continuation")
    B = space.Bmat
    n = space.n
    sheet = component
    rate = phi.decay.rate if phi.decay.kind == "gaussian" else 0.5
    # in standardized coordinates |m|^2 >= |x|^2 / max|b_i|
    rate_std = rate / float(np.max(np.abs(np.diag(B))))
    geom = quad.SignatureGeometry(B, space.q, sheet)
    H = geom.angular_profile(lambda pts: np.asarray(phi(pts)), rate_std)
    r_max = math.sqrt(45.0 / rate_std) + 2.0
    beta = 2.0 * s + n - 2.0
    dist = _neg_int_distance(beta) / 2.0
    if dist < pole_guard:
        raise PoleError(f"zeta continuation pole near s = {s}")
    val = geom.detfac * quad.radial_power_integral(H, beta, r_max, tol=tol)
    val = complex(val)
    if val.imag == 0.0:
        val = val.real
    N = 0
    b = beta.real
    while b <= -1.0 + 1e-12:
        N += 1
        b += 1.0
    return MeroValue(val, dist, N)


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


def check_mellin_residue(phi, omega, k, eps=1e-4, tol=1e-3):
    """The continued transform has a simple pole at s = -k with residue
    phi^{(k-1)}(0) / (k-1)!; approach the pole along s = -k + eps."""
    from .report import CheckReport

    if k < 1 or k != int(k):
        raise DomainError("poles sit at negative integers")
    k = int(k)
    prof = phi.ray(np.atleast_1d(np.asarray(omega, dtype=float)))
    # depth k makes the integrand r^eps phi^{(k)}(r), mild at r = 0
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


def check_zeta_montecarlo(space, component, s, phi, nsamples, seed, nsigma=3.0, tol=1e-10):
    """Validate the hyperbolic-coordinate zeta integral against a seeded
    Cartesian Monte-Carlo estimate; pass iff the quadrature value sits
    within nsigma standard errors of the estimate."""
    from .report import CheckReport

    if space.kind != "indefinite":
        raise DomainError("the Monte-Carlo oracle targets the indefinite kind")
    s = complex(s)
    if s.imag != 0.0:
        raise DomainError("the Monte-Carlo oracle needs real s")
    mv = zeta_local(space, component, s, phi, tol=tol)
    g = lambda pts: np.real(np.asarray(phi(pts)))
    est, se = quad.monte_carlo_signature(g, space.Bmat, space.q, component, s.real, int(nsamples), seed)
    lhs = complex(mv.value)
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
            "nsigma": float(nsigma),
        },
        lhs=lhs,
        rhs=complex(est),
        tolerance=max(band / max(abs(lhs), abs(est), 1e-300), 1e-300),
        anchor="Eq22",
        extra={"standard_error": se, "sigma_band": band},
        passed=abs(lhs - complex(est)) < band,
    )
