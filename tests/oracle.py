"""Adaptive QUADPACK oracles and a whole-stream Monte-Carlo route for the tests.

The tests compare the library's fixed Fourier rules (the numeric
transform of a bump, the heat symbol, the double-exponential inverse
transforms) against an independent adaptive route for one-dimensional
Fourier integrals (QUADPACK on an infinite range; below the oscillation
threshold the library's finite-range quad.integrate_1d on a finite
one), the library's adaptive rule quad.integrate_1d against
QUADPACK on the same problem (quadpack_1d), and the zeta integral of a
Gaussian on an anisotropic definite form against its polar factorization
with an adaptive sphere integral; the library itself never calls them.  The Monte-Carlo route
draws and evaluates each chunk of samples as one array, the reference of
the library's blocked oracle, and fhat_many_one_block takes the heat
symbol in blocks of 4e6 exponents, the reference of the library's
cache-sized blocks.  The per-ray and per-node loops below are the
references of the library's ray families (zeta_local_reference,
direct_pair), shared inner rows (homog) and stacked Gauss-Hermite rows
(heatflow).
"""

import math

import numpy as np
from scipy.integrate import dblquad
from scipy.integrate import quad as scipy_quad

from pvzeta import heatflow, homog, quad, special, zeta

# at or below this |xi| the complex integrand is integrated directly
OSC_THRESHOLD = 4.0


def quadpack_1d(f, a, b, tol):
    """(value, error estimate) of integral_a^b f by QUADPACK through
    scipy.integrate.quad, with quad.integrate_1d's tolerance mapping
    (epsabs = epsrel = tol 1e-2) and interval cap (400): the reference of
    the library's adaptive rule.  f is called with one float node at a
    time, and a complex integrand runs twice, once per part."""
    val, err = scipy_quad(f, a, b, limit=400, epsabs=tol * 1e-2, epsrel=tol * 1e-2, complex_func=True)
    return complex(val), float(abs(err))


def oscillatory_ft_1d(f, xi, a=-np.inf, b=np.inf, tol=1e-10, force_method=None):
    """Integral of f(y) e^{-i y xi} dy over (a, b).

    Below the oscillation threshold a plain adaptive rule on the complex
    integrand is used (quad.integrate_1d on a finite range, QUADPACK on
    an infinite one); above it, Clenshaw-Curtis panels with exact
    cos/sin weights (scipy's QAWO/QAWF) handle the oscillation.
    force_method ('plain' or 'osc') pins the path for cross-checks.

    Strong cancellation sets an absolute accuracy floor: when the result
    is many orders below the integrand's magnitude, accuracy is absolute
    (~1e-15 times the integrand scale), not relative.  QAWO is also
    fragile where the integration interval ends exactly at the edge of a
    compact support (on bump(-0.45, 0.8) at xi = 20 it was off by 3e-2,
    for a value of 8e-4), so callers integrate a little past the support.
    """
    xi = float(xi)
    use_plain = abs(xi) <= OSC_THRESHOLD if force_method is None else force_method == "plain"
    if use_plain:
        g = lambda y: f(y) * np.exp(-1j * y * xi)
        # the library's adaptive rule takes finite ranges only
        if np.isinf(a) or np.isinf(b):
            return quadpack_1d(g, a, b, tol)[0]
        return complex(quad.integrate_1d(g, a, b, tol=tol).value)

    def piece(lo, hi):
        kw = dict(limit=400, epsabs=tol * 1e-2, epsrel=tol * 1e-2)
        if np.isinf(hi) or np.isinf(lo):
            kw = dict(limit=400, epsabs=tol * 1e-2)
        if np.isinf(lo) and np.isinf(hi):
            return piece(lo, 0.0) + piece(0.0, hi)
        if np.isinf(lo):
            re = scipy_quad(lambda y: f(-y), -hi, np.inf, weight="cos", wvar=xi, **kw)[0]
            im = scipy_quad(lambda y: f(-y), -hi, np.inf, weight="sin", wvar=xi, **kw)[0]
            return re + 1j * im
        re = scipy_quad(f, lo, hi, weight="cos", wvar=xi, **kw)[0]
        im = scipy_quad(f, lo, hi, weight="sin", wvar=xi, **kw)[0]
        return re - 1j * im

    return complex(piece(a, b))


def gaussian_zeta_definite(s, a, diag):
    """Z(s) = integral over R^3 of (m^T B m)^s e^{-a |m|^2} dm for the
    positive diagonal B = diag(diag), entire in s: in polar coordinates
    Gamma(s + 3/2) / (2 a^(s + 3/2)) times the sphere integral of
    (omega^T B omega)^s, which is taken here by adaptive 2D quadrature
    over the polar and azimuthal angles (real and imaginary parts apart),
    independent of the library's sphere rules."""
    s = complex(s)
    b = np.asarray(diag, dtype=float)

    def part(take):
        def f(phi, theta):
            st = np.sin(theta)
            p = b[0] * (st * np.cos(phi)) ** 2 + b[1] * (st * np.sin(phi)) ** 2 + b[2] * np.cos(theta) ** 2
            return take(np.exp(s * np.log(p))) * st

        return dblquad(f, 0.0, np.pi, 0.0, 2.0 * np.pi, epsabs=0.0, epsrel=1e-13)[0]

    sphere = part(np.real) + (1j * part(np.imag) if s.imag else 0.0)
    return complex(special.gamma(s + 1.5)) / (2.0 * a ** (s + 1.5)) * sphere


def monte_carlo_signature_whole_stream(g, B, sheet, w, nsamples, seed):
    """quad.monte_carlo_signature with the call's whole stream drawn and
    evaluated as one array: the same stream, and the kept values summed
    per block of quad.BLOCK // n samples, in order."""
    B = np.atleast_2d(np.asarray(B, dtype=float))
    n = B.shape[0]
    d = np.diag(B)
    rng = np.random.default_rng(seed)
    sigma = 1.0 / math.sqrt(2.0 * math.pi)
    x = rng.normal(0.0, sigma, size=(nsamples, n))
    p = x[:, 0] * d[0] * x[:, 0]
    for i in range(1, n):
        p = p + x[:, i] * d[i] * x[:, i]
    mask = p > 0 if sheet == "plus" else p < 0
    vals = np.zeros(nsamples)
    if np.any(mask):
        xm = x[mask]
        gm = np.asarray(g(xm), dtype=float)
        weight = np.exp(math.pi * quad.sum_squares(xm))
        vals[mask] = np.abs(p[mask]) ** float(np.real(w)) * gm * weight
    total, total2 = 0.0, 0.0
    rows = max(1, quad.BLOCK // n)
    for lo in range(0, nsamples, rows):
        kept = vals[lo : lo + rows][mask[lo : lo + rows]]
        total += float(np.sum(kept))
        total2 += float(np.sum(kept * kept))
    mean = total / nsamples
    var = total2 / nsamples - mean * mean
    return mean, math.sqrt(max(var, 0.0) / nsamples)


def fhat_many_one_block(t, chis):
    """heatflow.fhat_many as it was before its blocks shrank to quad.BLOCK:
    the frequencies in their own order, in blocks of 4e6 exponents (one
    block for up to 8064 frequencies at t = 0.1), each keeping the nodes
    that its smallest frequency needs."""
    chis = np.asarray(chis, dtype=float)
    flat = chis.ravel()
    out = np.empty(flat.shape, dtype=complex)
    zero = flat == 0.0
    out[zero] = heatflow.l1_norm(t)
    mag = np.abs(flat[~zero])
    if mag.size:
        U = math.sqrt(4.0 * t * 80.0) + 3.0
        width = min(7.5 * t, 3.0 * math.sqrt(t), 2.0)
        u, w = quad.panel_rule(-U, U, max(8, int(2.0 * U / width) + 8))
        amp = heatflow.prefactor(t) * math.exp(math.pi ** 2 / (16.0 * t))
        base = w * np.exp(-u * u / (4.0 * t)) * np.exp(1j * math.pi * u / (4.0 * t))
        eu = np.exp(u)
        vals = np.empty(mag.shape, dtype=complex)
        step = max(1, int(4e6 / max(eu.size, 1)))
        for lo in range(0, mag.size, step):
            hi = min(lo + step, mag.size)
            block = mag[lo:hi]
            keep = eu * float(np.min(block)) <= 60.0
            expo = np.clip(-block[:, None] * eu[None, keep], -708.0, 0.0)
            vals[lo:hi] = amp * (np.exp(expo) @ base[keep])
        out[~zero] = np.where(flat[~zero] > 0.0, vals, np.conj(vals))
    return out.reshape(chis.shape)


def extend_kdot_per_ray(k, psi, phi):
    """(value, rule) of homog.extend_kdot with one _inner_rows call per ray
    of every order, without the adaptive spot-check (which changes neither)."""
    shift = psi.log_mean() * complex(phi(np.zeros(phi.n) if phi.n > 1 else 0.0))

    def terms(pts, wts, p, fine):
        npanel = 2 * p if fine else p
        a = np.array([homog._inner_rows(phi, om[None], np.ones(1), np.atleast_1d(phi.ray(om).cutoff(1e-18)), npanel)[0, 0] for om in pts])
        return wts * homog._at(k, pts) * (a - shift), None

    value, rule, _ = homog._extension(k, phi, "fixed-rule extension", terms)
    return value, rule


def pointwise_kdot_per_ray(k, psi, phi):
    """homog.pointwise_kdot with one _inner_rows call per ray of every order."""
    mid, half = 0.5 * (psi.a + psi.b), 0.5 * (psi.b - psi.a)

    def terms(pts, wts, p, fine):
        h, npanel = (0.5 * homog._DE_STEP, 2 * p) if fine else (homog._DE_STEP, p)
        x = h * np.arange(-round(homog._DE_EDGE / h), round(homog._DE_EDGE / h) + 1)
        t = mid + half * np.tanh(x)
        outer = h * half / np.cosh(x) ** 2 * psi.eta(t) * t ** (k.n - 1)
        rows = []
        for om, w in zip(pts, wts):
            cut = max(phi.ray(psi.a * om).cutoff(1e-18), phi.ray(psi.b * om).cutoff(1e-18))
            rows.append(w * outer * homog._at(k, t[:, None] * om) * homog._inner_rows(phi, om[None], t, np.atleast_1d(cut), npanel)[0])
        return np.concatenate(rows), len(t)

    value, rule, nodes = homog._extension(k, phi, "pointwise extension", terms)
    return value, {**rule, "outer_nodes": nodes}


def two_step_per_node(t, s, phi, xs, order):
    """heatflow._two_step with one phi call and one 2-D product per r node."""
    z, w = quad.gauss_hermite(order)
    xs = np.asarray(xs)
    inner = np.exp(-2.0 * math.sqrt(s) * z)
    total = np.zeros(len(xs), dtype=complex)
    for zi, wi in zip(z, w):
        y = np.outer(xs * math.exp(-2.0 * math.sqrt(t) * zi), inner)
        total += wi * (np.asarray(phi(y), dtype=complex) @ w)
    return 4.0 * math.sqrt(t * s) * heatflow.prefactor(t) * heatflow.prefactor(s) * total


def zeta_local_reference_per_ray(space, component, s, phi, order, tol):
    """zeta.zeta_local_reference on a definite space ray by ray: one
    adaptive radial Mellin transform per ray omega of the rotated sphere
    rule, each on its own cut, weighted by its rule weight times
    |p(omega)|^s = (omega^T B omega)^s and summed in turn."""
    s = complex(s)
    pts, wts = quad.sphere_quadrature(space.n, order, True)
    total, dist, depth = 0.0 + 0.0j, None, 0
    for om, w in zip(pts, wts):
        mv = zeta.mellin_profile(phi.ray(om), 2.0 * s + space.n - 1.0, tol=tol)
        total += w * float(om @ space.Bmat @ om) ** s * complex(mv.value)
        dist, depth = mv.pole_distance, mv.continuation_order
    return zeta.MeroValue(total.real if total.imag == 0.0 else total, dist, depth)


def direct_pair_per_ray(k, phi, order):
    """homog.HomogFunctional.direct_pair with one adaptive integral per ray
    of the rotated sphere rule (the points +-1 on the line), summed in turn."""
    n = k.n
    outer = phi.decay.cutoff(1e-16)
    pts, wts = quad.sphere_quadrature(n, order, True)
    total = 0.0 + 0.0j
    for om, w in zip(pts[:, 0] if n == 1 else pts, wts):
        def integrand(t, om=om):
            m = np.multiply.outer(t, om)
            return k(m) * np.asarray(phi(m)) * t ** (n - 1)

        total += w * complex(quad.integrate_1d(integrand, 0.0, outer, tol=1e-11).value)
    return total.real if total.imag == 0.0 else total
