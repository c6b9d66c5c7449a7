"""Quadrature engines: singular radial integrals, sphere rules,
indefinite quadratic-form components in hyperbolic coordinates, and
1D oscillatory Fourier integrals (adaptive, and on the half line by a
double-exponential rule).

Endpoint singularities t^alpha (alpha > -1) are removed by the
substitution t = u^{1/(1+alpha)} before handing the integrand to an
adaptive Gauss-Kronrod rule.  Radial integrals with a non-integrable
power weight are continued by integration by parts on the smooth factor
(radial_power_integral), which is the numerical backbone of every
meromorphic continuation in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad as _scipy_quad
from scipy.integrate._quadpack import error as _QuadpackError

from .errors import AccuracyError, DomainError, NonConvergence, PoleError


@dataclass(frozen=True)
class SingularitySpec:
    """Declared endpoint behavior of an integrand: f ~ t^exponent at the
    named endpoint (a milder singularity, such as log t, may declare a
    dominating exponent)."""

    endpoint: str = "none"  # left | none
    exponent: float = 0.0

    def __post_init__(self):
        if self.endpoint not in ("left", "none"):
            raise DomainError(f"bad endpoint {self.endpoint!r}")
        if self.exponent <= -1.0:
            raise DomainError("endpoint exponent must exceed -1 (integrability)")


@dataclass
class QuadResult:
    value: complex
    error_estimate: float
    evaluations: int

    def __complex__(self):
        return complex(self.value)


def _counting(f):
    count = [0]

    def g(t):
        count[0] += 1
        return f(t)

    return g, count


def _quad_piece(f, a, b, tol):
    try:
        val, err = _scipy_quad(f, a, b, limit=400, epsabs=tol * 1e-2, epsrel=tol * 1e-2, complex_func=True)
    except _QuadpackError as exc:  # pragma: no cover - QUADPACK's own failure; integrand errors propagate
        raise NonConvergence(f"quadrature failed on ({a}, {b}): {exc}") from exc
    err = float(abs(err))
    if not np.isfinite(err) or not np.isfinite(val):
        raise NonConvergence(f"quadrature did not converge on ({a}, {b})")
    return complex(val), err


def integrate_1d(f, a, b, spec=None, tol=1e-10):
    """Integrate f on (a, b) (b may be +inf) with a declared left-endpoint
    singularity removed by power substitution.  Returns QuadResult."""
    g, count = _counting(f)
    total, err = 0.0 + 0.0j, 0.0
    pieces = []

    if spec is not None and spec.endpoint == "left" and spec.exponent < 0.0:
        alpha = spec.exponent
        p = 1.0 / (1.0 + alpha)
        cut = min(b, a + 1.0)
        # t = a + u^p maps the t^alpha singularity to a bounded integrand.
        h = lambda u: g(a + u ** p) * p * u ** (p - 1.0)
        pieces.append((h, 0.0, (cut - a) ** (1.0 + alpha)))
        if cut < b:
            pieces.append((g, cut, b))
    else:
        pieces.append((g, a, b))

    for h, lo, hi in pieces:
        v, e = _quad_piece(h, lo, hi, tol)
        total += v
        err += e
    value = total.real if total.imag == 0.0 else total
    return QuadResult(value, err, count[0])


def sum_squares(x):
    """Sum of x * x over the short trailing axis, accumulated column by
    column: bit-identical to np.sum(x * x, axis=-1) for fewer than 8
    columns, and several times faster than numpy's reduction there."""
    acc = x[..., 0] * x[..., 0]
    for j in range(1, x.shape[-1]):
        acc = acc + x[..., j] * x[..., j]
    return acc


_GL_CACHE = {}


def gauss_legendre(order):
    """Cached Gauss-Legendre nodes and weights on [-1, 1]."""
    if order not in _GL_CACHE:
        _GL_CACHE[order] = np.polynomial.legendre.leggauss(int(order))
    return _GL_CACHE[order]


_GH_CACHE = {}


def gauss_hermite(order):
    """Cached Gauss-Hermite nodes and weights for the weight e^{-z^2} on R."""
    if order not in _GH_CACHE:
        _GH_CACHE[order] = np.polynomial.hermite.hermgauss(int(order))
    return _GH_CACHE[order]


def panel_rule(a, b, npanel, order=16):
    """Nodes and weights of composite Gauss-Legendre on npanel equal
    panels of the finite interval [a, b]."""
    x, w = gauss_legendre(order)
    edges = np.linspace(a, b, npanel + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    return (mid[:, None] + half[:, None] * x[None, :]).ravel(), (half[:, None] * w[None, :]).ravel()


def panel_integral(f, a, b, panel_width=0.5, order=16):
    """Composite Gauss-Legendre integration on fixed panels.

    Suited to uniformly oscillatory integrands where adaptive subdivision
    thrashes; f must accept a 1D array of nodes.  The error estimate is
    the disagreement with a doubled panel count."""
    if not (np.isfinite(a) and np.isfinite(b)):
        raise DomainError("panel integration needs finite endpoints")

    def run(npanel):
        nodes, wts = panel_rule(a, b, npanel, order)
        return complex(np.sum(wts * np.asarray(f(nodes), dtype=complex)))

    npanel = max(4, int(math.ceil((b - a) / panel_width)))
    v1 = run(npanel)
    v2 = run(2 * npanel)
    value = v2.real if v2.imag == 0.0 else v2
    return QuadResult(value, abs(v2 - v1), 3 * npanel * order)


# Half-line Fourier integrals by the double-exponential rule of Ooura & Mori
# (J. Comput. Appl. Math. 38 (1991) 353-360): x = M phi(t) / |w|, M = pi / h,
# phi(t) = t / (1 - e^{-6 sinh t}), sine part at t = n h, cosine part at
# t = (n + 1/2) h.  For large t the nodes fall on the zeros of the oscillation,
# so no cut in x is needed.  |w| <= _OM_TINY takes the exp-sinh rule instead.
_OM_TMAX, _ES_TMAX, _OM_TINY, _OM_H0, _OM_LEVELS, _OM_TOL = 3.0, 4.5, 1e-9, 0.1, 4, 1e-10
_OM_CACHE = {}


def _ooura_mori(h):
    """Nodes p and weights v at unit frequency, with weights below 1e-18 of
    the largest dropped: integral_0^inf G(x) e^{-ix} dx ~ sum v G(p)."""
    if h not in _OM_CACHE:
        k = np.arange(-round(_OM_TMAX / h), round(_OM_TMAX / h) + 1)
        t = np.concatenate([k * h, (k[:-1] + 0.5) * h])
        sine = np.arange(t.size) < k.size
        t1 = np.where(t == 0.0, 1.0, t)  # phi(0) = 1/6 and phi'(0) = 1/2 are set below
        s = 6.0 * np.sinh(t1)
        em = np.expm1(s)
        phi = np.where(t == 0.0, 1.0 / 6.0, t1 / -np.expm1(-s))
        dphi = np.where(t == 0.0, 0.5, np.exp(s) * (em - 6.0 * t1 * np.cosh(t1)) / (em * em))
        m = math.pi / h
        # for t > 0, m t is a multiple of pi / 2: the trig factor comes from
        # phi - t = t / (e^s - 1), which keeps the digits that m phi loses
        lead = np.where(np.concatenate([k, k[:-1]]) % 2 == 0, 1.0, -1.0) * np.sin(m * t1 / em)
        osc = np.where(t > 0.0, np.where(sine, lead, -lead), np.where(sine, np.sin(m * phi), np.cos(m * phi)))
        v = h * m * dphi * np.where(sine, -1j * osc, osc)
        keep = np.abs(v) >= 1e-18 * np.max(np.abs(v))
        _OM_CACHE[h] = (m * phi)[keep], v[keep]
    return _OM_CACHE[h]


def half_line_fourier(G, omegas, h, max_nodes=None):
    """(integral_0^inf G(x) e^{-i w x} dx at every w in omegas, node count)
    at step h.  G is called once on every offset's nodes, or once per block
    of about max_nodes; the exp-sinh nodes of the tiny offsets ride along."""
    om = np.asarray(omegas, dtype=float).ravel()
    p, v = _ooura_mori(h)
    tau = np.arange(-round(_ES_TMAX / h), round(_ES_TMAX / h) + 1) * h
    q = np.exp(0.5 * math.pi * np.sinh(tau))
    tiny = np.abs(om) <= _OM_TINY
    reg, small = np.flatnonzero(~tiny), np.flatnonzero(tiny)
    out, nodes = np.empty(om.size, dtype=complex), 0
    rows = max(1, reg.size if max_nodes is None else max_nodes // p.size)
    for lo in range(0, max(reg.size, 1), rows):  # one block at least, for the exp-sinh nodes
        idx = reg[lo : lo + rows]
        a = np.abs(om[idx])
        x = (p[None, :] / a[:, None]).ravel()
        vals = np.asarray(G(np.concatenate([x, q]) if lo == 0 and small.size else x), dtype=complex)
        grid, nodes = vals[: x.size].reshape(-1, p.size), nodes + vals.size
        gq = vals[x.size :] if lo == 0 else gq
        # e^{-i w x} at w < 0 is the conjugate phase; one product per row
        pos = om[idx] > 0.0
        out[idx[pos]] = grid[pos] @ v / a[pos]
        out[idx[~pos]] = grid[~pos] @ np.conj(v) / a[~pos]
    if small.size:
        wq = h * 0.5 * math.pi * np.cosh(tau) * q * gq
        nz = np.flatnonzero(wq)
        rows = max(1, small.size if max_nodes is None else max_nodes // q.size)
        for lo in range(0, small.size, rows):
            idx = small[lo : lo + rows]
            out[idx] = np.exp(-1j * np.outer(om[idx], q[nz])) @ wq[nz]
    return out, nodes


def inverse_fourier(F, offsets):
    """(2 pi)^{-1} integral_R F(xi) e^{-i o xi} d xi at every offset o for
    F(-xi) = conj F(xi), one F call per level.  h halves from _OM_H0 (each
    level is a fresh node set, as M moves with h) until two levels agree
    within _OM_TOL of the largest value.  Returns (values, {"nodes", "h",
    "level_gap"}), the last the largest change between the last two levels."""
    offsets = np.asarray(offsets, dtype=float)
    prev, nodes = None, 0
    for level in range(_OM_LEVELS + 1):
        h = _OM_H0 / 2 ** level
        cur, n = half_line_fourier(F, offsets, h)
        cur, nodes = cur.real / math.pi, nodes + n
        if prev is not None:
            gap = float(np.max(np.abs(cur - prev)))
            if gap <= _OM_TOL * float(np.max(np.abs(cur))):
                return cur.reshape(offsets.shape), {"nodes": nodes, "h": h, "level_gap": gap}
        prev = cur
    raise AccuracyError(f"Fourier rule unresolved after {_OM_LEVELS} halvings: levels differ by {gap:.2e}")


# ---------------------------------------------------------------------------
# Spheres


def sphere_quadrature(n, order=16):
    """Quadrature nodes and weights on S^{n-1} with total weight equal to
    the surface measure (2 for n=1, 2 pi for n=2, 4 pi for n=3)."""
    if n == 1:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    if n == 2:
        m = max(4, 2 * order)
        th = 2.0 * math.pi * np.arange(m) / m
        pts = np.stack([np.cos(th), np.sin(th)], axis=-1)
        return pts, np.full(m, 2.0 * math.pi / m)
    if n == 3:
        z, wz = gauss_legendre(order)
        m = 2 * order
        th = 2.0 * math.pi * np.arange(m) / m
        rho = np.sqrt(1.0 - z ** 2)
        pts = np.stack(
            [
                np.outer(rho, np.cos(th)).ravel(),
                np.outer(rho, np.sin(th)).ravel(),
                np.outer(z, np.ones(m)).ravel(),
            ],
            axis=-1,
        )
        w = np.outer(wz, np.full(m, 2.0 * math.pi / m)).ravel()
        return pts, w
    raise DomainError("sphere quadrature supports n <= 3")


# ---------------------------------------------------------------------------
# Indefinite quadratic forms in hyperbolic polar coordinates


class SignatureGeometry:
    """Hyperbolic polar parametrization of one component of
    {m : sign(m^T B m) fixed} for diagonal-signature B.

    In standardized coordinates x (m = D x with D = diag(|b_i|^{-1/2}))
    the component with k cosh-like directions and j = n - k sinh-like
    ones is x = r (cosh u * omega_k, sinh u * omega_j) with
    |x^T I_{k,j} x| = r^2 and |x|^2 = r^2 cosh(2u) exactly.  The measure
    is r^{n-1} (cosh u)^{k-1} (sinh u)^{j-1} dr du d omega_k d omega_j,
    with u over (0, inf) in general and over all of R when j = 1 (the
    one-dimensional sinh block needs no separate sign sum).
    """

    def __init__(self, B, q, sheet, sphere_order=24):
        B = np.atleast_2d(np.asarray(B, dtype=float))
        n = B.shape[0]
        d = np.diag(B).copy()
        if not np.allclose(B, np.diag(d)):
            raise DomainError("indefinite B must be in diagonal signature form")
        if np.any(d == 0.0):
            raise DomainError("B must be invertible")
        if np.sum(d > 0) != q:
            raise DomainError(f"B does not have signature ({q}, {n - q})")
        if sheet not in ("plus", "minus"):
            raise DomainError("sheet must be 'plus' or 'minus'")
        self.n, self.q, self.sheet = n, q, sheet
        self.Dscale = 1.0 / np.sqrt(np.abs(d))
        self.detfac = float(np.prod(self.Dscale))
        self.pos_idx = np.where(d > 0)[0]
        self.neg_idx = np.where(d < 0)[0]
        if sheet == "plus":
            self.cosh_idx, self.sinh_idx = self.pos_idx, self.neg_idx
        else:
            self.cosh_idx, self.sinh_idx = self.neg_idx, self.pos_idx
        self.k = len(self.cosh_idx)
        self.j = len(self.sinh_idx)
        if self.k == 0:
            raise DomainError("requested sheet is empty for this signature")
        self.omega_k, self.wk = sphere_quadrature(self.k, order=sphere_order)
        if self.j >= 2:
            self.omega_j, self.wj = sphere_quadrature(self.j, order=sphere_order)
        elif self.j == 1:
            self.omega_j, self.wj = np.array([[1.0]]), np.array([1.0])
        else:
            self.omega_j, self.wj = np.zeros((1, 0)), np.array([1.0])
        self.full_u_line = self.j == 1

    def _u_nodes(self, r, decay_rate, tail=42.0):
        """Composite Gauss-Legendre nodes for the u integral, truncated
        where the gaussian decay of the integrand bounds the tail."""
        r = max(abs(r), 1e-150)
        arg = 1.0 + tail / (decay_rate * r * r)
        umax = 0.5 * math.acosh(arg) + 0.5
        npanel = max(4, int(math.ceil(umax / 0.5)))
        u, wu = panel_rule(0.0, umax, npanel, order=12)
        if self.full_u_line:
            u = np.concatenate([-u[::-1], u])
            wu = np.concatenate([wu[::-1], wu])
        return u, wu

    def angular_profile(self, g, decay_rate):
        """Return H with H(r) = r * F(r), where F(r) is the full angular
        integral of g at radius r (so that the component integral is
        integral of r^{2w + n - 2} H(r) dr times the det factor)."""
        n, k, j = self.n, self.k, self.j

        def H(r):
            u, wu = self._u_nodes(r, decay_rate)
            ang = (np.cosh(u) ** (k - 1)) * (np.sinh(np.abs(u)) ** (j - 1)) * wu
            # points array of shape (n_u, n_k, n_j, n)
            cu = np.cosh(u)
            su = np.sinh(u)
            pts = np.zeros((len(u), len(self.wk), len(self.wj), n))
            pts[..., self.cosh_idx] = cu[:, None, None, None] * self.omega_k[None, :, None, :]
            if j > 0:
                pts[..., self.sinh_idx] = su[:, None, None, None] * self.omega_j[None, None, :, :]
            pts *= r
            pts *= self.Dscale
            vals = g(pts)
            w_total = ang[:, None, None] * self.wk[None, :, None] * self.wj[None, None, :]
            return r * np.sum(vals * w_total)

        return H


def radial_power_integral(H, beta, r_max, tol=1e-10, fd_h=1e-3, depth=0, max_depth=6):
    """Meromorphic continuation of integral_0^inf r^beta H(r) dr for smooth
    H with H(0) = 0 allowed; beta may be complex with Re beta <= -1, in
    which case the integral is defined by repeated integration by parts
    (the derivative of H taken by 4th-order central differences)."""
    beta = complex(beta)
    if depth > max_depth:
        raise DomainError(f"radial continuation depth exceeded {max_depth}")
    if abs(beta + 1.0) < 1e-9:
        raise PoleError(f"radial power integral has a pole at beta = -1 (beta = {beta})")
    if beta.real > -1.0:
        spec = SingularitySpec("left", beta.real) if beta.real < 0.0 else None
        res = integrate_1d(lambda r: r ** beta * H(r), 0.0, r_max, spec=spec, tol=tol)
        return res.value
    h = fd_h

    def Hp(r):
        # H needs only to be smooth on (0, inf); near 0 a one-sided
        # stencil avoids sampling across the origin, where hyperbolic
        # angular profiles are sign-odd with a jump.
        if r >= 2.5 * h:
            return (-H(r + 2 * h) + 8.0 * H(r + h) - 8.0 * H(r - h) + H(r - 2 * h)) / (12.0 * h)
        return (
            -25.0 * H(r)
            + 48.0 * H(r + h)
            - 36.0 * H(r + 2 * h)
            + 16.0 * H(r + 3 * h)
            - 3.0 * H(r + 4 * h)
        ) / (12.0 * h)

    inner = radial_power_integral(Hp, beta + 1.0, r_max, tol=tol, fd_h=fd_h, depth=depth + 1, max_depth=max_depth)
    return -inner / (beta + 1.0)


def integrate_signature(g, B, q, sheet, w=0.0, tol=1e-9, sphere_order=24, decay_rate=None):
    """Integrate |p(m)|^w g(m) over the component of R^n where
    sign(m^T B m) matches the sheet, for diagonal B of signature (q, n-q).

    g must be vectorized over arrays of points (last axis = coordinates)
    and carry gaussian decay; decay_rate bounds |g| <= C e^{-rate |x|^2}
    in standardized coordinates (defaults to a conservative estimate).
    For Re w <= -1/2 the radial integral is continued in w by
    radial_power_integral.
    """
    w = complex(w)
    geom = SignatureGeometry(B, q, sheet, sphere_order=sphere_order)
    if decay_rate is None:
        decay_rate = 0.5
    H, count = _counting(geom.angular_profile(g, decay_rate))
    r_max = math.sqrt(45.0 / decay_rate) + 2.0
    beta = 2.0 * w + geom.n - 2.0
    val = radial_power_integral(H, beta, r_max, tol=tol)
    val = geom.detfac * val
    value = val.real if getattr(val, "imag", 0.0) == 0.0 else val
    return QuadResult(value, tol, count[0])


def monte_carlo_signature(g, B, q, sheet, w, nsamples, seed):
    """Monte-Carlo oracle for integrate_signature using a standard
    gaussian proposal with density exactly e^{-pi |m|^2}.  Returns
    (estimate, standard_error)."""
    B = np.atleast_2d(np.asarray(B, dtype=float))
    n = B.shape[0]
    rng = np.random.default_rng(seed)
    sigma = 1.0 / math.sqrt(2.0 * math.pi)
    total, total2, kept = 0.0, 0.0, 0
    chunk = 1_000_000
    done = 0
    while done < nsamples:
        k = min(chunk, nsamples - done)
        x = rng.normal(0.0, sigma, size=(k, n))
        p = np.einsum("ij,jk,ik->i", x, B, x)
        mask = p > 0 if sheet == "plus" else p < 0
        vals = np.zeros(k)
        if np.any(mask):
            xm = x[mask]
            gm = np.asarray(g(xm), dtype=float)
            weight = np.exp(math.pi * sum_squares(xm))
            vals[mask] = np.abs(p[mask]) ** float(np.real(w)) * gm * weight
        total += float(np.sum(vals))
        total2 += float(np.sum(vals * vals))
        done += k
    mean = total / nsamples
    var = total2 / nsamples - mean * mean
    return mean, math.sqrt(max(var, 0.0) / nsamples)


# ---------------------------------------------------------------------------
# Oscillatory 1D Fourier integrals


_OSC_THRESHOLD = 4.0


def oscillatory_ft_1d(f, xi, a=-np.inf, b=np.inf, tol=1e-10, force_method=None):
    """Compute integral of f(y) e^{-i y xi} dy over (a, b).

    Below the oscillation threshold a plain adaptive rule on the complex
    integrand is used; above it, Clenshaw-Curtis panels with exact
    cos/sin weights (scipy's QAWO/QAWF) handle the oscillation.
    force_method ('plain' or 'osc') pins the path for cross-checks.

    Strong cancellation sets an absolute accuracy floor: when the result
    is many orders below the integrand's magnitude, accuracy is absolute
    (~1e-15 times the integrand scale), not relative.
    """
    xi = float(xi)
    use_plain = abs(xi) <= _OSC_THRESHOLD if force_method is None else force_method == "plain"
    if use_plain:
        res = integrate_1d(lambda y: f(y) * np.exp(-1j * y * xi), a, b, tol=tol)
        return complex(res.value)

    def piece(lo, hi):
        kw = dict(limit=400, epsabs=tol * 1e-2, epsrel=tol * 1e-2)
        if np.isinf(hi) or np.isinf(lo):
            kw = dict(limit=400, epsabs=tol * 1e-2)
        try:
            if np.isinf(lo) and np.isinf(hi):
                return piece(lo, 0.0) + piece(0.0, hi)
            if np.isinf(lo):
                re = _scipy_quad(lambda y: f(-y), -hi, np.inf, weight="cos", wvar=xi, **kw)[0]
                im = _scipy_quad(lambda y: f(-y), -hi, np.inf, weight="sin", wvar=xi, **kw)[0]
                return re + 1j * im
            re = _scipy_quad(f, lo, hi, weight="cos", wvar=xi, **kw)[0]
            im = _scipy_quad(f, lo, hi, weight="sin", wvar=xi, **kw)[0]
            return re - 1j * im
        except _QuadpackError as exc:  # pragma: no cover
            raise NonConvergence(f"oscillatory quadrature failed: {exc}") from exc

    return complex(piece(a, b))
