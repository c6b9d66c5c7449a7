"""Operator symbols and Schwartz kernels of group convolutions for the
dilation-type spaces whose singular set is the fixed-point set {0}.

For f integrable on the dilation group (Haar measure d alpha / alpha)
the symbol data are

    fhat(m, xi) = integral_G f(alpha) e^{i (alpha^{-1} m) . xi} d_G,
    a_f(m, xi)  = e^{-i m . xi} fhat(m, xi),

so on the line everything factors through the scalar transform
F(u) = integral_0^inf f(1/beta) e^{i u beta} d beta / beta with u = m xi.
At the fixed point m = 0 the symbol is the constant integral of f; away
from it the auxiliary symbol depends only on the direction of m,

    atilde(m, xi) = a_f(m/|m|, xi),

its inverse transform Atilde(m, u) uses the normalized measure
(2 pi)^{-n} d xi, and the Schwartz kernel is

    K_f(m, m') = |m|^{-n} Atilde(m, (m - m')/|m|).

On the line the inversion is closed for every f: Atilde(m, u) = f(1/y)/y
at y = 1 - sgn(m) u > 0, 0 elsewhere, so K_f(m, m') = f(m/m')/|m'| on
m m' > 0 (atilde_closed, kernel_closed); atilde_numeric and kernel take
the symbol route, and the checks hold one against the other.

The orbit of m under the rotation part is summed on the sphere rule whose
order quad.angular_doubling measures.  F comes from the oracle hat1d when
present, else from the Fourier rule quad.half_line_fourier; the numeric
Atilde from quad.inverse_fourier (AccuracyError when it does not
resolve).

All transforms here use the angular-normalized convention exclusively.
"""

from __future__ import annotations

import math

import numpy as np

from . import phspace, quad
from .errors import AccuracyError, DomainError, NonConvergence
from .report import CheckReport, label_number, worst


class GroupFunction:
    """An integrable function on the dilation group (0, inf) with Haar
    measure d alpha / alpha and a super-exponential decay certificate
    |f(e^r)| <= C e^{-log_decay_rate r^2}.

    hat1d and l1_norm are optional closed-form oracles (the heat kernel
    ships with both)."""

    def __init__(self, fn, label, log_decay_rate, hat1d=None, l1_norm=None):
        if log_decay_rate <= 0:
            raise DomainError("decay rate must be positive")
        self.fn = fn
        self.label = label
        self.log_decay_rate = float(log_decay_rate)
        self.hat1d = hat1d
        self._l1 = l1_norm
        self._integral = None

    def __call__(self, alpha):
        return self.fn(np.asarray(alpha, dtype=float))

    def log_cut(self):
        """L with |f(e^r)| below about 1e-18 of C for |r| > L."""
        return math.sqrt(-math.log(1e-18) / self.log_decay_rate) + 2.0

    def _haar_integral(self, weight):
        L = self.log_cut()
        res = quad.integrate_1d(lambda r: weight(self.fn(np.exp(r))), -L, L, tol=1e-12)
        return float(np.real(complex(res.value)))

    def l1(self):
        if self._l1 is None:
            self._l1 = self._haar_integral(np.abs)
        return self._l1

    def integral(self):
        if self._integral is None:
            self._integral = self._haar_integral(lambda v: v)
        return self._integral


def log_gaussian_group(a):
    """f(alpha) = e^{-a (log alpha)^2}: the generic test element."""
    if a <= 0:
        raise DomainError("rate must be positive")
    return GroupFunction(
        fn=lambda al: np.exp(-a * np.log(al) ** 2),
        label=f"loggauss-group:a={label_number(a)}",
        log_decay_rate=a,
    )


# ---------------------------------------------------------------------------
# Symbols


def _dilated(f, x, y):
    """f(x/y)/y for x, y > 0: the kernel of the convolution by f at (x, y),
    and at x = 1 the integrand f(1/y)/y of F and the closed Atilde."""
    return np.asarray(f(x / y)) / y


def _hat_scalar_many(f, us):
    """F(u) = integral_0^inf f(1/beta) e^{i u beta} d beta / beta on an array
    of frequencies: the oracle if any, else the transform of f(1/beta)/beta
    on the Fourier rule at step 0.05 (1e-15 on the heat F), in blocks of
    quad.BLOCK nodes."""
    us = np.asarray(us, dtype=float)
    if f.hat1d is not None:
        return np.asarray(f.hat1d(us), dtype=complex)
    g = lambda beta: _dilated(f, 1.0, beta)
    return quad.half_line_fourier(g, -us.ravel(), 0.05, max_nodes=quad.BLOCK)[0].reshape(us.shape)


# the orbit sum is resolved once two sphere orders agree within this
# fraction of its L1 mass (the tolerance of homog's two extension routes)
_ORBIT_TOL = 1e-10


def _orbit(space, m, order):
    """Points and normalized weights of the group orbit of m restricted to
    the rotation part (the dilation factor is integrated separately), on
    the sphere rule of the given order."""
    if space.kind == "scalar1d":
        return m.reshape(1, 1), np.array([1.0])
    Bh, Bih = phspace._half_powers(space.Bmat)
    rad = float(np.linalg.norm(Bh @ m))
    pts, wts = quad.sphere_quadrature(space.n, order, False)
    return (rad * pts) @ Bih.T, wts / np.sum(wts)


def symbol_hat(f, space, m, xi):
    """fhat(m, xi) on the orbit of m; at m = 0 the orbit is the one point
    0 and this is F(0), the integral of f, for every xi.  The order of the
    orbit's sphere rule is measured by quad.angular_doubling (the scalar
    kind has no sphere factor and runs once), which raises AccuracyError
    when the sum stays unresolved."""
    if space.kind not in ("scalar1d", "definite"):
        raise DomainError("symbols are defined for the fixed-point kinds (scalar1d, definite)")
    m = np.atleast_1d(np.asarray(m, dtype=float))
    xi = np.atleast_1d(np.asarray(xi, dtype=float))

    def run(order):
        pts, wts = _orbit(space, m, order)
        terms = wts * _hat_scalar_many(f, pts @ xi)
        return complex(np.sum(terms)), float(np.sum(np.abs(terms)))

    dims = (space.n,) if space.kind == "definite" else ()
    return quad.angular_doubling(dims, run, 2.0 * math.pi, _ORBIT_TOL)[0][0]


def symbol(f, space, m, xi):
    """a_f(m, xi) = e^{-i m . xi} fhat(m, xi)."""
    m = np.atleast_1d(np.asarray(m, dtype=float))
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    return complex(np.exp(-1j * float(m @ xi))) * symbol_hat(f, space, m, xi)


def scaling_check(f, space, m, xi, alpha, tol=1e-9):
    """a_f(alpha m, xi) vs a_f(m, alpha xi) for alpha > 0."""
    if alpha <= 0:
        raise DomainError("scaling is tested on the identity component (alpha > 0)")
    m = np.atleast_1d(np.asarray(m, dtype=float))
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    lhs = symbol(f, space, alpha * m, xi)
    rhs = symbol(f, space, m, alpha * xi)
    return CheckReport(
        check="symbol-scaling",
        params={"f": f.label, "space": repr(space), "m": list(m), "xi": list(xi), "alpha": float(alpha)},
        lhs=lhs,
        rhs=rhs,
        tolerance=tol,
        anchor="EqS",
    )


def scaling_sweep(f, space, m, count, seed, tol):
    """The worst scaling_check at m over count seeded draws, each of
    alpha uniform in [0.05, 20] and then xi uniform in [-3, 3]."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(count):
        alpha = float(rng.uniform(0.05, 20.0))
        rows.append(scaling_check(f, space, [m], [float(rng.uniform(-3.0, 3.0))], alpha, tol))
    rep = worst(rows)
    rep.params.update(sweep_count=count, seed=seed)
    return rep


# ---------------------------------------------------------------------------
# Auxiliary symbol, inverse transform, Schwartz kernel


def atilde_numeric(f, m_sign, us):
    """Atilde(m, u) for scalar m of the given sign and real f: the inverse
    transform (2 pi)^{-1} integral e^{i u xi} atilde(m, xi) d xi, atilde(m, xi)
    = e^{-i sgn(m) xi} F(sgn(m) xi), by quad.inverse_fourier at 1 - sgn(m) u.
    Returns (values, rule) as quad.inverse_fourier."""
    offsets = 1.0 - (1.0 if m_sign > 0 else -1.0) * np.asarray(us, dtype=float)
    return quad.inverse_fourier(lambda xi: _hat_scalar_many(f, xi), offsets)


def atilde_closed(f, m_sign, us):
    """Atilde(m, u) for scalar m of the given sign in closed form: f(1/y)/y
    at y = 1 - sgn(m) u > 0, and 0 elsewhere (the lacunary support)."""
    y = 1.0 - (1.0 if m_sign > 0 else -1.0) * np.asarray(us, dtype=float)
    out = np.zeros(y.shape)
    pos = y > 0.0
    out[pos] = _dilated(f, 1.0, y[pos])
    return out


def kernel(f, space, m, mprime):
    """K_f(m, m') = Atilde(m, u) / |m| at u = (m - m')/|m|, scalar case only,
    with Atilde the numeric inverse transform of the symbol
    (atilde_numeric), independent of kernel_closed."""
    if space.kind != "scalar1d":
        raise DomainError("kernel assembly is implemented for the scalar case")
    m = float(np.atleast_1d(np.asarray(m, dtype=float))[0])
    mprime = float(np.atleast_1d(np.asarray(mprime, dtype=float))[0])
    if m == 0.0:
        raise DomainError("the kernel is defined away from m = 0")
    u = (m - mprime) / abs(m)
    return complex(atilde_numeric(f, math.copysign(1.0, m), np.array([u]))[0][0]) / abs(m)


def kernel_closed(f, m, mprime):
    """K_f(m, m') = f(m/m')/|m'| on m m' > 0, 0 elsewhere (scalar m, m')."""
    m, mprime = float(m), float(mprime)
    if m * mprime <= 0.0:
        return 0.0
    return float(_dilated(f, abs(m), abs(mprime)))


# ---------------------------------------------------------------------------
# Decay probe


def decay_probe(f, space, m):
    """Octave-band log-log slopes of |a_f(m, tau xi_dir)|, xi_dir = (1, ..., 1)."""
    m = np.atleast_1d(np.asarray(m, dtype=float))
    xi_dir, taus = np.ones(space.n), np.array([5.0, 10.0, 25.0, 50.0, 100.0, 200.0])
    vals = np.array([abs(symbol(f, space, m, tau * xi_dir)) for tau in taus])
    if np.any(vals < 1e-250):
        raise AccuracyError("symbol values fell below 1e-250 inside the fit window")
    slopes = np.diff(np.log(vals)) / np.diff(np.log(taus))
    return {
        "m": [float(v) for v in m],
        "taus": [float(v) for v in taus],
        "abs_symbol": [float(v) for v in vals],
        "band_slopes": [float(v) for v in slopes],
    }


def check_symbol_decay(f, space, m, tol_slope=-8.0, by_tau=100.0):
    """Pass iff every octave band at or beyond by_tau has slope below
    tol_slope (super-polynomial decay off the fixed points)."""
    probe = decay_probe(f, space, m)
    bands = [
        (lo, hi, sl)
        for lo, hi, sl in zip(probe["taus"][:-1], probe["taus"][1:], probe["band_slopes"])
        if hi >= by_tau
    ]
    worst = max(sl for _, _, sl in bands)
    return CheckReport(
        check="symbol-decay",
        params={"f": f.label, "space": repr(space), "m": probe["m"], "by_tau": by_tau},
        lhs=worst,
        rhs=tol_slope,
        tolerance=abs(tol_slope),
        anchor="Thm2",
        extra=probe,
        residual=worst - tol_slope,
        passed=worst < tol_slope,
    )


# ---------------------------------------------------------------------------
# Local integrability of the kernel


def local_integrability_check(f, levels=8):
    """Dyadic estimate of the double integral of |K_f| over [-R, R]^2, R = 1.

    Level j integrates over 2^{-j} R < |m| <= R; the inner m' integral is
    taken on the grid m' = m (1 - u), where |K_f| d m' = |Atilde(u)| d u
    (atilde_closed), so each level is a finite 2D grid sum.  The level
    increments must shrink geometrically for the integral to exist."""
    R, ratio_bound, m_pts, u_pts = 1.0, 0.75, 64, 512
    totals = []
    for j in range(1, levels + 1):
        eps = R * 2.0 ** (-j)
        # geometric m-grid resolves the 1/|m| scale; symmetry doubles it
        edges = np.linspace(math.log(eps), math.log(R), m_pts + 1)
        mids = np.exp(0.5 * (edges[1:] + edges[:-1]))
        hw = np.diff(np.exp(edges))
        # integral over |m'| <= R of |K| d m' = integral |Atilde(u)| du over
        # the u-window (m - R)/m .. (m + R)/m (m > 0 here), one row per m
        uu = np.linspace((mids - R) / mids, (mids + R) / mids, u_pts, axis=-1)
        mass = np.trapezoid(np.abs(atilde_closed(f, 1.0, uu)), uu, axis=-1)
        totals.append(2.0 * float(np.sum(hw * mass)))
    inc = np.diff(np.asarray(totals))
    ratios = [float(inc[i + 1] / inc[i]) if inc[i] > 0 else 0.0 for i in range(len(inc) - 1)]
    worst = max(ratios) if ratios else 0.0
    if inc.size and np.any(inc < -1e-12):
        raise NonConvergence("level sums decreased; grid refinement is inconsistent")
    return CheckReport(
        check="kernel-integrability",
        params={"f": f.label, "R": R, "levels": levels},
        lhs=worst,
        rhs=ratio_bound,
        tolerance=ratio_bound,
        anchor="Lem2",
        extra={"levels": totals, "increments": [float(v) for v in inc], "ratios": ratios},
        residual=worst / ratio_bound,
        passed=worst < ratio_bound,
    )

