"""The Euler-operator heat semigroup on the multiplicative half line.

The generator is Omega = x^2 d^2/dx^2 + x d/dx, conjugate to d^2/dr^2
under x = e^r, so the semigroup kernel is a Gaussian in log x:

    K_t(x) = c_t e^{-(log x)^2 / (4t)},

with c_t = (4 pi t)^{-1/2}: unit mass for d x/x, and the semigroup law
holds.  The printed normalization c_t = (2 pi t)^{-1/2} is exactly
sqrt(2) times this one, so the helpers compute only the corrected
kernel, and heat_group_function and the checks on S_t alone multiply by
variant_scale(variant), 1 or sqrt(2), once per application of S_t; the
kernel checks read the group function, which carries the factor.
The variants are never reconciled silently; every check reports which
one it ran under.

The associated group convolution has Schwartz kernel
S_t(x, y) = K_t(x/y)/|y| on xy > 0 (zero otherwise), the closed
symbolkern.kernel_closed of heat_group_function(t), and symbol
s_t(x, xi) = e^{-i x xi} fhat_t(-x xi) with
fhat_t(chi) = integral_0^inf K_t(y) e^{-i y chi} dy / y (K_t(1/y) =
K_t(y)).  For chi > 0 the contour shift log y = u + i pi/2
turns the oscillatory transform into the absolutely convergent

    fhat_t(chi) = c_t e^{pi^2/(16 t)} integral e^{-u^2/4t}
                  e^{i pi u / (4 t)} e^{-chi e^u} du,

which exhibits the super-polynomial decay in chi directly; chi < 0
follows by conjugation (K_t is real).  fhat_many computes this
transform; the symbol s_t is symbolkern.symbol of heat_group_function(t),
whose hat1d is fhat_many.
"""

from __future__ import annotations

import math

import numpy as np

from . import funceq, phspace, quad, symbolkern, testfn
from .errors import AccuracyError, DomainError
from .report import CheckReport, label_number, worst

VARIANTS = ("printed", "corrected")


def variant_scale(variant):
    """The factor of one application of S_t under the named variant: 1
    corrected, sqrt(2) printed (c_t = (2 pi t)^{-1/2})."""
    if variant not in VARIANTS:
        raise DomainError(f"variant must be one of {VARIANTS}")
    return math.sqrt(2.0) if variant == "printed" else 1.0


def prefactor(t):
    """c_t = (4 pi t)^{-1/2}."""
    if t <= 0:
        raise DomainError("t must be positive")
    return (4.0 * math.pi * t) ** -0.5


def langlands_kernel(t, x):
    """K_t(x) = c_t e^{-(log x)^2/(4t)}, x > 0."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise DomainError("the kernel lives on x > 0")
    r = np.log(x)
    return prefactor(t) * np.exp(-r * r / (4.0 * t))


def l1_norm(t):
    """integral of K_t d x/x, which is 1."""
    return prefactor(t) * 2.0 * math.sqrt(math.pi * t)


# ---------------------------------------------------------------------------
# Test functions in logarithmic coordinates


class LogTestFunction:
    """phi(x) = g(log x) for x > 0, 0 for x <= 0, with g a polynomial
    times Gaussian profile (exact derivatives, hence exact Omega)."""

    def __init__(self, profile, label):
        self.profile = profile
        self.label = label
        self.decay = testfn.Decay("other")

    def __call__(self, x):
        # QUADPACK passes one float per node: it goes straight to the
        # profile, with the bits and types of the array route, whose 0-d
        # array work costs seven times the arithmetic; NaN takes that route
        if isinstance(x, float) and x == x:
            if x <= 0.0:
                return np.float64(0.0)
            v = np.complex128(self.profile(np.log(np.float64(x))))
            return v.real if v.imag == 0.0 else v
        return testfn._evaluate(self._eval, 1, x)

    def _eval(self, xa):
        out = np.zeros(xa.shape, dtype=complex)
        pos = xa > 0.0
        if np.any(pos):
            out[pos] = np.asarray(self.profile(np.log(xa[pos])), dtype=complex)
        return out.real if np.all(out.imag == 0.0) else out

    def omega(self):
        """Omega phi expressed in the same family: (x^2 d_x^2 + x d_x)
        phi(x) = g''(log x)."""
        return LogTestFunction(self.profile.derivative(2), label=f"omega({self.label})")


def log_gaussian(a, scale=1.0):
    """phi(x) = scale * e^{-a (log x)^2} on x > 0."""
    if a <= 0:
        raise DomainError("rate must be positive")
    return LogTestFunction(testfn.PolyGauss1D([scale], a), label=f"loggauss:a={label_number(a)}")


def log_gaussian_image(a, t):
    """Closed form of S_t applied to log_gaussian(a): Gaussian convolution
    in r = log x gives (1 + 4 a t)^{-1/2} e^{-a r^2/(1 + 4 a t)}."""
    sig = 1.0 + 4.0 * a * t
    return log_gaussian(a / sig, scale=1.0 / math.sqrt(sig))


# ---------------------------------------------------------------------------
# Semigroup action


def apply(t, phi, x):
    """S_t phi(x): c_t integral e^{-r^2/4t} phi(x e^{-r}) dr for x != 0,
    and |K_t|_{L1} phi(0) at x = 0."""
    if not hasattr(phi, "decay"):
        raise DomainError("apply needs a decaying test function (decay certificate required)")
    x = float(x)
    if x == 0.0:
        return l1_norm(t) * complex(phi(0.0))
    c = prefactor(t)
    R = math.sqrt(4.0 * t * 45.0) + 3.0

    def integrand(r):
        return np.exp(-r * r / (4.0 * t)) * np.asarray(phi(x * np.exp(-r)))

    res = quad.integrate_1d(integrand, -R, R, tol=1e-11)
    val = c * complex(res.value)
    return val.real if val.imag == 0.0 else val


def _two_step(t, s, phi, xs, order):
    """S_t(S_s phi) on the grid xs by one tensor Gauss-Hermite rule:
    with r = 2 sqrt(t) z and u = 2 sqrt(s) z', the double integral
    c_t c_s integral e^{-r^2/4t} e^{-u^2/4s} phi(x e^{-r-u}) dr du
    becomes 4 sqrt(ts) c_t c_s sum w_i w_j phi(x e^{-r_i-u_j})."""
    z, w = quad.gauss_hermite(order)
    xs = np.asarray(xs)
    inner = np.exp(-2.0 * math.sqrt(s) * z)
    total = np.zeros(len(xs), dtype=complex)
    # one phi call per row of the tensor rule (all u nodes at one r node)
    # keeps the working arrays, and so peak memory, small
    for zi, wi in zip(z, w):
        y = np.outer(xs * math.exp(-2.0 * math.sqrt(t) * zi), inner)
        total += wi * (np.asarray(phi(y), dtype=complex) @ w)
    return 4.0 * math.sqrt(t * s) * prefactor(t) * prefactor(s) * total


def semigroup_check(t, s, phi, xs, variant="corrected", tol=1e-6):
    """Max-grid residual of S_t(S_s phi) vs S_{t+s} phi.  The corrected
    variant must satisfy the law; the printed one composes to sqrt(2)
    times the one-step operator (the two-step side carries variant_scale
    squared, the one-step side carries it once), and the measured ratio
    is reported.

    The two sides take independent routes: the two-step side is a tensor
    Gauss-Hermite rule, checked against the rule with half the nodes, and
    the one-step side is the adaptive apply.  A phi too rough for the
    fixed rule raises AccuracyError rather than report a wrong value."""
    scale = variant_scale(variant)
    xs = [float(x) for x in np.atleast_1d(xs)]
    inner_tol = 1e-11
    ones = [scale * complex(apply(t + s, phi, x)) for x in xs]
    twos = scale ** 2 * _two_step(t, s, phi, xs, 128)
    gap = np.abs(twos - scale ** 2 * _two_step(t, s, phi, xs, 64))
    if np.any(gap > inner_tol * np.abs(twos)):
        k = int(np.argmax(gap / np.maximum(np.abs(twos), 1e-300)))
        raise AccuracyError(
            f"two-step Gauss-Hermite rule unresolved at x = {xs[k]}: "
            f"64 and 128 nodes differ by {gap[k]:.2e} on |value| {abs(twos[k]):.2e}"
        )
    params = {"t": t, "s": s, "variant": variant, "testfn": phi.label, "x_grid": xs}
    rows = [
        CheckReport("heat-semigroup", params, two, one, tol, anchor="Eq26", extra={"worst_x": x})
        for x, two, one in zip(xs, twos.tolist(), ones)
    ]
    ratios = [r.lhs / r.rhs for r in rows if abs(r.rhs) > 1e-300]
    rep = worst(rows)
    rep.extra["measured_ratio"] = complex(np.mean(ratios)) if ratios else complex("nan")
    return rep


def generator_check(t, phi, x, variant="corrected", tol=0.2):
    """Central time difference of S_t phi vs S_t(Omega phi) at x; the
    residual must shrink O(h^2) across the step sizes h = 1e-2, 1e-3
    (ratio about 100 for a decade in h)."""
    scale = variant_scale(variant)
    if not hasattr(phi, "omega"):
        raise DomainError("generator check needs a test function with exact Omega (log-Gaussian family)")
    omega_phi = phi.omega()
    rhs = scale * complex(apply(t, omega_phi, x))
    hs = (1e-2, 1e-3)
    resids = []
    for h in hs:
        if not (0.0 < h < t):
            raise DomainError("need 0 < h < t")
        lhs = scale * (complex(apply(t + h, phi, x)) - complex(apply(t - h, phi, x))) / (2.0 * h)
        resids.append(abs(lhs - rhs))
    ratio = resids[0] / max(resids[-1], 1e-300)
    expected = (hs[0] / hs[-1]) ** 2
    return CheckReport(
        check="heat-generator",
        params={"t": t, "x": x, "variant": variant, "testfn": phi.label, "h": list(hs)},
        lhs=ratio,
        rhs=expected,
        tolerance=tol,
        anchor="Eq25",
        extra={"residuals": resids, "omega_value": rhs},
    )


# ---------------------------------------------------------------------------
# Symbol, lacunary structure, kernel


def fhat_many(t, chis):
    """fhat_t on an array of frequencies, vectorized via the shifted
    contour for chi > 0 and conjugation for chi < 0.

    The frequencies go through in order of magnitude, in blocks of
    quad.BLOCK // (rule nodes) rows: the exponents -chi e^u of a block
    fill one buffer of at most quad.BLOCK entries, which is clipped and
    exponentiated in place, so memory does not grow with the number of
    frequencies.  Each block keeps the nodes where its smallest frequency
    is not yet suppressed below e^{-60}.

    Where the rule stops: the amplitude e^{pi^2/(16 t)} multiplies a sum
    that cancels to O(1), so the relative error is about 1e-16 times that
    amplitude.  Against adaptive oscillatory quadrature of K_t(y)/y
    (tests/oracle.py) at chi = 0.5 it is 7.7e10 at t = 0.01, 3.6e-3 at
    t = 0.02, 1.1e-7 at t = 0.03 and 8.3e-10 at t = 0.04, and
    lacunary_check refuses below t = 0.04 (see there)."""
    chis = np.asarray(chis, dtype=float)
    flat = chis.ravel()
    out = np.empty(flat.shape, dtype=complex)
    zero = flat == 0.0
    out[zero] = l1_norm(t)
    mag = np.abs(flat[~zero])
    if mag.size:
        U = math.sqrt(4.0 * t * 80.0) + 3.0
        # panel width limited by both the e^{i pi u/4t} phase rate and the
        # Gaussian envelope scale sqrt(t)
        width = min(7.5 * t, 3.0 * math.sqrt(t), 2.0)
        u, w = quad.panel_rule(-U, U, max(8, int(2.0 * U / width) + 8))
        amp = prefactor(t) * math.exp(math.pi ** 2 / (16.0 * t))
        base = w * np.exp(-u * u / (4.0 * t)) * np.exp(1j * math.pi * u / (4.0 * t))
        eu = np.exp(u)
        vals = np.empty(mag.shape, dtype=complex)
        order = np.argsort(mag, kind="stable")
        rows = max(1, quad.BLOCK // eu.size)
        buf = np.empty(min(rows, mag.size) * eu.size)
        for lo in range(0, mag.size, rows):
            sel = order[lo : lo + rows]
            # eu increases, so the kept nodes are a prefix: those where the
            # smallest frequency of the block, its first, stays above e^{-60}
            cols = int(np.count_nonzero(eu * mag[sel[0]] <= 60.0))
            expo = buf[: sel.size * cols].reshape(sel.size, cols)
            np.multiply(mag[sel, None], -eu[None, :cols], out=expo)
            # e^{-chi e^u} underflows the exp range for large chi; clip the
            # exponent at -708, where the result is still a normal double:
            # below about -708.4 numpy's exp returns subnormals on a slow
            # path (on an AVX-512 x86-64 host, 0.6 s for 4 million
            # exponents in [-745, -709] against 0.08 s at -708).  A clipped
            # entry moves by at most e^{-708} = 3.3e-308 times |base|
            np.clip(expo, -708.0, 0.0, out=expo)
            np.exp(expo, out=expo)
            vals[sel] = amp * (expo @ base[:cols])
        out[~zero] = np.where(flat[~zero] > 0.0, vals, np.conj(vals))
    return out.reshape(chis.shape)


def lacunary_check(t, variant="corrected", tol=1e-7):
    """Dual-path check of Atilde_t on 17 points y in [-1.5, 2.5] for
    heat_group_function(t, variant): the closed form K_t(1/(1-y))/(1-y)
    (symbolkern.atilde_closed) against the numerical inverse transform of
    the symbol (symbolkern.atilde_numeric), plus the lacunary support
    property Atilde = 0 for y >= 1.

    The 1e-12 support assertion lives on the closed-form path (where the
    vanishing is structural); the numeric path validates the closed form
    at the dual-path tolerance everywhere, including the support gap.  The
    Fourier rule takes the whole spectrum, so the numeric values on y >= 1
    sit at the accuracy of fhat_many (5e-14 at t = 0.1, 1e-15 from
    t = 0.25).  That accuracy also sets where the check stops (see
    fhat_many): at t = 0.01, 0.02 and 0.03 quad.inverse_fourier raises
    AccuracyError, its last two levels differing by 4.7e8, 2.9e-5 and
    9.4e-10, while t = 0.04 passes with residual 3.1e-10 and t = 0.05
    with 1.2e-11."""
    ys, support_tol = np.linspace(-1.5, 2.5, 17), 1e-12
    f = heat_group_function(t, variant)
    closed = symbolkern.atilde_closed(f, 1.0, ys)
    numeric, rule = symbolkern.atilde_numeric(f, 1.0, ys)
    scale = float(np.max(np.abs(closed))) or 1.0
    resid = np.abs(numeric - closed) / scale
    at = int(np.argmax(resid))
    peak = float(resid[at])
    above = ys >= 1.0
    closed_gap = float(np.max(np.abs(closed[above]))) if np.any(above) else 0.0
    numeric_gap = float(np.max(np.abs(numeric[above]))) if np.any(above) else 0.0
    support_ok = closed_gap < support_tol and numeric_gap < max(support_tol, tol * scale)
    return CheckReport(
        check="heat-lacunary",
        params={"t": t, "variant": variant, "y_grid": [float(y) for y in ys]},
        lhs=complex(numeric[at]),
        rhs=complex(closed[at]),
        tolerance=tol,
        anchor="EqV",
        extra={
            "max_relative_residual": peak,
            "closed_support_gap": closed_gap,
            "numeric_support_gap": numeric_gap,
            "support_vanishes": bool(support_ok),
            "rule": rule,
        },
        residual=peak,
        passed=peak < tol and support_ok,
    )


def kernel_identity_check(t, pts, variant="corrected", tol=1e-10):
    """S_t(x, y) = symbolkern.kernel_closed vs (1/|x|) Atilde_t(x, (x-y)/|x|)
    with the closed Atilde, both of heat_group_function(t, variant)."""
    f = heat_group_function(t, variant)
    params = {"t": t, "variant": variant, "points": [list(p) for p in pts]}
    rows = []
    for x, y in pts:
        lhs = symbolkern.kernel_closed(f, x, y)
        rhs = float(symbolkern.atilde_closed(f, x, (x - y) / abs(x))) / abs(x) if x != 0.0 else 0.0
        rows.append(CheckReport("heat-kernel-identity", params, lhs, rhs, tol, anchor="Eq27", extra={"worst_point": [x, y]}))
    return worst(rows)


def kernel_vs_heat_check(t, variant, tol):
    """The Schwartz kernel assembled from the symbol of the heat group
    function (symbolkern.kernel) against the closed kernel
    S_t(x, y) (symbolkern.kernel_closed), worst of four points on both
    sides of the origin."""
    f, space = heat_group_function(t, variant), phspace.scalar1d()
    pts = [(1.0, 0.5), (0.7, 1.3), (2.0, 0.5), (-1.0, -0.5)]
    params = {"t": t, "variant": variant, "points": [list(p) for p in pts]}
    rows = []
    for x, y in pts:
        K = symbolkern.kernel(f, space, x, y)
        closed = symbolkern.kernel_closed(f, x, y)
        rows.append(CheckReport("kernel-vs-heat", params, K, closed, tol, anchor="Eq27", extra={"worst_point": [x, y]}))
    return worst(rows)


def diagonal_funceq(t, zeta_s, phi, variant="corrected", tol=1e-7):
    """Functional equation of the diagonal trace densities
    s_{t,zeta}(x) = c_t |x|^zeta: both sides of the scalar functional
    equation (twopi convention) scaled by the diagonal constant
    c_t = K_t(1), the value f(1) of heat_group_function(t, variant)."""
    c = float(heat_group_function(t, variant)(1.0))
    lhs, rhs = funceq.eq12_sides(zeta_s, phi, testfn.FourierConvention.TWOPI)
    return CheckReport(
        check="heat-diagonal-funceq",
        params={"t": t, "zeta": complex(zeta_s), "variant": variant, "testfn": phi.label},
        lhs=c * lhs,
        rhs=c * rhs,
        tolerance=tol,
        anchor="Eq28",
        extra={"c_t": c},
    )


def langlands_bounds_check(ts, kappas, variant="corrected", tol=1e-8):
    """Weighted norms integral |K_t(x)| e^{kappa |log x|} dx/x against the
    closed form e^{kappa^2 t}(1 + erf(kappa sqrt(t))), both times
    variant_scale(variant), plus a fit of the qualitative bound shape
    a e^{omega t} of the norm's t-growth at fixed kappa."""
    # imported here, not at the top: a cold scipy.special import takes about
    # 0.3 s; math.erf differs at rounding level and would move this check's rows
    from scipy.special import erf

    scale = variant_scale(variant)
    params = {"variant": variant, "t_grid": list(ts), "kappa_grid": list(kappas)}
    rows, reports = [], []
    for t in ts:
        c = scale * prefactor(t)
        for k in kappas:
            if k < 0:
                raise DomainError("kappa must be nonnegative")
            R = math.sqrt(4.0 * t * 45.0) + 4.0 * k * t + 5.0
            res = quad.integrate_1d(
                lambda r: c * np.exp(-r * r / (4.0 * t) + k * abs(r)), -R, R, tol=1e-12
            )
            numeric = float(np.real(complex(res.value)))
            closed = scale * math.exp(k * k * t) * (1.0 + erf(k * math.sqrt(t)))
            rows.append({"t": t, "kappa": k, "numeric": numeric, "closed": closed})
            reports.append(
                CheckReport(
                    "heat-langlands-bounds", params, numeric, closed, tol, anchor="Eq24",
                    extra={"worst_at": [t, k]}, residual=abs(numeric - closed) / closed,
                )
            )
    # growth-shape fit at the largest kappa: log-norm vs t regression
    kmax = max(kappas)
    tv = np.asarray(ts, dtype=float)
    nv = np.array([r["numeric"] for r in rows if r["kappa"] == kmax])
    omega_fit = float(np.polyfit(tv, np.log(nv), 1)[0]) if len(tv) >= 2 else float("nan")
    rep = worst(reports)
    rep.extra.update(fitted_growth_rate=omega_fit, rows=rows)
    return rep


def heat_group_function(t, variant="corrected"):
    """K_t times variant_scale(variant), packaged for the symbol
    machinery, with the closed transform and L1 norm attached as
    oracles."""
    scale = variant_scale(variant)
    return symbolkern.GroupFunction(
        fn=lambda a: scale * np.asarray(langlands_kernel(t, a)),
        label=f"heat:t={label_number(t)},variant={variant}",
        log_decay_rate=1.0 / (4.0 * t),
        hat1d=lambda u: scale * fhat_many(t, -np.asarray(u, dtype=float)),
        l1_norm=scale * l1_norm(t),
    )
