"""Quadrature engines: radial power integrals, the tanh-sinh radial
rule of the zeta integrals, sphere rules, indefinite quadratic-form
components in hyperbolic coordinates, and 1D oscillatory Fourier
integrals on the half line by a double-exponential rule.

power_integral is the one route for integral_0^cut r^expo g(r) dr with
Re expo > -1: near r = 0 it works in u = r^(1 + Re expo), where the
powers cancel and no endpoint is singular.  The continuation of
non-integrable radial powers lives with the zeta integrals (integration
by parts for the Mellin transform, the b-function for indefinite
forms); radial_power_integral keeps one finite-difference by-parts step
as the reference route of the indefinite zeta integrals.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import AccuracyError, DomainError, NonConvergence, PoleError

# Entries of the largest temporary that one block of a batched kernel
# allocates (the Monte-Carlo oracle, the angular profile of
# SignatureGeometry, the heat symbol fhat_many, the numeric Fourier
# transforms and the Fourier rule behind them): 2^16 float64 entries are
# 512 KiB, a block that stays in cache.
BLOCK = 1 << 16


@functools.cache
def one_blas_thread(package):
    """Cap the OpenBLAS bundled with `package` (the numpy or scipy module) at
    one thread for the process: the checks are serial and their products
    small, so a woken worker only spins on a second CPU.  A threaded product
    splits over output entries: no bit changes.  Other BLAS builds are left."""
    for path in sorted((Path(package.__file__).parents[1] / f"{package.__name__}.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))  # the handle of the library already loaded
        for name in ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                     "openblas_set_num_threads64_", "openblas_set_num_threads"):
            if hasattr(lib, name):
                setter = getattr(lib, name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                break


one_blas_thread(np)  # before numpy's first threaded product: woken workers go on spinning


@dataclass
class QuadResult:
    """Value, error estimate and integrand evaluations of one quadrature."""

    value: complex
    error_estimate: float
    evaluations: int


# The 21-point Gauss-Kronrod rule of QUADPACK's qk21 on [-1, 1] (the
# constants of scipy.integrate._quad_vec._quadrature_gk21): Kronrod nodes
# and weights, and the 10-point Gauss weights of the odd-indexed nodes.
_GK21_X = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
    -0.148874338981631210884826001129720, -0.294392862701460198131126603103866,
    -0.433395394129247190799265943165784, -0.562757134668604683339000099272694,
    -0.679409568299024406234327365114874, -0.780817726586416897063717578345042,
    -0.865063366688984510732096688423493, -0.930157491355708226001207180059508,
    -0.973906528517171720077964012084452, -0.995657163025808080735527280689003,
])
_GK21_WK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
    0.147739104901338491374841515972068, 0.142775938577060080797094273138717,
    0.134709217311473325928054001771707, 0.123491976262065851077958109831074,
    0.109387158802297641899210590325805, 0.093125454583697605535065465083366,
    0.075039674810919952767043140916190, 0.054755896574351996031381300244580,
    0.032558162307964727478818972459390, 0.011694638867371874278064396062192,
])
_G10_W = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338, 0.295524224714752870173892994651338,
    0.269266719309996355091226921569469, 0.219086362515982043995534934228163,
    0.149451349150580593145776339657697, 0.066671344308688137593568809893332,
])
# integrate_1d raises NonConvergence rather than hold more intervals
_GK_INTERVALS = 400
# an interval at an end of the range is cut this fraction of its width from
# that end: the algebraic end points of the Mellin integrands resolve
# geometrically, and a smooth integrand loses two thin intervals
_GK_GRADE = 1.0 / 16.0
# an interval's roundoff floor is this multiple of its resabs
_GK_FLOOR = 50.0 * np.finfo(float).eps


def _gk21(g, lo, hi):
    """QUADPACK's qk21 on every interval (lo[i], hi[i]) with one g call on
    all their nodes, g giving a (family, nodes) block: (values, error
    estimates, roundoff floors), each (family, intervals), the family axis
    leading every product.  The error is resasc min(1, (200 |K - G| /
    resasc)^1.5), floored at 50 eps resabs, the floor returned apart."""
    c, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    vals = g((c[:, None] + half[:, None] * _GK21_X).ravel()).reshape(-1, lo.size, _GK21_X.size)
    resk = vals @ _GK21_WK
    h = np.abs(half)
    gap = np.abs(resk - vals[:, :, 1::2] @ _G10_W) * h
    resasc = np.abs(vals - 0.5 * resk[:, :, None]) @ _GK21_WK * h
    floor = _GK_FLOOR * (np.abs(vals) @ _GK21_WK) * h
    with np.errstate(divide="ignore", invalid="ignore"):
        err = np.where((resasc != 0.0) & (gap != 0.0), resasc * np.minimum(1.0, (200.0 * gap / resasc) ** 1.5), gap)
    return half * resk, np.maximum(err, floor), floor


def integrate_1d(f, a, b, tol=1e-10):
    """Integrate f on the finite range (a, b), a <= b, by globally
    adaptive Gauss-Kronrod subdivision in rounds (Gander & Gautschi, BIT 40
    (2000) 84-101) on QUADPACK's G10/K21 pair and error estimate.  f takes
    a 1-D array of nodes and returns their values, real or complex, or a
    (family, nodes) block of the values of a family of integrands: it is
    called once per round, on the 21 nodes of every interval that round
    made, so a complex integrand takes one pass.  The members of a family
    share one set of intervals (as in scipy.integrate.quad_vec) until each
    meets its own target.  Each round takes, for each member, the
    largest-error intervals whose errors add up past the excess over the
    target max(tol 1e-2, tol 1e-2 |I|), or none; a sum of errors within
    twice the roundoff floors meets the target too.  It splits the union
    of these sets in the error order of the first member that has one, so
    a lone integrand, or a member beside resolved ones (0, say), splits
    the intervals it would split alone, in the same order; when no member
    has an excess it stops.  An interval at an end of the range is cut
    _GK_GRADE of its width from that end, any other at its midpoint.
    DomainError on a range that is not finite or is reversed;
    NonConvergence past _GK_INTERVALS intervals or on a value that is not
    finite, never a warning.  Returns QuadResult, with arrays of values
    and error estimates for a family; evaluations counts the nodes handed
    to f."""
    lo, hi = float(a), float(b)
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise DomainError(f"adaptive quadrature needs a finite range a <= b, got ({a}, {b})")
    count, shape = 0, ()

    def g(t):
        nonlocal count, shape
        count += t.size
        v = np.asarray(f(t))
        shape = v.shape[:-1]
        return v.reshape(-1, t.size)

    eps = tol * 1e-2
    left, right = np.array([lo]), np.array([hi])
    val, err, floor = _gk21(g, left, right)
    while True:
        total = val.sum(axis=1)
        if not np.isfinite(total).all():
            raise NonConvergence(f"quadrature on ({a}, {b}) met a value that is not finite")
        # max(eps, eps |I|) is eps max(1, |I|) exactly
        excess = err.sum(axis=1) - np.maximum(eps * np.maximum(1.0, np.abs(total)), 2.0 * floor.sum(axis=1))
        todo = (excess > 0.0).nonzero()[0]
        if not todo.size:
            break
        # each unresolved member's greedy set: its largest errors, up to the
        # first at which their running sum passes its excess (the negated
        # errors, sorted, are the errors in that order)
        neg = -err[todo]
        order = neg.argsort(axis=1, kind="stable")
        neg.sort(axis=1)
        ranks = ((-neg).cumsum(axis=1) <= excess[todo, None]).sum(axis=1)
        keep = np.ones(err.shape[1], dtype=bool)
        keep[order[np.arange(err.shape[1]) <= ranks[:, None]]] = False
        # the union of the sets, in the error order of the first member
        split = order[0][~keep[order[0]]]
        if left.size == 1:
            # the first split, the one that meets both ends: (lo, hi) in three
            new_l = np.array([lo, lo + _GK_GRADE * (hi - lo), hi - _GK_GRADE * (hi - lo)])
            new_r = np.array([new_l[1], new_l[2], hi])
        else:
            # each later interval in two, graded off the end of (lo, hi)
            # that it touches, else at its midpoint
            sl, sr = left[split], right[split]
            cut = np.where(sl == lo, sl + _GK_GRADE * (sr - sl), np.where(sr == hi, sr - _GK_GRADE * (sr - sl), 0.5 * (sl + sr)))
            new_l, new_r = np.stack([sl, cut], axis=1).ravel(), np.stack([cut, sr], axis=1).ravel()
        if keep.sum() + new_l.size > _GK_INTERVALS:
            raise NonConvergence(
                f"quadrature on ({a}, {b}) needs more than {_GK_INTERVALS} intervals: "
                f"error estimate {err.sum():.2e} against {eps:.2e} absolute and relative"
            )
        nv, ne, nf = _gk21(g, new_l, new_r)
        left, right = np.concatenate([left[keep], new_l]), np.concatenate([right[keep], new_r])
        val = np.concatenate([val.compress(keep, axis=1), nv], axis=1)
        err = np.concatenate([err.compress(keep, axis=1), ne], axis=1)
        floor = np.concatenate([floor.compress(keep, axis=1), nf], axis=1)
    if not shape:  # a lone integrand: Python numbers
        value = complex(total[0])
        return QuadResult(value.real if value.imag == 0.0 else value, float(err.sum()), count)
    return QuadResult(total if np.any(total.imag) else total.real, err.sum(axis=1), count)


def _head_integrand(g, expo):
    """r^expo g(r) dr near r = 0 for Re expo < 0, as an integrand in
    u = r^(1 + Re expo): with r = u^p, p = 1 / (1 + Re expo), it is
    p g(u^p) u^(i p Im expo), since r^(Re expo) u^(p - 1) = 1.  The
    powers are cancelled, not computed, and a complex phase is built from
    log u, as in _radial_levels: u^p underflows to 0 at small u once
    p is large, and 0^expo raises."""
    p = 1.0 / (1.0 + expo.real)
    if expo.imag == 0.0:
        return lambda u: p * g(u ** p)
    return lambda u: p * g(u ** p) * np.exp(1j * p * expo.imag * np.log(u))


def power_integral(g, expo, cut, tol, wavelength=None):
    """integral_0^cut r^expo g(r) dr for Re expo > -1, smooth g and a
    finite cut, or arrays for a family g (integrate_1d).  With Re expo >= 0
    and no wavelength it is one adaptive integral.  Otherwise it is a head
    on (0, min(1, cut)), taken in u = r^(1 + Re expo) (_head_integrand)
    when Re expo < 0, plus a body on the rest.

    A uniformly oscillatory g (the transform of a compactly supported
    function; wavelength set) goes on fixed Gauss-Legendre panels sized
    to the oscillation wavelength.  Adaptive subdivision is hopeless
    there: the integrand oscillates hundreds of times across the tail,
    so the grid is fixed up front and checked by panel doubling.  The
    head stays adaptive when Im expo != 0: its phase u^(i p Im expo)
    turns without bound as u -> 0, which no panel width resolves (fixed
    panels leave Eq12 on a bump at s = 0.45 + 0.2i off by 2.2e-4).
    Otherwise both parts are adaptive.  The error estimate is the sum of
    the parts' estimates: integrate_1d's, or the gap of panel doubling."""
    expo = complex(expo)
    if expo.real <= -1.0:
        raise DomainError(f"power integral needs Re expo > -1 (integrability), got {expo}")

    def integrand(r):
        return r ** expo * g(r)

    if not wavelength and expo.real >= 0.0:
        return integrate_1d(integrand, 0.0, cut, tol=tol)
    if wavelength:
        # the oscillation only slows down in u, so the wavelength bound stays valid
        head_rule = lambda f, lo, hi: panel_integral(f, lo, hi, panel_width=min(0.25, wavelength / 4.0))
        if expo.imag != 0.0:
            head_rule = lambda f, lo, hi: integrate_1d(f, lo, hi, tol=tol)
        # a body panel spans at most two wavelengths: 16 Gauss-Legendre nodes
        # integrate a unit tone there within 1e-15 (within 3e-14 over three)
        body_rule = lambda f, lo, hi: panel_integral(f, lo, hi, panel_width=min(2.0, 2.0 * wavelength))
    else:
        head_rule = body_rule = lambda f, lo, hi: integrate_1d(f, lo, hi, tol=tol)
    head_end = min(1.0, cut)
    if expo.real < 0.0:
        head = head_rule(_head_integrand(g, expo), 0.0, head_end ** (1.0 + expo.real))
    else:
        head = head_rule(integrand, 0.0, head_end)
    total, err, neval = head.value, head.error_estimate, head.evaluations
    if cut > head_end:
        body = body_rule(integrand, head_end, cut)
        total = total + body.value
        err = err + body.error_estimate
        neval += body.evaluations
    return QuadResult(total.real if np.all(np.imag(total) == 0.0) else total, err, neval)


def sum_squares(x):
    """Sum of x * x over the short trailing axis, accumulated column by
    column: bit-identical to np.sum(x * x, axis=-1) for fewer than 8
    columns, and several times faster than numpy's reduction there."""
    acc = x[..., 0] * x[..., 0]
    for j in range(1, x.shape[-1]):
        acc = acc + x[..., j] * x[..., j]
    return acc


@functools.cache
def gauss_legendre(order):
    """Cached Gauss-Legendre nodes and weights on [-1, 1]."""
    return np.polynomial.legendre.leggauss(int(order))


@functools.cache
def gauss_hermite(order):
    """Cached Gauss-Hermite nodes and weights for the weight e^{-z^2} on R."""
    return np.polynomial.hermite.hermgauss(int(order))


# Gauss-Legendre nodes on each panel of panel_rule and panel_integral
PANEL_ORDER = 16


def panel_rule(a, b, npanel):
    """Nodes and weights of composite Gauss-Legendre on npanel equal
    panels of the finite interval [a, b], one row each for an array b."""
    x, w = gauss_legendre(PANEL_ORDER)
    edges = np.linspace(a, b, npanel + 1, axis=-1)
    mid = 0.5 * (edges[..., 1:] + edges[..., :-1])
    half = 0.5 * (edges[..., 1:] - edges[..., :-1])
    shape = mid.shape[:-1] + (-1,)
    return (mid[..., None] + half[..., None] * x).reshape(shape), (half[..., None] * w).reshape(shape)


def panel_integral(f, a, b, panel_width):
    """Composite Gauss-Legendre integration on fixed panels.

    Suited to uniformly oscillatory integrands where adaptive subdivision
    thrashes; f must accept a 1D array of nodes.  The error estimate is
    the disagreement with a doubled panel count."""
    if not (np.isfinite(a) and np.isfinite(b)):
        raise DomainError("panel integration needs finite endpoints")

    def run(npanel):
        nodes, wts = panel_rule(a, b, npanel)
        return complex(np.sum(wts * np.asarray(f(nodes), dtype=complex)))

    npanel = max(4, int(math.ceil((b - a) / panel_width)))
    v1 = run(npanel)
    v2 = run(2 * npanel)
    value = v2.real if v2.imag == 0.0 else v2
    return QuadResult(value, abs(v2 - v1), 3 * npanel * PANEL_ORDER)


# Tanh-sinh rule of _radial_levels, shared by the radial integrals of the
# zeta integrals of every kind (zeta.zeta_local), on abscissae
# |t| <= _DE_TMAX: the step starts at _DE_H0 and halves, keeping every
# earlier node.  At |t| = _DE_TMAX the node sits e^{-pi sinh(_DE_TMAX)}
# (about 1e-37) of the interval from an end.
_DE_H0 = 0.5
_DE_TMAX = 4.0


@functools.cache
def _tanh_sinh_level(level):
    """Nodes and weights on [0, 1] of the tanh-sinh abscissae first used
    at this level (all of them at level 0, the odd multiples of the step
    after); the weights leave out the step."""
    h = _DE_H0 / 2 ** level
    k = np.arange(-int(_DE_TMAX / h), int(_DE_TMAX / h) + 1)
    t = k * h if level == 0 else k[k % 2 == 1] * h
    x = 0.5 * math.pi * np.sinh(t)
    # u = (1 + tanh x) / 2, written so that nodes near 0 keep their digits
    u = 1.0 / (1.0 + np.exp(-2.0 * x))
    w = 0.25 * math.pi * np.cosh(t) / np.cosh(x) ** 2
    return u, w


def _radial_levels(rows, expo, cut, tol, levels):
    """integral_0^cut r^expo v(r) dr for every row v of the (rows, radii)
    block rows(r) at the radii r of one level (each row its own (1, radii)
    product, with the bits of v @ w), on the tanh-sinh rule in
    u = r^(1 + Re expo): r = u^p with p = 1 / (1 + Re expo) turns r^expo dr
    into p r^(i Im expo) du.  The step halves until, for every v, two levels
    agree within tol of its L1 mass, else AccuracyError after `levels`
    halvings.  Returns (last level, previous level, L1 masses at the last
    level, radial nodes)."""
    p = 1.0 / (1.0 + expo.real)
    span = cut ** (1.0 + expo.real)
    sums, mass, prev, nodes = 0.0, 0.0, None, 0
    for level in range(levels + 1):
        u01, w01 = _tanh_sinh_level(level)
        w = span * p * w01
        if expo.imag != 0.0:
            # r^(i Im expo) from log r: r itself underflows to 0 at the
            # end nodes once p is large, and 0^(i y) is nan
            w = w * np.exp(1j * expo.imag * p * np.log(span * u01))
        vals = np.asarray(rows((span * u01) ** p))[:, None, :]
        sums = sums + (vals @ w)[:, 0]
        mass = mass + (np.abs(vals) @ np.abs(w))[:, 0]
        nodes += u01.size
        h = _DE_H0 / 2 ** level
        cur = h * sums
        if prev is not None:
            gaps = np.abs(cur - prev)
            if np.all(gaps <= tol * h * mass):
                return cur, prev, h * mass, nodes
        prev = cur
    worst = float(np.max(gaps / np.maximum(h * mass, 1e-300)))
    raise AccuracyError(
        f"tanh-sinh radial rule unresolved after {levels} halvings: "
        f"the last two levels differ by {worst:.2e} of the L1 mass of the worst integrand"
    )


# Half-line Fourier integrals by the double-exponential rule of Ooura & Mori
# (J. Comput. Appl. Math. 38 (1991) 353-360): x = M phi(t) / |w|, M = pi / h,
# phi(t) = t / (1 - e^{-6 sinh t}), sine part at t = n h, cosine part at
# t = (n + 1/2) h.  For large t the nodes fall on the zeros of the oscillation,
# so no cut in x is needed.  |w| <= _OM_TINY takes the exp-sinh rule instead.
_OM_TMAX, _ES_TMAX, _OM_TINY, _OM_H0, _OM_LEVELS, _OM_TOL = 3.0, 4.5, 1e-9, 0.1, 4, 1e-10


@functools.cache
def _ooura_mori(h):
    """Nodes p and weights v at unit frequency, with weights below 1e-18 of
    the largest dropped: integral_0^inf G(x) e^{-ix} dx ~ sum v G(p)."""
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
    return (m * phi)[keep], v[keep]


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
        # one F call per level on every offset's nodes, not blocks of BLOCK:
        # the callers pass at most 17 offsets, some 14k nodes at h = 0.0125
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


def sphere_quadrature(n, order, rotated):
    """Quadrature nodes and weights on S^{n-1} with total weight equal to
    the surface measure (2 for n=1, 2 pi for n=2, 4 pi for n=3): the two
    points of S^0, the trapezoidal rule on max(4, 2 order) equally spaced
    angles of the circle, and on S^2 order Gauss-Legendre heights times
    2 order azimuths.  The rotated rule shares no node with the plain one
    of any order: its circle angles sit a third of a step off (a half step
    would make it the odd half of the plain rule of twice its order), and
    its polar axis on S^2 lies along m_1 instead of m_3."""
    if n == 1:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    if n == 2:
        m = max(4, 2 * order)
        th = 2.0 * math.pi * (np.arange(m) + (1.0 / 3.0 if rotated else 0.0)) / m
        pts = np.stack([np.cos(th), np.sin(th)], axis=-1)
        return pts, np.full(m, 2.0 * math.pi / m)
    if n == 3:
        z, wz = gauss_legendre(order)
        m = 2 * order
        th = 2.0 * math.pi * np.arange(m) / m
        rho = np.sqrt(1.0 - z ** 2)
        axes = [np.outer(rho, np.cos(th)).ravel(), np.outer(rho, np.sin(th)).ravel(), np.outer(z, np.ones(m)).ravel()]
        pts = np.stack(axes[2:] + axes[:2] if rotated else axes, axis=-1)
        w = np.outer(wz, np.full(m, 2.0 * math.pi / m)).ravel()
        return pts, w
    raise DomainError("sphere quadrature supports n <= 3")


# Cap of angular_doubling: the rule gives up before a product of sphere
# rules would exceed this many nodes (order 64 on S^2, 4096 on a circle).
_ANGULAR_NODES = 1 << 13


def angular_doubling(dims, run, angle, tol):
    """The one rule that sets the order of the sphere rules: run(order)
    returns (value, L1 mass, ...) of a sum over the product of sphere rules
    on S^{d-1}, d in dims, at that order.  The order doubles until two
    successive values agree within tol of the later mass, and
    AccuracyError is raised before the nodes would pass _ANGULAR_NODES.
    S^0 factors are exact: with no factor of dimension 2 or more, run(0)
    is the one run.  The first order is the least power of two (2 at least)
    whose node spacing pi / order lies below half the angle a support off
    the origin subtends (2 pi for any other support), so that the first
    two orders cannot both miss it and agree at 0.

    Returns (the last run's return, the gap between the last two values,
    the coarser of their orders), so that a reference on the returned
    order is resolved to within the gap (the value is the finer one's).
    The order is 0 when no doubling ran.  Exponential convergence of the
    circle's trapezoidal rule: Trefethen & Weideman, SIAM Rev. 56 (2014)
    385-458."""
    dims = [d for d in dims if d >= 2]
    if not dims:
        return run(0), 0.0, 0
    order = 2
    while math.pi / order >= 0.5 * angle:
        order *= 2
    prev, gap = None, math.inf
    while math.prod(sphere_quadrature(d, order, False)[1].size for d in dims) <= _ANGULAR_NODES:
        out = run(order)
        if prev is not None:
            gap = float(abs(out[0] - prev[0]))
            if gap <= tol * out[1]:
                return out, gap, order // 2
        prev = out
        order *= 2
    if prev is None:
        raise AccuracyError(f"the support's angle {angle:.2e} needs more than {_ANGULAR_NODES} sphere nodes")
    raise AccuracyError(
        f"angular rule unresolved below {_ANGULAR_NODES} nodes: orders {order // 4} and {order // 2} "
        f"differ by {gap:.2e} on an L1 mass of {prev[1]:.2e}"
    )


# ---------------------------------------------------------------------------
# Indefinite quadratic forms in hyperbolic polar coordinates

# Panel edges of the u rule, as distances below the truncation point: width
# 1/2 across the top 4 units, where the gaussian decay sets in, then each
# panel half as wide as its distance from the top.  Below the top the
# integrand is a smooth function of r e^u that only grows or shrinks
# exponentially, which 12-point Gauss-Legendre panels of that width resolve
# to rounding; the panel count grows like log log(1/r) as r -> 0, not like
# log(1/r) as on equal panels.
_U_EDGES = np.concatenate([np.arange(0.0, 4.0, 0.5), 4.0 * 1.5 ** np.arange(16)])


def _signature_diagonal(space, sheet):
    """The diagonal of B of an indefinite space, whose phspace.indefinite
    holds B diagonal, invertible and of signature (q, n - q); the one
    check of the hyperbolic routes is that sheet is one of its components
    ('plus' or 'minus'), which refuses the scalar and definite kinds."""
    if space.kind != "indefinite" or sheet not in space.components:
        raise DomainError(f"sheet {sheet!r} is not a component of an indefinite space: {space!r}")
    return np.diag(space.Bmat)


class SignatureGeometry:
    """Hyperbolic polar parametrization of the component sheet of an
    indefinite space {m : sign(m^T B m) fixed}, B diagonal.

    In standardized coordinates x (m = D x with D = diag(|b_i|^{-1/2}))
    the component with k cosh-like directions and j = n - k sinh-like
    ones is x = r (cosh u * omega_k, sinh u * omega_j) with
    |x^T I_{k,j} x| = r^2 and |x|^2 = r^2 cosh(2u) exactly.  The measure
    is r^{n-1} (cosh u)^{k-1} (sinh u)^{j-1} dr du d omega_k d omega_j
    with u over (0, inf); for j = 1 the sphere S^0 = {+1, -1} covers
    the negative u.  omega_k and omega_j run on
    sphere_quadrature(., order, rotated).
    """

    def __init__(self, space, sheet, order, rotated):
        d = _signature_diagonal(space, sheet)
        self.n = space.n
        self.Dscale = 1.0 / np.sqrt(np.abs(d))
        self.detfac = float(np.prod(self.Dscale))
        pos, neg = np.where(d > 0)[0], np.where(d < 0)[0]
        self.cosh_idx, self.sinh_idx = (pos, neg) if sheet == "plus" else (neg, pos)
        self.k = len(self.cosh_idx)
        self.j = len(self.sinh_idx)
        self.omega_k, self.wk = sphere_quadrature(self.k, order, rotated)
        self.omega_j, self.wj = sphere_quadrature(self.j, order, rotated)

    def profile(self, g, r, decay_rate):
        """(H, points): H(r) = r * F(r) at every radius of the 1D array r,
        F(r) the full angular integral of g at radius r, so that the
        component integral is integral of r^{2w + n - 2} H(r) dr times
        detfac.  The u integral runs on graded Gauss-Legendre panels
        (_U_EDGES) up to where the gaussian decay of g bounds the tail
        by e^{-42}.  Every u-node of every radius goes to g together, in
        calls of BLOCK // (nk nj n) u-nodes, so that the point array holds
        at most BLOCK entries; each call's u-nodes and their arrays are
        built from the whole panels that hold them.  points counts the
        points."""
        # 42 / r^2 below overflows under |r| ~ 1e-154: radii are held at
        # 1e-150 (sign kept), where H has reached H(0+) to rounding
        r = np.asarray(r, dtype=float)
        r = np.copysign(np.maximum(np.abs(r), 1e-150), r)
        rr = np.abs(r)
        umax = 0.5 * np.arccosh(1.0 + 42.0 / (decay_rate * rr * rr)) + 0.5
        npanel = np.searchsorted(_U_EDGES, umax)
        owner = np.repeat(np.arange(r.size), npanel)
        within = np.arange(owner.size) - np.repeat(np.cumsum(npanel) - npanel, npanel)
        top = umax[owner]
        dlo, dhi = _U_EDGES[within], np.minimum(_U_EDGES[within + 1], top)
        half = 0.5 * (dhi - dlo)
        x, wx = gauss_legendre(12)
        mid, rp = top - 0.5 * (dlo + dhi), r[owner]
        nodes = owner.size * x.size
        nk, nj = len(self.wk), len(self.wj)
        wkj = (self.wk[:, None] * self.wj[None, :]).ravel()
        rows = max(1, BLOCK // (nk * nj * self.n))
        parts = []
        for lo in range(0, nodes, rows):
            # the whole panels that hold the block's u-nodes, cut to them
            hi = min(lo + rows, nodes)
            a, b = lo // x.size, -(-hi // x.size)
            cut = slice(lo - a * x.size, hi - a * x.size)
            u = mid[a:b, None] + half[a:b, None] * x
            cu, su = np.cosh(u), np.sinh(u)
            ang = (cu ** (self.k - 1) * su ** (self.j - 1) * (half[a:b, None] * wx)).ravel()[cut]
            rc, rs = (rp[a:b, None] * cu).ravel()[cut], (rp[a:b, None] * su).ravel()[cut]
            # the two sheet factors fill every coordinate, each scaled by D as it is written
            pts = np.empty((rc.size, nk, nj, self.n))
            pts[..., self.cosh_idx] = rc[:, None, None, None] * self.omega_k[None, :, None, :] * self.Dscale[self.cosh_idx]
            pts[..., self.sinh_idx] = rs[:, None, None, None] * self.omega_j[None, None, :, :] * self.Dscale[self.sinh_idx]
            parts.append((np.asarray(g(pts)).reshape(rc.size, nk * nj) @ wkj) * ang)
        per_node = np.concatenate(parts)
        F = np.add.reduceat(per_node, np.cumsum(npanel * x.size) - npanel * x.size)
        return r * F, nodes * nk * nj

    @staticmethod
    def radial_cutoff(decay_rate):
        """Radius past which the gaussian decay of g leaves nothing."""
        return math.sqrt(45.0 / decay_rate) + 2.0

    def angular_profile(self, g, decay_rate):
        """H(r) of profile at every radius of the 1D array r, in one call."""
        return lambda r: self.profile(g, r, decay_rate)[0]


def radial_power_integral(H, beta, r_max, tol, depth=0):
    """integral_0^inf r^beta H(r) dr for smooth H with H(0) = 0 allowed,
    continued to -2 < Re beta <= -1 by one integration by parts (the
    derivative of H by 4th-order differences with step 1e-3).  This
    stencil is the reference route of the indefinite zeta integrals."""
    beta = complex(beta)
    if depth > 1:
        raise DomainError("the finite-difference continuation takes one step only (Re beta > -2)")
    if abs(beta + 1.0) < 1e-9:
        raise PoleError(f"radial power integral has a pole at beta = -1 (beta = {beta})")
    if beta.real > -1.0:
        return power_integral(H, beta, r_max, tol).value
    h = 1e-3

    def Hp(r):
        # H needs only to be smooth on (0, inf); near 0 a one-sided
        # stencil avoids sampling across the origin, where hyperbolic
        # angular profiles are sign-odd with a jump.  One H call takes the
        # five radii r + k h of every r: k = -2..2, or 0..4 one-sided.
        r = np.asarray(r, dtype=float)
        near = r < 2.5 * h
        shift = np.where(near[:, None], np.arange(5), np.arange(-2, 3)) * h
        v = np.asarray(H((r[:, None] + shift).ravel())).reshape(r.size, 5).T
        central = (-v[4] + 8.0 * v[3] - 8.0 * v[1] + v[0]) / (12.0 * h)
        one_sided = (-25.0 * v[0] + 48.0 * v[1] - 36.0 * v[2] + 16.0 * v[3] - 3.0 * v[4]) / (12.0 * h)
        return np.where(near, one_sided, central)

    inner = radial_power_integral(Hp, beta + 1.0, r_max, tol=tol, depth=depth + 1)
    return -inner / (beta + 1.0)


def monte_carlo_signature(g, space, sheet, w, nsamples, seed):
    """Monte-Carlo oracle for the zeta integrals of the component sheet of
    an indefinite space, using a standard gaussian proposal with density
    exactly e^{-pi |m|^2}; it reads only the diagonal of B.  Samples are
    drawn and evaluated in blocks of BLOCK // n rows, whose kept values
    and their squares are summed into running totals, so memory does not
    grow with nsamples.  Returns (estimate, standard_error)."""
    d = _signature_diagonal(space, sheet)
    n = space.n
    if nsamples < 2:
        raise DomainError(f"the Monte-Carlo oracle needs at least 2 samples, got {nsamples}")
    rng = np.random.default_rng(seed)
    sigma = 1.0 / math.sqrt(2.0 * math.pi)
    w = float(np.real(w))
    rows = max(1, BLOCK // n)
    draws = np.empty((min(rows, nsamples), n))
    total, total2 = 0.0, 0.0
    for lo in range(0, nsamples, rows):
        # the standard normal stream scaled in place: loc 0 adds nothing,
        # so these are the bits of rng.normal(0.0, sigma)
        x = draws[: min(rows, nsamples - lo)]
        rng.standard_normal(out=x)
        x *= sigma
        p = np.einsum("ij,j,ij->i", x, d, x)
        idx = np.flatnonzero(p > 0 if sheet == "plus" else p < 0)
        if idx.size:
            xm = np.take(x, idx, axis=0)
            v = np.abs(p[idx])
            v **= w
            v *= np.asarray(g(xm), dtype=float)
            v *= np.exp(math.pi * sum_squares(xm))
            total += float(np.sum(v))
            v *= v
            total2 += float(np.sum(v))
    mean = total / nsamples
    var = total2 / nsamples - mean * mean
    return mean, math.sqrt(max(var, 0.0) / nsamples)
