import ast
import inspect
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.special

from oracle import monte_carlo_signature_whole_stream, quadpack_1d
import pvzeta
from pvzeta import funceq, heatflow, homog, phspace, quad, testfn, zeta
from pvzeta.errors import AccuracyError, DomainError, NonConvergence


def test_integrate_1d_smooth():
    # e^{-x^2} is below 1e-300 past |x| = 26.3
    res = quad.integrate_1d(lambda x: np.exp(-x * x), -27.0, 27.0, tol=1e-12)
    assert abs(res.value - math.sqrt(math.pi)) < 1e-12


@pytest.mark.parametrize("a, b", [(0.0, np.inf), (-np.inf, 0.0), (-np.inf, np.inf), (0.0, np.nan), (1.0, 0.0)])
def test_integrate_1d_takes_a_finite_range_only(a, b):
    # every caller truncates at a decay or profile cutoff: an infinite,
    # undefined or reversed range is refused before f is called
    def f(x):
        raise AssertionError("f called")

    with pytest.raises(DomainError, match="finite range"):
        quad.integrate_1d(f, a, b)


def _engine_cases():
    """The integrand families the library hands integrate_1d, by name:
    (f, a, b, tol).  Each f takes an array or one float node."""
    cases = {}
    for name, g in (("gauss", testfn.gaussian(math.pi).ray([1.0])), ("hermite", testfn.hermite_gaussian(2, math.pi).ray([1.0]))):
        cut = g.cutoff(1e-16)
        # the Mellin integrands of power_integral: whole at Re expo >= 0,
        # else a head in u = r^(1 + Re expo) and a body
        cases[f"{name}-mellin-0.4"] = (lambda r, g=g: r ** complex(0.4) * g(r), 0.0, cut, 1e-11)
        for expo in (-0.7, -0.3 + 0.5j):
            expo = complex(expo)
            cases[f"{name}-head-{expo}"] = (quad._head_integrand(g, expo), 0.0, 1.0, 1e-11)
            cases[f"{name}-body-{expo}"] = (lambda r, g=g, e=expo: r ** e * g(r), 1.0, cut, 1e-11)
    # heatflow.apply's integrand at t = 0.5, x = 1.3
    phi, t, x = heatflow.log_gaussian(1.0), 0.5, 1.3
    R = math.sqrt(4.0 * t * 45.0) + 3.0
    cases["apply"] = (lambda r: np.exp(-r * r / (4.0 * t)) * np.asarray(phi(x * np.exp(-r))), -R, R, 1e-11)
    # the |r| kink of heatflow.langlands_bounds_check at t = 0.25, kappa = 0.5
    c, t, k = heatflow.prefactor(0.25), 0.25, 0.5
    R = math.sqrt(4.0 * t * 45.0) + 4.0 * k * t + 5.0
    cases["bounds-kink"] = (lambda r: c * np.exp(-r * r / (4.0 * t) + k * abs(r)), -R, R, 1e-12)
    # the log-moments of a radial cutoff
    psi = homog.make_cutoff(0.5, 2.0)
    for power in (0, 1):
        cases[f"cutoff-log-{power}"] = (lambda u, p=power: psi.eta(u) * np.log(u) ** p / u, psi.a, psi.b, 1e-12)
    # the line and the half-line, cut where the integrand is below 1e-300
    cases["line"] = (lambda y: np.exp(-(y - 0.7) ** 2) * np.cos(y), -27.0, 28.0, 1e-12)
    cases["half-line"] = (lambda y: np.exp(-y) * np.cos(3.0 * y), 1.0, 691.0, 1e-12)
    return cases


_ENGINE_CASES = _engine_cases()


@pytest.mark.parametrize("name", list(_ENGINE_CASES))
def test_integrate_1d_agrees_with_quadpack(name, capfd):
    # the same problem on QUADPACK: within both error estimates, or 1e-13;
    # the library's rule warns nothing and writes nothing to stderr
    f, a, b, tol = _ENGINE_CASES[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = quad.integrate_1d(f, a, b, tol=tol)
    assert capfd.readouterr().err == ""
    with warnings.catch_warnings():
        # QUADPACK reports roundoff on the kink, the line and a log-moment
        warnings.simplefilter("ignore")
        ref, ref_err = quadpack_1d(f, a, b, tol)
    assert abs(complex(res.value) - ref) <= max(res.error_estimate + ref_err, 1e-13), (res, ref, ref_err)


@pytest.mark.parametrize("name", ["gauss-head-(-0.7+0j)", "hermite-head-(-0.3+0.5j)", "bounds-kink", "line"])
def test_integrate_1d_calls_f_once_per_round(name, monkeypatch):
    # every round evaluates the new intervals' nodes in one call of f, on
    # a 1-D array: 21 nodes an interval
    f, a, b, tol = _ENGINE_CASES[name]
    rounds, sizes = 0, []
    rule = quad._gk21

    def counted_rule(*args):
        nonlocal rounds
        rounds += 1
        return rule(*args)

    def spy(x):
        assert type(x) is np.ndarray and x.ndim == 1 and x.dtype == float
        sizes.append(x.size)
        return f(x)

    monkeypatch.setattr(quad, "_gk21", counted_rule)
    res = quad.integrate_1d(spy, a, b, tol=tol)
    assert rounds > 1 and len(sizes) == rounds
    assert sizes[0] == 21 and all(n % 21 == 0 for n in sizes)
    assert sum(sizes) == res.evaluations


@pytest.mark.parametrize("f, err_range", [
    (lambda x: 1.0 / (1.0 + 25.0 * x * x), (1e-7, 1e-3)),  # the error formula
    (lambda x: x * x, (1e-15, 1e-14)),  # K = G: the roundoff floor 50 eps resabs
], ids=["runge", "quadratic"])
def test_one_interval_is_quadpack_qk21(f, err_range):
    # at a tolerance that the first interval meets, value and error
    # estimate are QUADPACK's qk21 on (a, b), which QUADPACK also stops at
    res = quad.integrate_1d(f, 0.0, 1.0, tol=0.1)
    ref, ref_err = quadpack_1d(f, 0.0, 1.0, 0.1)
    assert res.evaluations == 21 and err_range[0] < ref_err < err_range[1]
    # the error estimate takes K - G, which cancels: it agrees to 1e-8
    assert abs(res.value - ref.real) < 1e-15 and abs(res.error_estimate - ref_err) < 1e-8 * ref_err


def test_integrate_1d_raises_at_the_interval_cap(capfd):
    # 1/x on (0, 1) diverges: the error at 0 never falls, and the rule
    # raises NonConvergence at 400 intervals, with no warning or output
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergence, match="more than 400 intervals"):
            quad.integrate_1d(lambda x: 1.0 / x, 0.0, 1.0)
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("name", list(_ENGINE_CASES))
def test_a_family_of_one_and_a_zero_member_keep_the_bits(name):
    # a lone integrand is a family of one; a member that is 0 meets its
    # target from the start and changes no interval of the other
    f, a, b, tol = _ENGINE_CASES[name]
    alone = quad.integrate_1d(f, a, b, tol=tol)
    one = quad.integrate_1d(lambda t: np.asarray(f(t))[None], a, b, tol=tol)
    pair = quad.integrate_1d(lambda t: np.stack([np.asarray(f(t)), np.zeros(t.size)]), a, b, tol=tol)
    assert repr(complex(one.value[0])) == repr(complex(alone.value)) == repr(complex(pair.value[0]))
    assert one.error_estimate[0] == pair.error_estimate[0] == alone.error_estimate
    assert one.evaluations == pair.evaluations == alone.evaluations
    assert np.all(pair.value[1] == 0.0) and pair.error_estimate[1] == 0.0


@pytest.mark.parametrize("names", [
    ["gauss-head-(-0.7+0j)", "gauss-head-(-0.3+0.5j)", "hermite-head-(-0.7+0j)", "hermite-head-(-0.3+0.5j)"],
    ["cutoff-log-0", "cutoff-log-1"],
    ["gauss-body-(-0.7+0j)", "gauss-body-(-0.3+0.5j)"],
], ids=["heads", "log-moments", "bodies"])
def test_each_member_of_a_family_meets_its_own_target(names):
    # members of several scales on one subdivision: each lies within its
    # tolerance of QUADPACK on its own
    fs = [_ENGINE_CASES[name][0] for name in names]
    _, a, b, tol = _ENGINE_CASES[names[0]]
    res = quad.integrate_1d(lambda t: np.stack([np.asarray(f(t), dtype=complex) for f in fs]), a, b, tol=tol)
    assert res.value.shape == res.error_estimate.shape == (len(fs),)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        refs = [quadpack_1d(f, a, b, tol) for f in fs]
    for value, err, (ref, ref_err) in zip(res.value, res.error_estimate, refs):
        assert abs(value - ref) <= max(err + ref_err, 1e-13), (value, ref, err, ref_err)


def test_a_family_raises_at_the_cap_and_on_a_value_that_is_not_finite():
    with pytest.raises(NonConvergence, match="more than 400 intervals"):
        quad.integrate_1d(lambda x: np.stack([np.exp(-x), 1.0 / x]), 0.0, 1.0)
    with pytest.raises(NonConvergence, match="not finite"), np.errstate(invalid="ignore"):
        quad.integrate_1d(lambda x: np.stack([np.exp(-x), np.where(x > 0.5, np.inf, x)]), 0.0, 1.0)


def test_family_contractions_keep_each_rows_bits():
    # a (rows, N) block contracted as one 2-D product can round a row apart
    # from the same row alone (BLAS blocks the rows); with the family axis
    # leading, each row gets the bits of its own product
    pts = quad.sphere_quadrature(3, 8, False)[0]
    rays = testfn.hermite_gaussian(2, 1.3, n=3).rays(pts)
    own = [testfn.hermite_gaussian(2, 1.3, n=3).ray(om) for om in pts]
    # _gk21 on a (family, nodes) integrand
    lo, hi = np.linspace(0.0, 3.0, 7)[:-1], np.linspace(0.0, 3.0, 7)[1:]
    block = quad._gk21(rays.derivative(1), lo, hi)
    for i, g in enumerate(own):
        for got, ref in zip(block, quad._gk21(g.derivative(1), lo, hi)):
            assert np.array_equal(got[i], ref[0])
    # _radial_levels on a (rows, radii) block, at the level the block needs
    cut = float(np.max(rays.cutoff(1e-16)))
    cur, prev, mass, nodes = quad._radial_levels(rays.derivative(1), complex(-0.4), cut, 1e-12, 9)
    for i, g in enumerate(own):
        row = quad._radial_levels(lambda r: g.derivative(1)(r)[None], complex(-0.4), cut, 1e-12, 9)
        assert row[3] == nodes and (row[0][0], row[1][0], row[2][0]) == (cur[i], prev[i], mass[i])
    # homog._inner_rows on a family of rays, each on its own rule
    t, phi = np.linspace(0.5, 2.0, 5), testfn.hermite_gaussian(2, 1.3, n=3)
    rows = homog._inner_rows(phi, pts, t, rays.cutoff(1e-18), 128)
    for i, g in enumerate(own):
        assert np.array_equal(rows[i], homog._inner_rows(phi, pts[i : i + 1], t, np.atleast_1d(g.cutoff(1e-18)), 128)[0])


@pytest.mark.parametrize("expo", [-0.5, -0.999, -0.9 + 0.3j, 0.7 + 0.2j])
def test_power_integral_gamma(expo):
    # integral_0^inf r^expo e^{-r} dr = Gamma(1 + expo), cut at 700, past
    # which r^0.7 e^{-r} is below 1e-300; at Re expo = -0.999 the head's
    # r = u^1000 underflows to 0 over most of (0, 1)
    res = quad.power_integral(lambda r: np.exp(-r), expo, 700.0, 1e-11)
    exact = scipy.special.gamma(1.0 + expo)
    assert abs(res.value - exact) < 1e-13 * abs(exact)


def test_power_integral_needs_integrability():
    with pytest.raises(DomainError):
        quad.power_integral(lambda r: np.exp(-r), -1.0 + 0.5j, np.inf, 1e-11)


@pytest.mark.parametrize(
    "integrate",
    [lambda f: quad.integrate_1d(f, 0.0, 1.0)],
    ids=["integrate_1d"],
)
def test_integrand_errors_keep_their_type(integrate):
    # an integrand fault is a programming error, not NonConvergence
    def bad(x):
        raise TypeError("integrand fault")

    with pytest.raises(TypeError, match="integrand fault"):
        integrate(bad)


def test_panel_integral_matches_adaptive():
    f = lambda x: np.cos(7.0 * x) * np.exp(-x)
    ref = quad.integrate_1d(f, 0.0, 10.0, tol=1e-13).value
    res = quad.panel_integral(f, 0.0, 10.0, panel_width=0.5)
    assert abs(res.value - ref) < 1e-12
    assert res.error_estimate < 1e-10


def test_gauss_legendre_cached():
    x1, w1 = quad.gauss_legendre(16)
    x2, w2 = quad.gauss_legendre(16)
    assert x1 is x2 and w1 is w2
    assert abs(np.sum(w1) - 2.0) < 1e-14


def test_sphere_quadrature_measure():
    for n, rotated in itertools.product((1, 2, 3), (False, True)):
        pts, wts = quad.sphere_quadrature(n, 16, rotated)
        assert len(wts) == {1: 2, 2: 32, 3: 512}[n]
        surface = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}[n]
        assert abs(np.sum(wts) - surface) < 1e-10
        # integrates quadratics exactly: int omega_i omega_j = surface/n delta_ij
        g = np.einsum("ki,kj,k->ij", pts, pts, wts)
        assert np.allclose(g, np.eye(n) * surface / n, atol=1e-10)
        assert np.allclose(np.sum(pts * pts, axis=1), 1.0)


@pytest.mark.parametrize("n", [2, 3])
def test_rotated_sphere_rule_shares_no_node(n):
    # the reference side of the zeta and extension checks runs on the
    # rotated rule, so no angular node is common to the two sides
    for order in (2, 4, 8, 16):
        plain = quad.sphere_quadrature(n, order, False)[0]
        for other in (2, 4, 8, 16, 32):
            rot = quad.sphere_quadrature(n, other, True)[0]
            dist = np.min(np.linalg.norm(plain[:, None, :] - rot[None, :, :], axis=-1))
            assert dist > 1e-6, (order, other, dist)


def test_angular_doubling_runs():
    # the order doubles from 2 until two values agree within tol of the
    # mass; the coarser of the two orders is returned with the later run
    seen = []

    def run(order):
        seen.append(order)
        return 1.0 + 2.0 ** -order, 1.0, order

    out, gap, order = quad.angular_doubling((2,), run, 2.0 * math.pi, 1e-6)
    assert seen == [2, 4, 8, 16, 32, 64] and order == 32 and out[2] == 64
    assert gap == pytest.approx(2.0 ** -32)
    # S^0 factors are exact: one run at order 0
    seen.clear()
    assert quad.angular_doubling((1, 1), run, 2.0 * math.pi, 1e-6)[1:] == (0.0, 0) and seen == [0]
    # a narrow support starts at an order whose spacing pi / order is below
    # half its angle
    seen.clear()
    quad.angular_doubling((2,), run, 0.1, 1e-3)
    assert seen[0] == 64
    # past the node cap the rule raises
    with pytest.raises(AccuracyError):
        quad.angular_doubling((3,), lambda order: (float(order), 1.0), 2.0 * math.pi, 1e-6)


def test_monte_carlo_signature_consistency():
    # |p|^0.2 times a gaussian on the plus sheet of diag(1,-1,-1):
    # cross-check MC against the deterministic zeta integral
    space, phi = phspace.indefinite(q=1, n=3), testfn.gaussian(math.pi, n=3)
    det = zeta.zeta_local(space, "plus", 0.2, phi)
    est, se = quad.monte_carlo_signature(phi, space, "plus", 0.2, 500_000, seed=3)
    assert abs(complex(det.value) - est) < 4.0 * se


def test_signature_profile_closed_form():
    # plus sheet of diag(1, -1, -1), g = e^{-pi |x|^2}: with x = cosh u,
    # H(r) = r F(r) = sqrt(2) pi e^{pi r^2} erfc(sqrt(2 pi) r); tiny r puts
    # the truncation point of the graded u panels near u = 70
    geom = quad.SignatureGeometry(phspace.indefinite(q=1, n=3), "plus", 24, False)
    r = np.array([0.0, 1e-200, 1e-150, 1e-30, 1e-8, 0.01, 0.3, 1.0, 2.0])
    H, points = geom.profile(lambda pts: np.exp(-np.pi * quad.sum_squares(pts)), r, np.pi)
    exact = math.sqrt(2.0) * np.pi * np.exp(np.pi * r * r) * scipy.special.erfc(math.sqrt(2.0 * np.pi) * r)
    assert np.max(np.abs(H - exact) / exact) < 1e-14
    # radii below 1e-150 are held there
    assert H[0] == H[1] == H[2]
    assert points % (2 * 48) == 0 and points < 2 * 48 * 12 * 16 * r.size


def test_monte_carlo_deterministic():
    space = phspace.indefinite(q=1, n=3)
    g = lambda pts: np.exp(-np.pi * np.sum(pts * pts, axis=1))
    a = quad.monte_carlo_signature(g, space, "plus", 0.2, 100_000, seed=9)
    b = quad.monte_carlo_signature(g, space, "plus", 0.2, 100_000, seed=9)
    assert a == b


@pytest.mark.parametrize(
    "diag, sheet, spec, nsamples",
    [
        # past 10^6 samples, ending inside a block
        ((1.0, -1.0, -1.0), "plus", "gaussian:a=3.14159,n=3", 1_234_567),
        ((1.0, -1.0, -1.0), "minus", "gaussian:a=3.14159,n=3", 1_000_000),
        ((2.0, -1.0, -0.5), "plus", "gaussian:a=3.14159,n=3", 300_001),
        ((1.0, 1.0, -1.0), "minus", "hermite:d=2,n=3", 250_000),
        ((1.0, -1.0), "plus", "gaussian:a=3.14159,n=2", 200_000),
        # n = 2, 3, 4 on both sheets with a non-unit diagonal, each ending
        # inside a block of BLOCK // n rows
        ((1.5, -0.5), "minus", "gaussian:a=3.14159,n=2", 100_003),
        ((2.0, -0.5, -3.0), "minus", "gaussian:a=3.14159,n=3", 100_003),
        ((0.5, 2.0, -1.5, -0.25), "plus", "gaussian:a=3.14159,n=4", 100_003),
        ((0.5, 2.0, -1.5, -0.25), "minus", "gaussian:a=3.14159,n=4", 100_003),
    ],
)
def test_monte_carlo_blocks_match_the_whole_stream_route(diag, sheet, spec, nsamples):
    # the blocked oracle draws the same stream and sums the same blocks; the
    # whole-stream route sums p column by column and gathers by a mask, the
    # reference of the blocked route's one contraction and np.take
    phi, space = testfn.parse_testfn(spec), phspace.indefinite(B=np.diag(diag))
    g = lambda pts: np.real(np.asarray(phi(pts)))
    rest = (sheet, 0.2, nsamples, 2024)
    assert quad.monte_carlo_signature(g, space, *rest) == monte_carlo_signature_whole_stream(g, space.Bmat, *rest)


def test_monte_carlo_memory_does_not_grow_with_the_samples():
    # per-block sums peak at 1.8 MiB here, sums over a zero-filled buffer
    # of 10^6 values at 9.4 MiB and the whole-stream route at 73 MiB
    g = lambda pts: np.exp(-np.pi * quad.sum_squares(pts))
    tracemalloc.start()
    try:
        quad.monte_carlo_signature(g, phspace.indefinite(q=1, n=3), "plus", 0.2, 3_000_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


def test_signature_profile_builds_its_u_nodes_per_block():
    # 315 radii down to 1e-13, where a radius takes 14 u panels: u-node
    # arrays built per block peak at 1.9 MiB here, built for every radius
    # at once at 4.1 MiB
    geom = quad.SignatureGeometry(phspace.indefinite(q=1, n=3), "plus", 32, False)
    r, phi = np.geomspace(1e-13, 6.0, 315), testfn.gaussian(np.pi, n=3)
    geom.profile(phi, r[:2], np.pi)
    tracemalloc.start()
    try:
        geom.profile(phi, r, np.pi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 2**20


@pytest.mark.parametrize("nsamples", [1, 0, -5])
def test_monte_carlo_refuses_fewer_than_two_samples(nsamples):
    space = phspace.indefinite(q=1, n=2)
    with pytest.raises(DomainError, match="at least 2 samples"):
        quad.monte_carlo_signature(lambda pts: np.ones(len(pts)), space, "plus", 0.2, nsamples, seed=1)


def test_monte_carlo_refuses_a_non_diagonal_form():
    # the oracle reads only the diagonal of B: an indefinite space holds B
    # diagonal, and a definite space, whose B need not be, is no sheet of it
    B = np.array([[1.0, 0.5, 0.0], [0.5, -1.0, 0.0], [0.0, 0.0, -1.0]])
    with pytest.raises(DomainError, match="diagonal"):
        phspace.indefinite(B=B)
    definite = phspace.definite(B=np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    for sheet in ("plus", "V1"):
        with pytest.raises(DomainError, match="not a component of an indefinite space"):
            quad.monte_carlo_signature(lambda pts: np.ones(len(pts)), definite, sheet, 0.2, 1000, seed=1)
        with pytest.raises(DomainError, match="not a component of an indefinite space"):
            quad.SignatureGeometry(definite, sheet, 2, False)


def test_sphere_quadrature_rejects_bad_dim():
    with pytest.raises(DomainError):
        quad.sphere_quadrature(4, 2, False)


def test_rule_nodes_come_from_the_caches():
    # leggauss(12) costs about 0.3 ms and the hyperbolic rule needs it
    # thousands of times per check, so only the two caches may call numpy
    allowed = {("quad.py", "gauss_legendre"), ("quad.py", "gauss_hermite")}
    offenders = []
    for path in sorted(Path(pvzeta.__file__).parent.glob("*.py")):
        fn = None
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            m = re.match(r"\s*def (\w+)", line)
            if m:
                fn = m.group(1)
            if re.search(r"\b(leggauss|hermgauss)\b", line) and (path.name, fn) not in allowed:
                offenders.append(f"{path.name}:{lineno}")
    assert offenders == []


def test_defaulted_parameters_do_not_grow():
    # each defaulted parameter is a setting that some caller may leave
    # unset; the count may fall but not rise
    count = 0
    for path in sorted(Path(pvzeta.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                count += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
    assert count <= 71, count


def test_library_lines_do_not_grow():
    # the library's line count may fall but not rise
    count = sum(len(path.read_text(encoding="utf-8").splitlines()) for path in Path(pvzeta.__file__).parent.glob("*.py"))
    assert count <= 4350, count


def test_engines_read_the_space():
    # a space is described once, by the validated phspace.PVSpace: no quad
    # engine takes a raw B or q, and the gamma factors take the space
    tree = ast.parse(Path(quad.__file__).read_text(encoding="utf-8"))
    raw = [
        f"{node.name}({arg.arg})"
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        if arg.arg in ("B", "q")
    ]
    assert raw == []
    params = lambda fn: list(inspect.signature(fn).parameters)
    assert params(funceq.eq12a_factor) == params(funceq.eq22_matrix) == ["s", "space"]
    assert "B" not in params(funceq.calibrate_convention)


def test_no_ray_is_taken_in_a_loop():
    # the rays of a test function are one family (TestFunction.rays): no
    # module takes .ray inside a loop or a comprehension, or maps it
    offenders = []
    for path in sorted(Path(pvzeta.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        loops = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        for loop in (node for node in ast.walk(tree) if isinstance(node, loops)):
            offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(loop) if isinstance(node, ast.Attribute) and node.attr == "ray"]
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "map":
                offenders += [f"{path.name}:{node.lineno}" for arg in node.args if isinstance(arg, ast.Attribute) and arg.attr == "ray"]
    assert offenders == []


def test_cli_builds_no_rows():
    # every row id has one producer in the library; the command line parses
    # flags and selects checks (CheckReport.error in _guarded stays)
    tree = ast.parse((Path(pvzeta.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    constructed = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "CheckReport"
    ]
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert constructed == [] and "worst" not in imported


def test_blocks_have_one_budget():
    # every batched kernel sizes its blocks by quad.BLOCK: no module, quad
    # included, binds a block size of its own, and max_nodes= is passed
    # nothing else
    own, passed = [], []
    for path in sorted(Path(pvzeta.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            own += [f"{path.stem}.{t.id}" for t in targets if isinstance(t, ast.Name) and t.id.endswith("_BLOCK")]
        for node in ast.walk(tree):
            if isinstance(node, ast.keyword) and node.arg == "max_nodes":
                passed.append((path.stem, ast.unparse(node.value)))
    assert own == []
    assert passed and all(value == "quad.BLOCK" for _, value in passed), passed


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sum_squares_is_bitwise_numpy_sum(n):
    rng = np.random.default_rng(n)
    for shape in [(1000, n), (7, 11, n), (n,)]:
        x = rng.normal(size=shape) * rng.uniform(0.1, 10.0, size=shape)
        assert np.array_equal(quad.sum_squares(x), np.sum(x * x, axis=-1))
        assert np.array_equal(quad.sum_squares(x - 0.3), np.sum((x - 0.3) ** 2, axis=-1))


def test_half_line_fourier_exponential():
    # integral_0^inf e^{-x} e^{-i w x} dx = 1 / (1 + i w), tiny offsets included
    ws = np.array([-40.0, -3.0, -0.25, -1e-12, 0.0, 1e-12, 0.02, 1.0, 7.5, 100.0])
    for max_nodes in (None, 500):
        vals, nodes = quad.half_line_fourier(lambda x: np.exp(-x), ws, 0.025, max_nodes=max_nodes)
        assert np.max(np.abs(vals - 1.0 / (1.0 + 1j * ws))) < 1e-13 and nodes > 100 * ws.size


def test_inverse_fourier_lorentzian():
    # (2 pi)^{-1} integral e^{-i o xi} / (1 + xi^2) d xi = e^{-|o|} / 2
    offs = np.linspace(-3.0, 3.0, 13)
    calls = []

    def F(xi):
        calls.append(xi.size)
        return 1.0 / (1.0 + xi * xi)

    vals, rule = quad.inverse_fourier(F, offs)
    assert np.max(np.abs(vals - 0.5 * np.exp(-np.abs(offs)))) < 1e-13
    # one call per level, on every offset's nodes together
    assert rule["nodes"] == sum(calls) and len(calls) >= 2 and rule["level_gap"] < 1e-10


def test_inverse_fourier_refuses_an_unresolved_transform():
    # a jump in F leaves the level gap far above the tolerance
    with pytest.raises(AccuracyError):
        quad.inverse_fourier(lambda xi: (xi < 1.0).astype(float), np.array([0.5, 1.5]))


# The OpenBLAS libraries that quad.one_blas_thread finds, and each one's
# thread count through whichever getter it exports, for a fresh interpreter.
_OPENBLAS = """
import ctypes
from pathlib import Path

def openblas(*packages):
    for package in packages:
        for path in sorted((Path(package.__file__).parents[1] / f"{package.__name__}.libs").glob("*openblas*")):
            lib = ctypes.CDLL(str(path))
            for get, put in [("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
                             ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads")]:
                if hasattr(lib, get):
                    yield getattr(lib, get), getattr(lib, put)
"""


def _fresh(code):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", _OPENBLAS + code], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_bundled_openblas_runs_on_one_thread():
    # numpy's library is capped when pvzeta is imported, which loads no
    # scipy; scipy's when the first expm call imports scipy.linalg
    at_import, counts = _fresh("""
import json, sys
import numpy
import pvzeta
from pvzeta import phspace
assert "scipy" not in sys.modules
at_import = [get() for get, _ in openblas(numpy)]
phspace.sample_group(phspace.indefinite(q=1, n=3), 1, 0)
import scipy
print(json.dumps([at_import, [get() for get, _ in openblas(numpy, scipy)]]))
""")
    if not counts:
        pytest.skip("no bundled OpenBLAS with a thread-count getter")
    assert at_import == [1] * len(at_import) and counts == [1] * len(counts)


def test_rows_keep_their_bits_on_two_blas_threads():
    # the lacunary inverse transform at t = 0.1 runs complex products above
    # OpenBLAS's threading threshold; the same numbers must come out on two
    # threads as on one
    same = _fresh("""
import json
import numpy as np, scipy
from pvzeta import heatflow, phspace, quad, symbolkern
quad.one_blas_thread(scipy)  # now, so that sample_group leaves the count set below
libs = list(openblas(np, scipy))

def rows(threads):
    for get, put in libs:
        put(threads)
        assert get() == threads
    numeric, _ = symbolkern.atilde_numeric(heatflow.heat_group_function(0.1, "corrected"), 1.0, np.linspace(-1.5, 2.5, 17))
    group = phspace.sample_group(phspace.indefinite(q=1, n=3), 200, 7)
    return numeric.tobytes(), np.array([g.rot(3) for g in group]).tobytes()

print(json.dumps(rows(2) == rows(1)))
""")
    assert same


def test_one_blas_thread_without_a_bundled_library(tmp_path):
    # MKL, Accelerate and system builds ship no <package>.libs directory
    package = types.ModuleType("plain")
    package.__file__ = str(tmp_path / "plain" / "__init__.py")
    assert quad.one_blas_thread(package) is None


@pytest.mark.parametrize("sheet", ["plus", "minus"])
def test_profile_points_keep_the_bits_of_zero_fill_then_scale(sheet):
    # the sheet points are written once, each factor scaled by D as it is
    # written; the former form filled zeros, wrote both factors and then
    # scaled the whole block by D.  With D = 1 the profile writes the
    # unscaled factors (times 1.0, exactly), and that form is raw * D
    space = phspace.indefinite(B=np.diag([2.5, -0.7, 1.3]))
    geom = quad.SignatureGeometry(space, sheet, 8, False)
    scale = geom.Dscale.copy()
    assert not np.all(scale == 1.0)
    r = np.array([0.05, 0.4, 1.0, 2.2])

    def points(blocks):
        def g(pts):
            blocks.append(pts.copy())
            return np.exp(-quad.sum_squares(pts))

        return g

    written, unscaled = [], []
    H = geom.profile(points(written), r, 0.5)[0]
    geom.Dscale = np.ones(3)
    geom.profile(points(unscaled), r, 0.5)
    assert len(written) == len(unscaled) > 0
    for new, raw in zip(written, unscaled):
        old = raw * scale
        assert np.array_equal(new.view(np.int64), old.view(np.int64))
    geom.Dscale = scale
    assert np.array_equal(H.view(np.int64), geom.profile(points([]), r, 0.5)[0].view(np.int64))
