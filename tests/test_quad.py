import ast
import itertools
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.special

from oracle import monte_carlo_signature_whole_chunk
import pvzeta
from pvzeta import phspace, quad, testfn, zeta
from pvzeta.errors import AccuracyError, DomainError


def test_integrate_1d_smooth():
    res = quad.integrate_1d(lambda x: np.exp(-x * x), -np.inf, np.inf, tol=1e-12)
    assert abs(res.value - math.sqrt(math.pi)) < 1e-12


@pytest.mark.parametrize("expo", [-0.5, -0.999, -0.9 + 0.3j, 0.7 + 0.2j])
def test_power_integral_gamma(expo):
    # integral_0^inf r^expo e^{-r} dr = Gamma(1 + expo); at Re expo = -0.999
    # the head's r = u^1000 underflows to 0 over most of (0, 1)
    res = quad.power_integral(lambda r: np.exp(-r), expo, np.inf, 1e-11)
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
    B, phi = np.diag([1.0, -1.0, -1.0]), testfn.gaussian(math.pi, n=3)
    det = zeta.zeta_local(phspace.indefinite(B=B), "plus", 0.2, phi)
    est, se = quad.monte_carlo_signature(phi, B, "plus", 0.2, 500_000, seed=3)
    assert abs(complex(det) - est) < 4.0 * se


def test_signature_profile_closed_form():
    # plus sheet of diag(1, -1, -1), g = e^{-pi |x|^2}: with x = cosh u,
    # H(r) = r F(r) = sqrt(2) pi e^{pi r^2} erfc(sqrt(2 pi) r); tiny r puts
    # the truncation point of the graded u panels near u = 70
    geom = quad.SignatureGeometry(np.diag([1.0, -1.0, -1.0]), 1, "plus", 24, False)
    r = np.array([0.0, 1e-200, 1e-150, 1e-30, 1e-8, 0.01, 0.3, 1.0, 2.0])
    H, points = geom.profile(lambda pts: np.exp(-np.pi * quad.sum_squares(pts)), r, np.pi)
    exact = math.sqrt(2.0) * np.pi * np.exp(np.pi * r * r) * scipy.special.erfc(math.sqrt(2.0 * np.pi) * r)
    assert np.max(np.abs(H - exact) / exact) < 1e-14
    # radii below 1e-150 are held there
    assert H[0] == H[1] == H[2]
    assert points % (2 * 48) == 0 and points < 2 * 48 * 12 * 16 * r.size


def test_monte_carlo_deterministic():
    B = np.diag([1.0, -1.0, -1.0])
    g = lambda pts: np.exp(-np.pi * np.sum(pts * pts, axis=1))
    a = quad.monte_carlo_signature(g, B, "plus", 0.2, 100_000, seed=9)
    b = quad.monte_carlo_signature(g, B, "plus", 0.2, 100_000, seed=9)
    assert a == b


@pytest.mark.parametrize(
    "diag, sheet, spec, nsamples",
    [
        # past a chunk boundary, ending inside a block
        ((1.0, -1.0, -1.0), "plus", "gaussian:a=3.14159,n=3", 1_234_567),
        ((1.0, -1.0, -1.0), "minus", "gaussian:a=3.14159,n=3", 1_000_000),
        ((2.0, -1.0, -0.5), "plus", "gaussian:a=3.14159,n=3", 300_001),
        ((1.0, 1.0, -1.0), "minus", "hermite:d=2,n=3", 250_000),
        ((1.0, -1.0), "plus", "gaussian:a=3.14159,n=2", 200_000),
    ],
)
def test_monte_carlo_blocks_match_the_whole_chunk_route(diag, sheet, spec, nsamples):
    # the blocked oracle draws the same stream and sums the same chunks
    phi = testfn.parse_testfn(spec)
    g = lambda pts: np.real(np.asarray(phi(pts)))
    args = (g, np.diag(diag), sheet, 0.2, nsamples, 2024)
    assert quad.monte_carlo_signature(*args) == monte_carlo_signature_whole_chunk(*args)


def test_monte_carlo_memory_does_not_grow_with_the_samples():
    # the whole-chunk route peaks at 73 MiB here
    g = lambda pts: np.exp(-np.pi * quad.sum_squares(pts))
    tracemalloc.start()
    try:
        quad.monte_carlo_signature(g, np.diag([1.0, -1.0, -1.0]), "plus", 0.2, 3_000_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20


@pytest.mark.parametrize("nsamples", [1, 0, -5])
def test_monte_carlo_refuses_fewer_than_two_samples(nsamples):
    with pytest.raises(DomainError, match="at least 2 samples"):
        quad.monte_carlo_signature(lambda pts: np.ones(len(pts)), np.diag([1.0, -1.0]), "plus", 0.2, nsamples, seed=1)


def test_monte_carlo_refuses_a_non_diagonal_form():
    B = np.array([[1.0, 0.5, 0.0], [0.5, -1.0, 0.0], [0.0, 0.0, -1.0]])
    with pytest.raises(DomainError):
        quad.monte_carlo_signature(lambda pts: np.ones(len(pts)), B, "plus", 0.2, 1000, seed=1)


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
    assert count <= 92, count


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