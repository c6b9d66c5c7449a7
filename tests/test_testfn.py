import math

import numpy as np
import pytest

from oracle import oscillatory_ft_1d
from pvzeta import heatflow, homog, quad, testfn
from pvzeta.errors import ConfigError, DomainError


def test_gaussian_values_and_derivatives():
    phi = testfn.gaussian(math.pi)
    assert abs(phi(0.0) - 1.0) < 1e-15
    ray = phi.ray([1.0])
    d2 = ray.derivative(2)
    # (e^{-a r^2})'' = (4 a^2 r^2 - 2a) e^{-a r^2}
    r = 0.7
    ref = (4.0 * math.pi ** 2 * r * r - 2.0 * math.pi) * math.exp(-math.pi * r * r)
    assert abs(d2(r) - ref) < 1e-12


def test_hermite_gaussian_profile():
    phi = testfn.hermite_gaussian(2, math.pi)
    assert abs(phi(0.5) - 0.25 * math.exp(-math.pi * 0.25)) < 1e-14


def test_bump_support_and_smoothness():
    phi = testfn.bump(0.0, 1.0)
    assert phi(1.0) == 0.0 and phi(1.5) == 0.0
    assert phi(0.0) > 0.0
    ray = phi.ray([1.0])
    d = ray.derivative(3)
    assert abs(d(1.2)) == 0.0


def _cauchy_derivative(direction, center, radius, r0, k):
    # k-th derivative of e^{-1/(1 - q(z))}, q(z) = |z d - c|^2 / radius^2 continued
    # to complex z, by the 128-point trapezoid rule on a circle around r0
    # a third of the way to the nearest root of q = 1
    d = np.asarray(direction, dtype=float)
    a, b, c2 = d @ d / radius ** 2, d @ center / radius ** 2, center @ center / radius ** 2
    roots = np.roots([a, -2.0 * b, c2 - 1.0])
    rad = np.min(np.abs(roots - r0)) / 3.0
    theta = 2.0 * math.pi * np.arange(128) / 128
    z = r0 + rad * np.exp(1j * theta)
    f = np.exp(-1.0 / (1.0 - (a * z * z - 2.0 * b * z + c2)))
    return math.factorial(k) / rad ** k * np.mean(f * np.exp(-1j * k * theta)).real


@pytest.mark.parametrize(
    "center, direction",
    [
        ([0.0], [1.0]),
        ([0.3], [-1.3]),
        ([0.0, 0.0], [0.6, -0.8]),
        ([0.3, -0.2], [-1.1, 0.4]),
        ([0.0, 0.0, 0.0], [0.6, -0.8, 0.5]),
        ([0.3, -0.2, 0.1], [-1.1, 0.4, 0.2]),
    ],
    ids=["n1-centred", "n1-off-centre", "n2-centred", "n2-off-centre", "n3-centred", "n3-off-centre"],
)
def test_bump_ray_derivatives_match_a_cauchy_integral(center, direction):
    # the exact ray derivatives against the analytic continuation of the
    # bump inside its support, at interior points, orders 0 to 6
    center = np.array(center)
    phi = testfn.bump(center, 0.8, n=center.size)
    ray = phi.ray(direction)
    cut = ray.cutoff(1e-16)
    for k in range(7):
        g = ray if k == 0 else ray.derivative(k)
        for r0 in np.linspace(0.05, 0.9, 5) * cut:
            ref = _cauchy_derivative(direction, center, 0.8, r0, k)
            assert abs(g(r0) - ref) < 1e-10 * max(1.0, abs(ref)), (k, r0)


def test_bump_ray_cutoff_is_the_support_edge():
    # the ray ends where it leaves the support; a ray that misses it keeps
    # a positive cutoff
    phi = testfn.bump([0.5, 0.0], 0.3, n=2)
    assert phi.ray([2.0, 0.0]).cutoff(1e-16) == pytest.approx(0.4, rel=1e-15)
    assert phi.ray([-1.0, 0.0]).cutoff(1e-16) == pytest.approx(0.3, rel=1e-15)
    assert phi.ray([0.0, 1.0]).cutoff(1e-16) == pytest.approx(0.3, rel=1e-15)
    edge = testfn.bump(0.5, 0.3).ray([1.0])
    assert edge(0.8 * (1.0 - 1e-12)) == 0.0 and edge.derivative(5)(0.8) == 0.0


@pytest.mark.parametrize("conv", [testfn.FourierConvention.TWOPI, testfn.FourierConvention.ANGULAR_NORMALIZED], ids=lambda c: c.value)
def test_transform_ray_derivatives_match_adaptive_transforms(conv):
    # d^k/dr^k F(r d) = d^k (-i scale)^k times the transform of m^k phi
    phi = testfn.bump(0.6, 0.8)
    scale = {"twopi": 2.0 * math.pi, "angular-normalized": -1.0}[conv.value]
    d = -1.5
    ray = testfn.fourier(phi, conv).ray([d])
    rs = np.linspace(0.0, 6.0, 13)
    for k in (1, 2, 3):
        vals = ray.derivative(k)(rs)
        ref = np.array(
            [
                d ** k * (-1j * scale) ** k
                * oscillatory_ft_1d(lambda m: m ** k * phi(m), scale * r * d, a=-0.2, b=1.4, tol=1e-12)
                for r in rs
            ]
        )
        assert np.max(np.abs(vals - ref)) < 1e-6 * np.max(np.abs(ref)), k


def test_gaussian_fourier_closed_form():
    # twopi convention: transform of e^{-pi m^2} is itself
    phi = testfn.gaussian(math.pi)
    phihat = testfn.fourier(phi, testfn.FourierConvention.TWOPI)
    for x in (0.0, 0.5, 1.3):
        assert abs(complex(phihat(x)) - math.exp(-math.pi * x * x)) < 1e-12


def test_fourier_angular_convention():
    # angular kernel e^{-i m xi}: transform of e^{-a m^2} is
    # sqrt(pi/a) e^{-xi^2/(4a)}
    a = 2.0
    phi = testfn.gaussian(a)
    phihat = testfn.fourier(phi, testfn.FourierConvention.ANGULAR)
    xi = 1.1
    ref = math.sqrt(math.pi / a) * math.exp(-xi * xi / (4.0 * a))
    assert abs(complex(phihat(xi)) - ref) < 1e-12


def test_bump_fourier_is_oscillation_tagged():
    phi = testfn.bump(0.0, 1.0)
    phihat = testfn.fourier(phi, testfn.FourierConvention.TWOPI)
    ray = phihat.ray([1.0])
    assert getattr(ray, "oscillation", None)
    # transform of an even real bump is real and even
    v1, v2 = complex(phihat(0.8)), complex(phihat(-0.8))
    assert abs(v1.imag) < 1e-12
    assert abs(v1 - v2) < 1e-12


@pytest.mark.parametrize(
    "make",
    [
        lambda: testfn.gaussian(math.pi),
        lambda: testfn.hermite_gaussian(2, math.pi),
        lambda: testfn.bump(0.0, 1.0),
        lambda: testfn.fourier(testfn.gaussian(2.0), testfn.FourierConvention.TWOPI),
        lambda: testfn.fourier(testfn.bump(0.0, 1.0), testfn.FourierConvention.TWOPI),
        lambda: testfn.hermite_gaussian(2, math.pi).derivative(1),
        lambda: testfn.hermite_gaussian(3, 1.0).ray([-0.5]),
        lambda: testfn.bump(0.3, 1.0).ray([1.0]),
        lambda: testfn.fourier(testfn.bump(0.3, 1.0), testfn.FourierConvention.ANGULAR).ray([-2.0]),
        lambda: testfn.fourier(testfn.bump(0.3, 1.0), testfn.FourierConvention.TWOPI).ray([1.0]).derivative(1),
        lambda: heatflow.log_gaussian(1.0),
        lambda: (lambda y: heatflow.f_t(0.5, y)),
        lambda: homog.homog_density(1.0, np.abs, n=1),
        lambda: homog.homog_density(2.0, lambda x: np.sum(x * x, axis=-1), n=1),
    ],
    ids=[
        "gaussian",
        "hermite",
        "bump",
        "gaussian-closed-fourier",
        "bump-numeric-fourier",
        "exact-derivative",
        "polygauss-ray",
        "bump-ray",
        "numeric-fourier-ray",
        "numeric-fourier-ray-derivative",
        "log-gaussian",
        "heat-f_t",
        "density-trailing-axis",
        "density",
    ],
)
def test_scalar_in_scalar_out_on_the_line(make):
    phi = make()
    assert np.shape(phi(0.4)) == ()
    assert np.shape(phi(np.float64(0.4))) == ()
    xs = np.linspace(-1.5, 1.5, 7)
    vals = phi(xs)
    assert np.shape(vals) == (7,)
    assert np.array_equal(vals, [phi(float(x)) for x in xs])


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("center, radius", [(0.0, 1.0), (0.6, 0.8), (-0.45, 0.8)])
@pytest.mark.parametrize("conv", list(testfn.FourierConvention), ids=lambda c: c.value)
def test_numeric_fourier_matches_adaptive_quadrature(center, radius, conv):
    # against QUADPACK run a little past the support (see the oracle); it
    # reports roundoff at this tolerance, and the comparison is the check
    phi = testfn.bump(center, radius)
    scale = {"twopi": 2.0 * math.pi, "angular": 1.0, "angular-normalized": -1.0}[conv.value]
    phihat = testfn.fourier(phi, conv)
    for xi in (0.0, 1.0, 5.0, 20.0, 60.0):
        ref = oscillatory_ft_1d(phi, scale * xi, center - radius - 0.1, center + radius + 0.1, tol=1e-13)
        assert abs(phihat(xi) - ref) < 1e-14, xi


@pytest.mark.parametrize("center", [0.0, 0.6], ids=["centred", "off-centre"])
@pytest.mark.parametrize("conv", list(testfn.FourierConvention), ids=lambda c: c.value)
def test_numeric_fourier_matches_the_per_frequency_rule(center, conv):
    # each frequency on its own panel rule over the support [c - r, c + r],
    # as a sum of phi e^{-i w m}
    phi = testfn.bump(center, 0.8)
    scale = {"twopi": 2.0 * math.pi, "angular": 1.0, "angular-normalized": -1.0}[conv.value]
    xi = np.concatenate([np.linspace(-250.0, 250.0, 501), [0.0, 1e-9, -3.7, 1800.0]])
    ref = []
    for x in xi:
        w = scale * float(x)
        nodes, wts = quad.panel_rule(center - 0.8, center + 0.8, int(abs(w) * 1.6 / 10.0) + 32)
        ref.append(np.sum(wts * phi(nodes) * np.exp(-1j * w * nodes)))
    ref = np.array(ref)
    # many panel counts in one call
    assert len({int(abs(scale * x) * 1.6 / 10.0) + 32 for x in xi}) > 20
    phihat = testfn.fourier(phi, conv)
    vals = phihat(xi)
    peak = float(np.max(np.abs(ref)))
    assert np.max(np.abs(vals - ref)) < 1e-14 * peak
    # off the centre the transform is complex
    assert (np.max(np.abs(ref.imag)) > 1e-3 * peak) == (center != 0.0)
    # the same values through a ray and one frequency at a time
    assert np.array_equal(phihat.ray([1.0])(xi), vals)
    assert np.array_equal([phihat(float(x)) for x in xi[::25]], vals[::25])


def test_numeric_fourier_is_on_the_line_only():
    with pytest.raises(DomainError):
        testfn.fourier(testfn.bump(0.0, 1.0, n=2), testfn.FourierConvention.TWOPI)
    # closed transforms stay available in any dimension
    assert testfn.fourier(testfn.gaussian(1.0, n=2), testfn.FourierConvention.TWOPI).n == 2


def test_numeric_profile_cutoff_scan():
    phi = testfn.bump(0.0, 1.0)
    phihat = testfn.fourier(phi, testfn.FourierConvention.TWOPI)
    cut = phihat.ray([1.0]).cutoff(1e-16)
    assert 10.0 < cut < 5000.0


def test_parse_testfn():
    phi = testfn.parse_testfn("gaussian:a=2.5,n=3")
    assert phi.n == 3
    with pytest.raises(ConfigError):
        testfn.parse_testfn("unknown:a=1")
    with pytest.raises(ConfigError):
        testfn.parse_testfn("gaussian:a")


def test_polygauss_requires_positive_rate():
    with pytest.raises(DomainError):
        testfn.gaussian(-1.0)


def test_real_coefficients_evaluate_bitwise_as_complex():
    # real coefficients take real arithmetic, with the bits of the complex sum
    coeffs = {(0, 0, 0): 1.5, (2, 0, 0): -0.7, (1, 1, 0): 2.0, (0, 0, 4): 0.3}
    phi = testfn.polygauss(coeffs, 1.3, 3)
    m = np.random.default_rng(4).normal(size=(200, 3)) * 2.0
    ref = np.zeros(200, dtype=complex)
    for beta, c in coeffs.items():
        mono = np.ones(200)
        for j, bj in enumerate(beta):
            if bj:
                mono = mono * m[:, j] ** bj
        ref = ref + complex(c) * mono
    ref = ref * np.exp(-1.3 * np.sum(m * m, axis=-1))
    vals = phi(m)
    assert vals.dtype == np.float64 and np.array_equal(vals, ref.real)
