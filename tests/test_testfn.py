import math
import types

import numpy as np
import pytest

from oracle import oscillatory_ft_1d
from pvzeta import heatflow, homog, quad, symbolkern, testfn, zeta
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
        lambda: (lambda u: symbolkern.atilde_closed(heatflow.heat_group_function(0.5), 1.0, u)),
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
        "heat-atilde-closed",
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
    # as a sum of phi e^{-i w m}, with floor(|w| 1.6 / 10) + 32 panels
    # rounded up to a multiple of 16
    phi = testfn.bump(center, 0.8)
    scale = {"twopi": 2.0 * math.pi, "angular": 1.0, "angular-normalized": -1.0}[conv.value]
    xi = np.concatenate([np.linspace(-250.0, 250.0, 501), [0.0, 1e-9, -3.7, 1800.0]])

    def ladder(x):
        return -(-(int(abs(scale * float(x)) * 1.6 / 10.0) + 32) // 16) * 16

    ref = []
    for x in xi:
        w = scale * float(x)
        nodes, wts = quad.panel_rule(center - 0.8, center + 0.8, ladder(x))
        ref.append(np.sum(wts * phi(nodes) * np.exp(-1j * w * nodes)))
    ref = np.array(ref)
    # many panel counts in one call: 18 rungs of the ladder under twopi,
    # 5 under the angular conventions
    assert len({ladder(x) for x in xi}) >= 5
    phihat = testfn.fourier(phi, conv)
    vals = phihat(xi)
    peak = float(np.max(np.abs(ref)))
    assert np.max(np.abs(vals - ref)) < 1e-14 * peak
    # off the centre the transform is complex
    assert (np.max(np.abs(ref.imag)) > 1e-3 * peak) == (center != 0.0)
    # the same values through a ray and one frequency at a time
    assert np.array_equal(phihat.ray([1.0])(xi), vals)
    assert np.array_equal([phihat(float(x)) for x in xi[::25]], vals[::25])


@pytest.mark.parametrize("center", [0.0, 0.6, -0.45], ids=["centred", "off-centre", "left"])
@pytest.mark.parametrize("conv", list(testfn.FourierConvention), ids=lambda c: c.value)
def test_numeric_fourier_ray_minus_one_is_the_conjugate(center, conv):
    # phi is real, so phihat(-xi) = conj phihat(xi), bit for bit; the ray -1
    # reads the panel sums that the ray +1 stored, and equals the values of
    # a fresh transform, so the store never changes a value
    phi = testfn.bump(center, 0.8)
    r = np.concatenate([np.linspace(0.01, 60.0, 997), [0.0, 1e-9, 1800.0]])
    phihat = testfn.fourier(phi, conv)
    for k in range(4):
        plus = np.asarray(phihat.ray([1.0]).fn(r, k), dtype=complex)
        minus = phihat.ray([-1.0]).fn(r, k)
        fresh = testfn.fourier(phi, conv).ray([-1.0]).fn(r, k)
        assert np.array_equal(minus, fresh), k
        # d^k/dr^k phihat(-r) = conj(d^k/dr^k phihat(r)) for every k
        assert np.array_equal(minus, np.conj(plus)), k
    assert np.array_equal(phihat(-r), np.conj(phihat(r)))
    assert np.array_equal(phihat(-r), testfn.fourier(phi, conv)(-r))


def test_numeric_fourier_is_on_the_line_only():
    with pytest.raises(DomainError):
        testfn.fourier(testfn.bump(0.0, 1.0, n=2), testfn.FourierConvention.TWOPI)
    # closed transforms stay available in any dimension
    assert testfn.fourier(testfn.gaussian(1.0, n=2), testfn.FourierConvention.TWOPI).n == 2


def _scan_points(ray, cap=4096.0):
    """The scan grid r = 0.5 * 1.3^k below cap, each point with whether
    the ray there is below 1e-13 of its running peak."""
    r, peak, pts = 0.5, 1e-300, []
    while r < cap:
        v = abs(complex(ray(r)))
        peak = max(peak, v)
        pts.append((r, v < 1e-13 * peak))
        r *= 1.3
    return pts


def test_numeric_profile_cutoff_scan():
    # the cut is the first of the four consecutive scan points below
    # tolerance that certify the tail, not the last
    ray = testfn.fourier(testfn.bump(0.0, 1.0), testfn.FourierConvention.TWOPI).ray([1.0])
    cut = ray.cutoff(1e-16)
    assert ray.cut_certified(1e-16) and cut == pytest.approx(123.532, rel=1e-5)
    pts = _scan_points(ray)
    first = [r for r, _ in pts].index(cut)
    below = [b for _, b in pts]
    # the cut and the three points after it are below tolerance, and no
    # earlier run of four is
    assert all(below[first : first + 4])
    assert not any(all(below[k : k + 4]) for k in range(first))


@pytest.mark.parametrize("center, radius", [(0.0, 1.0), (0.3, 0.8), (3.0, 0.8), (-0.45, 0.8)])
def test_numeric_profile_cut_drops_a_negligible_tail(center, radius):
    # r^(s-1) phihat(r) over [cut, last certifying scan point], by adaptive
    # quadrature on pieces of eight wavelengths (no node in common with
    # the Mellin body's panels), is below 1e-13 of the Mellin value
    phihat = testfn.fourier(testfn.bump(center, radius), testfn.FourierConvention.TWOPI)
    for d in (1.0, -1.0):
        ray = phihat.ray([d])
        cut = ray.cutoff(1e-16)
        edges = np.linspace(cut, cut * 1.3 * 1.3 * 1.3, math.ceil((1.3 ** 3 - 1.0) * cut / (8.0 * ray.oscillation)) + 1)
        for s in (0.4, 0.7, 0.45 + 0.2j):
            tail = sum(
                complex(quad.integrate_1d(lambda r: r ** (s - 1.0) * ray(r), lo, hi, tol=1e-10).value)
                for lo, hi in zip(edges[:-1], edges[1:])
            )
            value = abs(complex(zeta.mellin(phihat, d, s - 1.0).value))
            assert abs(tail) < 1e-13 * value, (d, s, abs(tail) / value)


def test_numeric_profile_scan_cap_is_uncertified():
    # a profile that does not fall below tolerance before the cap of its
    # decay (here 100, short of the unit bump transform's cut at 123.5):
    # the scan returns its last point, past the cap, uncertified
    fn = testfn.fourier(testfn.bump(0.0, 1.0), testfn.FourierConvention.TWOPI).ray([1.0]).fn
    ray = testfn.NumericProfile(fn, testfn.Decay("other", radius=100.0), 0, None)
    assert not ray.cut_certified(1e-16) and ray.cutoff(1e-16) == _scan_points(ray, 100.0)[-1][0] * 1.3 > 100.0


@pytest.mark.parametrize("conv", list(testfn.FourierConvention))
def test_numeric_profile_scan_cap_scales_with_the_support(conv):
    # the cap is 4096 widths 2 pi / (|scale| radius) of the transform, on
    # every ray: 4096 for the unit bump under TWOPI, wherever it sits, and
    # 20 times that for a bump of radius 0.05, whose cut is certified at
    # the first of its four scan points below tolerance
    scale = testfn._KERNEL_SCALE[conv]
    for center, radius in ((0.0, 1.0), (3.0, 1.0), (0.0, 0.05)):
        phihat = testfn.fourier(testfn.bump(center, radius), conv)
        for d in (1.0, -2.0):
            cap = phihat.ray([d]).decay.radius
            assert cap == pytest.approx(4096.0 * 2.0 * math.pi / (abs(scale * d) * radius), rel=1e-15)
    unit = testfn.fourier(testfn.bump(0.0, 1.0), testfn.FourierConvention.TWOPI)
    assert unit.ray([1.0]).decay.radius == 4096.0
    if conv is testfn.FourierConvention.TWOPI:
        ray = testfn.fourier(testfn.bump(0.0, 0.05), conv).ray([1.0])
        cut = ray.cutoff(1e-16)
        assert ray.cut_certified(1e-16) and cut == pytest.approx(2213.896, rel=1e-6)
        pts = _scan_points(ray, ray.decay.radius)
        first = [r for r, _ in pts].index(cut)
        assert all(b for _, b in pts[first : first + 4]) and first + 3 < len(pts)


def test_parse_testfn():
    phi = testfn.parse_testfn("gaussian:a=2.5,n=3")
    assert phi.n == 3
    with pytest.raises(ConfigError):
        testfn.parse_testfn("unknown:a=1")
    with pytest.raises(ConfigError):
        testfn.parse_testfn("gaussian:a")


@pytest.mark.parametrize(
    "make, label",
    [
        (lambda: testfn.bump(-0.45, 0.8), "bump:c=-0.45,r=0.8,n=1"),
        (lambda: testfn.bump(0.5, 1.0, n=2), "bump:c=0.5,r=1,n=2"),
        (lambda: testfn.bump([0.3, -0.4], 1.0, n=2), "bump:c=0.3|-0.4,r=1,n=2"),
        (lambda: testfn.bump(0.25, 0.8765432), "bump:c=0.25,r=0.8765432,n=1"),
        (lambda: testfn.gaussian(math.pi), "gaussian:a=3.141592653589793,n=1"),
    ],
    ids=["line-negative", "plane-scalar", "plane-vector", "seven-digit-radius", "gaussian-pi"],
)
def test_bump_label_rebuilds_the_bump(make, label):
    # the label holds the centre as parse_testfn reads it, not its norm,
    # and every parameter to its last digit
    phi = make()
    assert phi.label == label
    again = testfn.parse_testfn(label)
    pts = np.random.default_rng(3).uniform(-1.5, 1.5, size=(200, phi.n))
    pts = pts[:, 0] if phi.n == 1 else pts
    assert again.label == label and np.array_equal(again(pts), phi(pts))
    assert np.max(phi(pts)) > 0.0


def test_polygauss_requires_positive_rate():
    with pytest.raises(DomainError):
        testfn.gaussian(-1.0)


def test_real_coefficients_evaluate_bitwise_as_complex():
    # real coefficients take real arithmetic, with the bits of the complex
    # sum that starts from zeros and each monomial from ones (0 + c = c and
    # 1 * x^b = x^b, so the evaluator starts at the first term and factor)
    made = testfn.polygauss({(0, 0, 0): 1.5, (2, 0, 0): -0.7, (1, 1, 0): 2.0, (0, 0, 4): 0.3}, 1.3, 3)
    m = np.random.default_rng(4).normal(size=(200, 3)) * 2.0
    for phi in (made, testfn.parse_testfn("gaussian:a=3.14159,n=3"), testfn.parse_testfn("hermite:d=2,n=3")):
        coeffs, a = phi.polygauss
        ref = np.zeros(200, dtype=complex)
        for beta, c in coeffs.items():
            mono = np.ones(200)
            for j, bj in enumerate(beta):
                if bj:
                    mono = mono * m[:, j] ** bj
            ref = ref + complex(c) * mono
        ref = ref * np.exp(-a * np.sum(m * m, axis=-1))
        vals = phi(m)
        assert vals.dtype == np.float64 and np.array_equal(vals.view(np.int64), ref.real.view(np.int64))


_RAY_CASES = [
    (testfn.gaussian(1.0), [1.0]),
    (testfn.gaussian(math.pi), [-1.0]),
    (testfn.hermite_gaussian(2, 3.14159), [1.0]),
    (testfn.hermite_gaussian(2, 0.7), [-1.0]),
    (testfn.hermite_gaussian(3, 1.1, n=2), [0.6, -0.8]),
]


@pytest.mark.parametrize("phi, direction", _RAY_CASES, ids=["gaussian", "gaussian-pi-minus", "hermite-2", "hermite-2-minus", "hermite-3-plane"])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_real_ray_profiles_have_the_bits_of_the_complex_path(phi, direction, k):
    # real coefficients run in float64: the real parts equal the complex
    # Horner sum times the Gaussian bit for bit, and the result keeps the
    # complex128 dtype and the shape (a scalar r gives an np.complex128)
    g = phi.ray(direction).derivative(k)
    assert not np.any(g.coeffs.imag)
    rng = np.random.default_rng(7)
    grids = [rng.uniform(0.0, 6.0, size=(53, 2048)), np.linspace(0.0, 9.0, 7), np.array([0.0, 1e-300, 0.5])]
    for r in grids + [0.37, np.float64(2.5), 0.0]:
        rr = np.asarray(r, dtype=float)[()]
        ref = testfn._horner(g.coeffs, rr) * np.exp(-g.a * rr * rr)
        v = g(r)
        assert np.shape(v) == np.shape(ref) and np.asarray(v).dtype == np.complex128
        assert np.array_equal(np.real(v), np.real(ref)) and not np.any(np.imag(v))
    assert type(g(0.37)) is np.complex128


def test_complex_coefficients_keep_the_complex_path():
    # the complex profile of the heat tests keeps today's complex arithmetic
    g = testfn.PolyGauss1D([1.0, 0.5j, -0.25], 0.7)
    r = np.linspace(-3.0, 3.0, 101)
    for prof in (g, g.derivative(1), g.derivative(3)):
        ref = testfn._horner(prof.coeffs, r) * np.exp(-prof.a * r * r)
        assert np.array_equal(prof(r), ref) and np.any(prof(r).imag)
        assert np.array_equal(np.signbit(prof(r).imag), np.signbit(ref.imag))


def test_polygauss_profiles_compare_by_exact_coefficients_and_rate(monkeypatch):
    # the key of the shared inner rows is one np.unique over each ray's
    # coefficient bytes, rate and cut: no tolerance, a 1-ulp step in any of
    # them splits two rays, and bump rays never share, not even one ray
    # given twice; homog._inner_rows builds its one rule for the distinct rays
    built, rule = [], quad.panel_rule
    monkeypatch.setattr(quad, "panel_rule", lambda a, b, npanel: built.append(np.size(b)) or rule(a, b, npanel))

    def rows(phi, pts, cuts):
        out = homog._inner_rows(phi, np.asarray(pts, dtype=float), np.ones(1), np.asarray(cuts, dtype=float), 16)
        return built.pop(), out

    def distinct(coeffs, rates, cuts):
        # a family whose ray through the point (i,) has the i-th derivative
        # profile given (a derivative of a real profile has no -0.0)
        c, a = np.asarray(coeffs, dtype=complex).T[:, :, None], np.asarray(rates)[:, None]
        pick = lambda pts: testfn.PolyGauss1D(c[:, pts[:, 0].astype(int)], a[pts[:, 0].astype(int)])
        fam = types.SimpleNamespace(rays=lambda pts: types.SimpleNamespace(derivative=lambda k: pick(pts)))
        return rows(fam, np.arange(len(cuts))[:, None], cuts)

    c, up = [1.0, 0.0, 2.0], np.nextafter
    assert distinct([c, c, c], [1.5, 1.5, 1.5], [3.0, 3.0, 3.0])[0] == 1
    assert distinct([c, [1.0, 0.0, up(2.0, 3.0)]], [1.5, 1.5], [3.0, 3.0])[0] == 2
    assert distinct([c, c], [1.5, up(1.5, 2.0)], [3.0, 3.0])[0] == 2
    assert distinct([c, c], [1.5, 1.5], [3.0, up(3.0, 4.0)])[0] == 2
    # -0.0 and 0.0 are other bytes
    assert distinct([c, [1.0, -0.0, 2.0]], [1.5, 1.5], [3.0, 3.0])[0] == 2
    count, out = distinct([c, [0.5, 1.0, 0.0], c], [1.5, 0.7, 1.5], [3.0, 4.0, 3.0])
    assert count == 2 and np.array_equal(out[0], out[2]) and not np.array_equal(out[0], out[1])
    assert rows(testfn.bump(0.0, 1.0), [[1.0], [1.0], [-1.0]], np.ones(3))[0] == 3


def _old_support_filter(phi, order, rotated):
    # the filter zeta._polar, homog._extension and direct_pair each spelled out,
    # with the Decay.misses test it called
    pts, wts = quad.sphere_quadrature(phi.n, order, rotated)
    dec = phi.decay
    if dec.kind != "compact" or not dec.center:
        misses = np.zeros(pts.shape[:-1], dtype=bool)
    else:
        c = np.asarray(dec.center)
        along = (pts @ c) / np.sqrt(quad.sum_squares(pts))
        misses = float(c @ c) - np.where(along > 0.0, along * along, 0.0) >= dec.radius * dec.radius
    return pts[~misses], wts[~misses]


@pytest.mark.parametrize("rotated", [False, True], ids=["plain", "rotated"])
@pytest.mark.parametrize(
    "phi",
    [testfn.bump(3.0, 1.0), testfn.bump([1.5, 0.5], 1.2, n=2), testfn.bump([2.0, 0.0, 0.5], 0.7, n=3),
     testfn.bump([0.1, 0.2], 0.5, n=2), testfn.gaussian(1.0, n=3)],
    ids=["line", "plane", "space", "plane-origin", "gaussian"],
)
def test_support_rays_are_the_old_filter(phi, rotated):
    for order in (2, 8, 32):
        (pts, wts), (ref_pts, ref_wts) = phi.support_rays(order, rotated), _old_support_filter(phi, order, rotated)
        assert np.array_equal(pts.view(np.int64), ref_pts.view(np.int64))
        assert np.array_equal(wts.view(np.int64), ref_wts.view(np.int64))


def _bump_ray_derivative_broadcast(q, dq, half_d2q, k):
    # the form that broadcast q''/2 to every point and raised the gathered array to each power
    out = np.zeros(q.shape)
    live = 1.0 - q > 1.0 / 745.0
    y, dq, half_d2q = 1.0 / (1.0 - q[live]), dq[live], np.broadcast_to(half_d2q, q.shape)[live]
    acc = 0.0
    for j in range((k + 1) // 2, k + 1):
        coef = math.factorial(k) // (math.factorial(2 * j - k) * math.factorial(k - j))
        acc = acc + coef * half_d2q ** (k - j) * dq ** (2 * j - k) * testfn._horner(testfn._BUMP_POLYS[j], y)
    out[live] = np.exp(-y) * acc
    return out


@pytest.mark.parametrize(
    "phi, directions",
    [(testfn.bump(0.3, 1.2), [[1.0], [-1.0]]), (testfn.bump([1.5, 0.0], 1.2, n=2), None)],
    ids=["line", "plane"],
)
def test_bump_ray_derivative_keeps_its_bits(phi, directions, monkeypatch):
    # q''/2 is taken per ray and repeated over the live points: every value
    # has the bits of the broadcast form, for families, lone rays and nodes
    # common to the rays or per ray
    directions = np.asarray(directions) if directions is not None else phi.support_rays(16, False)[0]
    seen, new = [], testfn._bump_ray_derivative

    def both(q, dq, half_d2q, k):
        out = new(q, dq, half_d2q, k)
        seen.append(np.array_equal(out.view(np.int64), _bump_ray_derivative_broadcast(q, dq, half_d2q, k).view(np.int64)))
        return out

    monkeypatch.setattr(testfn, "_bump_ray_derivative", both)
    r = np.linspace(0.0, 3.0, 301)
    for k in (1, 2, 3, 4):
        family = phi.rays(directions).derivative(k)
        family(r)
        family(np.outer(np.linspace(0.5, 1.5, len(directions)), r))
        phi.ray(directions[0]).derivative(k)(r)
        phi.ray(directions[-1]).derivative(k)(0.4)
    assert len(seen) == 16 and all(seen)
