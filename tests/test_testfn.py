import math

import numpy as np
import pytest

from pvzeta import testfn
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
    ],
    ids=["gaussian", "hermite", "bump", "gaussian-closed-fourier", "bump-numeric-fourier"],
)
def test_scalar_in_scalar_out_on_the_line(make):
    phi = make()
    assert np.shape(phi(0.4)) == ()
    assert np.shape(phi(np.float64(0.4))) == ()
    xs = np.linspace(-1.5, 1.5, 7)
    vals = phi(xs)
    assert np.shape(vals) == (7,)
    assert np.array_equal(vals, [phi(float(x)) for x in xs])


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
