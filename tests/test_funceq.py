import math
import time

import numpy as np
import pytest

from pvzeta import funceq, special, testfn
from pvzeta.errors import DomainError, PoleError

CONV = "twopi"


def test_eq12_gaussian_oracle():
    # at s = 1/2 with the self-dual gaussian both sides equal
    # pi^{-1/4} Gamma(1/4)
    phi = testfn.gaussian(math.pi)
    lhs, rhs = funceq.eq12_sides(0.5, phi, testfn.FourierConvention.TWOPI)
    oracle = math.pi ** -0.25 * float(np.real(special.gamma(0.25)))
    assert abs(lhs - oracle) < 1e-8
    assert abs(rhs - oracle) < 1e-8


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_eq12_families(s):
    for phi in (testfn.gaussian(math.pi), testfn.hermite_gaussian(2, math.pi)):
        rep = funceq.check_eq12(s, phi, CONV)
        assert rep.passed, (s, phi.label, rep.rel_residual)


def test_eq12_bump():
    rep = funceq.check_eq12(0.4, testfn.bump(0.0, 1.0), CONV)
    assert rep.passed, rep.rel_residual


@pytest.mark.parametrize("s", [0.4, 0.5, 0.6])
def test_eq12_bump_at_rounding_level(s):
    # both sides run on the bump's numeric transform, accurate to rounding
    rep = funceq.check_eq12(s, testfn.bump(0.0, 1.0), CONV)
    assert rep.rel_residual < 1e-13, rep.rel_residual


def test_eq12_rejects_multidim():
    with pytest.raises(DomainError):
        funceq.check_eq12(0.5, testfn.gaussian(math.pi, n=3), CONV)


def test_gamma_factor_pole():
    with pytest.raises(PoleError):
        funceq.gamma_factor("12", 0.0)


def test_calibration_selects_twopi():
    cal = funceq.calibrate_convention("12", [0.4, 0.6], [testfn.gaussian(math.pi)])
    assert cal["selected"][0] == "twopi"


def test_eq12a_corrected_passes():
    phi = testfn.gaussian(math.pi, n=3)
    rep = funceq.check_eq12a(0.7, np.eye(3), phi, CONV, variant="corrected")
    assert rep.passed, rep.rel_residual


def test_eq12a_printed_deviation_oracle():
    # printed exponent deviates by exactly |pi^s - 1| / pi^s relative to
    # the corrected right-hand side
    s = 0.7
    phi = testfn.gaussian(math.pi, n=3)
    rep = funceq.check_eq12a(s, np.eye(3), phi, CONV, variant="printed", tol=1e-6)
    assert not rep.passed
    expected = abs(math.pi ** s - 1.0) / math.pi ** s
    assert abs(rep.rel_residual - expected) < 1e-5


def test_eq22_two_vector():
    phi = testfn.gaussian(math.pi, n=3)
    B = np.diag([1.0, -1.0, -1.0])
    rep = funceq.check_eq22(0.2, B, phi, CONV, q=1)
    assert rep.passed, rep.extra["component_residuals"]


def test_eq22_refuses_a_q_that_does_not_match_B():
    # B has signature (2, 1) while q keeps its default 1: the gamma matrix
    # would take q = 1 and the zeta integrals B's signature
    with pytest.raises(DomainError):
        funceq.check_eq22(0.2, np.diag([1.0, 1.0, -1.0]), testfn.gaussian(math.pi, n=3), CONV)


# (n, q): the ids 1 and 2 are the three-dimensional signatures
SIGNATURES = [
    pytest.param((3, 1), id="1"),
    pytest.param((3, 2), id="2"),
    pytest.param((2, 1), id="n2q1"),
    pytest.param((4, 1), id="n4q1"),
    pytest.param((4, 2), id="n4q2"),
    pytest.param((4, 3), id="n4q3"),
]


@pytest.mark.parametrize("nq", SIGNATURES)
@pytest.mark.parametrize("s", [0.2, 0.4, 1.35 + 0.2j])
def test_eq22_at_rounding_level(nq, s):
    # both sides on the b-function route: the dual side at s - n/2 is one
    # or two steps deep for real s < 1.  Budget: about 1 s per s at n = 4
    # on a 2-CPU host, 0.1 s below
    n, q = nq
    phi = testfn.gaussian(math.pi, n=n)
    B = np.diag([1.0] * q + [-1.0] * (n - q))
    t0 = time.monotonic()
    rep = funceq.check_eq22(s, B, phi, CONV, q=q)
    assert time.monotonic() - t0 < (5.0 if n == 4 else 1.0)
    assert rep.tolerance == 1e-9
    assert max(rep.extra["component_residuals"]) < 1e-13, rep.extra["component_residuals"]


@pytest.mark.parametrize("s", [0.2, 0.7, 0.4 + 0.2j])
def test_eq12a_on_the_line(s):
    # n = 1: the sphere S^0 is the two rays, and B = 2 scales the form
    t0 = time.monotonic()
    rep = funceq.check_eq12a(s, [[2.0]], testfn.gaussian(math.pi), CONV)
    assert time.monotonic() - t0 < 1.0
    assert rep.params["n"] == 1 and rep.rel_residual < 1e-13, rep.rel_residual


def test_eq12a_refuses_four_dimensions():
    # the sphere rule covers n <= 3, and refuses the rest itself
    with pytest.raises(DomainError, match="sphere quadrature"):
        funceq.check_eq12a(0.3, np.eye(4), testfn.gaussian(math.pi, n=4), CONV)


def test_calibration_builds_B_from_q():
    # without B, Eq22 takes diag(I_q, -I_{n-q}) from q and the test function
    t0 = time.monotonic()
    cal = funceq.calibrate_convention("22", [0.3], [testfn.gaussian(math.pi, n=3)], q=2)
    assert time.monotonic() - t0 < 5.0
    assert cal["selected"][0] == "twopi"
