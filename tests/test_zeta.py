import math
import time

import numpy as np
import pytest
import scipy.integrate
import scipy.special
from oracle import gaussian_zeta_definite, zeta_local_reference_per_ray

from pvzeta import funceq, phspace, quad, special, testfn, zeta
from pvzeta.errors import AccuracyError, DomainError, PoleError


def gaussian_mellin(s, a):
    # integral_0^inf e^{-a r^2} r^s dr = Gamma((s+1)/2) / (2 a^{(s+1)/2})
    return complex(special.gamma((s + 1.0) / 2.0)) / (2.0 * a ** ((s + 1.0) / 2.0))


def test_mellin_direct_gaussian():
    phi = testfn.gaussian(math.pi)
    for s in (0.0, 0.5, 2.3):
        mv = zeta.mellin(phi, [1.0], s)
        assert abs(complex(mv.value) - gaussian_mellin(s, math.pi)) < 1e-10
        assert mv.continuation_order == 0


def test_mellin_continued_gaussian():
    phi = testfn.gaussian(math.pi)
    for s in (-1.5, -2.5, -4.5):
        mv = zeta.mellin(phi, [1.0], s)
        assert mv.continuation_order >= 1
        assert abs(complex(mv.value) - gaussian_mellin(s, math.pi)) < 1e-9


@pytest.mark.parametrize(
    "s", [-0.999 + 0.05j, -0.999 + 0.275j, -0.9855 + 0.5j, -0.97 + 0.5j, -0.93 + 0.2j, -0.901 + 0.05j]
)
def test_mellin_complex_s_near_minus_one(s):
    # for Re s < -0.9 the direct head's phase u^(i p Im s), p = 1/(1 + Re s),
    # is up to 1000 times faster than r^(i Im s), which adaptive quadrature
    # does not resolve (6.6e-2 relative at -0.999 + 0.275i); one integration
    # by parts takes every point to Re s + 1 > 0
    phi = testfn.gaussian(math.pi)
    mv = zeta.mellin(phi, [1.0], s)
    assert mv.continuation_order == 1
    exact = gaussian_mellin(s, math.pi)
    assert abs(complex(mv.value) - exact) < 1e-10


@pytest.mark.parametrize("s", [-0.995, -0.999])
def test_mellin_real_s_near_minus_one(s):
    # the head integrand is p g(u^p): with r^s u^(p - 1) = 1 cancelled, an
    # underflow of u^p no longer meets 0 to a negative power
    mv = zeta.mellin(testfn.gaussian(math.pi), [1.0], s)
    exact = gaussian_mellin(s, math.pi)
    assert abs(complex(mv.value) - exact) < 1e-13 * abs(exact)


def test_mellin_pole_guard():
    phi = testfn.gaussian(math.pi)
    with pytest.raises(PoleError):
        zeta.mellin(phi, [1.0], -1.0 + 1e-9)


def test_mellin_forced_order_overlap():
    phi = testfn.gaussian(math.pi)
    for s in (-0.5, 0.3, 0.7):
        rep = zeta.check_mellin_overlap(phi, 1.0, s) if s > -1 else None
        if rep is not None:
            assert rep.passed, rep.rel_residual


def test_mellin_forced_order_bounds():
    phi = testfn.gaussian(math.pi)
    with pytest.raises(DomainError):
        zeta.mellin(phi, [1.0], 0.5, order=7)
    with pytest.raises(DomainError):
        zeta.mellin(phi, [1.0], -2.5, order=1)


def test_mellin_residues_all_families():
    for phi in (testfn.gaussian(math.pi), testfn.hermite_gaussian(2, math.pi), testfn.bump(0.0, 1.0)):
        for k in (1, 2, 3):
            rep = zeta.check_mellin_residue(phi, 1.0, k)
            assert rep.passed, (phi.label, k, rep.rel_residual)


def test_zeta_scalar1d_matches_mellin():
    phi = testfn.gaussian(math.pi)
    sp = phspace.scalar1d()
    mv = zeta.zeta_local(sp, "V1", 0.4, phi)
    ref = zeta.mellin(phi, [1.0], 0.4)
    assert abs(complex(mv.value) - complex(ref.value)) < 1e-12


def test_zeta_definite_gaussian_closed_form():
    # int |m|^{2s} e^{-a |m|^2} dm over R^n
    # = pi^{n/2} Gamma(s + n/2) / (Gamma(n/2) a^{s + n/2}), continued in s
    for n, a in ((2, 1.7), (3, math.pi)):
        phi = testfn.gaussian(a, n=n)
        # at -0.975 + 0.2i (n = 2) and -1.975 + 0.2i the continued exponent
        # has real part -0.95: the end nodes of the shared rule underflow to r = 0
        for s in (0.3, 0.8, 0.3 - 0.6j, -1.3 + 0.2j, -1.8, -2.3, -0.975 + 0.2j, -1.975 + 0.2j):
            mv = zeta.zeta_local(phspace.definite(n=n), "V1", s, phi)
            z = complex(s) + n / 2.0
            ref = math.pi ** (n / 2.0) * scipy.special.gamma(z) / (math.gamma(n / 2.0) * a ** z)
            assert abs(complex(mv.value) - ref) / abs(ref) < 1e-13, (n, s)


def test_zeta_indefinite_montecarlo():
    sp = phspace.indefinite(q=1, n=3)
    phi = testfn.gaussian(math.pi, n=3)
    rep = zeta.check_zeta_montecarlo(sp, "plus", 0.3, phi, 1_000_000, seed=17)
    assert rep.passed, rep.to_dict()


def test_zeta_rejects_wrong_dimension():
    sp = phspace.definite(n=3)
    with pytest.raises(DomainError):
        zeta.zeta_local(sp, "V1", 0.3, testfn.gaussian(1.0, n=1))


def test_zeta_rejects_bad_component():
    sp = phspace.scalar1d()
    with pytest.raises(DomainError):
        zeta.zeta_local(sp, "nope", 0.3, testfn.gaussian(1.0))


def test_shared_rule_refuses_oscillating_rays():
    # the level gap of the shared rule does not see an unresolved
    # oscillation; the numeric transform of a bump goes to the panel route
    phihat = testfn.fourier(testfn.bump(0.0, 1.0), testfn.FourierConvention.TWOPI)
    with pytest.raises(DomainError, match="zeta.mellin"):
        zeta.zeta_local(phspace.scalar1d(), "V1", 0.4, phihat)
    ref = zeta.zeta_local_reference(phspace.scalar1d(), "V1", 0.4, phihat, 0)
    assert ref.value == zeta.mellin(phihat, 1.0, 0.4).value


# (space, test function, s, continuation depth N of the radial Mellin
# transform at 2s + n - 1).  Both routes take the angular order that
# zeta_local measures, the reference on the rotated rule, so they share no
# angular node.  Bump rays differentiate exactly and end at the support's
# far edge.
ENGINE_CASES = [
    (phspace.definite(B=np.diag([1.0, 2.0, 0.5])), testfn.hermite_gaussian(2, 1.3, n=3), 0.4, 0),
    (phspace.definite(B=np.diag([1.0, 2.0, 0.5])), testfn.gaussian(math.pi, n=3), -1.7 + 0.3j, 1),
    (phspace.definite(B=np.diag([1.0, 2.0, 0.5])), testfn.hermite_gaussian(2, 2.0, n=3), -2.2, 2),
    (phspace.definite(B=np.diag([1.0, 3.0])), testfn.hermite_gaussian(2, 1.3, n=2), -1.2 + 0.4j, 1),
    (phspace.definite(B=np.diag([1.0, 3.0])), testfn.hermite_gaussian(2, 1.3, n=2), -1.6 + 0.3j, 2),
    (phspace.definite(B=np.diag([2.0, 0.7])), testfn.gaussian(0.8, n=2), 0.9 - 0.5j, 0),
    (phspace.definite(n=2), testfn.bump(0.0, 1.0, n=2), 0.3, 0),
    (phspace.definite(n=2), testfn.bump(0.0, 1.0, n=2), -1.2, 1),
    (phspace.definite(B=np.diag([1.0, 3.0])), testfn.bump(1.5, 1.0, n=2), -1.3, 1),
]


@pytest.mark.parametrize("space, phi, s, depth", ENGINE_CASES)
def test_definite_engine_matches_reference(space, phi, s, depth):
    # the reference's order is the coarser of the two that agreed, so its
    # angular error is the rule's angular gap; on the off-centre bump, whose
    # edges slow the trapezoidal rule to order 512, that gap is 1.06e-12 of
    # the value (the rule's tol is relative to the L1 mass)
    fast = zeta.zeta_local(space, "V1", s, phi, tol=1e-12)
    ref = zeta.zeta_local_reference(space, "V1", s, phi, fast.rule["angular_order"], tol=1e-12)
    assert fast.continuation_order == ref.continuation_order == depth
    assert fast.pole_distance == ref.pole_distance
    assert fast.rule is not None and ref.rule is None
    err = abs(complex(fast.value) - complex(ref.value))
    assert err < 1e-12 * abs(complex(ref.value)) + fast.rule["angular_gap"], err


@pytest.mark.parametrize("space, phi, s, depth", ENGINE_CASES)
def test_reference_family_matches_the_per_ray_reference(space, phi, s, depth):
    # every ray of the reference on one subdivision up to the largest cut,
    # against one adaptive transform per ray on its own cut, summed in turn:
    # equal to rounding (at most 2.3e-15 relative on these cases; the two
    # sum some hundred terms in other orders and raise |p(omega)|^s apart)
    order = zeta.zeta_local(space, "V1", s, phi, tol=1e-12).rule["angular_order"]
    fam = zeta.zeta_local_reference(space, "V1", s, phi, order, tol=1e-12)
    per = zeta_local_reference_per_ray(space, "V1", s, phi, order, tol=1e-12)
    assert (fam.pole_distance, fam.continuation_order) == (per.pole_distance, per.continuation_order)
    assert abs(complex(fam.value) - complex(per.value)) <= 1e-14 * abs(complex(per.value))


@pytest.mark.parametrize("s", [-1.7 + 0.3j, 0.8])
def test_anisotropic_gaussian_matches_the_oracle(s):
    # the order-16 sphere rule is off by 4.8e-8 at s = -1.7 + 0.3i; the
    # measured order is not
    sp = phspace.definite(B=np.diag([1.0, 2.0, 0.5]))
    mv = zeta.zeta_local(sp, "V1", s, testfn.gaussian(math.pi, n=3))
    exact = gaussian_zeta_definite(s, math.pi, [1.0, 2.0, 0.5])
    assert abs(complex(mv.value) - exact) < 1e-12 * abs(exact)
    assert mv.rule["angular_order"] >= 16


def _tensor_plane_zeta(phi, s, lo, hi):
    # integral of |m|^(2s) phi(m) over the square [lo, hi]^2 around the
    # support, on a 40 x 40-panel Gauss-Legendre tensor rule
    x, wx = quad.panel_rule(lo[0], hi[0], 40)
    y, wy = quad.panel_rule(lo[1], hi[1], 40)
    X, Y = np.meshgrid(x, y, indexing="ij")
    return float(np.sum(np.outer(wx, wy) * (X * X + Y * Y) ** s * phi(np.stack([X, Y], axis=-1))))


def test_narrow_off_centre_bump_in_the_plane_resolves_on_both_routes():
    # the support subtends 0.2 rad; the order-16 rule gives 1.4390e-3 on
    # both routes, and the doubling settles far above it
    phi, s = testfn.bump([0.5, 0.0], 0.05, n=2), 0.3
    exact = _tensor_plane_zeta(phi, s, (0.45, -0.05), (0.55, 0.05))
    assert exact == pytest.approx(7.6964e-4, rel=1e-4)
    fast = zeta.zeta_local(phspace.definite(n=2), "V1", s, phi)
    ref = zeta.zeta_local_reference(phspace.definite(n=2), "V1", s, phi, fast.rule["angular_order"])
    assert fast.rule["angular_order"] >= 256
    for val in (fast.value, ref.value):
        assert abs(val - exact) < 1e-8 * exact, val


def test_an_off_centre_support_sets_the_first_order():
    # the support lies between the angles k pi / 4 of the nodes of orders 2
    # and 4, which would both give 0 and agree; the first order puts its
    # node spacing below half the angle the support subtends
    c = np.array([math.cos(math.pi / 8.0), math.sin(math.pi / 8.0)])
    phi, s = testfn.bump(c, 0.3, n=2), 0.3
    for order in (2, 4):
        assert phi.support_rays(order, False)[0].size == 0
    fast = zeta.zeta_local(phspace.definite(n=2), "V1", s, phi)
    ref = zeta.zeta_local_reference(phspace.definite(n=2), "V1", s, phi, fast.rule["angular_order"])
    exact = _tensor_plane_zeta(phi, s, c - 0.3, c + 0.3)
    assert fast.rule["angular_order"] > 4 and exact > 0.0
    for val in (fast.value, ref.value):
        assert abs(val - exact) < 1e-8 * exact, val


def _bump_power_integral(alpha):
    # integral_0^1 r^alpha e^{-1/(1 - r^2)} dr continued in alpha, with no
    # derivative of the bump: on [0, 1/2] term by term from
    # e^{-1/(1-r^2)} = e^{-1} sum_n L_n^(-1)(1) r^(2n) (the Laguerre
    # generating function; coefficients by the three-term recurrence, as
    # scipy's eval_genlaguerre returns nan at -1), each term continued
    # exactly, and on [1/2, 1] by QUADPACK
    lag = [1.0, -1.0]
    for m in range(1, 200):
        lag.append(((2 * m - 1) * lag[m] - (m - 1) * lag[m - 1]) / (m + 1))
    head = math.exp(-1.0) * sum(c * 0.5 ** (alpha + 2 * m + 1) / (alpha + 2 * m + 1) for m, c in enumerate(lag))
    body = scipy.integrate.quad(lambda r: r ** alpha * math.exp(-1.0 / (1.0 - r * r)), 0.5, 1.0, epsabs=0.0, epsrel=1e-13, limit=200)[0]
    return head + body


@pytest.mark.parametrize(
    "space, n, s",
    [("scalar", 1, -3.5), ("scalar", 1, -4.5), ("scalar", 1, -5.5), ("definite", 3, -2.75), ("definite", 3, -3.25)],
)
def test_continued_bump_zeta_matches_the_series_route(space, n, s):
    # continuation by parts needs the ray derivatives up to order 5 here;
    # for the radial bump every sphere rule gives 4 pi times the radial
    # integral at 2s + 2, so the angular rule settles at its first order
    if space == "scalar":
        sp, ref = phspace.scalar1d(), _bump_power_integral(s)
    else:
        sp, ref = phspace.definite(n=n), 4.0 * math.pi * _bump_power_integral(2.0 * s + n - 1.0)
    phi = testfn.bump(0.0, 1.0, n=n)
    fast = zeta.zeta_local(sp, "V1", s, phi)
    assert fast.rule["angular_order"] == (0 if space == "scalar" else 2)
    slow = zeta.zeta_local_reference(sp, "V1", s, phi, fast.rule["angular_order"])
    for val in (complex(fast.value), complex(slow.value)):
        assert abs(val - ref) < 1e-10 * abs(ref)


def test_definite_engine_pole_guard():
    # 2s + n - 1 = -1 at s = -n/2
    sp, phi = phspace.definite(n=3), testfn.gaussian(math.pi, n=3)
    with pytest.raises(PoleError):
        zeta.zeta_local(sp, "V1", -1.5 + 1e-8, phi)
    assert zeta.zeta_local(sp, "V1", -1.5 + 1e-3, phi).pole_distance == pytest.approx(2e-3)


def test_definite_engine_level_cap(monkeypatch):
    # past the cap the shared rule raises, and zeta_local has no other route
    monkeypatch.setattr(zeta, "_DE_LEVELS", 1)
    sp, phi = phspace.definite(n=2), testfn.gaussian(1.0, n=2)
    with pytest.raises(AccuracyError):
        zeta.zeta_local(sp, "V1", 0.3, phi, tol=1e-14)


@pytest.mark.parametrize("component, omega", [("V1", 1.0), ("V2", -1.0)])
@pytest.mark.parametrize(
    "phi, s, depth",
    [
        (testfn.gaussian(math.pi), 0.5, 0),
        (testfn.hermite_gaussian(1, 2.0), 0.8 - 0.3j, 0),
        (testfn.hermite_gaussian(2, 1.3), -1.4 + 0.2j, 1),
        (testfn.bump(0.4, 1.0), -0.6, 0),
    ],
    ids=["gaussian", "hermite-complex-s", "hermite-continued", "bump"],
)
def test_scalar_kind_shared_rule_against_adaptive_mellin(phi, s, depth, component, omega):
    # the scalar kind runs on the shared radial rule with its one ray,
    # and its reference is the adaptive Mellin transform on that ray
    sp = phspace.scalar1d()
    fast = zeta.zeta_local(sp, component, s, phi)
    ref = zeta.zeta_local_reference(sp, component, s, phi, fast.rule["angular_order"])
    mel = zeta.mellin(phi, omega, s, tol=1e-10)
    assert ref == mel
    # the one ray is exact: no angular doubling runs
    assert fast.rule["angular_order"] == 0 and fast.rule["angular_gap"] == 0.0
    assert fast.continuation_order == depth == ref.continuation_order
    err = abs(complex(fast.value) - complex(ref.value)) / abs(complex(ref.value))
    assert err < 1e-12, err


def test_indefinite_angular_order_is_measured(tmp_path):
    # phi = m_2^4 e^{-pi |m|^2} varies as cos^4 on the circle of the plus
    # sheet: the 4-point rule of order 2 overweights it by 1/3, 8 points
    # are exact, so the rule settles one order above the Gaussian's
    sp = phspace.indefinite(q=1, n=3)
    gauss = zeta.zeta_local(sp, "plus", 0.2, testfn.gaussian(math.pi, n=3))
    phi = testfn.polygauss({(0, 4, 0): 1.0}, math.pi, 3)
    fast = zeta.zeta_local(sp, "plus", 0.2, phi)
    assert gauss.rule["angular_order"] == 2 and fast.rule["angular_order"] == 4
    assert fast.rule["angular_gap"] < 1e-10 * abs(fast.value)
    ref = zeta.zeta_local_reference(sp, "plus", 0.2, phi, 4)
    assert ref.value == pytest.approx(fast.value, rel=1e-9)
    # the row reports the order it measured
    rep = zeta.check_zeta_eval(sp, "plus", 0.2, phi, 1e-8)
    assert rep.passed and rep.extra["rule"]["angular_order"] == 4


# ---------------------------------------------------------------------------
# indefinite forms: the b-function route and the stencil reference

INDEFINITE_B = {1: np.diag([1.0, -1.0, -1.0]), 2: np.diag([1.0, 1.0, -1.0])}


@pytest.mark.parametrize("q", [1, 2])
@pytest.mark.parametrize("s", [-1.35, 0.2, 0.3 + 0.4j])
def test_b_function_identity_pointwise(q, s):
    # p*(d)|p|^{s+1} = +-b(s)|p|^s, the left side by 5-point second differences
    B = INDEFINITE_B[q]
    rng = np.random.default_rng(q)
    f = lambda m: np.abs(m @ B @ m).astype(complex) ** (s + 1.0)
    h = 1e-3
    for sign in (1.0, -1.0):
        hits = 0
        while hits < 4:
            m = rng.normal(size=3)
            p = float(m @ B @ m)
            if sign * p < 0.5:
                continue
            hits += 1
            lap = 0.0
            for i in range(3):
                e = np.eye(3)[i] * h
                d2 = (-f(m + 2 * e) + 16 * f(m + e) - 30 * f(m) + 16 * f(m - e) - f(m - 2 * e)) / (12 * h * h)
                lap += d2 / B[i, i]
            rhs = sign * zeta._b_function(3, s) * abs(p) ** complex(s)
            assert abs(lap - rhs) < 1e-7 * abs(rhs), (q, s, sign, m)


def test_laplacian_power_matches_derivative_sums():
    # L^2 phi with L = sum_i w_i d_i^2, against the exact partial derivatives
    phi = testfn.hermite_gaussian(2, 1.3, n=3)
    w = 1.0 / np.diag(INDEFINITE_B[1])
    L2 = testfn.laplacian_power(phi, w, 2)
    pts = np.random.default_rng(5).normal(size=(50, 3))
    ref = np.zeros(50)
    for i in range(3):
        for k in range(3):
            alpha = [0, 0, 0]
            alpha[i] += 2
            alpha[k] += 2
            ref = ref + w[i] * w[k] * phi.derivative(tuple(alpha))(pts)
    vals = L2(pts)
    # real coefficients are evaluated in real arithmetic
    assert vals.dtype == np.float64
    assert np.max(np.abs(vals - ref)) < 1e-12 * np.max(np.abs(ref))
    # a complex-coefficient function keeps complex arithmetic
    chat = testfn.fourier(testfn.hermite_gaussian(1, 1.3, n=3), "angular")
    Lc = testfn.laplacian_power(chat, w, 1)
    refc = sum(w[i] * chat.derivative(tuple(2 * (j == i) for j in range(3)))(pts) for i in range(3))
    assert np.iscomplexobj(Lc(pts)) and np.max(np.abs(Lc(pts) - refc)) < 1e-12 * np.max(np.abs(refc))
    with pytest.raises(DomainError):
        testfn.laplacian_power(testfn.bump(0.0, 1.0, n=3), w, 1)


@pytest.mark.parametrize("component", ["plus", "minus"])
@pytest.mark.parametrize("phi", [testfn.gaussian(math.pi, n=3), testfn.hermite_gaussian(2, 1.3, n=3)], ids=["gaussian", "hermite"])
def test_indefinite_b_function_route_matches_stencil_reference(component, phi):
    sp = phspace.indefinite(q=1, n=3)
    fast = zeta.zeta_local(sp, component, -1.35, phi, tol=1e-10)
    ref = zeta.zeta_local_reference(sp, component, -1.35, phi, fast.rule["angular_order"], tol=1e-11)
    assert fast.continuation_order == 1 and ref.continuation_order == 1
    assert fast.pole_distance == pytest.approx(ref.pole_distance) == pytest.approx(0.15)
    assert set(fast.rule) == {"radial_nodes", "level_gap", "angular_order", "angular_gap"} and ref.rule is None
    err = abs(complex(fast.value) - complex(ref.value)) / abs(complex(ref.value))
    assert err < 1e-10, err


@pytest.mark.parametrize("q", [1, 2])
def test_indefinite_depth_two_through_eq22(q):
    # at s = 2.35 the direct side of Eq22 is Z(-2.35), two b-function steps
    # deep, where the stencil reference does not reach
    B, phi = INDEFINITE_B[q], testfn.gaussian(math.pi, n=3)
    sp = phspace.indefinite(B=B)
    fast = zeta.zeta_local(sp, "plus", -2.35, phi)
    assert fast.continuation_order == 2
    with pytest.raises(DomainError):
        zeta.zeta_local_reference(sp, "plus", -2.35, phi, fast.rule["angular_order"])
    rep = funceq.check_eq22(2.35, B, phi, "twopi", q=q)
    assert max(rep.extra["component_residuals"]) < 1e-13, rep.extra["component_residuals"]


@pytest.mark.parametrize("n, q, kept, refused", [(2, 1, -0.4, (-0.6, -0.9)), (4, 2, -0.8, (-1.2, -1.35, -1.8))])
def test_indefinite_reference_off_three_dimensions(n, q, kept, refused):
    # off n = 3 the angular profile is not smooth at r = 0 (pi e^{-pi r^2} / r
    # at n = 4, q = 2), so the stencil's by-parts step is not valid: the
    # reference holds while Re beta > -1 and Re s > -1 (beta = 2 s + n - 2)
    # and refuses beyond, where the stencil is off by 1e-2 to 1e5.  Budget:
    # 1 s (about 0.15 s on a 2-CPU host)
    sp, phi = phspace.indefinite(q=q, n=n), testfn.gaussian(math.pi, n=n)
    t0 = time.monotonic()
    fast = zeta.zeta_local(sp, "plus", kept, phi)
    ref = zeta.zeta_local_reference(sp, "plus", kept, phi, fast.rule["angular_order"], tol=1e-11)
    assert abs(complex(fast.value) - complex(ref.value)) < 1e-12 * abs(complex(ref.value))
    for s in refused:
        with pytest.raises(DomainError, match="off n = 3"):
            zeta.zeta_local_reference(sp, "plus", s, phi, fast.rule["angular_order"])
    assert time.monotonic() - t0 < 1.0


@pytest.mark.parametrize("pole", [-1.0, -1.5])
def test_indefinite_pole_guard(pole):
    sp, phi = phspace.indefinite(q=1, n=3), testfn.gaussian(math.pi, n=3)
    with pytest.raises(PoleError):
        zeta.zeta_local(sp, "minus", pole + 1e-8, phi)
    with pytest.raises(PoleError):
        zeta.zeta_local_reference(sp, "minus", pole + 1e-8, phi, 2)
    assert zeta.zeta_local(sp, "minus", pole + 1e-3j, phi).pole_distance == pytest.approx(1e-3)


def test_signature_rule_level_cap(monkeypatch):
    # the indefinite kind runs on the same rule under the same cap
    monkeypatch.setattr(zeta, "_DE_LEVELS", 1)
    sp, phi = phspace.indefinite(q=1, n=3), testfn.gaussian(math.pi, n=3)
    with pytest.raises(AccuracyError):
        zeta.zeta_local(sp, "plus", 0.2, phi, tol=1e-14)


def test_indefinite_reference_near_the_poles():
    # the stencil reference takes its head in u = r^(1 + Re beta) with the
    # powers cancelled: r = u^p (p = 100 at s = -0.995) underflows to 0 on
    # most of the head, where the angular profile must give its limit H(0+)
    sp, phi = phspace.indefinite(q=1, n=3), testfn.gaussian(math.pi, n=3)
    for s in (-0.995, -0.999, -0.9999, -0.99 + 0.1j, -0.985 + 0.15j, -0.995 + 0.1j, -1.495, -1.499, -1.49 + 0.05j):
        mv = zeta.zeta_local(sp, "plus", s, phi)
        fast = complex(mv.value)
        ref = complex(zeta.zeta_local_reference(sp, "plus", s, phi, mv.rule["angular_order"]).value)
        assert abs(fast - ref) < 1e-10 * abs(ref), s


@pytest.mark.parametrize("rotated", [False, True], ids=["plain", "rotated"])
@pytest.mark.parametrize(
    "space",
    [phspace.definite(n=3), phspace.definite(B=np.diag([1.0, 2.0, 0.5])),
     phspace.definite(B=[[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 3.0]]), phspace.definite(B=[[2.0, 0.5], [0.5, 1.0]])],
    ids=["identity", "diagonal", "full", "plane-full"],
)
def test_polar_p_keeps_the_bits_of_its_einsum(space, rotated):
    # _polar evaluates p by phspace.rel_invariant, where it had its own einsum
    phi = testfn.gaussian(1.0, n=space.n)
    for s in (0.7, complex(-0.3, 0.4)):
        for order in (4, 16, 64):
            pts, wts, _ = zeta._polar(space, "V1", complex(s), order, rotated, phi)
            ref_pts, ref_wts = phi.support_rays(order, rotated)
            pom = np.einsum("ij,jk,ik->i", ref_pts, space.Bmat, ref_pts)
            ps = pom ** complex(s).real if complex(s).imag == 0.0 else pom.astype(complex) ** s
            assert np.array_equal(pts, ref_pts)
            assert np.array_equal(wts.view(np.int64), (ref_wts * ps).view(np.int64))
