import math

import numpy as np
import pytest

from pvzeta import homog, quad, special, testfn
from pvzeta.errors import AccuracyError, DomainError, PoleError


def test_tplus_euler_gamma():
    rep = homog.check_tplus_int()
    assert rep.passed
    assert abs(rep.lhs - (-np.euler_gamma)) < 1e-8


def test_tplus_noninteger_matches_gamma():
    # <t_+^s, e^{-t}> = Gamma(s+1) for Re s > -1, continued elsewhere
    for s in (0.3, -0.5, -1.5, -2.7):
        val = complex(homog.tplus_profile(s, homog.ExpProfile(1.0)))
        ref = complex(special.gamma(s + 1.0))
        assert abs(val - ref) / abs(ref) < 1e-9, s


def test_tplus_integer_finite_part():
    from pvzeta import zeta

    # k = 2: the regularized value is the finite part of Gamma(s+1) at
    # s = -2, which is EulerGamma - 1; the symmetric epsilon-average
    # around the pole must also reproduce it
    prof = homog.ExpProfile(1.0)
    direct = complex(homog.tplus_profile(-2.0, prof))
    assert abs(direct - (np.euler_gamma - 1.0)) < 1e-10
    eps = 1e-5
    v1 = complex(zeta.mellin_profile(prof, -2.0 + eps, order=3).value)
    v2 = complex(zeta.mellin_profile(prof, -2.0 - eps, order=3).value)
    assert abs(0.5 * (v1 + v2) - direct) < 1e-8
    # the pole is simple with residue phi'(0)/1! = -1
    assert abs(eps * v1 - (-1.0)) < 1e-4


def test_homogeneity_scaling_identity():
    phi = testfn.gaussian(math.pi)
    for s in (-0.5, 0.3, -1.7):
        for lam in (0.5, 2.0, 3.0):
            rep = homog.check_homogeneity(s, phi, lam)
            assert rep.passed, (s, lam, rep.rel_residual)


def test_critical_degree_scale_invariance():
    # at the critical degree s = -n the density R_s phi is homogeneous of
    # degree 0; the log anomaly of t_+^{-1} vanishes when phi(0) = 0
    phi = testfn.hermite_gaussian(2, 1.0)
    v1 = complex(homog.rs_transform(phi, -1.0, 1.0))
    v2 = complex(homog.rs_transform(phi, -1.0, 2.0))
    assert abs(v1 - v2) < 1e-10


def test_rs_transform_oracle():
    # R_0 phi(1) = int_0^inf e^{-t^2} dt = sqrt(pi)/2 for gaussian rate 1
    v = complex(homog.rs_transform(testfn.gaussian(1.0), 0.0, 1.0))
    assert abs(v - math.sqrt(math.pi) / 2.0) < 1e-11


def test_cutoff_log_mass_normalized():
    psi = homog.make_cutoff(0.5, 2.0)
    assert abs(psi.log_mass() - 1.0) < 1e-12


def test_cutoff_log_means_differ_by_the_log_of_the_scale():
    # eta_2(t) = eta_1(t / 2) with unit log mass, so c_1 moves by ln 2
    d = homog.make_cutoff(1.0, 4.0).log_mean() - homog.make_cutoff(0.5, 2.0).log_mean()
    assert abs(d - math.log(2.0)) < 1e-15, d


def test_cutoffs_are_built_once():
    assert homog.make_cutoff(0.5, 2.0) is homog.make_cutoff(0.5, 2.0)
    assert homog.make_cutoff(0.5, 2.0) is not homog.make_cutoff(1.0, 4.0)


def test_log_mean_is_computed_once_per_cutoff(monkeypatch):
    calls = []
    real = quad.integrate_1d

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(quad, "integrate_1d", counted)
    psi = homog.RadialCutoff(0.5, 2.0, 1.0)
    first = psi.log_mean()
    assert psi.log_mean() == first and len(calls) == 1
    homog.RadialCutoff(0.5, 2.0, 1.0).log_mean()
    assert len(calls) == 2


_CUTOFFS = [homog.make_cutoff(0.5, 2.0), homog.make_cutoff(1.0, 4.0)]


@pytest.mark.parametrize("route", [homog.extend_kdot, homog.pointwise_kdot], ids=["fast", "pointwise"])
@pytest.mark.parametrize("psi", _CUTOFFS, ids=["psi1", "psi2"])
def test_extension_of_a_gaussian_is_closed(route, psi):
    # <t_+^-1, e^{-a t^2}> = -(EulerGamma + ln a) / 2 on each ray, so
    # kdot(e^{-a m^2}) = integral_S k (-(EulerGamma + ln a) / 2 - c_1(psi))
    # for k = |m|^-n: 2 on the line, 2 pi in the plane
    c1 = psi.log_mean()
    for n, area in ((1, 2.0), (2, 2.0 * math.pi)):
        k = _norm_density(n)
        for a in (0.5, 1.0, math.pi):
            value = complex(route(k, psi, testfn.gaussian(a, n=n))[0])
            closed = -0.5 * area * (np.euler_gamma + math.log(a)) - area * c1
            assert abs(value - closed) < 1e-14, (n, a, value, closed)


@pytest.mark.parametrize(
    "phi",
    [testfn.hermite_gaussian(2, 1.0), testfn.bump(3.0, 1.0), testfn.bump(0.0, 1.0)],
    ids=["hermite", "bump-off-origin", "bump-at-origin"],
)
def test_fast_route_matches_the_pointwise_reference(phi):
    k = homog.homog_density(-1.0, lambda x: 1.0 / np.abs(x), n=1, label="|m|^-1")
    for psi in _CUTOFFS:
        fast, rule = homog.extend_kdot(k, psi, phi)
        ref, ref_rule = homog.pointwise_kdot(k, psi, phi)
        assert abs(complex(fast) - complex(ref)) < 1e-14, (fast, ref)
        # one inner row per ray on the fast route, a row per outer node on the reference
        assert "outer_nodes" not in rule and ref_rule["outer_nodes"] == 53


def test_extension_restricts_away_from_origin():
    k = homog.homog_density(-1.0, lambda x: 1.0 / np.abs(x), n=1, label="|m|^-1")
    psi = homog.make_cutoff(0.5, 2.0)
    phi = testfn.bump(3.0, 1.0)
    rep = homog.check_extension_restricts(k, psi, phi)
    assert rep.passed, rep.rel_residual


def test_extension_ambiguity_is_delta():
    k = homog.homog_density(-1.0, lambda x: 1.0 / np.abs(x), n=1, label="|m|^-1")
    psi1 = homog.make_cutoff(0.5, 2.0)
    psi2 = homog.make_cutoff(1.0, 4.0)
    phis = [testfn.gaussian(a) for a in (0.5, 1.0, 2.0, math.pi, 4.0)]
    rep = homog.check_ambiguity(k, psi1, psi2, phis)
    assert rep.passed, rep.extra["relative_spread"]
    # the closed constant against the pointwise reference, at rounding level
    assert rep.rel_residual < 1e-14, rep.rel_residual
    assert abs(rep.lhs - math.log(4.0)) < 1e-15, rep.lhs
    # R_{-1} phi(t omega) = A(omega) - log(t) phi(0), so kdot_1 - kdot_2 is
    # phi(0) integral_S k times integral_0^inf (eta2(t) - eta1(t)) log(t) dt/t;
    # with eta2(t) = eta1(t/2) and unit log mass that is ln 2, so the
    # constant is 2 ln 2 = ln 4 for k = 1/|m| (integral_S k = 2)
    for c in rep.extra["constants"]:
        assert abs(c - math.log(4.0)) < 1e-12, c


def test_ambiguity_rejects_vanishing_at_zero():
    k = homog.homog_density(-1.0, lambda x: 1.0 / np.abs(x), n=1, label="|m|^-1")
    psi1 = homog.make_cutoff(0.5, 2.0)
    psi2 = homog.make_cutoff(1.0, 4.0)
    with pytest.raises(DomainError):
        homog.check_ambiguity(k, psi1, psi2, [testfn.hermite_gaussian(2, 1.0)])


def test_tplus_pole_at_negative_integer_guarded():
    with pytest.raises(PoleError):
        homog.tplus_profile(-1.0 + 1e-9, homog.ExpProfile(1.0))


def _norm_density(n, seen=None):
    """|m|^-n, recording the shapes of the point arrays it is given."""

    def density(x):
        if seen is not None:
            seen.append(np.shape(x))
        return 1.0 / np.sum(x * x, axis=-1) ** (n / 2.0)

    return homog.homog_density(-float(n), density, n=n, label=f"|m|^-{n}")


def test_extension_ambiguity_constant_in_the_plane():
    # the same constant for k = |m|^-2 on R^2 is 2 pi ln 2; k and phi are
    # radial, so the four rays of the first order integrate them exactly
    # and the angular rule settles there.  The pointwise reference does
    # not use the scaling law that makes the constant closed.
    seen = []
    k = _norm_density(2, seen)
    psi1, psi2 = homog.make_cutoff(0.5, 2.0), homog.make_cutoff(1.0, 4.0)
    for a in (1.0, 2.0):
        phi = testfn.gaussian(a, n=2)
        (v1, r1), (v2, r2) = homog.pointwise_kdot(k, psi1, phi), homog.pointwise_kdot(k, psi2, phi)
        assert r1["angular_order"] == r2["angular_order"] == 2
        d = complex(v1) - complex(v2)
        assert abs(d - 2.0 * math.pi * math.log(2.0)) < 1e-13, (a, d)
    rep = homog.check_ambiguity(k, psi1, psi2, [testfn.gaussian(a, n=2) for a in (1.0, 2.0)])
    assert rep.rel_residual < 1e-14 and abs(rep.lhs - 2.0 * math.pi * math.log(2.0)) < 1e-14, rep.to_json()
    # both routes evaluate the density on (N, n) arrays of points
    homog.extend_kdot(k, psi1, testfn.gaussian(1.0, n=2))
    assert seen and all(len(shape) == 2 and shape[1] == 2 for shape in seen), set(seen)


def test_extension_restricts_in_the_plane():
    k = _norm_density(2)
    rep = homog.check_extension_restricts(k, homog.make_cutoff(0.5, 2.0), testfn.bump(1.5, 1.2, n=2))
    assert rep.passed, rep.rel_residual
    assert rep.extra["rule"]["coarse_fine_gap"] < 1e-10


@pytest.mark.parametrize(
    "phi",
    [testfn.gaussian(1.0), testfn.hermite_gaussian(2, 1.0), testfn.bump(3.0, 1.0)],
    ids=["gaussian", "hermite", "bump"],
)
def test_fixed_inner_rule_matches_adaptive_rs_transform(phi):
    ts = np.array([0.5, 0.8, 1.3, 2.0])
    for om in (np.array([1.0]), np.array([-1.0])):
        cut = phi.ray(0.5 * om).cutoff(1e-18)
        fixed = homog._rs_rows(phi.ray(om).derivative(1), ts, cut, 2 * homog._INNER_PANELS[-1])
        for t, value in zip(ts, fixed):
            ref = complex(homog.rs_transform(phi, -1.0, t * om, tol=1e-12))
            assert abs(value - ref) < 1e-12, (t * om, value, ref)


def test_extension_refuses_a_degree_off_the_critical_one():
    # the cutoff extension is defined at degree -n only; |m|^-1/2 on the
    # line is locally integrable and has no need of it
    k = homog.homog_density(-0.5, lambda x: np.abs(x) ** -0.5, n=1, label="|m|^-1/2")
    with pytest.raises(DomainError, match="critical degree"):
        homog.extend_kdot(k, homog.make_cutoff(0.5, 2.0), testfn.gaussian(1.0))


def test_extension_refuses_an_unresolved_test_function():
    # a bump of radius 0.02 inside the cutoff annulus is narrower than the
    # finest inner rule resolves: 512 panels leave A(1) 7e-11 off
    # direct_pair, 8e-9 of the value, and 256 and 512 panels differ by
    # 2.3e-10 against the bound 1e-10 * 8.9e-3
    k = homog.homog_density(-1.0, lambda x: 1.0 / np.abs(x), n=1, label="|m|^-1")
    with pytest.raises(AccuracyError):
        homog.extend_kdot(k, homog.make_cutoff(0.5, 2.0), testfn.bump(1.0, 0.02))


@pytest.mark.parametrize(
    "f",
    [
        testfn.PolyGauss1D([1.0, 0.5], 2.0),
        testfn.bump(0.0, 1.0).ray([1.0]),
        testfn.bump(0.0, 1.0).ray([1.0]).derivative(1),
        homog.ExpProfile(1.5),
        homog.ScaledProfile(homog.ExpProfile(1.0), 2.0),
        homog.make_cutoff(0.5, 2.0).eta,
    ],
    ids=["polygauss", "numeric-order-0", "numeric-order-1", "exp", "scaled", "cutoff-eta"],
)
def test_profile_scalar_in_scalar_out(f):
    assert np.shape(f(0.9)) == ()
    xs = np.linspace(0.3, 2.5, 7)
    vals = f(xs)
    assert np.shape(vals) == (7,)
    assert np.allclose(vals, [f(float(x)) for x in xs], rtol=1e-14, atol=0.0)
