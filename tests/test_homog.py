import math

import numpy as np
import pytest

from oracle import direct_pair_per_ray, extend_kdot_per_ray, pointwise_kdot_per_ray
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
    # (R_s phi(m) = t_+^{s+n-1} on the ray profile of m)
    phi = testfn.hermite_gaussian(2, 1.0)
    v1 = complex(homog.tplus_profile(-1.0, phi.ray([1.0])))
    v2 = complex(homog.tplus_profile(-1.0, phi.ray([2.0])))
    assert abs(v1 - v2) < 1e-10
    # the fixed inner rule on both points, as one family
    rows = homog._inner_rows(phi, np.array([[1.0], [2.0]]), np.ones(1), phi.rays(np.array([[1.0], [2.0]])).cutoff(1e-18), 256)
    assert abs(rows[0, 0] - rows[1, 0]) < 1e-10 and abs(rows[0, 0] - v1) < 1e-12


def test_rs_transform_oracle():
    # R_0 phi(1) = int_0^inf e^{-t^2} dt = sqrt(pi)/2 for gaussian rate 1
    v = complex(homog.tplus_profile(0.0, testfn.gaussian(1.0).ray([1.0])))
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


# (id, phi, whether phi is even, so that rays of one profile can share a row)
_SHARED_ROW_CASES = [
    ("gaussian", testfn.gaussian(1.3), True),
    ("hermite-2", testfn.hermite_gaussian(2, 0.9), True),
    ("hermite-3", testfn.hermite_gaussian(3, 1.0), False),
    ("bump-0", testfn.bump(0.0, 1.0), False),
    ("bump-0.3", testfn.bump(0.3, 1.1), False),
    ("gaussian-plane", testfn.gaussian(1.0, n=2), True),
    ("hermite-plane", testfn.hermite_gaussian(2, 1.5, n=2), True),
]
_ROUTES = [("extend", homog.extend_kdot, extend_kdot_per_ray), ("pointwise", homog.pointwise_kdot, pointwise_kdot_per_ray)]


@pytest.mark.parametrize(
    "route, per_ray, phi, even",
    [pytest.param(route, per_ray, phi, even, id=f"{name}-{rid}") for name, phi, even in _SHARED_ROW_CASES for rid, route, per_ray in _ROUTES],
)
def test_shared_inner_rows_keep_the_per_ray_bits(route, per_ray, phi, even, monkeypatch):
    # rays with one polynomial-Gaussian profile share one _inner_rows row:
    # the value and rule are those of one row per ray, bit for bit, with
    # half the rows for an even phi on the line (the rays +-1), fewer in
    # the plane (rays whose profiles come out equal: all of them for a
    # radial phi), and one per ray for an odd phi or a bump, which is
    # never merged; a row is one end of the inner rule that _inner_rows
    # builds for its distinct rays
    k = _norm_density(phi.n)
    psi = homog.make_cutoff(0.5, 2.0)
    calls = []
    real = quad.panel_rule

    def counted(a, b, npanel):
        calls.extend([b] * np.size(b))
        return real(a, b, npanel)

    monkeypatch.setattr(quad, "panel_rule", counted)
    ref, ref_rule = per_ray(k, psi, phi)
    per_ray_calls = len(calls)
    del calls[:]
    value, rule = route(k, psi, phi)
    assert repr(value) == repr(ref) and repr(rule) == repr(ref_rule)
    if not even:
        assert len(calls) == per_ray_calls
    elif phi.n == 1:
        assert 2 * len(calls) == per_ray_calls
    else:
        assert len(calls) < per_ray_calls, (len(calls), per_ray_calls)


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
    # R_{-1} phi(t om) on the line is t_+^{-1} on the ray profile of t om
    ts = np.array([0.5, 0.8, 1.3, 2.0])
    for om in (np.array([1.0]), np.array([-1.0])):
        cut = np.atleast_1d(phi.ray(0.5 * om).cutoff(1e-18))
        fixed = homog._inner_rows(phi, om[None], ts, cut, 2 * homog._INNER_PANELS[-1])[0]
        for t, value in zip(ts, fixed):
            ref = complex(homog.tplus_profile(-1.0, phi.ray(t * om), tol=1e-12))
            assert abs(value - ref) < 1e-12, (t * om, value, ref)


@pytest.mark.parametrize("npanel", [16, 128, 512])
def test_inner_rows_take_the_rays_in_groups_within_the_block(npanel, monkeypatch):
    # after the whole family, _inner_rows takes the distinct rays in groups
    # whose t block holds at most _BLOCK_POINTS points of phi' (one ray
    # once a t block is that large), and each row has the bits of its ray
    # alone
    phi = testfn.bump([1.5, 0.5], 1.2, n=2)
    pts = phi.support_rays(32, False)[0]
    t, cut = np.linspace(0.6, 1.4, 5), phi.rays(pts).cutoff(1e-18)
    groups, real = [], phi.rays

    def counted(directions):
        groups.append(len(directions))
        return real(directions)

    monkeypatch.setattr(phi, "rays", counted)
    rows = homog._inner_rows(phi, pts, t, cut, npanel)
    points = min(len(t), max(1, homog._BLOCK_POINTS // (quad.PANEL_ORDER * npanel))) * quad.PANEL_ORDER * npanel
    assert groups[0] == len(pts)
    groups = groups[1:]
    assert sum(groups) == len(pts) and max(groups) == max(1, homog._BLOCK_POINTS // points)
    assert max(groups) * points <= homog._BLOCK_POINTS or max(groups) == 1
    for i, (row, c) in enumerate(zip(rows, cut)):
        assert np.array_equal(row, homog._inner_rows(phi, pts[i : i + 1], t, c[None], npanel)[0])


def test_inner_rows_build_the_rule_once_per_call(monkeypatch):
    # one panel rule for every distinct ray and one evaluation of phi' at
    # the origin for the closed g'(0) part, however many groups the rays
    # take: the plane bump at 512 panels goes one ray a group
    phi = testfn.bump([1.5, 0.5], 1.2, n=2)
    pts = phi.support_rays(32, False)[0]
    t, cut = np.linspace(0.6, 1.4, 5), phi.rays(pts).cutoff(1e-18)
    rules, at_origin, groups = [], [], []
    real_rule, real_rays = quad.panel_rule, phi.rays

    class Counted:
        def __init__(self, prof):
            self.prof = prof

        def derivative(self, k):
            return Counted(self.prof.derivative(k))

        def __call__(self, r):
            at_origin.append(not np.any(r))
            return self.prof(r)

    def rays(directions):
        groups.append(len(directions))
        return Counted(real_rays(directions))

    monkeypatch.setattr(quad, "panel_rule", lambda a, b, npanel: rules.append(np.shape(b)) or real_rule(a, b, npanel))
    monkeypatch.setattr(phi, "rays", rays)
    homog._inner_rows(phi, pts, t, cut, 512)
    assert len(groups) - 1 == len(pts) > 1
    assert rules == [(len(pts),)] and sum(at_origin) == 1


def test_inner_rows_take_the_gradient_at_the_origin_in_closed_form():
    # x e^{-x^2} has g'(0) = 1 on the ray +1, where -4 u log(u) g'(u^2)
    # behaves like u log u; its closed part leaves every panel count at
    # rounding from R_{-1} phi(1) = sqrt(pi)/2 (the panels alone were
    # 7.1e-9, 1.8e-9 and 4.4e-10 off)
    phi = testfn.hermite_gaussian(1, 1.0)
    g = phi.ray([1.0])
    assert complex(homog.tplus_profile(-1.0, g, tol=1e-13)) == pytest.approx(math.sqrt(math.pi) / 2.0, abs=1e-15)
    for npanel in (128, 256, 512):
        row = homog._inner_rows(phi, np.ones((1, 1)), np.ones(1), np.atleast_1d(g.cutoff(1e-18)), npanel)[0, 0]
        assert abs(row - math.sqrt(math.pi) / 2.0) < 5e-15, (npanel, row)
    # its spot-check passes, on the line and in the plane, where the
    # extension of the odd phi against an even density vanishes
    for n in (1, 2):
        value, rule = homog.extend_kdot(_norm_density(n), homog.make_cutoff(0.5, 2.0), testfn.hermite_gaussian(1, 1.0, n=n))
        assert abs(value) < 1e-15 and rule["coarse_fine_gap"] < 1e-15
    # a Gaussian ray has g'(0) = 0: its row is the panel sum alone, bit for
    # bit (512 panels take one t per product)
    phi = testfn.gaussian(1.3)
    g = phi.ray([1.0])
    u, w = quad.panel_rule(0.0, math.sqrt(g.cutoff(1e-18)), 512)
    t, tau, c = np.array([0.7, 1.0, 1.9]), u * u, -4.0 * w * u * np.log(u)
    panels = [ti * (g.derivative(1)(ti * tau[None]) @ c)[0] for ti in t]
    assert np.array_equal(homog._inner_rows(phi, np.ones((1, 1)), t, np.atleast_1d(g.cutoff(1e-18)), 512)[0], panels)


@pytest.mark.parametrize("phi", [testfn.bump(3.0, 1.0), testfn.bump(1.5, 1.0), testfn.bump(-2.5, 0.8)], ids=["c3", "c1.5", "c-2.5"])
def test_direct_pair_family_keeps_the_per_ray_bits_on_the_line(phi):
    # the rays +-1 on one subdivision: a ray that misses the support is 0
    # and leaves the other's intervals alone
    k = _norm_density(1)
    assert repr(complex(k.direct_pair(phi, 0))) == repr(complex(direct_pair_per_ray(k, phi, 0)))


def test_direct_pair_family_matches_the_per_ray_pairing_in_the_plane():
    k, phi = _norm_density(2), testfn.bump(1.5, 1.2, n=2)
    order = homog.extend_kdot(k, homog.make_cutoff(0.5, 2.0), phi)[1]["angular_order"]
    # the family and the sum of one integral per ray, in another order: to
    # rounding (1.1e-15 relative)
    fam, per = k.direct_pair(phi, order), direct_pair_per_ray(k, phi, order)
    assert abs(fam - per) <= 1e-14 * abs(per), (fam, per)


@pytest.mark.parametrize("phi", [testfn.hermite_gaussian(2, 1.3, n=2), testfn.bump([1.5, 0.5], 1.2, n=2)], ids=["hermite", "bump"])
@pytest.mark.parametrize("s", [-1.0, -2.0])
def test_tplus_profile_takes_a_family_of_rays_at_a_pole(phi, s):
    # one value per ray, each within the rule's tolerance of the ray alone
    pts = phi.support_rays(8, False)[0]
    values = homog.tplus_profile(s, phi.rays(pts), tol=1e-12)
    assert np.shape(values) == (len(pts),)
    for om, value in zip(pts, values):
        ref = complex(homog.tplus_profile(s, phi.ray(om), tol=1e-12))
        assert abs(value - ref) < 1e-12 * max(abs(ref), 1.0), (om, value, ref)


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
