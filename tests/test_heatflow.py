import math

import numpy as np
import pytest

from oracle import oscillatory_ft_1d
from pvzeta import heatflow, quad, testfn
from pvzeta.errors import AccuracyError, DomainError


def test_kernel_mass_is_one():
    # corrected prefactor: integral K_t(x) dx/x = 1 for every t
    for t in (0.1, 0.5, 1.0):
        res = quad.integrate_1d(lambda r: heatflow.langlands_kernel(t, np.exp(r)), -12.0, 12.0, tol=1e-12)
        assert abs(complex(res.value) - 1.0) < 1e-10


def test_printed_prefactor_ratio():
    t = 0.3
    assert abs(heatflow.prefactor(t, "printed") / heatflow.prefactor(t, "corrected") - math.sqrt(2.0)) < 1e-14


def test_apply_matches_closed_log_gaussian():
    a, t = 1.0, 0.25
    phi = heatflow.log_gaussian(a)
    closed = heatflow.log_gaussian_image(a, t)
    for x in (0.3, 1.0, 2.7):
        assert abs(complex(heatflow.apply(t, phi, x)) - complex(closed(x))) < 1e-12


def test_apply_at_zero_uses_l1_norm():
    phi = heatflow.log_gaussian(1.0)
    v = complex(heatflow.apply(0.5, phi, 0.0))
    assert abs(v - heatflow.l1_norm(0.5) * complex(phi(0.0))) < 1e-14


def test_semigroup_corrected():
    rep = heatflow.semigroup_check(0.25, 0.5, heatflow.log_gaussian(1.0), (0.5, 1.0, 2.0))
    assert rep.passed, rep.rel_residual


def test_semigroup_refuses_a_kink_the_fixed_rule_cannot_resolve():
    class Kink:
        label = "kink"
        decay = testfn.Decay("other")

        def __call__(self, y):
            r = np.log(np.asarray(y, dtype=float))
            return np.maximum(0.0, 1.0 - np.abs(r))

    with pytest.raises(AccuracyError):
        heatflow.semigroup_check(0.5, 0.5, Kink(), (1.0,))


def test_semigroup_printed_sqrt2():
    rep = heatflow.semigroup_check(0.5, 0.5, heatflow.log_gaussian(1.0), (1.0,), variant="printed")
    assert not rep.passed
    assert abs(complex(rep.extra["measured_ratio"]) - math.sqrt(2.0)) < 1e-6


def test_generator_quadratic_convergence():
    rep = heatflow.generator_check(0.5, heatflow.log_gaussian(1.0), 1.0)
    assert rep.passed
    assert 80.0 <= float(np.real(rep.lhs)) <= 120.0


def test_fhat_against_oscillatory_reference():
    t = 0.1
    for chi in (0.5, 5.0):
        val = heatflow.fhat_t(t, chi)
        ref = oscillatory_ft_1d(lambda y: heatflow.f_t(t, y), chi, 0.0, 60.0, tol=1e-12)
        assert abs(val - ref) < 1e-10 * max(abs(ref), 1.0)


@pytest.mark.parametrize("t", [0.1, 1.0])
def test_fhat_many_over_nine_decades(t):
    # finite everywhere (the clipped exponent keeps every e^{-chi e^u} a
    # normal double), and equal to the oracle where it holds: at t = 0.1 on
    # (0, 60) as above; at t = 1 f_t is still 1e-4 at y = 60, so the oracle
    # runs on the half line, where only its QAWF branch (chi > 4) converges
    chis = np.logspace(-3.0, 6.0, 28)
    vals = heatflow.fhat_many(t, chis)
    assert np.all(np.isfinite(vals))
    lo, hi = {0.1: (0.0, 60.0), 1.0: (4.0, np.inf)}[t]
    for chi, val in zip(chis, vals):
        if lo < chi < 30.0:
            ref = oscillatory_ft_1d(lambda y: heatflow.f_t(t, y), chi, 0.0, hi, tol=1e-12)
            assert abs(val - ref) < 1e-10 * max(abs(ref), 1.0), chi


def test_fhat_zero_frequency():
    t = 0.4
    assert abs(heatflow.fhat_t(t, 0.0) - heatflow.l1_norm(t)) < 1e-12


def test_fhat_conjugate_symmetry():
    t = 0.2
    a, b = heatflow.fhat_t(t, 1.3), heatflow.fhat_t(t, -1.3)
    assert abs(a - np.conj(b)) < 1e-13


def test_lacunary_small_t():
    rep = heatflow.lacunary_check(0.1)
    assert rep.passed
    assert rep.extra["closed_support_gap"] < 1e-12
    assert rep.extra["numeric_support_gap"] < 1e-12


def test_lacunary_t_one():
    # the t = 1 spectrum is log-normally wide; the double-exponential rule
    # needs no cut in it, so the residual sits far below the 2e-6 kept
    # here (test_lacunary_across_t holds it to 1e-12)
    rep = heatflow.lacunary_check(1.0, tol=2e-6)
    assert rep.passed
    assert rep.extra["closed_support_gap"] < 1e-12


@pytest.mark.parametrize("variant", ["corrected", "printed"])
@pytest.mark.parametrize("t", [0.1, 0.25, 0.5, 1.0, 2.0])
def test_lacunary_across_t(t, variant):
    rep = heatflow.lacunary_check(t, variant=variant, tol=1e-12)
    assert rep.passed, rep.to_dict()
    assert rep.extra["numeric_support_gap"] < 1e-12
    rule = rep.extra["rule"]
    assert rule["level_gap"] < 1e-10 and rule["nodes"] < 20000 and rule["h"] <= 0.05


def test_kernel_identity_and_support():
    pts = [(0.5, 0.25), (1.0, 1.0), (2.0, 3.0), (1.0, 0.1)]
    rep = heatflow.kernel_identity_check(0.1, pts)
    assert rep.passed
    # opposite signs: kernel vanishes identically
    assert heatflow.kernel_xy(0.1, 1.0, -2.0) == 0.0


def test_kernel_homogeneity():
    t, x, y, lam = 0.2, 0.7, 1.3, 3.0
    a = heatflow.kernel_xy(t, lam * x, lam * y)
    b = heatflow.kernel_xy(t, x, y) / lam
    assert abs(a - b) < 1e-14


def test_diagonal_funceq():
    from pvzeta import testfn

    rep = heatflow.diagonal_funceq(0.5, 0.4, testfn.gaussian(math.pi))
    assert rep.passed, rep.rel_residual


def test_langlands_bounds():
    rep = heatflow.langlands_bounds_check((0.25, 1.0), (0.5, 1.0))
    assert rep.passed, rep.rel_residual


def test_heat_symbol_decay_band():
    # |s_t(1, xi)| decays superpolynomially: slope < -8 on the 50..100 band
    t = 0.1
    taus = np.array([50.0, 100.0])
    vals = np.abs([heatflow.heat_symbol(t, 1.0, tau) for tau in taus])
    slope = (np.diff(np.log(vals)) / np.diff(np.log(taus))).item()
    assert slope < -8.0


def test_apply_requires_decay_certificate():
    class NoDecay:
        label = "bad"

        def __call__(self, y):
            return np.ones_like(np.asarray(y, dtype=float))

    with pytest.raises(DomainError):
        heatflow.apply(0.5, NoDecay(), 1.0)


def test_variant_validation():
    with pytest.raises(DomainError):
        heatflow.prefactor(0.5, "bogus")
