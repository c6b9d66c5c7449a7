import math

import numpy as np
import pytest

from oracle import oscillatory_ft_1d
from pvzeta import heatflow, phspace, symbolkern
from pvzeta.errors import DomainError


@pytest.fixture(scope="module")
def heat_f():
    return heatflow.heat_group_function(0.1)


@pytest.fixture(scope="module")
def heat_numeric():
    f = heatflow.heat_group_function(0.1)
    return symbolkern.GroupFunction(f.fn, "heat-no-oracle", f.log_decay_rate)


def test_group_function_l1_and_integral(heat_f, heat_numeric):
    assert abs(heat_f.l1() - 1.0) < 1e-12
    assert abs(heat_numeric.integral() - 1.0) < 1e-10


def test_vectorized_fallback_matches_oracle(heat_f, heat_numeric):
    us = np.append(np.linspace(-30.0, 30.0, 61), 0.7)
    a = symbolkern._hat_scalar_many(heat_numeric, us)
    b = symbolkern._hat_scalar_many(heat_f, us)
    assert np.max(np.abs(a - b)) < 1e-10


def test_symbol_matches_heat_closed_form(heat_f):
    sp = phspace.scalar1d()
    for x in (1.0, 0.5, -0.8):
        for xi in (0.3, 2.0, -4.0):
            a = symbolkern.symbol(heat_f, sp, x, xi)
            b = heatflow.heat_symbol(0.1, x, xi)
            assert abs(a - b) < 1e-12


def test_symbol_constant_at_fixed_point(heat_f):
    sp = phspace.scalar1d()
    vals = [symbolkern.symbol(heat_f, sp, 0.0, xi) for xi in (0.1, 1.0, 50.0)]
    assert max(abs(v - vals[0]) for v in vals) < 1e-12
    assert abs(vals[0] - heat_f.integral()) < 1e-12


def test_scaling_identity(heat_f):
    sp = phspace.scalar1d()
    rng = np.random.default_rng(0)
    for _ in range(20):
        rep = symbolkern.scaling_check(
            heat_f, sp, [float(rng.uniform(-2.0, 2.0))], [float(rng.uniform(-3.0, 3.0))], float(rng.uniform(0.05, 20.0))
        )
        assert rep.passed and rep.rel_residual < 1e-9


def test_scaling_rejects_nonpositive_alpha(heat_f):
    with pytest.raises(DomainError):
        symbolkern.scaling_check(heat_f, phspace.scalar1d(), [1.0], [1.0], -2.0)


def test_definite_symbol_scaling(heat_f):
    sp = phspace.definite(n=3)
    rep = symbolkern.scaling_check(heat_f, sp, [1.0, 0.2, -0.5], [0.3, 1.0, 2.0], 1.7)
    assert rep.passed


def test_symbol_bounded_by_l1(heat_f):
    sp = phspace.scalar1d()
    for m, xi in ((1.0, 3.0), (0.2, -7.0), (5.0, 0.1)):
        assert abs(symbolkern.symbol_hat(heat_f, sp, m, xi)) <= heat_f.l1() + 1e-12


def test_decay_probe_slopes(heat_f):
    rep = symbolkern.check_symbol_decay(heat_f, phspace.scalar1d(), 1.0)
    assert rep.passed
    slopes = rep.extra["band_slopes"]
    # slopes steepen monotonically: superpolynomial decay
    assert all(b < a for a, b in zip(slopes, slopes[1:]))


def test_aux_kernel_matches_heat_oracle(heat_f):
    sp = phspace.scalar1d()
    for m, mp in ((1.0, 0.5), (0.7, 1.3), (-1.0, -0.5)):
        _, _, K = symbolkern.aux_symbol_and_kernel(heat_f, sp, m, mp)
        oracle = heatflow.kernel_xy(0.1, m, mp)
        assert abs(K - oracle) < 1e-10 * max(abs(oracle), 1.0)


def test_aux_kernel_direction_only(heat_f):
    # Atilde(m, u) depends only on the sign of m
    sp = phspace.scalar1d()
    _, A1, _ = symbolkern.aux_symbol_and_kernel(heat_f, sp, 0.5, 0.25)
    _, A2, _ = symbolkern.aux_symbol_and_kernel(heat_f, sp, 2.0, 1.0)
    assert abs(A1 - A2) < 1e-9


def test_kernel_scaling_homogeneity(heat_f):
    sp = phspace.scalar1d()
    lam = 3.0
    _, _, K1 = symbolkern.aux_symbol_and_kernel(heat_f, sp, lam * 1.0, lam * 0.5)
    _, _, K2 = symbolkern.aux_symbol_and_kernel(heat_f, sp, 1.0, 0.5)
    assert abs(K1 - K2 / lam) < 1e-8


def test_aux_symbol_of_a_wide_group_function_at_large_xi():
    # log_gaussian_group(0.5) is the heat group function at t = 1/2 without
    # its prefactor, so F(5) = fhat(-5) / c_{1/2}; |F| ~ 0.36 here
    f = symbolkern.log_gaussian_group(0.5)
    atil, _, _ = symbolkern.aux_symbol_and_kernel(f, phspace.scalar1d(), 1.0, 0.5, xi=5.0)
    closed = np.exp(-5j) * heatflow.fhat_many(0.5, np.array([-5.0]))[0] / heatflow.prefactor(0.5)
    assert abs(atil - closed) < 1e-12


def test_kernel_rejects_zero_m(heat_f):
    with pytest.raises(DomainError):
        symbolkern.aux_symbol_and_kernel(heat_f, phspace.scalar1d(), 0.0, 1.0)


def test_atilde_numeric_matches_closed(heat_f):
    us = np.linspace(-1.5, 2.5, 9)
    closed = heatflow.atilde_closed(0.1, us)
    numeric = symbolkern.atilde_numeric(heat_f, 1.0, us)[0]
    assert np.max(np.abs(numeric - closed)) < 1e-13


def _atilde_exact(f, us):
    # Fourier inversion of F gives Atilde(+1, u) = f(1/y)/y at y = 1 - u > 0, else 0
    y = 1.0 - np.asarray(us, dtype=float)
    out = np.zeros(y.shape)
    out[y > 0] = f(1.0 / y[y > 0]) / y[y > 0]
    return out


def test_atilde_numeric_without_oracle_against_adaptive_route():
    # no closed transform: F comes from the numeric forward transform, and
    # the inverse is checked against adaptive QAWF quadrature of that F
    f = symbolkern.log_gaussian_group(0.5)
    us = np.array([-6.0, -4.5, 5.5, 8.0])
    numeric = symbolkern.atilde_numeric(f, 1.0, us)[0]

    def F(part):
        return lambda xi: getattr(complex(symbolkern._hat_scalar_many(f, np.array([xi]))[0]), part)

    for u, val in zip(us, numeric):
        c = oscillatory_ft_1d(F("real"), 1.0 - u, 0.0, np.inf)
        s = oscillatory_ft_1d(F("imag"), 1.0 - u, 0.0, np.inf)
        assert abs(val - (c.real - s.imag) / math.pi) < 1e-12
    grid = np.linspace(-3.0, 2.0, 21)
    assert np.max(np.abs(symbolkern.atilde_numeric(f, 1.0, grid)[0] - _atilde_exact(f, grid))) < 1e-12


@pytest.mark.parametrize("a", [0.5, 0.1])
def test_numeric_kernel_table_runs_one_batched_call_per_level(monkeypatch, a):
    # Wide group functions: |F| stays above 1e-5 out to |u| = 100 for
    # a = 0.5 and decays slower still for a = 0.1; the Fourier rule needs
    # no spectrum cut, so both tables are exact to rounding
    f = symbolkern.log_gaussian_group(a)
    sizes, hat_many = [], symbolkern._hat_scalar_many

    def spy(g, us):
        sizes.append(np.size(us))
        return hat_many(g, us)

    monkeypatch.setattr(symbolkern, "_hat_scalar_many", spy)
    table = symbolkern._atilde_abs_fn(f)
    ug = np.linspace(-40.0, 40.0, 4001)
    assert np.max(np.abs(table(ug) - np.abs(_atilde_exact(f, ug)))) < 1e-12
    # one call per level of the rule, each on every offset's nodes
    assert 2 <= len(sizes) <= 3 and min(sizes) > 4001 * 100


def test_local_integrability_dyadic(heat_f):
    rep = symbolkern.local_integrability_check(heat_f)
    assert rep.passed
    assert all(r < 0.75 for r in rep.extra["ratios"])
    # totals increase monotonically toward the full integral
    totals = rep.extra["levels"]
    assert all(b >= a for a, b in zip(totals, totals[1:]))


def test_local_integrability_zero_function():
    z = symbolkern.GroupFunction(lambda a: np.zeros_like(np.asarray(a, dtype=float)), "zero", 1.0)
    rep = symbolkern.local_integrability_check(z)
    assert rep.passed


def test_log_gaussian_group_rejects_bad_rate():
    with pytest.raises(DomainError):
        symbolkern.log_gaussian_group(0.0)
