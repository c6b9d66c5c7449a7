import math

import numpy as np
import pytest

from oracle import oscillatory_ft_1d
from pvzeta import heatflow, phspace, quad, symbolkern
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
    # s_t(x, xi) = e^{-i x xi} fhat_t(-x xi), the transform of K_t(y)/y (the
    # closed Atilde at u = 1 - y) taken by adaptive oscillatory quadrature,
    # independent of the contour rule
    sp = phspace.scalar1d()
    for x in (1.0, 0.5, -0.8):
        for xi in (0.3, 2.0, -4.0):
            a = symbolkern.symbol(heat_f, sp, x, xi)
            ref = oscillatory_ft_1d(lambda y: symbolkern.atilde_closed(heat_f, 1.0, 1.0 - np.asarray(y)), -x * xi, 0.0, 60.0, tol=1e-11)
            b = np.exp(-1j * x * xi) * ref
            assert abs(a - b) < 1e-10 * max(abs(b), 1.0)


def test_symbol_constant_at_fixed_point(heat_f):
    # at m = 0 the symbol is F(0), the integral of f, for every xi; near
    # m = 0 it is a(u) = F(0) + u D + O(u^2) in u = m xi, where
    # D = i integral f(e^r) (e^{-r} - 1) dr is taken by adaptive quadrature
    # (not by the transform behind the symbol). The measured u^2 factor is
    # 0.1407 at |u| <= 0.1; a symbol frozen at F(0) leaves 0.105 |u|
    sp = phspace.scalar1d()
    F0 = symbolkern.symbol(heat_f, sp, 0.0, 1.0)
    assert abs(F0 - heat_f.integral()) < 1e-12
    L = heat_f.log_cut()
    D = 1j * quad.integrate_1d(lambda r: heat_f.fn(np.exp(r)) * (np.exp(-r) - 1.0), -L, L, tol=1e-12).value
    for xi in (0.1, 1.0, -1.0):
        for k in range(6):
            m = 0.1 * 2.0 ** -k
            u = m * xi
            remainder = abs(symbolkern.symbol(heat_f, sp, m, xi) - F0 - u * D)
            assert remainder < 0.15 * u * u, (xi, m, remainder)


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


def test_definite_symbol_matches_a_finer_orbit_sum(heat_f):
    # the orbit sum at the scaling test's point against order 128 on the
    # rotated sphere rule, which shares no node with the symbol's rule; the
    # sum at order 32 is 4.4e-11 off, 4.6e-9 of the value, and the scaling
    # row cannot see it, since both of its sides share the orbit nodes
    sp = phspace.definite(n=3)
    m, xi = 1.7 * np.array([1.0, 0.2, -0.5]), np.array([0.3, 1.0, 2.0])
    pts, wts = quad.sphere_quadrature(3, 128, True)
    ref = np.sum(wts * heat_f.hat1d(np.linalg.norm(m) * pts @ xi)) / np.sum(wts)
    ref *= np.exp(-1j * (m @ xi))
    assert abs(symbolkern.symbol(heat_f, sp, m, xi) - ref) < 1e-13


def test_symbol_bounded_by_l1(heat_f):
    sp = phspace.scalar1d()
    for m, xi in ((1.0, 3.0), (0.2, -7.0), (5.0, 0.1)):
        assert abs(symbolkern.symbol_hat(heat_f, sp, m, xi)) <= heat_f.l1() + 1e-12


def test_decay_probe_slopes(heat_f, monkeypatch):
    calls, symbol = [], symbolkern.symbol

    def counted(*args):
        calls.append(args)
        return symbol(*args)

    monkeypatch.setattr(symbolkern, "symbol", counted)
    rep = symbolkern.check_symbol_decay(heat_f, phspace.scalar1d(), 1.0)
    assert rep.passed
    # one symbol value per tau of the fit window, and nothing else
    assert len(calls) == len(rep.extra["taus"]) == 6
    assert set(rep.extra) == {"m", "taus", "abs_symbol", "band_slopes"}
    slopes = rep.extra["band_slopes"]
    # slopes steepen monotonically: superpolynomial decay
    assert all(b < a for a, b in zip(slopes, slopes[1:]))


def test_aux_kernel_matches_heat_oracle(heat_f):
    sp = phspace.scalar1d()
    for m, mp in ((1.0, 0.5), (0.7, 1.3), (-1.0, -0.5)):
        K = symbolkern.kernel(heat_f, sp, m, mp)
        oracle = symbolkern.kernel_closed(heat_f, m, mp)
        assert abs(K - oracle) < 1e-10 * max(abs(oracle), 1.0)


def test_aux_kernel_direction_only(heat_f):
    # |m| K_f(m, m') = Atilde(m, u) depends on m only through its sign
    sp = phspace.scalar1d()
    A = symbolkern.atilde_numeric(heat_f, 1.0, np.array([0.5]))[0][0]
    for m, mp in ((0.5, 0.25), (2.0, 1.0)):
        assert abs(m * symbolkern.kernel(heat_f, sp, m, mp) - A) < 1e-9


def test_kernel_scaling_homogeneity(heat_f):
    sp = phspace.scalar1d()
    lam = 3.0
    K1 = symbolkern.kernel(heat_f, sp, lam * 1.0, lam * 0.5)
    K2 = symbolkern.kernel(heat_f, sp, 1.0, 0.5)
    assert abs(K1 - K2 / lam) < 1e-8


def test_aux_symbol_of_a_wide_group_function_at_large_xi():
    # log_gaussian_group(0.5) is the heat group function at t = 1/2 without
    # its prefactor, so F(5) = fhat(-5) / c_{1/2}; |F| ~ 0.36 here, and the
    # auxiliary symbol at m is the symbol at m/|m| = 1
    f = symbolkern.log_gaussian_group(0.5)
    atil = symbolkern.symbol(f, phspace.scalar1d(), 1.0, 5.0)
    closed = np.exp(-5j) * heatflow.fhat_many(0.5, np.array([-5.0]))[0] / heatflow.prefactor(0.5)
    assert abs(atil - closed) < 1e-12


def test_kernel_rejects_zero_m(heat_f):
    with pytest.raises(DomainError):
        symbolkern.kernel(heat_f, phspace.scalar1d(), 0.0, 1.0)


def test_atilde_numeric_matches_closed(heat_f):
    us = np.linspace(-1.5, 2.5, 9)
    closed = symbolkern.atilde_closed(heat_f, 1.0, us)
    numeric = symbolkern.atilde_numeric(heat_f, 1.0, us)[0]
    assert np.max(np.abs(numeric - closed)) < 1e-13


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
    assert np.max(np.abs(symbolkern.atilde_numeric(f, 1.0, grid)[0] - symbolkern.atilde_closed(f, 1.0, grid))) < 1e-12


@pytest.mark.parametrize("a", [0.5, 0.1])
def test_numeric_kernel_table_runs_one_batched_call_per_level(monkeypatch, a):
    # Wide group functions: |F| stays above 1e-5 out to |u| = 100 for
    # a = 0.5 and decays slower still for a = 0.1; the Fourier rule needs
    # no spectrum cut, so both inverses are exact to rounding
    f = symbolkern.log_gaussian_group(a)
    sizes, hat_many = [], symbolkern._hat_scalar_many

    def spy(g, us):
        sizes.append(np.asarray(us).size)
        return hat_many(g, us)

    monkeypatch.setattr(symbolkern, "_hat_scalar_many", spy)
    us = np.linspace(-1.5, 2.5, 17)
    numeric = symbolkern.atilde_numeric(f, 1.0, us)[0]
    assert np.max(np.abs(numeric - symbolkern.atilde_closed(f, 1.0, us))) < 1e-12
    # one call per level of the rule, each on every offset's nodes
    assert 2 <= len(sizes) <= 3 and min(sizes) > 17 * 100


def test_local_integrability_dyadic(heat_f):
    rep = symbolkern.local_integrability_check(heat_f)
    assert rep.passed
    assert all(r < 0.75 for r in rep.extra["ratios"])
    # totals increase monotonically toward the full integral
    totals = rep.extra["levels"]
    assert all(b >= a for a, b in zip(totals, totals[1:]))


def _zeros_at_half_one_two():
    # f = r (r - ln 2)(r + ln 2) e^{-r^2}, r = log alpha, vanishes at
    # alpha = 1/2, 1, 2 but not elsewhere (f(3) = 0.239), so its kernel has
    # mass on every dyadic level
    ln2 = math.log(2.0)

    def fn(alpha):
        r = np.log(alpha)
        return r * (r - ln2) * (r + ln2) * np.exp(-r * r)

    return symbolkern.GroupFunction(fn, "zeros-at-half-one-two", 1.0)


def _zero_function():
    return symbolkern.GroupFunction(lambda a: np.zeros_like(np.asarray(a, dtype=float)), "zero", 1.0)


def test_local_integrability_of_a_function_with_zeros_at_half_one_two():
    f = _zeros_at_half_one_two()
    assert abs(f(3.0) - 0.239) < 1e-3
    rep = symbolkern.local_integrability_check(f)
    assert all(v > 0.0 for v in rep.extra["levels"])
    assert rep.passed and 0.6 < rep.lhs.real < 0.75, rep.to_dict()


def test_local_integrability_zero_function():
    rep = symbolkern.local_integrability_check(_zero_function())
    assert rep.passed


def _integrability_levels_one_m_at_a_time(f, levels):
    """The level sums of local_integrability_check with each inner mass
    on its own u-grid: the reference of the (m, u) grid."""
    R, m_pts, u_pts = 1.0, 64, 512
    totals = []
    for j in range(1, levels + 1):
        edges = np.linspace(math.log(R * 2.0 ** (-j)), math.log(R), m_pts + 1)
        mids = np.exp(0.5 * (edges[1:] + edges[:-1]))
        hw = np.diff(np.exp(edges))
        mass = np.empty(mids.shape)
        for i, m in enumerate(mids):
            uu = np.linspace((m - R) / m, (m + R) / m, u_pts)
            mass[i] = np.trapezoid(np.abs(symbolkern.atilde_closed(f, 1.0, uu)), uu)
        totals.append(2.0 * float(np.sum(hw * mass)))
    return totals


@pytest.mark.parametrize("levels", [6, 8])
@pytest.mark.parametrize(
    "make_f",
    [
        lambda: heatflow.heat_group_function(0.1),
        lambda: heatflow.heat_group_function(0.5),
        _zero_function,
        _zeros_at_half_one_two,
    ],
    ids=["heat-0.1", "heat-0.5", "zero", "zeros-at-half-one-two"],
)
def test_integrability_grid_has_the_bits_of_one_m_at_a_time(make_f, levels):
    f = make_f()
    rep = symbolkern.local_integrability_check(f, levels=levels)
    assert rep.extra["levels"] == _integrability_levels_one_m_at_a_time(f, levels)


def test_log_gaussian_group_rejects_bad_rate():
    with pytest.raises(DomainError):
        symbolkern.log_gaussian_group(0.0)
