import ast
import inspect
import math
import tracemalloc

import numpy as np
import pytest

from oracle import fhat_many_one_block, oscillatory_ft_1d, two_step_per_node
from pvzeta import funceq, heatflow, phspace, quad, symbolkern, testfn
from pvzeta.errors import AccuracyError, DomainError


def _closed_integrand(t):
    # K_t(1/y)/y = K_t(y)/y on y > 0, else 0: the closed Atilde at u = 1 - y
    f = heatflow.heat_group_function(t)
    return lambda y: symbolkern.atilde_closed(f, 1.0, 1.0 - np.asarray(y))


def test_kernel_mass_is_one():
    # corrected prefactor: integral K_t(x) dx/x = 1 for every t
    for t in (0.1, 0.5, 1.0):
        res = quad.integrate_1d(lambda r: heatflow.langlands_kernel(t, np.exp(r)), -12.0, 12.0, tol=1e-12)
        assert abs(complex(res.value) - 1.0) < 1e-10


def test_printed_prefactor_ratio():
    # the printed c_t = (2 pi t)^{-1/2} is variant_scale("printed") c_t
    t = 0.3
    printed = heatflow.variant_scale("printed") * heatflow.prefactor(t)
    assert abs(printed / (2.0 * math.pi * t) ** -0.5 - 1.0) < 1e-14
    assert heatflow.variant_scale("corrected") == 1.0


def test_apply_matches_closed_log_gaussian():
    a, t = 1.0, 0.25
    phi = heatflow.log_gaussian(a)
    closed = heatflow.log_gaussian_image(a, t)
    for x in (0.3, 1.0, 2.7):
        assert abs(complex(heatflow.apply(t, phi, x)) - complex(closed(x))) < 1e-12


_LOG_FUNCTIONS = [
    heatflow.log_gaussian(1.0),
    heatflow.LogTestFunction(testfn.PolyGauss1D([1.0, 0.5j, -0.25], 0.7), label="complex"),
    heatflow.log_gaussian(0.5, scale=2.0).omega(),
]


@pytest.mark.parametrize("phi", _LOG_FUNCTIONS, ids=["real", "complex", "omega"])
@pytest.mark.parametrize("x", [-1.0, 0.0, 1e-300, 1.0, math.exp(30.0), 0.37, 2.9])
def test_scalar_path_has_the_bits_of_the_array_path(phi, x):
    # a scalar gives a scalar: value and type are those of a 1-element
    # array, for a Python float and np.float64
    ref = phi(np.array([x]))[0]
    for arg in (x, np.float64(x)):
        v = phi(arg)
        assert type(v) is type(ref) and v == ref, (arg, v, ref)
    assert type(phi(0.37)) is (np.complex128 if phi.label == "complex" else np.float64)


def test_scalar_path_leaves_nan_and_arrays_to_the_array_route():
    # NaN is no point of x > 0; an array keeps its shape, each entry the
    # value at that scalar
    phi = heatflow.log_gaussian(1.0)
    assert phi(float("nan")) == 0.0 and np.shape(phi(float("nan"))) == ()
    xs = np.array([[0.5, -1.0], [2.0, 0.0]])
    assert phi(xs).shape == (2, 2)
    assert np.array_equal(phi(xs), [[phi(float(v)) for v in row] for row in xs])


def test_apply_at_zero_uses_l1_norm():
    phi = heatflow.log_gaussian(1.0)
    v = complex(heatflow.apply(0.5, phi, 0.0))
    assert abs(v - heatflow.l1_norm(0.5) * complex(phi(0.0))) < 1e-14


def test_semigroup_corrected():
    rep = heatflow.semigroup_check(0.25, 0.5, heatflow.log_gaussian(1.0), (0.5, 1.0, 2.0))
    assert rep.passed, rep.rel_residual


@pytest.mark.parametrize("phi", _LOG_FUNCTIONS, ids=["real", "complex", "omega"])
@pytest.mark.parametrize("xs", [[1.0], [0.5, 1.0, 2.0], list(np.linspace(0.2, 3.0, 70))], ids=["one", "three", "seventy"])
@pytest.mark.parametrize("order", [64, 128])
def test_stacked_two_step_has_the_bits_of_the_per_node_rule(phi, xs, order, monkeypatch):
    # one phi call per chunk of r nodes and a stacked product give the bits
    # of one phi call and one 2-D product per node, summed in node order;
    # seventy points take one node per chunk
    calls = []
    real = phi._eval

    def counted(y):
        calls.append(y.size)
        return real(y)

    ref = two_step_per_node(0.3, 0.45, phi, xs, order)
    monkeypatch.setattr(phi, "_eval", counted)
    got = heatflow._two_step(0.3, 0.45, phi, xs, order)
    assert np.array_equal(got, ref) and np.array_equal(np.signbit(got.imag), np.signbit(ref.imag))
    assert sum(calls) == len(xs) * order * order and max(calls) <= max(quad.BLOCK // 8, len(xs) * order)
    assert len(calls) == -(-order // max(1, quad.BLOCK // 8 // (len(xs) * order)))


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
    vals = heatflow.fhat_many(t, np.array([0.5, 5.0]))
    for chi, val in zip((0.5, 5.0), vals):
        ref = oscillatory_ft_1d(_closed_integrand(t), chi, 0.0, 60.0, tol=1e-12)
        assert abs(val - ref) < 1e-10 * max(abs(ref), 1.0)


@pytest.mark.parametrize("t", [0.1, 1.0])
def test_fhat_many_over_nine_decades(t):
    # finite everywhere (the clipped exponent keeps every e^{-chi e^u} a
    # normal double), and equal to the oracle where it holds: at t = 0.1 on
    # (0, 60) as above; at t = 1 K_t(y)/y is still 1e-4 at y = 60, so the oracle
    # runs on the half line, where only its QAWF branch (chi > 4) converges
    chis = np.logspace(-3.0, 6.0, 28)
    vals = heatflow.fhat_many(t, chis)
    assert np.all(np.isfinite(vals))
    lo, hi = {0.1: (0.0, 60.0), 1.0: (4.0, np.inf)}[t]
    for chi, val in zip(chis, vals):
        if lo < chi < 30.0:
            ref = oscillatory_ft_1d(_closed_integrand(t), chi, 0.0, hi, tol=1e-12)
            assert abs(val - ref) < 1e-10 * max(abs(ref), 1.0), chi


@pytest.mark.parametrize("t, variant", [(0.1, "corrected"), (1.0, "corrected"), (2.0, "printed")])
def test_blocked_fhat_many_keeps_the_lacunary_transform(t, variant, monkeypatch):
    # the inverse transform on the lacunary grid, run on cache-sized
    # blocks and on the 4e6-exponent blocks of the reference, to the bit
    ys = np.linspace(-1.5, 2.5, 17)
    blocked = symbolkern.atilde_numeric(heatflow.heat_group_function(t, variant), 1.0, ys)
    monkeypatch.setattr(heatflow, "fhat_many", fhat_many_one_block)
    whole = symbolkern.atilde_numeric(heatflow.heat_group_function(t, variant), 1.0, ys)
    assert np.array_equal(blocked[0], whole[0]) and blocked[1] == whole[1]


@pytest.mark.parametrize("t", [0.05, 0.1, 1.0, 2.0], ids=lambda t: f"{t}-corrected")
def test_blocked_fhat_many_matches_the_one_block_reference(t):
    # 20001 frequencies are several reference blocks; sorted blocks keep
    # fewer nodes of the larger frequencies, which moves a value by rounding;
    # the printed variant is this transform times variant_scale (below)
    chis = np.linspace(-40.0, 40.0, 20001)
    vals, ref = heatflow.fhat_many(t, chis), fhat_many_one_block(t, chis)
    assert np.max(np.abs(vals - ref) / np.abs(ref)) <= 1e-15


def test_fhat_many_builds_its_rule_once_per_t(monkeypatch):
    calls, panel_rule = [], quad.panel_rule

    def counted(*args):
        calls.append(args)
        return panel_rule(*args)

    monkeypatch.setattr(quad, "panel_rule", counted)
    heatflow._fhat_rule.cache_clear()
    chis = np.array([-3.0, 0.0, 0.5, 7.0, 1e4])
    first = heatflow.fhat_many(0.1, chis)
    for _ in range(3):
        assert np.array_equal(heatflow.fhat_many(0.1, chis), first)
    assert len(calls) == 1
    heatflow.fhat_many(0.5, chis)
    heatflow.fhat_many(0.1, chis[:2])
    assert len(calls) == 2
    # the shared rule cannot be written through
    _, base, eu = heatflow._fhat_rule(0.1)
    assert not base.flags.writeable and not eu.flags.writeable


@pytest.mark.parametrize("t", [0.05, 0.1, 1.0, 2.0])
def test_printed_group_function_is_the_scaled_corrected_one(t):
    # every oracle of the printed heat group function is exactly
    # variant_scale("printed") times the corrected one, bit for bit
    scale = heatflow.variant_scale("printed")
    printed, corrected = heatflow.heat_group_function(t, "printed"), heatflow.heat_group_function(t, "corrected")
    xs, us = np.array([0.3, 1.0, 2.7]), np.array([-40.0, -1.3, 0.0, 0.7, 25.0])
    ys = np.linspace(-1.5, 2.5, 17)
    assert np.array_equal(printed.fn(xs), scale * corrected.fn(xs))
    assert np.array_equal(printed.hat1d(us), scale * corrected.hat1d(us))
    assert printed.l1() == scale * corrected.l1()


def test_lacunary_transform_memory_stays_in_cache_sized_blocks():
    # the reference's one block of 7049 x 496 exponents peaks at 107 MiB here
    f = heatflow.heat_group_function(0.1)
    tracemalloc.start()
    try:
        symbolkern.atilde_numeric(f, 1.0, np.linspace(-1.5, 2.5, 17))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_fhat_zero_frequency():
    t = 0.4
    assert abs(heatflow.fhat_many(t, np.array([0.0]))[0] - heatflow.l1_norm(t)) < 1e-12


def test_fhat_conjugate_symmetry():
    t = 0.2
    a, b = heatflow.fhat_many(t, np.array([1.3, -1.3]))
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
    assert symbolkern.kernel_closed(heatflow.heat_group_function(0.1), 1.0, -2.0) == 0.0


@pytest.mark.parametrize("variant", funceq.VARIANTS)
def test_kernel_vs_heat_check(variant):
    # the kernel assembled from the symbol against the closed S_t(x, y),
    # on both sides of the origin
    rep = heatflow.kernel_vs_heat_check(0.1, variant, 1e-7)
    assert rep.check == "kernel-vs-heat" and rep.passed, rep.to_dict()
    assert rep.params["variant"] == variant and len(rep.params["points"]) == 4


def test_kernel_homogeneity():
    f, x, y, lam = heatflow.heat_group_function(0.2), 0.7, 1.3, 3.0
    a = symbolkern.kernel_closed(f, lam * x, lam * y)
    b = symbolkern.kernel_closed(f, x, y) / lam
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
    f, sp = heatflow.heat_group_function(0.1), phspace.scalar1d()
    taus = np.array([50.0, 100.0])
    vals = np.abs([symbolkern.symbol(f, sp, 1.0, tau) for tau in taus])
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
        heatflow.variant_scale("bogus")


def test_normalization_choices_are_factors():
    # the printed heat normalization is one factor, variant_scale, that
    # only the checks and heat_group_function apply; the Eq12a exponent is
    # a factor inside check_eq12a, with no gamma_factor switch in funceq
    takes_variant = {
        node.name
        for node in ast.walk(ast.parse(inspect.getsource(heatflow)))
        if isinstance(node, ast.FunctionDef) and any(a.arg == "variant" for a in node.args.args)
    }
    assert takes_variant == {
        "variant_scale", "heat_group_function", "kernel_vs_heat_check", "semigroup_check", "generator_check",
        "lacunary_check", "kernel_identity_check", "diagonal_funceq", "langlands_bounds_check",
    }
    bound = set()
    for node in ast.walk(ast.parse(inspect.getsource(funceq))):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, ast.alias):
            bound.add(node.asname or node.name)
    assert "gamma_factor" not in bound
