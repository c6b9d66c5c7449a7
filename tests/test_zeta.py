import math

import numpy as np
import pytest
import scipy.special

from pvzeta import phspace, special, testfn, zeta
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


@pytest.mark.parametrize("s", [-0.999 + 0.05j, -0.9855 + 0.5j, -0.97 + 0.5j, -0.93 + 0.2j, -0.901 + 0.05j])
def test_mellin_complex_s_near_minus_one(s):
    # r = u^(1/(1 + Re s)) underflows at small u here; the phase r^(i Im s)
    # comes from log u, so no point raises.  Closer to s = -1 the adaptive
    # rule loses digits (1.5e-5 relative at -0.999 + 0.05i, 8.8e-6 at
    # -0.9855 + 0.5i), so there only a loose bound holds the drift.
    phi = testfn.gaussian(math.pi)
    mv = zeta.mellin(phi, [1.0], s)
    exact = gaussian_mellin(s, math.pi)
    if s.real >= -0.97:
        assert abs(complex(mv.value) - exact) < 1e-10
    else:
        assert abs(complex(mv.value) - exact) < 1e-4 * abs(exact)


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


# (space, test function, s, continuation depth N of the radial Mellin
# transform at 2s + n - 1, sphere order); order 8 keeps the n = 3 runs
# of the adaptive reference short.  Bumps have numeric ray profiles with
# finite-difference derivatives and a support edge inside the interval.
ENGINE_CASES = [
    (phspace.definite(B=np.diag([1.0, 2.0, 0.5])), testfn.hermite_gaussian(2, 1.3, n=3), 0.4, 0, 8),
    (phspace.definite(B=np.diag([1.0, 2.0, 0.5])), testfn.gaussian(math.pi, n=3), -1.7 + 0.3j, 1, 8),
    (phspace.definite(B=np.diag([1.0, 2.0, 0.5])), testfn.hermite_gaussian(2, 2.0, n=3), -2.2, 2, 8),
    (phspace.definite(B=np.diag([1.0, 3.0])), testfn.hermite_gaussian(2, 1.3, n=2), -1.2 + 0.4j, 1, 16),
    (phspace.definite(B=np.diag([1.0, 3.0])), testfn.hermite_gaussian(2, 1.3, n=2), -1.6 + 0.3j, 2, 16),
    (phspace.definite(B=np.diag([2.0, 0.7])), testfn.gaussian(0.8, n=2), 0.9 - 0.5j, 0, 16),
    (phspace.definite(n=2), testfn.bump(0.0, 1.0, n=2), 0.3, 0, 16),
    (phspace.definite(n=2), testfn.bump(0.0, 1.0, n=2), -1.2, 1, 16),
    (phspace.definite(B=np.diag([1.0, 3.0])), testfn.bump(1.5, 1.0, n=2), -1.3, 1, 16),
]


@pytest.mark.parametrize("space, phi, s, depth, order", ENGINE_CASES)
def test_definite_engine_matches_reference(space, phi, s, depth, order):
    fast = zeta.zeta_local(space, "V1", s, phi, tol=1e-10, sphere_order=order)
    ref = zeta.zeta_local_reference(space, "V1", s, phi, tol=1e-12, sphere_order=order)
    assert fast.continuation_order == ref.continuation_order == depth
    assert fast.pole_distance == ref.pole_distance
    assert fast.rule is not None and ref.rule is None
    err = abs(complex(fast.value) - complex(ref.value)) / abs(complex(ref.value))
    assert err < 1e-12, err


def test_definite_engine_pole_guard():
    # 2s + n - 1 = -1 at s = -n/2
    sp, phi = phspace.definite(n=3), testfn.gaussian(math.pi, n=3)
    with pytest.raises(PoleError):
        zeta.zeta_local(sp, "V1", -1.5 + 1e-8, phi)
    assert zeta.zeta_local(sp, "V1", -1.5 + 1e-3, phi).pole_distance == pytest.approx(2e-3)


def test_definite_engine_level_cap(monkeypatch):
    # past the cap the engine raises and zeta_local takes the reference
    monkeypatch.setattr(zeta, "_DE_LEVELS", 1)
    sp, phi = phspace.definite(n=2), testfn.gaussian(1.0, n=2)
    with pytest.raises(AccuracyError):
        zeta._definite_engine(sp, complex(0.3), phi, 1e-14, 16, zeta.POLE_GUARD)
    mv = zeta.zeta_local(sp, "V1", 0.3, phi, tol=1e-14)
    assert mv.rule is None
    assert mv.value == zeta.zeta_local_reference(sp, "V1", 0.3, phi, tol=1e-14).value


def test_definite_oscillatory_rays_use_the_reference():
    phi = testfn.gaussian(math.pi, n=2)
    make_ray = phi._ray

    def ray(direction):
        prof = make_ray(direction)
        prof.oscillation = 0.5
        return prof

    phi._ray = ray
    sp = phspace.definite(n=2)
    mv = zeta.zeta_local(sp, "V1", 0.4, phi)
    assert mv.rule is None
    assert mv.value == zeta.zeta_local_reference(sp, "V1", 0.4, phi).value


def test_reference_delegates_for_other_kinds():
    phi = testfn.gaussian(math.pi)
    sp = phspace.scalar1d()
    assert zeta.zeta_local_reference(sp, "V2", 0.4, phi) == zeta.zeta_local(sp, "V2", 0.4, phi)
