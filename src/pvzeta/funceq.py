"""Functional equations relating zeta integrals of a function and of its
Fourier transform, with explicit gamma-function factors:

  Eq12  (scalar case, n = 1):
      integral |xi|^{s-1} phihat(xi) dxi
        = (2 pi)^{-s} Gamma(s) 2 cos(pi s / 2) integral |m|^{-s} phi(m) dm

  Eq12a (definite quadratic form, n >= 2):
      integral |p*(xi)|^{s-n/2} phihat dxi
        = pi^{n/2-2s} sqrt(det B) Gamma(s)/Gamma(n/2-s)
          integral |p(m)|^{-s} phi dm
      The exponent pi^{n/2-s} found in some statements of this identity
      fails the Gaussian closed-form oracle by exactly pi^s; both
      variants ('printed' and 'corrected') are first-class here and the
      discrepancy is a reported artifact.

  Eq22  (indefinite signature (q, n-q), n = 3):
      the 2-vector equation with matrix
      C(s) = Gamma(s+1-n/2) Gamma(s) |det B| pi^{-2s+n/2-1} *
             [[-sin pi(s-q/2),      sin(pi q/2)      ],
              [ sin(pi(n-q)/2),    -sin pi(s-(n-q)/2)]]

All checks are convention-explicit; calibrate_convention tabulates the
residuals under each convention (and exponent variant) and reports the
minimizer.
"""

from __future__ import annotations

import cmath
import math
import statistics

import numpy as np

from . import phspace, special, testfn, zeta
from .errors import DomainError, PoleError
from .report import CheckReport, worst


# ---------------------------------------------------------------------------
# Gamma factors


def gamma_factor(eq, s, n=None, B=None, q=None, variant="corrected"):
    """Closed-form factor of the named equation (matrix for Eq22)."""
    s = complex(s)
    if eq in ("12", 12):
        return special.gamma_factor_1d(s)
    if eq in ("12a", "12A"):
        B = np.atleast_2d(np.asarray(B, dtype=float))
        n = B.shape[0] if n is None else n
        detB = float(np.linalg.det(B))
        expo = (n / 2.0 - s) if variant == "printed" else (n / 2.0 - 2.0 * s)
        return math.pi ** complex(expo) * math.sqrt(detB) * special.gamma(s) / special.gamma(n / 2.0 - s)
    if eq in ("22", 22):
        B = np.atleast_2d(np.asarray(B, dtype=float))
        n = B.shape[0] if n is None else n
        detB = abs(float(np.linalg.det(B)))
        pref = special.gamma(s + 1.0 - n / 2.0) * special.gamma(s) * detB * math.pi ** complex(-2.0 * s + n / 2.0 - 1.0)
        M = np.array(
            [
                [-cmath.sin(math.pi * (s - q / 2.0)), math.sin(math.pi * q / 2.0)],
                [math.sin(math.pi * (n - q) / 2.0), -cmath.sin(math.pi * (s - (n - q) / 2.0))],
            ],
            dtype=complex,
        )
        return pref * M
    raise DomainError(f"unknown equation id {eq!r}")


# ---------------------------------------------------------------------------
# Eq 12


def eq12_sides(s, phi, convention):
    """(lhs, rhs) of Eq12 without packaging, for reuse by scaled variants."""
    s = complex(s)
    phihat = testfn.fourier(phi, convention)
    lhs = complex(zeta.mellin(phihat, 1.0, s - 1.0).value) + complex(
        zeta.mellin(phihat, -1.0, s - 1.0).value
    )
    base = complex(zeta.mellin(phi, 1.0, -s).value) + complex(
        zeta.mellin(phi, -1.0, -s).value
    )
    rhs = special.gamma_factor_1d(s) * base
    return lhs, rhs


def check_eq12(s, phi, convention, tol=1e-6):
    if phi.n != 1:
        raise DomainError("Eq12 is the one-dimensional case")
    conv = testfn.FourierConvention.parse(convention)
    lhs, rhs = eq12_sides(s, phi, conv)
    return CheckReport(
        check="funceq-eq12",
        params={"s": complex(s), "testfn": phi.label, "convention": conv.value},
        lhs=lhs,
        rhs=rhs,
        tolerance=tol,
        anchor="Eq12",
    )


# ---------------------------------------------------------------------------
# Eq 12a


def check_eq12a(s, B, phi, convention, variant="corrected", tol=1e-6):
    conv = testfn.FourierConvention.parse(convention)
    if variant not in ("printed", "corrected"):
        raise DomainError("variant must be 'printed' or 'corrected'")
    B = np.atleast_2d(np.asarray(B, dtype=float))
    n = B.shape[0]
    if n not in (2, 3):
        raise DomainError("Eq12a supported for n in {2, 3}")
    space = phspace.definite(B=B)
    dual = phspace.definite(B=np.linalg.inv(B))
    phihat = testfn.fourier(phi, conv)
    lhs = complex(zeta.zeta_local(dual, "V1", complex(s) - n / 2.0, phihat).value)
    base = complex(zeta.zeta_local(space, "V1", -complex(s), phi).value)
    fac = gamma_factor("12a", s, n=n, B=B, variant=variant)
    rhs = fac * base
    return CheckReport(
        check="funceq-eq12a",
        params={
            "s": complex(s),
            "n": n,
            "testfn": phi.label,
            "convention": conv.value,
            "variant": variant,
        },
        lhs=lhs,
        rhs=rhs,
        tolerance=tol,
        anchor="Eq12a",
        extra={"variant": variant},
    )


# ---------------------------------------------------------------------------
# Eq 22


def eq22_sides(s, B, phi, convention, q=1):
    """Returns (lhs_vec, rhs_vec, direct_vec) of the 2-vector equation:
    lhs over the dual components of phihat, rhs = C(s) applied to the
    direct zeta vector of phi.  DomainError unless B has signature
    (q, n - q); at a pole of C(s) the first zeta integral, at s - n/2,
    raises PoleError."""
    s = complex(s)
    B = np.atleast_2d(np.asarray(B, dtype=float))
    n = B.shape[0]
    if n != 3 or q not in (1, 2):
        raise DomainError("Eq22 is supported for n = 3, q in {1, 2}")
    conv = testfn.FourierConvention.parse(convention)
    space = phspace.indefinite(B=B, q=q)
    dual = phspace.indefinite(B=np.linalg.inv(B))
    phihat = testfn.fourier(phi, conv)

    lhs = np.array(
        [
            complex(zeta.zeta_local(dual, comp, s - n / 2.0, phihat).value)
            for comp in ("plus", "minus")
        ]
    )
    direct = np.array(
        [
            complex(zeta.zeta_local(space, comp, -s, phi).value)
            for comp in ("plus", "minus")
        ]
    )
    C = gamma_factor("22", s, n=n, B=B, q=q)
    rhs = C @ direct
    return lhs, rhs, direct


def check_eq22(s, B, phi, convention, q=1, tol=1e-9):
    lhs, rhs, direct = eq22_sides(s, B, phi, convention, q=q)
    conv = testfn.FourierConvention.parse(convention)
    params = {"s": complex(s), "q": q, "testfn": phi.label, "convention": conv.value}
    rows = [CheckReport("funceq-eq22", params, complex(l), complex(r), tol, anchor="Eq22") for l, r in zip(lhs, rhs)]
    rep = worst(rows)
    rep.extra.update(
        lhs_vec=[complex(v) for v in lhs],
        rhs_vec=[complex(v) for v in rhs],
        direct_vec=[complex(v) for v in direct],
        component_residuals=[float(r.rel_residual) for r in rows],
    )
    return rep


# ---------------------------------------------------------------------------
# Convention calibration


def calibrate_convention(eq, s_samples, phis, B=None, q=1):
    """Evaluate the named check under every Fourier convention (and both
    exponent variants for Eq12a); return all residuals and the minimizer.

    The underlying identities never state their transform normalization,
    so it is fixed empirically: the (convention, variant) pair with the
    smallest median residual wins.
    """
    variants = ("printed", "corrected") if str(eq) == "12a" else (None,)
    rows = []
    for conv in testfn.FourierConvention:
        for variant in variants:
            residuals = []
            for s in s_samples:
                for phi in phis:
                    try:
                        if str(eq) == "12":
                            rep = check_eq12(s, phi, conv)
                        elif str(eq) == "12a":
                            rep = check_eq12a(s, B if B is not None else np.eye(phi.n), phi, conv, variant=variant)
                        elif str(eq) == "22":
                            rep = check_eq22(s, B if B is not None else np.diag([1.0, -1.0, -1.0]), phi, conv, q=q)
                        else:
                            raise DomainError(f"unknown equation id {eq!r}")
                    except PoleError:
                        continue
                    residuals.append(rep.rel_residual)
            med = statistics.median(residuals) if residuals else math.inf
            rows.append({"convention": conv.value, "variant": variant, "median_residual": med, "residuals": residuals})
    best = min(rows, key=lambda r: r["median_residual"])
    return {"equation": str(eq), "rows": rows, "selected": (best["convention"], best["variant"])}
