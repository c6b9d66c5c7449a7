"""Adaptive QUADPACK oracle for one-dimensional Fourier integrals.

The tests compare the library's fixed Fourier rules (the numeric
transform of a bump, the heat symbol, the double-exponential inverse
transforms) against this independent adaptive route; the library itself
never calls it.
"""

import numpy as np
from scipy.integrate import quad as scipy_quad

from pvzeta import quad

# at or below this |xi| the complex integrand is integrated directly
OSC_THRESHOLD = 4.0


def oscillatory_ft_1d(f, xi, a=-np.inf, b=np.inf, tol=1e-10, force_method=None):
    """Integral of f(y) e^{-i y xi} dy over (a, b).

    Below the oscillation threshold a plain adaptive rule on the complex
    integrand is used; above it, Clenshaw-Curtis panels with exact
    cos/sin weights (scipy's QAWO/QAWF) handle the oscillation.
    force_method ('plain' or 'osc') pins the path for cross-checks.

    Strong cancellation sets an absolute accuracy floor: when the result
    is many orders below the integrand's magnitude, accuracy is absolute
    (~1e-15 times the integrand scale), not relative.  QAWO is also
    fragile where the integration interval ends exactly at the edge of a
    compact support (on bump(-0.45, 0.8) at xi = 20 it was off by 3e-2,
    for a value of 8e-4), so callers integrate a little past the support.
    """
    xi = float(xi)
    use_plain = abs(xi) <= OSC_THRESHOLD if force_method is None else force_method == "plain"
    if use_plain:
        return complex(quad.integrate_1d(lambda y: f(y) * np.exp(-1j * y * xi), a, b, tol=tol).value)

    def piece(lo, hi):
        kw = dict(limit=400, epsabs=tol * 1e-2, epsrel=tol * 1e-2)
        if np.isinf(hi) or np.isinf(lo):
            kw = dict(limit=400, epsabs=tol * 1e-2)
        if np.isinf(lo) and np.isinf(hi):
            return piece(lo, 0.0) + piece(0.0, hi)
        if np.isinf(lo):
            re = scipy_quad(lambda y: f(-y), -hi, np.inf, weight="cos", wvar=xi, **kw)[0]
            im = scipy_quad(lambda y: f(-y), -hi, np.inf, weight="sin", wvar=xi, **kw)[0]
            return re + 1j * im
        re = scipy_quad(f, lo, hi, weight="cos", wvar=xi, **kw)[0]
        im = scipy_quad(f, lo, hi, weight="sin", wvar=xi, **kw)[0]
        return re - 1j * im

    return complex(piece(a, b))
