import math

import numpy as np
import pytest

from oracle import oscillatory_ft_1d


def test_integrand_errors_keep_their_type():
    # an integrand fault reaches the caller with its own type
    def bad(x):
        raise TypeError("integrand fault")

    with pytest.raises(TypeError, match="integrand fault"):
        oscillatory_ft_1d(bad, 10.0, 0.0, 1.0, force_method="osc")


def test_oscillatory_ft_gaussian():
    # FT of e^{-x^2}: integral e^{-x^2} e^{-i x xi} dx = sqrt(pi) e^{-xi^2/4}
    for xi in (0.5, 8.0, 40.0):
        val = oscillatory_ft_1d(lambda x: np.exp(-x * x), xi)
        ref = math.sqrt(math.pi) * math.exp(-xi * xi / 4.0)
        assert abs(val - ref) < 1e-10


def test_oscillatory_ft_methods_agree():
    f = lambda x: np.exp(-0.5 * x * x)
    a = oscillatory_ft_1d(f, 6.0, force_method="plain")
    b = oscillatory_ft_1d(f, 6.0, force_method="osc")
    assert abs(a - b) < 1e-9
