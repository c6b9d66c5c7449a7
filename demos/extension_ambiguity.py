"""Regularizing a critically homogeneous density across the origin.

The density |m|^(-1) on the line is not locally integrable at 0.  Its
extension through a logarithmic cutoff is well defined, restricts to the
naive pairing away from the origin, and changing the cutoff shifts the
extension by a delta at 0 only: the difference divided by phi(0) is the
closed constant (c1(psi2) - c1(psi1)) integral_S k, c1 the log-mean of a
cutoff, for every test function.  The demo computes each difference on
the pointwise reference, where the cutoff enters at each node, and prints
it next to the closed constant.

Run:  python3 demos/extension_ambiguity.py
"""

import math

import numpy as np

from pvzeta import homog, testfn


def main():
    k = homog.homog_density(-1.0, lambda x: 1.0 / np.abs(x), n=1, label="|m|^-1")
    psi1 = homog.make_cutoff(0.5, 2.0)
    psi2 = homog.make_cutoff(1.0, 4.0)

    print("== Known constant: <t_+^(-1), e^(-t)> ==")
    rep = homog.check_tplus_int()
    print(f"  value {rep.lhs.real:.12f}   -EulerGamma = {-np.euler_gamma:.12f}   [{rep.status}]")

    print("\n== Homogeneity of t_+^s at non-integer degrees ==")
    for s in (-0.5, 0.3, -1.7):
        rep = homog.check_homogeneity(s, testfn.gaussian(math.pi), 2.0)
        print(f"  s={s:5.2f}: rel residual {rep.rel_residual:.2e} [{rep.status}]")

    print("\n== Extension restricts away from the origin ==")
    rep = homog.check_extension_restricts(k, psi1, testfn.bump(3.0, 1.0))
    print(f"  bump supported on [2, 4]: rel residual {rep.rel_residual:.2e} [{rep.status}]")

    print("\n== Cutoff ambiguity is a delta at 0 ==")
    # the closed log-moment: the cutoffs' log-means times integral_S k = 2
    closed = (psi2.log_mean() - psi1.log_mean()) * k.sphere_integral()
    print(f"  closed (c1(psi2) - c1(psi1)) * integral_S k = {closed.real:.15f}   (ln 4 = {math.log(4.0):.15f})")
    for a in (0.5, 1.0, 2.0, math.pi, 4.0):
        phi = testfn.gaussian(a)
        # the pointwise reference: psi enters at each outer node, no scaling law
        d = complex(homog.pointwise_kdot(k, psi1, phi)[0]) - complex(homog.pointwise_kdot(k, psi2, phi)[0])
        c = d / complex(phi(0.0))
        print(f"  {phi.label:<24s} (kdot1 - kdot2)(phi)/phi(0) = {c.real:.15f}   off the closed value by {abs(c - closed):.1e}")

if __name__ == "__main__":
    main()
