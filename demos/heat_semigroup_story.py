"""The Euler-operator heat flow on the positive half-line.

Shows the semigroup law holding for the mass-one kernel and failing by
exactly sqrt(2) for the printed prefactor (the corrected kernel times
heatflow.variant_scale("printed") per application of S_t), the O(h^2)
generator consistency, the lacunary vanishing of the auxiliary kernel,
and the superpolynomial decay of the operator symbol away from the fixed
point.

Run:  python3 demos/heat_semigroup_story.py
"""

import numpy as np

from pvzeta import funceq, heatflow, phspace, symbolkern


def main():
    phi = heatflow.log_gaussian(1.0)

    print("== Kernel mass ==")
    for variant in funceq.VARIANTS:
        mass = heatflow.heat_group_function(0.5, variant).l1() / heatflow.l1_norm(0.5)
        print(f"  {variant:>9s}: relative mass {mass:.10f}")

    print("\n== Semigroup law S_t S_s = S_(t+s) ==")
    for variant in ("corrected", "printed"):
        rep = heatflow.semigroup_check(0.5, 0.5, phi, (0.5, 1.0, 2.0), variant=variant)
        ratio = complex(rep.extra["measured_ratio"]).real
        print(f"  {variant:>9s}: residual {rep.rel_residual:.2e} [{rep.status}]  measured ratio {ratio:.7f}")
    print("  (sqrt(2) = 1.4142136: the printed prefactor composes to a scaled one-step operator)")

    print("\n== Generator: central difference vs Euler operator ==")
    for t, x in ((0.5, 1.0), (1.0, 2.0)):
        rep = heatflow.generator_check(t, phi, x)
        print(f"  t={t}, x={x}: residual ratio across h=1e-2 -> 1e-3 is {np.real(rep.lhs):.1f} (expect ~100)")

    print("\n== Lacunary support of the auxiliary kernel ==")
    print("  (the symbol inverted on a double-exponential Fourier rule, no spectrum cut)")
    for t in (0.1, 1.0, 2.0):
        rep = heatflow.lacunary_check(t)
        rule = rep.extra["rule"]
        print(
            f"  t={t}: dual-path rel {rep.rel_residual:.2e} [{rep.status}]  "
            f"closed support gap {rep.extra['closed_support_gap']:.1e}  "
            f"numeric support gap {rep.extra['numeric_support_gap']:.1e}  "
            f"({rule['nodes']} nodes, h={rule['h']:g})"
        )

    print("\n== Symbol decay off the fixed point ==")
    f = heatflow.heat_group_function(0.1)
    probe = symbolkern.decay_probe(f, phspace.scalar1d(), 1.0)
    for lo, hi, sl in zip(probe["taus"][:-1], probe["taus"][1:], probe["band_slopes"]):
        print(f"  xi in [{lo:5.0f}, {hi:5.0f}]: log-log slope {sl:7.2f}")
    vals = [symbolkern.symbol(f, phspace.scalar1d(), 0.0, xi) for xi in (0.1, 10.0, 1000.0)]
    print(f"  at the fixed point m=0 the symbol is constant: spread {max(abs(v - vals[0]) for v in vals):.1e}")


if __name__ == "__main__":
    main()
