"""Seeded workloads of the pvzeta benchmark.

A workload is a list of operations.  Most operations are one invocation
of the ``pvzeta`` command line (``cli.main``); the relative-invariance
sweeps, which no subcommand exposes, go through
``phspace.check_relative_invariance`` directly.  Every parameter is drawn
from the workload seed, inside the ranges the acceptance tests cover and
away from every pole, and reaches the program only as a CLI argument.

Each operation also names the checks it must produce (with their default
tolerances, used to score an operation that errors) and, where the
benchmark knows a closed form, an oracle that judges the reported sides
independently of the library's own pass flag.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

WORKLOADS = ("nested-1d", "zeta-3d", "sweep-1d")

GAUSS3 = "gaussian:a=3.14159,n=3"
EULER_GAMMA = 0.57721566490153286061
# Eq12 at s = 1/2 for e^{-pi x^2}: both sides equal pi^{-1/4} Gamma(1/4)
EQ12_SELF_DUAL = math.pi ** -0.25 * math.gamma(0.25)
ORACLE_TOL = 1e-8
# the heat subcommand's test function is e^{-a (log x)^2} with this a
HEAT_RATE = 1.0


@dataclass(frozen=True)
class Operation:
    """One timed operation of a workload.

    ``argv`` is the CLI argument list (``--out`` is appended when run);
    ``sweep`` is ``(space spec, sample count, seed)`` for a
    relative-invariance sweep.  ``checks`` pairs each check id the
    operation must report with its default tolerance.  ``oracle`` maps
    the parsed report rows to an error message, or None when they agree
    with the benchmark's own closed form."""

    name: str
    checks: tuple
    argv: tuple = ()
    sweep: Optional[tuple] = None
    oracle: Optional[Callable] = field(default=None, compare=False)


def _side(value):
    return complex(value["re"], value["im"])


def _relerr(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _against(rows, closed, tol, what):
    """Both sides of the single row must match the closed form."""
    if len(rows) != 1:
        return f"{what}: expected 1 row, got {len(rows)}"
    for side in ("lhs", "rhs"):
        err = _relerr(_side(rows[0][side]), closed)
        if not err < tol:
            return f"{what}: {side} differs from the closed form by {err:.3e} (tol {tol:.1e})"
    return None


def semigroup_oracle(rows):
    """S_T e^{-a (log x)^2} = (1+4aT)^{-1/2} e^{-a r^2/(1+4aT)}, r = log x,
    at the reported worst_x with T = t + s (both sides of the row)."""
    if len(rows) != 1:
        return f"heat-semigroup: expected 1 row, got {len(rows)}"
    row = rows[0]
    T = row["params"]["t"] + row["params"]["s"]
    r = math.log(row["extra"]["worst_x"])
    sig = 1.0 + 4.0 * HEAT_RATE * T
    closed = sig ** -0.5 * math.exp(-HEAT_RATE * r * r / sig)
    return _against(rows, closed, row["tolerance"], "heat-semigroup")


def eq12_oracle(rows):
    return _against(rows, EQ12_SELF_DUAL, ORACLE_TOL, "funceq-eq12 at s=1/2")


def tplus_oracle(rows):
    return _against(rows, -EULER_GAMMA, ORACLE_TOL, "homog-tplus-int")


def _num(x):
    """Shortest round-trip text of a drawn parameter."""
    return repr(float(x))


def _draw(rng, lo, hi, digits=3, avoid=(), gap=0.05):
    """Uniform draw on [lo, hi] rounded to `digits`, at least `gap` away
    from each point in `avoid`."""
    while True:
        x = round(rng.uniform(lo, hi), digits)
        if all(abs(x - p) >= gap for p in avoid):
            return x


def _op(name, checks, *argv, oracle=None):
    return Operation(name, tuple(checks), argv=tuple(argv), oracle=oracle)


def nested_1d(rng):
    """Nested scalar adaptive quadrature: heatflow.apply inside apply and
    an adaptive t_+^s pairing at every node of an adaptive integral."""
    # Ranges are narrow where the cost of an adaptive integral moves with
    # the parameter, so that seeds change the inputs but barely the work.
    t, s = _draw(rng, 0.4, 0.6), _draw(rng, 0.4, 0.6)
    # one grid point in each third of [0.5, 2], like the default 0.5, 1, 2
    xs = [_draw(rng, 0.5 + 0.5 * i, 1.0 + 0.5 * i) for i in range(3)]
    # two Gaussian rates from disjoint ranges, so the ratio of extensions
    # compares genuinely different test functions
    rates = (_draw(rng, 0.8, 1.2, digits=2), _draw(rng, 1.8, 2.2, digits=2))
    center, radius = _draw(rng, 2.8, 3.2, digits=2), _draw(rng, 0.9, 1.1, digits=2)
    return [
        _op("heat-semigroup", [("heat-semigroup", 1e-6)],
            "heat", "--check", "semigroup", "--variant", "corrected", f"--t={_num(t)}", f"--s={_num(s)}",
            "--x=" + ",".join(_num(x) for x in xs), oracle=semigroup_oracle),
        _op("heat-generator", [("heat-generator", 0.2)],
            "heat", "--check", "generator", "--t=0.5", "--x=1.0"),
        _op("homog-ambiguity", [("homog-ambiguity", 1e-6)],
            "homog", "--check", "ambiguity", "--testfn=" + ";".join(f"gaussian:a={_num(a)},n=1" for a in rates)),
        _op("homog-extension", [("homog-extension-restricts", 1e-8)],
            "homog", "--check", "extension", f"--testfn=bump:c={_num(center)},r={_num(radius)},n=1"),
    ]


def zeta_3d(rng):
    """Per-ray radial Mellin transforms on the sphere rule and hyperbolic
    angular profiles under the finite-difference continuation stencil."""
    # Narrow windows: the cost of these adaptive integrals jumps at
    # special exponents, so each window sits where the cost is flat.
    s12a = _draw(rng, 0.68, 0.72)
    s22 = _draw(rng, 0.19, 0.21)
    return [
        _op("funceq-eq12a", [("funceq-eq12a", 1e-6)],
            "funceq", "--eq", "12a", f"--s={_num(s12a)}", "--convention", "twopi", "--variant", "corrected"),
        _op("funceq-eq22", [("funceq-eq22", 1e-3)],
            "funceq", "--eq", "22", f"--s={_num(s22)}", "--convention", "twopi"),
        # The zeta values stay at fixed s: their coarse-against-fine
        # residual scatters over several digits from one s to the next,
        # which would make verified_digits_mean follow the seed.  The
        # continued s = -1.35 lies past beta = 2s + 1 = -1, 0.15 from the
        # pole at s = -1.5; s = -1.25 would be several times cheaper than
        # its neighbours.
        _op("zeta-value-definite", [("zeta-eval", 1e-8)],
            "zeta", "--check", "value", "--space", "definite:n=3", f"--testfn={GAUSS3}", "--s=0.8"),
        _op("zeta-value-indefinite-continued", [("zeta-eval", 1e-8)],
            "zeta", "--check", "value", "--space", "indefinite:q=1,n=3", f"--testfn={GAUSS3}", "--s=-1.35"),
        # The oracle's seed and s stay fixed: its residual in standard
        # errors is a random draw, and a seeded draw would make the
        # tolerance headroom a random variable rather than a property of
        # the code.  Criterion 03 uses the same seed and s.
        _op("zeta-montecarlo", [("zeta-montecarlo", 1e-3)],
            "zeta", "--check", "montecarlo", "--space", "indefinite:q=1,n=3", "--component", "plus",
            f"--testfn={GAUSS3}", "--s=0.2", "--seed", "2024"),
    ]


def sweep_1d(rng):
    """Many short one-dimensional checks: vectorized fixed rules, numeric
    Fourier transforms and per-row report and CLI work."""
    ops = [
        _op("eq12-gaussian-self-dual", [("funceq-eq12", 1e-6)],
            "funceq", "--eq", "12", "--s=0.5", "--testfn=gaussian:n=1", "--convention", "twopi", oracle=eq12_oracle),
        _op("eq12-gaussian", [("funceq-eq12", 1e-6)],
            "funceq", "--eq", "12", f"--s={_num(_draw(rng, 0.25, 0.75))}", "--testfn=gaussian:a=3.14159,n=1",
            "--convention", "twopi"),
        _op("eq12-hermite-auto", [("funceq-eq12", 1e-6)],
            "funceq", "--eq", "12", f"--s={_num(_draw(rng, 0.25, 0.75))}", "--testfn=hermite:d=2,a=3.14159,n=1",
            "--convention", "auto"),
        _op("eq12-bump", [("funceq-eq12", 1e-6)],
            "funceq", "--eq", "12", f"--s={_num(_draw(rng, 0.25, 0.75))}", "--testfn=bump:c=0,r=1,n=1",
            "--convention", "twopi"),
        _op("zeta-overlap", [("mellin-overlap", 1e-8)],
            "zeta", "--check", "overlap", f"--s={_num(_draw(rng, -0.5, 0.8))}"),
    ]
    ops += [_op(f"zeta-residue-k{k}", [("mellin-residue", 1e-3)], "zeta", "--check", "residue", f"--k={k}")
            for k in (1, 2, 3)]
    ops += [
        _op("zeta-value-scalar", [("zeta-eval", 1e-8)], "zeta", "--check", "value", f"--s={_num(_draw(rng, 0.2, 0.8))}"),
        _op("homog-tplus-int", [("homog-tplus-int", 1e-8)], "homog", "--check", "tplus-int", oracle=tplus_oracle),
    ]
    for i in range(3):
        deg = _draw(rng, -1.9, 0.5, avoid=(-1.0, 0.0), gap=0.1)
        ops.append(_op(f"homog-homogeneity-{i}", [("homog-homogeneity", 1e-8)],
                       "homog", "--check", "homogeneity", f"--s={_num(deg)}", f"--lam={_num(_draw(rng, 0.5, 2.0))}"))
    ops += [
        _op("heat-lacunary-t0.1", [("heat-lacunary", 1e-7)], "heat", "--check", "lacunary", "--t=0.1"),
        _op("heat-lacunary-t1", [("heat-lacunary", 2e-6)], "heat", "--check", "lacunary", "--t=1.0"),
        _op("heat-kernel", [("heat-kernel-identity", 1e-10)], "heat", "--check", "kernel", f"--t={_num(_draw(rng, 0.1, 1.0))}"),
        _op("heat-bounds", [("heat-langlands-bounds", 1e-8)], "heat", "--check", "bounds", f"--t={_num(_draw(rng, 0.25, 1.0))}"),
        _op("heat-diagonal-funceq", [("heat-diagonal-funceq", 1e-7)],
            "heat", "--check", "funceq", f"--t={_num(_draw(rng, 0.1, 1.0))}", f"--s={_num(_draw(rng, 0.3, 0.7))}"),
        _op("probe-symbol-decay", [("symbol-decay", 8.0)], "probe", "--what", "symbol-decay", "--t=0.1"),
        _op("probe-scaling", [("symbol-scaling", 1e-9)],
            "probe", "--what", "scaling", "--t=0.1", "--alphas=50", f"--seed={rng.randrange(1 << 30)}"),
        _op("probe-kernel", [("kernel-vs-heat", 1e-7)], "probe", "--what", "kernel", "--t=0.1"),
        _op("probe-integrability", [("kernel-integrability", 0.75)], "probe", "--what", "integrability", "--t=0.1"),
    ]
    for spec in ("scalar1d", "definite:B=I,n=3", "indefinite:q=1,n=3"):
        kind = spec.partition(":")[0]
        ops.append(Operation(f"relative-invariance-{kind}", (("relative-invariance", 1e-10),),
                             sweep=(spec, 200, rng.randrange(1 << 30))))
    return ops


_BUILDERS = {"nested-1d": nested_1d, "zeta-3d": zeta_3d, "sweep-1d": sweep_1d}


def build(workload, seed):
    """The operations of `workload` at `seed`; the same seed gives the
    same operations."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"pvzeta-bench:{workload}:{int(seed)}")
    return _BUILDERS[workload](rng)
