import importlib.util
import math
from pathlib import Path

import pvzeta

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# wrapped lazily, when the wrapped function is built: the angular profile
# by SignatureGeometry.angular_profile, a numeric transform's evaluators
# by testfn.fourier
LAZY = {"quad.angular_profile", "testfn.fourier.eval"}


def test_benchmark_tracer_binds_every_expected_span():
    # a library name the benchmark's tracer expects but cannot find breaks
    # its traced run; install the tracer as the benchmark does and compare
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    original = pvzeta.zeta.zeta_local
    t = tracer.Tracer()
    try:
        t.install(pvzeta)
        registered = set(t.names)
        expected = {name for names in tracer.EXPECTED.values() for name in names}
        assert sorted(expected - LAZY - registered) == []
        assert "testfn.fourier" in registered and "angular_profile" in vars(pvzeta.quad.SignatureGeometry)
    finally:
        t.uninstall()
    assert pvzeta.zeta.zeta_local is original


def test_benchmark_tracer_counts_the_oracle_samples():
    # the tracer reads the sample count of quad.monte_carlo_signature as
    # kwargs["nsamples"] unless a sixth positional argument is given, so
    # check_zeta_montecarlo passes the count and the seed by keyword
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    space, phi = pvzeta.phspace.parse_space("indefinite:q=1,n=3"), pvzeta.testfn.gaussian(math.pi, n=3)
    t = tracer.Tracer()
    try:
        t.install(pvzeta)
        pvzeta.zeta.check_zeta_montecarlo(space, "plus", 0.2, phi, 1000, 5)
    finally:
        t.uninstall()
    assert t.counts["quad.monte_carlo_signature.samples"] == 1000
