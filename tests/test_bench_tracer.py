import importlib.util
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
