"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import math

import pytest

import run
import tracer as tracing
import workloads
from setup_probe import import_pvzeta

pvzeta = import_pvzeta()

SEEDS = range(200)

# Cheap operations, one or more from every workload, for the traced tests.
SMALL = {
    "nested-1d": ("heat-generator",),
    "zeta-3d": ("zeta-value-indefinite-continued",),
    "sweep-1d": ("eq12-gaussian-self-dual", "eq12-hermite-auto", "zeta-overlap", "zeta-residue-k2", "homog-tplus-int",
                 "homog-homogeneity-0", "heat-lacunary-t0.1", "heat-bounds", "probe-kernel",
                 "relative-invariance-definite"),
}


def _s_values(op):
    return [float(a.split("=", 1)[1]) for a in op.argv if a.startswith("--s=")]


def _pole_gap(x, poles):
    return min(abs(x - p) for p in poles)


NEG_INTS = [-float(k) for k in range(1, 10)]


def test_generator_is_deterministic_and_seeded():
    for workload in workloads.WORKLOADS:
        for seed in range(20):
            assert workloads.build(workload, seed) == workloads.build(workload, seed)
        assert workloads.build(workload, 1) != workloads.build(workload, 2)


def test_draws_stay_off_the_poles():
    for seed in SEEDS:
        for workload in workloads.WORKLOADS:
            for op in workloads.build(workload, seed):
                for s in _s_values(op):
                    if op.name == "funceq-eq22":
                        assert 0.0 < s and abs(s - 0.5) >= 0.05, (seed, s)
                    elif op.name.startswith("eq12") or op.name == "heat-diagonal-funceq":
                        assert 0.0 < s < 1.0, (seed, op.name, s)
                    elif op.name == "funceq-eq12a":
                        assert 0.3 <= s <= 1.1, (seed, s)
                    elif op.name == "zeta-value-indefinite-continued":
                        beta = 2.0 * s + 1.0
                        assert beta < -1.0 and _pole_gap(beta, NEG_INTS) >= 0.2, (seed, s)
                    elif op.name.startswith("homog-homogeneity"):
                        assert _pole_gap(s, NEG_INTS + [0.0]) >= 0.1, (seed, s)
                    elif op.name.startswith("zeta-"):
                        assert s > -1.0 + 0.4, (seed, op.name, s)
                    elif op.name == "heat-semigroup":
                        assert 0.25 <= s <= 1.0
                    else:
                        pytest.fail(f"unchecked s in {op.name}")


def test_every_argument_list_parses():
    parser = pvzeta.cli._build_parser()
    for seed in range(50):
        for workload in workloads.WORKLOADS:
            for op in workloads.build(workload, seed):
                if op.sweep is None:
                    parser.parse_args([*op.argv, "--out", "x.jsonl"])


def test_error_scores_every_owed_check_as_rel_one():
    op = workloads.Operation("x", (("a", 1e-8), ("b", 1e-3)), argv=("homog",))
    wrong, scores = run.judge(op, 1, b"")
    assert wrong is None
    assert scores == [pytest.approx((-8.0, 0.0)), pytest.approx((-3.0, 0.0))]


def test_oracles_accept_the_closed_form_and_reject_a_perturbation():
    def row(value, **extra):
        side = {"re": value, "im": 0.0}
        return {"lhs": side, "rhs": side, "tolerance": 1e-6, **extra}

    assert workloads.tplus_oracle([row(-workloads.EULER_GAMMA)]) is None
    assert workloads.tplus_oracle([row(-workloads.EULER_GAMMA * (1 + 1e-6))]) is not None
    assert workloads.eq12_oracle([row(workloads.EQ12_SELF_DUAL)]) is None
    t, s, x = 0.4, 0.6, 1.7
    sig = 1.0 + 4.0 * (t + s)
    closed = sig ** -0.5 * math.exp(-math.log(x) ** 2 / sig)
    good = row(closed, params={"t": t, "s": s}, extra={"worst_x": x})
    assert workloads.semigroup_oracle([good]) is None
    bad = row(closed * math.sqrt(2.0), params={"t": t, "s": s}, extra={"worst_x": x})
    assert workloads.semigroup_oracle([bad]) is not None


def _small_ops():
    return [op for w, names in SMALL.items() for op in workloads.build(w, 7) if op.name in names]


def _traced_pass(ops, out_path):
    trace = tracing.Tracer()
    trace.install(pvzeta)
    try:
        seconds, outcomes = run.run_pass(pvzeta, ops, out_path, trace=trace)
    finally:
        trace.uninstall()
    return trace, seconds, outcomes


def test_traced_counts_repeat_and_self_times_add_up(tmp_path):
    ops = _small_ops()
    assert len(ops) == sum(len(v) for v in SMALL.values())
    out = str(tmp_path / "report.jsonl")
    _, plain = run.run_pass(pvzeta, ops, out)
    runs = []
    for _ in range(2):
        trace, seconds, outcomes = _traced_pass(ops, out)
        assert [o.rows for o in outcomes] == [o.rows for o in plain]
        assert all(o.code == 0 and o.wrong is None for o in outcomes)
        values, summary = trace.layer_metrics(sum(o.warnings for o in outcomes))
        assert summary["total_self_s"] == pytest.approx(seconds, rel=0.02, abs=0.005)
        runs.append({k: v for k, v in values.items() if k.endswith((".calls", ".evals", ".points", ".samples"))})
        runs[-1]["spans"] = summary["spans"]
    assert runs[0] == runs[1]
    assert runs[0]["quad.integrate_1d.calls"] > 0 and runs[0]["testfn.eval.points"] > 0


def test_uninstall_restores_the_library():
    before = (pvzeta.quad.integrate_1d, pvzeta.cli.sort_reports, vars(pvzeta.testfn.TestFunction)["__call__"],
              vars(pvzeta.quad.SignatureGeometry)["angular_profile"])
    trace = tracing.Tracer()
    trace.install(pvzeta)
    assert pvzeta.quad.integrate_1d is not before[0] and pvzeta.cli.sort_reports is not before[1]
    trace.uninstall()
    after = (pvzeta.quad.integrate_1d, pvzeta.cli.sort_reports, vars(pvzeta.testfn.TestFunction)["__call__"],
             vars(pvzeta.quad.SignatureGeometry)["angular_profile"])
    assert after == before


def test_benchmark_json_names_what_the_runner_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert layer == {**tracing.LAYER_METRICS, **run.RUNNER_LAYER_METRICS}
