"""pvzeta benchmark: time to a verified report on seeded workloads.

Run from the repository root:

    python3 perfbench/run.py --workload nested-1d --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

The load is a closed loop with one client: one operation at a time, in
this process, with no threads.  An operation is one ``pvzeta`` command
line invocation (``cli.main``, in-process, with ``--out`` to a temporary
file) or one relative-invariance sweep.  It fails when it exits non-zero,
when its rows disagree with the benchmark's closed forms, or when its
rows differ from those of an earlier run at the same seed.

With ``--trace 0`` the benchmark repeats whole passes over the workload
until ``--seconds`` have elapsed (at least one) and prints the
end-to-end metrics.  With ``--trace 1`` it runs one untraced and one
traced pass and prints the per-layer metrics.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.integrate import IntegrationWarning

import tracer as tracing
import workloads
from setup_probe import import_pvzeta

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 3
PROBE_TIMEOUT_S = 120
HEADROOM_CAP = 16.0
# rel_residual at or below 0 (exact agreement, or the decay probe's
# negative slope margin) scores as this floor, i.e. the 16-digit cap
REL_FLOOR = 1e-16

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "checks_passed_frac": "ratio",
    "tol_headroom_decades": "decades",
    "verified_digits_mean": "digits",
}

# per-layer metrics measured here rather than by the tracer
RUNNER_LAYER_METRICS = {
    "setup.import_s": ("s", "lower"),
    "setup.inputs_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "checks_failed_frac": ("ratio", "lower"),
}


@dataclass
class Outcome:
    """What one operation produced and how the benchmark judged it."""

    name: str
    code: int
    rows: bytes
    warnings: int
    message: str
    wrong: str | None
    scores: list
    seconds: float


def _sweep(pvzeta, sweep, out_path):
    """Worst row of a seeded relative-invariance sweep, written like a CLI
    report; returns the CLI exit status."""
    spec, count, seed = sweep
    ph = pvzeta.phspace
    space = ph.parse_space(spec)
    worst = None
    for g, m in zip(ph.sample_group(space, count, seed), ph.sample_points(space, count, seed + 1)):
        rep = ph.check_relative_invariance(space, g, m)
        if worst is None or rep.rel_residual > worst.rel_residual:
            worst = rep
    worst.params["sweep_count"] = count
    worst.params["seed"] = seed
    pvzeta.cli.emit([worst], "json-lines", out_path)
    return 0 if worst.passed else 2


def _score(tol, rel):
    """(tolerance headroom in decades, verified digits) of one check."""
    rel = float(rel)
    if not math.isfinite(rel):
        rel = 1.0
    rel = max(rel, REL_FLOOR)
    return min(HEADROOM_CAP, math.log10(tol / rel)), min(HEADROOM_CAP, -math.log10(rel))


def judge(op, code, rows_bytes):
    """(wrong, scores) for one operation's exit status and report bytes.
    `wrong` names a disagreement with what the benchmark expects."""
    try:
        rows = [json.loads(line) for line in rows_bytes.decode("utf-8").splitlines()]
    except ValueError as exc:
        return f"unreadable report: {exc}", [_score(tol, 1.0) for _, tol in op.checks]
    if code == 1 and not rows:
        # an error before the report: score every check it owed as rel = 1
        return None, [_score(tol, 1.0) for _, tol in op.checks]
    expected = sorted(check for check, _ in op.checks)
    got = sorted(r["check"] for r in rows)
    if got != expected:
        return f"reported checks {got}, expected {expected}", [_score(tol, 1.0) for _, tol in op.checks]
    wrong = op.oracle(rows) if op.oracle is not None else None
    return wrong, [_score(r["tolerance"], r["rel_residual"]) for r in rows]


def run_operation(pvzeta, op, out_path):
    """Run one operation in this process; warnings and stderr are captured."""
    t0 = time.perf_counter()
    if os.path.exists(out_path):
        os.unlink(out_path)
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            if op.sweep is not None:
                code = _sweep(pvzeta, op.sweep, out_path)
            else:
                code = pvzeta.cli.main([*op.argv, "--out", out_path])
        except Exception:  # a crash is a failed operation, not the end of the run
            code = 1
            err.write(traceback.format_exc())
    rows = Path(out_path).read_bytes() if os.path.exists(out_path) else b""
    nwarn = sum(1 for w in caught if issubclass(w.category, IntegrationWarning))
    wrong, scores = judge(op, code, rows)
    return Outcome(op.name, code, rows, nwarn, err.getvalue().strip(), wrong, scores, time.perf_counter() - t0)


def run_pass(pvzeta, ops, out_path, trace=None):
    """One pass over the operations; returns (seconds, outcomes)."""
    step = run_operation if trace is None else trace.span("bench.operation", run_operation)
    outcomes = []
    t0 = time.perf_counter()
    for i, op in enumerate(ops):
        if trace is not None:
            trace.operation = i
        outcomes.append(step(pvzeta, op, out_path))
    return time.perf_counter() - t0, outcomes


def measure_setup(workload, seed):
    """Median wall time of SETUP_SAMPLES fresh interpreters that import
    pvzeta and build the workload's inputs, plus the median of each part."""
    walls, parts = [], []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        parts.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return (
        statistics.median(walls),
        statistics.median(p["import_s"] for p in parts),
        statistics.median(p["inputs_s"] for p in parts),
    )


class Tally:
    """Attempted and failed operations, and why each failure happened."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.notes = []

    def add(self, outcome, reference=None):
        """Count one outcome; `reference` is the same operation's rows from
        an earlier pass at the same seed, which must be byte-identical."""
        self.attempted += 1
        problems = []
        if outcome.code != 0:
            last = outcome.message.splitlines()[-1] if outcome.message else ""
            problems.append(f"exit {outcome.code}: {last}")
        if outcome.wrong:
            problems.append(outcome.wrong)
            self.correct = False
        if reference is not None and outcome.rows != reference:
            problems.append("rows differ from an earlier run at the same seed")
            self.correct = False
        if problems:
            self.failed += 1
            self.notes.append(f"{outcome.name}: " + "; ".join(problems))


def accuracy(outcomes):
    """(tol_headroom_decades, verified_digits_mean) over every check."""
    scores = [sc for o in outcomes for sc in o.scores]
    return min(h for h, _ in scores), statistics.fmean(d for _, d in scores)


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_untraced(pvzeta, ops, out_path, seconds, tally):
    times, first = [], None
    t_end = time.perf_counter() + seconds
    while not times or time.perf_counter() < t_end:
        elapsed, outcomes = run_pass(pvzeta, ops, out_path)
        times.append(elapsed)
        for i, o in enumerate(outcomes):
            tally.add(o, None if first is None else first[i].rows)
        if first is None:
            first = outcomes
    return times, first


def end_to_end(pvzeta, workload, seed, seconds, out_path, tally):
    setup_s, _, _ = measure_setup(workload, seed)
    ops = workloads.build(workload, seed)
    times, outcomes = run_untraced(pvzeta, ops, out_path, seconds, tally)
    headroom, digits = accuracy(outcomes)
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "checks_passed_frac": (tally.attempted - tally.failed) / tally.attempted,
        "tol_headroom_decades": headroom,
        "verified_digits_mean": digits,
    }
    print(f"{workload}: {len(times)} pass(es), pass times " + ", ".join(f"{t:.3f}" for t in times) + " s; first pass: "
          + ", ".join(f"{o.name} {o.seconds:.2f}" for o in outcomes), file=sys.stderr)
    return {k: metric(v, END_TO_END_UNITS[k]) for k, v in values.items()}


def traced(pvzeta, workload, seed, out_path, tally):
    _, import_s, inputs_s = measure_setup(workload, seed)
    ops = workloads.build(workload, seed)
    plain_s, plain = run_pass(pvzeta, ops, out_path)
    for o in plain:
        tally.add(o)
    trace = tracing.Tracer()
    trace.install(pvzeta)
    try:
        traced_s, outcomes = run_pass(pvzeta, ops, out_path, trace=trace)
    finally:
        trace.uninstall()
    for o, ref in zip(outcomes, plain):
        tally.add(o, ref.rows)
    values, summary = trace.layer_metrics(sum(o.warnings for o in outcomes))
    missed = [name for name in tracing.EXPECTED[workload] if summary["calls"].get(name, 0) == 0]
    if missed:
        tally.correct = False
        tally.notes.append(f"trace: wrappers that never fired on {workload}: {', '.join(missed)}")
    values.update({
        "setup.import_s": import_s,
        "setup.inputs_s": inputs_s,
        "trace.spans": summary["spans"],
        "trace.overhead_s": traced_s - plain_s,
        "checks_failed_frac": tally.failed / tally.attempted,
    })
    path = OUT_DIR / f"trace-{workload}-seed{seed}.npz"
    np.savez(path, names=np.array(trace.names), operations=np.array([op.name for op in ops]), **trace.columns())
    print(f"{workload}: untraced {plain_s:.3f} s, traced {traced_s:.3f} s, "
          f"span self times sum to {summary['total_self_s']:.3f} s; spans written to {path}", file=sys.stderr)
    units = dict(tracing.LAYER_METRICS, **RUNNER_LAYER_METRICS)
    return {k: metric(values[k], units[k][0]) for k in units}


def run_all(args):
    """Every workload in its own process (peak memory is per process);
    prints one table and a combined JSON line."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"{workload}: benchmark exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = m
            print(f"{workload:10s} {name:40s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(merged))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description="pvzeta benchmark")
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        pvzeta = import_pvzeta()
    except ImportError as exc:
        print(f"cannot import pvzeta from this checkout: {exc}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    tally = Tally()
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        out_path = os.path.join(tmp, "report.jsonl")
        if args.trace:
            metrics = traced(pvzeta, args.workload, args.seed, out_path, tally)
        else:
            metrics = end_to_end(pvzeta, args.workload, args.seed, args.seconds, out_path, tally)
    for note in tally.notes:
        print(f"failed: {note}", file=sys.stderr)
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
