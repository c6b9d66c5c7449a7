"""External tracer for the pvzeta benchmark.

The tracer wraps pvzeta from the outside at run time and changes no
library file.  Each wrapper records a span (name, start, end, parent
span, and the operation it belongs to) in compact in-memory columns; the
spans are summarized, and written out, after the traced pass ends.

What is wrapped:

* every public function of the library modules, looked up by callers as
  a module attribute at call time (``quad.integrate_1d`` and so on), and
  every other module's binding of the same function object (such as the
  ``sort_reports`` that ``cli`` imports by name);
* the ``__call__`` of the test-function and profile classes, all under
  the one span name ``testfn.eval``;
* ``HomogFunctional.direct_pair`` and ``CheckReport.to_json``;
* the ``H`` returned by ``SignatureGeometry.angular_profile``;
* the evaluators of a numerically computed Fourier transform.

A span's self time is its duration minus the durations of its direct
children.  Calls are single-threaded and strictly nested, so the self
times of all spans add up to the durations of the root spans.
"""

from __future__ import annotations

import inspect
import time
from array import array

import numpy as np

MODULES = ("quad", "special", "testfn", "phspace", "zeta", "funceq", "homog", "symbolkern", "heatflow", "report", "cli")

EVAL_CLASSES = (
    ("testfn", "TestFunction"),
    ("testfn", "PolyGauss1D"),
    ("testfn", "NumericProfile"),
    ("heatflow", "LogTestFunction"),
    ("homog", "ExpProfile"),
    ("homog", "ScaledProfile"),
)

# Spans each workload must record at least once.  A wrapper that never
# fires where it should means a binding the tracer missed, and would
# otherwise show up as a silent zero.
EXPECTED = {
    "nested-1d": (
        "quad.integrate_1d",
        "testfn.eval",
        "homog.tplus_profile",
        "homog.extend_kdot",
        "homog.direct_pair",
        "heatflow.apply",
        "cli.main",
        "report.to_json",
    ),
    "zeta-3d": (
        "quad.integrate_1d",
        "quad.angular_profile",
        "quad.radial_power_integral",
        "quad.monte_carlo_signature",
        "testfn.eval",
        "testfn.fourier",
        "zeta.mellin_profile",
        "zeta.zeta_local",
        "funceq.check_eq12a",
        "funceq.check_eq22",
        "special.gamma",
        "cli.main",
        "report.to_json",
    ),
    "sweep-1d": (
        "quad.integrate_1d",
        "quad.panel_integral",
        "testfn.eval",
        "testfn.fourier",
        "testfn.fourier.eval",
        "zeta.mellin_profile",
        "funceq.calibrate_convention",
        "special.gamma",
        "homog.tplus_profile",
        "heatflow.fhat_many",
        "symbolkern.atilde_numeric",
        "phspace.check_relative_invariance",
        "cli.main",
        "report.to_json",
        "report.sort_reports",
    ),
}

# Per-layer metrics: name -> (unit, better).  Counts of ``.points`` are
# computed from array sizes and carry the unit "computed-count".
LAYER_METRICS = {
    "quad.integrate_1d.calls": ("count", "lower"),
    "quad.integrate_1d.evals": ("count", "lower"),
    "quad.integrate_1d.evals_per_call": ("evals/call", "lower"),
    "quad.integrate_1d.self_s": ("s", "lower"),
    "quad.angular_profile.calls": ("count", "lower"),
    "quad.angular_profile.points": ("computed-count", "lower"),
    "quad.angular_profile.self_s": ("s", "lower"),
    "quad.radial_power_integral.calls": ("count", "lower"),
    "quad.radial_power_integral.depth_max": ("levels", "lower"),
    "quad.radial_power_integral.self_s": ("s", "lower"),
    "quad.panel_integral.calls": ("count", "lower"),
    "quad.panel_integral.evals": ("count", "lower"),
    "quad.panel_integral.self_s": ("s", "lower"),
    "quad.monte_carlo_signature.samples": ("count", "lower"),
    "quad.monte_carlo_signature.self_s": ("s", "lower"),
    "quad.warnings": ("count", "lower"),
    "quad.nonconvergence": ("count", "lower"),
    "quad.self_s": ("s", "lower"),
    "testfn.eval.calls": ("count", "lower"),
    "testfn.eval.points": ("computed-count", "lower"),
    "testfn.eval.self_s": ("s", "lower"),
    "testfn.fourier.calls": ("count", "lower"),
    "testfn.fourier.self_s": ("s", "lower"),
    "testfn.self_s": ("s", "lower"),
    "zeta.mellin_profile.calls": ("count", "lower"),
    "zeta.mellin_profile.depth_sum": ("levels", "lower"),
    "zeta.mellin_profile.self_s": ("s", "lower"),
    "zeta.zeta_local.calls": ("count", "lower"),
    "zeta.zeta_local.self_s": ("s", "lower"),
    "zeta.self_s": ("s", "lower"),
    "funceq.self_s": ("s", "lower"),
    "funceq.calibrate_convention.calls": ("count", "lower"),
    "special.gamma.calls": ("count", "lower"),
    "special.self_s": ("s", "lower"),
    "homog.tplus_profile.calls": ("count", "lower"),
    "homog.tplus_profile.self_s": ("s", "lower"),
    "homog.extend_kdot.calls": ("count", "lower"),
    "homog.extend_kdot.self_s": ("s", "lower"),
    "homog.direct_pair.self_s": ("s", "lower"),
    "homog.self_s": ("s", "lower"),
    "heatflow.apply.calls": ("count", "lower"),
    "heatflow.apply.nested_calls": ("count", "lower"),
    "heatflow.apply.self_s": ("s", "lower"),
    "heatflow.fhat_many.calls": ("count", "lower"),
    "heatflow.fhat_many.points": ("computed-count", "lower"),
    "heatflow.fhat_many.self_s": ("s", "lower"),
    "heatflow.self_s": ("s", "lower"),
    "symbolkern.atilde_numeric.calls": ("count", "lower"),
    "symbolkern.self_s": ("s", "lower"),
    "phspace.self_s": ("s", "lower"),
    "report.rows": ("count", "higher"),
    "report.bytes": ("B", "lower"),
    "report.serialize_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "bench.self_s": ("s", "lower"),
}


class Tracer:
    """Span recorder; `install` wraps the library, `uninstall` restores it."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.operation_col = array("i")
        self.start = array("d")
        self.end = array("d")
        self.operation = -1
        self.counts = {}
        self._stack = []
        self._patched = []
        self._errors = []
        self._nonconvergence = None

    # -- recording -------------------------------------------------------

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + amount

    def span(self, name, fn, before=None, after=None):
        """Wrap fn so that each call records one span named `name`.
        `before(args, kwargs)` and `after(result, args, kwargs)` update
        counters outside the timed interval."""
        nid = self._id(name)
        names, parents, ops, starts, ends = self.name, self.parent, self.operation_col, self.start, self.end
        stack = self._stack
        clock = time.perf_counter
        count_error = name.startswith("quad.")
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.operation)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if count_error:
                    tracer._note_error(exc)
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(out, args, kwargs)
            return out

        return wrapper

    def _note_error(self, exc):
        if isinstance(exc, self._nonconvergence) and not any(e is exc for e in self._errors):
            self._errors.append(exc)
            self.add("quad.nonconvergence", 1)

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self, pvzeta):
        self._nonconvergence = pvzeta.NonConvergence
        mods = {m: getattr(pvzeta, m) for m in MODULES}
        wrapped = {}
        for modname, mod in mods.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                wrapped[obj] = self.span(f"{modname}.{attr}", obj, *self._hooks(f"{modname}.{attr}"))
        for mod in (pvzeta, *mods.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(mod, attr, wrapped[obj])

        def count_points(args, kwargs):
            self.add("testfn.eval.points", np.size(args[1]) // getattr(args[0], "n", 1))

        for modname, clsname in EVAL_CLASSES:
            cls = getattr(mods[modname], clsname)
            self._patch(cls, "__call__", self.span("testfn.eval", vars(cls)["__call__"], before=count_points))

        homog_fn = mods["homog"].HomogFunctional
        self._patch(homog_fn, "direct_pair", self.span("homog.direct_pair", vars(homog_fn)["direct_pair"]))

        def count_row(out, args, kwargs):
            self.add("report.rows", 1)
            self.add("report.bytes", len(out) + 1)  # json-lines adds one newline

        report_cls = mods["report"].CheckReport
        self._patch(report_cls, "to_json", self.span("report.to_json", vars(report_cls)["to_json"], after=count_row))

        geom_cls = mods["quad"].SignatureGeometry
        original_profile = vars(geom_cls)["angular_profile"]

        def angular_profile(geom, g, decay_rate):
            def counted(pts):
                pts = np.asarray(pts)
                self.add("quad.angular_profile.points", pts.size // pts.shape[-1])
                return g(pts)

            return self.span("quad.angular_profile", original_profile(geom, counted, decay_rate))

        self._patch(geom_cls, "angular_profile", angular_profile)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _hooks(self, name):
        """(before, after) counter hooks for the functions whose metrics
        need more than a call count."""

        def evals(out, args, kwargs):
            self.add(f"{name}.evals", out.evaluations)

        def depth(args, kwargs):
            key = "quad.radial_power_integral.depth_max"
            self.counts[key] = max(self.counts.get(key, 0), kwargs.get("depth", 0))

        def samples(args, kwargs):
            self.add("quad.monte_carlo_signature.samples", int(args[5] if len(args) > 5 else kwargs["nsamples"]))

        def continuation(out, args, kwargs):
            self.add("zeta.mellin_profile.depth_sum", out.continuation_order)

        def chis(args, kwargs):
            self.add("heatflow.fhat_many.points", np.size(args[1] if len(args) > 1 else kwargs["chis"]))

        def numeric_fourier(out, args, kwargs):
            # closed-form transforms cost nothing further; a numeric one does
            # its work later, whenever the returned function is evaluated
            if args[0].has_closed_fourier:
                return
            out._eval = self.span("testfn.fourier.eval", out._eval)
            make_ray = out._ray

            def ray(direction):
                prof = make_ray(direction)
                prof.fn = self.span("testfn.fourier.eval", prof.fn)
                return prof

            out._ray = ray

        return {
            "quad.integrate_1d": (None, evals),
            "quad.panel_integral": (None, evals),
            "quad.radial_power_integral": (depth, None),
            "quad.monte_carlo_signature": (samples, None),
            "zeta.mellin_profile": (None, continuation),
            "heatflow.fhat_many": (chis, None),
            "testfn.fourier": (None, numeric_fourier),
        }.get(name, (None, None))

    # -- summary ---------------------------------------------------------

    def columns(self):
        return {
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "operation": np.array(self.operation_col, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def summary(self):
        """Per span name: call count and summed self time; also the total
        self time and the number of nested heatflow.apply calls."""
        c = self.columns()
        n_names = len(self.names)
        dur = c["end"] - c["start"]
        has_parent = c["parent"] >= 0
        child = np.bincount(c["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - child
        calls = np.bincount(c["name"], minlength=n_names)
        self_by_name = np.bincount(c["name"], weights=self_time, minlength=n_names)
        nested = 0
        if "heatflow.apply" in self._ids:
            apply_id = self._ids["heatflow.apply"]
            for idx in np.flatnonzero(c["name"] == apply_id):
                p = c["parent"][idx]
                while p >= 0 and c["name"][p] != apply_id:
                    p = c["parent"][p]
                nested += int(p >= 0)
        return {
            "calls": {nm: int(calls[i]) for i, nm in enumerate(self.names)},
            "self_s": {nm: float(self_by_name[i]) for i, nm in enumerate(self.names)},
            "total_self_s": float(self_time.sum()),
            "spans": int(dur.size),
            "nested_apply": nested,
        }

    def layer_metrics(self, warnings_count):
        """Values of every LAYER_METRICS entry except those the runner
        owns (setup, trace, checks_failed_frac)."""
        s = self.summary()
        calls, self_s = s["calls"], s["self_s"]

        def own(name):
            return self_s.get(name, 0.0)

        def layer(prefix):
            return sum(v for k, v in self_s.items() if k.startswith(prefix + "."))

        out = {}
        for key in LAYER_METRICS:
            base, _, kind = key.rpartition(".")
            if kind == "calls":
                out[key] = calls.get(base, 0)
            elif kind == "self_s":
                out[key] = own(base) if "." in base else layer(base)
            else:
                out[key] = self.counts.get(key, 0)
        out["quad.integrate_1d.evals_per_call"] = out["quad.integrate_1d.evals"] / max(out["quad.integrate_1d.calls"], 1)
        out["quad.warnings"] = warnings_count
        out["testfn.fourier.self_s"] += own("testfn.fourier.eval")
        out["heatflow.apply.nested_calls"] = s["nested_apply"]
        out["report.serialize_s"] = layer("report")
        return out, s
