"""Batch verification front end.

Subcommands map to the module-level checks; every run emits one record
per CheckReport (JSON lines by default, CSV as a projection), sorted by
check id and then by the parameter record, so identical configurations
produce byte-identical report files.

Exit codes: 0 when every check passes, 2 when any check fails, 1 on a
configuration or execution error.  A configuration error writes no
report.  A subcommand that raises any other PVZetaError reports one row
with status "error" instead of its checks; a suite runs its entries (the
SUITES table) one by one, so there an entry that raises becomes that row
and the other entries still run.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import os
import sys

import numpy as np

from . import funceq, heatflow, homog, phspace, symbolkern, testfn, zeta
from .errors import ConfigError, PVZetaError
from .report import CheckReport, sort_reports

TOL_DIR_ENV = "PVZETA_TOL_DIR"

_FORMATS = ("json-lines", "csv")

# The flags of every subcommand, declared once: they build the parser and
# are the keys a config file may set.  Each flag defaults to None.
_COMMON_FLAGS = {
    "--format": {"choices": _FORMATS}, "--out": {}, "--seed": {"type": int}, "--tol": {"type": float},
    "--config": {"help": "flat key=value config file"},
}
_SUBCOMMANDS = {
    "zeta": ("zeta integral evaluation and continuation checks", {
        "--space": {}, "--component": {},
        "--s": {"help": "comma-separated s values, complex ones as -1.35+0.2j"},
        "--testfn": {},
        "--check": {"choices": ("value", "overlap", "residue", "montecarlo")},
        "--k": {"help": "comma-separated pole orders for --check residue"},
    }),
    "funceq": ("functional equation checks", {
        "--eq": {"choices": ("12", "12a", "22")},
        "--s": {},
        "--testfn": {"help": "semicolon-separated test-function specs"},
        "--convention": {"choices": ("auto", "twopi", "angular", "angular-normalized")},
        "--variant": {"choices": ("printed", "corrected")}, "--q": {"type": int}, "--mc-samples": {},
    }),
    "homog": ("homogeneous distribution checks", {
        "--check": {"choices": ("homogeneity", "tplus-int", "extension", "ambiguity")},
        "--s": {"help": "comma-separated degrees"},
        "--lam": {"help": "comma-separated scale factors"},
        "--testfn": {},
    }),
    "probe": ("symbol and kernel probes", {
        "--what": {"choices": ("symbol-decay", "scaling", "kernel", "integrability")},
        "--t": {}, "--variant": {"choices": heatflow.VARIANTS}, "--m": {},
        "--alphas": {"help": "number of random scale factors"},
    }),
    "heat": ("heat semigroup checks", {
        "--check": {"choices": ("semigroup", "generator", "lacunary", "bounds", "funceq", "kernel")},
        "--t": {}, "--s": {"help": "comma-separated semigroup times, or zeta arguments for funceq (complex as 0.45+0.2j)"},
        "--x": {}, "--variant": {"choices": heatflow.VARIANTS}, "--dump-profile": {},
    }),
    "suite": ("named batch suites", {"name": {"nargs": "?"}}),
}


class RunConfig:
    """Validated run description: subcommand plus a typed parameter map.
    Unknown keys are rejected with the offending key named."""

    def __init__(self, subcommand, params):
        if subcommand not in _SUBCOMMANDS:
            raise ConfigError(f"unknown subcommand {subcommand!r}")
        # argparse's names: --mc-samples is the key mc_samples
        allowed = {f.lstrip("-").replace("-", "_") for f in (*_SUBCOMMANDS[subcommand][1], *_COMMON_FLAGS)}
        for key in params:
            if key not in allowed:
                raise ConfigError(f"unknown config key {key!r} for subcommand {subcommand!r}")
        fmt = params.get("format") or "json-lines"
        if fmt not in _FORMATS:
            raise ConfigError(f"unknown output format {fmt!r}")
        self.subcommand = subcommand
        self.params = dict(params)
        self.format = fmt
        self.out = params.get("out")
        self.seed = params.get("seed")
        self.tol = params.get("tol")

    def get(self, key, default=None):
        v = self.params.get(key)
        return default if v is None else v

    def require_seed(self, why):
        if self.seed is None:
            raise ConfigError(f"--seed is required: {why}")
        return int(self.seed)


def load_config_file(path, normalize=True):
    """Flat key=value file; '#' starts a comment; empty lines ignored.
    normalize maps dashes to underscores so keys match CLI flag names;
    tolerance files keep their check ids verbatim."""
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                key, sep, val = line.partition("=")
                if not sep:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
                key = key.strip()
                values[key.replace("-", "_") if normalize else key] = val.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


def _tol_overrides(subcommand):
    """Per-check tolerance overrides from $PVZETA_TOL_DIR/<subcommand>.tol
    (same flat key=value format, keyed by check id)."""
    directory = os.environ.get(TOL_DIR_ENV)
    if not directory:
        return {}
    path = os.path.join(directory, f"{subcommand}.tol")
    if not os.path.exists(path):
        return {}
    return {k: float(v) for k, v in load_config_file(path, normalize=False).items()}


def _tol(overrides, check_id, flag_tol):
    """{"tol": value} when --tol or the override file sets a tolerance for
    check_id, else {}: the library check then keeps its own default."""
    if flag_tol is not None:
        return {"tol": float(flag_tol)}
    if check_id in overrides:
        return {"tol": overrides[check_id]}
    return {}


def _numbers(text, kind, what):
    if text is None or str(text).strip() == "":
        return []
    try:
        return [kind(v) for v in str(text).split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated {what}, got {text!r}") from exc


def _floats(text):
    return _numbers(text, float, "real numbers")


def _s_values(text):
    """Values of --s: complex where the text has a 'j' (such as
    -1.35+0.2j), real otherwise, so real rows keep their bytes."""
    return _numbers(text, lambda v: complex(v) if "j" in v else float(v), "real or complex numbers")


def _ints(text):
    return _numbers(text, int, "integers")


def _number(cfg, key, default, parse=_floats):
    """The one number a flag holds, parsed by _floats or _ints."""
    values = parse(cfg.get(key, default))
    if len(values) != 1:
        raise ConfigError(f"--{key.replace('_', '-')} takes one number, got {cfg.get(key)!r}")
    return values[0]


def _testfns(text):
    return [testfn.parse_testfn(spec.strip()) for spec in str(text).split(";") if spec.strip()]


def _resolve_convention(eq, convention, s_list, phis, q):
    if convention != "auto":
        return convention
    cal = funceq.calibrate_convention(str(eq), s_list[:2] or [0.5], phis[:1], q=q)
    return cal["selected"][0]


# ---------------------------------------------------------------------------
# Subcommand runners: each parses its flags and returns the CheckReports
# of the library checks they select; the rows are built in the library


def run_zeta(cfg):
    ov = _tol_overrides("zeta")
    space = phspace.parse_space(cfg.get("space", "scalar1d"))
    phi = testfn.parse_testfn(cfg.get("testfn", "gaussian:a=3.14159,n=1"))
    s_list = _s_values(cfg.get("s", "0.5"))
    which = cfg.get("check", "value")
    reports = []
    if which == "residue":
        # the residues are taken at the poles s = -k, so --s plays no part
        for k in _ints(cfg.get("k", "1,2,3")):
            reports.append(zeta.check_mellin_residue(phi, 1.0, k, **_tol(ov, "mellin-residue", cfg.tol)))
    for s in s_list:
        if which == "value":
            tol = _tol(ov, "zeta-eval", cfg.tol).get("tol", 1e-8)
            reports.append(zeta.check_zeta_eval(space, cfg.get("component", space.components[0]), s, phi, tol))
        elif which == "overlap":
            reports.append(zeta.check_mellin_overlap(phi, 1.0, s, **_tol(ov, "mellin-overlap", cfg.tol)))
        elif which == "montecarlo":
            seed = cfg.require_seed("the Monte-Carlo oracle is randomized")
            comp = cfg.get("component", space.components[0])
            reports.append(zeta.check_zeta_montecarlo(space, comp, s, phi, 10_000_000, seed))
        elif which != "residue":
            raise ConfigError(f"unknown zeta check {which!r}")
    return reports


def run_funceq(cfg):
    ov = _tol_overrides("funceq")
    eq = str(cfg.get("eq", "12"))
    s_list = _s_values(cfg.get("s", ""))
    phis = _testfns(cfg.get("testfn", "gaussian:a=3.14159,n=1" if eq == "12" else "gaussian:a=3.14159,n=3"))
    if not phis:
        raise ConfigError(f"--testfn names no test function: {cfg.get('testfn')!r}")
    variant = cfg.get("variant", "corrected")
    q = _number(cfg, "q", 1, _ints)
    mc = None if cfg.get("mc_samples") is None else _number(cfg, "mc_samples", None, _ints)
    if mc is not None and mc < 2:
        raise ConfigError(f"--mc-samples takes a count of at least 2, got {mc}")
    if mc is not None and eq in ("12", "12a"):
        raise ConfigError(f"--mc-samples adds the Monte-Carlo rows of --eq 22 and has no rows for --eq {eq}")
    reports = []
    if not s_list:
        return reports
    if eq == "12":
        conv = _resolve_convention(eq, cfg.get("convention", "auto"), s_list, phis, q)
        tol = _tol(ov, "funceq-eq12", cfg.tol)
        for s in s_list:
            for phi in phis:
                reports.append(funceq.check_eq12(s, phi, conv, **tol))
    elif eq == "12a":
        B = np.eye(phis[0].n)
        conv = _resolve_convention(eq, cfg.get("convention", "auto"), s_list, phis, q)
        tol = _tol(ov, "funceq-eq12a", cfg.tol)
        for s in s_list:
            for phi in phis:
                reports.append(funceq.check_eq12a(s, B, phi, conv, variant=variant, **tol))
    elif eq == "22":
        space = phspace.indefinite(q=q, n=phis[0].n)
        conv = _resolve_convention(eq, cfg.get("convention", "auto"), s_list, phis, q)
        tol = _tol(ov, "funceq-eq22", cfg.tol)
        for s in s_list:
            for phi in phis:
                reports.append(funceq.check_eq22(s, space.Bmat, phi, conv, q=q, **tol))
        if mc is not None:
            seed = cfg.require_seed("the Monte-Carlo oracle is randomized")
            for s in s_list:
                for phi in phis:
                    for comp in space.components:
                        reports.append(zeta.check_zeta_montecarlo(space, comp, s, phi, mc, seed))
    else:
        raise ConfigError(f"unknown equation id {eq!r}")
    return reports


def _default_density():
    return homog.homog_density(-1.0, lambda x: 1.0 / np.abs(x), n=1, label="|m|^-1")


def run_homog(cfg):
    ov = _tol_overrides("homog")
    which = cfg.get("check", "tplus-int")
    reports = []
    if which == "tplus-int":
        reports.append(homog.check_tplus_int(**_tol(ov, "homog-tplus-int", cfg.tol)))
    elif which == "homogeneity":
        tol = _tol(ov, "homog-homogeneity", cfg.tol)
        phi = testfn.parse_testfn(cfg.get("testfn", "gaussian:a=3.14159,n=1"))
        degrees = _floats(cfg.get("s", "-0.5,0.3,-1.7"))
        lams = _floats(cfg.get("lam", "0.5,2.0"))
        for s in degrees:
            for lam in lams:
                reports.append(homog.check_homogeneity(s, phi, lam, **tol))
    elif which == "extension":
        tol = _tol(ov, "homog-extension-restricts", cfg.tol)
        phi = testfn.parse_testfn(cfg.get("testfn", "bump:c=3,r=1,n=1"))
        reports.append(homog.check_extension_restricts(_default_density(), homog.make_cutoff(0.5, 2.0), phi, **tol))
    elif which == "ambiguity":
        tol = _tol(ov, "homog-ambiguity", cfg.tol)
        specs = cfg.get("testfn", "gaussian:a=0.5,n=1;gaussian:a=1,n=1;gaussian:a=2,n=1;gaussian:a=3.14159,n=1;gaussian:a=4,n=1")
        phis = _testfns(specs)
        reports.append(
            homog.check_ambiguity(_default_density(), homog.make_cutoff(0.5, 2.0), homog.make_cutoff(1.0, 4.0), phis, **tol)
        )
    else:
        raise ConfigError(f"unknown homog check {which!r}")
    return reports


def run_probe(cfg):
    ov = _tol_overrides("probe")
    what = cfg.get("what", "symbol-decay")
    t = _number(cfg, "t", 0.1)
    variant = cfg.get("variant", "corrected")
    f = heatflow.heat_group_function(t, variant)
    space = phspace.scalar1d()
    m = _number(cfg, "m", 1.0)
    reports = []
    if what == "symbol-decay":
        reports.append(symbolkern.check_symbol_decay(f, space, m))
    elif what == "scaling":
        tol = _tol(ov, "symbol-scaling", cfg.tol).get("tol", 1e-9)
        seed = cfg.require_seed("the scaling sweep draws random factors")
        count = _number(cfg, "alphas", 50, _ints)
        if count < 1:
            raise ConfigError("--alphas must be at least 1")
        reports.append(symbolkern.scaling_sweep(f, space, m, count, seed, tol))
    elif what == "kernel":
        tol = _tol(ov, "kernel-vs-heat", cfg.tol).get("tol", 1e-7)
        reports.append(heatflow.kernel_vs_heat_check(t, variant, tol))
    elif what == "integrability":
        reports.append(symbolkern.local_integrability_check(f))
    else:
        raise ConfigError(f"unknown probe {what!r}")
    return reports


def run_heat(cfg):
    ov = _tol_overrides("heat")
    which = cfg.get("check", "semigroup")
    variant = cfg.get("variant", "corrected")
    ts = _floats(cfg.get("t", "0.5"))
    # --s is a time for the semigroup and a zeta argument, maybe complex, for funceq
    ss = (_s_values if which == "funceq" else _floats)(cfg.get("s", "0.5"))
    xs = _floats(cfg.get("x", "0.5,1.0,2.0"))
    phi = heatflow.log_gaussian(1.0)
    reports = []
    if which == "bounds" and ts:
        # one call over the whole t grid, so the growth-rate fit sees every t
        tol = _tol(ov, "heat-langlands-bounds", cfg.tol)
        reports.append(heatflow.langlands_bounds_check(ts, (0.5, 1.0), variant=variant, **tol))
    for t in ts:
        if which == "semigroup":
            tol = _tol(ov, "heat-semigroup", cfg.tol)
            for s in ss:
                reports.append(heatflow.semigroup_check(t, s, phi, xs, variant=variant, **tol))
        elif which == "generator":
            tol = _tol(ov, "heat-generator", cfg.tol)
            for x in xs:
                reports.append(heatflow.generator_check(t, phi, x, variant=variant, **tol))
        elif which == "lacunary":
            tol = _tol(ov, "heat-lacunary", cfg.tol)
            reports.append(heatflow.lacunary_check(t, variant=variant, **tol))
        elif which == "funceq":
            tol = _tol(ov, "heat-diagonal-funceq", cfg.tol)
            for s in ss:
                reports.append(heatflow.diagonal_funceq(t, s, testfn.parse_testfn("gaussian:a=3.14159,n=1"), variant=variant, **tol))
        elif which == "kernel":
            tol = _tol(ov, "heat-kernel-identity", cfg.tol)
            pts = [(x, y) for x in (0.5, 1.0, 2.0) for y in (0.25, 1.0, 3.0)]
            reports.append(heatflow.kernel_identity_check(t, pts, variant=variant, **tol))
        elif which != "bounds":
            raise ConfigError(f"unknown heat check {which!r}")
    dump = cfg.get("dump_profile")
    if dump:
        xs_grid = np.linspace(0.05, 5.0, 100)
        with open(dump, "w", newline="", encoding="utf-8") as fh:
            wr = csv.writer(fh)
            wr.writerow(["t", "x", "St_phi"])
            scale = heatflow.variant_scale(variant)
            for t in ts:
                for x in xs_grid:
                    wr.writerow([repr(float(t)), repr(float(x)), repr(float(np.real(scale * heatflow.apply(t, phi, float(x)))))])
    return reports


# ---------------------------------------------------------------------------
# Suites: entries are (subcommand, params) runs through the runners above,
# or (check id, function of the seed) for rows no subcommand emits


def _integrability_refined(seed):
    # two more dyadic levels than the probe
    return [symbolkern.local_integrability_check(heatflow.heat_group_function(0.1), levels=8)]


def _invariance_sweep(spec):
    return lambda seed: [phspace.invariance_sweep(phspace.parse_space(spec), 50, seed)]


_GAUSS1 = "gaussian:a=3.14159,n=1"

_QUICK = (
    # scalar functional equation under the calibrated convention
    ("funceq", {"eq": "12", "s": "0.4,0.5,0.6", "testfn": f"{_GAUSS1};hermite:d=2,a=3.14159,n=1"}),
    # continuation consistency
    ("zeta", {"check": "overlap", "s": "0.3", "testfn": _GAUSS1}),
    ("zeta", {"check": "residue", "k": "1,2,3", "testfn": _GAUSS1}),
    # homogeneous distributions
    ("homog", {"check": "tplus-int"}),
    ("homog", {"check": "homogeneity", "s": "-0.5,0.3,-1.7", "lam": "2.0", "testfn": _GAUSS1}),
    ("homog", {"check": "extension"}),
    ("homog", {"check": "ambiguity"}),
    # heat flow
    ("heat", {"check": "semigroup", "t": "0.5", "s": "0.5", "x": "0.5,1.0,2.0"}),
    ("heat", {"check": "generator", "t": "0.5", "x": "1.0"}),
    ("heat", {"check": "lacunary", "t": "0.1"}),
    ("heat", {"check": "kernel", "t": "0.1"}),
    ("heat", {"check": "bounds", "t": "0.25,1.0"}),
    # symbols
    ("probe", {"what": "symbol-decay", "t": "0.1", "m": "1.0"}),
    ("probe", {"what": "scaling", "t": "0.1", "alphas": "10"}),
    ("probe", {"what": "integrability", "t": "0.1"}),
    # relative invariance (1D)
    ("relative-invariance", _invariance_sweep("scalar1d")),
)

SUITES = {
    "quick": _QUICK,
    "full": _QUICK
    + (
        # 3D functional equations
        ("funceq", {"eq": "12a", "s": "0.3,0.7,1.1", "convention": "twopi"}),
        ("funceq", {"eq": "22", "s": "0.2,0.4", "convention": "twopi", "q": "1"}),
        ("zeta", {"check": "montecarlo", "space": "indefinite:q=1,n=3", "component": "plus", "s": "0.2", "testfn": "gaussian:a=3.14159,n=3"}),
        ("kernel-integrability", _integrability_refined),
        # invariance on the quadratic kinds
        ("relative-invariance", _invariance_sweep("definite:n=3")),
        ("relative-invariance", _invariance_sweep("indefinite:q=1,n=3")),
    ),
}


def _guarded(check, params, produce, arg):
    """The reports of produce(arg), or, when it raises a PVZetaError other
    than a ConfigError, the one error row of check with params."""
    try:
        return produce(arg)
    except ConfigError:
        raise
    except PVZetaError as exc:
        return [CheckReport.error(check, params, exc)]


def run_suite(cfg):
    name = cfg.get("name")
    if name not in SUITES:
        raise ConfigError(f"unknown suite name {name!r}")
    if cfg.tol is not None:
        # one tolerance cannot fit every row of a suite
        raise ConfigError(f"--tol does not apply to a suite; set per-check tolerances in ${TOL_DIR_ENV}/<subcommand>.tol")
    seed = int(cfg.seed) if cfg.seed is not None else 0
    reports = []
    for key, spec in SUITES[name]:
        params = {"seed": seed} if callable(spec) else {**spec, "seed": seed}
        produce, arg = (spec, seed) if callable(spec) else (_RUNNERS[key], RunConfig(key, params))
        reports.extend(_guarded(key, params, produce, arg))
    return reports


_RUNNERS = {
    "zeta": run_zeta,
    "funceq": run_funceq,
    "homog": run_homog,
    "probe": run_probe,
    "heat": run_heat,
    "suite": run_suite,
}


# ---------------------------------------------------------------------------
# Emission and entry point


def emit(reports, fmt, out):
    reports = sort_reports(reports)
    buf = io.StringIO()
    if fmt == "csv":
        wr = csv.writer(buf, lineterminator="\n")
        wr.writerow(CheckReport.CSV_HEADER)
        for rep in reports:
            wr.writerow(rep.csv_row())
    else:
        for rep in reports:
            buf.write(rep.to_json())
            buf.write("\n")
    text = buf.getvalue()
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    npass = sum(1 for r in reports if r.passed)
    print(f"{npass}/{len(reports)} checks passed", file=sys.stderr)
    return reports


def run(config):
    """Execute a validated RunConfig; returns (exit_status, reports)."""
    key = config.subcommand
    # an error row keeps the flags that shape the checks, not where they go
    params = {k: v for k, v in config.params.items() if k not in ("format", "out", "config")}
    reports = _guarded(key, params, _RUNNERS[key], config)
    reports = emit(reports, config.format, config.out)
    statuses = {r.status for r in reports}
    if "error" in statuses:
        return 1, reports
    if "fail" in statuses:
        return 2, reports
    return 0, reports


@functools.cache
def _build_parser():
    # built once per process: parse_args leaves no state in the parser
    parser = argparse.ArgumentParser(prog="pvzeta", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, flags) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, kw in (flags | _COMMON_FLAGS).items():
            p.add_argument(flag, default=None, **kw)
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        params = {k: v for k, v in vars(ns).items() if k != "subcommand"}
        if params.get("config"):
            file_values = load_config_file(params["config"])
            for key, val in file_values.items():
                if key == "subcommand":
                    raise ConfigError("the subcommand cannot be set from a config file")
                if params.get(key) is None:
                    params[key] = val
        params = {k: v for k, v in params.items() if v is not None}
        config = RunConfig(ns.subcommand, params)
        status, _ = run(config)
        return status
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
