"""Batch verification front end.

Subcommands map to the module-level checks; every run emits one record
per CheckReport (JSON lines by default, CSV as a projection), sorted by
check id and then by the parameter record, so identical configurations
produce byte-identical report files.

Exit codes: 0 when every check passes, 2 when any check fails, 1 on a
configuration or execution error.  A configuration error writes no
report, whether it comes from a flag, a config file or a suite entry: an
unknown flag or subcommand, a value outside a flag's choices (argparse
takes the flag names only; RunConfig checks every value, once), a --space
or --testfn spec with an unknown family or key, a --component that the
space lacks, a number that does not parse or is not finite, or a file
that cannot be read or written.  A subcommand that raises any other
PVZetaError reports one row with status "error" instead of its checks; a
suite runs its entries (the SUITES table of subcommands with their flags)
one by one, so there an entry that raises becomes that row and the other
entries still run.  Eq12a and Eq22 take B from each test function.
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

# The flags of every subcommand, declared once: their names build the
# parser and are the keys a config file may set, and RunConfig holds every
# value to the flag's choices.  Each flag defaults to None.
_COMMON_FLAGS = {
    "--format": {"choices": ("json-lines", "csv")}, "--out": {}, "--seed": {}, "--tol": {},
    "--config": {"help": "flat key=value config file"},
}
_SUBCOMMANDS = {
    "zeta": ("zeta integral evaluation and continuation checks", {
        "--space": {}, "--component": {},
        "--s": {"help": "comma-separated s values, complex ones as -1.35+0.2j"},
        "--testfn": {},
        "--check": {"choices": ("value", "overlap", "residue", "montecarlo", "invariance")},
        "--k": {"help": "comma-separated pole orders for --check residue"},
    }),
    "funceq": ("functional equation checks", {
        "--eq": {"choices": ("12", "12a", "22")},
        "--s": {},
        "--testfn": {"help": "semicolon-separated test-function specs"},
        "--convention": {"choices": ("auto", *(c.value for c in testfn.FourierConvention))},
        "--variant": {"choices": funceq.VARIANTS}, "--q": {}, "--mc-samples": {},
    }),
    "homog": ("homogeneous distribution checks", {
        "--check": {"choices": ("homogeneity", "tplus-int", "extension", "ambiguity")},
        "--s": {"help": "comma-separated degrees"},
        "--lam": {"help": "comma-separated scale factors"},
        "--testfn": {},
    }),
    "probe": ("symbol and kernel probes", {
        "--what": {"choices": ("symbol-decay", "scaling", "kernel", "integrability")},
        "--t": {}, "--variant": {"choices": funceq.VARIANTS}, "--m": {},
        "--alphas": {"help": "number of random scale factors"},
    }),
    "heat": ("heat semigroup checks", {
        "--check": {"choices": ("semigroup", "generator", "lacunary", "bounds", "funceq", "kernel")},
        "--t": {}, "--s": {"help": "comma-separated semigroup times, or zeta arguments for funceq (complex as 0.45+0.2j)"},
        "--x": {}, "--variant": {"choices": funceq.VARIANTS}, "--dump-profile": {},
    }),
    "suite": ("named batch suites", {"name": {"nargs": "?"}}),
}


class RunConfig:
    """Validated run description: subcommand plus a typed parameter map,
    from flags, a config file or a suite entry alike.  A key that is not a
    flag of the subcommand, or a value outside the flag's choices, is
    rejected with the key named; the seed, the tolerance and the
    subcommand's tolerance file are parsed here, once."""

    def __init__(self, subcommand, params):
        if subcommand not in _SUBCOMMANDS:
            raise ConfigError(f"unknown subcommand {subcommand!r}")
        # argparse's names: --mc-samples is the key mc_samples
        flags = {f.lstrip("-").replace("-", "_"): kw for f, kw in (_SUBCOMMANDS[subcommand][1] | _COMMON_FLAGS).items()}
        for key, value in params.items():
            if key not in flags:
                raise ConfigError(f"unknown config key {key!r} for subcommand {subcommand!r}")
            choices = flags[key].get("choices")
            if choices is not None and value not in choices:
                raise ConfigError(f"{key} takes one of {', '.join(choices)}, got {value!r}")
        self.subcommand = subcommand
        self.params = dict(params)
        self.format = self.get("format", "json-lines")
        self.out = params.get("out")
        self.seed = _config_number("--seed", params.get("seed"), int)
        self.tol = _config_number("--tol", params.get("tol"), float)
        self._tol_overrides = _tol_overrides(subcommand)

    def get(self, key, default=None):
        v = self.params.get(key)
        return default if v is None else v

    def require_seed(self, why):
        if self.seed is None:
            raise ConfigError(f"--seed is required: {why}")
        return self.seed

    def tol_for(self, check_id):
        """{"tol": value} when --tol or the tolerance file sets a tolerance
        for check_id, else {}: the library check then keeps its own default."""
        tol = self._tol_overrides.get(check_id) if self.tol is None else self.tol
        return {} if tol is None else {"tol": tol}


def _config_number(where, text, kind):
    """text as a kind (int or float) of at least 0, or None when unset;
    anything else is a ConfigError that names where the text came from."""
    try:
        value = None if text is None else kind(text)
    except ValueError:
        value = float("nan")
    if value is not None and not value >= 0:  # NaN is not >= 0 either
        raise ConfigError(f"{where} takes {'an integer' if kind is int else 'a number'} of at least 0, got {text!r}")
    return value


def load_config_file(path, normalize=True):
    """Flat key=value file, each key on one line only (ConfigError naming
    both lines otherwise); '#' starts a comment; empty lines ignored.
    normalize maps dashes to underscores so keys match CLI flag names;
    tolerance files keep their check ids verbatim."""
    entries = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                key, sep, val = line.partition("=")
                if not sep:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
                key = key.strip().replace("-", "_") if normalize else key.strip()
                if key in entries:
                    raise ConfigError(f"{path}: key {key!r} is given twice, on lines {entries[key][0]} and {lineno}")
                entries[key] = (lineno, val.strip())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return {key: value for key, (_, value) in entries.items()}


def _tol_overrides(subcommand):
    """Per-check tolerance overrides from $PVZETA_TOL_DIR/<subcommand>.tol
    (same flat key=value format, keyed by check id)."""
    directory = os.environ.get(TOL_DIR_ENV)
    if not directory:
        return {}
    path = os.path.join(directory, f"{subcommand}.tol")
    if not os.path.exists(path):
        return {}
    return {k: _config_number(f"{path}: {k}", v, float) for k, v in load_config_file(path, normalize=False).items()}


def _numbers(text, kind, what):
    if text is None or str(text).strip() == "":
        return []
    try:
        values = [kind(v) for v in str(text).split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated {what}, got {text!r}") from exc
    if not all(isinstance(v, int) or np.isfinite(v) for v in values):
        raise ConfigError(f"expected finite {what}, got {text!r}")
    return values


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
    phis = [testfn.parse_testfn(spec.strip()) for spec in str(text).split(";") if spec.strip()]
    if not phis:
        raise ConfigError(f"--testfn names no test function: {text!r}")
    return phis


# ---------------------------------------------------------------------------
# Subcommand runners: each parses its flags and returns the CheckReports
# of the library checks they select; the rows are built in the library


def run_zeta(cfg):
    space = phspace.parse_space(cfg.get("space", "scalar1d"))
    phi = testfn.parse_testfn(cfg.get("testfn", "gaussian:a=3.14159,n=1"))
    comp = cfg.get("component", space.components[0])
    if comp not in space.components:
        raise ConfigError(f"component takes one of {', '.join(space.components)} on {space}, got {comp!r}")
    s_list = _s_values(cfg.get("s", "0.5"))
    which = cfg.get("check", "value")
    if which == "invariance":
        # p(rho(g) m) = chi(g) p(m) over seeded group elements; --s plays no part
        return [phspace.invariance_sweep(space, 50, cfg.require_seed("the invariance sweep draws random group elements"))]
    if which == "residue":
        # the residues are taken at the poles s = -k, so --s plays no part
        return [zeta.check_mellin_residue(phi, 1.0, k, **cfg.tol_for("mellin-residue")) for k in _ints(cfg.get("k", "1,2,3"))]
    reports = []
    for s in s_list:
        if which == "value":
            tol = cfg.tol_for("zeta-eval").get("tol", 1e-8)
            reports.append(zeta.check_zeta_eval(space, comp, s, phi, tol))
        elif which == "overlap":
            reports.append(zeta.check_mellin_overlap(phi, 1.0, s, **cfg.tol_for("mellin-overlap")))
        elif which == "montecarlo":
            seed = cfg.require_seed("the Monte-Carlo oracle is randomized")
            reports.append(zeta.check_zeta_montecarlo(space, comp, s, phi, 10_000_000, seed))
    return reports


def run_funceq(cfg):
    eq = cfg.get("eq", "12")
    s_list = _s_values(cfg.get("s", ""))
    phis = _testfns(cfg.get("testfn", "gaussian:a=3.14159,n=1" if eq == "12" else "gaussian:a=3.14159,n=3"))
    for key, reader in (("q", "22"), ("variant", "12a"), ("mc_samples", "22")):
        if cfg.get(key) is not None and eq != reader:
            raise ConfigError(f"--{key.replace('_', '-')} applies to --eq {reader} only, not to --eq {eq}")
    variant = cfg.get("variant", "corrected")
    q = _number(cfg, "q", 1, _ints)
    if eq == "22" and q not in range(1, min(phi.n for phi in phis)):
        raise ConfigError(f"--q takes 1..n-1 for the dimension n of every test function, got {q}")
    mc = None if cfg.get("mc_samples") is None else _number(cfg, "mc_samples", None, _ints)
    if mc is not None and mc < 2:
        raise ConfigError(f"--mc-samples takes a count of at least 2, got {mc}")
    seed = None if mc is None else cfg.require_seed("the Monte-Carlo oracle is randomized")
    if not s_list:
        return []
    conv = cfg.get("convention", "auto")
    if conv == "auto":
        conv = funceq.calibrate_convention(eq, s_list[:2], phis[:1], q=q)["selected"][0]
    tol = cfg.tol_for(f"funceq-eq{eq}")
    reports = [funceq.check(eq, s, phi, conv, variant, q, **tol) for s in s_list for phi in phis]
    if mc is not None:
        for phi in phis:
            space = phspace.indefinite(q=q, n=phi.n)
            reports += [zeta.check_zeta_montecarlo(space, c, s, phi, mc, seed) for s in s_list for c in space.components]
    return reports


def _default_density():
    return homog.homog_density(-1.0, lambda x: 1.0 / np.abs(x), n=1, label="|m|^-1")


def run_homog(cfg):
    which = cfg.get("check", "tplus-int")
    reports = []
    if which == "tplus-int":
        reports.append(homog.check_tplus_int(**cfg.tol_for("homog-tplus-int")))
    elif which == "homogeneity":
        tol = cfg.tol_for("homog-homogeneity")
        phi = testfn.parse_testfn(cfg.get("testfn", "gaussian:a=3.14159,n=1"))
        degrees = _floats(cfg.get("s", "-0.5,0.3,-1.7"))
        lams = _floats(cfg.get("lam", "0.5,2.0"))
        for s in degrees:
            for lam in lams:
                reports.append(homog.check_homogeneity(s, phi, lam, **tol))
    elif which == "extension":
        tol = cfg.tol_for("homog-extension-restricts")
        phi = testfn.parse_testfn(cfg.get("testfn", "bump:c=3,r=1,n=1"))
        reports.append(homog.check_extension_restricts(_default_density(), homog.make_cutoff(0.5, 2.0), phi, **tol))
    elif which == "ambiguity":
        tol = cfg.tol_for("homog-ambiguity")
        specs = cfg.get("testfn", "gaussian:a=0.5,n=1;gaussian:a=1,n=1;gaussian:a=2,n=1;gaussian:a=3.14159,n=1;gaussian:a=4,n=1")
        phis = _testfns(specs)
        reports.append(
            homog.check_ambiguity(_default_density(), homog.make_cutoff(0.5, 2.0), homog.make_cutoff(1.0, 4.0), phis, **tol)
        )
    return reports


def run_probe(cfg):
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
        tol = cfg.tol_for("symbol-scaling").get("tol", 1e-9)
        seed = cfg.require_seed("the scaling sweep draws random factors")
        count = _number(cfg, "alphas", 50, _ints)
        if count < 1:
            raise ConfigError("--alphas must be at least 1")
        reports.append(symbolkern.scaling_sweep(f, space, m, count, seed, tol))
    elif what == "kernel":
        tol = cfg.tol_for("kernel-vs-heat").get("tol", 1e-7)
        reports.append(heatflow.kernel_vs_heat_check(t, variant, tol))
    elif what == "integrability":
        reports.append(symbolkern.local_integrability_check(f))
    return reports


def run_heat(cfg):
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
        tol = cfg.tol_for("heat-langlands-bounds")
        reports.append(heatflow.langlands_bounds_check(ts, (0.5, 1.0), variant=variant, **tol))
    for t in ts:
        if which == "semigroup" and xs:  # an empty x grid gives no row
            tol = cfg.tol_for("heat-semigroup")
            for s in ss:
                reports.append(heatflow.semigroup_check(t, s, phi, xs, variant=variant, **tol))
        elif which == "generator":
            tol = cfg.tol_for("heat-generator")
            for x in xs:
                reports.append(heatflow.generator_check(t, phi, x, variant=variant, **tol))
        elif which == "lacunary":
            tol = cfg.tol_for("heat-lacunary")
            reports.append(heatflow.lacunary_check(t, variant=variant, **tol))
        elif which == "funceq":
            tol = cfg.tol_for("heat-diagonal-funceq")
            for s in ss:
                reports.append(heatflow.diagonal_funceq(t, s, testfn.parse_testfn("gaussian:a=3.14159,n=1"), variant=variant, **tol))
        elif which == "kernel":
            tol = cfg.tol_for("heat-kernel-identity")
            pts = [(x, y) for x in (0.5, 1.0, 2.0) for y in (0.25, 1.0, 3.0)]
            reports.append(heatflow.kernel_identity_check(t, pts, variant=variant, **tol))
    dump = cfg.get("dump_profile")
    if dump:
        scale = heatflow.variant_scale(variant)
        grid = [(float(t), float(x)) for t in ts for x in np.linspace(0.05, 5.0, 100)]
        rows = [[repr(t), repr(x), repr(float(np.real(scale * heatflow.apply(t, phi, x))))] for t, x in grid]
        try:
            with open(dump, "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh).writerows([["t", "x", "St_phi"], *rows])
        except OSError as exc:
            raise ConfigError(f"cannot write profile to {dump}: {exc}") from exc
    return reports


# ---------------------------------------------------------------------------
# Suites: each entry is (subcommand, params), run through the runners above
# as the command line runs those flags with the suite's --seed


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
    ("zeta", {"check": "invariance", "space": "scalar1d"}),
)

SUITES = {
    "quick": _QUICK,
    "full": _QUICK
    + (
        # 3D functional equations
        ("funceq", {"eq": "12a", "s": "0.3,0.7,1.1", "convention": "twopi"}),
        ("funceq", {"eq": "22", "s": "0.2,0.4", "convention": "twopi", "q": "1"}),
        ("zeta", {"check": "montecarlo", "space": "indefinite:q=1,n=3", "component": "plus", "s": "0.2", "testfn": "gaussian:a=3.14159,n=3"}),
        # invariance on the quadratic kinds
        ("zeta", {"check": "invariance", "space": "definite:n=3"}),
        ("zeta", {"check": "invariance", "space": "indefinite:q=1,n=3"}),
    ),
}


def _guarded(cfg):
    """The reports of the runner of cfg, or, when it raises a PVZetaError
    other than a ConfigError, one error row keyed by the subcommand and the
    flags that shape its checks, not where the report goes."""
    try:
        return _RUNNERS[cfg.subcommand](cfg)
    except ConfigError:
        raise
    except PVZetaError as exc:
        params = {k: v for k, v in cfg.params.items() if k not in ("format", "out", "config")}
        return [CheckReport.error(cfg.subcommand, params, exc)]


def run_suite(cfg):
    name = cfg.get("name")
    if name not in SUITES:
        raise ConfigError(f"unknown suite name {name!r}")
    if cfg.tol is not None:
        # one tolerance cannot fit every row of a suite
        raise ConfigError(f"--tol does not apply to a suite; set per-check tolerances in ${TOL_DIR_ENV}/<subcommand>.tol")
    seed = 0 if cfg.seed is None else cfg.seed
    return [rep for key, spec in SUITES[name] for rep in _guarded(RunConfig(key, {**spec, "seed": seed}))]


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
        try:
            with open(out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write report to {out}: {exc}") from exc
    else:
        sys.stdout.write(text)
    npass = sum(1 for r in reports if r.passed)
    print(f"{npass}/{len(reports)} checks passed", file=sys.stderr)
    return reports


def run(config):
    """Execute a validated RunConfig; returns (exit_status, reports)."""
    reports = emit(_guarded(config), config.format, config.out)
    statuses = {r.status for r in reports}
    if "error" in statuses:
        return 1, reports
    if "fail" in statuses:
        return 2, reports
    return 0, reports


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors are ConfigErrors, so they exit 1."""

    def error(self, message):
        raise ConfigError(message)


@functools.cache
def _build_parser():
    # built once per process (parse_args leaves no state in the parser);
    # argparse shows a flag's choices in --help, and RunConfig checks them
    parser = _Parser(prog="pvzeta", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, flags) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, kw in (flags | _COMMON_FLAGS).items():
            shown = "{" + ",".join(kw["choices"]) + "}" if "choices" in kw else None
            p.add_argument(flag, default=None, help=kw.get("help"), nargs=kw.get("nargs"), metavar=shown)
    return parser


def main(argv=None):
    try:
        ns = _build_parser().parse_args(argv)
        flags = {k: v for k, v in vars(ns).items() if k != "subcommand" and v is not None}
        # a flag wins over the config file, whose keys RunConfig checks like the flags
        params = (load_config_file(flags["config"]) if flags.get("config") else {}) | flags
        return run(RunConfig(ns.subcommand, params))[0]
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
