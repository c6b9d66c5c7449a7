"""Structured results of residual checks.

A CheckReport records what was compared (two complex numbers), against
which tolerance, with the full parameter record needed to reproduce the
run.  Reports serialize to JSON-compatible dicts with deterministic key
order so identical runs produce byte-identical output files.
"""

from __future__ import annotations

import json
import math
from operator import attrgetter

from .errors import ConfigError

_FLOOR = 1e-300


def _jsonable(x):
    if isinstance(x, complex):
        return {"im": x.imag, "re": x.real}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in sorted(x.items())}
    if hasattr(x, "item"):
        return _jsonable(x.item())
    return x


# the CSV projection of a report: each column's name and its text
_CSV_COLUMNS = (
    ("check", attrgetter("check")),
    ("anchor", attrgetter("anchor")),
    ("params", lambda rep: json.dumps(_jsonable(rep.params), sort_keys=True)),
    ("lhs_re", lambda rep: repr(rep.lhs.real)),
    ("lhs_im", lambda rep: repr(rep.lhs.imag)),
    ("rhs_re", lambda rep: repr(rep.rhs.real)),
    ("rhs_im", lambda rep: repr(rep.rhs.imag)),
    ("abs_residual", lambda rep: repr(rep.abs_residual)),
    ("rel_residual", lambda rep: repr(rep.rel_residual)),
    ("tolerance", lambda rep: repr(rep.tolerance)),
    ("status", attrgetter("status")),
)


class CheckReport:
    """Result of one residual check.

    rel_residual = |lhs - rhs| / max(|lhs|, |rhs|, floor) unless the check
    passes its own normalization as residual=; status is 'pass' exactly
    when rel_residual < tolerance unless the check passes its own rule as
    passed=.  CheckReport.error builds the row of a check that raised
    (status 'error')."""

    def __init__(self, check, params, lhs, rhs, tolerance, anchor="", extra=None, *, residual=None, passed=None):
        self.check = check
        self.params = params
        self.lhs = complex(lhs)
        self.rhs = complex(rhs)
        self.tolerance = tolerance
        self.anchor = anchor
        self.extra = {} if extra is None else extra
        self.abs_residual = abs(self.lhs - self.rhs)
        if residual is None:
            residual = self.abs_residual / max(abs(self.lhs), abs(self.rhs), _FLOOR)
        self.rel_residual = residual
        if passed is None:
            passed = residual < tolerance
        self.status = "pass" if passed else "fail"

    @classmethod
    def error(cls, check, params, exc):
        """Row for a check that raised exc instead of reporting."""
        rep = cls(check, params, math.nan, math.nan, math.nan, extra={"error": f"{type(exc).__name__}: {exc}"})
        rep.status = "error"
        return rep

    @property
    def passed(self):
        return self.status == "pass"

    def to_dict(self):
        return {
            "schema": "1",
            "check": self.check,
            "anchor": self.anchor,
            "params": _jsonable(self.params),
            "lhs": _jsonable(self.lhs),
            "rhs": _jsonable(self.rhs),
            "abs_residual": self.abs_residual,
            "rel_residual": self.rel_residual,
            "tolerance": self.tolerance,
            "status": self.status,
            "extra": _jsonable(self.extra),
        }

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, allow_nan=True)

    def csv_row(self):
        return [text(self) for _, text in _CSV_COLUMNS]

    CSV_HEADER = [name for name, _ in _CSV_COLUMNS]

    def __str__(self):
        return (
            f"[{self.status.upper():4s}] {self.check} rel={self.rel_residual:.3e} "
            f"tol={self.tolerance:.1e}"
        )


def sort_reports(reports):
    """Deterministic report order: by check id, then parameter record."""
    return sorted(reports, key=lambda r: (r.check, json.dumps(_jsonable(r.params), sort_keys=True)))


def label_number(x):
    """x as a label writes it: the shortest text that reads back as x,
    '{:g}' where that is exact (so such labels keep their bytes), else
    repr without a trailing '.0'."""
    text = f"{x:g}"
    return text if float(text) == x else repr(float(x)).removesuffix(".0")


def parse_spec(spec, families, what):
    """(family, {key: text}) of a spec 'family:key=value,...', the form of
    a test-function label and of the text inside a space repr; families
    maps each family to its keys.  An unknown family, an item without '=',
    or a key its family lacks or that comes twice is a ConfigError."""
    name, _, rest = str(spec).partition(":")
    if name not in families:
        raise ConfigError(f"unknown {what} {name!r} in {spec!r}")
    kw = {}
    for item in rest.split(",") if rest else ():
        key, sep, value = (part.strip() for part in item.partition("="))
        if not sep or key not in families[name] or key in kw:
            takes = f"the keys {', '.join(families[name])} once each, as key=value" if families[name] else "no keys"
            raise ConfigError(f"bad item {item!r} in {spec!r}: {name} takes {takes}")
        kw[key] = value
    return name, kw


def worst(reports):
    """The first report of maximal rel_residual.  A check over several
    points builds one report per point and returns this one, with its
    aggregate extra added."""
    return max(reports, key=attrgetter("rel_residual"))
