import json
import re
from pathlib import Path

import pytest

import pvzeta
from pvzeta.errors import AccuracyError
from pvzeta.report import CheckReport, sort_reports, worst


def make(check="c", s=0.5, lhs=1.0, rhs=1.0 + 1e-9):
    return CheckReport(check=check, params={"s": s}, lhs=lhs, rhs=rhs, tolerance=1e-6, anchor="Eq1")


def test_pass_fail_threshold():
    assert make().passed
    assert not make(rhs=2.0).passed


def test_json_round_trip_and_schema():
    rep = make()
    d = json.loads(rep.to_json())
    assert d["schema"] == "1"
    assert d["status"] == "pass"
    assert d["anchor"] == "Eq1"
    assert "lhs" in d and "rhs" in d and "rel_residual" in d


def test_json_deterministic():
    assert make().to_json() == make().to_json()


def test_complex_serialization():
    rep = make(lhs=1 + 2j, rhs=1 + 2j)
    d = json.loads(rep.to_json())
    assert d["lhs"] == {"im": 2.0, "re": 1.0}


def test_csv_row_matches_header():
    rep = make()
    assert len(rep.csv_row()) == len(CheckReport.CSV_HEADER)


def test_sort_reports_by_check_then_params():
    reps = [make(check="b", s=0.2), make(check="a", s=0.9), make(check="b", s=0.1)]
    out = sort_reports(reps)
    assert [r.check for r in out] == ["a", "b", "b"]
    assert out[1].params["s"] < out[2].params["s"]


def test_default_rule_unchanged():
    rep = make(lhs=1.0, rhs=1.0 + 1e-9)
    assert rep.abs_residual == abs(1.0 - (1.0 + 1e-9))
    assert rep.rel_residual == rep.abs_residual / (1.0 + 1e-9)
    assert rep.status == "pass"
    assert make(lhs=1.0, rhs=1.0 + 1e-5).status == "fail"
    # the floor keeps an exact zero pair from dividing by zero
    assert make(lhs=0.0, rhs=0.0).rel_residual == 0.0


def test_residual_and_passed_override_the_default_rule():
    rep = CheckReport("c", {}, 1.0, 2.0, 1e-6, residual=1e-9)
    assert rep.rel_residual == 1e-9 and rep.passed
    assert rep.abs_residual == 1.0
    rep = CheckReport("c", {}, 1.0, 1.0, 1e-6, passed=False)
    assert rep.rel_residual == 0.0 and rep.status == "fail"
    rep = CheckReport("c", {}, 1.0, 2.0, 1e-6, residual=5.0, passed=True)
    assert rep.rel_residual == 5.0 and rep.status == "pass"
    with pytest.raises(TypeError):
        CheckReport("c", {}, 1.0, 1.0, 1e-6, "", {}, 0.0)


def test_error_row():
    rep = CheckReport.error("heat", {"check": "lacunary"}, AccuracyError("unresolved"))
    d = json.loads(rep.to_json())
    assert d["status"] == "error" and not rep.passed
    assert d["extra"] == {"error": "AccuracyError: unresolved"}
    assert len(rep.csv_row()) == len(CheckReport.CSV_HEADER)


def test_worst_keeps_first_maximum_on_ties():
    a, b, c = make(check="a", rhs=2.0), make(check="b", rhs=1.5), make(check="c", rhs=2.0)
    assert a.rel_residual == c.rel_residual > b.rel_residual
    assert worst([b, a, c]) is a
    assert worst([c, b, a]) is c


def test_only_report_module_sets_residual_or_status():
    pattern = re.compile(r"\.(rel_residual|status)\s*=")
    offenders = [
        f"{path.name}:{lineno}"
        for path in sorted(Path(pvzeta.__file__).parent.glob("*.py"))
        if path.name != "report.py"
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if pattern.search(line)
    ]
    assert offenders == []


def test_csv_columns_keep_the_former_lists():
    # CSV_HEADER and csv_row read one table of (column name, text); both
    # give the lists they gave when they were written out apart
    header = ["check", "anchor", "params", "lhs_re", "lhs_im", "rhs_re", "rhs_im",
              "abs_residual", "rel_residual", "tolerance", "status"]
    assert CheckReport.CSV_HEADER == header
    for rep in (make(), make(lhs=1.5 - 2j, rhs=0.25j), CheckReport.error("c", {"s": 0.5, "a": [1, 2]}, ValueError("x"))):
        assert rep.csv_row() == [
            rep.check,
            rep.anchor,
            json.dumps(pvzeta.report._jsonable(rep.params), sort_keys=True),
            repr(rep.lhs.real),
            repr(rep.lhs.imag),
            repr(rep.rhs.real),
            repr(rep.rhs.imag),
            repr(rep.abs_residual),
            repr(rep.rel_residual),
            repr(rep.tolerance),
            rep.status,
        ]
