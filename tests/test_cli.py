import argparse
import json
import math
import re
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from oracle import gaussian_zeta_definite
from pvzeta import cli, funceq, heatflow, phspace, quad, testfn, zeta
from pvzeta.errors import AccuracyError, ConfigError


def run(argv):
    return cli.main(argv)


_COLD_START = """
import sys
import pvzeta, pvzeta.cli
from pvzeta import heatflow, phspace, quad
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
assert abs(quad.integrate_1d(lambda x: x * x, 0.0, 1.0).value - 1.0 / 3.0) < 1e-12
space = phspace.indefinite(q=1, n=3)
R = phspace.sample_group(space, 1, 0)[0].rot(3)
assert abs(R.T @ space.Bmat @ R - space.Bmat).max() < 1e-12
assert heatflow.langlands_bounds_check((0.25,), (0.5,)).passed
"""


def test_import_loads_no_scipy():
    # scipy is loaded in this process by other tests, so the import path is
    # checked in a fresh interpreter; the adaptive rule and the two callers
    # that import scipy on first use (expm, erf) must then work from that
    # cold start
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", _COLD_START], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "[]"


def _fresh_run(argv):
    # the command line in a new interpreter: no cache and no parser warm
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    code = "import sys; from pvzeta import cli; sys.exit(cli.main(sys.argv[1:]))"
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, env=env, timeout=300)


def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


def test_a_parse_error_leaves_the_shared_parser_as_new(tmp_path):
    assert run(["heat", "--check", "bogus", "--t", "0.5"]) == 1
    argv = ["heat", "--check", "semigroup", "--t", "0.5", "--s", "0.25"]
    assert run([*argv, "--out", str(tmp_path / "in.jsonl")]) == 0
    proc = _fresh_run([*argv, "--out", str(tmp_path / "fresh.jsonl")])
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "in.jsonl").read_bytes() == (tmp_path / "fresh.jsonl").read_bytes()


def test_suite_runs_alike_warm_and_fresh(tmp_path):
    # the second run meets warm caches (cutoffs, rules, transforms) and the
    # parser of the first; all three reports must be the same bytes
    outs = [tmp_path / f"{name}.jsonl" for name in ("first", "second", "fresh")]
    for out in outs[:2]:
        assert run(["suite", "quick", "--seed", "11", "--out", str(out)]) == 0
    proc = _fresh_run(["suite", "quick", "--seed", "11", "--out", str(outs[2])])
    assert proc.returncode == 0, proc.stderr
    first = outs[0].read_bytes()
    assert first and all(out.read_bytes() == first for out in outs[1:])


def test_funceq_example_passes(tmp_path, capsys):
    out = tmp_path / "r.jsonl"
    status = run(["funceq", "--eq", "12", "--s", "0.5", "--testfn", "gaussian:a=3.14159,n=1", "--out", str(out)])
    assert status == 0
    rows = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(rows) == 1 and rows[0]["status"] == "pass"


def test_heat_printed_semigroup_fails(tmp_path):
    out = tmp_path / "r.jsonl"
    status = run(["heat", "--check", "semigroup", "--variant", "printed", "--t", "0.5", "--s", "0.5", "--out", str(out)])
    assert status == 2
    row = json.loads(out.read_text().splitlines()[0])
    ratio = row["extra"]["measured_ratio"]["re"]
    assert abs(ratio - 1.4142136) < 1e-6


def test_empty_check_list_exits_zero(tmp_path):
    out = tmp_path / "r.jsonl"
    status = run(["funceq", "--eq", "12", "--s", "", "--out", str(out)])
    assert status == 0
    assert out.read_text() == ""
    # an empty x grid has no semigroup row
    assert run(["heat", "--check", "semigroup", "--x", "", "--out", str(out)]) == 0
    assert out.read_text() == ""


def test_unknown_suite_exits_one():
    assert run(["suite", "bogus"]) == 1


def test_suite_refuses_tol(tmp_path, capsys):
    # one tolerance cannot fit every row; PVZETA_TOL_DIR sets them per check
    out = tmp_path / "r.jsonl"
    assert run(["suite", "quick", "--tol", "1e-300", "--out", str(out)]) == 1
    assert "PVZETA_TOL_DIR" in capsys.readouterr().err
    assert not out.exists()


def test_seed_required_for_montecarlo(capsys):
    assert run(["probe", "--what", "scaling"]) == 1
    assert run(["probe", "--what", "scaling", "--seed", "1", "--alphas", "0"]) == 1
    capsys.readouterr()
    assert run(["zeta", "--check", "invariance", "--space", "definite:n=3"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("config error: --seed is required: the invariance sweep")


def test_csv_projection(tmp_path):
    out = tmp_path / "r.csv"
    status = run(["funceq", "--eq", "12", "--s", "0.5", "--testfn", "gaussian:a=3.14159,n=1", "--format", "csv", "--out", str(out)])
    assert status == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("check,anchor,params")
    assert len(lines) == 2


def test_config_file_and_unknown_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("eq=12\ns=0.5\ntestfn=gaussian:a=3.14159,n=1\n")
    out = tmp_path / "r.jsonl"
    assert run(["funceq", "--config", str(cfg), "--out", str(out)]) == 0
    cfg.write_text("eq=12\ns=0.5\nbogus_key=1\n")
    assert run(["funceq", "--config", str(cfg)]) == 1
    # --q from a config file is text, checked like the flag's
    cfg.write_text("eq=22\ns=0.5\nq=abc\n")
    assert run(["funceq", "--config", str(cfg)]) == 1


def test_cli_flag_overrides_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("eq=12\ns=0.5\ntestfn=gaussian:a=3.14159,n=1\n")
    out = tmp_path / "r.jsonl"
    assert run(["funceq", "--config", str(cfg), "--s", "0.6", "--out", str(out)]) == 0
    row = json.loads(out.read_text().splitlines()[0])
    assert row["params"]["s"]["re"] == 0.6


def test_tol_dir_env_override(tmp_path, monkeypatch):
    told = tmp_path / "tols"
    told.mkdir()
    # an absurdly tight tolerance fails a correct identity whose residual
    # cannot vanish: the finite-difference generator row reads about 1.4e-4
    (told / "heat.tol").write_text("heat-generator=1e-30\n")
    monkeypatch.setenv(cli.TOL_DIR_ENV, str(told))
    out = tmp_path / "r.jsonl"
    status = run(["heat", "--check", "generator", "--t", "0.5", "--x", "1.0", "--out", str(out)])
    assert status == 2
    row = json.loads(out.read_text().splitlines()[0])
    assert row["check"] == "heat-generator" and row["tolerance"] == 1e-30 and row["rel_residual"] > 1e-6


def test_runconfig_rejects_unknown_key():
    with pytest.raises(ConfigError):
        cli.RunConfig("funceq", {"nonsense": 1})
    with pytest.raises(ConfigError):
        cli.RunConfig("nonsense", {})


def test_byte_identical_reruns(tmp_path):
    args = ["zeta", "--check", "residue", "--s", "0", "--k", "1,2", "--testfn", "gaussian:a=3.14159,n=1"]
    o1, o2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert run(args + ["--out", str(o1)]) == 0
    assert run(args + ["--out", str(o2)]) == 0
    assert o1.read_bytes() == o2.read_bytes()


def test_zeta_eval_report(tmp_path):
    out = tmp_path / "r.jsonl"
    status = run(["zeta", "--space", "scalar1d", "--s", "0.4", "--testfn", "gaussian:a=3.14159,n=1", "--out", str(out)])
    assert status == 0
    row = json.loads(out.read_text().splitlines()[0])
    assert row["check"] == "zeta-eval"


@pytest.mark.parametrize(
    "args, s_values, bound",
    [
        (["zeta"], ("0.5", "0.8", "-1.3"), 1e-14),
        (["zeta", "--space", "definite:n=2", "--testfn", "gaussian:a=3.14159,n=2"], ("0.6",), 1e-12),
        (["zeta", "--check", "value", "--space", "indefinite:q=1,n=3", "--testfn", "gaussian:a=3.14159,n=3"], ("-1.35+0.2j",), 1e-9),
    ],
    ids=["scalar", "definite", "indefinite"],
)
def test_zeta_eval_sides(tmp_path, monkeypatch, args, s_values, bound):
    # zeta_local, on the shared radial rule, is on the left side only and
    # zeta_local_reference on the right (the adaptive Mellin transform per
    # ray, or the stencil for an indefinite component; complex s on the
    # command line)
    out = tmp_path / "r.jsonl"
    for s in s_values:
        assert run(args + [f"--s={s}", "--out", str(out)]) == 0
        row = json.loads(out.read_text())
        assert row["params"]["s"] == {"re": complex(s).real, "im": complex(s).imag}
        assert row["status"] == "pass" and row["rel_residual"] < bound, (s, row["rel_residual"])
        assert set(row["extra"]["rule"]) == {"radial_nodes", "level_gap", "angular_order", "angular_gap"}

    engine = zeta.zeta_local

    def perturbed(*args, **kwargs):
        mv = engine(*args, **kwargs)
        mv.value *= 1.0 + 1e-6
        return mv

    monkeypatch.setattr(zeta, "zeta_local", perturbed)
    assert run(args + [f"--s={s_values[0]}", "--out", str(out)]) == 2
    row = json.loads(out.read_text())
    assert row["status"] == "fail" and row["rel_residual"] > 1e-7


@pytest.mark.parametrize("s", ["-0.99+0.1j", "-0.995", "-1.495"])
def test_zeta_eval_indefinite_near_the_poles(tmp_path, s):
    # within 0.01 of the poles -1 and -3/2 both sides agree
    args = ["zeta", "--check", "value", "--space", "indefinite:q=1,n=3", "--testfn", "gaussian:a=3.14159,n=3", f"--s={s}"]
    assert run(args + ["--out", str(tmp_path / "r.jsonl")]) == 0


@pytest.mark.parametrize(
    "space, spec, s", [("definite:n=2", "gaussian:a=3.14159,n=2", 0.6), ("indefinite:q=1,n=3", "gaussian:a=3.14159,n=3", 0.4)]
)
def test_check_zeta_eval_is_the_cli_row(tmp_path, space, spec, s):
    out = tmp_path / "r.jsonl"
    assert run(["zeta", "--space", space, "--testfn", spec, f"--s={s}", "--out", str(out)]) == 0
    sp = phspace.parse_space(space)
    rep = zeta.check_zeta_eval(sp, sp.components[0], s, testfn.parse_testfn(spec), 1e-8)
    assert out.read_text() == rep.to_json() + "\n"


def test_zeta_eval_narrow_off_centre_bump(tmp_path):
    # the ray's cutoff is the support's far edge, so the shared rule's
    # nodes crowd into [0.48, 0.52] instead of missing it on [0, 1.52]
    out = tmp_path / "r.jsonl"
    assert run(["zeta", "--check", "value", "--testfn", "bump:c=0.5,r=0.02,n=1", "--s", "0.3", "--out", str(out)]) == 0
    row = json.loads(out.read_text())
    nodes, wts = quad.panel_rule(0.48, 0.52, 200)
    ref = float(np.sum(wts * nodes ** 0.3 * testfn.bump(0.5, 0.02)(nodes)))
    assert abs(ref - 7.2125091920637e-3) < 1e-15
    for side in ("lhs", "rhs"):
        assert abs(row[side]["re"] - ref) < 1e-13 * ref, side


def test_zeta_eval_anisotropic_row_carries_the_oracle_value(tmp_path):
    # the order-16 sphere rule puts both sides 4.8e-8 off while they agree
    # to 2.7e-16; on the measured order each side is the oracle's value
    out = tmp_path / "r.jsonl"
    argv = ["zeta", "--check", "value", "--space", "definite:B=1|2|0.5", "--testfn", "gaussian:a=3.14159,n=3"]
    assert run(argv + ["--s=-1.7+0.3j", "--out", str(out)]) == 0
    row = json.loads(out.read_text())
    assert row["params"]["space"] == "PVSpace(definite, n=3, q=3, B=1|2|0.5)"
    rule = row["extra"]["rule"]
    assert rule["angular_order"] == 32 and rule["angular_gap"] < 1e-9 * 24.0
    exact = gaussian_zeta_definite(-1.7 + 0.3j, 3.14159, [1.0, 2.0, 0.5])
    for side in ("lhs", "rhs"):
        value = complex(row[side]["re"], row[side]["im"])
        assert abs(value - exact) < 1e-12 * abs(exact), side


@pytest.mark.parametrize("c", ["0.3", "0.6", "-0.45", "3.0"])
def test_funceq_eq12_off_centre_bump(tmp_path, c):
    # the numeric transform integrates over the support [c - r, c + r],
    # whose edges are panel ends
    argv = ["funceq", "--eq", "12", "--s", "0.4", "--testfn", f"bump:c={c},r=0.8,n=1", "--convention", "twopi"]
    assert run(argv + ["--out", str(tmp_path / "r.jsonl")]) == 0


@pytest.mark.parametrize("s", ["0.45+0.2j", "0.45+1j", "0.3-0.5j"])
def test_funceq_eq12_bump_at_complex_s(tmp_path, s):
    # the head of the transform's Mellin integral is adaptive at complex s
    out = tmp_path / "r.jsonl"
    argv = ["funceq", "--eq", "12", f"--s={s}", "--testfn=bump:c=0,r=1,n=1", "--convention", "twopi"]
    assert run(argv + ["--out", str(out)]) == 0
    row = json.loads(out.read_text())
    assert row["params"]["s"] == {"re": complex(s).real, "im": complex(s).imag}
    assert row["rel_residual"] < 1e-12 and row["extra"]["rule"]["panel_gap"] < 1e-12


def test_heat_funceq_takes_a_complex_s(tmp_path, capsys):
    # --s of heat funceq is a zeta argument; the semigroup's --s is a time
    out = tmp_path / "r.jsonl"
    assert run(["heat", "--check", "funceq", "--t=0.3", "--s=0.45+0.2j,0.5", "--out", str(out)]) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert {(r["params"]["zeta"]["re"], r["params"]["zeta"]["im"]) for r in rows} == {(0.45, 0.2), (0.5, 0.0)}
    assert all(r["rel_residual"] < 1e-13 for r in rows)
    assert run(["heat", "--check", "semigroup", "--t=0.3", "--s=0.45+0.2j", "--out", str(out)]) == 1
    assert "expected comma-separated real numbers" in capsys.readouterr().err


def test_funceq_eq22_complex_s(tmp_path):
    out = tmp_path / "r.jsonl"
    assert run(["funceq", "--eq", "22", "--s=1.35+0.2j", "--out", str(out)]) == 0
    row = json.loads(out.read_text())
    assert row["tolerance"] == 1e-9 and row["rel_residual"] < 1e-13


def test_funceq_eq22_takes_n_from_the_test_function(tmp_path):
    # Eq22 and the Monte-Carlo rows run on diag(1, -1) for a plane test
    # function; budget 3 s on a 2-CPU host (about 0.3 s)
    out = tmp_path / "r.jsonl"
    argv = ["funceq", "--eq", "22", "--s", "0.3", "--testfn", "gaussian:a=3.14159,n=2"]
    t0 = time.monotonic()
    assert run(argv + ["--mc-samples=200000", "--seed", "1", "--out", str(out)]) == 0
    assert time.monotonic() - t0 < 3.0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["check"] for r in rows] == ["funceq-eq22", "zeta-montecarlo", "zeta-montecarlo"]
    assert rows[0]["rel_residual"] < 1e-13
    assert all(r["params"]["space"] == "PVSpace(indefinite, n=2, q=1)" for r in rows[1:])


@pytest.mark.parametrize("eq", ["12", "12a", "22"])
def test_funceq_without_a_test_function_is_a_config_error(capsys, eq):
    # Eq12a and Eq22 take n from each test function
    assert run(["funceq", "--eq", eq, "--s", "0.3", "--testfn", ";"]) == 1
    assert "config error: --testfn names no test function" in capsys.readouterr().err


def test_homog_ambiguity_without_a_test_function_is_a_config_error(capsys):
    assert run(["homog", "--check", "ambiguity", "--testfn", ";"]) == 1
    assert "config error: --testfn names no test function: ';'" in capsys.readouterr().err


def test_zeta_eval_refuses_the_stencil_off_three_dimensions(tmp_path):
    # on n = 2 the stencil reference is wrong past Re s = -1/2 (1e-2 at
    # s = -0.6), so the row is an error, not a failure of the fast side
    out = tmp_path / "r.jsonl"
    argv = ["zeta", "--check", "value", "--space", "indefinite:q=1,n=2", "--testfn", "gaussian:a=3.14159,n=2"]
    assert run(argv + ["--s=-0.6", "--out", str(out)]) == 1
    row = json.loads(out.read_text())
    assert row["status"] == "error" and row["extra"]["error"].startswith("DomainError: the finite-difference stencil")


def test_real_s_text_stays_real():
    assert cli._s_values("0.5,-1.35") == [0.5, -1.35]
    assert all(type(v) is float for v in cli._s_values("0.5,-1.35"))
    assert cli._s_values("-1.35+0.2j,1j") == [complex(-1.35, 0.2), 1j]
    with pytest.raises(ConfigError):
        cli._s_values("1+2i")


def test_lacunary_wide_spectrum_keeps_calls_small(tmp_path, monkeypatch):
    # at t = 2 the printed symbol reaches |xi| ~ 3e6; the Fourier rule
    # needs no cut in it, and no fhat_many call may get more than 50k
    # frequencies (each costs a row of exponents, a quad.BLOCK-sized block
    # at a time)
    sizes, fhat_many = [], heatflow.fhat_many

    def spy(t, chis):
        sizes.append(len(chis))
        return fhat_many(t, chis)

    monkeypatch.setattr(heatflow, "fhat_many", spy)
    out = tmp_path / "r.jsonl"
    assert run(["heat", "--check", "lacunary", "--t", "2.0", "--variant", "printed", "--out", str(out)]) == 0
    row = json.loads(out.read_text())
    assert row["status"] == "pass" and row["extra"]["numeric_support_gap"] < 1e-12
    assert sizes and max(sizes) <= 50_000


@pytest.mark.parametrize("variant", ["corrected", "printed"])
def test_lacunary_passes_at_the_default_tolerance(tmp_path, variant):
    out = tmp_path / "r.jsonl"
    argv = ["heat", "--check", "lacunary", "--t", "0.1,0.25,0.5,1.0,2.0", "--variant", variant, "--out", str(out)]
    assert run(argv) == 0
    rows = [json.loads(l) for l in out.read_text().splitlines()]
    assert [r["tolerance"] for r in rows] == [1e-7] * 5
    assert all(r["rel_residual"] < 1e-12 for r in rows)


def test_lacunary_refuses_below_the_contour_rule(tmp_path):
    # at t = 0.01 the amplitude e^{pi^2/(16 t)} of fhat_many eats every
    # digit: the inverse transform does not settle and the run says so
    out = tmp_path / "r.jsonl"
    assert run(["heat", "--check", "lacunary", "--t", "0.01", "--out", str(out)]) == 1
    rows = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(rows) == 1 and rows[0]["status"] == "error"
    assert rows[0]["extra"]["error"].startswith("AccuracyError: Fourier rule unresolved")


@pytest.mark.parametrize(
    "flag",
    [
        "--t=abc",
        "--s=-1.45+0.15j",
        "--x=1,,two",
        "probe --t=abc",
        "probe --m=abc",
        "probe --what scaling --seed 1 --alphas=abc",
        "zeta --check residue --k=abc",
        "funceq --eq 22 --s 0.3 --mc-samples=abc",
        # a sample count is an integer of at least 2
        "funceq --eq 22 --s=0.2 --mc-samples=-5 --seed 1",
        "funceq --eq 22 --s=0.2 --mc-samples=0.5 --seed 1",
        # a seed is an integer of at least 0, for a subcommand and a suite
        "probe --what scaling --seed -1",
        "suite quick --seed -1",
        # a number that is not finite, real or complex
        "zeta --check value --s=nan",
        "zeta --check overlap --s=nan",
        "funceq --eq 12 --s=nan",
        "homog --check homogeneity --s=nan",
        "zeta --check value --s=inf",
        "funceq --eq 12 --s=0.3,-inf",
        "zeta --check value --s=0.5+nanj",
        "probe --what kernel --t=nan",
        "--x=0.5,inf",
    ],
)
def test_unparsable_numbers_are_config_errors(tmp_path, capsys, flag):
    # a bare flag goes to heat --check semigroup, else the subcommand leads
    argv = flag.split()
    if argv[0].startswith("--"):
        argv = ["heat", "--check", "semigroup", *argv]
    out = tmp_path / "r.jsonl"
    assert run([*argv, "--out", str(out)]) == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_mc_samples_add_one_row_per_component(tmp_path):
    out = tmp_path / "r.jsonl"
    assert run(["funceq", "--eq", "22", "--s=0.2", "--mc-samples=200000", "--seed", "1", "--out", str(out)]) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    mc = [r for r in rows if r["check"] == "zeta-montecarlo"]
    assert sorted(r["params"]["component"] for r in mc) == ["minus", "plus"]
    assert all(r["params"]["nsamples"] == 200_000 and r["status"] == "pass" for r in mc)


@pytest.mark.parametrize("eq", ["12", "12a"])
def test_mc_samples_without_monte_carlo_rows_is_a_config_error(tmp_path, capsys, eq):
    # only Eq22 has Monte-Carlo rows; elsewhere the flag would be dropped
    out = tmp_path / "r.jsonl"
    argv = ["funceq", "--eq", eq, "--s", "0.5", "--mc-samples", "100", "--seed", "1", "--out", str(out)]
    assert run(argv) == 1
    assert "config error: --mc-samples" in capsys.readouterr().err
    assert not out.exists()


def test_zeta_residue_writes_its_rows_once(tmp_path):
    # the residues sit at the poles s = -k, whatever --s holds
    out = tmp_path / "r.jsonl"
    assert run(["zeta", "--check", "residue", "--s", "0.3,0.5", "--k", "1", "--out", str(out)]) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert [(r["check"], r["params"]["k"]) for r in rows] == [("mellin-residue", 1)]


def test_config_keys_are_the_declared_flags(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"check=kernel\nt=0.1\ndump-profile={tmp_path / 'p.csv'}\n")
    assert run(["heat", "--config", str(cfg), "--out", str(tmp_path / "r.jsonl")]) == 0
    assert (tmp_path / "p.csv").exists()
    # a flag of another subcommand is an unknown key here
    cfg.write_text("check=kernel\nmc-samples=3\n")
    assert run(["heat", "--config", str(cfg)]) == 1
    assert "unknown config key 'mc_samples' for subcommand 'heat'" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["flag", "tol-dir"])
@pytest.mark.parametrize(
    "argv, check",
    [
        (["--check", "generator", "--t", "0.5", "--x", "1.0"], "heat-generator"),
        (["--check", "kernel", "--t", "0.1"], "heat-kernel-identity"),
        (["--check", "bounds", "--t", "0.25,1.0"], "heat-langlands-bounds"),
    ],
    ids=["generator", "kernel", "bounds"],
)
def test_tolerance_reaches_every_heat_check(tmp_path, monkeypatch, argv, check, source):
    if source == "flag":
        argv = [*argv, "--tol", "1e-300"]
    else:
        (tmp_path / "heat.tol").write_text(f"{check}=1e-300\n")
        monkeypatch.setenv(cli.TOL_DIR_ENV, str(tmp_path))
    out = tmp_path / "r.jsonl"
    status = run(["heat", *argv, "--out", str(out)])
    row = json.loads(out.read_text())
    assert row["check"] == check and row["tolerance"] == 1e-300
    assert status == (0 if row["status"] == "pass" else 2)


def test_subcommand_error_writes_the_error_row(tmp_path, monkeypatch):
    def unresolved(*args, **kwargs):
        raise AccuracyError("forced for the test")

    monkeypatch.setattr(heatflow, "lacunary_check", unresolved)
    out = tmp_path / "r.jsonl"
    assert run(["heat", "--check", "lacunary", "--t", "0.1", "--out", str(out)]) == 1
    rows = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(rows) == 1 and rows[0]["status"] == "error"
    # the row a suite entry gets, keyed by the run's own flags
    assert rows[0]["check"] == "heat" and rows[0]["params"] == {"check": "lacunary", "t": "0.1"}
    assert rows[0]["extra"]["error"] == "AccuracyError: forced for the test"


def test_heat_profile_dump(tmp_path):
    out = tmp_path / "r.jsonl"
    dump = tmp_path / "profile.csv"
    status = run(["heat", "--check", "kernel", "--t", "0.1", "--dump-profile", str(dump), "--out", str(out)])
    assert status == 0
    lines = dump.read_text().splitlines()
    assert lines[0] == "t,x,St_phi"
    assert len(lines) == 101


def test_heat_bounds_fits_growth_over_the_t_grid(tmp_path):
    out = tmp_path / "r.jsonl"
    assert run(["heat", "--check", "bounds", "--t", "0.25,1.0", "--out", str(out)]) == 0
    rows = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(rows) == 1
    assert rows[0]["params"]["t_grid"] == [0.25, 1.0]
    assert math.isfinite(rows[0]["extra"]["fitted_growth_rate"])


def test_suite_isolates_an_entry_that_raises(tmp_path, monkeypatch):
    def unresolved(*args, **kwargs):
        raise AccuracyError("forced for the test")

    monkeypatch.setattr(heatflow, "lacunary_check", unresolved)
    out = tmp_path / "r.jsonl"
    assert run(["suite", "quick", "--seed", "11", "--out", str(out)]) == 1
    rows = [json.loads(l) for l in out.read_text().splitlines()]
    errors = [r for r in rows if r["status"] == "error"]
    assert len(rows) == 25 and len(errors) == 1
    assert errors[0]["check"] == "heat" and errors[0]["params"] == {"check": "lacunary", "seed": 11, "t": "0.1"}
    assert errors[0]["extra"]["error"] == "AccuracyError: forced for the test"
    assert all(r["status"] == "pass" for r in rows if r is not errors[0])
    # the kernel identity and scaling rows come from their subcommands
    by_check = {r["check"]: r for r in rows}
    assert len(by_check["heat-kernel-identity"]["params"]["points"]) == 9
    assert by_check["symbol-scaling"]["params"]["sweep_count"] == 10


def test_suite_propagates_errors_outside_the_package(monkeypatch):
    def divide_by_zero(*args, **kwargs):
        return 1 / 0

    monkeypatch.setattr(heatflow, "kernel_identity_check", divide_by_zero)
    monkeypatch.setitem(cli.SUITES, "quick", (("heat", {"check": "kernel", "t": "0.1"}),))
    with pytest.raises(ZeroDivisionError):
        run(["suite", "quick"])


@pytest.mark.parametrize("name", sorted(cli.SUITES))
def test_suites_are_data(name):
    # every entry is a subcommand with its flags, run as the command line
    # runs them; no entry is a function of its own
    for key, params in cli.SUITES[name]:
        assert key in cli._RUNNERS and key != "suite"
        assert type(params) is dict
        cli.RunConfig(key, {**params, "seed": 0})


@pytest.mark.parametrize("spec", ["scalar1d", "definite:n=3", "indefinite:q=1,n=3"])
def test_zeta_invariance_is_the_worst_of_the_sweep(tmp_path, spec):
    out = tmp_path / "r.jsonl"
    assert run(["zeta", "--check", "invariance", "--space", spec, "--seed", "11", "--out", str(out)]) == 0
    row = json.loads(out.read_text())
    space = phspace.parse_space(spec)
    pairs = zip(phspace.sample_group(space, 50, 11), phspace.sample_points(space, 50, 12))
    worst = max(phspace.check_relative_invariance(space, g, m).rel_residual for g, m in pairs)
    assert row["check"] == "relative-invariance" and row["rel_residual"] == worst
    assert row["params"]["sweep_count"] == 50 and row["params"]["seed"] == 11


@pytest.mark.parametrize(
    "argv, config, tol_file",
    [
        (["probe", "--what", "scaling"], "seed=abc", None),
        (["suite", "quick"], "seed=abc", None),
        (["heat", "--check", "kernel"], "tol=abc", None),
        (["heat", "--check", "semigroup"], None, "heat-semigroup=abc"),
    ],
    ids=["config-seed", "config-suite-seed", "config-tol", "tol-file"],
)
def test_bad_numbers_in_files_are_config_errors(tmp_path, monkeypatch, capsys, argv, config, tol_file):
    # the seed, the tolerance and the tolerance file are parsed where they
    # enter, in RunConfig, before any check runs (flags: the test above)
    if config is not None:
        (tmp_path / "run.cfg").write_text(config + "\n")
        argv = [*argv, "--config", str(tmp_path / "run.cfg")]
    if tol_file is not None:
        (tmp_path / "heat.tol").write_text(tol_file + "\n")
        monkeypatch.setenv(cli.TOL_DIR_ENV, str(tmp_path))
    out = tmp_path / "r.jsonl"
    assert run([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and ("seed" in err or "tol" in err), err
    assert not out.exists()


def test_unwritable_report_is_a_config_error(capsys):
    out = "/nonexistent/dir/r.jsonl"
    assert run(["heat", "--check", "kernel", "--t", "0.1", "--out", out]) == 1
    assert capsys.readouterr().err.startswith(f"config error: cannot write report to {out}")


_CHOICE_FLAGS = [
    (sub, flag.lstrip("-"))
    for sub, (_, flags) in cli._SUBCOMMANDS.items()
    for flag, kw in (flags | cli._COMMON_FLAGS).items()
    if "choices" in kw
]


@pytest.mark.parametrize("sub, key", _CHOICE_FLAGS, ids=[f"{sub}-{key}" for sub, key in _CHOICE_FLAGS])
def test_a_value_outside_the_choices_is_a_config_error(tmp_path, capsys, sub, key):
    # RunConfig holds flags and config files to the choices of one table
    (tmp_path / "run.cfg").write_text(f"{key}=bogus\n")
    out = tmp_path / "r.jsonl"
    argv = [sub, *(["quick"] if sub == "suite" else []), "--config", str(tmp_path / "run.cfg"), "--out", str(out)]
    assert run(argv) == 1
    assert capsys.readouterr().err.startswith(f"config error: {key.replace('-', '_')} takes one of ")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, config, message",
    [
        # an empty --s or --t once let these run no check and pass
        (["funceq"], "eq=13", "eq takes one of 12, 12a, 22, got '13'"),
        (["zeta"], "check=foo\ns=", "check takes one of value, "),
        (["heat"], "check=bogus\nt=", "check takes one of semigroup, "),
        # these once became DomainError rows
        (["heat"], "variant=foo\nt=0.1", "variant takes one of printed, corrected, got 'foo'"),
        (["probe"], "variant=foo", "variant takes one of printed, corrected, got 'foo'"),
        (["zeta", "--space", "definite:n=3", "--component", "plus"], None, "component takes one of V1 on "),
        (["homog"], "format=", "format takes one of json-lines, csv, got ''"),
        (["heat", "--check", "kernel", "--t", "0.1", "--dump-profile", "/nonexistent/p.csv"], None,
         "cannot write profile to /nonexistent/p.csv"),
    ],
    ids=["eq", "zeta-check", "heat-check", "heat-variant", "probe-variant", "component", "empty-format", "dump-profile"],
)
def test_bad_choices_and_paths_are_config_errors(tmp_path, capsys, argv, config, message):
    if config is not None:
        (tmp_path / "run.cfg").write_text(config + "\n")
        argv = [*argv, "--config", str(tmp_path / "run.cfg")]
    out = tmp_path / "r.jsonl"
    assert run([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {message}")
    assert not out.exists()


def test_a_suite_entry_meets_the_choices(monkeypatch, capsys):
    monkeypatch.setitem(cli.SUITES, "quick", (("homog", {"check": "bogus"}),))
    assert run(["suite", "quick"]) == 1
    assert capsys.readouterr().err.startswith("config error: check takes one of ")


def test_cli_loads_on_first_use():
    # `python -m pvzeta.cli` finds cli unloaded, so it runs once, as __main__
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    code = "import sys, pvzeta; assert 'pvzeta.cli' not in sys.modules; assert pvzeta.cli.main and 'pvzeta.cli' in sys.modules"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    argv = [sys.executable, "-W", "error::RuntimeWarning", "-m", "pvzeta.cli", "homog", "--check", "tplus-int"]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["check"] == "homog-tplus-int"


def test_one_shot_adaptive_check_loads_no_scipy_integrate(tmp_path):
    # the adaptive rule is numpy's own: a fresh one-shot t_+^s pairing,
    # which runs it, never imports scipy.integrate (about 0.5 s cold)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    code = (
        "import sys; from pvzeta import cli\n"
        "assert cli.main(['homog', '--check', 'tplus-int', '--out', sys.argv[1]]) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.integrate')))"
    )
    out = tmp_path / "r.jsonl"
    proc = subprocess.run([sys.executable, "-c", code, str(out)], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    assert json.loads(out.read_text())["check"] == "homog-tplus-int"


@pytest.mark.parametrize(
    "argv",
    [["zeta", "--check", "foo"], ["zeta", "--check", "invariance", "--seed", "x"], ["zeta", "--bogus", "1"], []],
    ids=["bad-choice", "seed-not-an-integer", "unknown-flag", "missing-subcommand"],
)
def test_every_usage_error_exits_one_with_no_report(tmp_path, capsys, argv):
    # argparse takes the flag names only: a bad value is RunConfig's, and
    # argparse's own errors exit 1 too, in process and in a fresh interpreter
    out = tmp_path / "r.jsonl"
    assert run([*argv, "--out", str(out)]) == 1
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.startswith("config error: ") and not out.exists()
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-m", "pvzeta.cli", *argv, "--out", str(out)], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 1 and proc.stdout == "" and proc.stderr.startswith("config error: ")
    assert not out.exists()


def test_help_exits_zero():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    for argv in (["--help"], ["funceq", "--help"]):
        proc = subprocess.run([sys.executable, "-m", "pvzeta.cli", *argv], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0 and proc.stdout.startswith("usage: pvzeta"), proc.stderr


def test_argparse_takes_no_choices_or_types():
    parser = cli._build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for sub in subparsers.choices.values():
        assert all(a.choices is None and a.type is None for a in sub._actions)


@pytest.mark.parametrize(
    "parse, spec, item",
    [
        (phspace.parse_space, "definite:m=2", "m=2"),
        (phspace.parse_space, "definite:n", "n"),
        (phspace.parse_space, "scalar1d:n=4", "n=4"),
        (phspace.parse_space, "indefinite:q=1,n=3,x=5", "x=5"),
        (testfn.parse_testfn, "gaussian:b=2", "b=2"),
        (testfn.parse_testfn, "bump:c=1,radius=2", "radius=2"),
        (testfn.parse_testfn, "gaussian:a=1,n=2,a=2", "a=2"),
    ],
)
def test_a_spec_item_its_family_does_not_take_is_a_config_error(parse, spec, item):
    with pytest.raises(ConfigError, match=re.escape(f"bad item {item!r} in {spec!r}")):
        parse(spec)


@pytest.mark.parametrize("flag", ["--space=definite:m=2", "--testfn=bump:c=1,radius=2"])
def test_a_spec_key_on_the_command_line_is_a_config_error(tmp_path, capsys, flag):
    out = tmp_path / "r.jsonl"
    assert run(["zeta", "--s", "0.5", flag, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("config error: bad item") and not out.exists()


@pytest.mark.parametrize(
    "argv, rows",
    [(["--eq", "12a"], 2), (["--eq", "22", "--mc-samples", "20000", "--seed", "1"], 6)],
    ids=["eq12a", "eq22-montecarlo"],
)
def test_funceq_takes_B_from_each_test_function(tmp_path, argv, rows):
    # a plane and a space Gaussian in one list: each runs on its own B, and
    # the Monte-Carlo rows on its own indefinite space
    out = tmp_path / "r.jsonl"
    specs = "gaussian:a=3.14159,n=2;gaussian:a=3.14159,n=3"
    assert run(["funceq", *argv, "--s", "0.3", "--testfn", specs, "--out", str(out)]) == 0
    got = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(got) == rows and all(r["status"] == "pass" for r in got)
    assert sorted(r["params"]["testfn"] for r in got if r["check"].startswith("funceq")) == specs.split(";")
    spaces = {r["params"]["space"] for r in got if r["check"] == "zeta-montecarlo"}
    assert spaces == ({"PVSpace(indefinite, n=2, q=1)", "PVSpace(indefinite, n=3, q=1)"} if rows == 6 else set())


def test_funceq_rows_and_calibration_share_one_dispatch(tmp_path, monkeypatch):
    seen, check = [], funceq.check

    def spy(eq, *args, **kwargs):
        seen.append(eq)
        return check(eq, *args, **kwargs)

    monkeypatch.setattr(funceq, "check", spy)
    assert run(["funceq", "--eq", "12", "--s", "0.5", "--out", str(tmp_path / "r.jsonl")]) == 0
    # one calibration row per convention, then the row of the run
    assert seen == ["12"] * (len(testfn.FourierConvention) + 1)


def test_every_variant_flag_takes_the_library_tuple():
    for sub in ("funceq", "heat", "probe"):
        assert cli._SUBCOMMANDS[sub][1]["--variant"]["choices"] is funceq.VARIANTS


@pytest.mark.parametrize(
    "argv, named",
    [
        (["--eq", "12", "--s", "0.5", "--q", "7", "--variant", "printed"], "--q applies to --eq 22 only"),
        (["--eq", "12a", "--s", "0.5", "--q", "1"], "--q applies to --eq 22 only"),
        (["--eq", "12", "--s", "0.5", "--variant", "corrected"], "--variant applies to --eq 12a only"),
        (["--eq", "22", "--s", "0.3", "--variant", "printed"], "--variant applies to --eq 12a only"),
        (["--eq", "22", "--s", "0.3", "--q", "0"], "--q takes 1..n-1"),
        (["--eq", "22", "--s", "0.3", "--q", "3"], "--q takes 1..n-1"),
        (["--eq", "22", "--s", "0.3", "--q", "2", "--testfn", "gaussian:a=3.14159,n=3;gaussian:a=3.14159,n=2"], "--q takes 1..n-1"),
    ],
    ids=["q-eq12", "q-eq12a", "variant-eq12", "variant-eq22", "q-zero", "q-past-n", "q-past-one-n"],
)
def test_funceq_refuses_a_flag_its_equation_does_not_read(tmp_path, capsys, argv, named):
    # --q sets the signature of Eq22 only, within 1..n-1 for every test
    # function, and --variant the exponent of Eq12a only
    out = tmp_path / "r.jsonl"
    assert run(["funceq", *argv, "--convention", "twopi", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and named in err and not out.exists()


def test_funceq_takes_each_flag_of_its_equation(tmp_path):
    out = tmp_path / "r.jsonl"
    assert run(["funceq", "--eq", "22", "--s", "0.3", "--q", "2", "--convention", "twopi", "--out", str(out)]) == 0
    assert run(["funceq", "--eq", "12a", "--s", "0.3", "--variant", "corrected", "--convention", "twopi", "--out", str(out)]) == 0


@pytest.mark.parametrize("text, key, lines", [("eq=12\ns=0.5\ns=0.6\n", "s", (2, 3)), ("mc-samples=10\n# c\nmc_samples=20\n", "mc_samples", (1, 3))])
def test_a_config_key_given_twice_is_a_config_error(tmp_path, capsys, text, key, lines):
    cfg, out = tmp_path / "run.cfg", tmp_path / "r.jsonl"
    cfg.write_text(text)
    assert run(["funceq", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"key {key!r} is given twice, on lines {lines[0]} and {lines[1]}" in err and not out.exists()


def test_a_tolerance_file_key_given_twice_is_a_config_error(tmp_path, capsys, monkeypatch):
    (tmp_path / "heat.tol").write_text("heat-generator=1e-6\nheat-generator=1e-30\n")
    monkeypatch.setenv(cli.TOL_DIR_ENV, str(tmp_path))
    out = tmp_path / "r.jsonl"
    assert run(["heat", "--check", "generator", "--t", "0.5", "--x", "1.0", "--out", str(out)]) == 1
    assert "key 'heat-generator' is given twice, on lines 1 and 2" in capsys.readouterr().err and not out.exists()
