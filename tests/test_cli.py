import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from oracle import gaussian_zeta_definite
from pvzeta import cli, heatflow, phspace, quad, testfn, zeta
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
    # checked in a fresh interpreter; the three callers that import scipy
    # on first use (QUADPACK, expm, erf) must then work from that cold start
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
    with pytest.raises(SystemExit) as exc:
        run(["heat", "--check", "bogus", "--t", "0.5"])
    assert exc.value.code == 2
    argv = ["heat", "--check", "semigroup", "--t", "0.5", "--s", "0.25"]
    assert run([*argv, "--out", str(tmp_path / "in.jsonl")]) == 0
    proc = _fresh_run([*argv, "--out", str(tmp_path / "fresh.jsonl")])
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "in.jsonl").read_bytes() == (tmp_path / "fresh.jsonl").read_bytes()


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_suite_runs_alike_warm_and_fresh(tmp_path):
    # the second run meets warm caches (cutoffs, rules, transforms) and the
    # parser of the first; all three reports must be the same bytes (the
    # suite's expected roundoff IntegrationWarning is not what is checked)
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


def test_unknown_suite_exits_one():
    assert run(["suite", "bogus"]) == 1


def test_suite_refuses_tol(tmp_path, capsys):
    # one tolerance cannot fit every row; PVZETA_TOL_DIR sets them per check
    out = tmp_path / "r.jsonl"
    assert run(["suite", "quick", "--tol", "1e-300", "--out", str(out)]) == 1
    assert "PVZETA_TOL_DIR" in capsys.readouterr().err
    assert not out.exists()


def test_seed_required_for_montecarlo():
    assert run(["probe", "--what", "scaling"]) == 1
    assert run(["probe", "--what", "scaling", "--seed", "1", "--alphas", "0"]) == 1


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
    # argparse types --q; a config file passes it through as text
    cfg.write_text("eq=12\ns=0.5\nq=abc\n")
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
    # absurdly tight tolerance forces a failure on a correct identity
    (told / "funceq.tol").write_text("funceq-eq12=1e-30\n")
    monkeypatch.setenv(cli.TOL_DIR_ENV, str(told))
    out = tmp_path / "r.jsonl"
    status = run(["funceq", "--eq", "12", "--s", "0.5", "--testfn", "gaussian:a=3.14159,n=1", "--out", str(out)])
    assert status == 2


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
    # Eq12a and Eq22 take n from the first test function
    assert run(["funceq", "--eq", eq, "--s", "0.3", "--testfn", ";"]) == 1
    assert "config error: --testfn names no test function" in capsys.readouterr().err


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
    monkeypatch.setitem(cli.SUITES, "quick", (("heat-kernel-identity", lambda seed: [1 / 0]),))
    with pytest.raises(ZeroDivisionError):
        run(["suite", "quick"])
