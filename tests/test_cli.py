"""CLI front end: subcommands, formats, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from fdprisk import calibrate, cli
from fdprisk.calibrate import CalibrationRequest

GAUSS_SCENARIO = """
[scenario]
name = demo

[mechanism]
family = gaussian
noise_scale = 1.0
sensitivity = 1.0
compositions = 1

[baselines]
b1 = fixed:0.25
b2 = worst_case

[methods]
methods = fdp, zcdp, rdp-t2
"""

CENSUS_SCENARIO = """
[scenario]
name = census-state

[mechanism]
epsilon = 10.6
delta = 1e-10

[baselines]
worst = worst_case

[methods]
methods = fdp
"""


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_tradeoff_identity_rows(capsys):
    code, out = run(capsys, "tradeoff", "--epsilon", "0", "--delta", "0",
                    "--grid-points", "11")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "alpha,f"
    for row in lines[1:]:
        a, f = map(float, row.split(","))
        assert f == pytest.approx(1.0 - a, abs=1e-15)


def test_tradeoff_gaussian_json(capsys):
    code, out = run(capsys, "tradeoff", "--gaussian-mu", "0.75",
                    "--grid-points", "51", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    from scipy.stats import norm
    for knot in payload["knots"][1:-1]:
        want = norm.cdf(norm.isf(knot["alpha"]) - 0.75)
        assert knot["f"] == pytest.approx(want, abs=1e-12)


def test_tradeoff_determinism(capsys):
    _, out1 = run(capsys, "tradeoff", "--laplace-eps", "0.2")
    _, out2 = run(capsys, "tradeoff", "--laplace-eps", "0.2")
    assert out1 == out2


@pytest.mark.parametrize("source", ["--epsilon", "--laplace-eps"])
def test_tradeoff_large_epsilon_no_overflow(capsys, source):
    # e^800 overflows a float; it is taken as inf, which only lowers f
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run(capsys, "tradeoff", source, "800",
                        "--grid-points", "11")
    assert code == 0
    rows = [tuple(map(float, r.split(","))) for r in out.split()[1:]]
    assert rows[0] == (0.0, 1.0)
    assert all(f == 0.0 for _, f in rows[1:])


@pytest.mark.parametrize("family, method, baseline", [
    ("laplace", "fdp", "fixed:0.1"),  # eps = 1000 at the bracket's low end
    ("gaussian", "eps_delta", "worst_case"),  # eps doubled past 709
])
def test_calibrate_default_bracket_no_overflow(capsys, family, method,
                                               baseline):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run(capsys, "calibrate", "--family", family,
                        "--methods", method, "--target-adv", "0.15",
                        "--baseline", baseline)
    assert code == 0
    sigma = float(out.splitlines()[1].split(",")[1])
    # the same calibration from a bracket that never reaches large eps
    ref = calibrate.calibrate_noise(CalibrationRequest(
        family=family, target_kind="advantage", target_value=0.15,
        baseline=cli.parse_baseline(baseline)[1], method=method,
        bracket=(1.0, 1e3)))
    assert abs(math.log(sigma / ref.noise_scale)) <= 1e-4


def test_bound_pso_large_epsilon_no_overflow(tmp_path, capsys):
    # e^800 overflows: the (eps, delta) singling-out bound is vacuous at
    # w > 0 and n * delta at w = 0
    scn = tmp_path / "e.cfg"
    scn.write_text(CENSUS_SCENARIO.replace("10.6", "800")
                   .replace("1e-10", "1e-6")
                   .replace("worst = worst_case",
                            "pso = pso:5000:2e-4\nzero = pso:5000:0")
                   .replace("methods = fdp", "methods = eps_delta"))
    code = cli.main(["bound", "--scenario", str(scn)])
    out, err = capsys.readouterr()
    assert code == 0
    assert "Traceback" not in err
    rows = [r.split(",") for r in out.strip().splitlines()[1:]]
    assert float(rows[0][2]) == 1.0
    assert float(rows[1][2]) == pytest.approx(5000 * 1e-6, rel=1e-15)


def test_calibrate_randomized_response_rejected(capsys):
    code = cli.main(["calibrate", "--family", "randomized_response",
                     "--target-adv", "0.2", "--baseline", "worst_case"])
    err = capsys.readouterr().err
    assert code == 2
    assert "its parameter is a flip probability, not a noise scale" in err


def test_cli_start_skips_slow_scipy_modules():
    # a fresh interpreter: this one has loaded scipy.stats already
    script = (
        "import contextlib, io, sys\n"
        "import fdprisk.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['bound', '--scenario', sys.argv[1]])\n"
        "print(code, sorted({'scipy.stats', 'scipy.signal', 'scipy.optimize'}"
        " & set(sys.modules)))\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run(
        [sys.executable, "-c", script,
         os.path.join(root, "scenarios", "example_gaussian.cfg")],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0 []"


def test_tradeoff_missing_source_is_config_error(capsys):
    code, _ = run(capsys, "tradeoff")
    assert code == 2


def test_tradeoff_profile_file(tmp_path, capsys):
    prof = tmp_path / "prof.csv"
    prof.write_text("epsilon,delta\n0,0.5\n1,0.1\n2,0.01\n")
    code, out = run(capsys, "tradeoff", "--profile", str(prof))
    assert code == 0
    assert out.startswith("alpha,f\n")


def test_bound_scenario_table(tmp_path, capsys):
    scn = tmp_path / "s.cfg"
    scn.write_text(GAUSS_SCENARIO)
    code, out = run(capsys, "bound", "--scenario", str(scn))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "method,baseline,success_bound,advantage_bound,params"
    assert len(lines) == 1 + 6  # 2 baselines x 3 methods
    # dominance ordering at base 0.25
    advs = {row.split(",")[0]: float(row.split(",")[3])
            for row in lines[1:4]}
    assert advs["fdp"] <= advs["zcdp"] <= advs["rdp-t2"]


def test_bound_census_standard_analysis(tmp_path, capsys):
    scn = tmp_path / "c.cfg"
    scn.write_text(CENSUS_SCENARIO)
    code, out = run(capsys, "bound", "--scenario", str(scn))
    assert code == 0
    adv = float(out.strip().splitlines()[1].split(",")[3])
    want = (math.exp(10.6) - 1 + 2e-10) / (math.exp(10.6) + 1)
    assert adv == pytest.approx(want, abs=1e-9)
    assert adv > 0.99


def test_bound_incompatible_rows_marked(tmp_path, capsys):
    scn = tmp_path / "s.cfg"
    scn.write_text(CENSUS_SCENARIO.replace("methods = fdp",
                                           "methods = fdp, zcdp"))
    code, out = run(capsys, "bound", "--scenario", str(scn))
    assert code == 0  # one row succeeded
    assert "error:" in out


def test_bound_all_rows_failing_is_error(tmp_path, capsys):
    scn = tmp_path / "s.cfg"
    scn.write_text(CENSUS_SCENARIO.replace("methods = fdp", "methods = zcdp"))
    code, _ = run(capsys, "bound", "--scenario", str(scn))
    assert code == 2


def test_bound_missing_scenario(capsys):
    code, _ = run(capsys, "bound", "--scenario", "/nonexistent.cfg")
    assert code == 2


def test_calibrate_ratio_report(capsys):
    code, out = run(capsys, "calibrate", "--family", "gaussian",
                    "--target-adv", "0.15", "--baseline", "worst_case",
                    "--methods", "fdp,zcdp", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["method"] == "fdp"
    from scipy.stats import norm
    assert payload[0]["noise_scale"] == pytest.approx(
        1 / (2 * norm.ppf(0.575)), rel=1e-3)
    assert payload[1]["ratio_to_first"] > 1.0


def test_calibrate_trivial_flag(capsys):
    code, out = run(capsys, "calibrate", "--family", "gaussian",
                    "--target-adv", "1.0", "--baseline", "worst_case",
                    "--methods", "fdp")
    assert code == 0
    assert ",trivial," in out


def test_calibrate_infeasible_exit_code(capsys):
    code, _ = run(capsys, "calibrate", "--family", "gaussian",
                  "--target-adv", "1e-7", "--baseline", "fixed:0.5",
                  "--methods", "rdp-t2")
    assert code == 3


def test_queries_small_run(capsys):
    code, out = run(capsys, "queries", "--b", "5", "--k-max", "3",
                    "--base", "0.1", "--target-adv", "0.2",
                    "--delta-std", "1e-9", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["rows"]) == 3
    # single query: both paths nearly exact and close to each other
    r1 = payload["rows"][0]
    assert r1["adv_fdp"] == pytest.approx(r1["adv_standard"], abs=1e-3)
    # advantage grows with composition
    advs = [r["adv_fdp"] for r in payload["rows"]]
    assert advs == sorted(advs)


def test_queries_trivial_target(capsys):
    code, out = run(capsys, "queries", "--b", "5", "--k-max", "2",
                    "--target-adv", "1.0", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert all(r["feasible_fdp"] and r["feasible_standard"]
               for r in payload["rows"])


def test_verify_passes(capsys):
    code, out = run(capsys, "verify", "--pairs", "50")
    assert code == 0
    assert "VERIFICATION PASSED" in out


def test_verify_injected_violation_fails(capsys):
    code, out = run(capsys, "verify", "--pairs", "5", "--inject-violation")
    assert code == 4
    assert "VERIFICATION FAILED" in out


def test_output_dir_env_var(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    code, _ = run(capsys, "tradeoff", "--epsilon", "1", "--output", "out.csv")
    assert code == 0
    assert (tmp_path / "out.csv").read_text().startswith("alpha,f\n")
