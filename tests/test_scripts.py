"""Smoke tests for the ``scripts/run_*.py`` entry points: each ``main(argv)``
runs in-process on tiny arguments and prints its documented header."""

import importlib.util
import json
import pathlib

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(capsys, name, argv):
    load(name).main(argv)
    return capsys.readouterr().out.splitlines()


def test_run_bound_comparison(capsys):
    lines = run(capsys, "run_bound_comparison", ["--points", "2"])
    assert lines[0] == "sigma,base,method,advantage_bound"
    rows = [ln.split(",") for ln in lines[1:]]
    # 2 sigmas x 3 bases x 4 methods
    assert len(rows) == 24
    assert {r[2] for r in rows} == {"fdp", "zcdp", "rdp-t2", "rdp"}
    assert all(0.0 <= float(r[3]) <= 1.0 for r in rows)


def test_run_pso_comparison(capsys):
    lines = run(capsys, "run_pso_comparison", ["--points", "2"])
    assert lines[0] == "n,epsilon,adv_pso,adv_spso"
    # 2 epsilons x 3 sizes
    assert len(lines) == 7


def test_run_census(capsys):
    lines = run(capsys, "run_census", ["--format", "json"])
    result = json.loads("\n".join(lines))
    assert {"mu", "rho", "worst_case_adv_standard", "worst_case_adv_gaussian",
            "worst_case_adv_closed_form", "worst_case_adv_zcdp"} <= set(result)
    assert result["worst_case_adv_gaussian"] == pytest.approx(
        result["worst_case_adv_closed_form"], abs=1e-12)


def test_run_queries(capsys):
    lines = run(capsys, "run_queries", ["--k-max", "2", "--deltas", "1e-9"])
    assert lines[0] == "delta_std,max_feasible_k_fdp,max_feasible_k_standard"
    # a failed delta prints no row here, only an error line to stderr
    assert len(lines) == 2 and lines[1].startswith("1e-9,")
