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


def _bench_row(side, seed, trace, ops, p50, calls, tail=0.0, by_group=None):
    return {"side": side, "workload": "w", "seed": seed, "trace": trace,
            "notes": {"timed_ops": ops, "op_s_by_group": by_group or {}},
            "correct": True, "failed": 0,
            "metrics": ({"x.calls": {"value": calls}} if trace else
                        {"op_p50_s": {"value": p50, "unit": "s"},
                         "op_tail_s": {"value": tail, "unit": "s"}})}


def test_bench_compare_summarize_synthetic_rows():
    # two groups; the median 1.4e-3 falls between the ops 1.3e-3 and
    # 1.5e-3 and is read as the lower one's group
    two = {"a": [1.0e-3, 1.5e-3, 3.0e-3], "b": [1.3e-3, 2.0e-3, 4.0e-3]}
    rows = [_bench_row("parent", 1, 0, 368, 1.4e-3, 0, 3.0e-3, two),
            _bench_row("change", 1, 0, 920, 0.8e-3, 0, 0.8e-3, {"a": [0.8e-3]}),
            _bench_row("change", 2, 0, 368, 0.7e-3, 0, 0.7e-3, {"b": [0.7e-3]}),
            _bench_row("parent", 2, 0, 276, 0.6e-3, 0, 0.6e-3, {"a": [0.6e-3]}),
            _bench_row("parent", 1, 1, 10, 0.0, 19),
            _bench_row("change", 1, 1, 10, 0.0, 19)]
    got = load("bench_compare").summarize(
        rows, {"op_p50_s": "lower", "op_tail_s": "lower"})["w"]
    assert got["pairs"] == 2
    assert got["timed_ops"] == {"parent": [368, 276], "change": [920, 368]}
    assert got["groups_at"]["parent"] == [
        {"op_tail_s": "a", "op_p50_s": "b"},
        {"op_tail_s": "a", "op_p50_s": "a"}]
    assert got["groups_at"]["change"][1] == {"op_tail_s": "b", "op_p50_s": "b"}
    p50 = got["end_to_end"]["op_p50_s"]
    assert p50["change_wins"] == 1  # pair 1 only
    assert p50["parent"]["values"] == [1.4e-3, 0.6e-3]
    assert p50["change"]["median"] == pytest.approx(0.75e-3)
    assert got["correct"] == {"parent": True, "change": True}
    assert got["failed"] == {"parent": 0, "change": 0}
    assert got["traced"]["change"] == {"x.calls": 19}
