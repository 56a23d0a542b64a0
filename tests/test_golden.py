"""Golden CLI outputs: every command below must reproduce its stdout bytes
and exit code exactly.

Each command runs in-process through ``cli.main``. Its golden file
``tests/golden/<name>.out`` holds one ``# exit <code>`` line and then the
stdout bytes. Regenerate every file with

    PYTHONPATH=src python tests/test_golden.py

which rewrites and names only the files whose bytes changed, and give the
cause of any diff in CHANGES.md.
"""

import contextlib
import io
import pathlib

import pytest

from fdprisk import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"

GAUSS = str(ROOT / "scenarios" / "example_gaussian.cfg")
CENSUS = str(ROOT / "scenarios" / "census_state.cfg")
LAPLACE_K3 = str(GOLDEN / "laplace_k3.cfg")
RR_K18 = str(GOLDEN / "rr_k18.cfg")
EPS_DELTA = str(GOLDEN / "eps_delta.cfg")
RR_P = str(GOLDEN / "rr_p.cfg")


def _calibrate_gaussian(k, baseline, methods="fdp,zcdp,rdp"):
    return ["calibrate", "--family", "gaussian", "--target-adv", "0.2",
            "--baseline", baseline, "--methods", methods,
            "--compositions", str(k)]


COMMANDS = {
    "bound_gaussian_csv": ["bound", "--scenario", GAUSS],
    "bound_gaussian_json": ["bound", "--scenario", GAUSS, "--format", "json"],
    "bound_census_csv": ["bound", "--scenario", CENSUS],
    "bound_census_json": ["bound", "--scenario", CENSUS, "--format", "json"],
    "bound_laplace_k3_csv": ["bound", "--scenario", LAPLACE_K3],
    # a bare (epsilon, delta) pair: its zcdp rows are error rows
    "bound_eps_delta_csv": ["bound", "--scenario", EPS_DELTA],
    "bound_eps_delta_json": ["bound", "--scenario", EPS_DELTA,
                             "--format", "json"],
    # the curve's provenance holds a comma: its params field writes it as ';'
    "bound_rr_p_csv": ["bound", "--scenario", RR_P],
    # rdp-t2 is vacuous at every baseline here but spso. At pso:5000:2e-4,
    # w = 1/n, the union singling-out success is at least n w = 1 at every
    # noise scale: no method answers, so no table, and exit 3
    **{f"calibrate_gaussian_k{k}_{name}": _calibrate_gaussian(k, baseline)
       for k in (1, 3)
       for name, baseline in (("worst_case", "worst_case"),
                              ("fixed", "fixed:0.1"),
                              ("bernoulli", "bernoulli:0.5"),
                              ("pso", "pso:5000:2e-4"),
                              ("pso_w2e-5", "pso:5000:2e-5"))},
    **{f"calibrate_gaussian_k{k}_spso": _calibrate_gaussian(
        k, "spso:1e-4", "fdp,zcdp,rdp,rdp-t2") for k in (1, 3)},
    "calibrate_laplace_k3_rdp_worst_case": [
        "calibrate", "--family", "laplace", "--target-adv", "0.2",
        "--baseline", "worst_case", "--methods", "rdp", "--compositions", "3"],
    "calibrate_gaussian_spso_json": [
        "calibrate", "--family", "gaussian", "--target-adv", "0.2",
        "--baseline", "spso:1e-4", "--methods", "fdp,zcdp,rdp-t2",
        "--format", "json"],
    # rdp-t2 cannot reach advantage 0.2 at the worst case: its row is
    # infeasible, the other two answer, exit 3
    **{f"calibrate_gaussian_partial_{fmt}": [
        "calibrate", "--family", "gaussian", "--target-adv", "0.2",
        "--methods", "fdp,zcdp,rdp-t2", "--format", fmt]
       for fmt in ("csv", "json")},
    "queries_k18": ["queries", "--k-max", "18"],
    "queries_k4_json": ["queries", "--k-max", "4", "--format", "json"],
    "verify": ["verify"],
    "tradeoff_gaussian_mu1": ["tradeoff", "--gaussian-mu", "1"],
    "tradeoff_gaussian_mu1_json": ["tradeoff", "--gaussian-mu", "1",
                                   "--format", "json"],
    "tradeoff_laplace_k3": ["tradeoff", "--mechanism", LAPLACE_K3],
    "tradeoff_rr_k18": ["tradeoff", "--mechanism", RR_K18],
    # any scenario's [mechanism] section: the (epsilon, delta) curve
    "tradeoff_census_mechanism": ["tradeoff", "--mechanism", CENSUS],
}


def run_command(argv) -> str:
    """``# exit <code>`` and the stdout of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return f"# exit {code}\n" + out.getvalue()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_output(name):
    want = (GOLDEN / f"{name}.out").read_text()
    assert run_command(COMMANDS[name]) == want


@pytest.mark.parametrize("name", sorted(
    n for n in COMMANDS if "json" not in n and n != "verify"))
def test_golden_csv_rows_have_header_fields(name):
    """Every CSV data row has as many fields as its header. Lines that start
    with '#' (the exit code, a summary) are not rows."""
    text = (GOLDEN / f"{name}.out").read_text()
    header, *rows = [ln.count(",") for ln in text.splitlines()
                     if not ln.startswith("#")] or [0]
    assert rows == [header] * len(rows)


if __name__ == "__main__":
    changed = 0
    for name, argv in COMMANDS.items():
        path = GOLDEN / f"{name}.out"
        text = run_command(argv)
        if not path.exists() or path.read_text() != text:
            path.write_text(text)
            changed += 1
            print(f"changed {name}")
    print(f"{changed} of {len(COMMANDS)} goldens changed")
