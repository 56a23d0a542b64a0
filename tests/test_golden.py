"""Golden CLI outputs: every command below must reproduce its stdout bytes
and exit code exactly.

Each command runs in-process through ``cli.main``. Its golden file
``tests/golden/<name>.out`` holds one ``# exit <code>`` line and then the
stdout bytes. Regenerate every file with

    PYTHONPATH=src python tests/test_golden.py

and give the cause of any diff in CHANGES.md.
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
    # rdp-t2 is vacuous at every baseline here but spso, where the whole
    # command would otherwise exit 3
    **{f"calibrate_gaussian_k{k}_{name}": _calibrate_gaussian(k, baseline)
       for k in (1, 3)
       for name, baseline in (("worst_case", "worst_case"),
                              ("fixed", "fixed:0.1"),
                              ("bernoulli", "bernoulli:0.5"),
                              ("pso", "pso:5000:2e-4"))},
    **{f"calibrate_gaussian_k{k}_spso": _calibrate_gaussian(
        k, "spso:1e-4", "fdp,zcdp,rdp,rdp-t2") for k in (1, 3)},
    "calibrate_laplace_k3_rdp_worst_case": [
        "calibrate", "--family", "laplace", "--target-adv", "0.2",
        "--baseline", "worst_case", "--methods", "rdp", "--compositions", "3"],
    "queries_k18": ["queries", "--k-max", "18"],
    "verify": ["verify"],
    "tradeoff_gaussian_mu1": ["tradeoff", "--gaussian-mu", "1"],
    "tradeoff_laplace_k3": ["tradeoff", "--mechanism", LAPLACE_K3],
    "tradeoff_rr_k18": ["tradeoff", "--mechanism", RR_K18],
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


if __name__ == "__main__":
    for name, argv in COMMANDS.items():
        (GOLDEN / f"{name}.out").write_text(run_command(argv))
        print(f"wrote {name}")
