"""CLI front end: subcommands, formats, exit codes, determinism."""

import io
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from fdprisk import accountant, calibrate, cli, oracle, tradeoff
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


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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
        baseline=cli.parse_baseline(baseline), method=method,
        bracket=(1.0, 1e3)))
    assert abs(math.log(sigma / ref.noise_scale)) <= 1e-4


@pytest.mark.parametrize("method, sigma", [("eps_delta", 4.93729),
                                           ("fdp", 2.44446)])
def test_calibrate_composed_laplace_from_the_default_bracket(
        capsys, monkeypatch, method, sigma):
    # at the bracket's low end, sigma = 1e-3, one query's risk already
    # exceeds the target, so the two-fold PLD of 2e7 cells (13 s and 2 GB)
    # is never built there, nor at any point up to eps = 100
    curve_of, composed_eps = accountant.curve_of, []

    def spy(spec, grid_step=1e-4):
        if spec.compositions > 1:
            composed_eps.append(spec.sensitivity / spec.noise_scale)
        return curve_of(spec, grid_step)

    monkeypatch.setattr(accountant, "curve_of", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run(capsys, "calibrate", "--family", "laplace",
                        "--target-adv", "0.2", "--compositions", "2",
                        "--methods", method)
    assert code == 0
    assert float(out.splitlines()[1].split(",")[1]) == pytest.approx(
        sigma, abs=5e-6)
    assert composed_eps and max(composed_eps) <= 100.0


def test_calibrate_ten_laplace_queries_from_the_default_bracket_fits_in_3_gb():
    # the ten-fold PLD at sigma = 1e-3 would hold 2e8 cells, a MemoryError
    # under this limit; one query's risk rules that point out, and the
    # command peaks near 40 MB
    import resource

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

    out = subprocess.run(
        [sys.executable, "-m", "fdprisk.cli", "calibrate", "--family",
         "laplace", "--compositions", "10", "--target-adv", "0.2",
         "--baseline", "fixed:0.1"], env=_child_env(), capture_output=True,
        text=True, preexec_fn=limit_memory, timeout=60)
    assert out.returncode == 0 and "Traceback" not in out.stderr, out.stderr
    assert out.stdout.splitlines()[1].startswith("fdp,4.0429380112335851,ok,")


@pytest.mark.parametrize("mechanism, budget", [
    ("family = randomized_response\nnoise_scale = 0.3\ncompositions = "
     "1000000000", accountant.MAX_RR_CELLS),
    ("family = randomized_response\nnoise_scale = 0.3\ncompositions = "
     "20000000", accountant.MAX_RR_CELLS),
    ("family = laplace\nnoise_scale = 5.0\ncompositions = 100000",
     accountant.MAX_CELLS)], ids=["rr-k1e9", "rr-k2e7", "laplace-b5-k1e5"])
def test_composition_past_the_cell_budget_is_config_error(tmp_path,
                                                          mechanism, budget):
    # refused before allocating: the 7.45 GiB randomized-response pmf, the
    # 3.7 GB randomized-response curve at k = 2e7 and the 3 GiB Laplace
    # spectrum each ended in a traceback under this limit
    import resource

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

    cfg = tmp_path / "mechanism.cfg"
    cfg.write_text(f"[mechanism]\n{mechanism}\n")
    out = subprocess.run(
        [sys.executable, "-m", "fdprisk.cli", "tradeoff", "--mechanism",
         str(cfg)], env=_child_env(), capture_output=True, text=True,
        preexec_fn=limit_memory, timeout=60)
    assert out.returncode == 2 and "Traceback" not in out.stderr, out.stderr
    assert f"past the budget of {budget}" in out.stderr


@pytest.mark.parametrize("target", [
    ("--target-succ", "0.6", "--baseline", "bernoulli:0.1", "--methods",
     "fdp"),
    ("--target-adv", "0.05", "--baseline", "pso:5000:2e-5", "--methods",
     "eps_delta")], ids=["fdp-success", "eps_delta-pso"])
def test_composed_laplace_target_no_noise_meets_is_infeasible(capsys, target):
    # the bracket doubles until eps per query is below half the PLD step;
    # the message names the largest noise scale whose risk was evaluated
    code = cli.main(["calibrate", "--family", "laplace", "--compositions",
                     "2", *target])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert "unreachable: risk at noise_scale=16000.0 is still" in err


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


@pytest.mark.parametrize("method", ["fdp", "zcdp", "rdp", "eps_delta"])
def test_bound_pso_row_is_risk_at(tmp_path, capsys, method):
    # bound and calibrate read one pso meaning: the union singling-out bound
    sigma, baseline = 3.0, "pso:5000:2e-5"
    scn = tmp_path / "s.cfg"
    scn.write_text(GAUSS_SCENARIO.replace("noise_scale = 1.0",
                                          f"noise_scale = {sigma!r}")
                   .replace("b1 = fixed:0.25\nb2 = worst_case",
                            f"pso = {baseline}")
                   .replace("fdp, zcdp, rdp-t2", method))
    code, out = run(capsys, "bound", "--scenario", str(scn))
    assert code == 0
    _, _, succ, adv, _ = out.strip().splitlines()[1].split(",", 4)
    for kind, got in (("success", succ), ("advantage", adv)):
        req = CalibrationRequest(family="gaussian", target_kind=kind,
                                 target_value=0.5, method=method,
                                 baseline=cli.parse_baseline(baseline))
        assert float(got) == calibrate.risk_at(req, sigma) < 1.0


def test_methods_list_has_one_reader(tmp_path, capsys):
    assert cli.parse_methods(" fdp, ,rdp-t2,") == [
        ("fdp", "fdp", None), ("rdp-t2", "rdp", 2.0)]
    for bad in (",", "fdp,magic", "rdp-tx"):
        with pytest.raises(tradeoff.ParameterError):
            cli.parse_methods(bad)
    argv = ["calibrate", "--family", "gaussian", "--target-adv", "0.2"]
    assert run(capsys, *argv, "--methods", "fdp,") == \
        run(capsys, *argv, "--methods", "fdp")
    assert run(capsys, *argv, "--methods", ",")[0] == 2


def test_verify_takes_no_format(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--pairs", "1", "--format", "json"])
    assert exc.value.code == 2


def test_calibrate_takes_exactly_one_target(capsys):
    # two targets, or none, are an argparse error: exit 2
    argv = ["calibrate", "--family", "gaussian"]
    for targets in ([], ["--target-adv", "0.2", "--target-succ", "0.6"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + targets)
        assert exc.value.code == 2
    assert "--target-adv" in capsys.readouterr().err


def test_calibrate_randomized_response_rejected(capsys):
    code = cli.main(["calibrate", "--family", "randomized_response",
                     "--target-adv", "0.2", "--baseline", "worst_case"])
    err = capsys.readouterr().err
    assert code == 2
    assert "its parameter is a flip probability, not a noise scale" in err


def _child_env():
    """This environment with the checkout's src first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def _fresh_cli(commands):
    """[exit code, loaded scipy and numpy.ma modules] after ``import
    fdprisk``, after ``import fdprisk.cli`` and after each command, all in
    one fresh interpreter: this one has loaded scipy already. A module stays
    loaded, so a command's list holds those of the commands before it."""
    script = (
        "import contextlib, io, json, sys\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules"
        " if m.partition('.')[0] == 'scipy' or m == 'numpy.ma'"
        " or m.startswith('numpy.ma.'))\n"
        "import fdprisk\n"
        "out = [[None, loaded()]]\n"
        "import fdprisk.cli as cli\n"
        "out.append([None, loaded()])\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        out.append([cli.main(argv), loaded()])\n"
        "print(json.dumps(out))\n")
    out = subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                         env=_child_env(), capture_output=True, text=True,
                         check=True)
    return json.loads(out.stdout)


def test_cli_start_skips_slow_scipy_modules(tmp_path):
    # no command loads any scipy module, nor numpy.ma (numpy's unique does):
    # the package runs on numpy alone, the composed-Laplace envelopes of
    # queries and tradeoff --mechanism on laplace_k3 included
    mechanism = tmp_path / "laplace_k3.cfg"
    mechanism.write_text("[mechanism]\nfamily = laplace\nnoise_scale = 5.0\n"
                         "compositions = 3\n")
    commands = [
        ["tradeoff", "--gaussian-mu", "1"], ["tradeoff", "--epsilon", "1.0"],
        ["bound", "--scenario",
         os.path.join(ROOT, "scenarios", "example_gaussian.cfg")],
        ["calibrate", "--family", "gaussian", "--target-adv", "0.2",
         "--methods", "fdp,zcdp,rdp,eps_delta"],
        ["calibrate", "--family", "gaussian", "--target-adv", "0.2",
         "--methods", "fdp,zcdp,rdp", "--baseline", "bernoulli:0.5"],
        ["tradeoff", "--mechanism",
         os.path.join(ROOT, "tests", "golden", "rr_k18.cfg")],
        ["queries", "--k-max", "4"], ["verify"],
        ["tradeoff", "--epsilon", "1.0", "--delta", "1e-5"],
        ["tradeoff", "--laplace-eps", "1.0"],
        ["tradeoff", "--mechanism", str(mechanism)],
        ["bound", "--scenario",
         os.path.join(ROOT, "scenarios", "census_state.cfg")]]
    steps = _fresh_cli(commands)
    assert steps == [[None, []]] * 2 + [[0, []]] * len(commands)


_CORE = ["fdprisk", "fdprisk._special", "fdprisk.cli", "fdprisk.tradeoff"]
_BOUNDS = ["fdprisk.accountant", "fdprisk.calibrate", "fdprisk.prior_bounds",
           "fdprisk.risk"]


@pytest.mark.parametrize("argv, layers", [
    (["bound", "--scenario", "scenarios/example_gaussian.cfg"], _BOUNDS),
    (["tradeoff", "--gaussian-mu", "1.0"], []),
    (["tradeoff", "--epsilon", "1.0", "--delta", "1e-5"], []),
    (["tradeoff", "--mechanism", "tests/golden/laplace_k3.cfg"],
     ["fdprisk.accountant"]),
    (["calibrate", "--family", "gaussian", "--methods", "fdp,zcdp,rdp",
      "--target-adv", "0.2", "--baseline", "fixed:0.1"], _BOUNDS),
    (["verify", "--seed", "3"], ["fdprisk.oracle", "fdprisk.risk"]),
    # the closed-form sources load no accountant, through a flag or a
    # [mechanism] key: the section text below is written to a file
    (["tradeoff", "--laplace-eps", "1.0"], []),
    (["tradeoff", "--epsilon", "1.0"], []),
    (["tradeoff", "--mechanism", "mu = 1.0"], []),
    (["tradeoff", "--mechanism", "laplace_eps = 1.0"], []),
    (["tradeoff", "--mechanism", "epsilon = 1.0"], []),
], ids=["bound", "tradeoff-mu", "tradeoff-eps-delta", "tradeoff-mechanism",
        "calibrate", "verify", "tradeoff-laplace-eps", "tradeoff-eps",
        "mechanism-mu", "mechanism-laplace-eps", "mechanism-eps"])
def test_cold_command_loads_only_its_layers(tmp_path, argv, layers):
    # each command of the cold-start benchmark, in a fresh interpreter:
    # the fdprisk modules loaded once main returns
    if " = " in argv[-1]:
        cfg = tmp_path / "mechanism.cfg"
        cfg.write_text(f"[mechanism]\n{argv[-1]}\n")
        argv = [*argv[:-1], str(cfg)]
    script = ("import contextlib, io, json, sys\n"
              "from fdprisk import cli\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    code = cli.main(sys.argv[1:])\n"
              "print(json.dumps([code, sorted(m for m in sys.modules"
              " if m.partition('.')[0] == 'fdprisk')]))\n")
    out = subprocess.run([sys.executable, "-c", script, *argv], cwd=ROOT,
                         env=_child_env(), capture_output=True, text=True,
                         check=True)
    assert json.loads(out.stdout) == [0, sorted(_CORE + layers)]


def test_package_names_resolve_lazily():
    # import fdprisk loads no submodule (nor numpy); each public name is
    # its submodule's own object, and a star import binds exactly __all__
    script = ("import sys, fdprisk\n"
              "print(sorted(m for m in sys.modules if m == 'numpy'"
              " or m.partition('.')[0] == 'fdprisk'))\n")
    out = subprocess.run([sys.executable, "-c", script], env=_child_env(),
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["['fdprisk']"]
    import fdprisk
    for name in fdprisk.__all__:
        obj = getattr(fdprisk, name)
        assert getattr(sys.modules[obj.__module__], name) is obj, name
    namespace = {}
    exec("from fdprisk import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == fdprisk.__all__
    assert set(fdprisk.__all__) <= set(dir(fdprisk))
    with pytest.raises(AttributeError):
        fdprisk.no_such_name


def test_tradeoff_missing_source_is_config_error(capsys):
    # the message names the curve flags to give
    code = cli.main(["tradeoff"])
    err = capsys.readouterr().err
    assert code == 2
    assert all(flag in err for flag in ("--gaussian-mu", "--laplace-eps",
                                        "--rr-p", "--epsilon", "--profile",
                                        "--curve")), err


def test_tradeoff_profile_file(tmp_path, capsys):
    prof = tmp_path / "prof.csv"
    prof.write_text("epsilon,delta\n0,0.5\n1,0.1\n2,0.01\n")
    code, out = run(capsys, "tradeoff", "--profile", str(prof))
    assert code == 0
    assert out.startswith("alpha,f\n")


def test_tradeoff_profile_of_20000_rows_fits_in_3_gb(tmp_path):
    # the envelope's knot values take O(rows) memory: a (knots x lines)
    # matrix here would be 34,146^2 doubles, 9.3 GB
    import resource
    g = tradeoff.gaussian_curve(1.0)
    prof = tmp_path / "gaussian_20000.csv"
    eps = np.linspace(0.0, 8.5, 20000).tolist()
    prof.write_text("epsilon,delta\n" + "".join(
        f"{e!r},{g.delta(e)!r}\n" for e in eps))

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

    out = subprocess.run(
        [sys.executable, "-m", "fdprisk.cli", "tradeoff", "--profile",
         str(prof)], env=_child_env(), capture_output=True, text=True,
        preexec_fn=limit_memory, timeout=60)
    assert out.returncode == 0 and "Traceback" not in out.stderr, out.stderr
    assert out.stdout.startswith("alpha,f\n")
    assert len(out.stdout.splitlines()) > 1000


def test_malformed_csv_files_exit_2(tmp_path, capsys):
    # a one-column file, a NaN alpha and an alpha past 1: exit 2 with a
    # message from every reader of a curve or profile file
    texts = {"one_column": "alpha,f\n0.1\n0.5\n",
             "nan_alpha": "0,1\nnan,0.5\n1,0\n",
             "alpha_past_one": "0,1\n1.5,0\n"}
    for name, text in texts.items():
        csv = tmp_path / f"{name}.csv"
        csv.write_text(text)
        scn = tmp_path / f"{name}.cfg"
        scn.write_text(f"[mechanism]\ncurve_file = {csv}\n"
                       "[baselines]\nb = fixed:0.1\n[methods]\nmethods = fdp\n")
        argvs = [("tradeoff", "--curve", str(csv)),
                 ("bound", "--scenario", str(scn))]
        if name == "one_column":
            argvs.append(("tradeoff", "--profile", str(csv)))
        for argv in argvs:
            code = cli.main(list(argv))
            err = capsys.readouterr().err
            assert code == 2, (argv, err)
            assert err.startswith("error: ")


def test_tradeoff_mechanism_spec_file(tmp_path, capsys):
    section = {"family": "laplace", "noise_scale": "5.0",
               "sensitivity": "1.0", "compositions": "3",
               "neighborhood": "replace-one"}
    spec = accountant.MechanismSpec("laplace", 5.0, 1.0, 3, "replace-one")
    path = tmp_path / "mech.cfg"
    path.write_text("[mechanism]\n" + "".join(f"{k} = {v}\n"
                                              for k, v in section.items()))
    assert cli._source(cli._read_config(str(path))["mechanism"])[1] == spec
    code, out = run(capsys, "tradeoff", "--mechanism", str(path))
    assert code == 0
    want = io.StringIO()
    tradeoff.curve_to_csv(accountant.curve_of(spec), want)
    assert out == want.getvalue()


def test_tradeoff_mechanism_file_errors(tmp_path, capsys):
    texts = {
        "no_scale": "[mechanism]\nfamily = gaussian\n",
        "bad_scale": "[mechanism]\nfamily = gaussian\nnoise_scale = x\n",
        "percent": "[mechanism]\nfamily = gaussian\nnoise_scale = 5%\n",
        "bad_epsilon": "[mechanism]\nepsilon = x\n",
        "malformed": "[mechanism\nfamily = gaussian\n",
        "no_section": "[DEFAULT]\nfamily = gaussian\nnoise_scale = 1\n",
    }
    paths = [str(tmp_path / "missing.cfg")]
    for name, text in texts.items():
        (tmp_path / name).write_text(text)
        paths.append(str(tmp_path / name))
    for path in paths:
        # one reader for both commands: exit 2 with a message, no exception
        for argv in (("tradeoff", "--mechanism", path),
                     ("bound", "--scenario", path)):
            code = cli.main(list(argv))
            err = capsys.readouterr().err
            assert code == 2, (argv, err)
            assert err.startswith("error: ")


def test_tradeoff_mechanism_takes_scenario_section(capsys):
    path = os.path.join(ROOT, "scenarios", "census_state.cfg")
    code, out = run(capsys, "tradeoff", "--mechanism", path)
    assert code == 0
    assert out == run(capsys, "tradeoff", "--epsilon", "10.6",
                      "--delta", "1e-10")[1]


# one minimal [mechanism] section of each curve source, and the tradeoff
# flags of the same curve ({dir} is where the CSV files are written)
_SOURCES = {
    "spec": ({"family": "gaussian", "noise_scale": "2.0"}, None),
    "epsilon": ({"epsilon": "1.0", "delta": "1e-5"},
                ["--epsilon", "1.0", "--delta", "1e-5"]),
    "mu": ({"mu": "0.75"}, ["--gaussian-mu", "0.75"]),
    "laplace_eps": ({"laplace_eps": "0.5"}, ["--laplace-eps", "0.5"]),
    "rr_p": ({"rr_p": "0.25"}, ["--rr-p", "0.25"]),
    "profile_file": ({"profile_file": "{dir}/profile.csv"},
                     ["--profile", "{dir}/profile.csv"]),
    "curve_file": ({"curve_file": "{dir}/curve.csv"},
                   ["--curve", "{dir}/curve.csv"]),
}
# each tradeoff curve flag and its value, by its key
_FLAGS = {key: flags[2 * i:2 * i + 2] for section, flags in _SOURCES.values()
          if flags for i, key in enumerate(section)}


def _scenario(tmp_path, section: dict, head: str = "") -> str:
    """A scenario file of ``section`` as its [mechanism], with the CSV
    files its keys may name."""
    (tmp_path / "profile.csv").write_text("epsilon,delta\n0,0.5\n1,0.1\n"
                                          "2,0.01\n")
    (tmp_path / "curve.csv").write_text("alpha,f\n0,1\n0.2,0.5\n1,0\n")
    path = tmp_path / "scenario.cfg"
    path.write_text(head + "[mechanism]\n" + "".join(
        f"{k} = {v.format(dir=tmp_path)}\n" for k, v in section.items())
        + "[baselines]\nw = worst_case\n[methods]\nmethods = fdp\n")
    return str(path)


def _refused(capsys, argv, *names):
    """cli.main(argv) exits 2 with a message naming each of ``names``;
    returns the message."""
    code = cli.main(list(argv))
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: "), (argv, err)
    assert all(name in err for name in names), (argv, err)
    return err


@pytest.mark.parametrize("source", sorted(_SOURCES))
def test_every_source_refuses_a_stray_key(tmp_path, capsys, source):
    # a key no source reads, and a key of another source (compositions
    # beside a bare epsilon, curve_file beside a spec): exit 2, naming it
    other = "curve_file" if source == "spec" else "compositions"
    for key in ("sensitivty", other):
        path = _scenario(tmp_path, {**_SOURCES[source][0], key: "3"})
        for argv in (("tradeoff", "--mechanism", path),
                     ("bound", "--scenario", path)):
            _refused(capsys, argv, key)


def test_default_section_keys_are_mechanism_keys(tmp_path, capsys):
    # configparser leaks [DEFAULT] into every section, [mechanism] too
    path = _scenario(tmp_path, {"mu": "1"}, head="[DEFAULT]\nname = x\n")
    for argv in (("tradeoff", "--mechanism", path),
                 ("bound", "--scenario", path)):
        _refused(capsys, argv, "name")


def test_misspelt_spec_keys_are_refused(tmp_path, capsys):
    path = _scenario(tmp_path, {"family": "gaussian", "noise_scale": "1",
                                "sensitivty": "2", "composition": "4"})
    _refused(capsys, ["bound", "--scenario", path], "sensitivty",
             "composition")
    path = _scenario(tmp_path, {"family": "gaussian"})
    _refused(capsys, ["tradeoff", "--mechanism", path], "noise_scale")
    # an empty section is told the keys it may use
    path = _scenario(tmp_path, {})
    _refused(capsys, ["tradeoff", "--mechanism", path], "family", "mu",
             "curve_file")


def test_every_pair_of_curve_flags_is_refused(tmp_path, capsys):
    _scenario(tmp_path, {})  # the CSV files
    keys = sorted(_FLAGS)
    for i, a in enumerate(keys):
        for b in keys[i + 1:]:
            if {a, b} == {"epsilon", "delta"}:
                continue
            argv = ["tradeoff", *_FLAGS[a], *_FLAGS[b]]
            # named by the flags as typed, not by their keys
            err = _refused(capsys, [v.format(dir=tmp_path) for v in argv],
                           _FLAGS[a][0], _FLAGS[b][0])
            assert "_file" not in err and "(mu)" not in err, err


def test_mechanism_beside_a_curve_flag_is_refused(tmp_path, capsys):
    path = _scenario(tmp_path, {"mu": "1"})
    for flag in _FLAGS.values():
        _refused(capsys, ["tradeoff", "--mechanism", path,
                          *(v.format(dir=tmp_path) for v in flag)], flag[0])


def test_delta_without_epsilon_is_refused(capsys):
    _refused(capsys, ["tradeoff", "--delta", "1e-5"], "--delta", "--epsilon")


@pytest.mark.parametrize("source", sorted(set(_SOURCES) - {"spec"}))
def test_each_curve_flag_is_its_mechanism_key(tmp_path, capsys, source):
    section, flags = _SOURCES[source]
    path = _scenario(tmp_path, section)
    code, out = run(capsys, "tradeoff", "--mechanism", path)
    assert code == 0 and out.startswith("alpha,f\n")
    assert run(capsys, "tradeoff",
               *(v.format(dir=tmp_path) for v in flags)) == (0, out)


@pytest.mark.parametrize("baseline", [
    "fixed:0.1:9", "worst_case:0.3", "bernoulli:0.5:x", "spso:1e-4:2",
    "pso:5000:2e-4:1", "pso:5000", "fixed", "magic:1"])
def test_baseline_descriptor_fields_are_exact(tmp_path, capsys, baseline):
    # a field the kind does not read, or one it needs, is refused
    _refused(capsys, ["calibrate", "--family", "gaussian", "--target-adv",
                      "0.2", "--baseline", baseline], repr(baseline))
    scn = tmp_path / "bad.cfg"
    scn.write_text(f"[mechanism]\nmu = 1\n[baselines]\nbad = {baseline}\n"
                   "[methods]\nmethods = fdp\n")
    _refused(capsys, ["bound", "--scenario", str(scn)], repr(baseline))


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


def test_calibrate_keeps_the_methods_that_answer(capsys):
    # rdp at order 2 cannot reach advantage 0.2 at the worst case: its row
    # says so with empty numbers, and so does every ratio to it; fdp answers
    code = cli.main(["calibrate", "--family", "gaussian", "--target-adv", "0.2",
                     "--methods", "rdp-t2,fdp"])
    out, err = capsys.readouterr()
    assert code == 3
    assert err.startswith("infeasible target: ")
    lines = out.splitlines()
    assert lines[1] == "rdp-t2,,infeasible,,"
    method, sigma, status, achieved, ratio = lines[2].split(",")
    assert (method, status, ratio) == ("fdp", "ok", "")
    assert float(achieved) <= 0.2 and float(sigma) > 0.0


@pytest.mark.parametrize("k_max", ["0", "-3"])
def test_queries_without_k_is_config_error(capsys, k_max):
    code, out = run(capsys, "queries", "--k-max", k_max)
    assert code == 2
    assert out == ""


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


def test_verify_injected_violation_fails(capsys, monkeypatch):
    bad = tradeoff.TradeoffCurve(provenance="injected",
                                 knots=np.array([[0.0, 1.0], [0.5, 0.1],
                                                 [0.6, 0.4], [1.0, 0.0]]))
    monkeypatch.setattr(oracle, "exact_tradeoff", lambda pair: bad)
    code, out = run(capsys, "verify", "--pairs", "5")
    assert code == 4
    # each pair's invariant, TV and soundness failures in turn, then one
    # summary line per check
    bad_shape = "not non-increasing; knot slopes decrease (non-convex)"
    assert out.splitlines() == [
        f"FAIL pair 0: {bad_shape}",
        "FAIL pair 0: TV mismatch",
        "FAIL pair 0: attack success 0.8429193566783234 exceeds bound "
        "0.7919099414576969",
        f"FAIL pair 1: {bad_shape}",
        "FAIL pair 1: TV mismatch",
        "FAIL pair 1: attack success 0.8242154493339656 exceeds bound "
        "0.669602057513846",
        f"FAIL pair 2: {bad_shape}",
        "FAIL pair 2: TV mismatch",
        "FAIL pair 2: attack success 0.7359523089513902 exceeds bound "
        "0.6073713014260349",
        f"FAIL pair 3: {bad_shape}",
        "FAIL pair 3: TV mismatch",
        f"FAIL pair 4: {bad_shape}",
        "FAIL pair 4: TV mismatch",
        "FAIL curve invariants (0/5)",
        "FAIL TV consistency (0/5)",
        "FAIL attack-success soundness (2/5)",
        "FAIL randomized-response tightness (gap -5.00e-02)",
        "VERIFICATION FAILED"]


_EDGE_INPUTS = [
    ("queries", "--b", "0", "--k-max", "2"),
    ("queries", "--base", "2"),
    ("queries", "--delta-std", "0"),
    ("queries", "--sensitivity", "0"),
    ("queries", "--k-max", "0"),
    ("queries", "--k-max", "-3"),
    ("tradeoff", "--gaussian-mu", "1", "--grid-points", "-5"),
    ("tradeoff", "--laplace-eps", "nan"),
    ("tradeoff", "--gaussian-mu", "inf"),
    ("verify", "--pairs", "0"),
    ("verify", "--pairs", "-1"),
    ("calibrate", "--family", "gaussian", "--target-adv", "0.1",
     "--compositions", "0"),
    ("calibrate", "--family", "gaussian", "--target-adv", "0.1",
     "--methods", "eps_delta", "--delta", "nan"),
    # rho = (sensitivity / sigma)^2 k / 2 overflows a float
    ("calibrate", "--family", "gaussian", "--target-adv", "0.2",
     "--methods", "zcdp", "--sensitivity", "1e200"),
    ("bound", "--scenario", "tiny_noise.cfg"),
    # (t - 1)/t rounds to 1
    ("calibrate", "--family", "gaussian", "--target-adv", "0.2",
     "--methods", "rdp-t1e16"),
    ("verify", "--seed", "-1"),
    # explicit RDP orders whose epsilon warned before the order was refused
    ("bound", "--scenario", "laplace_rdp_tinf.cfg"),
    ("bound", "--scenario", "gaussian_rdp_t1e308.cfg"),
    # the default bracket's low end has no eps up to 1e6 at this delta
    ("calibrate", "--family", "gaussian", "--methods", "eps_delta",
     "--compositions", "3", "--target-adv", "0.2"),
]
# scenario files the edge inputs name, written to the working directory
with open(os.path.join(ROOT, "tests", "golden", "laplace_k3.cfg")) as _fh:
    _LAPLACE_K3 = _fh.read()
_EDGE_SCENARIOS = {
    "tiny_noise.cfg": GAUSS_SCENARIO.replace("noise_scale = 1.0",
                                             "noise_scale = 1e-200"),
    "laplace_rdp_tinf.cfg": _LAPLACE_K3.replace(
        "methods = fdp, rdp, eps_delta", "methods = fdp, rdp-tinf"),
    "gaussian_rdp_t1e308.cfg": GAUSS_SCENARIO.replace(
        "noise_scale = 1.0", "noise_scale = 0.5").replace(
        "fdp, zcdp, rdp-t2", "fdp, rdp-t1e308")}


@pytest.mark.parametrize("argv", _EDGE_INPUTS, ids=" ".join)
def test_edge_inputs_exit_with_a_code(capsys, tmp_path, monkeypatch, argv):
    # an input the parser accepts ends in a documented exit code, never in
    # an exception escaping main
    for name, text in _EDGE_SCENARIOS.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert cli.main(list(argv)) in (0, 2, 3, 4)


@pytest.mark.parametrize("pairs", ["0", "-1"])
def test_verify_without_pairs_is_config_error(capsys, pairs):
    code, out = run(capsys, "verify", "--pairs", pairs)
    assert code == 2
    assert "PASSED" not in out


def test_gaussian_eps_delta_default_bracket_answers(capsys):
    # at sigma = 1e-3 no eps up to 1e6 meets delta, so the bound there is
    # vacuous, and the calibration answers
    code, out = run(capsys, "calibrate", "--family", "gaussian", "--methods",
                    "eps_delta", "--compositions", "3", "--target-adv", "0.2")
    assert code == 0
    assert out.splitlines()[1].startswith("eps_delta,14.7626")


def test_overflow_and_rounding_edges_exit_codes(capsys):
    # rho overflows to inf: every bound is vacuous, so the target is
    # infeasible; an order whose (t - 1)/t rounds to 1 and a negative seed
    # are config errors
    gauss = ("calibrate", "--family", "gaussian", "--target-adv", "0.2")
    assert run(capsys, *gauss, "--methods", "zcdp",
               "--sensitivity", "1e200")[0] == 3
    assert run(capsys, *gauss, "--methods", "rdp-t1e16")[0] == 2
    assert run(capsys, "verify", "--seed", "-1")[0] == 2


def test_bound_randomized_response_many_compositions(tmp_path, capsys):
    # at p = 0.3, k = 4000 the eps_delta rows read eps off the curve's own
    # delta(eps); the knots alone give delta = 1 at every eps
    scn = tmp_path / "rr.cfg"
    scn.write_text(GAUSS_SCENARIO.replace("family = gaussian",
                                          "family = randomized_response")
                   .replace("noise_scale = 1.0", "noise_scale = 0.3")
                   .replace("compositions = 1", "compositions = 4000")
                   .replace("fdp, zcdp, rdp-t2", "fdp, eps_delta"))
    code, out = run(capsys, "bound", "--scenario", str(scn))
    assert code == 0
    rows = [ln.split(",") for ln in out.strip().splitlines()[1:]]
    assert [r[0] for r in rows] == ["fdp", "eps_delta"] * 2
    assert "error:" not in out
    assert all(0.0 <= float(r[3]) <= 1.0 for r in rows)


def test_output_dir_env_var(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    code, _ = run(capsys, "tradeoff", "--epsilon", "1", "--output", "out.csv")
    assert code == 0
    assert (tmp_path / "out.csv").read_text().startswith("alpha,f\n")


def test_output_paths_without_or_past_the_dir_env_var(tmp_path, monkeypatch,
                                                      capsys):
    # an absolute path ignores the variable; a relative one without it
    # lands in the working directory
    out_dir, work = tmp_path / "env", tmp_path / "work"
    out_dir.mkdir()
    work.mkdir()
    monkeypatch.chdir(work)
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(out_dir))
    assert run(capsys, "tradeoff", "--epsilon", "1", "--output",
               str(tmp_path / "abs.csv")) == (0, "")
    monkeypatch.delenv(cli.OUTPUT_DIR_ENV)
    assert run(capsys, "verify", "--pairs", "1", "--output", "rel.txt") == \
        (0, "")
    assert (tmp_path / "abs.csv").read_text().startswith("alpha,f\n")
    assert (work / "rel.txt").read_text().endswith("VERIFICATION PASSED\n")
    assert list(out_dir.iterdir()) == []
