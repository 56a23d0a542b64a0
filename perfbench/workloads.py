"""The three benchmark workloads: their inputs, how one op runs, its checks.

Every workload draws its ops from a fixed input pool whose reference outputs
``record_refs.py`` recorded into ``refs.json``. The seed picks pool
entries, so any seed gives inputs that have a reference. A round holds a
fixed number of entries of each group in a fixed order, so every round has
the same input mix; see NOTES.md for why each workload and group is there.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import time

import numpy as np

WORK_DIR = os.path.join("perfbench", ".work")
SHIM = os.path.join("perfbench", "cli_shim.py")
CLI_OK_EXITS = (0, 2, 3, 4)

# a bound may be at most this much looser than its reference
LOOSER_TOL = 1e-9
# alphas at which curves are compared with their reference
REF_ALPHAS = np.concatenate([[0.0], np.logspace(-8, 0, 64)])

# compose_query: the fixed query set answered on every curve
BASES = (1e-4, 0.01, 0.1, 0.25)
EPSILONS = (0.5, 1.0, 2.0)
BAYES_PI = 0.5
STD_DELTA = 1e-9  # as `fdprisk queries` --delta-std
STD_BASE = 0.1  # as `fdprisk queries` --base

# calibrate_mix: timed cases carry this bracket. The default (1e-3, 1e3)
# crashes for Laplace and for Gaussian eps_delta (ROADMAP item 3); those
# default-bracket cases run once per run as known-defect probes instead.
TIMED_BRACKET = (0.1, 1000.0)
TOLERANCE = 1e-4

# spreads the groups' offsets in a round's order evenly over [0, 1)
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclasses.dataclass
class Op:
    """One benchmark op: an input drawn from the pool and its reference."""

    kind: str
    params: dict
    ref: dict | None = None
    probe: bool = False
    group: str = ""

    @property
    def label(self) -> str:
        args = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.kind}({args})"


@dataclasses.dataclass
class Outcome:
    seconds: float
    value: object = None
    error: str | None = None
    exit_code: int | None = None
    stdout: str = ""
    stderr: str = ""
    maxrss_kb: int = 0
    import_share: float | None = None
    importtime: dict | None = None


# --------------------------------------------------------------------------
# shared checks

def curve_violations(alphas, betas, tol: float = LOOSER_TOL) -> list[str]:
    """Trade-off curve invariants on sampled points or knots."""
    a = np.asarray(alphas, dtype=float)
    b = np.asarray(betas, dtype=float)
    errs = []
    if a.size < 2 or np.any(np.diff(a) <= 0):
        errs.append("alphas not strictly increasing")
        return errs
    if np.any(b < -tol) or np.any(b > 1.0 + tol):
        errs.append("f outside [0, 1]")
    if np.any(b - (1.0 - a) > tol):
        errs.append("f(alpha) > 1 - alpha")
    if np.any(np.diff(b) > tol):
        errs.append("f increasing")
    # convex: every point at or below the chord of its neighbours
    w = (a[1:-1] - a[:-2]) / (a[2:] - a[:-2])
    chord = b[:-2] + w * (b[2:] - b[:-2])
    if np.any(b[1:-1] - chord > tol):
        errs.append("f not convex")
    return errs


def _sample_grid() -> np.ndarray:
    half = np.logspace(-12, math.log10(0.5), 1000)
    return np.unique(np.concatenate([[0.0], half, 1.0 - half[::-1], [1.0]]))


def curve_points(f) -> tuple[np.ndarray, np.ndarray]:
    """Knots of a piecewise curve, or samples of an analytic one."""
    if f.knots is not None:
        return f.knots[:, 0], f.knots[:, 1]
    grid = _sample_grid()
    return grid, np.asarray(f(grid), dtype=float)


def not_looser(name: str, new, ref, lower_is_tighter: bool = True) -> list[str]:
    """Bounds may be tighter than the reference, never looser by > tol."""
    new = np.atleast_1d(np.asarray(new, dtype=float))
    ref = np.atleast_1d(np.asarray(ref, dtype=float))
    if new.shape != ref.shape or not np.all(np.isfinite(new)):
        return [f"{name}: malformed {new.tolist()}"]
    gap = (new - ref) if lower_is_tighter else (ref - new)
    if np.any(gap > LOOSER_TOL):
        return [f"{name}: {new.tolist()} looser than reference {ref.tolist()}"]
    return []


def sigma_violations(label: str, sigma: float, achieved: float, target: float,
                     ref_sigma: float, tol: float) -> list[str]:
    errs = []
    if not (sigma > 0 and math.isfinite(sigma)):
        return [f"{label}: sigma {sigma!r} invalid"]
    if abs(math.log(sigma) - math.log(ref_sigma)) > tol + 1e-12:
        errs.append(f"{label}: sigma {sigma!r} outside tolerance of "
                    f"reference {ref_sigma!r}")
    if not achieved <= target + 1e-12:
        errs.append(f"{label}: achieved risk {achieved!r} > target {target!r}")
    return errs


# --------------------------------------------------------------------------
# workloads

class Workload:
    name = ""
    in_process = True
    # group -> entries per round
    plan: dict[str, int] = {}
    trace_rounds = 1

    def __init__(self, pool: dict | None = None):
        self.pool = pool or {"entries": [], "probes": []}
        self._by_group: dict[str, list[Op]] = {}
        for e in self.pool["entries"]:
            self._by_group.setdefault(e["group"], []).append(
                Op(e["kind"], e["params"], e["ref"], group=e["group"]))
        # per group, the pool indices not yet drawn in this pass
        self._unused: dict[str, list[int]] = {}

    def round(self, rng: np.random.Generator) -> list[Op]:
        """One round: the plan's count of entries per group. Each group
        draws its pool in passes, each pass a permutation of the pool that
        the seed picks, so a run uses every entry about equally often and
        its medians do not hang on which entries the seed happened to pick
        more often (with independent draws, compose_query's `op_p50_s`
        spread 0.13 over ten seeds).

        The ops come in one order, the same at every seed, with each
        group's ops spread evenly over the round: the j-th of a group's n
        ops sits at (j + u) / n, with u a fixed offset per group. So the
        effects of one op on the next (heap, caches) do not depend on the
        seed, and each kind of op is timed at moments spread over the whole
        run rather than at one."""
        keyed = []
        for k, (group, count) in enumerate(self.plan.items()):
            entries = self._by_group[group]
            unused = self._unused.setdefault(group, [])
            offset = (k * GOLDEN) % 1.0
            for j in range(count):
                if not unused:
                    unused.extend(rng.permutation(len(entries)).tolist())
                keyed.append(((j + offset) / count, entries[unused.pop()]))
        keyed.sort(key=lambda pair: pair[0])
        return [op for _, op in keyed]

    def probes(self) -> list[Op]:
        return [Op(p["kind"], p["params"], p["ref"], probe=True)
                for p in self.pool["probes"]]

    def prepare(self, op: Op):
        """Untimed input preparation for one op."""
        return None

    def execute(self, op: Op, trace_path: str | None = None) -> Outcome:
        """Run one op; only its call is timed. In-process ops are traced by
        an installed Tracer, so ``trace_path`` is used by cli_cold only."""
        prep = self.prepare(op)
        t0 = time.perf_counter()
        try:
            value = self.call(op, prep)
        except Exception as exc:  # the op failed; the run goes on
            return Outcome(time.perf_counter() - t0,
                           error=f"{type(exc).__name__}: {exc}")
        return Outcome(time.perf_counter() - t0, value=value)

    def call(self, op: Op, prep):
        raise NotImplementedError

    def check(self, op: Op, outcome: Outcome) -> list[str]:
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError


def gaussian_profile(mu: float, rows: int):
    """A user's privacy-profile table: the Gaussian-mu profile on `rows`
    evenly spaced epsilons, out to where delta is below 1e-15."""
    from scipy.special import ndtr
    eps = np.linspace(0.0, mu * mu / 2.0 + 8.0 * mu, rows)
    with np.errstate(over="ignore", invalid="ignore"):
        delta = ndtr(-eps / mu + mu / 2.0) - np.exp(eps) * ndtr(-eps / mu - mu / 2.0)
    return eps, np.clip(np.nan_to_num(delta), 0.0, 1.0)


class ComposeQuery(Workload):
    """Build one curve per op and answer the fixed query set on it."""

    name = "compose_query"
    # the percentiles should fall inside clusters of like ops, not in the
    # gaps between them (times at the defining commit). Six of a round's
    # 19 ops (rr and the two smaller profiles) take under 0.1 s and the
    # Laplace ops over 0.1 s, so with six Laplace ops the median op is one
    # of them. The 5,000-row profiles, about 0.45 s each, come six times,
    # so the op with 10 slower ones beyond it is one of them whether a run
    # is 2, 3 or 4 rounds. With two a round, it was the smallest of them or
    # a drawn smaller profile, and spread 0.09 over ten seeds; with five, a
    # run that ended after 2 rounds instead of 3 had it among the smaller
    # profiles.
    plan = {"laplace": 6, "rr": 4, "profile0": 1, "profile1": 1,
            "profile2": 1, "profile3": 6}
    trace_rounds = 2

    def prepare(self, op):
        if op.kind != "profile":
            return None
        from fdprisk import tradeoff
        eps, delta = gaussian_profile(op.params["mu"], op.params["rows"])
        return tradeoff.PrivacyProfile.from_points(eps, delta)

    def call(self, op, prep):
        from fdprisk import accountant, prior_bounds, risk, tradeoff
        p = op.params
        if op.kind == "laplace":
            f = accountant.curve_of(accountant.MechanismSpec(
                "laplace", p["b"], compositions=p["k"]))
        elif op.kind == "rr":
            f = accountant.curve_of(accountant.MechanismSpec(
                "randomized_response", p["p"], compositions=p["k"]))
        else:
            f = tradeoff.curve_from_profile(prep)
        out = {"adv": [risk.adv_bound(f, b) for b in BASES],
               "succ": [risk.succ_bound(f, b) for b in BASES],
               "adv_wc": risk.adv_bound_worst_case(f),
               "delta": [tradeoff.delta_for_epsilon(f, e) for e in EPSILONS],
               "bayes": risk.bayes_error(f, BAYES_PI)}
        if op.kind == "laplace":
            # the comparison `fdprisk queries` prints beside each curve
            eps_g, _ = prior_bounds.optimal_composition_pure(
                1.0 / p["b"], p["k"], STD_DELTA)
            f_std = tradeoff.curve_from_epsilon_delta(eps_g, STD_DELTA)
            out["eps_std"] = eps_g
            out["adv_std"] = risk.adv_bound(f_std, STD_BASE)
        return f, out

    def reference(self, op, outcome):
        f, out = outcome.value
        return {"f": np.asarray(f(REF_ALPHAS)).tolist(), **out}

    def check(self, op, outcome):
        if outcome.error:
            return [outcome.error]
        f, out = outcome.value
        errs = curve_violations(*curve_points(f))
        ref = op.ref
        if ref is None:  # known-defect probe: no reference at this commit
            vals = [*out["adv"], *out["succ"], out["adv_wc"], *out["delta"],
                    out["bayes"]]
            if not all(0.0 <= v <= 1.0 for v in vals):
                errs.append(f"query value outside [0, 1]: {vals}")
            return errs
        errs += not_looser("f", f(REF_ALPHAS), ref["f"], lower_is_tighter=False)
        for key in ("adv", "succ", "adv_wc", "delta", "eps_std", "adv_std"):
            if key in ref:
                errs += not_looser(key, out.get(key, np.nan), ref[key])
        errs += not_looser("bayes", out["bayes"], ref["bayes"],
                           lower_is_tighter=False)
        return errs

    def warmup(self):
        self.call(Op("laplace", {"b": 5.0, "k": 2}), None)


def calibration_request(p: dict):
    """The request behind a calibrate_mix op; TIMED_BRACKET unless the
    params name a bracket."""
    from fdprisk.calibrate import CalibrationRequest
    from fdprisk.risk import BaselineSpec
    kind = p["baseline"]
    if kind == "fixed":
        baseline = BaselineSpec.fixed(p["base"])
    elif kind == "bernoulli":
        baseline = BaselineSpec.bernoulli(p["pi"])
    else:
        baseline = BaselineSpec.worst_case()
    return CalibrationRequest(
        family=p["family"], target_kind="advantage", target_value=p["target"],
        baseline=baseline, method=p["method"], rdp_order=p.get("rdp_order"),
        compositions=p.get("k", 1), tolerance=TOLERANCE,
        bracket=tuple(p.get("bracket", TIMED_BRACKET)))


class CalibrateMix(Workload):
    """One calibrate_noise call per op, over family x method x baseline."""

    name = "calibrate_mix"
    # every combination once per round, and some more often, so that the
    # percentiles fall inside clusters of like ops rather than in the gaps
    # between them (times at the defining commit). The eleven closed-form
    # cases, under 5 ms each, come three times or more: 28 ops of a round
    # take under 2 ms, the 36 Gaussian rdp ops at fixed and Bernoulli
    # baselines about 2 ms, and 28 more, so the median op is one of those
    # 36, with many like ops close to it.
    # Gaussian eps_delta at the fixed baseline, about 0.25 s, comes
    # eleven times, so the op with 10 slower ones beyond it is one of those
    # eleven and not one of the five over 1 s.
    plan = {f"gaussian/{m}/{b}": 1
            for m in ("fdp", "zcdp", "rdp", "rdp-t2", "eps_delta")
            for b in ("worst_case", "fixed", "bernoulli")}
    plan.update({f"laplace/{m}/{b}": 1
                 for m in ("fdp-k1", "fdp-composed", "rdp", "eps_delta")
                 for b in ("fixed", "worst_case")})
    plan.update({"gaussian/fdp/fixed": 3, "gaussian/fdp/worst_case": 3,
                 "gaussian/zcdp/fixed": 6, "gaussian/zcdp/bernoulli": 6,
                 "gaussian/rdp/fixed": 18, "gaussian/rdp/bernoulli": 18,
                 "gaussian/rdp-t2/fixed": 3, "gaussian/rdp-t2/bernoulli": 3,
                 "laplace/fdp-k1/fixed": 3, "laplace/fdp-k1/worst_case": 4,
                 "laplace/rdp/fixed": 3, "gaussian/eps_delta/fixed": 11})
    # groups with one input instead of a draw, each for the metric its
    # draw moved: Laplace eps_delta at the worst-case baseline is half a
    # round's time, 7.2 s or 9.6 s for two targets in one run, so it set
    # ops_per_s and the number of rounds in a run; the two composed
    # Laplace curves set peak_rss_mb, which moved between 407 and 498 MB
    # with their targets and k; and the eleven Gaussian eps_delta ops that
    # hold op_tail_s took 0.15-0.33 s across their targets
    single_input = ("laplace/eps_delta/worst_case",
                    "laplace/fdp-composed/fixed",
                    "laplace/fdp-composed/worst_case",
                    "gaussian/eps_delta/fixed")

    def call(self, op, prep):
        from fdprisk import calibrate
        return calibrate.calibrate_noise(calibration_request(op.params))

    def reference(self, op, outcome):
        r = outcome.value
        return {"sigma": r.noise_scale, "status": r.status,
                "achieved": r.achieved_risk}

    def check(self, op, outcome):
        if outcome.error:
            return [outcome.error]
        r, ref = outcome.value, op.ref
        # a probe runs at the default bracket; its reference used
        # TIMED_BRACKET, and both bisections end within TOLERANCE of the root
        tol = 2 * TOLERANCE if op.probe else TOLERANCE
        errs = sigma_violations(op.label, r.noise_scale, r.achieved_risk,
                                op.params["target"], ref["sigma"], tol)
        if not op.probe and r.status != ref["status"]:
            errs.append(f"status {r.status!r} != reference {ref['status']!r}")
        return errs

    def warmup(self):
        self.call(Op("calibrate", {"family": "gaussian", "method": "fdp",
                                   "baseline": "bernoulli", "pi": 0.5,
                                   "target": 0.2}), None)


# --------------------------------------------------------------------------
# cli_cold

def child_env() -> dict:
    """This process's environment with the checkout's src first on the path."""
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def parse_importtime(stderr: str) -> tuple[dict, str]:
    """Cumulative import seconds by module from ``-X importtime`` lines,
    and stderr without those lines."""
    cumulative, rest = {}, []
    for line in stderr.splitlines():
        if line.startswith("import time:"):
            parts = line[len("import time:"):].split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(),
                                      int(parts[1]) / 1e6)
        else:
            rest.append(line)
    return cumulative, "\n".join(rest)


def _csv_floats(text: str, header: str) -> np.ndarray:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != header:
        raise ValueError(f"missing header {header!r}")
    return np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])


def parse_bound(text: str) -> dict:
    """Bound CSV rows by (method, baseline label) -> numeric fields as text."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "method,baseline,success_bound,advantage_bound,params":
        raise ValueError("missing bound CSV header")
    rows = {}
    for ln in lines[1:]:
        method, base, succ, adv, params = ln.split(",", 4)
        label = dict(kv.split("=", 1) for kv in params.split(";")
                     if "=" in kv)["baseline"]
        rows[f"{method}|{label}"] = [base, succ, adv]
    return rows


def parse_calibrate(text: str) -> dict:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "method,noise_scale,status,achieved_risk,ratio_to_first":
        raise ValueError("missing calibrate CSV header")
    out = {}
    for ln in lines[1:]:
        method, sigma, status, achieved, _ = ln.split(",")
        out[method] = {"sigma": float(sigma), "status": status,
                       "achieved": float(achieved)}
    return out


def parse_verify(text: str) -> list[str]:
    """Verification line names, without their numbers."""
    return [ln.split("(")[0].strip() for ln in text.splitlines() if ln.strip()]


class CliCold(Workload):
    """Each op is a fresh `python -m fdprisk.cli ...` process."""

    name = "cli_cold"
    in_process = False
    # the command list twice, so a run holds 14 ops and op_tail_s, the
    # 11th largest, is not the single slowest op, whose spread over seeds
    # was 0.10 with one pass of 7
    plan = {"bound": 4, "tradeoff_mu": 2, "tradeoff_epsdelta": 2,
            "tradeoff_mechanism": 2, "calibrate": 2, "verify": 2}

    @staticmethod
    def argv(op: Op) -> list[str]:
        p = op.params
        if op.kind == "bound":
            return ["bound", "--scenario", p["scenario"]]
        if op.kind == "tradeoff_mu":
            return ["tradeoff", "--gaussian-mu", repr(p["mu"])]
        if op.kind == "tradeoff_epsdelta":
            argv = ["tradeoff", "--epsilon", repr(p["epsilon"])]
            if "delta" in p:
                argv += ["--delta", repr(p["delta"])]
            return argv
        if op.kind == "tradeoff_mechanism":
            return ["tradeoff", "--mechanism", CliCold.mechanism_path(p)]
        if op.kind == "calibrate":
            return ["calibrate", "--family", "gaussian", "--methods",
                    "fdp,zcdp,rdp", "--target-adv", repr(p["target"]),
                    "--baseline", p["baseline"]]
        if op.kind == "verify":
            return ["verify", "--seed", str(p["seed"])]
        raise ValueError(op.kind)

    @staticmethod
    def mechanism_path(p: dict) -> str:
        return os.path.join(WORK_DIR, f"laplace_b{p['b']!r}_k{p['k']}.cfg")

    def prepare(self, op):
        if op.kind == "tradeoff_mechanism":
            path = self.mechanism_path(op.params)
            os.makedirs(WORK_DIR, exist_ok=True)
            with open(path, "w") as fh:
                fh.write("[mechanism]\nfamily = laplace\n"
                         f"noise_scale = {op.params['b']!r}\n"
                         f"sensitivity = 1.0\ncompositions = {op.params['k']}\n")
        return None

    def execute(self, op: Op, trace_path: str | None = None) -> Outcome:
        self.prepare(op)
        os.makedirs(WORK_DIR, exist_ok=True)
        if trace_path is None:
            cmd = [sys.executable, "-m", "fdprisk.cli", *self.argv(op)]
        else:
            cmd = [sys.executable, "-X", "importtime", SHIM, trace_path,
                   *self.argv(op)]
        out_path = os.path.join(WORK_DIR, "cli.stdout")
        err_path = os.path.join(WORK_DIR, "cli.stderr")
        with open(out_path, "w") as fout, open(err_path, "w") as ferr:
            t_spawn = time.monotonic()
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=fout, stderr=ferr,
                                    env=child_env())
            # wait4 reaps the child and returns its own peak RSS
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - t0
            t_exit = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path) as fh:
            stdout = fh.read()
        with open(err_path) as fh:
            stderr = fh.read()
        outcome = Outcome(seconds, exit_code=proc.returncode, stdout=stdout,
                          stderr=stderr, maxrss_kb=usage.ru_maxrss)
        if trace_path is not None:
            outcome.importtime, outcome.stderr = parse_importtime(stderr)
            try:
                with open(trace_path) as fh:
                    dump = json.load(fh)
            except (OSError, ValueError):
                dump = None
            if dump is not None:
                outcome.value = dump
                outcome.import_share = ((dump["t_imported"] - t_spawn)
                                        / (t_exit - t_spawn))
        return outcome

    def reference(self, op, outcome):
        ref = {"exit": outcome.exit_code}
        if op.kind == "bound":
            ref["rows"] = parse_bound(outcome.stdout)
        elif op.kind.startswith("tradeoff"):
            knots = _csv_floats(outcome.stdout, "alpha,f")
            ref["f"] = np.interp(REF_ALPHAS, knots[:, 0], knots[:, 1]).tolist()
            ref["sha256"] = hashlib.sha256(outcome.stdout.encode()).hexdigest()
        elif op.kind == "calibrate":
            ref["rows"] = parse_calibrate(outcome.stdout)
        elif op.kind == "verify":
            ref["lines"] = parse_verify(outcome.stdout)
        return ref

    def check(self, op, outcome):
        errs = []
        if outcome.exit_code not in CLI_OK_EXITS:
            errs.append(f"exit code {outcome.exit_code}")
        if "Traceback" in outcome.stderr:
            errs.append("traceback: " + outcome.stderr.strip().splitlines()[-1])
        if errs:
            return errs
        ref = op.ref
        if ref is not None and outcome.exit_code != ref["exit"]:
            return [f"exit code {outcome.exit_code} != reference {ref['exit']}"]
        try:
            if op.kind == "bound":
                errs += self._check_bound(op, parse_bound(outcome.stdout))
            elif op.kind.startswith("tradeoff"):
                knots = _csv_floats(outcome.stdout, "alpha,f")
                errs += curve_violations(knots[:, 0], knots[:, 1])
                if ref is not None:
                    f = np.interp(REF_ALPHAS, knots[:, 0], knots[:, 1])
                    errs += not_looser("f", f, ref["f"], lower_is_tighter=False)
                    sha = hashlib.sha256(outcome.stdout.encode()).hexdigest()
                    if op.kind == "tradeoff_mu" and sha != ref["sha256"]:
                        errs.append("Gaussian closed-form curve differs "
                                    "from reference")
            elif op.kind == "calibrate":
                rows = parse_calibrate(outcome.stdout)
                for method, r in ref["rows"].items():
                    new = rows.get(method)
                    if new is None:
                        errs.append(f"missing method {method}")
                        continue
                    errs += sigma_violations(method, new["sigma"],
                                             new["achieved"], op.params["target"],
                                             r["sigma"], TOLERANCE)
            elif op.kind == "verify":
                lines = parse_verify(outcome.stdout)
                if lines != ref["lines"] or lines[-1] != "VERIFICATION PASSED":
                    errs.append(f"verification output {lines}")
        except (ValueError, KeyError, IndexError) as exc:
            errs.append(f"unparseable output: {exc}")
        return errs

    @staticmethod
    def _check_bound(op, rows: dict) -> list[str]:
        errs = []
        exact = op.params["scenario"].endswith("example_gaussian.cfg")
        for key, (base, succ, adv) in op.ref["rows"].items():
            new = rows.get(key)
            if new is None:
                errs.append(f"missing row {key}")
                continue
            if succ == "":  # reference row was an error row
                continue
            if new[1] == "" or new[0] != base:
                errs.append(f"row {key}: {new} vs reference {[base, succ, adv]}")
                continue
            if exact and key.startswith("fdp|") and new != [base, succ, adv]:
                errs.append(f"row {key}: Gaussian closed form {new} differs "
                            f"from reference {[base, succ, adv]}")
            errs += not_looser(key, [float(new[1]), float(new[2])],
                               [float(succ), float(adv)])
        return errs

    def warmup(self):
        from fdprisk import cli
        cli.main(["tradeoff", "--gaussian-mu", "1.0", "--output", os.devnull])


WORKLOADS = {w.name: w for w in (CliCold, ComposeQuery, CalibrateMix)}
