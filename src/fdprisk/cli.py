"""Command-line front end.

Subcommands: ``tradeoff`` (emit curve knots), ``bound`` (risk-bound tables),
``calibrate`` (noise calibration), ``queries`` (Laplace query-count case
study), ``verify`` (brute-force oracle corpus). Output is CSV by default,
``--format json`` as alternative. Exit codes: 0 success, 2 parse/config
error, 3 infeasible calibration, 4 verification failure. Each command
imports the layers it runs when it runs, so a cold process loads no more.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import tradeoff
from .tradeoff import ParameterError, TradeoffCurve

OUTPUT_DIR_ENV = "FDPRISK_OUTPUT_DIR"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_VERIFY = 4


def _emit(args, lines: list[str], payload=None) -> None:
    """Print the lines, or the payload as JSON under ``--format json``, to
    stdout or to ``--output``: a relative path resolves under
    $FDPRISK_OUTPUT_DIR when that is set, an absolute one is used as given."""
    if getattr(args, "format", None) == "json":
        import json
        lines = [json.dumps(payload, indent=2)]
    text = "\n".join(lines) + "\n"
    if args.output is None:
        sys.stdout.write(text)
        return
    with open(os.path.join(os.environ.get(OUTPUT_DIR_ENV, ""), args.output),
              "w") as fh:
        fh.write(text)


def _table(fields: tuple[str, ...], rows: list[tuple]):
    """CSV lines (the header, then numbers at 17 significant digits, None
    as an empty field) and JSON records of the same rows."""
    lines = [",".join(fields)]
    lines += [",".join("" if v is None else v if isinstance(v, str)
                       else f"{v:.17g}" for v in row) for row in rows]
    return lines, [dict(zip(fields, row)) for row in rows]


# --------------------------------------------------------------------------
# tradeoff

def _curve_from_args(args) -> TradeoffCurve:
    if args.gaussian_mu is not None:
        return tradeoff.gaussian_curve(args.gaussian_mu)
    if args.laplace_eps is not None:
        return tradeoff.laplace_curve(args.laplace_eps)
    if args.rr_p is not None:
        from .accountant import randomized_response_curve
        return randomized_response_curve(args.rr_p)
    if args.epsilon is not None:
        return tradeoff.curve_from_epsilon_delta(args.epsilon, args.delta or 0.0)
    if args.profile is not None:
        with open(args.profile) as fh:
            return tradeoff.curve_from_profile(tradeoff.profile_from_csv(fh))
    if args.curve is not None:
        with open(args.curve) as fh:
            return tradeoff.curve_from_csv(fh)
    if args.mechanism is not None:
        return _mechanism(_read_config(args.mechanism))[0]
    raise ParameterError(
        "specify a curve source: --gaussian-mu, --laplace-eps, --rr-p, "
        "--epsilon [--delta], --profile, --curve, or --mechanism")


def cmd_tradeoff(args) -> int:
    curve = _curve_from_args(args)
    grid = (None if curve.is_piecewise
            else tradeoff.default_alpha_grid(args.grid_points))
    if args.format == "json":
        _emit(args, [], {"provenance": curve.provenance,
                         "knots": [{"alpha": a, "f": b} for a, b
                                   in curve.as_knots(grid).tolist()]})
    else:
        rows: list[str] = []  # curve_to_csv writes a newline-ended row a call
        out = argparse.Namespace(write=lambda row: rows.append(row[:-1]))
        tradeoff.curve_to_csv(curve, out, grid)
        _emit(args, rows)
    return EXIT_OK


# --------------------------------------------------------------------------
# bound

def parse_baseline(text: str) -> BaselineSpec:
    """Parse ``fixed:0.1`` / ``pso:5000:2e-4`` / ``spso:1e-4`` /
    ``bernoulli:0.5`` / ``worst_case`` baseline descriptors."""
    from .risk import BaselineSpec
    parts = text.strip().split(":")
    kind = parts[0].strip().lower()
    try:
        if kind == "fixed":
            return BaselineSpec.fixed(float(parts[1]))
        if kind == "pso":
            return BaselineSpec.pso_weight(int(parts[1]), float(parts[2]))
        if kind == "spso":
            # the simple singling-out weight w is a fixed baseline w
            return BaselineSpec.fixed(float(parts[1]))
        if kind == "bernoulli":
            return BaselineSpec.bernoulli(float(parts[1]))
        if kind == "worst_case":
            return BaselineSpec.worst_case()
    except (IndexError, ValueError) as exc:
        raise ParameterError(f"bad baseline {text!r}: {exc}") from None
    raise ParameterError(f"unknown baseline kind in {text!r}")


def parse_methods(text: str) -> list[tuple[str, str, float | None]]:
    """A comma list of methods -> (label, method, rdp_order) per non-empty
    token; ``rdp-t2`` pins the RDP order."""
    from .calibrate import METHODS
    methods = []
    for label in filter(None, map(str.strip, text.split(","))):
        m = label.lower()
        if m.startswith("rdp-t"):
            try:
                methods.append((label, "rdp", float(m[5:])))
            except ValueError:
                raise ParameterError(f"bad RDP order in {label!r}") from None
        elif m in METHODS:
            methods.append((label, m, None))
        else:
            raise ParameterError(f"unknown method {label!r}")
    if not methods:
        raise ParameterError(f"no method in {text!r}")
    return methods


def _read_config(path: str) -> configparser.ConfigParser:
    """A config file with a ``[mechanism]`` section."""
    import configparser
    cp = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            cp.read_string(fh.read())
    except (OSError, configparser.Error) as exc:
        raise ParameterError(f"cannot read config {path!r}: {exc}") from None
    if not cp.has_section("mechanism"):
        raise ParameterError(f"config {path!r} needs a [mechanism] section")
    return cp


def _mechanism(cp: configparser.ConfigParser):
    """(curve, spec or None, report parameters) of the ``[mechanism]``
    section: a curve or profile CSV file, a bare epsilon / delta, or the
    keys family, noise_scale, sensitivity, compositions and neighborhood of
    a ``MechanismSpec``."""
    sec = cp["mechanism"]
    if "curve_file" in sec:
        with open(sec["curve_file"]) as fh:
            curve = tradeoff.curve_from_csv(fh)
    elif "profile_file" in sec:
        with open(sec["profile_file"]) as fh:
            curve = tradeoff.curve_from_profile(tradeoff.profile_from_csv(fh))
    elif "epsilon" in sec and "family" not in sec:
        try:
            params = {"epsilon": float(sec["epsilon"]),
                      "delta": float(sec.get("delta", "0"))}
        except ValueError as exc:
            raise ParameterError(f"invalid mechanism config: {exc}") from None
        return tradeoff.curve_from_epsilon_delta(**params), None, params
    else:
        import dataclasses
        from .accountant import MechanismSpec, curve_of
        try:
            spec = MechanismSpec(
                family=sec.get("family", "").strip().lower(),
                noise_scale=float(sec.get("noise_scale")),
                sensitivity=float(sec.get("sensitivity", "1.0")),
                compositions=int(sec.get("compositions", "1")),
                neighborhood=sec.get("neighborhood", "add-remove").strip())
        except (TypeError, ValueError) as exc:
            raise ParameterError(f"invalid mechanism config: {exc}") from None
        return curve_of(spec), spec, dataclasses.asdict(spec)
    return curve, None, {"curve": curve.provenance}


def _method_bound(mech: tuple, label: str, method: str,
                  order: float | None):
    """One bound of a ``_mechanism`` triple: the curve for fdp,
    ``calibrate.method_bound`` for a mechanism spec, and for eps_delta on a
    bare (epsilon, delta) pair, ``prior_bounds.eps_delta_bound``."""
    from .calibrate import method_bound
    from .prior_bounds import eps_delta_bound
    curve, spec, params = mech
    if method == "fdp":
        return curve
    if spec is not None:
        return method_bound(spec, method, order)
    if method == "eps_delta" and "epsilon" in params:
        return eps_delta_bound(params["epsilon"], params["delta"])
    raise ParameterError(f"method {label!r} needs a parametric mechanism spec")


def cmd_bound(args) -> int:
    from .calibrate import bound_at
    from .risk import RISK_REPORT_CSV_HEADER, RiskReport
    cp = _read_config(args.scenario)
    mech = _mechanism(cp)
    labels = cp["baselines"].values() if cp.has_section("baselines") else ()
    if not labels:
        raise ParameterError("scenario needs at least one baseline")
    baselines = [(v, parse_baseline(v)) for v in labels]
    methods = parse_methods(cp.get("methods", "methods", fallback=""))
    lines, reports, errors = [RISK_REPORT_CSV_HEADER], [], []
    bounds: dict = {}  # (method, order) -> its bound, built on first use
    for b_label, baseline in baselines:
        for m_label, method, order in methods:
            try:
                if (method, order) not in bounds:
                    bounds[method, order] = _method_bound(mech, m_label,
                                                          method, order)
                base, succ, adv = bound_at(bounds[method, order], baseline)
                rep = RiskReport(method=m_label, baseline_value=base,
                                 success_bound=succ, advantage_bound=adv,
                                 parameters={**mech[2], "baseline": b_label})
            except ParameterError as exc:
                msg = str(exc).replace(",", ";").replace("\n", " ")
                lines.append(f"{m_label},,,,baseline={b_label};error:{msg}")
                errors.append({"error": f"{b_label}/{m_label}: {exc}"})
                continue
            reports.append(rep)
            lines.append(rep.csv_row())
    _emit(args, lines, [r.to_json_dict() for r in reports] + errors)
    if not reports:
        print("all bound rows failed", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


# --------------------------------------------------------------------------
# calibrate

def cmd_calibrate(args) -> int:
    from .calibrate import (CalibrationRequest, InfeasibleTargetError,
                            calibrate_noise)
    baseline = parse_baseline(args.baseline)
    if args.target_adv is not None:
        target_kind, target_value = "advantage", args.target_adv
    elif args.target_succ is not None:
        target_kind, target_value = "success", args.target_succ
    else:
        raise ParameterError("specify --target-adv or --target-succ")
    rows = []
    for label, method, order in parse_methods(args.methods):
        try:
            r = calibrate_noise(CalibrationRequest(
                family=args.family, target_kind=target_kind,
                target_value=target_value, baseline=baseline, method=method,
                sensitivity=args.sensitivity, compositions=args.compositions,
                rdp_order=order, eps_delta_delta=args.delta,
                tolerance=args.tolerance))
        except InfeasibleTargetError as exc:  # the other methods still answer
            print(f"infeasible target: {exc}", file=sys.stderr)
            rows.append((label, None, "infeasible", None))
        else:
            rows.append((label, r.noise_scale, r.status, r.achieved_risk))
    ref = rows[0][1]
    if any(row[1] is not None for row in rows):
        _emit(args, *_table(
            ("method", "noise_scale", "status", "achieved_risk",
             "ratio_to_first"),
            [row + (None if None in (ref, row[1]) else row[1] / ref,)
             for row in rows]))
    return EXIT_INFEASIBLE if None in (row[1] for row in rows) else EXIT_OK


# --------------------------------------------------------------------------
# queries

def cmd_queries(args) -> int:
    import dataclasses
    from . import accountant, prior_bounds, risk
    # checks b and the sensitivity before they are divided
    spec = accountant.MechanismSpec(family="laplace", noise_scale=args.b,
                                    sensitivity=args.sensitivity)
    eps = spec.sensitivity / spec.noise_scale
    if args.k_max < 1:
        raise ParameterError(f"--k-max must be >= 1, got {args.k_max}")
    rows = []
    for k in range(1, args.k_max + 1):
        f_fdp = accountant.curve_of(
            dataclasses.replace(spec, compositions=k), grid_step=args.grid_step)
        adv_fdp = risk.adv_bound(f_fdp, args.base)
        eps_g, _ = prior_bounds.optimal_composition_pure(eps, k,
                                                         args.delta_std)
        f_std = tradeoff.curve_from_epsilon_delta(eps_g, args.delta_std)
        adv_std = risk.adv_bound(f_std, args.base)
        rows.append((k, adv_fdp, adv_std, adv_fdp <= args.target_adv,
                     adv_std <= args.target_adv))
    # the largest feasible k of each accounting, or 0
    max_k_fdp, max_k_std = (max((r[0] for r in rows if r[i]), default=0)
                            for i in (3, 4))
    lines, records = _table(("k", "adv_fdp", "adv_standard", "feasible_fdp",
                             "feasible_standard"), rows)
    lines.append(f"# max_feasible_k_fdp={max_k_fdp} "
                 f"max_feasible_k_standard={max_k_std}")
    _emit(args, lines, {"per_query_epsilon": eps,
                        "max_feasible_k_fdp": max_k_fdp,
                        "max_feasible_k_standard": max_k_std,
                        "rows": records})
    return EXIT_OK


# --------------------------------------------------------------------------
# verify

def _curve_invariant_violations(curve: TradeoffCurve,
                                grid: np.ndarray) -> list[str]:
    errs = []
    vals = curve(grid)
    if np.any(vals < -1e-12) or np.any(vals > 1.0 + 1e-12):
        errs.append("range outside [0, 1]")
    if np.any(vals - (1.0 - grid) > 1e-9):
        errs.append("f(alpha) exceeds 1 - alpha")
    if np.any(np.diff(vals) > 1e-12):
        errs.append("not non-increasing")
    if curve.is_piecewise:
        k = curve.knots
        slopes = np.diff(k[:, 1]) / np.diff(k[:, 0])
        if np.any(np.diff(slopes) < -1e-9):
            errs.append("knot slopes decrease (non-convex)")
    return errs


def run_verification(seed: int = 0,
                     n_pairs: int = 60) -> tuple[bool, list[str]]:
    """Oracle corpus: curve invariants, TV consistency, attack soundness."""
    from . import oracle, risk
    if n_pairs < 1 or seed < 0:
        raise ParameterError("verification needs pairs >= 1 and seed >= 0, "
                             f"got {n_pairs} and {seed}")
    rng = np.random.default_rng(seed)
    lines = []
    grid = np.linspace(0.0, 1.0, 2001)

    passed: dict[str, int] = {}  # check name -> pairs that pass it
    for i in range(n_pairs):
        size = int(rng.integers(2, 9))
        p = rng.dirichlet(np.ones(size))
        q = rng.dirichlet(np.ones(size))
        p = p / p.sum()
        q = q / q.sum()
        pair = oracle.DiscretePair(p=p, q=q)
        curve = oracle.exact_tradeoff(pair)
        tv_gap = abs(oracle.exact_tv(pair) - tradeoff.tv_from_curve(curve))
        # two-candidate attack soundness against the success bound
        pi = float(rng.uniform(0.05, 0.95))
        succ = oracle.optimal_attack_success(np.vstack([p, q]),
                                             np.array([pi, 1.0 - pi]))
        bound = risk.succ_bound(curve, max(pi, 1.0 - pi))
        for name, err in (
                ("curve invariants",
                 "; ".join(_curve_invariant_violations(curve, grid))),
                ("TV consistency", "TV mismatch" if tv_gap > 1e-10 else ""),
                ("attack-success soundness",
                 f"attack success {succ} exceeds bound {bound}"
                 if succ - bound > 1e-12 else "")):
            passed[name] = passed.get(name, 0) + (not err)
            if err:
                lines.append(f"FAIL pair {i}: {err}")
    for name, n in passed.items():
        lines.append(f"{'PASS' if n == n_pairs else 'FAIL'} {name} "
                     f"({n}/{n_pairs})")

    # randomized-response tightness: the two-candidate Bayes success bound
    # is achieved exactly by the optimal attack
    p_flip = 0.25
    pair = oracle.DiscretePair(p=np.array([1 - p_flip, p_flip]),
                               q=np.array([p_flip, 1 - p_flip]))
    succ = oracle.optimal_attack_success(
        np.vstack([pair.p, pair.q]), np.array([0.5, 0.5]))
    bound = risk.bernoulli_succ_bound(oracle.exact_tradeoff(pair), 0.5)
    gap = bound - succ
    tight = abs(gap) <= 1e-9
    lines.append(f"{'PASS' if tight else 'FAIL'} randomized-response "
                 f"tightness (gap {gap:.2e})")
    ok = tight and all(n == n_pairs for n in passed.values())
    lines.append("VERIFICATION " + ("PASSED" if ok else "FAILED"))
    return ok, lines


def cmd_verify(args) -> int:
    ok, lines = run_verification(seed=args.seed, n_pairs=args.pairs)
    _emit(args, lines)
    return EXIT_OK if ok else EXIT_VERIFY


# --------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fdprisk",
        description="Privacy-risk bounds from trade-off curves")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p, formats=("csv", "json")):
        p.add_argument("--output", help="output file (relative paths resolve "
                       f"under ${OUTPUT_DIR_ENV} when set)")
        if formats:
            p.add_argument("--format", choices=formats, default="csv")

    p = sub.add_parser("tradeoff", help="emit trade-off curve knots")
    p.add_argument("--gaussian-mu", type=float)
    p.add_argument("--laplace-eps", type=float)
    p.add_argument("--rr-p", type=float)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--profile", help="epsilon,delta CSV file")
    p.add_argument("--curve", help="alpha,f CSV file")
    p.add_argument("--mechanism", help="mechanism config file")
    p.add_argument("--grid-points", type=int, default=2001)
    add_common(p)
    p.set_defaults(func=cmd_tradeoff)

    p = sub.add_parser("bound", help="risk-bound table for a scenario")
    p.add_argument("--scenario", required=True, help="scenario config file")
    add_common(p)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("calibrate", help="calibrate noise to a target risk")
    p.add_argument("--family", required=True,
                   choices=("gaussian", "laplace", "randomized_response"))
    p.add_argument("--target-adv", type=float)
    p.add_argument("--target-succ", type=float)
    p.add_argument("--baseline", default="worst_case",
                   help="fixed:B, pso:N:W (union singling-out bound over N "
                   "records at predicate weight W), spso:W, bernoulli:PI "
                   "or worst_case")
    p.add_argument("--methods", default="fdp",
                   help="comma list: fdp, zcdp, rdp, rdp-t2, eps_delta")
    p.add_argument("--sensitivity", type=float, default=1.0)
    p.add_argument("--compositions", type=int, default=1)
    p.add_argument("--delta", type=float, default=1e-5,
                   help="delta for the eps_delta method")
    p.add_argument("--tolerance", type=float, default=1e-4)
    add_common(p)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("queries", help="Laplace query-count case study")
    p.add_argument("--b", type=float, default=5.0, help="Laplace scale")
    p.add_argument("--k-max", type=int, default=20)
    p.add_argument("--base", type=float, default=0.1)
    p.add_argument("--target-adv", type=float, default=0.2)
    p.add_argument("--delta-std", type=float, default=1e-9,
                   help="delta for the optimal-composition comparison path")
    p.add_argument("--sensitivity", type=float, default=1.0)
    p.add_argument("--grid-step", type=float, default=1e-4)
    add_common(p)
    p.set_defaults(func=cmd_queries)

    p = sub.add_parser("verify", help="run the brute-force oracle corpus "
                       "(text output)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pairs", type=int, default=60)
    add_common(p, formats=())
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
