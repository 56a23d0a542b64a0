"""Record the input pools and their reference outputs into refs.json.

    PYTHONPATH=src python3 perfbench/record_refs.py

Run from the repository root at the commit whose outputs are the reference.
The pools are drawn from a fixed seed, so re-recording at the same commit
gives the same file. Every pool entry must succeed here; known-defect probes
are stored with the reference of the same request at the timed bracket, or
with none where no such request exists.
"""

from __future__ import annotations

import json
import math
import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import (TIMED_BRACKET, CalibrateMix, CliCold,  # noqa: E402
                       ComposeQuery, Op)

POOL_SEED = 20250709
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs.json")


def log_uniform(rng, lo, hi):
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def compose_pool(rng):
    entries = []
    for _ in range(16):
        entries.append(("laplace", "laplace",
                        {"b": round(log_uniform(rng, 1.0, 20.0), 4),
                         "k": int(rng.integers(2, 65))}))
    for _ in range(16):
        entries.append(("rr", "rr", {"p": round(float(rng.uniform(0.05, 0.45)), 4),
                                     "k": int(rng.integers(2, 65))}))
    # profile sizes by stratum; the top stratum is the 5,000-row maximum so
    # every round carries the largest envelope matrix
    strata = [(500, 1500), (1500, 3000), (3000, 4500), (5000, 5001)]
    for s, (lo, hi) in enumerate(strata):
        for _ in range(4):
            entries.append((f"profile{s}", "profile",
                            {"mu": round(float(rng.uniform(0.5, 2.5)), 4),
                             "rows": int(rng.integers(lo, hi))}))
    # known defect: Laplace at epsilon = 800 overflows in laplace_curve
    probes = [("laplace", {"b": 1.0 / 800.0, "k": 1}, None)]
    return entries, probes


def calibrate_pool(rng):
    entries = []

    def baseline(b):
        if b == "fixed":
            return {"baseline": "fixed", "base": round(float(rng.uniform(0.05, 0.3)), 4)}
        if b == "bernoulli":
            return {"baseline": "bernoulli", "pi": round(float(rng.uniform(0.5, 0.6)), 4)}
        return {"baseline": "worst_case"}

    for group in CalibrateMix.plan:
        family, method, b = group.split("/")
        for i in range(3):
            p = {"family": family, **baseline(b)}
            if method == "rdp-t2":
                # order-2 RDP bounds never fall below sqrt(base) - base,
                # at most 0.25, so lower targets are infeasible
                p.update(method="rdp", rdp_order=2.0,
                         target=round(float(rng.uniform(0.3, 0.38)), 4))
            else:
                p.update(method=method.split("-")[0],
                         target=round(float(rng.uniform(0.12, 0.28)), 4))
            if group == "laplace/fdp-composed/worst_case":
                # the top of the k range in every round
                p["k"] = 10
            elif method == "fdp-composed":
                p["k"] = int(rng.integers(2, 10))
            # after every draw, so the draws of later groups do not move
            if group in CalibrateMix.single_input and i > 0:
                continue
            entries.append((group, "calibrate", p))
    # known defects at the default bracket (1e-3, 1e3): OverflowError
    probes = [("calibrate", {"family": "laplace", "method": "fdp",
                             "baseline": "fixed", "base": 0.1, "target": 0.15,
                             "bracket": [1e-3, 1e3]}),
              ("calibrate", {"family": "gaussian", "method": "eps_delta",
                             "baseline": "worst_case", "target": 0.15,
                             "bracket": [1e-3, 1e3]})]
    probes = [(k, p, {**p, "bracket": list(TIMED_BRACKET)}) for k, p in probes]
    return entries, probes


def cli_pool(rng):
    entries = [("bound", "bound", {"scenario": "scenarios/example_gaussian.cfg"}),
               ("bound", "bound", {"scenario": "scenarios/census_state.cfg"})]
    for _ in range(6):
        entries.append(("tradeoff_mu", "tradeoff_mu",
                        {"mu": round(log_uniform(rng, 0.2, 4.0), 4)}))
    for _ in range(6):
        entries.append(("tradeoff_epsdelta", "tradeoff_epsdelta",
                        {"epsilon": round(float(rng.uniform(0.1, 8.0)), 4),
                         "delta": float(f"{10 ** rng.uniform(-10, -3):.3g}")}))
    for _ in range(6):
        entries.append(("tradeoff_mechanism", "tradeoff_mechanism",
                        {"b": round(float(rng.uniform(2.0, 10.0)), 4),
                         "k": int(rng.integers(2, 9))}))
    for _ in range(6):
        base = ["worst_case", f"fixed:{rng.uniform(0.05, 0.3):.4f}",
                f"bernoulli:{rng.uniform(0.5, 0.6):.4f}"][int(rng.integers(0, 3))]
        entries.append(("calibrate", "calibrate",
                        {"target": round(float(rng.uniform(0.12, 0.28)), 4),
                         "baseline": base}))
    for seed in range(6):
        entries.append(("verify", "verify", {"seed": seed}))
    # known defect: OverflowError traceback in curve_from_epsilon_delta
    probes = [("tradeoff_epsdelta", {"epsilon": 800.0}, None)]
    return entries, probes


def record(wl, entries, probes) -> dict:
    out = {"entries": [], "probes": []}
    for group, kind, params in entries:
        op = Op(kind, params)
        outcome = wl.execute(op)
        if outcome.error or outcome.exit_code not in (None, 0):
            raise SystemExit(f"{wl.name}: {op.label} failed: "
                             f"{outcome.error or outcome.stderr[-500:]}")
        ref = wl.reference(op, outcome)
        if wl.check(Op(kind, params, ref), outcome):
            raise SystemExit(f"{wl.name}: {op.label} fails its own check")
        out["entries"].append({"group": group, "kind": kind, "params": params,
                               "ref": ref})
        print(f"{wl.name} {op.label} {outcome.seconds:.3f}s", file=sys.stderr)
    for kind, params, ref_params in probes:
        ref = None
        if ref_params is not None:
            outcome = wl.execute(Op(kind, ref_params))
            if outcome.error:
                raise SystemExit(f"{wl.name}: probe reference failed: "
                                 f"{outcome.error}")
            ref = wl.reference(Op(kind, ref_params), outcome)
        out["probes"].append({"kind": kind, "params": params, "ref": ref})
    return out


def main():
    if not os.path.isdir(os.path.join("src", "fdprisk")):
        raise SystemExit("run from the repository root")
    sys.path.insert(1, os.path.abspath("src"))
    rng = np.random.default_rng(POOL_SEED)
    refs = {"pool_seed": POOL_SEED}
    pools = (("compose_query", ComposeQuery, compose_pool),
             ("calibrate_mix", CalibrateMix, calibrate_pool),
             ("cli_cold", CliCold, cli_pool))
    for name, cls, make in pools:
        refs[name] = record(cls(), *make(rng))
    with open(OUT, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
