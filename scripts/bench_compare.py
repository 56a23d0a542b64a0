"""Compare two checkouts on the perfbench harness and write a BENCH file.

    python3 scripts/bench_compare.py --parent DIR --change DIR \
        --pairs cli_cold=10 compose_query=3 calibrate_mix=3 --out BENCH_n.json

Each pair runs ``perfbench/run.py --trace 0`` once in each checkout at the
same seed (pair i uses seed i + 1), the parent first in even pairs and the
change first in odd ones, so a drift in the host's speed favours neither
side. Each of the first three pairs then runs ``--trace 1`` at seed 1 once
per side, in the same order; the per-layer metrics are the medians of a
side's traced runs, and the script fails if a ``.calls`` count differs
between a side's traced runs at one seed (they run a fixed op list). Every
run lasts the ``run_seconds`` of the parent's BENCHMARK.json. Raw result
lines are appended to ``<out>.jsonl`` as they arrive; the BENCH file holds,
per workload, side and metric, the median and quartiles, the change's wins
over the parent pair by pair, each side's timed op count per run and the
op groups that hold op_tail_s and op_p50_s in each run, whether
each side's runs were all correct and how many ops each side failed, and
each side's git SHA and versions.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

TRACED_PAIRS = 3  # pairs that also run the traced op list
TRACE_SEED = 1


def run(checkout: str, workload: str, seed: int, seconds: float,
        trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True)
    notes, result = (json.loads(ln) for ln in out.stdout.splitlines()[-2:])
    return {"notes": notes["notes"], **result}


def quartiles(xs: list[float]) -> dict:
    q1, med, q3 = (statistics.quantiles(xs, n=4, method="inclusive")
                   if len(xs) > 1 else xs * 3)
    return {"median": med, "q1": q1, "q3": q3, "values": xs}


def traced_medians(rows: list[dict]) -> dict:
    """Per-layer medians over one side's traced runs of one workload; exits
    if a ``.calls`` count differs between two of them at one seed."""
    for seed in {r["seed"] for r in rows}:
        at_seed = [r["metrics"] for r in rows if r["seed"] == seed]
        for name in at_seed[0]:
            counts = {m[name]["value"] for m in at_seed}
            if name.endswith(".calls") and len(counts) > 1:
                sys.exit(f"{rows[0]['workload']} {rows[0]['side']} seed "
                         f"{seed}: {name} differs between runs: {counts}")
    return {name: statistics.median(r["metrics"][name]["value"] for r in rows)
            for name in rows[0]["metrics"]} if rows else {}


def groups_at(row: dict) -> dict:
    """The op group holding each of op_tail_s and op_p50_s in one timed
    run, read from the notes' op_s_by_group: the group of the op nearest
    the metric (the lower middle op where the median falls between two)."""
    ops = [(t, g) for g, ts in row["notes"]["op_s_by_group"].items()
           for t in ts]
    return {name: min(ops, key=lambda op: (abs(op[0] - value), op[0]))[1]
            for name in ("op_tail_s", "op_p50_s")
            for value in [row["metrics"][name]["value"]]}


def summarize(rows: list[dict], better: dict) -> dict:
    out: dict = {}
    for wl in dict.fromkeys(r["workload"] for r in rows):
        mine = [r for r in rows if r["workload"] == wl]
        timed = {side: [r for r in mine if r["side"] == side and not r["trace"]]
                 for side in ("parent", "change")}
        entry: dict = {"pairs": len(timed["change"]), "end_to_end": {},
                       # ops per timed run: a run of one round more or
                       # fewer moves op_tail_s and peak_rss_mb
                       "timed_ops": {s: [r["notes"]["timed_ops"]
                                         for r in timed[s]] for s in timed},
                       # per timed run, the op groups that hold these
                       "groups_at": {s: [groups_at(r) for r in timed[s]]
                                     for s in timed}}
        for name in timed["parent"][0]["metrics"]:
            vals = {s: [r["metrics"][name]["value"] for r in timed[s]]
                    for s in timed}
            sign = 1 if better[name] == "lower" else -1
            wins = sum(sign * (c - p) < 0
                       for p, c in zip(vals["parent"], vals["change"]))
            entry["end_to_end"][name] = {
                "unit": timed["parent"][0]["metrics"][name]["unit"],
                "better": better[name], "change_wins": wins,
                **{s: quartiles(v) for s, v in vals.items()}}
        sided = {s: [r for r in mine if r["side"] == s] for s in timed}
        entry["correct"] = {s: all(r["correct"] for r in rs)
                            for s, rs in sided.items()}
        entry["failed"] = {s: sum(r["failed"] for r in rs)
                           for s, rs in sided.items()}
        entry["traced"] = {s: traced_medians([r for r in rs if r["trace"]])
                           for s, rs in sided.items()}
        out[wl] = entry
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--pairs", nargs="+", required=True,
                    help="workload=count, e.g. cli_cold=10")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    sides = {"parent": args.parent, "change": args.change}
    with open(f"{args.parent}/BENCHMARK.json") as fh:
        spec = json.load(fh)
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    rows: list[dict] = []
    env: dict = {}
    with open(args.out + ".jsonl", "a") as log:
        def record(side, wl, seed, trace):
            res = run(sides[side], wl, seed, spec["run_seconds"], trace)
            env[side] = res["notes"]["env"]
            row = {"side": side, "workload": wl, "seed": seed,
                   "trace": trace, **res}
            rows.append(row)
            log.write(json.dumps(row, default=float) + "\n")
            log.flush()
            print(f"{wl} seed {seed} {side} trace {trace}: correct "
                  f"{res['correct']} failed {res['failed']}", file=sys.stderr)

        for item in args.pairs:
            wl, count = item.split("=")
            for i in range(int(count)):
                order = ("parent", "change") if i % 2 == 0 \
                    else ("change", "parent")
                for side in order:
                    record(side, wl, i + 1, 0)
                if i < TRACED_PAIRS:
                    for side in order:
                        record(side, wl, TRACE_SEED, 1)
    bench = {"harness": "perfbench/run.py", "seconds": spec["run_seconds"],
             "env": {s: {k: v for k, v in e.items() if k != "seed"}
                     for s, e in env.items()},
             "workloads": summarize(rows, better)}
    with open(args.out, "w") as fh:
        json.dump(bench, fh, indent=1, default=float)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
