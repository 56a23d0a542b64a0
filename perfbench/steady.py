"""Steadiness check of the benchmark itself.

    python3 perfbench/steady.py [--seeds 10] [--first-seed 1]

Run from the checkout root. For each workload it runs ``run.py --trace 0``
once per seed, one process at a time, and prints each end-to-end metric's
median and quartile spread, (q3 - q1) / median, against its bound. Every
spread must stay below a third of the bound. It then runs ``run.py --trace
1`` twice at the same seed and asserts that every per-layer count (unit
``count`` or ``B``) repeats exactly. Exits 1 when a check fails. Every
run's result and notes go to perfbench/.work/steady.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN = os.path.join("perfbench", "run.py")
EXACT_UNITS = ("count", "B")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited "
                         f"{proc.returncode}:\n{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["notes"] = json.loads(lines[-2])["notes"]
    return result


def spread(values: list[float]) -> tuple[float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main(argv=None) -> int:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    ok = True
    raw: dict = {}
    for wl in (w["name"] for w in spec["workloads"]):
        raw[wl] = {"timed": [], "trace": []}
        for seed in seeds:
            res = run_once(wl, seed, spec["run_seconds"], 0)
            raw[wl]["timed"].append(res)
            if not res["correct"] or res["failed"]:
                ok = False
                print(f"{wl} seed {seed}: {res['failed']} of "
                      f"{res['attempted']} ops failed, correct "
                      f"{res['correct']}")
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in raw[wl]["timed"]]
            med, sp = spread(vals)
            limit = m["bound"] / 3.0
            ok &= sp < limit
            print(f"{wl:14s} {m['name']:12s} median {med:12.6g} "
                  f"{m['unit']:5s} spread {sp:7.4f} (limit {limit:.4f}) "
                  f"{'ok' if sp < limit else 'TOO WIDE'}")
        first, second = (run_once(wl, args.first_seed, spec["run_seconds"], 1)
                         for _ in range(2))
        raw[wl]["trace"] = [first, second]
        same = True
        for m in spec["per_layer"]:
            if m["unit"] not in EXACT_UNITS:
                continue
            a = first["metrics"][m["name"]]["value"]
            b = second["metrics"][m["name"]]["value"]
            if a != b:
                same = ok = False
                print(f"{wl} {m['name']}: count {a} then {b}")
        print(f"{wl:14s} per-layer counts repeat exactly: "
              f"{'yes' if same else 'NO'}")
    os.makedirs(os.path.join("perfbench", ".work"), exist_ok=True)
    with open(os.path.join("perfbench", ".work", "steady.json"), "w") as fh:
        json.dump(raw, fh, indent=1)
    print("STEADY" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
