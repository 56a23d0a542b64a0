"""fdprisk benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/fdprisk``. Inputs come from
the seed; every op's output is checked against the references in
``perfbench/refs.json``. The last line of stdout is the result:
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
notes (environment, tail percentile, failures, known-defect inputs).

--trace 0 measures the end-to-end metrics. Every time is scaled to a host
of fixed speed (see HostSpeed), so the host's own speed changes drop out.
--trace 1 runs a fixed op list twice, untraced and then traced, plus the
known-defect probes, and reports the per-layer metrics; its counts repeat
exactly at the same seed.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
# set-up probes per timed run, spread over the run so that their median
# sees the same host phases as the ops
SETUP_SAMPLES = 8
# set-up probes per traced run, for the import timings
TRACE_SETUP_SAMPLES = 3
# the reference kernel's best-of-three seconds on the nominal host
REF_NOMINAL_S = 0.005
IMPORT_MODULES = {"import.fdprisk_s": "fdprisk",
                  "import.scipy_signal_s": "scipy.signal",
                  "import.scipy_stats_s": "scipy.stats",
                  "import.scipy_optimize_s": "scipy.optimize"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


class HostSpeed:
    """Scales a run's times to a host of fixed speed.

    A shared host's CPU changes speed by a third within a minute, for every
    process on it alike. A fixed reference kernel (refkernel.py, best of
    three, about 5 ms) is timed in a process of its own after every op and
    set-up probe; a run's times are multiplied by REF_NOMINAL_S over the
    median of its kernel times, so runs made while the host is slow or fast
    read alike. The median over the whole run is steadier than the kernel
    times around each op, whose own noise would pass to the op. fdprisk is
    not in the kernel, so a change to fdprisk moves the scaled times in
    full. Use as a context manager: it stops the kernel process on exit."""

    def __init__(self):
        from workloads import child_env
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "refkernel.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=child_env())
        self.samples: list[float] = []
        try:
            # enough samples before the first op that the running factor,
            # which decides where a run ends, is not one kernel time's noise
            for _ in range(5):
                self.sample()
        except BaseException:
            self.proc.kill()
            self.__exit__()
            raise

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()

    def sample(self) -> None:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        self.samples.append(float(self.proc.stdout.readline()))

    def factor(self, since: int = 0) -> float:
        """Nominal over measured speed, from the samples since the
        `since`-th."""
        return REF_NOMINAL_S / statistics.median(self.samples[since:])


def environment(seed: int) -> dict:
    import numpy
    import scipy
    sha = None
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = out.stdout.split()
        # only this checkout's own repository, not one that encloses it
        if out.returncode == 0 and len(lines) == 2 and \
                os.path.realpath(lines[0]) == os.path.realpath("."):
            sha = lines[1]
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join("src", "fdprisk", "*.py"))):
        with open(path, "rb") as fh:
            src.update(path.encode() + b"\0" + fh.read())
    return {"git_sha": sha, "src_sha256": src.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "threads": {k: os.environ.get(k) for k in THREAD_ENV},
            "seed": seed}


def setup_probe(workload: str, importtime: bool) -> tuple[float, dict]:
    """One fresh interpreter to READY: its wall seconds and, with
    ``importtime``, its cumulative import seconds by module."""
    from workloads import WORK_DIR, child_env, parse_importtime
    os.makedirs(WORK_DIR, exist_ok=True)
    err_path = os.path.join(WORK_DIR, "probe.stderr")
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) \
        + [os.path.join(HERE, "probe.py"), workload]
    with open(err_path, "w") as ferr:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=ferr,
                                env=child_env(), text=True)
        line = proc.stdout.readline()
        seconds = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait()
    with open(err_path) as fh:
        stderr = fh.read()
    if line.strip() != "READY" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code}): "
                           f"{stderr.strip()[-2000:]}")
    return seconds, parse_importtime(stderr)[0]


def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least 10 samples beyond it: the value,
    its percentile, and the sample count."""
    s = sorted(times)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, n
    return s[n - 11], 100.0 * (n - 10) / n, n


class Run:
    def __init__(self, wl, seed):
        self.wl = wl
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.mismatch = False
        self.failures: list[str] = []
        # known-defect probes: label -> passed; they are not counted in
        # attempted or failed
        self.probes: dict[str, bool] = {}

    def do(self, op, trace_path=None):
        """Run and check one op: its outcome, and whether it passed."""
        outcome = self.wl.execute(op, trace_path)
        errs = self.wl.check(op, outcome)
        if op.probe:
            self.probes[op.label] = not errs
        else:
            self.attempted += 1
            self.failed += bool(errs)
        if errs:
            self.failures.append(f"{op.label}: {'; '.join(errs)}")
            crashed = (outcome.error is not None or "Traceback" in outcome.stderr
                       or outcome.exit_code not in (None, 0, 2, 3, 4))
            # a known-defect probe may crash; any other failure is incorrect
            self.mismatch |= not (op.probe and crashed)
        return outcome, not errs


def run_timed(wl, rng, run: Run, speed: HostSpeed, seconds: float) -> dict:
    """Closed loop, one client, for `seconds` of scaled op time, ending on
    the round boundary nearest to it, so every run has its workload's input
    mix. Set-up probes run between ops at even steps of op time."""
    times, rss, setup = [], [], []
    groups = []
    busy = 0.0
    while busy < seconds:
        start = busy
        for op in wl.round(rng):
            while (len(setup) < SETUP_SAMPLES
                   and busy >= len(setup) * seconds / SETUP_SAMPLES):
                setup.append(setup_probe(wl.name, importtime=False)[0])
                speed.sample()
            outcome, _ = run.do(op)
            speed.sample()
            times.append(outcome.seconds)
            rss.append(outcome.maxrss_kb)
            groups.append(op.group)
            busy += outcome.seconds * speed.factor()
        if busy + (busy - start) / 2 >= seconds:
            break
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_probe(wl.name, importtime=False)[0])
        speed.sample()
    factor = speed.factor()
    times = [t * factor for t in times]
    setup = [t * factor for t in setup]
    by_group: dict[str, list[float]] = {}
    for group, t in zip(groups, times):
        by_group.setdefault(group, []).append(t)
    if wl.in_process:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak_kb = max(rss)
    value, pct, n = tail(times)
    return {"metrics": {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(times) / sum(times),
        "op_p50_s": statistics.median(times),
        "op_tail_s": value,
        "peak_rss_mb": peak_kb / 1024.0,
    }, "notes": {"setup_samples_s": setup, "timed_ops": len(times),
                 "busy_s": sum(times), "speed_factor": factor,
                 "ref_kernel_s": speed.samples,
                 "op_tail_percentile": pct, "op_tail_samples": n,
                 "op_s_by_group": dict(sorted(by_group.items()))}}


def run_traced(wl, rng, run: Run, speed: HostSpeed,
               probes) -> tuple[dict, dict]:
    from tracer import Tracer
    from workloads import WORK_DIR
    ops = [op for _ in range(wl.trace_rounds) for op in wl.round(rng)]
    plain = 0.0
    for op in ops:
        plain += run.do(op)[0].seconds
        speed.sample()
    plain *= speed.factor()
    since = len(speed.samples)
    tr = Tracer()
    traced = 0.0
    shares = []
    imports = []
    trace_path = None if wl.in_process else os.path.join(WORK_DIR, "trace.json")
    if wl.in_process:
        tr.install()
    try:
        for op in ops + probes:
            with tr.root() as root:
                if trace_path and os.path.exists(trace_path):
                    os.remove(trace_path)
                outcome, _ = run.do(op, trace_path)
            speed.sample()
            if trace_path and outcome.value is not None:
                tr.merge(outcome.value, root)
                shares.append(outcome.import_share)
                imports.append(outcome.importtime)
            if not op.probe:
                traced += outcome.seconds
    finally:
        tr.uninstall()
    traced *= speed.factor(since)
    with open(os.path.join(WORK_DIR, f"spans-{wl.name}-{run.seed}.json"),
              "w") as fh:
        json.dump({"fields": ["id", "parent", "root", "name", "start", "end"],
                   "spans": tr.spans}, fh)
    metrics = tr.metrics()
    metrics["import.op_share"] = statistics.median(shares) if shares else 0.0
    metrics["trace.ops_per_s_ratio"] = plain / traced
    metrics["known_defect.failed"] = sum(not ok for ok in run.probes.values())
    return metrics, {"trace_ops": len(ops), "untraced_s": plain,
                     "traced_s": traced, "cli_importtime": imports,
                     "calibrations": tr.calibrations}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join("src", "fdprisk", "__init__.py")):
        print("error: run from a checkout root holding src/fdprisk",
              file=sys.stderr)
        return 2
    # before numpy is imported here or in any child
    os.environ.update(THREAD_ENV)
    # one CPU for this process and every child: the host's CPUs change
    # speed independently, so HostSpeed must time the CPU the ops run on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(1, os.path.abspath("src"))
    import numpy as np
    from workloads import WORKLOADS
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "refs.json")) as fh:
        refs = json.load(fh)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](refs[args.workload])
    rng = np.random.default_rng(args.seed)
    if wl.in_process:
        wl.warmup()
    run = Run(wl, args.seed)
    notes = {"workload": wl.name, "env": environment(args.seed)}
    if args.trace:
        # cli_cold takes its import timings from the traced children
        samples = [setup_probe(wl.name, importtime=True)
                   for _ in range(TRACE_SETUP_SAMPLES if wl.in_process else 0)]
        with HostSpeed() as speed:
            values, extra = run_traced(wl, rng, run, speed, wl.probes())
        imports = extra.pop("cli_importtime") or [i for _, i in samples]
        for name, module in IMPORT_MODULES.items():
            values[name] = statistics.median([d.get(module, 0.0)
                                              for d in imports])
        notes.update(extra)
        wanted = spec["per_layer"]
    else:
        with HostSpeed() as speed:
            res = run_timed(wl, rng, run, speed, args.seconds)
        values = res["metrics"]
        notes.update(res["notes"])
        wanted = spec["end_to_end"]
    notes["failures"] = run.failures
    # label -> passed, at this commit expected to be False
    notes["known_defect_inputs"] = run.probes
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            raise KeyError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    print(json.dumps({"notes": notes}, default=float))
    print(json.dumps({"correct": not run.mismatch, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
