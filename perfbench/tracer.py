"""Outside-in tracing of fdprisk: spans and counters around public functions.

The tracer replaces every public function of each fdprisk layer module with
a timing wrapper, in every fdprisk module namespace that binds it. A module
that did ``from .tradeoff import delta_for_epsilon`` calls its own binding,
so wrapping only ``tradeoff.delta_for_epsilon`` would miss those calls.
Nothing inside ``src/`` is edited; ``uninstall`` restores the originals.

Spans are kept in memory. A span's self time is its duration minus the time
covered by its child spans. Every span carries the id of the root span of
the benchmark op that caused it.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import statistics
import sys
import time

import numpy as np

LAYERS = ("cli", "calibrate", "accountant", "tradeoff", "risk",
          "prior_bounds", "oracle")

CURVE_OF = "accountant.curve_of"
CURVE_FROM_PROFILE = "tradeoff.curve_from_profile"
CALIBRATE_NOISE = "calibrate.calibrate_noise"
# counted per enclosing calibrate_noise call
_PER_CALIBRATION = ("calibrate.risk_at", "tradeoff.delta_for_epsilon")


def _observe_pld_compose(tr, args, kwargs, result):
    tr.add("accountant.pld_compose.cells_out", int(result.masses.size))


def _observe_curve_from_profile(tr, args, kwargs, result):
    profile = args[0] if args else kwargs["profile"]
    eps, dlt = profile.epsilons, profile.deltas
    # two supporting lines per usable profile point, plus the zero line
    lines = 2 * int(np.count_nonzero(np.isfinite(eps) & (dlt < 1.0))) + 1
    knots = 0 if result.knots is None else int(result.knots.shape[0])
    tr.add("tradeoff.curve_from_profile.lines_in", lines)
    tr.add("tradeoff.curve_from_profile.knots_out", knots)
    tr.peak("tradeoff.curve_from_profile.matrix_bytes", knots * lines * 8)


def _observe_lower_convex_hull(tr, args, kwargs, result):
    alphas = args[0] if args else kwargs["alphas"]
    tr.add("tradeoff.lower_convex_hull.points_in", int(np.size(alphas)))


_OBSERVERS = {
    "accountant.pld_compose": _observe_pld_compose,
    CURVE_FROM_PROFILE: _observe_curve_from_profile,
    "tradeoff.lower_convex_hull": _observe_lower_convex_hull,
}


class Tracer:
    """Collects spans, per-function totals and exact counters."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, root, name, start, end)
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.peaks: dict[str, int] = {}
        self.calibrations: list[dict] = []
        self.curve_keys: list[str] = []  # curve_of arguments inside calibrations
        self.composed_curve_s = 0.0  # curve_of spans that built a profile envelope
        self.composed_profile_s = 0.0  # envelope self time inside those spans
        self._stack: list[dict] = []
        self._next_id = 1
        self._root = 0
        self._seen_errors: list[BaseException] = []
        self._patched: list[tuple] = []

    # -- counters ---------------------------------------------------------
    def add(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def peak(self, key: str, value: int) -> None:
        self.peaks[key] = max(self.peaks.get(key, 0), value)

    # -- spans --------------------------------------------------------------
    def _open(self, name: str) -> dict:
        frame = {"id": self._next_id, "name": name, "child": 0.0,
                 "tally": {}, "profile_s": 0.0}
        self._next_id += 1
        if name in _PER_CALIBRATION:
            for outer in reversed(self._stack):
                if outer["name"] == CALIBRATE_NOISE:
                    outer["tally"][name] = outer["tally"].get(name, 0) + 1
                    break
        frame["start"] = time.perf_counter()
        self._stack.append(frame)
        return frame

    def _close(self, frame: dict, error: BaseException | None = None) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name = frame["name"]
        dur = end - frame["start"]
        own = dur - frame["child"]
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent["child"] += dur
        self.spans.append((frame["id"], parent["id"] if parent else 0,
                           self._root, name, frame["start"], end))
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + own
        if name == CURVE_FROM_PROFILE:
            for outer in reversed(self._stack):
                if outer["name"] == CURVE_OF:
                    outer["profile_s"] += own
                    break
        elif name == CURVE_OF and frame["profile_s"] > 0.0:
            self.composed_curve_s += dur
            self.composed_profile_s += frame["profile_s"]
        elif name == CALIBRATE_NOISE:
            self.calibrations.append({
                "method": frame.get("method"),
                "risk_evals": frame["tally"].get("calibrate.risk_at", 0),
                "delta_evals": frame["tally"].get(
                    "tradeoff.delta_for_epsilon", 0)})
        if isinstance(error, Exception) and not any(
                error is e for e in self._seen_errors):
            # an error counts once, at the innermost layer it left
            self._seen_errors.append(error)
            self.add(name.split(".")[0] + ".errors")

    @contextlib.contextmanager
    def root(self):
        """Root span of one benchmark op; yields its id."""
        frame = self._open("op")
        self._root = frame["id"]
        try:
            yield frame["id"]
        finally:
            self._close(frame)
            self._root = 0

    # -- wrapping -------------------------------------------------------------
    def _wrap(self, name: str, fn):
        tracer = self
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._open(name)
            if name == CALIBRATE_NOISE:
                frame["method"] = getattr(args[0] if args else kwargs["req"],
                                          "method", None)
            elif name == CURVE_OF and any(
                    f["name"] == CALIBRATE_NOISE for f in tracer._stack):
                tracer.curve_keys.append(repr((args, sorted(kwargs.items()))))
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(frame, exc)
                raise
            tracer._close(frame)
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap public layer functions in every loaded fdprisk namespace."""
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"fdprisk.{layer}")
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == "fdprisk" or n.startswith("fdprisk.")]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(ns, attr, wrappers[obj])
                    self._patched.append((ns, attr, obj))

    def uninstall(self) -> None:
        for ns, attr, obj in reversed(self._patched):
            setattr(ns, attr, obj)
        self._patched.clear()

    # -- export / merge ---------------------------------------------------------
    def dump(self) -> dict:
        return {"spans": self.spans, "calls": self.calls,
                "self_s": self.self_s, "counts": self.counts,
                "peaks": self.peaks, "calibrations": self.calibrations,
                "curve_keys": self.curve_keys,
                "composed_curve_s": self.composed_curve_s,
                "composed_profile_s": self.composed_profile_s}

    def merge(self, d: dict, root: int) -> None:
        """Fold in a dump from a traced child process, under root span id."""
        offset = self._next_id
        for sid, parent, _, name, start, end in d["spans"]:
            self.spans.append((sid + offset, parent + offset if parent else root,
                               root, name, start, end))
            self._next_id = max(self._next_id, sid + offset + 1)
        for key in ("calls", "self_s", "counts"):
            mine = getattr(self, key)
            for k, v in d[key].items():
                mine[k] = mine.get(k, 0) + v
        for k, v in d["peaks"].items():
            self.peak(k, v)
        self.calibrations.extend(d["calibrations"])
        self.curve_keys.extend(d["curve_keys"])
        self.composed_curve_s += d["composed_curve_s"]
        self.composed_profile_s += d["composed_profile_s"]

    # -- per-layer metrics ------------------------------------------------------
    def metrics(self) -> dict:
        """Per-layer values by metric name (import.* and trace.* excluded)."""
        out: dict = {}
        for name in ("accountant.curve_of", "accountant.pld_compose",
                     "accountant.profile_from_pld",
                     "tradeoff.curve_from_profile", "tradeoff.lower_convex_hull",
                     "tradeoff.delta_for_epsilon", "tradeoff.tv_from_curve",
                     "risk.adv_bound", "risk.succ_bound", "risk.bayes_error",
                     "risk.adv_bound_worst_case",
                     "prior_bounds.srr_bound_rdp_curve",
                     "prior_bounds.optimal_composition_pure",
                     "calibrate.calibrate_noise", "calibrate.risk_at",
                     "oracle.exact_tradeoff", "oracle.optimal_attack_success"):
            out[f"{name}.calls"] = self.calls.get(name, 0)
            out[f"{name}.self_s"] = self.self_s.get(name, 0.0)
        for key in ("accountant.pld_compose.cells_out",
                    "tradeoff.curve_from_profile.lines_in",
                    "tradeoff.curve_from_profile.knots_out",
                    "tradeoff.lower_convex_hull.points_in"):
            out[key] = self.counts.get(key, 0)
        out["tradeoff.curve_from_profile.matrix_bytes"] = self.peaks.get(
            "tradeoff.curve_from_profile.matrix_bytes", 0)
        out["tradeoff.curve_from_profile.share_of_curve_of"] = (
            self.composed_profile_s / self.composed_curve_s
            if self.composed_curve_s else 0.0)
        out["cli.main.calls"] = self.calls.get("cli.main", 0)
        out["cli.main.self_s"] = sum(v for k, v in self.self_s.items()
                                     if k.startswith("cli."))
        risk_evals = [c["risk_evals"] for c in self.calibrations]
        delta_evals = [c["delta_evals"] for c in self.calibrations
                       if c["method"] == "eps_delta"]
        out["calibrate.risk_evals_per_calibration"] = (
            statistics.median(risk_evals) if risk_evals else 0)
        out["calibrate.delta_evals_per_calibration"] = (
            statistics.median(delta_evals) if delta_evals else 0)
        out["calibrate.curve_distinct_frac"] = (
            len(set(self.curve_keys)) / len(self.curve_keys)
            if self.curve_keys else 0.0)
        for layer in LAYERS:
            out[f"{layer}.errors"] = self.counts.get(f"{layer}.errors", 0)
        out["trace.spans"] = len(self.spans)
        return out
