"""Unified attack-risk bounds driven by a trade-off curve.

Success and advantage bounds for singling-out / reconstruction /
attribute-inference style attacks with a known baseline, the worst-case
(baseline-independent) TV bound, the Bernoulli-prior Bayes-error
refinement, and the report row the CLI prints for each bound. Every bound
reads the curve's own values: f at the baseline, its privacy profile
``f.delta`` and its Bayes error ``f.bayes``.
"""

from __future__ import annotations

import dataclasses

from .tradeoff import (ParameterError, TradeoffCurve, _logit,
                       delta_for_epsilon, tv_from_curve)


@dataclasses.dataclass(frozen=True)
class BaselineSpec:
    """Attack baseline: best success achievable without the output.

    kind is one of fixed / pso_weight / bernoulli / worst_case.
    """

    kind: str
    base: float | None = None
    n: int | None = None
    w: float | None = None
    pi: float | None = None

    def __post_init__(self):
        k = self.kind
        if k == "fixed":
            if self.base is None or not 0.0 <= self.base <= 1.0:
                raise ParameterError("fixed baseline needs base in [0, 1]")
        elif k == "pso_weight":
            if self.n is None or self.n <= 1:
                raise ParameterError("pso_weight needs integer n > 1")
            if self.w is None or not 0.0 <= self.w <= 1.0 / self.n:
                raise ParameterError("pso_weight needs w in [0, 1/n]")
        elif k == "bernoulli":
            if self.pi is None or not 0.0 <= self.pi <= 1.0:
                raise ParameterError("bernoulli needs pi in [0, 1]")
        elif k != "worst_case":
            raise ParameterError(f"unknown baseline kind {k!r}")

    @classmethod
    def fixed(cls, base: float) -> "BaselineSpec":
        return cls(kind="fixed", base=base)

    @classmethod
    def pso_weight(cls, n: int, w: float) -> "BaselineSpec":
        return cls(kind="pso_weight", n=n, w=w)

    @classmethod
    def bernoulli(cls, pi: float) -> "BaselineSpec":
        return cls(kind="bernoulli", pi=pi)

    @classmethod
    def worst_case(cls) -> "BaselineSpec":
        return cls(kind="worst_case")


def baseline_value(spec: BaselineSpec) -> float:
    """Scalar baseline of a spec; worst_case has none and raises."""
    if spec.kind == "fixed":
        return float(spec.base)
    if spec.kind == "pso_weight":
        return float(spec.n * spec.w * (1.0 - spec.w) ** (spec.n - 1))
    if spec.kind == "bernoulli":
        return float(max(spec.pi, 1.0 - spec.pi))
    raise ParameterError("worst_case baseline has no scalar value")


def _check_base(base: float) -> float:
    if not 0.0 <= base <= 1.0:
        raise ParameterError(f"baseline must lie in [0, 1], got {base}")
    return float(base)


def succ_bound(f: TradeoffCurve, base: float) -> float:
    """Attack success is at most 1 - f(base)."""
    base = _check_base(base)
    return float(min(1.0, max(base, 1.0 - f(base))))


def adv_bound(f: TradeoffCurve, base: float) -> float:
    """Attack advantage is at most 1 - f(base) - base, floored at 0."""
    base = _check_base(base)
    return float(max(0.0, 1.0 - f(base) - base))


def adv_bound_worst_case(f: TradeoffCurve) -> float:
    """Advantage over any baseline is at most the TV parameter eta."""
    return tv_from_curve(f)


def bayes_error(f: TradeoffCurve, pi: float) -> float:
    """Minimal weighted test error R_f(pi) = min_alpha (pi*alpha + (1-pi)*f(alpha)),
    read off the curve's own ``f.bayes``; 0 at pi in {0, 1}."""
    if not 0.0 <= pi <= 1.0:
        raise ParameterError(f"pi must lie in [0, 1], got {pi}")
    return f.bayes(pi) if 0.0 < pi < 1.0 else 0.0


def bernoulli_succ_bound(f: TradeoffCurve, pi: float) -> float:
    """Success against a Bernoulli(pi) two-candidate prior: 1 - R_f(pi).
    At 1/2 <= pi < 1 it reads R_f(pi) = (1 - pi) (1 - delta(logit pi)), by
    f-delta conjugacy (Dong, Roth & Su, JRSS-B 2022), which holds on every
    curve there; 1 - R_f needs only absolute precision."""
    if 0.5 <= pi < 1.0:
        r = (1.0 - pi) * (1.0 - delta_for_epsilon(f, _logit(pi)))
    else:
        r = bayes_error(f, pi)
    return float(min(1.0, 1.0 - r))


@dataclasses.dataclass(frozen=True)
class RiskReport:
    """One bound row: which bound produced which numbers, with inputs echoed."""

    method: str
    baseline_value: float
    success_bound: float
    advantage_bound: float
    parameters: dict = dataclasses.field(default_factory=dict)

    def __post_init__(self):
        if not (0.0 <= self.advantage_bound <= self.success_bound <= 1.0 + 1e-12):
            raise ParameterError(
                "need 0 <= advantage <= success <= 1 in a risk report")

    def csv_row(self) -> str:
        params = ";".join(f"{k}={self.parameters[k]}"
                          for k in sorted(self.parameters))
        return (f"{self.method},{self.baseline_value:.17g},"
                f"{self.success_bound:.17g},{self.advantage_bound:.17g},"
                f"{params}")

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "baseline": self.baseline_value,
            "success_bound": self.success_bound,
            "advantage_bound": self.advantage_bound,
            "params": {k: self.parameters[k] for k in sorted(self.parameters)},
        }


RISK_REPORT_CSV_HEADER = "method,baseline,success_bound,advantage_bound,params"
