"""Noise calibration: invert a risk bound to the minimal noise scale.

Given a mechanism family, a baseline, and a target advantage (or success),
find the smallest noise scale whose bound meets the target, under any of the
supported accounting methods, by bisection on the log noise scale. The
bisection assumes risk is non-increasing in the noise scale. Composed
Laplace breaks that by a little: its discretized loss grid makes the risk a
sawtooth in the noise scale. The answer still meets the target, but it need
not be the smallest noise scale that does.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable

import numpy as np

from . import accountant, prior_bounds, risk
from .accountant import MechanismSpec
from .risk import BaselineSpec
from .tradeoff import (ParameterError, TradeoffCurve, _bisect,
                       _epsilon_at_delta, _exp, curve_from_epsilon_delta,
                       delta_for_epsilon)

METHODS = ("fdp", "rdp", "zcdp", "eps_delta")
_RDP_EPSILON = {"gaussian": prior_bounds.gaussian_rdp_epsilon,
                "laplace": prior_bounds.laplace_rdp_epsilon}


class InfeasibleTargetError(RuntimeError):
    """The target risk cannot be met within the expanded noise bracket."""


@dataclasses.dataclass(frozen=True)
class CalibrationRequest:
    """Everything needed to calibrate: mechanism family, target, method."""

    family: str
    target_kind: str  # "advantage" or "success"
    target_value: float
    baseline: BaselineSpec
    method: str = "fdp"
    sensitivity: float = 1.0
    compositions: int = 1
    # None = the best of the 400 orders of prior_bounds.default_t_grid()
    rdp_order: float | None = None
    eps_delta_delta: float = 1e-5  # delta at which the eps_delta method reads off eps
    tolerance: float = 1e-4
    bracket: tuple = (1e-3, 1e3)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ParameterError(f"unknown method {self.method!r}")
        if self.target_kind not in ("advantage", "success"):
            raise ParameterError(f"unknown target kind {self.target_kind!r}")
        if not 0.0 < self.target_value <= 1.0:
            raise ParameterError("target value must lie in (0, 1]")
        lo, hi = self.bracket
        if not (0 < lo < hi):
            raise ParameterError("bracket must satisfy 0 < lo < hi")
        if not self.tolerance > 0:
            raise ParameterError("tolerance must be > 0")
        if self.rdp_order is not None and not self.rdp_order > 1:
            raise ParameterError("rdp_order must be > 1")


@dataclasses.dataclass(frozen=True)
class CalibrationResult:
    noise_scale: float
    status: str  # "ok" or "trivial"
    achieved_risk: float


# --------------------------------------------------------------------------
# risk evaluation per method

class PriorBound:
    """A prior method's success bound at one baseline and its largest
    advantage over all baselines, computed only when asked.
    A plain slotted class: ``risk_at`` builds one per noise scale."""

    __slots__ = ("success", "worst_case")

    def __init__(self, success: Callable[[float], float],
                 worst_case: Callable[[], float]):
        self.success, self.worst_case = success, worst_case


def method_bound(spec: MechanismSpec, method: str,
                 rdp_order: float | None = None,
                 eps_delta_delta: float = 1e-5):
    """The method's risk bound for one mechanism spec.

    For ``fdp`` this is the mechanism's trade-off curve. For ``zcdp``,
    ``rdp`` and ``eps_delta`` it is a ``PriorBound``; ``eps_delta`` reads off
    the smallest eps at ``eps_delta_delta`` once, here. ``rdp_order`` pins
    one RDP order; None takes the best of ``prior_bounds.default_t_grid()``.
    """
    if method == "fdp":
        return accountant.curve_of(spec)
    k = spec.compositions
    if method == "zcdp":
        if spec.family != "gaussian":
            raise ParameterError("zCDP accounting requires the Gaussian family")
        rho = (spec.sensitivity / spec.noise_scale) ** 2 * k / 2.0
        root_rho = math.sqrt(rho)
        return PriorBound(
            lambda base: prior_bounds._zcdp_success(base, root_rho),
            lambda: prior_bounds._zcdp_worst_case(root_rho))
    if method == "rdp":
        # mu for the Gaussian, eps for Laplace
        scale = spec.sensitivity / spec.noise_scale
        rdp_epsilon = _RDP_EPSILON.get(spec.family)
        if rdp_epsilon is None:
            raise ParameterError(
                f"RDP accounting not supported for family {spec.family!r}")
        grid = (prior_bounds.default_t_grid() if rdp_order is None
                else np.array([rdp_order]))
        frac = (prior_bounds._DEFAULT_T_FRAC if rdp_order is None
                else (grid - 1.0) / grid)
        eps = rdp_epsilon(grid, scale, k)  # once per spec, not per call
        return PriorBound(
            lambda base: prior_bounds._rdp_success(base, eps, frac),
            lambda: prior_bounds._rdp_worst_case(eps, frac))
    if method == "eps_delta":
        # the single-pair curve at the smallest eps at the configured delta
        f = accountant.curve_of(spec)
        eps = _epsilon_at_delta(lambda e: delta_for_epsilon(f, e),
                                eps_delta_delta)
        return _eps_delta_bound(eps, eps_delta_delta)
    raise ParameterError(f"unknown method {method!r}")


def _eps_delta_bound(epsilon: float, delta: float) -> PriorBound:
    """Success 1 - f(b) of the (epsilon, delta) curve f, read off its pieces
    as min(delta + e^eps b, 1 - e^-eps (1 - delta - b)), clamped to [b, 1]:
    neither piece cancels, as 1 - f(b) does where f(b) is near 1. Its worst
    case is the curve's eta, a closed form."""
    f = curve_from_epsilon_delta(epsilon, delta)
    if math.isinf(epsilon):  # f is the zero curve
        return PriorBound(lambda base: 1.0, lambda: 1.0)
    e_pos, e_neg = _exp(epsilon), math.exp(-epsilon)

    def success(b):
        near = delta + (e_pos * b if b > 0.0 else 0.0)  # e_pos may be inf
        far = e_neg * (delta + b) - math.expm1(-epsilon)
        return min(max(min(near, far), b), 1.0)

    return PriorBound(success, lambda: risk.adv_bound_worst_case(f))


def bound_at(bound, baseline: BaselineSpec) -> tuple[float, float, float]:
    """(base, success, advantage) of a ``method_bound`` at one baseline.

    The worst-case baseline has no scalar value; it gives base 0, the
    vacuous success 1 and the largest advantage over all baselines. The
    ``pso_weight`` baseline (n records, predicate weight w) bounds success
    by the union over the n records, min(1, n * success at base w) (Cohen &
    Nissim, PNAS 2020), for every method; its base is n w (1 - w)^(n - 1).
    """
    if baseline.kind == "worst_case":
        if isinstance(bound, TradeoffCurve):
            return 0.0, 1.0, risk.adv_bound_worst_case(bound)
        return 0.0, 1.0, bound.worst_case()
    base = risk.baseline_value(baseline)
    if baseline.kind == "pso_weight":
        _, succ_w, _ = bound_at(bound, BaselineSpec.fixed(baseline.w))
        succ = min(1.0, baseline.n * succ_w)
    elif not isinstance(bound, TradeoffCurve):
        succ = bound.success(base)
    elif baseline.kind == "bernoulli":
        succ = risk.bernoulli_succ_bound(bound, baseline.pi)
    else:
        succ = risk.succ_bound(bound, base)
    return base, succ, max(0.0, succ - base)


def risk_at(req: CalibrationRequest, noise_scale: float) -> float:
    """The requested risk bound (advantage or success) at one noise scale."""
    if req.baseline.kind == "worst_case" and req.target_kind == "success":
        raise ParameterError(
            "worst-case baseline admits no success target; use advantage")
    spec = MechanismSpec(family=req.family, noise_scale=noise_scale,
                         sensitivity=req.sensitivity,
                         compositions=req.compositions)
    bound = method_bound(spec, req.method, req.rdp_order, req.eps_delta_delta)
    _, succ, adv = bound_at(bound, req.baseline)
    return succ if req.target_kind == "success" else adv


# --------------------------------------------------------------------------
# calibration loop

def calibrate_noise(req: CalibrationRequest) -> CalibrationResult:
    """Minimal noise scale whose risk bound meets the target.

    Bisection on log noise scale, to ``req.tolerance``; the bracket's high
    end doubles, at most 16 times, before the target is declared
    infeasible. A target already met at the bracket's low end returns it
    with a trivial-target flag.
    """
    if req.family == "randomized_response":
        raise ParameterError("randomized_response cannot be calibrated: its "
                             "parameter is a flip probability, not a noise "
                             "scale")
    lo, hi = float(req.bracket[0]), float(req.bracket[1])
    risk_lo = risk_at(req, lo)
    if risk_lo <= req.target_value:
        return CalibrationResult(noise_scale=lo, status="trivial",
                                 achieved_risk=risk_lo)
    risk_hi = risk_at(req, hi)
    while risk_hi > req.target_value and hi < req.bracket[1] * 2.0 ** 16:
        hi *= 2.0
        risk_hi = risk_at(req, hi)
    if risk_hi > req.target_value:
        raise InfeasibleTargetError(
            f"target {req.target_kind}={req.target_value} unreachable: "
            f"risk at noise_scale={hi} is still {risk_hi:.6g}")

    seen = {math.log(hi): (hi, risk_hi)}  # log sigma -> (sigma, risk)

    def ok(log_sigma):
        sigma = math.exp(log_sigma)
        seen[log_sigma] = sigma, risk_at(req, sigma)
        return seen[log_sigma][1] <= req.target_value

    sigma, achieved = seen[_bisect(ok, math.log(lo), math.log(hi),
                                   req.tolerance)]
    return CalibrationResult(noise_scale=sigma, status="ok",
                             achieved_risk=achieved)
