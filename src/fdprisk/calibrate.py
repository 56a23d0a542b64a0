"""Noise calibration: invert a risk bound to the minimal noise scale.

Given a mechanism family, a baseline, and a target advantage (or success),
find the smallest noise scale whose bound meets the target, under any of the
supported accounting methods. Risk is monotone non-increasing in the noise
scale for every supported (family, method) pair, so robust bisection on the
log scale suffices.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import accountant, prior_bounds, risk
from .accountant import MechanismSpec
from .risk import BaselineSpec
from .tradeoff import (ParameterError, TradeoffCurve, _bisect,
                       curve_from_epsilon_delta, delta_for_epsilon)

METHODS = ("fdp", "rdp", "zcdp", "eps_delta")
_RDP_EPSILON = {"gaussian": prior_bounds.gaussian_rdp_epsilon,
                "laplace": prior_bounds.laplace_rdp_epsilon}


class InfeasibleTargetError(RuntimeError):
    """The target risk cannot be met within the expanded noise bracket."""


class ConsistencyError(RuntimeError):
    """Risk failed to decrease with noise; calibration assumptions violated."""


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
    method: str
    target_kind: str
    target_value: float


# --------------------------------------------------------------------------
# risk evaluation per method

def method_bound(spec: MechanismSpec, method: str,
                 rdp_order: float | None = None,
                 eps_delta_delta: float = 1e-5):
    """The method's risk bound for one mechanism spec.

    For ``fdp`` this is the mechanism's trade-off curve. For ``zcdp``,
    ``rdp`` and ``eps_delta`` it is a function from an array of scalar
    baselines to the success bounds at them; ``eps_delta`` reads off the
    smallest eps at ``eps_delta_delta`` once, here. ``rdp_order`` pins one
    RDP order; None takes the best of ``prior_bounds.default_t_grid()``.
    """
    if method == "fdp":
        return accountant.curve_of(spec)
    k = spec.compositions
    if method == "zcdp":
        if spec.family != "gaussian":
            raise ParameterError("zCDP accounting requires the Gaussian family")
        rho = (spec.sensitivity / spec.noise_scale) ** 2 * k / 2.0
        return lambda bases: prior_bounds.srr_bound_zcdp(bases, rho)
    if method == "rdp":
        if rdp_order is not None and not rdp_order > 1:
            raise ParameterError("rdp_order must be > 1")
        # mu for the Gaussian, eps for Laplace
        scale = spec.sensitivity / spec.noise_scale
        rdp_epsilon = _RDP_EPSILON.get(spec.family)
        if rdp_epsilon is None:
            raise ParameterError(
                f"RDP accounting not supported for family {spec.family!r}")
        grid = (prior_bounds.default_t_grid() if rdp_order is None
                else [rdp_order])
        return lambda bases: prior_bounds.srr_bound_rdp_curve(
            bases, lambda t: rdp_epsilon(t, scale, k), grid)
    if method == "eps_delta":
        # the single-pair curve at the smallest eps at the configured delta
        eps = _epsilon_at_delta(accountant.curve_of(spec), eps_delta_delta)
        return _curve_success(curve_from_epsilon_delta(eps, eps_delta_delta))
    raise ParameterError(f"unknown method {method!r}")


def _curve_success(f: TradeoffCurve):
    """Success bound 1 - f(base), clamped to [base, 1], over base arrays."""
    return lambda bases: np.clip(1.0 - f(bases), bases, 1.0)


def bound_at(bound, baseline: BaselineSpec) -> tuple[float, float, float]:
    """(base, success, advantage) of a ``method_bound`` at one baseline.

    The worst-case baseline has no scalar value; it gives base 0, the
    vacuous success 1 and the largest advantage over all baselines.
    """
    if baseline.kind == "worst_case":
        if isinstance(bound, TradeoffCurve):
            return 0.0, 1.0, risk.adv_bound_worst_case(bound)
        return 0.0, 1.0, _worst_case_adv(bound)
    base = risk.baseline_value(baseline)
    if not isinstance(bound, TradeoffCurve):
        succ = float(bound(np.array([base]))[0])
    elif baseline.kind == "bernoulli":
        succ = risk.bernoulli_succ_bound(bound, baseline.pi)
    else:
        succ = float(_curve_success(bound)(np.array([base]))[0])
    return base, succ, max(0.0, succ - base)


def _epsilon_at_delta(f: TradeoffCurve, delta: float) -> float:
    """Smallest eps such that the curve f satisfies (eps, delta)-DP."""
    if delta_for_epsilon(f, 0.0) <= delta:
        return 0.0
    hi = 1.0
    while delta_for_epsilon(f, hi) > delta:
        hi *= 2.0
        if hi > 1e6:
            raise ParameterError("cannot find finite epsilon at this delta")
    return _bisect(lambda e: delta_for_epsilon(f, e) <= delta, 0.0, hi,
                   steps=100)


def _worst_case_adv(succ) -> float:
    """Largest advantage over all scalar baselines of a success bound."""
    bases = np.concatenate([np.linspace(1e-6, 1.0 - 1e-6, 512),
                            np.logspace(-9, -0.05, 128)])
    vals = succ(bases) - bases
    i = int(np.argmax(vals))
    best, b0 = float(vals[i]), float(bases[i])
    lo = max(1e-9, b0 - 5e-3)
    hi = min(1.0 - 1e-9, b0 + 5e-3)
    for _ in range(6):
        bs = np.linspace(lo, hi, 65)
        vs = succ(bs) - bs
        j = int(np.argmax(vs))
        if vs[j] > best:
            best, b0 = float(vs[j]), float(bs[j])
        span = (hi - lo) / 16.0
        lo, hi = max(1e-9, b0 - span), min(1.0 - 1e-9, b0 + span)
    return max(0.0, best)


def risk_at(req: CalibrationRequest, noise_scale: float) -> float:
    """The requested risk bound (advantage or success) at one noise scale."""
    if not noise_scale > 0:
        raise ParameterError("noise_scale must be > 0")
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

    Bisection on log noise scale; the bracket auto-expands up to 2^16 in each
    direction before the target is declared infeasible. A target already met
    at the bracket's low end returns it with a trivial-target flag.
    """
    if req.family == "randomized_response":
        raise ParameterError("randomized_response cannot be calibrated: its "
                             "parameter is a flip probability, not a noise "
                             "scale")
    lo, hi = float(req.bracket[0]), float(req.bracket[1])
    risk_lo = risk_at(req, lo)
    risk_hi = risk_at(req, hi)

    if risk_lo <= req.target_value:
        return CalibrationResult(noise_scale=lo, status="trivial",
                                 achieved_risk=risk_lo, method=req.method,
                                 target_kind=req.target_kind,
                                 target_value=req.target_value)
    expansions = 0
    while risk_hi > req.target_value:
        expansions += 1
        if 2.0 ** expansions > 2 ** 16:
            raise InfeasibleTargetError(
                f"target {req.target_kind}={req.target_value} unreachable: "
                f"risk at noise_scale={hi} is still {risk_hi:.6g}")
        hi *= 2.0
        risk_hi = risk_at(req, hi)
    if risk_hi > risk_lo + 1e-9:
        raise ConsistencyError("risk increased with noise scale")

    log_lo, log_hi = math.log(lo), math.log(hi)
    while log_hi - log_lo > req.tolerance:
        mid = 0.5 * (log_lo + log_hi)
        if risk_at(req, math.exp(mid)) <= req.target_value:
            log_hi = mid
        else:
            log_lo = mid
    sigma = math.exp(log_hi)
    achieved = risk_at(req, sigma)
    if achieved > req.target_value + 1e-12:
        raise ConsistencyError("bisection landed above the target")
    return CalibrationResult(noise_scale=sigma, status="ok",
                             achieved_risk=achieved, method=req.method,
                             target_kind=req.target_kind,
                             target_value=req.target_value)
