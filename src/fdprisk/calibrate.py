"""Noise calibration: invert a risk bound to the minimal noise scale.

Given a mechanism family, a baseline, and a target advantage (or success),
find the smallest noise scale whose bound meets the target, under any of the
supported accounting methods, by a root finder on the log noise scale.
Where the risk falls monotonically in the noise scale, that is Illinois
regula falsi (``tradeoff._solve``). Composed Laplace under fdp or eps_delta
breaks monotonicity by a little: its discretized loss grid makes the risk a
sawtooth in the noise scale, so it is bisected. The answer still meets the
target, but there it need not be the smallest noise scale that does. A
point whose one-query risk, a lower bound on k queries' (Dong, Roth & Su,
JRSS-B 2022), fails the target is ruled out without its k-fold PLD.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import accountant, prior_bounds, risk
from .accountant import MechanismSpec
from .risk import BaselineSpec
from .tradeoff import (ParameterError, TradeoffCurve, _bisect,
                       _epsilon_at_delta, _solve)

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
        if self.rdp_order is not None:
            prior_bounds.rdp_order_frac(self.rdp_order)


@dataclasses.dataclass(frozen=True)
class CalibrationResult:
    noise_scale: float
    status: str  # "ok" or "trivial"
    achieved_risk: float


# --------------------------------------------------------------------------
# risk evaluation per method

def method_bound(spec: MechanismSpec, method: str,
                 rdp_order: float | None = None,
                 eps_delta_delta: float = 1e-5):
    """The method's risk bound for one mechanism spec.

    For ``fdp`` this is the mechanism's trade-off curve, else a
    ``prior_bounds.PriorBound``; ``eps_delta`` reads off the smallest eps at
    ``eps_delta_delta`` once, here. ``rdp_order`` pins one RDP order; None
    takes the best of ``prior_bounds.default_t_grid()``.
    """
    if method == "fdp":
        return accountant.curve_of(spec)
    k = spec.compositions
    if method == "zcdp":
        if spec.family != "gaussian":
            raise ParameterError("zCDP accounting requires the Gaussian family")
        try:
            rho = (spec.sensitivity / spec.noise_scale) ** 2 * k / 2.0
        except OverflowError:  # beyond the largest float: vacuous
            rho = math.inf
        return prior_bounds.zcdp_bound(rho)
    if method == "rdp":
        # mu for the Gaussian, eps for Laplace
        scale = spec.sensitivity / spec.noise_scale
        rdp_epsilon = _RDP_EPSILON.get(spec.family)
        if rdp_epsilon is None:
            raise ParameterError(
                f"RDP accounting not supported for family {spec.family!r}")
        if rdp_order is not None:  # checked before its epsilon is computed
            frac = prior_bounds.rdp_order_frac(rdp_order)
            eps = rdp_epsilon(np.array([rdp_order]), scale, k)
            return prior_bounds._rdp_bound(eps, np.array([frac]))
        # the default grid is valid: no check at each calibration step
        eps = rdp_epsilon(prior_bounds.default_t_grid(), scale, k)
        return prior_bounds._rdp_bound(eps, prior_bounds._DEFAULT_T_FRAC)
    if method == "eps_delta":
        # the single-pair curve at the smallest eps at the configured delta
        delta_of = accountant.curve_of(spec).delta  # read at eps >= 0 only
        try:
            eps = _epsilon_at_delta(delta_of, eps_delta_delta)
        except ParameterError:  # no eps up to 1e6: e^eps overflows, vacuous
            eps = math.inf
        return prior_bounds.eps_delta_bound(eps, eps_delta_delta)
    raise ParameterError(f"unknown method {method!r}")


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

    Regula falsi on log noise scale, or bisection where the risk comes from
    a composed Laplace PLD, until the bracket is at most ``req.tolerance``
    wide: the answer meets the target and, for a monotone risk, lies within
    the tolerance in log noise scale above the smallest noise scale that
    does; a bisected point whose one-query risk exceeds the target by over
    1e-9, far above the PLD's FFT round-off, fails with no PLD built. The
    bracket's high end doubles, at most 16 times, before the target is
    declared infeasible. A target already met at the bracket's low end
    returns it with a trivial-target flag.
    """
    if req.family == "randomized_response":
        raise ParameterError("randomized_response cannot be calibrated: its "
                             "parameter is a flip probability, not a noise "
                             "scale")
    composed = (req.family == "laplace" and req.compositions > 1
                and req.method in ("fdp", "eps_delta"))  # a sawtooth in sigma

    def ruled_out(sigma):  # k queries risk at least what one query does
        return composed and risk_at(dataclasses.replace(
            req, compositions=1), sigma) > req.target_value + 1e-9

    lo, hi = float(req.bracket[0]), float(req.bracket[1])
    risk_lo = math.inf if ruled_out(lo) else risk_at(req, lo)
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

    def risk_of(log_sigma):
        sigma = math.exp(log_sigma)
        seen[log_sigma] = sigma, risk_at(req, sigma)
        return seen[log_sigma][1]

    lo, hi = math.log(lo), math.log(hi)
    if composed:
        x = _bisect(lambda x: not ruled_out(math.exp(x))
                    and risk_of(x) <= req.target_value, lo, hi, req.tolerance)
    else:
        x = _solve(risk_of, req.target_value, lo, hi, risk_lo, risk_hi,
                   tol=req.tolerance)
    sigma, achieved = seen[x]
    return CalibrationResult(noise_scale=sigma, status="ok",
                             achieved_risk=achieved)
