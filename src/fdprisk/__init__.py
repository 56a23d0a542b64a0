"""Unified privacy-risk bounds for differentially private mechanisms.

Core objects: trade-off curves (``tradeoff``), mechanism accounting
(``accountant``), attack-risk bounds (``risk``), prior-framework comparison
bounds (``prior_bounds``), noise calibration (``calibrate``), brute-force
verification (``oracle``), and the command-line front end (``cli``).
"""

from .accountant import MechanismSpec, PldGrid, curve_of
from .calibrate import (CalibrationRequest, CalibrationResult,
                        InfeasibleTargetError, calibrate_noise, risk_at)
from .risk import BaselineSpec, RiskReport, adv_bound, adv_bound_worst_case, \
    baseline_value, succ_bound
from .tradeoff import (ParameterError, PrivacyProfile, TradeoffCurve,
                       curve_from_epsilon_delta, curve_from_profile,
                       gaussian_curve, laplace_curve, tv_from_curve)

__version__ = "0.1.0"

__all__ = [
    "BaselineSpec", "CalibrationRequest", "CalibrationResult",
    "InfeasibleTargetError", "MechanismSpec", "ParameterError", "PldGrid",
    "PrivacyProfile", "RiskReport", "TradeoffCurve",
    "adv_bound", "adv_bound_worst_case", "baseline_value", "calibrate_noise",
    "curve_from_epsilon_delta", "curve_from_profile", "curve_of",
    "gaussian_curve", "laplace_curve", "risk_at", "succ_bound",
    "tv_from_curve",
]
