"""Unified privacy-risk bounds for differentially private mechanisms.

Core objects: trade-off curves (``tradeoff``), mechanism accounting
(``accountant``), attack-risk bounds (``risk``), prior-framework comparison
bounds (``prior_bounds``), noise calibration (``calibrate``), brute-force
verification (``oracle``), and the command-line front end (``cli``). The
names below load their submodule on first use (PEP 562).
"""

import importlib

__version__ = "0.1.0"

_SUBMODULE = {name: module for module, names in (
    ("accountant", "MechanismSpec PldGrid curve_of"),
    ("calibrate", "CalibrationRequest CalibrationResult InfeasibleTargetError "
                  "calibrate_noise risk_at"),
    ("risk", "BaselineSpec RiskReport adv_bound adv_bound_worst_case "
             "baseline_value succ_bound"),
    ("tradeoff", "ParameterError PrivacyProfile TradeoffCurve "
                 "curve_from_epsilon_delta curve_from_profile gaussian_curve "
                 "laplace_curve tv_from_curve"),
) for name in names.split()}
__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_SUBMODULE[name]}", __name__)
    globals()[name] = getattr(module, name)  # later reads skip this hook
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
