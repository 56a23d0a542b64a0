"""Noise calibration: closed-form anchors, tightness, monotonicity."""

import math
import warnings

import numpy as np
import pytest
from scipy.stats import norm

import oracles
from fdprisk import accountant as A
from fdprisk import calibrate as C
from fdprisk import risk as R
from fdprisk import tradeoff as T


def _req(**kw):
    defaults = dict(family="gaussian", target_kind="advantage",
                    target_value=0.15, baseline=R.BaselineSpec.worst_case(),
                    method="fdp", tolerance=1e-5)
    defaults.update(kw)
    return C.CalibrationRequest(**defaults)


def test_request_validation():
    with pytest.raises(T.ParameterError):
        _req(method="magic")
    with pytest.raises(T.ParameterError):
        _req(target_value=0.0)
    with pytest.raises(T.ParameterError):
        _req(bracket=(1.0, 0.5))
    with pytest.raises(T.ParameterError):
        _req(rdp_order=1.0)


def test_risk_at_closed_forms():
    req = _req()
    assert C.risk_at(req, 1.0) == pytest.approx(2 * norm.cdf(0.5) - 1,
                                                abs=1e-9)
    assert C.risk_at(req, 1e4) == pytest.approx(0.0, abs=1e-3)
    lap = _req(family="laplace", baseline=R.BaselineSpec.fixed(0.1))
    f = T.laplace_curve(0.2)
    assert C.risk_at(lap, 5.0) == pytest.approx(1 - f(0.1) - 0.1, abs=1e-12)


def test_risk_at_method_family_mismatch():
    req = _req(family="randomized_response", method="zcdp",
               baseline=R.BaselineSpec.fixed(0.1))
    with pytest.raises(T.ParameterError):
        C.risk_at(req, 0.25)


def test_calibrate_worst_case_closed_form():
    res = C.calibrate_noise(_req())
    mu_star = 2 * norm.ppf(0.575)
    assert res.status == "ok"
    assert res.noise_scale == pytest.approx(1.0 / mu_star, rel=1e-4)
    assert res.achieved_risk <= 0.15


def test_trivial_target_flag():
    res = C.calibrate_noise(_req(target_value=0.999999,
                                 bracket=(0.5, 10.0)))
    assert res.status == "trivial"
    assert res.noise_scale == 0.5


def test_infeasible_target_raises():
    # RDP at order 2 cannot certify advantage below sqrt(base) - base
    req = _req(method="rdp", rdp_order=2.0,
               baseline=R.BaselineSpec.fixed(0.5), target_value=1e-7)
    with pytest.raises(C.InfeasibleTargetError):
        C.calibrate_noise(req)


def test_calibration_tightness_random_targets():
    rng = np.random.default_rng(3)
    for _ in range(20):
        target = float(rng.uniform(0.01, 0.9))
        req = _req(target_value=target)
        res = C.calibrate_noise(req)
        if res.status == "trivial":
            continue
        assert C.risk_at(req, res.noise_scale) <= target
        assert C.risk_at(req, res.noise_scale * 0.99) > target


def test_monotonicity_probe():
    scales = np.logspace(-1, 2, 50)
    cases = [
        _req(),
        _req(method="zcdp"),
        _req(method="rdp"),
        _req(method="rdp", rdp_order=2.0, baseline=R.BaselineSpec.fixed(0.1),
             target_kind="advantage"),
        _req(family="laplace", baseline=R.BaselineSpec.fixed(0.1)),
        _req(method="eps_delta", baseline=R.BaselineSpec.fixed(0.1)),
    ]
    for req in cases:
        vals = [C.risk_at(req, float(s)) for s in scales]
        assert np.all(np.diff(vals) <= 1e-9), req.method


def test_method_ordering_at_matched_target():
    # dominance of the trade-off bound implies ordered noise requirements
    def sigma(method, order=None):
        req = _req(method=method, rdp_order=order,
                   baseline=R.BaselineSpec.fixed(0.1), target_value=0.4)
        return C.calibrate_noise(req).noise_scale

    s_fdp, s_zcdp, s_rdp2 = sigma("fdp"), sigma("zcdp"), sigma("rdp", 2.0)
    assert s_fdp <= s_zcdp + 1e-6 <= s_rdp2 + 1e-5


def test_success_target_path():
    req = _req(target_kind="success", target_value=0.3,
               baseline=R.BaselineSpec.fixed(0.1))
    res = C.calibrate_noise(req)
    assert C.risk_at(req, res.noise_scale) <= 0.3
    assert C.risk_at(req, res.noise_scale * 0.99) > 0.3


def test_worst_case_success_target_rejected():
    req = _req(target_kind="success", target_value=0.3)
    with pytest.raises(T.ParameterError):
        C.risk_at(req, 1.0)


def test_compositions_scale_noise():
    res1 = C.calibrate_noise(_req(compositions=1))
    res4 = C.calibrate_noise(_req(compositions=4))
    assert res4.noise_scale == pytest.approx(2 * res1.noise_scale, rel=1e-3)


def test_calibration_evaluates_each_noise_scale_once(monkeypatch):
    seen = []
    risk_at = C.risk_at

    def counting(req, sigma):
        seen.append(sigma)
        return risk_at(req, sigma)

    monkeypatch.setattr(C, "risk_at", counting)
    for kw in ({}, {"bracket": (0.1, 0.2)},  # the second expands hi
               {"baseline": R.BaselineSpec.bernoulli(0.5)}):
        seen.clear()
        res = C.calibrate_noise(_req(**kw))
        assert res.status == "ok"
        assert len(seen) == len(set(seen))
        assert res.noise_scale in seen
        assert res.achieved_risk == risk_at(_req(**kw), res.noise_scale)


def test_bracket_narrower_than_tolerance_returns_hi():
    # no midpoint is taken, so the answer is hi itself and the risk there,
    # not exp(log(hi)), which rounds to another float
    hi = 3.3663275929465444
    assert math.exp(math.log(hi)) != hi
    target = C.risk_at(_req(), hi)
    res = C.calibrate_noise(_req(target_value=target, bracket=(3.3663, hi),
                                 tolerance=1e-4))
    assert res.status == "ok"
    assert res.noise_scale == hi
    assert res.achieved_risk == target


def test_method_bound_rejects_rdp_order_at_most_one():
    spec = A.MechanismSpec(family="gaussian", noise_scale=1.0)
    with pytest.raises(T.ParameterError):
        C.method_bound(spec, "rdp", 0.5)


# ------------------------------------------- worst case: exact maxima

WORST = R.BaselineSpec.worst_case()


def test_worst_case_eps_delta_closed_form():
    for eps in (0.0, 0.1, 1.0, 5.0, 10.0):
        for delta in (0.0, 1e-5, 1e-2):
            bound = C._eps_delta_bound(eps, delta)
            e = math.exp(eps)
            want = (e - 1 + 2 * delta) / (e + 1)
            assert C.bound_at(bound, WORST)[2] == pytest.approx(want,
                                                                abs=3e-16)


def test_worst_case_rdp_single_order_closed_form():
    # (b e)^(1/2) - b at mu = 1, t = 2 peaks where the bound reaches 1
    spec = A.MechanismSpec(family="gaussian", noise_scale=1.0)
    got = C.bound_at(C.method_bound(spec, "rdp", rdp_order=2.0), WORST)[2]
    assert got == pytest.approx(1 - math.exp(-1), abs=2e-16)


def test_worst_case_zcdp_against_oracle():
    for sigma in (0.3, 0.7, 1.0, 1.973592873866185, 3.0, 10.0):
        spec = A.MechanismSpec(family="gaussian", noise_scale=sigma)
        got = C.bound_at(C.method_bound(spec, "zcdp"), WORST)[2]
        want = oracles.zcdp_worst_case_adv_hp(1.0 / (2 * sigma * sigma))
        assert got == pytest.approx(float(want), abs=2e-16)


def test_worst_case_vacuous_rdp_without_warnings():
    # eps(t) is inf at high orders: log 0 + inf would be NaN at base 0
    spec = A.MechanismSpec(family="laplace", noise_scale=0.01, compositions=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bound = C.method_bound(spec, "rdp")
        assert bound.success(np.array([0.0, 0.5]))[0] == 0.0
        assert C.bound_at(bound, WORST)[2] == 1.0
