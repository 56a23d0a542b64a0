"""Attack-risk bounds: baselines, success/advantage, Bayes, reports."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fdprisk import cli
from fdprisk import risk as R
from fdprisk import tradeoff as T

IDENT = T.curve_from_epsilon_delta(0.0, 0.0)
ZERO = T.curve_from_epsilon_delta(math.inf, 0.0)

CATALOG = [
    IDENT,
    T.curve_from_epsilon_delta(1.0, 0.0),
    T.curve_from_epsilon_delta(0.5, 1e-3),
    T.gaussian_curve(0.75),
    T.gaussian_curve(1.41),
    T.laplace_curve(0.2),
    T.laplace_curve(1.0),
]


# ---------------------------------------------------------------- baselines

def test_baseline_values():
    got = R.baseline_value(R.BaselineSpec.pso_weight(5000, 1 / 5000))
    # high-precision reference for n w (1 - w)^(n-1)
    import mpmath
    want = float(5000 * mpmath.mpf(1) / 5000
                 * (1 - mpmath.mpf(1) / 5000) ** 4999)
    assert got == pytest.approx(want, rel=1e-12)
    assert got == pytest.approx(0.3679, abs=5e-4)
    assert R.baseline_value(cli.parse_baseline("spso:1e-4")) == 1e-4
    assert R.baseline_value(R.BaselineSpec.bernoulli(0.5)) == 0.5
    assert R.baseline_value(R.BaselineSpec.bernoulli(0.3)) == 0.7
    assert R.baseline_value(R.BaselineSpec.fixed(0.25)) == 0.25


def test_worst_case_has_no_scalar_baseline():
    with pytest.raises(T.ParameterError):
        R.baseline_value(R.BaselineSpec.worst_case())


def test_baseline_spec_validation():
    with pytest.raises(T.ParameterError):
        R.BaselineSpec.pso_weight(10, 0.2)  # w > 1/n
    with pytest.raises(T.ParameterError):
        R.BaselineSpec.fixed(1.5)
    with pytest.raises(T.ParameterError):
        R.BaselineSpec.bernoulli(-0.1)


# ------------------------------------------------------- success / advantage

def test_succ_bound_examples():
    assert R.succ_bound(IDENT, 0.3) == pytest.approx(0.3)
    assert R.succ_bound(ZERO, 0.3) == pytest.approx(1.0)
    want = 1 - oracles.gaussian_tradeoff_hp(0.75, 0.1)
    assert R.succ_bound(T.gaussian_curve(0.75), 0.1) == pytest.approx(
        want, abs=1e-12)


def test_adv_bound_examples():
    assert R.adv_bound(IDENT, 0.7) == 0.0
    f = T.curve_from_epsilon_delta(0.0, 0.1)
    assert R.adv_bound(f, 0.2) == pytest.approx(0.1, abs=1e-12)
    got = R.adv_bound(T.gaussian_curve(1.41), 1e-4)
    want = 1 - oracles.gaussian_tradeoff_hp(1.41, 1e-4) - 1e-4
    assert got == pytest.approx(want, abs=1e-12)
    assert got == pytest.approx(0.0104, abs=5e-4)


def test_adv_bound_clamped_at_zero():
    assert R.adv_bound(T.gaussian_curve(0.1), 1e-9) >= 0.0


def test_succ_bound_base_range_error():
    with pytest.raises(T.ParameterError):
        R.succ_bound(IDENT, 1.2)


def test_worst_case_equals_max_over_bases():
    for f in CATALOG:
        eta = R.adv_bound_worst_case(f)
        grid = np.linspace(0.0, 1.0, 10_001)
        max_adv = float(np.max(1.0 - f(grid) - grid))
        assert eta == pytest.approx(max(0.0, max_adv), abs=1e-4)
        assert eta == pytest.approx(T.tv_from_curve(f), abs=1e-12)


def test_census_worst_case_numbers():
    assert R.adv_bound_worst_case(T.gaussian_curve(1.41)) == pytest.approx(
        2 * oracles.normal_cdf_hp(0.705) - 1, abs=1e-12)
    std = R.adv_bound_worst_case(T.curve_from_epsilon_delta(10.6, 1e-10))
    assert std > 0.99


# ------------------------------------------------------------------- bayes

def test_bayes_error_examples():
    assert R.bayes_error(IDENT, 0.3) == pytest.approx(0.3)
    for f in CATALOG:
        eta = T.tv_from_curve(f)
        assert R.bayes_error(f, 0.5) == pytest.approx((1 - eta) / 2, abs=1e-6)


def test_bayes_error_gaussian_grid_oracle():
    f = T.gaussian_curve(1.0)
    got = R.bayes_error(f, 0.25)
    want, _ = oracles.grid_min(lambda a: 0.25 * a + 0.75 * f(a), n=1_000_001,
                               rounds=2)
    assert got == pytest.approx(want, abs=1e-9)


def test_bayes_error_gaussian_against_mpmath():
    # pi Phi(-z) + (1 - pi) Phi(z - mu) at z = logit(pi)/mu + mu/2
    with mpmath.workdps(50):
        for mu in (0.3, 1.0, 3.0):
            for pi in (0.0, 1e-6, 0.3, 0.5, 0.58, 0.99, 1.0):
                if 0.0 < pi < 1.0:
                    z = mpmath.log(mpmath.mpf(pi) / (1 - mpmath.mpf(pi))) / mu \
                        + mpmath.mpf(mu) / 2
                    want = pi * mpmath.ncdf(-z) + (1 - pi) * mpmath.ncdf(z - mu)
                else:
                    want = mpmath.mpf(0)
                got = R.bayes_error(T.gaussian_curve(mu), pi)
                assert abs(got - want) <= 1e-15, (mu, pi)


def test_bayes_error_keeps_relative_precision_when_small():
    # delta near 1: 1 - delta would cancel to 0 at mu = 20, pi = 1/2
    with mpmath.workdps(50):
        for mu in (8.0, 20.0, 30.0):
            for pi in (1e-6, 0.3, 0.5, 0.99):
                z = mpmath.log(mpmath.mpf(pi) / (1 - mpmath.mpf(pi))) / mu \
                    + mpmath.mpf(mu) / 2
                want = pi * mpmath.ncdf(-z) + (1 - pi) * mpmath.ncdf(z - mu)
                got = R.bayes_error(T.gaussian_curve(mu), pi)
                assert abs(got - want) <= 1e-13 * want, (mu, pi)


def test_bayes_error_asymmetric_curve_below_one_half():
    # not symmetric: below pi = 1/2 the knot minimum, not the profile
    f = T.piecewise_curve([0.0, 0.05, 1.0], [0.6, 0.1, 0.0])
    for pi in (0.1, 0.3, 0.45):
        want = min(pi * a + (1 - pi) * b for a, b in f.knots)
        assert R.bayes_error(f, pi) == want
        eps = abs(math.log(pi / (1 - pi)))
        assert want != min(pi, 1 - pi) * (1 - T.delta_for_epsilon(f, eps))


def test_bayes_error_gaussian_closed_form():
    # R_f(1/2) = (1 - eta) / 2 = Phi(-mu/2)
    for mu in (0.01, 0.1, 0.5, 1.0, 2.0, 4.0, 8.0):
        got = R.bayes_error(T.gaussian_curve(mu), 0.5)
        assert got == pytest.approx(oracles.normal_cdf_hp(-mu / 2), abs=2e-16)


_PIS = (1e-6, 0.3, 0.5, 0.99)


def _bayes_cases():
    """(curve, 50-digit R_f(pi) at pi) for the closed forms besides the
    Gaussian at mu > 0, which the tests above check."""
    # at eps = 60, R_f(1/2) = e^-30 / 2, where 1 - delta(0) would cancel
    for eps in (0.1, 1.0, 5.0, 60.0):
        yield T.laplace_curve(eps), lambda pi, eps=eps: \
            oracles.laplace_bayes_hp(eps, pi)
    for eps, delta in ((0.0, 0.0), (0.5, 1e-3), (3.0, 0.2), (20.0, 1e-9)):
        p, q = oracles.eps_delta_pair_hp(eps, delta)
        yield T.curve_from_epsilon_delta(eps, delta), lambda pi, p=p, q=q: \
            oracles.discrete_bayes_hp(p, q, pi)
    yield ZERO, lambda pi: oracles.discrete_bayes_hp([1, 0], [0, 1], pi)
    yield T.gaussian_curve(0.0), lambda pi: \
        oracles.discrete_bayes_hp([1], [1], pi)


@pytest.mark.parametrize("f, hp", [pytest.param(f, hp, id=f.provenance)
                                   for f, hp in _bayes_cases()])
def test_bayes_closed_forms_against_mpmath_and_grid(f, hp):
    for pi in _PIS:
        got = R.bayes_error(f, pi)
        with mpmath.workdps(50):
            want = float(hp(pi))
        assert abs(got - want) <= 1e-15 * want, (pi, got, want)
        # a value the curve attains: the closed form may not lie above it
        grid, _ = oracles.grid_min(lambda a: pi * a + (1 - pi) * f(a))
        assert got <= grid + 2e-16 and grid - got <= 1e-13, (pi, got, grid)


@st.composite
def _knot_clouds(draw):
    """Points (0, b0), a cloud inside the unit square and (1, 0): most
    clouds are neither convex nor symmetric."""
    n = draw(st.integers(0, 12))
    inner = draw(st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                          min_size=n, max_size=n))
    return [(0.0, draw(st.floats(0.0, 1.0)))] + inner + [(1.0, 0.0)]


@given(_knot_clouds(), st.floats(0.0, 20.0), st.floats(1e-9, 1.0 - 1e-9))
@settings(max_examples=300, deadline=None)
def test_piecewise_readings_are_the_knot_max_and_min(cloud, eps, pi):
    f = T.piecewise_curve(*zip(*cloud))
    e_eps = math.exp(eps)
    knot_max = max(1.0 - b - e_eps * a for a, b in f.knots)
    knot_min = min(pi * a + (1.0 - pi) * b for a, b in f.knots)
    assert T.delta_for_epsilon(f, eps) == min(1.0, max(0.0, knot_max))
    assert R.bayes_error(f, pi) == knot_min
    # the hull drops only points at or above it, which neither reading
    # needs, and conjugacy at pi >= 1/2 is exact on any curve
    assert knot_max == pytest.approx(
        max(1.0 - b - e_eps * a for a, b in cloud), abs=1e-15)
    assert knot_min == pytest.approx(
        min(pi * a + (1.0 - pi) * b for a, b in cloud), abs=1e-15)
    assert R.bernoulli_succ_bound(f, pi) == pytest.approx(1.0 - knot_min,
                                                          abs=1e-15)


def test_analytic_curve_needs_both_readings():
    g = T.gaussian_curve(1.0)
    for readings in ({}, {"delta": g.delta}, {"bayes": g.bayes}):
        with pytest.raises(T.ParameterError):
            T.TradeoffCurve(provenance="bare", fn=g.fn, **readings)


def test_bernoulli_succ_bound_examples():
    assert R.bernoulli_succ_bound(IDENT, 0.3) == pytest.approx(0.7)
    assert R.bernoulli_succ_bound(ZERO, 0.4) == pytest.approx(1.0)
    got = R.bernoulli_succ_bound(T.gaussian_curve(1.0), 0.5)
    assert got == pytest.approx(oracles.normal_cdf_hp(0.5), abs=1e-9)


@pytest.mark.parametrize("pi", [0.05, 0.3, 0.5, 0.77, 0.99])
def test_bernoulli_dominates_plain_bound(pi):
    for f in CATALOG:
        assert R.bernoulli_succ_bound(f, pi) <= \
            R.succ_bound(f, max(pi, 1 - pi)) + 1e-12


# ----------------------------------------------------------------- reports

def test_risk_report_invariants_and_serialization():
    rep = R.RiskReport(method="succ", baseline_value=0.1, success_bound=0.4,
                       advantage_bound=0.3, parameters={"mu": 1.0})
    row = rep.csv_row()
    assert row.startswith("succ,0.1")
    d = rep.to_json_dict()
    assert list(d) == ["method", "baseline", "success_bound",
                       "advantage_bound", "params"]
    with pytest.raises(T.ParameterError):
        R.RiskReport(method="bad", baseline_value=0.5, success_bound=0.4,
                     advantage_bound=0.5)


# --------------------------------------------------------------- properties

@given(eps=st.floats(0.0, 8.0), delta=st.floats(0.0, 0.5),
       base=st.floats(0.0, 1.0))
@settings(max_examples=80, deadline=None)
def test_sandwich_property(eps, delta, base):
    f = T.curve_from_epsilon_delta(eps, delta)
    succ = R.succ_bound(f, base)
    adv = R.adv_bound(f, base)
    assert base <= succ <= 1.0
    assert 0.0 <= adv <= R.adv_bound_worst_case(f) + 1e-9


def test_succ_monotone_in_base():
    for f in CATALOG:
        bases = np.linspace(0, 1, 201)
        vals = [R.succ_bound(f, float(b)) for b in bases]
        assert np.all(np.diff(vals) >= -1e-12)


def test_worst_case_monotone_in_noise():
    gauss = [R.adv_bound_worst_case(T.gaussian_curve(1.0 / s))
             for s in np.linspace(0.4, 3.0, 14)]
    lap = [R.adv_bound_worst_case(T.laplace_curve(1.0 / b))
           for b in np.linspace(0.5, 10.0, 14)]
    assert np.all(np.diff(gauss) <= 1e-12)
    assert np.all(np.diff(lap) <= 1e-12)
