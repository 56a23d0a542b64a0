"""Mechanism accounting: curves, PLD discretization, and composition."""

import math
import warnings

import numpy as np
import pytest

import oracles
from fdprisk import accountant as A
from fdprisk import tradeoff as T

GRID = np.linspace(0.0, 1.0, 2001)


# ------------------------------------------------------------------- specs

def test_spec_validation():
    with pytest.raises(T.ParameterError):
        A.MechanismSpec(family="cauchy", noise_scale=1.0)
    with pytest.raises(T.ParameterError):
        A.MechanismSpec(family="gaussian", noise_scale=0.0)
    with pytest.raises(T.ParameterError):
        A.MechanismSpec(family="randomized_response", noise_scale=0.7)
    with pytest.raises(T.ParameterError):
        A.MechanismSpec(family="gaussian", noise_scale=1.0, compositions=0)
    with pytest.raises(T.ParameterError):
        A.MechanismSpec(family="gaussian", noise_scale=1.0,
                        neighborhood="swap-two")


def test_spec_from_config_text(tmp_path):
    section = {"family": "laplace", "noise_scale": "5.0",
               "sensitivity": "1.0", "compositions": "3",
               "neighborhood": "replace-one"}
    spec = A.spec_from_section(section)
    assert spec.family == "laplace"
    assert spec.noise_scale == 5.0
    assert spec.compositions == 3
    assert spec.neighborhood == "replace-one"
    path = tmp_path / "mech.cfg"
    path.write_text("[mechanism]\n" + "".join(f"{k} = {v}\n"
                                              for k, v in section.items()))
    assert A.spec_from_config(str(path)) == spec


def test_spec_from_config_errors(tmp_path):
    with pytest.raises(T.ParameterError):
        A.spec_from_section({"family": "gaussian"})
    with pytest.raises(T.ParameterError):
        A.spec_from_section({"family": "gaussian", "noise_scale": "x"})
    malformed = tmp_path / "bad.cfg"
    malformed.write_text("[mechanism\nfamily = gaussian\n")
    with pytest.raises(T.ParameterError):
        A.spec_from_config(str(malformed))
    with pytest.raises(T.ParameterError):
        A.spec_from_config("/nonexistent/path.cfg")


# ---------------------------------------------------------------- curve_of

def test_gaussian_curve_of_and_composition():
    s1 = A.MechanismSpec(family="gaussian", noise_scale=1.0)
    assert np.allclose(A.curve_of(s1)(GRID), T.gaussian_curve(1.0)(GRID),
                       atol=1e-15)
    s4 = A.MechanismSpec(family="gaussian", noise_scale=1.0, compositions=4)
    assert np.allclose(A.curve_of(s4)(GRID), T.gaussian_curve(2.0)(GRID),
                       atol=1e-15)


def test_laplace_curve_of_single():
    s = A.MechanismSpec(family="laplace", noise_scale=5.0)
    assert np.allclose(A.curve_of(s)(GRID), T.laplace_curve(0.2)(GRID),
                       atol=1e-15)


def _binomial_pair(p, k):
    """k-fold randomized response as counts of 1s: exact binomial pmfs."""
    pmf = np.array([math.comb(k, j) * (1 - p) ** j * p ** (k - j)
                    for j in range(k + 1)])
    return pmf, pmf[::-1]


def test_randomized_response_matches_oracle_exactly():
    alphas = np.linspace(0.0, 1.0, 6001)
    for k in (1, 2, 18, 64):
        for p in (0.05, 0.1, 0.25, 0.4, 0.45):
            f = A.curve_of(A.MechanismSpec(family="randomized_response",
                                           noise_scale=p, compositions=k))
            want = oracles.np_tradeoff_eval(*_binomial_pair(p, k), alphas)
            assert np.max(np.abs(f(alphas) - want)) <= 1e-14, (k, p)


def test_randomized_response_many_compositions():
    # 4000 answers: most binomial atoms underflow, none may warn
    from scipy.stats import binom
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = A.randomized_response_curve(0.45, 4000)
        eta = T.tv_from_curve(f).eta
    # TV of the pair: P(count > k/2) under each bit, the middle atom tied
    tv = binom.sf(2000, 4000, 0.55) - binom.sf(2000, 4000, 0.45)
    assert abs(eta - tv) <= 1e-12
    assert eta < 1.0


def test_composition_monotonicity():
    curves = [A.curve_of(A.MechanismSpec(family="laplace", noise_scale=5.0,
                                         compositions=k)) for k in (1, 2, 3)]
    for k in range(len(curves) - 1):
        assert np.all(curves[k + 1](GRID) <= curves[k](GRID) + 1e-9)


# --------------------------------------------------------------------- PLD

def test_pld_of_laplace_normalization():
    pld = A.pld_of_laplace(0.2, grid_step=1e-4)
    total = pld.masses.sum() + pld.truncation_mass
    assert total == pytest.approx(1.0, abs=1e-12)
    assert np.all(pld.masses >= 0)


def test_pld_of_laplace_pure_dp_support():
    pld = A.pld_of_laplace(0.2, grid_step=1e-4)
    # support bounded by eps (+ one round-up step), so delta(eps + step) = 0
    prof = A.profile_from_pld(pld, [0.2 + 2e-4])
    assert prof.deltas[0] == pytest.approx(0.0, abs=1e-12)


def test_pld_of_laplace_delta_at_zero_is_tv():
    eps = 0.2
    pld = A.pld_of_laplace(eps, grid_step=1e-5)
    prof = A.profile_from_pld(pld, [0.0])
    want = T.tv_from_curve(T.laplace_curve(eps)).eta
    assert prof.deltas[0] == pytest.approx(want, abs=1e-4)
    # pessimistic rounding: the PLD estimate is an upper bound
    assert prof.deltas[0] >= want - 1e-12


def test_pld_of_laplace_step_too_coarse():
    with pytest.raises(T.ParameterError):
        A.pld_of_laplace(0.2, grid_step=0.5)


def _pld_compose_fftconvolve(pld, k):
    """pld_compose as it was built on scipy.signal.fftconvolve."""
    from scipy.signal import fftconvolve
    base_m, base_off = pld.masses, pld.offset
    result_m, result_off = None, 0.0
    while k:
        if k & 1:
            if result_m is None:
                result_m, result_off = base_m.copy(), base_off
            else:
                result_m = np.maximum(fftconvolve(result_m, base_m), 0.0)
                result_off += base_off
        k >>= 1
        if k:
            base_m = np.maximum(fftconvolve(base_m, base_m), 0.0)
            base_off += base_off
    return result_m, result_off


def test_pld_compose_identity():
    pld = A.pld_of_laplace(0.2, grid_step=1e-3)
    assert A.pld_compose(pld, 1) is pld
    # bit-identical with the scipy.signal composition it replaced
    plds = [A.pld_of_laplace(0.2, grid_step=1e-3),
            A.pld_of_laplace(1.0, grid_step=1e-4),
            # randomized response at p = 0.1, 0.3: atoms at -+log((1-p)/p)
            A.PldGrid(offset=-math.log(9.0), step=2 * math.log(9.0),
                      masses=np.array([0.1, 0.9])),
            A.PldGrid(offset=-math.log(7 / 3), step=2 * math.log(7 / 3),
                      masses=np.array([0.3, 0.7]))]
    for pld in plds:
        for k in (2, 3, 18):
            got = A.pld_compose(pld, k)
            masses, offset = _pld_compose_fftconvolve(pld, k)
            if masses.sum() > 1.0:
                masses *= 1.0 / masses.sum()
            assert got.offset == offset
            assert np.array_equal(got.masses, masses)
            assert got.truncation_mass == max(0.0, 1.0 - masses.sum())


def test_pld_gaussian_composition_matches_analytic():
    mu = 0.5
    k = 4
    pld = A.pld_compose(A.pld_of_gaussian(mu, grid_step=1e-3), k)
    eps_grid = np.linspace(0.0, 5.0, 51)
    prof = A.profile_from_pld(pld, eps_grid)
    analytic = np.array([oracles.gaussian_profile_delta_hp(mu * math.sqrt(k), e)
                         for e in eps_grid])
    # pessimistic, but within the accuracy budget
    assert np.all(prof.deltas >= analytic - 1e-12)
    assert np.max(np.abs(prof.deltas - analytic)) < 1e-3


def test_pld_gaussian_profile_self_consistency():
    mu = 1.0
    pld = A.pld_of_gaussian(mu, grid_step=5e-4)
    # bit-identical with the scipy.stats form it replaced
    from scipy.stats import norm
    for m in (0.3, mu, 4.0):
        mean, sd = m * m / 2.0, m
        lo, hi = mean - 12.0 * sd, mean + 12.0 * sd
        edges = lo + 5e-4 * np.arange(int(math.ceil((hi - lo) / 5e-4)) + 1)
        cdf = norm.cdf(edges, loc=mean, scale=sd)
        got = A.pld_of_gaussian(m, grid_step=5e-4)
        assert np.array_equal(got.masses, np.maximum(np.diff(cdf), 0.0))
    eps_grid = np.linspace(0.0, 5.0, 26)
    prof = A.profile_from_pld(pld, eps_grid)
    analytic = np.array([oracles.gaussian_profile_delta_hp(mu, e)
                         for e in eps_grid])
    assert np.max(np.abs(prof.deltas - analytic)) < 1e-4


def test_composed_profile_monotone_and_bounded():
    eps = 0.2
    k = 15
    pld = A.pld_compose(A.pld_of_laplace(eps, grid_step=1e-4), k)
    eps_grid = np.linspace(0.0, k * eps, 61)
    prof = A.profile_from_pld(pld, eps_grid)
    assert np.all(np.diff(prof.deltas) <= 1e-12)
    assert np.all(prof.deltas <= 1.0)
    # beyond the (rounded-up) k-fold support the composed delta vanishes
    top = float(pld.losses[-1]) + pld.step
    assert A.profile_from_pld(pld, [top]).deltas[0] == pytest.approx(0.0,
                                                                     abs=1e-12)


def test_composed_curve_conservative_vs_gaussian_oracle():
    # Gaussian-analog check of the PLD composition path end to end:
    # profile -> envelope stays below (never claims more privacy than) the
    # exact composed curve, within grid tolerance
    mu, k = 0.5, 4
    pld = A.pld_compose(A.pld_of_gaussian(mu, grid_step=1e-3), k)
    prof = A.profile_from_pld(pld, np.linspace(0.0, 8.0, 400))
    env = T.curve_from_profile(prof)
    exact = T.gaussian_curve(mu * math.sqrt(k))
    a = np.linspace(0.0, 1.0, 2001)
    assert np.all(env(a) <= exact(a) + 1e-10)
    assert np.max(exact(a) - env(a)) < 1e-3


def test_pld_grid_invariant_validation():
    with pytest.raises(T.ParameterError):
        A.PldGrid(offset=0.0, step=0.1, masses=np.array([0.5, 0.4]))
    with pytest.raises(T.ParameterError):
        A.PldGrid(offset=0.0, step=-0.1, masses=np.array([1.0]))
