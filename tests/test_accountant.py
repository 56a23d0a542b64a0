"""Mechanism accounting: curves, PLD discretization, and composition."""

import math
import warnings

import mpmath
import numpy as np
import pytest

import oracles
from fdprisk import accountant as A
from fdprisk import risk as R
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


def test_cell_budget_refused_before_allocating():
    # one cell past the budget each; neither allocates a cell of it
    with pytest.raises(T.ParameterError, match="budget"):
        A.rr_pair(A.MAX_RR_CELLS, math.log(0.7), math.log(0.3))
    pld = A.pld_of_laplace(0.2)  # about 4,000 cells of 1e-4 a query
    with pytest.raises(T.ParameterError, match="budget"):
        A.pld_compose(pld, A.MAX_CELLS // 4000 + 1)


def test_randomized_response_many_compositions():
    # 4000 answers: most binomial atoms underflow, none may warn
    from scipy.stats import binom
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = A.randomized_response_curve(0.45, 4000)
        eta = T.tv_from_curve(f)
    # TV of the pair: P(count > k/2) under each bit, the middle atom tied
    tv = binom.sf(2000, 4000, 0.55) - binom.sf(2000, 4000, 0.45)
    assert abs(eta - tv) <= 1e-12
    assert eta < 1.0


@pytest.mark.parametrize("k", (1, 18, 64, 4000))
@pytest.mark.parametrize("p", (0.05, 0.3, 0.45))
def test_randomized_response_delta_against_direct_summation(p, k):
    # the curve's own delta(eps) is the optimal-composition delta at
    # eps0 = log((1-p)/p); its log masses carry a few ulps of their
    # magnitude, log k! + k eps0, as relative error
    f = A.randomized_response_curve(p, k)
    eps0 = math.log1p(-p) - math.log(p)
    tol = 1e-15 * (1.0 + math.lgamma(k + 1) + k * eps0)
    for frac in (0.0, 0.3, 0.9):
        eps = frac * k * eps0
        with mpmath.workdps(40):
            want = oracles.kov_delta_direct(eps0, k, eps)
        assert abs(T.delta_for_epsilon(f, eps) - want) <= tol * want, eps
    assert T.delta_for_epsilon(f, k * eps0) == 0.0  # no loss above k eps0


@pytest.mark.parametrize("p, k, pi", [(0.3, 18, 1e-6), (0.25, 100, 1e-6),
                                       (0.25, 100, 0.5), (0.3, 18, 0.5),
                                       (0.3, 1, 0.2)])
def test_randomized_response_bayes_error_against_mpmath(p, k, pi):
    # the sum over the pmf of min(pi P, (1 - pi) Q); the knot minimum was
    # 3.9e-10 low at (0.3, 18, 1e-6) and 1.0e-5 high at (0.25, 100, 1e-6)
    got = R.bayes_error(A.randomized_response_curve(p, k), pi)
    with mpmath.workdps(50):
        pm, w = mpmath.mpf(p), mpmath.mpf(pi)
        want = sum(mpmath.binomial(k, j) * min(w * (1 - pm) ** j * pm ** (k - j),
                                               (1 - w) * pm ** j * (1 - pm) ** (k - j))
                   for j in range(k + 1))
        assert abs(got - want) <= 3e-14 * want


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
    want = T.tv_from_curve(T.laplace_curve(eps))
    assert prof.deltas[0] == pytest.approx(want, abs=1e-4)
    # pessimistic rounding: the PLD estimate is an upper bound
    assert prof.deltas[0] >= want - 1e-12


def test_pld_of_laplace_step_too_coarse():
    with pytest.raises(T.ParameterError):
        A.pld_of_laplace(0.2, grid_step=0.5)


def _pld_compose_direct(pld, k):
    """Masses of the k-fold self-composition by a chain of direct
    convolutions: sums of products of non-negative masses, no FFT."""
    m = pld.masses
    for _ in range(k - 1):
        m = np.convolve(m, pld.masses)
    return m


def _rr_pld(p):
    """Randomized response at flip probability p: atoms at -+log((1-p)/p)."""
    return A.PldGrid(offset=-math.log((1 - p) / p),
                     step=2 * math.log((1 - p) / p),
                     masses=np.array([p, 1 - p]))


def _pld_compose_power(pld, k):
    """The raw masses pld_compose forms before its surplus rule, on
    scipy.fft: a reference independent of pld_compose's numpy.fft."""
    from scipy.fft import irfft, next_fast_len, rfft
    n = k * (pld.masses.size - 1) + 1
    size = next_fast_len(n, real=True)
    spec = rfft(pld.masses, size)
    np.power(spec, k, out=spec)
    return np.maximum(irfft(spec, size)[:n], 0.0)


def test_fast_len_is_scipy_next_fast_len():
    from scipy.fft import next_fast_len
    rng = np.random.default_rng(5)
    for n in [*range(1, 20_001), *rng.integers(20_001, 5_000_000, 3000)]:
        assert A._fast_len(int(n)) == next_fast_len(int(n), real=True), n


def test_pld_compose_masses_bit_identical_to_scipy_fft(monkeypatch):
    import scipy.fft
    for b in (0.5, 1, 2, 5, 10, 20):
        pld = A.pld_of_laplace(1.0 / b)
        for k in (2, 3, 6, 10, 18, 64):
            got = A.pld_compose(pld, k)
            raw = _pld_compose_power(pld, k)
            if raw.sum() <= 1.0:  # else the surplus rule moved some cells
                assert np.array_equal(got.masses, raw), (b, k)
            # and the whole of pld_compose, surplus rule included
            with monkeypatch.context() as m:
                m.setattr(np.fft, "rfft", scipy.fft.rfft)
                m.setattr(np.fft, "irfft", scipy.fft.irfft)
                want = A.pld_compose(pld, k)
            assert np.array_equal(got.masses, want.masses), (b, k)
            assert got.truncation_mass == want.truncation_mass, (b, k)


def test_pld_compose_identity():
    pld = A.pld_of_laplace(0.2, grid_step=1e-3)
    assert A.pld_compose(pld, 1) is pld
    # within FFT round-off of the direct convolution, cell by cell; the
    # direct chain on 20,001 cells stops at k = 3 to stay cheap
    cases = [(A.pld_of_laplace(0.2, grid_step=1e-3), (2, 3, 18)),
             (A.pld_of_laplace(1.0, grid_step=1e-4), (2, 3)),
             (_rr_pld(0.1), (2, 3, 18)), (_rr_pld(0.3), (2, 3, 18))]
    for pld, ks in cases:
        for k in ks:
            got = A.pld_compose(pld, k)
            masses = _pld_compose_direct(pld, k)
            assert got.offset == k * pld.offset
            assert np.max(np.abs(got.masses - masses)) <= 1e-14
            assert 0.0 <= got.truncation_mass <= 1e-14
            assert abs(got.masses.sum() + got.truncation_mass - 1.0) <= 1e-15


def test_pld_compose_delta_within_round_off_of_direct_convolution():
    # coarse grids, so the direct chain stays cheap at k = 64
    plds = [A.pld_of_laplace(0.2, grid_step=4e-3),
            A.pld_of_laplace(1.0, grid_step=1e-2),
            _rr_pld(0.1), _rr_pld(0.3)]
    for pld in plds:
        for k in (2, 3, 7, 18, 64):
            got = A.pld_compose(pld, k)
            direct = A.PldGrid(offset=got.offset, step=pld.step,
                               masses=_pld_compose_direct(pld, k))
            top = float(got.losses[-1]) + pld.step
            eps = np.concatenate([np.linspace(0.0, top, 401),
                                  got.losses[got.losses >= 0]])
            diff = (A.profile_from_pld(got, eps).deltas
                    - A.profile_from_pld(direct, eps).deltas)
            assert np.max(np.abs(diff)) <= 5e-14, (pld.step, k)


def test_pld_compose_surplus_leaves_delta_certified():
    # Laplace PLDs whose FFT self-convolution sums to more than 1
    for eps, step in ((0.15, 1e-4), (0.25, 1e-3), (0.9, 1e-4), (1.0, 1e-3)):
        pld = A.pld_of_laplace(eps, grid_step=step)
        raw = _pld_compose_power(pld, 2)
        assert raw.sum() > 1.0
        got = A.pld_compose(pld, 2)
        assert got.truncation_mass == 0.0
        assert abs(got.masses.sum() - 1.0) <= 1e-15
        # only the lowest-loss cells gave up mass; rescaling lowers them all
        rescaled = A.PldGrid(offset=got.offset, step=step,
                             masses=raw / raw.sum())
        assert np.all(got.masses <= raw)
        assert got.losses[got.masses != raw].max() < 0.0
        assert np.all(rescaled.masses[got.losses >= 0] <= raw[got.losses >= 0])
        # so delta(eps >= 0) is never below the rescaled PLD's, up to the
        # rounding of the profile's sums
        eps_grid = np.linspace(0.0, 2 * eps + step, 401)
        assert np.all(A.profile_from_pld(got, eps_grid).deltas
                      >= A.profile_from_pld(rescaled, eps_grid).deltas - 2e-16)


def test_pld_gaussian_composition_matches_analytic():
    mu = 0.5
    k = 4
    pld = A.pld_compose(oracles.pld_of_gaussian(mu, grid_step=1e-3), k)
    eps_grid = np.linspace(0.0, 5.0, 51)
    prof = A.profile_from_pld(pld, eps_grid)
    analytic = np.array([oracles.gaussian_profile_delta_hp(mu * math.sqrt(k), e)
                         for e in eps_grid])
    # pessimistic, but within the accuracy budget
    assert np.all(prof.deltas >= analytic - 1e-12)
    assert np.max(np.abs(prof.deltas - analytic)) < 1e-3


def test_pld_gaussian_profile_self_consistency():
    mu = 1.0
    pld = oracles.pld_of_gaussian(mu, grid_step=5e-4)
    # bit-identical with the scipy.stats form it replaced
    from scipy.stats import norm
    for m in (0.3, mu, 4.0):
        mean, sd = m * m / 2.0, m
        lo, hi = mean - 12.0 * sd, mean + 12.0 * sd
        edges = lo + 5e-4 * np.arange(int(math.ceil((hi - lo) / 5e-4)) + 1)
        cdf = norm.cdf(edges, loc=mean, scale=sd)
        got = oracles.pld_of_gaussian(m, grid_step=5e-4)
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


def test_profile_of_wide_losses_without_overflow():
    # losses span [-2000, 2000]: e^-L overflows below -709 and e^eps beyond
    # 709; neither may warn, and delta stays the certified suffix bound
    pld = A.pld_compose(A.pld_of_laplace(1000.0, grid_step=0.5), 2)
    top = float(pld.losses[-1]) + pld.step
    eps_grid = np.array([0.0, 1.0, 500.0, 709.0, 710.0, 1500.0, top])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prof = A.profile_from_pld(pld, eps_grid)
    above = [pld.masses[pld.losses > e].sum() for e in eps_grid]
    assert np.all(prof.deltas <= np.array(above) + 1e-15)
    assert prof.deltas[0] == pytest.approx(1.0, abs=1e-12)
    assert prof.deltas[-1] == 0.0


def test_composed_curve_conservative_vs_gaussian_oracle():
    # Gaussian-analog check of the PLD composition path end to end:
    # profile -> envelope stays below (never claims more privacy than) the
    # exact composed curve, within grid tolerance
    mu, k = 0.5, 4
    pld = A.pld_compose(oracles.pld_of_gaussian(mu, grid_step=1e-3), k)
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
