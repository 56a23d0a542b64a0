"""The Cephes ports in ``_special``: the same bits as scipy.special."""

import math

import mpmath
import numpy as np
import pytest
import scipy.special as sc

from fdprisk import _special as S
from fdprisk import tradeoff as T

RNG = np.random.default_rng(20261019)
EDGES = [0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan, 5e-324, 1e-310,
         -5e-324]


def _assert_same_bits(kernel, ref, xs):
    xs = np.asarray(xs, dtype=float)
    got = np.array([kernel(x) for x in xs.tolist()])
    want = np.asarray(ref(xs), dtype=float)
    same = (got == want) & (np.signbit(got) == np.signbit(want))
    same |= np.isnan(got) & np.isnan(want)
    assert same.all(), (xs[~same][:5], got[~same][:5], want[~same][:5])


def test_ndtr_bits_match_scipy():
    xs = np.concatenate([np.linspace(-40.0, 10.0, 200_001),  # dense
                         RNG.uniform(-40.0, 40.0, 50_000),
                         -np.logspace(1.0, 300.0, 2_000),  # tails
                         np.logspace(-320.0, 300.0, 2_000),
                         np.linspace(-1.5, 1.5, 30_001), EDGES])
    _assert_same_bits(S.ndtr, sc.ndtr, xs)


def test_ndtri_bits_match_scipy():
    ys = np.concatenate([np.logspace(-300.0, 0.0, 100_001),
                         1.0 - np.logspace(-16.0, -0.01, 50_001),
                         RNG.uniform(0.0, 1.0, 50_000),
                         np.linspace(0.1, 0.9, 20_001),
                         T.default_alpha_grid(), EDGES, [2.0, 1.0 + 1e-16]])
    _assert_same_bits(S.ndtri, sc.ndtri, ys)


def test_gammaln_bits_match_scipy():
    xs = np.concatenate([np.arange(1.0, 1_000_001.0),
                         RNG.uniform(0.01, 5_000.0, 50_000),
                         RNG.uniform(1e-300, 30.0, 50_000),
                         np.logspace(-300.0, 305.0, 5_000),
                         [2.0, 3.0, 13.0, 1000.0, 1e8, 1e8 + 2.0, 2.556348e305,
                          3e305, 5e-324, math.inf, math.nan]])
    _assert_same_bits(S.gammaln, sc.gammaln, xs)
    with pytest.raises(ValueError):
        S.gammaln(0.0)


def test_elementwise_keeps_shape_and_takes_0d_as_a_float():
    a = np.array([[0.1, 0.5], [0.9, 1.0]])
    out = S.elementwise(S.ndtri, a)
    assert out.shape == (2, 2)
    assert out.tobytes() == sc.ndtri(a).tobytes()
    assert type(S.elementwise(S.ndtri, np.array(0.25))) is float


@mpmath.workdps(50)
def test_log_ndtr_within_2e_15_of_mpmath():
    xs = -np.concatenate([np.logspace(math.log10(37.0), 4.0, 400),
                          [37.0, 37.68, 1024.0]])
    for x in xs.tolist():
        want = mpmath.log(mpmath.ncdf(mpmath.mpf(x)))
        assert abs((S.log_ndtr(x) - want) / want) <= 2e-15, x
    assert S.log_ndtr(-math.inf) == -math.inf
    with pytest.raises(ValueError):
        S.log_ndtr(-36.9)


@pytest.mark.parametrize("eps", [709.79, 800.0, 1e4])
@pytest.mark.parametrize("c", [0.9, 0.95, 1.0, 1.05])
@mpmath.workdps(50)
def test_gaussian_delta_where_e_eps_overflows(eps, c):
    # the tail e^eps Phi(x) from exp(eps + log_ndtr(x)): an error of r in
    # log Phi's relative terms moves the tail by r |log Phi(x)| ~ r eps, in
    # the port as in scipy's log_ndtr, which this checks it against too
    mu = c * math.sqrt(2.0 * eps)  # where delta is neither 0 nor 1
    m, e = mpmath.mpf(mu), mpmath.mpf(eps)
    tail = mpmath.exp(e) * mpmath.ncdf(-e / m - m / 2)
    exact = mpmath.ncdf(-e / m + m / 2) - tail
    bound = 2e-15 * eps * float(tail) + 2.0 ** -52
    got = T.gaussian_curve(mu).delta(eps)
    assert 0.0 < got < 1.0
    assert abs(got - exact) <= bound
    scipy_form = (sc.ndtr(-eps / mu + mu / 2.0)
                  - math.exp(eps + sc.log_ndtr(-eps / mu - mu / 2.0)))
    assert abs(got - scipy_form) <= 2.0 * bound


def test_gaussian_delta_of_a_numpy_epsilon_does_not_warn():
    # at mu = 1e-200 the tail's x is -1e200, whose square overflows: a
    # Python float goes to inf quietly, a numpy scalar warns
    f = T.gaussian_curve(1e-200)
    assert T.delta_for_epsilon(f, np.float64(1.0)) == 0.0
    assert T.delta_for_epsilon(T.gaussian_curve(1.0), np.float64(0.5)) == \
        T.gaussian_curve(1.0).delta(0.5)
