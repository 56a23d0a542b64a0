"""Brute-force oracle: exact trade-off, TV, and optimal attack success."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fdprisk import oracle as O
from fdprisk import risk as R
from fdprisk import tradeoff as T


def test_identical_distributions_give_diagonal():
    pair = O.DiscretePair(p=np.array([0.5, 0.5]), q=np.array([0.5, 0.5]))
    f = O.exact_tradeoff(pair)
    a = np.linspace(0, 1, 101)
    assert np.allclose(f(a), 1.0 - a, atol=1e-12)
    assert O.exact_tv(pair) == 0.0


def test_disjoint_supports_give_zero_curve():
    pair = O.DiscretePair(p=np.array([1.0, 0.0]), q=np.array([0.0, 1.0]))
    f = O.exact_tradeoff(pair)
    assert f(0.5) == pytest.approx(0.0, abs=1e-12)
    assert f(1e-6) == pytest.approx(0.0, abs=1e-12)
    assert O.exact_tv(pair) == 1.0


def test_randomized_response_pair_matches_analytic_curve():
    p_flip = 0.25
    pair = O.DiscretePair(p=np.array([0.75, 0.25]), q=np.array([0.25, 0.75]))
    f = O.exact_tradeoff(pair)
    # knots at the two deterministic tests of the two-outcome mechanism
    assert f(0.0) == pytest.approx(1.0)
    assert f(p_flip) == pytest.approx(p_flip, abs=1e-12)
    assert f(1.0) == pytest.approx(0.0)
    # between knots the curve follows the (ln 3, 0)-DP lines exactly
    g = T.curve_from_epsilon_delta(math.log(3), 0.0)
    a = np.linspace(0, 1, 201)
    assert np.allclose(f(a), g(a), atol=1e-12)


def test_mass_validation():
    with pytest.raises(T.ParameterError):
        O.DiscretePair(p=np.array([0.6, 0.6]), q=np.array([0.5, 0.5]))
    with pytest.raises(T.ParameterError):
        O.DiscretePair(p=np.array([0.5, 0.5]), q=np.array([1.0]))


def test_laplace_discretized_tv():
    eps = 0.2
    p, q = oracles.discretized_laplace_pair(eps, cells=100_000)
    tv = 0.5 * np.abs(p - q).sum()
    assert tv == pytest.approx(1 - math.exp(-eps / 2), abs=1e-4)


def test_optimal_attack_trivial_cases():
    uninformative = np.array([[0.5, 0.5], [0.5, 0.5]])
    assert O.optimal_attack_success(uninformative, np.array([0.5, 0.5])) \
        == pytest.approx(0.5)
    revealing = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert O.optimal_attack_success(revealing, np.array([0.5, 0.5])) \
        == pytest.approx(1.0)


def test_optimal_attack_randomized_response():
    ch = np.array([[0.75, 0.25], [0.25, 0.75]])
    succ = O.optimal_attack_success(ch, np.array([0.5, 0.5]))
    assert succ == pytest.approx(0.75)
    pair = O.DiscretePair(p=ch[0], q=ch[1])
    bound = R.bernoulli_succ_bound(O.exact_tradeoff(pair), 0.5)
    assert bound - succ == pytest.approx(0.0, abs=1e-9)


def test_optimal_attack_size_limit():
    ch = np.full((5, 5), 0.2)
    with pytest.raises(T.ParameterError):
        O.optimal_attack_success(ch, np.full(5, 0.2))


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_random_pairs_soundness(seed):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(2, 9))
    p = rng.dirichlet(np.ones(size))
    q = rng.dirichlet(np.ones(size))
    p, q = p / p.sum(), q / q.sum()
    pair = O.DiscretePair(p=p, q=q)
    f = O.exact_tradeoff(pair)
    a = np.linspace(0, 1, 501)
    v = f(a)
    assert np.all(v <= 1.0 - a + 1e-9)
    assert np.all(np.diff(v) <= 1e-12)
    slopes = np.diff(f.knots[:, 1]) / np.diff(f.knots[:, 0])
    assert np.all(np.diff(slopes) >= -1e-9)
    # TV consistency with the curve
    assert O.exact_tv(pair) == pytest.approx(T.tv_from_curve(f), abs=1e-10)
    # attack success never beats the success bound
    pi = float(rng.uniform(0.05, 0.95))
    succ = O.optimal_attack_success(np.vstack([p, q]), np.array([pi, 1 - pi]))
    assert succ <= R.succ_bound(f, max(pi, 1 - pi)) + 1e-12
    assert succ <= R.bernoulli_succ_bound(f, pi) + 1e-12


def test_oracle_matches_reference_envelope():
    rng = np.random.default_rng(7)
    for _ in range(10):
        size = int(rng.integers(2, 7))
        p = rng.dirichlet(np.ones(size))
        q = rng.dirichlet(np.ones(size))
        p, q = p / p.sum(), q / q.sum()
        f = O.exact_tradeoff(O.DiscretePair(p=p, q=q))
        a = np.linspace(0, 1, 301)
        want = oracles.np_tradeoff_eval(p, q, a)
        assert np.allclose(f(a), want, atol=1e-10)


def test_symmetric_pair_gives_symmetric_curve():
    p = np.array([0.6, 0.3, 0.1])
    q = p[::-1].copy()
    f = O.exact_tradeoff(O.DiscretePair(p=p, q=q))
    a = np.linspace(0, 1, 401)
    # symmetry: f(f(a)) == a for symmetric testing problems
    assert np.allclose(f(f(a)), a, atol=1e-9)
