"""Prior-framework comparison bounds and optimal composition."""

import math
import warnings

import mpmath
import numpy as np
import pytest

import oracles
from fdprisk import calibrate as C
from fdprisk import prior_bounds as P
from fdprisk import risk as R
from fdprisk import tradeoff as T


# --------------------------------------------------------------------- PSO

def test_pso_eps_delta_values():
    assert P.pso_bound_eps_delta(10, 0.01, 0.0, 0.0) == pytest.approx(0.1)
    assert P.pso_bound_eps_delta(10, 0.01, 50.0, 0.0) == 1.0
    assert P.pso_bound_eps_delta(5000, 1 / 5000, 1.0, 1e-5) == 1.0
    with pytest.raises(T.ParameterError):
        P.pso_bound_eps_delta(10, 0.2, 1.0, 0.0)


def test_pso_fdp_values():
    # the union singling-out bound min(1, n (1 - f(w))) of calibrate.bound_at
    pso = R.BaselineSpec.pso_weight(10, 0.01)
    ident = T.curve_from_epsilon_delta(0.0, 0.0)
    assert C.bound_at(ident, pso)[1] == pytest.approx(0.1)
    zero = T.curve_from_epsilon_delta(math.inf, 0.0)
    assert C.bound_at(zero, pso)[1] == 1.0


def test_pso_fdp_never_worse_than_eps_delta():
    for eps in (0.1, 0.5, 1.0, 2.0, 5.0):
        for delta in (0.0, 1e-5, 1e-3):
            f = T.curve_from_epsilon_delta(eps, delta)
            for n in (500, 1000, 5000):
                w = 1 / 5000
                pso = R.BaselineSpec.pso_weight(n, w)
                assert C.bound_at(f, pso)[1] <= \
                    P.pso_bound_eps_delta(n, w, eps, delta) + 1e-12


# --------------------------------------------------------------------- SRR

def _rdp_bound(eps, grid):
    """``prior_bounds._rdp_bound`` at the orders ``grid``, each order's
    (t - 1)/t from ``rdp_order_frac``."""
    frac = [P.rdp_order_frac(t) for t in np.ravel(grid).tolist()]
    return P._rdp_bound(np.asarray(eps, dtype=float), np.array(frac))


def _rdp_success(base, eps, grid):
    return _rdp_bound(eps, grid).success(base)


def test_srr_rdp_values():
    # one order: (base e^eps)^((t - 1)/t), capped at 1
    assert _rdp_success(1.0, [0.0], [2.0]) == 1.0
    assert _rdp_success(0.0, [1.0], [2.0]) == 0.0
    mu = 0.75
    eps = P.gaussian_rdp_epsilon(2.0, mu)
    assert eps == pytest.approx(0.5625)
    got = _rdp_success(0.25, [eps], [2.0])
    assert got == pytest.approx(math.sqrt(0.25 * math.exp(0.5625)), abs=1e-12)
    assert got == pytest.approx(0.662, abs=1e-3)
    with pytest.raises(T.ParameterError):
        P.rdp_order_frac(1.0)


def test_srr_zcdp_values():
    assert P.zcdp_bound(0.0).success(0.3) == pytest.approx(0.3)
    got = P.zcdp_bound(1.0).success(math.exp(-4.0))
    assert got == pytest.approx(math.exp(-1.0), abs=1e-12)
    base = 0.2
    assert P.zcdp_bound(math.log(1 / base)).success(base) == 1.0
    assert P.zcdp_bound(1.0).success(0.0) == 0.0  # the limit at base 0
    for rho in (-1.0, math.nan):
        with pytest.raises(T.ParameterError):
            P.zcdp_bound(rho)
    with pytest.raises(T.ParameterError):
        P.zcdp_bound(1.0).success(1.5)


def test_srr_rdp_curve_dominance_and_zcdp_match():
    mu = 1.0
    base = 0.1
    dense_grid = np.linspace(1.001, 64, 5000)
    dense = _rdp_success(base, P.gaussian_rdp_epsilon(dense_grid, mu),
                         dense_grid)
    at_t2 = _rdp_success(base, [P.gaussian_rdp_epsilon(2.0, mu)], [2.0])
    assert dense <= at_t2 + 1e-12
    # the zCDP corollary is the analytic optimum of the Gaussian RDP family
    assert dense == pytest.approx(P.zcdp_bound(mu * mu / 2).success(base),
                                  abs=1e-6)
    assert _rdp_success(1.0, [1.0, 1.5], [2.0, 3.0]) == 1.0
    with pytest.raises(T.ParameterError):
        _rdp_success(1.5, [1.0], [2.0])


def test_srr_rdp_curve_grid_refinement_monotone():
    coarse_grid = np.array([2.0, 4.0, 8.0])
    fine_grid = np.linspace(1.01, 16, 400)
    coarse = _rdp_success(
        0.2, P.gaussian_rdp_epsilon(coarse_grid, 0.8), coarse_grid)
    fine = _rdp_success(
        0.2, P.gaussian_rdp_epsilon(fine_grid, 0.8), fine_grid)
    assert fine <= coarse + 1e-15


def _rdp_worst_oracle(eps, grid) -> float:
    """max over b of the RDP success less b by grid search, >= 0."""
    success = np.vectorize(_rdp_bound(eps, grid).success)
    best, _ = oracles.grid_max(lambda b: success(b) - b, n=2001, rounds=8)
    return max(0.0, best)


def test_srr_worst_case_rdp_against_grid_oracle():
    grid = P.default_t_grid()
    for rdp_epsilon in (P.gaussian_rdp_epsilon, P.laplace_rdp_epsilon):
        for k in (1, 3, 10):
            for sigma in np.logspace(-1, 2, 7):
                eps = rdp_epsilon(grid, 1.0 / sigma, k)
                got = _rdp_bound(eps, grid).worst_case()
                want = _rdp_worst_oracle(eps, grid)
                assert want - 2.2e-16 <= got <= want + 1e-12


def _rdp_worst_case_on_hull(eps, frac):
    """The worst case through ``lower_convex_hull``, with ``np.diff`` and
    ``np.clip`` where the kernel slices and nests ``np.minimum`` and
    ``np.maximum``."""
    fin = np.isfinite(eps)
    s = frac[fin]
    xs, cs = T.lower_convex_hull(np.append(0.0, s), np.append(0.0, s * eps[fin]))
    if xs.size == 1:
        return 1.0
    cross = -np.diff(cs) / np.diff(xs)
    s, c = xs[1:], cs[1:]
    u = np.clip((c + np.log(s)) / (1.0 - s),
                np.append(cross[1:], -np.inf), np.minimum(cross, 0.0))
    adv = np.exp(np.minimum(s * u + c, 0.0)) - np.exp(u)
    return max(0.0, float(adv.max()))


def test_rdp_worst_case_kernel_bits_match_hull_path():
    grid = P.default_t_grid()
    frac = (grid - 1.0) / grid
    for rdp_epsilon in (P.gaussian_rdp_epsilon, P.laplace_rdp_epsilon):
        for k in (1, 5, 7):
            # Laplace below mu = 5e-3 fails the hull's test by round-off
            for mu in np.geomspace(1e-3, 50.0, 48):
                eps = rdp_epsilon(grid, float(mu), k)
                assert P._rdp_worst_case(eps, P._DEFAULT_T_FRAC) == \
                    _rdp_worst_case_on_hull(eps, frac)
    for eps, t in ((np.zeros(400), grid), (np.array([0.05]), np.array([2.0])),
                   (np.array([1.0, 2.0]), np.array([3.0, 2.0]))):
        # collinear points, one order, and orders that do not rise
        f = (t - 1.0) / t
        assert P._rdp_worst_case(eps, f) == \
            _rdp_worst_case_on_hull(eps, f)
    rng = np.random.default_rng(15)
    for n in rng.integers(1, 12, 600):
        # random, repeated or sorted orders; tiny, zero or infinite epsilons
        t = [1.0 + 5.0 * rng.random(n), 1.1 + np.round(4.0 * rng.random(n), 1),
             1.0 + np.sort(3.0 * rng.random(n))][n % 3]
        eps = rng.random(n) * rng.choice([1e-6, 1.0, 10.0])
        eps[rng.random(n) < 0.1] = np.inf
        eps = np.zeros(n) if rng.random() < 0.1 else eps
        assert _rdp_bound(eps, t).worst_case() == \
            _rdp_worst_case_on_hull(eps, (t - 1.0) / t), (t, eps)


def test_srr_worst_case_rdp_edge_cases():
    grid = P.default_t_grid()
    # every eps 0: the dual points are collinear, the hull keeps only the
    # largest order, and b^s - b peaks at b = s^(1/(1 - s))
    s = (grid[-1] - 1.0) / grid[-1]
    got = _rdp_bound(np.zeros_like(grid), grid).worst_case()
    assert got == pytest.approx(s ** (s / (1 - s)) - s ** (1 / (1 - s)),
                                rel=1e-12)
    assert got >= _rdp_worst_oracle(np.zeros_like(grid), grid) - 2.2e-16
    # one order: an interior peak, or the peak where the bound reaches 1
    for t, e in ((2.0, 0.05), (1.5, 3.0), (64.0, 0.01), (1.0001, 40.0)):
        got = _rdp_bound([e], [t]).worst_case()
        want = _rdp_worst_oracle(np.array([e]), np.array([t]))
        assert want - 2.2e-16 <= got <= want + 1e-12
    # eps inf at high orders: those orders drop out, with no warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        eps = P.laplace_rdp_epsilon(grid, 5.0, 3)
        assert np.isinf(eps).any() and np.isfinite(eps).any()
        got = _rdp_bound(eps, grid).worst_case()
        assert got >= _rdp_worst_oracle(eps, grid) - 2.2e-16
        assert _rdp_bound([math.inf], [2.0]).worst_case() == 1.0


# ------------------------------------------------------------- Renyi values

def test_laplace_rdp_against_numeric_integral():
    eps = 0.7
    b = 1.0 / eps
    for t in (1.5, 2.0, 4.0):
        got = P.laplace_rdp_epsilon(t, eps)
        # direct numeric Renyi divergence of the shifted pair
        f = lambda x: (mpmath.exp(-abs(x) / b) / (2 * b)) ** t \
            * (mpmath.exp(-abs(x - 1) / b) / (2 * b)) ** (1 - t)
        integral = mpmath.quad(f, [-mpmath.inf, 0, 1, mpmath.inf])
        want = float(mpmath.log(integral) / (t - 1))
        assert got == pytest.approx(want, rel=1e-9)
    ts = np.array([1.5, 2.0, 4.0])
    assert np.array_equal(P.laplace_rdp_epsilon(ts, eps),
                          [P.laplace_rdp_epsilon(t, eps) for t in ts])
    # k-fold composition adds the divergences
    assert P.laplace_rdp_epsilon(ts, eps, 3) == pytest.approx(
        3 * P.laplace_rdp_epsilon(ts, eps), rel=1e-15)
    with pytest.raises(T.ParameterError):
        P.laplace_rdp_epsilon(np.array([2.0, 1.0]), eps)


def test_laplace_rdp_error_state_only_where_expm1_can_overflow():
    # numpy's error state is entered only where (t_max - 1) eps reaches
    # 709; on either side the bits are those of the sum taken under it
    def under_errstate(t, eps):
        t = np.asarray(t, dtype=float)
        with np.errstate(over="ignore"):
            inner_m1 = (t / (2.0 * t - 1.0)) * np.expm1((t - 1.0) * eps) \
                + ((t - 1.0) / (2.0 * t - 1.0)) * np.expm1(t * -eps)
        return 3 * np.log1p(np.maximum(inner_m1, 0.0)) / (t - 1.0)

    for t in (P.default_t_grid(), 2.0, np.array([1.0001, 3.0, 1e6])):
        edge = 709.0 / (np.max(t) - 1.0)
        for eps in (1e-3, 0.5 * edge, math.nextafter(edge, 0.0), edge,
                    709.8 / (np.max(t) - 1.0), 2.0 * edge, 1e300):
            assert np.array_equal(P.laplace_rdp_epsilon(t, eps, 3),
                                  under_errstate(t, eps)), (t, eps)


def test_laplace_rdp_against_mpmath_at_small_epsilon():
    # the log's argument is 1 + O(eps^2): taken whole, it cancels to 2e-6
    # relative at eps = 1e-3
    grid = P.default_t_grid()
    with mpmath.workdps(50):
        for eps in (1e-3, 1e-2, 0.1, 1.0):
            got = P.laplace_rdp_epsilon(grid, eps)
            for t, g in zip(grid, got):
                t_, e = mpmath.mpf(t), mpmath.mpf(eps)
                want = mpmath.log(t_ / (2 * t_ - 1) * mpmath.exp((t_ - 1) * e)
                                  + (t_ - 1) / (2 * t_ - 1)
                                  * mpmath.exp(-t_ * e)) / (t_ - 1)
                assert abs(g - want) <= 1e-12 * want, (eps, t)
    # round-off took it below 0 at eps below about 1e-20
    for eps in (1e-20, 1e-100, 1e-300):
        assert (P.laplace_rdp_epsilon(grid, eps) >= 0).all()


def test_gaussian_rdp_value():
    assert P.gaussian_rdp_epsilon(3.0, 2.0) == pytest.approx(6.0)
    ts = np.array([1.5, 3.0, 64.0])
    assert np.array_equal(P.gaussian_rdp_epsilon(ts, 2.0),
                          [P.gaussian_rdp_epsilon(t, 2.0) for t in ts])
    assert P.gaussian_rdp_epsilon(ts, 2.0, 3) == pytest.approx(
        3 * P.gaussian_rdp_epsilon(ts, 2.0), rel=1e-15)
    with pytest.raises(T.ParameterError):
        P.gaussian_rdp_epsilon(np.array([2.0, 0.5]), 2.0)
    for bad in (np.nan, 1.0):
        with pytest.raises(T.ParameterError):
            P.gaussian_rdp_epsilon(np.array([2.0, bad]), 2.0)
    assert P.gaussian_rdp_epsilon(np.array([]), 2.0).size == 0
    # k t mu^2 / 2 overflows to inf, the vacuous bound, without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isinf(P.gaussian_rdp_epsilon(ts, 1e200)).all()
        assert np.isinf(P.gaussian_rdp_epsilon(ts, 1e140, 10 ** 30)).all()
        assert P.gaussian_rdp_epsilon(1e16, 1e144) == 1e16 * 1e144 * 1e144 / 2


# ------------------------------------------------------ optimal composition

def test_kov_single_mechanism():
    eps_g, delta = P.optimal_composition_pure(0.2, 1, 1e-9)
    assert delta == 1e-9
    assert eps_g == pytest.approx(0.2, abs=1e-7)
    assert eps_g <= 0.2


def test_kov_basic_composition_dominance():
    eps_g, _ = P.optimal_composition_pure(0.2, 5, 1e-9)
    assert eps_g <= 1.0 + 1e-12


@pytest.mark.parametrize("k", (15, 100, 4000))
def test_kov_against_direct_summation(k):
    eps0, target = 0.2, 1e-9
    eps_g, _ = P.optimal_composition_pure(eps0, k, target)
    assert eps_g <= k * eps0
    # the returned eps_g sits exactly at the delta = target level set
    d_at = oracles.kov_delta_direct(eps0, k, eps_g)
    d_below = oracles.kov_delta_direct(eps0, k, eps_g * (1 - 1e-6))
    assert d_at <= target * (1 + 1e-6)
    assert d_below >= target * (1 - 1e-6)


def test_kov_at_or_above_the_exact_root():
    # the exact delta at eps_g, at 40 digits, is at most the target: eps_g
    # lies at or above the root of the pair with loss step exactly eps0
    with mpmath.workdps(40):
        for b in (1, 2, 5, 10, 19.3975, 20):
            eps0 = mpmath.mpf(1.0 / b)
            for k in (3, 10, 30, 40, 59, 64):
                for target in (1e-9, 1e-5):
                    eps_g, _ = P.optimal_composition_pure(1.0 / b, k, target)
                    exact = sum(
                        mpmath.binomial(k, j) * (mpmath.exp(j * eps0)
                                                 - mpmath.exp(eps_g + (k - j) * eps0))
                        for j in range(k + 1) if (2 * j - k) * eps0 > eps_g)
                    assert exact / (1 + mpmath.exp(eps0)) ** k <= target, \
                        (b, k, target)


def test_kov_monotone_in_k():
    vals = [P.optimal_composition_pure(0.2, k, 1e-9)[0] for k in range(1, 20)]
    assert np.all(np.diff(vals) >= -1e-9)


def test_kov_validation():
    with pytest.raises(T.ParameterError):
        P.optimal_composition_pure(0.2, 5, 0.0)
    with pytest.raises(T.ParameterError):
        P.optimal_composition_pure(0.2, 0, 1e-9)
    with pytest.raises(T.ParameterError):
        P.optimal_composition_pure(-0.2, 5, 1e-9)
