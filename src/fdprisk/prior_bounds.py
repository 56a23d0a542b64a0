"""Comparison bounds from prior accounting frameworks.

Singling-out and reconstruction bounds stated directly in terms of
(epsilon, delta), RDP, or zCDP guarantees, plus optimal composition of pure
DP. These are the baselines the unified trade-off-curve bounds are compared
against.
"""

from __future__ import annotations

import functools
import math
import warnings

import numpy as np

from .accountant import rr_pair
from .tradeoff import (ParameterError, _epsilon_at_delta, _exp, _solve,
                       _times, lower_convex_hull)


def pso_bound_eps_delta(n: int, w: float, epsilon: float, delta: float) -> float:
    """Singling-out success under (epsilon, delta)-DP: min(1, n(e^eps w + delta))."""
    if n <= 1:
        raise ParameterError(f"n must be > 1, got {n}")
    if not 0.0 <= w <= 1.0 / n:
        raise ParameterError(f"w must lie in [0, 1/n], got {w}")
    if epsilon < 0 or not 0.0 <= delta <= 1.0:
        raise ParameterError("need epsilon >= 0 and delta in [0, 1]")
    if math.isinf(epsilon):
        return 1.0
    return float(min(1.0, n * (_times(_exp(epsilon), w) + delta)))


def srr_bound_zcdp(base, rho: float):
    """Reconstruction success under rho-zCDP.

    exp(-(sqrt(log 1/base) - sqrt(rho))^2) while sqrt(log 1/base) >= sqrt(rho),
    else vacuous; clamped to [base, 1]. ``base`` may be a scalar or an array
    of baselines. base = 0 returns the limit 0, with a warning for a scalar
    base, since the closed form is undefined there.
    """
    b = np.asarray(base, dtype=float)
    if not np.all((b >= 0) & (b <= 1)):
        raise ParameterError(f"base must lie in [0, 1], got {base}")
    if not rho >= 0:
        raise ParameterError(f"rho must be >= 0, got {rho}")
    if b.ndim == 0 and b == 0.0:
        warnings.warn("zCDP reconstruction bound at base=0 returns the limit 0",
                      stacklevel=2)
    out = np.vectorize(_zcdp_success, otypes=[float])(b, math.sqrt(rho))
    return float(out) if out.ndim == 0 else out


def _zcdp_success(b: float, root_rho: float) -> float:
    """``srr_bound_zcdp`` at one valid base: numpy ufuncs on floats round as
    they do on arrays (math.exp does not)."""
    if b == 0.0:
        return 0.0
    root_log = np.sqrt(-np.log(max(b, 1e-300)))
    if not root_log >= root_rho:
        return 1.0
    d = root_log - root_rho
    return min(max(float(np.exp(-(d * d))), b), 1.0)


def _zcdp_worst_case(s: float) -> float:
    """max over bases b of ``srr_bound_zcdp(b, rho) - b``, s = sqrt(rho): in
    u = sqrt(log 1/b) >= s, g(u) = e^-d^2 - e^-u^2, d = u - s, at the one
    root of g' in (s, s + 1], as x e^-x^2 <= e^-1 for x >= 1. g' <= 0 reads
    log1p(s/d) <= u^2 - d^2 = s (2u - s), or l / (l + r) <= 1/2 for the two
    sides l and r: no cancellation at small s, no underflow at large s."""
    if s == 0.0:  # the bound is the base itself
        return 0.0

    def share(u):  # falls from 1 at u = s
        if u <= s:
            return 1.0
        l, r = math.log1p(s / (u - s)), s * (2.0 * u - s)
        return l / (l + r)

    u = _solve(share, 0.5, s, s + 1.0, 1.0, share(s + 1.0))
    d = u - s
    return -math.exp(-d * d) * math.expm1(-s * (2.0 * u - s))


def _check_rdp_curve(eps, t_grid) -> tuple[np.ndarray, np.ndarray]:
    grid = np.asarray(t_grid, dtype=float).ravel()
    if grid.size == 0:
        raise ParameterError("t grid must be non-empty")
    if np.any(grid <= 1):
        raise ParameterError("all RDP orders must be > 1")
    eps = np.asarray(eps, dtype=float)
    if eps.shape != grid.shape:
        raise ParameterError("eps must hold one epsilon per order")
    if np.any(eps < 0):
        raise ParameterError("RDP epsilons must be >= 0")
    return grid, eps


def srr_bound_rdp_curve(base, eps, t_grid):
    """Best reconstruction bound over an RDP curve: min over orders t.
    ``base`` may be a scalar or an array of baselines; ``eps`` holds the RDP
    epsilon of each order in ``t_grid``."""
    grid, eps = _check_rdp_curve(eps, t_grid)
    b = np.asarray(base, dtype=float)
    if np.any((b < 0) | (b > 1)):
        raise ParameterError("base must lie in [0, 1]")
    out = np.vectorize(_rdp_success, otypes=[float], excluded={1, 2})(
        b, eps, (grid - 1.0) / grid)
    return float(out) if out.ndim == 0 else out


def _rdp_success(b: float, eps: np.ndarray, frac: np.ndarray) -> float:
    """``srr_bound_rdp_curve`` at one valid base, frac = (t - 1)/t; b = 0
    gives 0, as log 0 + inf would be NaN."""
    if b == 0.0:
        return 0.0
    return float(np.exp(min(float((frac * (np.log(b) + eps)).min()), 0.0)))


def srr_worst_case_rdp(eps, t_grid) -> float:
    """max over bases b of ``srr_bound_rdp_curve(b, eps, t_grid) - b``, >= 0.

    In u = log b the bound is exp(min(0, min_t s_t (u + eps_t))), s_t =
    (t - 1)/t: its pieces are the lower convex hull of (0, 0) and the points
    (s_t, s_t eps_t) of finite eps. On the piece of line (s, c), b^s e^c - b
    is concave with its peak at u = (c + log s)/(1 - s), clamped to the piece.
    """
    grid, eps = _check_rdp_curve(eps, t_grid)
    return _rdp_worst_case(eps, (grid - 1.0) / grid)


def _rdp_worst_case(eps: np.ndarray, frac: np.ndarray) -> float:
    """``srr_worst_case_rdp`` on valid input, frac = (t - 1)/t. Of rising
    orders, every point that fails the hull's own test on its consecutive
    triple drops at once, until none does: the points left are those
    ``lower_convex_hull`` keeps, to the bit, without its Python loop.
    Other orders are sorted and merged by the hull first."""
    fin = np.isfinite(eps)
    s = frac[fin]
    xs, cs = np.concatenate(([0.0], s)), np.concatenate(([0.0], s * eps[fin]))
    if not (xs[1:] > xs[:-1]).all():
        xs, cs = lower_convex_hull(xs, cs)
    while True:
        dx, dc = xs[1:] - xs[:-1], cs[1:] - cs[:-1]
        drop = dc[:-1] * (xs[2:] - xs[:-2]) >= (cs[2:] - cs[:-2]) * dx[:-1]
        if not drop.any():
            break
        keep = np.concatenate(([True], ~drop, [True]))
        xs, cs = xs[keep], cs[keep]
    if xs.size == 1:  # every order vacuous: the bound is 1 at each b > 0
        return 1.0
    cross = -dc / dx  # u where neighbouring lines meet
    s, c = xs[1:], cs[1:]
    u = np.minimum(np.maximum((c + np.log(s)) / (1.0 - s),
                              np.concatenate((cross[1:], [-np.inf]))),
                   np.minimum(cross, 0.0))  # np.clip, without its overhead
    adv = np.exp(np.minimum(s * u + c, 0.0)) - np.exp(u)
    return max(0.0, float(adv.max()))


@functools.cache
def default_t_grid() -> np.ndarray:
    """400 log-spaced RDP orders in (1, 512], dense near 1 (one read-only
    array, built once)."""
    grid = 1.0 + np.logspace(-4, math.log10(511.0), 400)
    grid.flags.writeable = False
    return grid


_DEFAULT_T_FRAC = (default_t_grid() - 1.0) / default_t_grid()  # (t - 1)/t


def _check_orders(t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if not (t > 1).all():
        raise ParameterError(f"order must be > 1, got {t}")
    return t


def gaussian_rdp_epsilon(t, mu: float, k: int = 1):
    """Renyi divergence of k composed mu-separated Gaussian pairs,
    k t mu^2 / 2; ``t`` may be a scalar order or an array of orders."""
    out = k * _check_orders(t) * mu * mu / 2.0
    return float(out) if out.ndim == 0 else out


def laplace_rdp_epsilon(t, epsilon: float, k: int = 1):
    """Renyi divergence of order t of k composed unit-shifted
    Laplace(1/epsilon) pairs; ``t`` may be a scalar or an array of orders."""
    t = _check_orders(t)
    if not epsilon >= 0:
        raise ParameterError("epsilon must be >= 0")
    t_1, t_2 = t - 1.0, 2.0 * t - 1.0
    with np.errstate(over="ignore"):  # inf: the vacuous bound at this order
        inner = (t / t_2) * np.exp(t_1 * epsilon) \
            + (t_1 / t_2) * np.exp(t * -epsilon)
    out = k * np.log(inner) / t_1
    return float(out) if out.ndim == 0 else out


def optimal_composition_pure(epsilon: float, k: int, delta_target: float) -> tuple:
    """Smallest eps_g with (eps_g, delta_target)-DP after k-fold epsilon-DP.

    Optimal composition of k epsilon-DP mechanisms is k-fold randomized
    response at keep odds e^epsilon (Kairouz, Oh & Viswanath, ICML 2015), so
    eps_g inverts that pair's delta(eps), from ``accountant.rr_pair``.
    Returns (eps_g, delta_target).
    """
    if not epsilon > 0:
        raise ParameterError("epsilon must be > 0")
    if not (isinstance(k, int) and k >= 1):
        raise ParameterError("k must be an integer >= 1")
    if not 0.0 < delta_target < 1.0:
        raise ParameterError("delta_target must lie in (0, 1)")
    log_keep = -math.log1p(math.exp(-epsilon))  # log e^eps / (1 + e^eps)
    # rounded up: the pair's loss step at least eps by four ulps, and its
    # delta by four ulps of the largest log-pmf term, log k! + k |log flip|
    log_flip = log_keep - epsilon
    while log_keep - log_flip < epsilon + 4.0 * math.ulp(epsilon):
        log_flip = math.nextafter(log_flip, -math.inf)
    up = 1.0 + 2.0 ** -51 * (math.lgamma(k + 1) - k * log_flip)
    _, delta_of = rr_pair(k, log_keep, log_flip)
    eps_g = _epsilon_at_delta(lambda e: min(1.0, up * delta_of(e)),
                              delta_target)
    return float(eps_g), float(delta_target)
