"""Comparison bounds from prior accounting frameworks.

One ``PriorBound`` (success at a base, worst-case advantage) per framework:
``eps_delta_bound``, ``zcdp_bound`` and ``_rdp_bound``; plus singling-out
under (epsilon, delta), Renyi divergences and optimal composition of pure
DP. These are the baselines the trade-off-curve bounds are compared against.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import risk
from .accountant import rr_pair
from .tradeoff import (ParameterError, _epsilon_at_delta, _exp, _solve,
                       _times, curve_from_epsilon_delta, lower_convex_hull)


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


class PriorBound:
    """A prior framework's success at one baseline and its worst-case
    advantage, computed when asked; slotted, as ``risk_at`` builds many."""

    __slots__ = ("success", "worst_case")

    def __init__(self, success, worst_case):
        self.success, self.worst_case = success, worst_case


def eps_delta_bound(epsilon: float, delta: float) -> PriorBound:
    """Success 1 - f(b) of the (epsilon, delta) curve f, read off its pieces
    as min(delta + e^eps b, 1 - e^-eps (1 - delta - b)), clamped to [b, 1]:
    neither piece cancels, as 1 - f(b) does where f(b) is near 1. Its worst
    case is the curve's eta, a closed form."""
    f = curve_from_epsilon_delta(epsilon, delta)
    if math.isinf(epsilon):  # f is the zero curve
        return PriorBound(lambda base: 1.0, lambda: 1.0)
    e_pos, e_neg = _exp(epsilon), math.exp(-epsilon)

    def success(b):
        near = delta + (e_pos * b if b > 0.0 else 0.0)  # e_pos may be inf
        far = e_neg * (delta + b) - math.expm1(-epsilon)
        return min(max(min(near, far), b), 1.0)

    return PriorBound(success, lambda: risk.adv_bound_worst_case(f))


def zcdp_bound(rho: float) -> PriorBound:
    """Reconstruction success under rho-zCDP (Bun & Steinke, TCC 2016):
    exp(-(sqrt(log 1/base) - sqrt(rho))^2) while sqrt(log 1/base) >=
    sqrt(rho), else vacuous; clamped to [base, 1], and 0 at base 0."""
    if not rho >= 0:
        raise ParameterError(f"rho must be >= 0, got {rho}")
    root_rho = math.sqrt(rho)
    return PriorBound(lambda base: _zcdp_success(base, root_rho),
                      lambda: _zcdp_worst_case(root_rho))


def _zcdp_success(b: float, root_rho: float) -> float:
    """``zcdp_bound`` at one base, in numpy ufuncs: they round as on arrays."""
    b = risk._check_base(b)
    if b == 0.0:
        return 0.0
    root_log = np.sqrt(-np.log(max(b, 1e-300)))
    if not root_log >= root_rho:
        return 1.0
    d = root_log - root_rho
    return min(max(float(np.exp(-(d * d))), b), 1.0)


def _zcdp_worst_case(s: float) -> float:
    """max over bases b of the zCDP success less b, s = sqrt(rho): in
    u = sqrt(log 1/b) >= s, g(u) = e^-d^2 - e^-u^2, d = u - s, at the one
    root of g' in (s, s + 1], as x e^-x^2 <= e^-1 for x >= 1. g' <= 0 reads
    log1p(s/d) <= u^2 - d^2 = s (2u - s), or l / (l + r) <= 1/2 for the two
    sides l and r: no cancellation at small s, no underflow at large s."""
    if s == 0.0 or math.isinf(s):  # the base itself, or vacuous at b > 0
        return 0.0 if s == 0.0 else 1.0

    def share(u):  # falls from 1 at u = s
        if u <= s:
            return 1.0
        l, r = math.log1p(s / (u - s)), s * (2.0 * u - s)
        return l / (l + r)

    u = _solve(share, 0.5, s, s + 1.0, 1.0, share(s + 1.0))
    d = u - s
    return -math.exp(-d * d) * math.expm1(-s * (2.0 * u - s))


def rdp_order_frac(t: float) -> float:
    """(t - 1)/t of one RDP order t, refused unless it lies in (0, 1)."""
    t = float(t)
    if not (t > 1 and (t - 1) / t < 1):  # rounds to 1 from t ~ 1e16
        raise ParameterError(f"RDP order {t} needs 0 < (t - 1)/t < 1")
    return (t - 1) / t


def _rdp_bound(eps: np.ndarray, frac: np.ndarray) -> PriorBound:
    """Best reconstruction bound over an RDP curve (Mironov, CSF 2017),
    exp(min(0, min_t (t - 1)/t (log base + eps_t))), from the RDP epsilon
    >= 0 of each order t, frac = (t - 1)/t: one order's frac from
    ``rdp_order_frac``, or ``_DEFAULT_T_FRAC`` for the default grid."""
    return PriorBound(lambda base: _rdp_success(base, eps, frac),
                      lambda: _rdp_worst_case(eps, frac))


def _rdp_success(b: float, eps: np.ndarray, frac: np.ndarray) -> float:
    """``_rdp_bound`` at one base; 0 at b = 0, where log 0 + inf is NaN."""
    b = risk._check_base(b)
    if b == 0.0:
        return 0.0
    return float(np.exp(min(float((frac * (np.log(b) + eps)).min()), 0.0)))


def _rdp_worst_case(eps: np.ndarray, frac: np.ndarray) -> float:
    """max over bases b of the RDP success less b, >= 0. In u = log b the
    bound is exp(min(0, min_t s_t (u + eps_t))), s_t = (t - 1)/t: its pieces
    are the lower convex hull of (0, 0) and the points (s_t, s_t eps_t) of
    finite eps. On the piece of line (s, c), b^s e^c - b peaks at u =
    (c + log s)/(1 - s), clamped to the piece."""
    fin = np.isfinite(eps)
    s = frac[fin]
    xs, cs = lower_convex_hull(np.concatenate(([0.0], s)),
                               np.concatenate(([0.0], s * eps[fin])))
    if xs.size == 1:  # every order vacuous: the bound is 1 at each b > 0
        return 1.0
    cross = -(cs[1:] - cs[:-1]) / (xs[1:] - xs[:-1])  # where lines meet
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
    if not t.min(initial=math.inf) > 1:  # (t > 1).all() in one pass
        raise ParameterError(f"order must be > 1, got {t}")
    return t


def gaussian_rdp_epsilon(t, mu: float, k: int = 1):
    """Renyi divergence of k composed mu-separated Gaussian pairs,
    k t mu^2 / 2, inf on overflow; ``t``: a scalar order or an array."""
    t = _check_orders(t)
    if k * mu * mu < 1e290 and k < 1e290:  # then no order below 2^54
        out = k * t * mu * mu / 2.0  # overflows: skip the costly errstate
    else:  # inf where it overflows, the vacuous bound
        with np.errstate(over="ignore"):
            out = k * t * mu * mu / 2.0
    return float(out) if out.ndim == 0 else out


def laplace_rdp_epsilon(t, epsilon: float, k: int = 1):
    """Renyi divergence of order t of k composed unit-shifted
    Laplace(1/epsilon) pairs; ``t`` may be a scalar or an array of orders.
    The log's argument, t/(2t - 1) e^((t - 1) eps) + (t - 1)/(2t - 1)
    e^(-t eps), is 1 + O(eps^2): it is summed less 1, by expm1, so that
    small epsilons do not cancel, and floored at 0 against round-off."""
    t = _check_orders(t)
    if not epsilon >= 0:
        raise ParameterError("epsilon must be >= 0")
    t_1, t_2 = t - 1.0, 2.0 * t - 1.0
    if (float(t.max()) - 1.0) * epsilon < 709.0:  # no expm1 overflows
        inner_m1 = (t / t_2) * np.expm1(t_1 * epsilon) \
            + (t_1 / t_2) * np.expm1(t * -epsilon)  # skip the errstate
    else:  # inf where expm1 overflows, the vacuous bound at that order
        with np.errstate(over="ignore"):
            inner_m1 = (t / t_2) * np.expm1(t_1 * epsilon) \
                + (t_1 / t_2) * np.expm1(t * -epsilon)
    out = k * np.log1p(np.maximum(inner_m1, 0.0)) / t_1
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
