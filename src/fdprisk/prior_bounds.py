"""Comparison bounds from prior accounting frameworks.

Singling-out and reconstruction bounds stated directly in terms of
(epsilon, delta), RDP, or zCDP guarantees, plus optimal composition of pure
DP. These are the baselines the unified trade-off-curve bounds are compared
against.
"""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np

from .tradeoff import ParameterError, TradeoffCurve, _bisect, _exp, _times


@dataclasses.dataclass(frozen=True)
class RdpGuarantee:
    """A single Renyi-DP point: divergence bound epsilon at order t > 1."""

    t: float
    epsilon: float

    def __post_init__(self):
        if not self.t > 1:
            raise ParameterError(f"RDP order must be > 1, got {self.t}")
        if not self.epsilon >= 0:
            raise ParameterError("RDP epsilon must be >= 0")


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


def pso_bound_fdp(n: int, w: float, f: TradeoffCurve) -> float:
    """Singling-out success from a trade-off curve: min(1, n(1 - f(w)))."""
    if n <= 1:
        raise ParameterError(f"n must be > 1, got {n}")
    if not 0.0 <= w <= 1.0 / n:
        raise ParameterError(f"w must lie in [0, 1/n], got {w}")
    return float(min(1.0, n * (1.0 - f(w))))


def srr_bound_rdp(base: float, guarantee: RdpGuarantee) -> float:
    """Reconstruction success under one RDP point: (base e^eps)^((t-1)/t)."""
    if not 0.0 <= base <= 1.0:
        raise ParameterError(f"base must lie in [0, 1], got {base}")
    if base == 0.0:
        return 0.0
    t, eps = guarantee.t, guarantee.epsilon
    log_val = (t - 1.0) / t * (math.log(base) + eps)
    return 1.0 if log_val >= 0 else float(math.exp(log_val))


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
    root_log = np.sqrt(-np.log(np.maximum(b, 1e-300)))
    vals = np.where(root_log >= math.sqrt(rho),
                    np.exp(-(root_log - math.sqrt(rho)) ** 2), 1.0)
    out = np.where(b == 0.0, 0.0, np.clip(vals, b, 1.0))
    return float(out) if out.ndim == 0 else out


def srr_bound_rdp_curve(base, eps_of_t, t_grid):
    """Best reconstruction bound over an RDP curve: min over orders t.

    ``base`` may be a scalar or an array of baselines; ``eps_of_t`` maps an
    array of orders to their RDP epsilons. The minimization over the order
    grid is vectorized.
    """
    grid = np.asarray(t_grid, dtype=float).ravel()
    if grid.size == 0:
        raise ParameterError("t grid must be non-empty")
    if np.any(grid <= 1):
        raise ParameterError("all RDP orders must be > 1")
    eps = np.asarray(eps_of_t(grid), dtype=float)
    if eps.shape != grid.shape:
        raise ParameterError("eps_of_t must give one epsilon per order")
    if np.any(eps < 0):
        raise ParameterError("RDP epsilons must be >= 0")
    b = np.asarray(base, dtype=float)
    if np.any((b < 0) | (b > 1)):
        raise ParameterError("base must lie in [0, 1]")
    scalar = b.ndim == 0
    b = np.atleast_1d(b)
    with np.errstate(divide="ignore"):
        log_b = np.where(b > 0, np.log(np.maximum(b, 1e-300)), -np.inf)
    frac = (grid - 1.0) / grid
    log_vals = frac[None, :] * (log_b[:, None] + eps[None, :])
    out = np.exp(np.minimum(log_vals.min(axis=1), 0.0))
    out = np.where(b == 0.0, 0.0, out)
    return float(out[0]) if scalar else out


def default_t_grid(n: int = 400, t_max: float = 512.0) -> np.ndarray:
    """Log-spaced RDP orders in (1, t_max], dense near 1."""
    return 1.0 + np.logspace(-4, math.log10(t_max - 1.0), n)


def _check_orders(t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if not np.all(t > 1):
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
    with np.errstate(over="ignore"):  # inf: the vacuous bound at this order
        inner = (t / (2.0 * t - 1.0)) * np.exp((t - 1.0) * epsilon) \
            + ((t - 1.0) / (2.0 * t - 1.0)) * np.exp(-t * epsilon)
    out = k * np.log(inner) / (t - 1.0)
    return float(out) if out.ndim == 0 else out


def optimal_composition_pure(epsilon: float, k: int, delta_target: float) -> tuple:
    """Smallest eps_g with (eps_g, delta_target)-DP after k-fold epsilon-DP.

    Uses the exact homogeneous pure-DP optimal-composition delta
        delta(eps_g) = sum over l with (2l - k) eps > eps_g of
            C(k, l) (e^(l eps) - e^(eps_g) e^((k-l) eps)) / (1 + e^eps)^k,
    evaluated in log space with exact binomial coefficients, then bisected on
    eps_g in [0, k*epsilon]. Returns (eps_g, delta_target).
    """
    if not epsilon > 0:
        raise ParameterError("epsilon must be > 0")
    if not (isinstance(k, int) and 1 <= k <= 64):
        raise ParameterError("k must be an integer in [1, 64]")
    if not 0.0 < delta_target < 1.0:
        raise ParameterError("delta_target must lie in (0, 1)")

    log_norm = k * math.log1p(math.exp(-epsilon)) + k * epsilon  # log (1+e^eps)^k

    def delta_of(eps_g: float) -> float:
        total = 0.0
        for ell in range(k + 1):
            if (2 * ell - k) * epsilon <= eps_g:
                continue
            log_c = math.log(math.comb(k, ell))
            a = ell * epsilon
            b = eps_g + (k - ell) * epsilon
            # a > b holds by the loop condition, so the difference is positive
            log_term = log_c + a + math.log1p(-math.exp(b - a)) - log_norm
            total += math.exp(log_term)
        return min(1.0, total)

    if delta_of(0.0) <= delta_target:
        return 0.0, delta_target
    eps_g = _bisect(lambda e: delta_of(e) <= delta_target, 0.0, k * epsilon,
                    steps=200)
    return float(eps_g), float(delta_target)
