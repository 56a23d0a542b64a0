"""Exact answers for finite-output mechanism pairs.

Computes exact trade-off curves, TV distance, and optimal-attack success by
direct enumeration / likelihood-ratio ordering. ``exact_tradeoff`` is also
the production curve of randomized response at every composition count
(``accountant.randomized_response_curve``); the ``verify`` CLI command and
the test suite use the rest.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np

from .tradeoff import ParameterError, TradeoffCurve, lower_convex_hull


@dataclasses.dataclass(frozen=True)
class DiscretePair:
    """Two probability distributions over a common finite outcome set."""

    p: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        q = np.asarray(self.q, dtype=float)
        if p.shape != q.shape or p.ndim != 1 or p.size == 0:
            raise ParameterError("p and q must be equal-length 1-d vectors")
        if np.any(p < 0) or np.any(q < 0):
            raise ParameterError("masses must be non-negative")
        if abs(p.sum() - 1.0) > 1e-12 or abs(q.sum() - 1.0) > 1e-12:
            raise ParameterError("masses must each sum to 1 within 1e-12")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)


def exact_tradeoff(pair: DiscretePair) -> TradeoffCurve:
    """Exact trade-off curve of testing H0: P vs H1: Q.

    Outcomes are sorted by likelihood ratio q/p descending (rejecting them
    first costs the least power under Q per unit of level under P); tracing
    cumulative (alpha, beta) through that order yields the Neyman-Pearson
    lower envelope. Tied ratios merge into one linear segment via the
    convex-hull pass.
    """
    p, q = pair.p, pair.q
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(p > 0, q / np.maximum(p, 1e-300), np.inf)
    order = np.argsort(-ratio, kind="stable")
    alphas = np.concatenate([[0.0], np.cumsum(p[order])])
    betas = np.concatenate([[1.0], 1.0 - np.cumsum(q[order])])
    alphas = np.clip(alphas, 0.0, 1.0)
    betas = np.clip(betas, 0.0, 1.0)
    alphas[-1], betas[-1] = 1.0, 0.0
    a, b = lower_convex_hull(alphas, betas)  # keeps (0, .) and (1, 0)
    return TradeoffCurve(provenance="oracle_np", knots=np.column_stack([a, b]))


def exact_tv(pair: DiscretePair) -> float:
    """Total variation distance, half the L1 distance of the mass vectors."""
    return float(0.5 * np.abs(pair.p - pair.q).sum())


def optimal_attack_success(channels: np.ndarray, prior: np.ndarray) -> float:
    """Exact best attack success for a finite candidate-to-outcome channel.

    ``channels[z, theta]`` is the probability the mechanism outputs ``theta``
    when candidate ``z`` was used; ``prior`` is the attacker's prior over
    candidates. Enumerates every deterministic attack map outcome -> guess.
    """
    ch = np.asarray(channels, dtype=float)
    pr = np.asarray(prior, dtype=float)
    if ch.ndim != 2 or ch.shape[0] != pr.size:
        raise ParameterError("channels must be (n_candidates, n_outcomes)")
    if np.any(ch < 0) or np.any(np.abs(ch.sum(axis=1) - 1.0) > 1e-12):
        raise ParameterError("each channel row must be a distribution")
    if abs(pr.sum() - 1.0) > 1e-12 or np.any(pr < 0):
        raise ParameterError("prior must be a distribution")
    n_cand, n_out = ch.shape
    if n_cand * n_out > 16:
        raise ParameterError("instance too large for brute force (limit 16)")
    best = 0.0
    for attack in itertools.product(range(n_cand), repeat=n_out):
        succ = sum(pr[z] * ch[z, theta]
                   for theta in range(n_out) for z in (attack[theta],))
        best = max(best, succ)
    return float(best)

