"""Mechanism accounting: trade-off curves and profiles for parametric
mechanisms and their k-fold self-compositions.

Gaussian composes in closed form. k-fold randomized response is a pair of
binomial distributions, whose exact Neyman-Pearson curve the oracle builds.
Laplace composition goes through a discretized privacy loss distribution
(PLD), self-composed as one FFT power on ``numpy.fft`` (Koskela, Jalko &
Honkela, "Computing Tight Differential Privacy Guarantees Using FFT",
AISTATS 2020). All discretization rounds privacy losses toward larger loss,
so every emitted delta (and every downstream risk bound) is a certified
upper bound. Everything runs on numpy alone.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from ._special import elementwise, gammaln
from .tradeoff import (ParameterError, PrivacyProfile, TradeoffCurve,
                       curve_from_profile, gaussian_curve, laplace_curve)

_FAMILIES = ("gaussian", "laplace", "randomized_response")
_NEIGHBORHOODS = ("add-remove", "replace-one")
# the most cells ``pld_compose`` builds for one k-fold loss distribution
# (a composed Laplace curve peaks near 43 bytes a cell) and ``rr_pair`` for
# one binomial pmf (a randomized-response curve peaks near 185 bytes a cell)
MAX_CELLS = 2 ** 26
MAX_RR_CELLS = 2 ** 23


@dataclasses.dataclass(frozen=True)
class MechanismSpec:
    """Parametric description of a mechanism and its composition count.

    ``noise_scale`` is sigma for Gaussian, b for Laplace, and the flip
    probability p in (0, 1/2) for randomized response. ``sensitivity`` is L2
    for Gaussian, L1 for Laplace, unused for randomized response. The
    neighborhood relation only records the user's sensitivity claim and is
    echoed in reports; it does not alter the arithmetic.
    """

    family: str
    noise_scale: float
    sensitivity: float = 1.0
    compositions: int = 1
    neighborhood: str = "add-remove"

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ParameterError(f"unknown family {self.family!r}")
        if not self.noise_scale > 0:
            raise ParameterError("noise_scale must be > 0")
        if self.family == "randomized_response" and not self.noise_scale < 0.5:
            raise ParameterError("flip probability must lie in (0, 0.5)")
        if self.family != "randomized_response" and not self.sensitivity > 0:
            raise ParameterError("sensitivity must be > 0")
        if not (isinstance(self.compositions, int) and self.compositions >= 1):
            raise ParameterError("compositions must be an integer >= 1")
        if self.neighborhood not in _NEIGHBORHOODS:
            raise ParameterError(f"unknown neighborhood {self.neighborhood!r}")


@dataclasses.dataclass(frozen=True)
class PldGrid:
    """Privacy losses on a uniform grid, plus a pessimistic overflow mass.

    Loss value of cell i is ``offset + i * step``. ``truncation_mass`` is
    probability that fell off the grid or was clipped during convolution; it
    is treated as loss = +infinity when computing delta.
    """

    offset: float
    step: float
    masses: np.ndarray
    truncation_mass: float = 0.0

    def __post_init__(self):
        if not self.step > 0:
            raise ParameterError("grid step must be > 0")
        m = np.asarray(self.masses, dtype=float)
        if m.ndim != 1 or m.size == 0 or np.any(m < 0):
            raise ParameterError("masses must be a non-negative 1-d vector")
        total = m.sum() + self.truncation_mass
        if abs(total - 1.0) > 1e-12:
            raise ParameterError(f"masses must sum to 1, got {total!r}")
        object.__setattr__(self, "masses", m)

    @property
    def losses(self) -> np.ndarray:
        return self.offset + self.step * np.arange(self.masses.size)


def pld_of_laplace(epsilon_per_query: float, grid_step: float = 1e-4) -> PldGrid:
    """Discretized privacy loss distribution of one Laplace release.

    For a unit shift at scale 1/eps the loss L = log(dP/dQ) under P has
    atoms P(L = eps) = 1/2 and P(L = -eps) = exp(-eps)/2 with density
    (1/4) exp(-(eps - l)/2) in between. Cell mass is the exact CDF increment,
    assigned to the cell's upper edge (round-up, pessimistic).
    """
    eps = float(epsilon_per_query)
    if not eps > 0:
        raise ParameterError("epsilon_per_query must be > 0")
    if not grid_step > 0:
        raise ParameterError("grid_step must be > 0")
    if grid_step >= 2 * eps:
        raise ParameterError("grid_step must be < 2*epsilon to resolve support")

    def cdf(l):  # P(L <= l) for l in [-eps, eps)
        l = np.clip(l, -eps, eps)
        return math.exp(-eps) / 2.0 + 0.5 * (np.exp(-(eps - l) / 2.0)
                                             - math.exp(-eps))

    n = int(math.ceil(2 * eps / grid_step))
    edges = -eps + grid_step * np.arange(n + 1)
    edges[-1] = eps
    upper = np.minimum(edges[1:], eps)
    lower = edges[:-1]
    masses = np.asarray(cdf(upper)) - np.asarray(cdf(lower))
    masses = np.maximum(masses, 0.0)
    # atoms: L = -eps into the first cell's upper edge, L = +eps on top
    masses[0] += math.exp(-eps) / 2.0
    masses = np.concatenate([masses, [0.5]])
    total = masses.sum()
    if abs(total - 1.0) > 1e-13:
        masses = masses / total
    # each cell is reported at its upper edge (round-up, pessimistic)
    return PldGrid(offset=-eps + grid_step, step=grid_step, masses=masses)


def _fast_len(n: int) -> int:
    """Smallest 5-smooth integer 2^a 3^b 5^c >= n, a fast real FFT length:
    the length ``scipy.fft.next_fast_len(n, real=True)`` picks."""
    best = 1 << (n - 1).bit_length()  # the power of two at or above n
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # times the smallest power of two that reaches n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def pld_compose(pld: PldGrid, k: int) -> PldGrid:
    """k-fold self-composition: the k-th power of the loss distribution's
    transform, F^-1(F(m)^k), on an FFT length that holds the full k-fold
    support (Koskela, Jalko & Honkela, AISTATS 2020). Negative round-off
    from the FFT is clipped and the deficit moved to ``truncation_mass``
    (pessimistic); any surplus is taken from the lowest-loss cells.
    """
    if not (isinstance(k, int) and k >= 1):
        raise ParameterError("k must be an integer >= 1")
    if k == 1:
        return pld
    n = k * (pld.masses.size - 1) + 1
    if n > MAX_CELLS:
        raise ParameterError(f"{k} compositions need {n} loss cells, past "
                             f"the budget of {MAX_CELLS}")
    size = _fast_len(n)
    spec = np.fft.rfft(pld.masses, size)
    np.power(spec, k, out=spec)
    result_m = np.maximum(np.fft.irfft(spec, size)[:n], 0.0)

    total = result_m.sum()
    if total > 1.0:
        # FFT round-off surplus: taken from the lowest losses up, since
        # removing mass at a loss at or below eps leaves delta(eps) unchanged
        before = np.cumsum(result_m) - result_m
        result_m -= np.clip(total - 1.0 - before, 0.0, result_m)
        trunc = 0.0
    else:
        # deficit covers both input truncation carried through composition
        # and clipped negative round-off; treated as loss = +infinity
        trunc = 1.0 - total
    return PldGrid(offset=k * pld.offset, step=pld.step, masses=result_m,
                   truncation_mass=trunc)


def profile_from_pld(pld: PldGrid, epsilons) -> PrivacyProfile:
    """Hockey-stick profile delta(eps) = E[(1 - e^(eps - L))+] + overflow mass.

    Truncation mass counts as loss = +infinity, so every delta is a certified
    upper bound.
    """
    eps = np.asarray(epsilons, dtype=float)
    if eps.size == 0:
        raise ParameterError("epsilon grid must be non-empty")
    # suffix sums over losses strictly greater than eps >= 0: the cells of
    # loss <= 0 are never read, so only those of positive loss are summed
    losses = pld.losses
    pos = np.searchsorted(losses, 0.0, side="right")
    losses, masses = losses[pos:], pld.masses[pos:]
    suffix_m = np.concatenate([np.cumsum(masses[::-1])[::-1], [0.0]])
    with np.errstate(under="ignore"):
        m_expneg = masses * np.exp(-losses)
    suffix_me = np.concatenate([np.cumsum(m_expneg[::-1])[::-1], [0.0]])
    idx = np.searchsorted(losses, eps, side="right")
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        sub = np.exp(eps) * suffix_me[idx]
    # not finite: drop the subtracted term, as delta <= the suffix mass
    deltas = suffix_m[idx] - np.nan_to_num(sub, nan=0.0, posinf=0.0) \
        + pld.truncation_mass
    deltas = np.clip(deltas, 0.0, 1.0)
    return PrivacyProfile.from_points(eps, deltas)


def rr_pair(k: int, log_keep: float, log_flip: float):
    """The law of the count of 1s among k randomized responses,
    Binomial(k, keep), and the privacy profile eps -> delta(eps) of its pair.

    The pmf is built in log space and divided by its sum, which cancels the
    round-off of log k! common to every atom. delta is the hockey-stick
    divergence, the sum over j with loss (2j - k) eps0 > eps of
    pmf_j (1 - e^(eps - loss)), eps0 = log_keep - log_flip. Only the largest
    atoms enter it, so the underflow of the others does not matter. It is
    also the optimal composition of k eps0-DP mechanisms (Kairouz, Oh &
    Viswanath, ICML 2015).
    """
    if k + 1 > MAX_RR_CELLS:
        raise ParameterError(f"{k} compositions need {k + 1} loss cells, "
                             f"past the budget of {MAX_RR_CELLS}")
    log_fact = elementwise(gammaln, np.arange(1.0, k + 2.0))  # log j!
    j = np.arange(k + 1)
    log_pmf = (log_fact[k] - log_fact - log_fact[::-1]
               + j * log_keep + (k - j) * log_flip)
    pmf = np.exp(log_pmf)
    pmf /= pmf.sum()
    loss = (2 * j - k) * (log_keep - log_flip)

    def delta_at(eps):
        top = loss > eps
        return float(min(1.0, (pmf[top] * -np.expm1(eps - loss[top])).sum()))

    return pmf, delta_at


def randomized_response_curve(p: float, k: int = 1) -> TradeoffCurve:
    """Exact trade-off of k-fold randomized response with flip prob p.

    The number of 1s among the k answers is sufficient: it is
    Binomial(k, 1 - p) when the true bit is 1 and Binomial(k, p) when it is
    0, so the curve is the Neyman-Pearson curve of that pair (``rr_pair``),
    and carries that pair's delta(eps) and Bayes error, off its pmf. At
    k = 1 the vertex is (p, p) up to round-off.
    """
    if not 0 < p < 0.5:
        raise ParameterError("flip probability must lie in (0, 0.5)")
    if not (isinstance(k, int) and k >= 1):
        raise ParameterError("k must be an integer >= 1")
    from .oracle import DiscretePair, exact_tradeoff
    pmf, delta = rr_pair(k, math.log1p(-p), math.log(p))
    curve = exact_tradeoff(DiscretePair(p=pmf, q=pmf[::-1]))
    return dataclasses.replace(
        curve, provenance=f"randomized_response(p={p!r}, k={k})", delta=delta,
        bayes=lambda pi: float(np.minimum(pi * pmf, (1 - pi) * pmf[::-1]).sum()))


def curve_of(spec: MechanismSpec, grid_step: float = 1e-4) -> TradeoffCurve:
    """Trade-off curve of a mechanism spec, including composition.

    Gaussian composes in closed form (mu_total = sqrt(k) * Delta / sigma) and
    randomized response is the exact curve of its binomial pair. Laplace with
    k > 1 goes through PLD convolution followed by the envelope of its
    profile at 2000 epsilons, which is conservative by construction.
    """
    k = spec.compositions
    if spec.family == "gaussian":
        mu = math.sqrt(k) * spec.sensitivity / spec.noise_scale
        return gaussian_curve(mu)
    if spec.family == "randomized_response":
        return randomized_response_curve(spec.noise_scale, k)
    eps = spec.sensitivity / spec.noise_scale
    if k == 1:
        return laplace_curve(eps)
    pld = pld_compose(pld_of_laplace(eps, grid_step=grid_step), k)
    # cover the full (rounded-up) loss support so delta reaches 0 at the
    # top and the envelope is exact near alpha = 0
    top = pld.offset + pld.step * (pld.masses.size - 1) + pld.step
    eps_grid = np.linspace(0.0, top, 2000)
    return curve_from_profile(profile_from_pld(pld, eps_grid))

