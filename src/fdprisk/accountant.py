"""Mechanism accounting: trade-off curves and profiles for parametric
mechanisms and their k-fold self-compositions.

Gaussian composes in closed form. k-fold randomized response is a pair of
binomial distributions, whose exact Neyman-Pearson curve the oracle builds.
Laplace composition goes through a discretized privacy loss distribution
(PLD). All discretization rounds privacy losses toward larger loss, so every
emitted delta (and every downstream risk bound) is a certified upper bound.
"""

from __future__ import annotations

import configparser
import dataclasses
import math

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft
from scipy.special import gammaln, ndtr

from .oracle import DiscretePair, exact_tradeoff
from .tradeoff import (ParameterError, PrivacyProfile, TradeoffCurve,
                       curve_from_profile, gaussian_curve, laplace_curve)

_FAMILIES = ("gaussian", "laplace", "randomized_response")
_NEIGHBORHOODS = ("add-remove", "replace-one")


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


def pld_of_gaussian(mu: float, grid_step: float = 1e-3,
                    tail_stds: float = 12.0) -> PldGrid:
    """Discretized loss distribution of a mu-separated Gaussian pair.

    L ~ N(mu^2/2, mu^2) under P. Out-of-window mass goes to
    ``truncation_mass`` (pessimistic).
    """
    if not mu > 0:
        raise ParameterError("mu must be > 0")
    mean, sd = mu * mu / 2.0, mu
    lo = mean - tail_stds * sd
    hi = mean + tail_stds * sd
    n = int(math.ceil((hi - lo) / grid_step))
    edges = lo + grid_step * np.arange(n + 1)
    masses = np.maximum(np.diff(ndtr((edges - mean) / sd)), 0.0)
    truncation = float(max(0.0, 1.0 - masses.sum()))
    return PldGrid(offset=float(edges[1]), step=grid_step, masses=masses,
                   truncation_mass=truncation)


def pld_compose(pld: PldGrid, k: int) -> PldGrid:
    """k-fold self-composition: convolution of the loss distribution.

    Binary exponentiation over FFT convolutions. Negative round-off from the
    FFT is clipped and the deficit moved to ``truncation_mass`` (pessimistic);
    any surplus is rescaled away.
    """
    if not (isinstance(k, int) and k >= 1):
        raise ParameterError("k must be an integer >= 1")
    if k == 1:
        return pld

    def combine(a_masses, a_off, b_masses, b_off):
        # full linear convolution, at a fast FFT length
        n = a_masses.size + b_masses.size - 1
        size = next_fast_len(n, real=True)
        m = irfft(rfft(a_masses, size) * rfft(b_masses, size), size)[:n]
        return np.maximum(m, 0.0), a_off + b_off

    base_m, base_off = pld.masses, pld.offset
    result_m, result_off = None, 0.0
    kk = k
    while kk:
        if kk & 1:
            if result_m is None:
                result_m, result_off = base_m.copy(), base_off
            else:
                result_m, result_off = combine(result_m, result_off,
                                               base_m, base_off)
        kk >>= 1
        if kk:
            base_m, base_off = combine(base_m, base_off, base_m, base_off)

    total = result_m.sum()
    if total > 1.0:
        # FFT round-off surplus: rescale down (keeps bounds valid, documented)
        result_m *= 1.0 / total
        trunc = 0.0
    else:
        # deficit covers both input truncation carried through composition
        # and clipped negative round-off; treated as loss = +infinity
        trunc = 1.0 - total
    return PldGrid(offset=result_off, step=pld.step, masses=result_m,
                   truncation_mass=trunc)


def profile_from_pld(pld: PldGrid, epsilons) -> PrivacyProfile:
    """Hockey-stick profile delta(eps) = E[(1 - e^(eps - L))+] + overflow mass.

    Truncation mass counts as loss = +infinity, so every delta is a certified
    upper bound.
    """
    eps = np.asarray(epsilons, dtype=float)
    if eps.size == 0:
        raise ParameterError("epsilon grid must be non-empty")
    losses = pld.losses
    masses = pld.masses
    # suffix sums over losses strictly greater than eps
    suffix_m = np.concatenate([np.cumsum(masses[::-1])[::-1], [0.0]])
    with np.errstate(under="ignore"):
        m_expneg = masses * np.exp(-losses)
    suffix_me = np.concatenate([np.cumsum(m_expneg[::-1])[::-1], [0.0]])
    idx = np.searchsorted(losses, eps, side="right")
    with np.errstate(over="ignore", under="ignore"):
        deltas = suffix_m[idx] - np.exp(eps) * suffix_me[idx]
    deltas = deltas + pld.truncation_mass
    deltas = np.clip(deltas, 0.0, 1.0)
    return PrivacyProfile.from_points(eps, deltas)


def randomized_response_curve(p: float, k: int = 1) -> TradeoffCurve:
    """Exact trade-off of k-fold randomized response with flip prob p.

    The number of 1s among the k answers is sufficient: it is
    Binomial(k, 1 - p) when the true bit is 1 and Binomial(k, p) when it is
    0, so the curve is the Neyman-Pearson curve of that pair. The pmf is
    built in log space and renormalized, which cancels the round-off of
    log k! common to every atom. At k = 1 the vertex is (p, p) up to
    round-off. k-fold RR is also the optimal composition of k eps0-DP
    mechanisms, eps0 = log((1-p)/p) (Kairouz, Oh & Viswanath, ICML 2015).
    """
    if not 0 < p < 0.5:
        raise ParameterError("flip probability must lie in (0, 0.5)")
    if not (isinstance(k, int) and k >= 1):
        raise ParameterError("k must be an integer >= 1")
    j = np.arange(k + 1)
    log_pmf = (gammaln(k + 1) - gammaln(j + 1) - gammaln(k - j + 1)
               + j * math.log1p(-p) + (k - j) * math.log(p))
    pmf = np.exp(log_pmf)
    pmf /= pmf.sum()
    curve = exact_tradeoff(DiscretePair(p=pmf, q=pmf[::-1]))
    return dataclasses.replace(
        curve, provenance=f"randomized_response(p={p!r}, k={k})")


def curve_of(spec: MechanismSpec, grid_step: float = 1e-4,
             profile_points: int = 2000) -> TradeoffCurve:
    """Trade-off curve of a mechanism spec, including composition.

    Gaussian composes in closed form (mu_total = sqrt(k) * Delta / sigma) and
    randomized response is the exact curve of its binomial pair. Laplace with
    k > 1 goes through PLD convolution followed by a profile envelope, which
    is conservative by construction.
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
    top = float(pld.losses[-1]) + pld.step
    eps_grid = np.linspace(0.0, top, profile_points)
    return curve_from_profile(profile_from_pld(pld, eps_grid))


def spec_from_section(section) -> MechanismSpec:
    """Mechanism spec from one config section, or any key-value mapping.

    Keys: family, noise_scale, sensitivity, compositions, neighborhood.
    """
    try:
        return MechanismSpec(
            family=section.get("family", "").strip().lower(),
            noise_scale=float(section.get("noise_scale")),
            sensitivity=float(section.get("sensitivity", "1.0")),
            compositions=int(section.get("compositions", "1")),
            neighborhood=section.get("neighborhood", "add-remove").strip(),
        )
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"invalid mechanism config: {exc}") from None


def spec_from_config(path: str) -> MechanismSpec:
    """Parse a mechanism spec from a key-value config file.

    Keys as in ``spec_from_section``, in a ``[mechanism]`` section or
    top-level ``[DEFAULT]``.
    """
    cp = configparser.ConfigParser()
    try:
        with open(path) as fh:
            cp.read_string(fh.read())
    except (OSError, configparser.Error) as exc:
        raise ParameterError(f"cannot parse mechanism config: {exc}") from None
    return spec_from_section(cp["mechanism"] if cp.has_section("mechanism")
                             else cp["DEFAULT"])
