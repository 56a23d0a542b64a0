"""Independent reference implementations used only by the tests.

Everything here recomputes quantities by brute force (dense grids with
iterative refinement, high-precision special functions, direct summation) so
the package's closed forms and numeric paths are checked against code that
shares none of their structure. ``pld_of_gaussian`` is a test input
instead: a PLD whose composition the Gaussian closed form checks.
"""

import math

import mpmath
import numpy as np
from scipy.special import ndtr

from fdprisk.accountant import PldGrid

mpmath.mp.dps = 50


def normal_cdf_hp(x) -> float:
    """Standard normal CDF at 50 decimal digits, returned as float."""
    return float(0.5 * mpmath.erfc(-mpmath.mpf(x) / mpmath.sqrt(2)))


def normal_ppf_hp(p) -> float:
    """High-precision standard normal quantile."""
    return float(mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(p) - 1))


def gaussian_tradeoff_hp(mu, alpha) -> float:
    """f(alpha) = Phi(Phi^-1(1 - alpha) - mu) via mpmath."""
    return normal_cdf_hp(normal_ppf_hp(1.0 - alpha) - mu)


def gaussian_profile_delta_hp(mu, eps) -> float:
    """delta(eps) = Phi(-eps/mu + mu/2) - e^eps Phi(-eps/mu - mu/2)."""
    mu, eps = mpmath.mpf(mu), mpmath.mpf(eps)
    phi = lambda x: 0.5 * mpmath.erfc(-x / mpmath.sqrt(2))
    return float(phi(-eps / mu + mu / 2) - mpmath.e**eps * phi(-eps / mu - mu / 2))


def gaussian_mu_at_worst_case_adv_hp(adv) -> float:
    """mu whose Gaussian worst-case advantage 2 Phi(mu/2) - 1 equals adv,
    i.e. mu = 2 Phi^-1((1 + adv)/2) = 2 sqrt(2) erfinv(adv)."""
    return float(2 * mpmath.sqrt(2) * mpmath.erfinv(mpmath.mpf(adv)))


def zcdp_worst_case_adv_hp(rho):
    """Worst-case advantage of the rho-zCDP reconstruction bound, as an mpf:
    sup over u >= sqrt(rho) of exp(-(u - sqrt(rho))^2) - exp(-u^2), where
    u = sqrt(log 1/base). The sup is the first zero of the derivative past
    sqrt(rho), bracketed on a grid and refined by mpmath's root finder."""
    s = mpmath.sqrt(mpmath.mpf(rho))
    g = lambda u: mpmath.exp(-(u - s) ** 2) - mpmath.exp(-u ** 2)
    dg = lambda u: 2 * u * mpmath.exp(-u ** 2) \
        - 2 * (u - s) * mpmath.exp(-(u - s) ** 2)
    n, span = 400, 12
    us = [s + mpmath.mpf(span) * i / n for i in range(n + 1)]
    for lo, hi in zip(us, us[1:]):
        if dg(lo) > 0 >= dg(hi):
            return g(mpmath.findroot(dg, (lo, hi), solver="anderson"))
    raise ValueError(f"no interior maximum found at rho={rho}")


def zcdp_rho_at_worst_case_adv_hp(adv) -> float:
    """rho at which the zCDP worst-case advantage equals adv (0 < adv < 1)."""
    a = mpmath.mpf(adv)
    lo, hi = mpmath.mpf("1e-12"), mpmath.mpf(1)
    while zcdp_worst_case_adv_hp(hi) < a:
        hi *= 2
    return float(mpmath.findroot(lambda r: zcdp_worst_case_adv_hp(r) - a,
                                 (lo, hi), solver="anderson"))


def laplace_delta_hp(eps0, eps) -> float:
    """delta(eps) = sup_alpha (1 - f(alpha) - e^eps alpha) for the unit-shift
    Laplace(1/eps0) pair at 50 digits. f comes from the Laplace CDF F as
    f(alpha) = F(F^-1(1 - alpha) - 1) (threshold tests on x are optimal for
    a shift), and the concave sup is found by golden-section search."""
    b, e_eps = 1 / mpmath.mpf(eps0), mpmath.e**mpmath.mpf(eps)

    def cdf(x):
        return mpmath.e**(x / b) / 2 if x < 0 else 1 - mpmath.e**(-x / b) / 2

    def icdf(p):
        return b * mpmath.log(2 * p) if p < 0.5 else -b * mpmath.log(2 - 2 * p)

    def g(a):
        return 1 - cdf(icdf(1 - a) - 1) - e_eps * a

    r = (mpmath.sqrt(5) - 1) / 2
    lo, hi = mpmath.mpf(0), mpmath.mpf(1)
    x1, x2 = hi - r * (hi - lo), lo + r * (hi - lo)
    g1, g2 = g(x1), g(x2)
    for _ in range(240):
        if g1 < g2:
            lo, x1, g1 = x1, x2, g2
            x2 = lo + r * (hi - lo)
            g2 = g(x2)
        else:
            hi, x2, g2 = x2, x1, g1
            x1 = hi - r * (hi - lo)
            g1 = g(x1)
    # g(0) = 0: the sup at eps >= eps0
    return float(max(0, g1, g2))


def laplace_bayes_hp(eps0, pi):
    """R_f(pi) of the unit-shift Laplace(1/eps0) pair at 50 digits, as an
    mpf: the Bayes error of P (prior pi) against Q, the integral of
    min(pi p, (1 - pi) q), with the densities' kinks and their crossing as
    breakpoints."""
    b, pi = 1 / mpmath.mpf(eps0), mpmath.mpf(pi)

    def lap(x, loc):
        return mpmath.e**(-abs(x - loc) / b) / (2 * b)

    cross = (1 - b * mpmath.log((1 - pi) / pi)) / 2
    points = [-mpmath.inf, 0] + ([cross] if 0 < cross < 1 else []) \
        + [1, mpmath.inf]
    return mpmath.quad(lambda x: min(pi * lap(x, 0), (1 - pi) * lap(x, 1)),
                       points)


def discrete_bayes_hp(p, q, pi):
    """R_f(pi) of a finite pair at 50 digits, as an mpf: the sum of
    min(pi p_i, (1 - pi) q_i) over outcomes."""
    pi = mpmath.mpf(pi)
    return mpmath.fsum(min(pi * a, (1 - pi) * b) for a, b in zip(p, q))


def eps_delta_pair_hp(eps, delta):
    """The four-outcome pair whose trade-off is the (eps, delta) curve
    (Kairouz, Oh & Viswanath, ICML 2015), as mpf masses."""
    e, d = mpmath.e**mpmath.mpf(eps), mpmath.mpf(delta)
    p = [d, (1 - d) * e / (1 + e), (1 - d) / (1 + e), mpmath.mpf(0)]
    return p, p[::-1]


def pld_of_gaussian(mu, grid_step) -> PldGrid:
    """Discretized loss distribution of a mu-separated Gaussian pair, a
    test input for the PLD path whose composition has a closed form.

    L ~ N(mu^2/2, mu^2) under P; each cell's mass sits at its upper edge,
    and the mass beyond 12 sd of the mean goes to ``truncation_mass``
    (pessimistic).
    """
    mean, sd = mu * mu / 2.0, mu
    lo, hi = mean - 12.0 * sd, mean + 12.0 * sd
    n = int(math.ceil((hi - lo) / grid_step))
    edges = lo + grid_step * np.arange(n + 1)
    masses = np.maximum(np.diff(ndtr((edges - mean) / sd)), 0.0)
    truncation = float(max(0.0, 1.0 - masses.sum()))
    return PldGrid(offset=float(edges[1]), step=grid_step, masses=masses,
                   truncation_mass=truncation)


def grid_max(g, lo=0.0, hi=1.0, n=20001, rounds=6):
    """Maximum of a scalar function on [lo, hi] by grid + refinement."""
    best_x, best = lo, -math.inf
    for _ in range(rounds):
        xs = np.linspace(lo, hi, n)
        try:
            ys = np.asarray(g(xs), dtype=float)
            if ys.shape != xs.shape:
                raise TypeError
        except Exception:
            ys = np.array([g(float(x)) for x in xs])
        i = int(np.argmax(ys))
        if ys[i] > best:
            best, best_x = float(ys[i]), float(xs[i])
        span = (hi - lo) / (n - 1)
        lo, hi = max(lo, best_x - 2 * span), min(hi, best_x + 2 * span)
        n = 201
    return best, best_x


def grid_min(g, lo=0.0, hi=1.0, n=20001, rounds=6):
    best, x = grid_max(lambda v: -g(v), lo, hi, n, rounds)
    return -best, x


_MAX_STEPS = np.linspace(0.0, 1.0, 65)  # one round of concave_max


def concave_max(g) -> float:
    """Maximum of a concave g (vectorized) on [0, 1]: the best value seen.

    The maximum of a concave function lies between the grid neighbours of
    its grid argmax (Kiefer, Proc. AMS 1953), or of its first and last
    argmax on ties; ties that are not neighbours mark a flat top, which is
    the maximum. Each round samples 65 points on the bracket and narrows
    it to those neighbours, until the bracket no longer shrinks. The
    numeric conjugate that the curves' closed forms are checked against.
    """
    lo, hi = 0.0, 1.0
    last = _MAX_STEPS.size - 1
    best = -math.inf
    while True:
        xs = lo + (hi - lo) * _MAX_STEPS
        xs[last] = hi
        ys = g(xs)
        i, j = int(ys.argmax()), last - int(ys[::-1].argmax())
        best = max(best, float(ys[i]))
        if j - i > 1:
            return best
        bracket = (max(lo, float(xs[max(i - 1, 0)])),
                   min(hi, float(xs[min(j + 1, last)])))
        if bracket == (lo, hi):
            return best
        lo, hi = bracket


def np_tradeoff_points(p, q):
    """Achievable (alpha, beta) vertices of the Neyman-Pearson envelope,
    computed directly from the definition: for each likelihood-ratio
    threshold, reject the outcomes with ratio above it."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    with np.errstate(divide="ignore"):
        ratio = np.where(p > 0, q / np.maximum(p, 1e-300), np.inf)
    order = np.argsort(-ratio, kind="stable")
    sorted_ratio = ratio[order]
    ca = np.cumsum(p[order])
    cb = 1.0 - np.cumsum(q[order])
    # a threshold test rejects every outcome down to the end of a tie group
    boundary = np.concatenate([sorted_ratio[:-1] != sorted_ratio[1:], [True]])
    pts = [(0.0, 1.0)]
    pts += [(float(a), float(max(0.0, b)))
            for a, b in zip(ca[boundary], cb[boundary])]
    pts.append((1.0, 0.0))
    return sorted(set(pts))


def np_tradeoff_eval(p, q, alpha):
    """Exact NP beta at level alpha: the threshold-test vertices lie on a
    convex curve in threshold order, and randomized tests interpolate
    linearly between them."""
    pts = np_tradeoff_points(p, q)
    xs = np.array([a for a, _ in pts])
    ys = np.array([b for _, b in pts])
    return np.interp(alpha, xs, ys)


def discretized_laplace_pair(eps, cells=200_000, span=40.0):
    """Shifted unit-sensitivity Laplace pair on a fine grid."""
    b = 1.0 / eps
    lo, hi = -span * b, span * b + 1.0
    edges = np.linspace(lo, hi, cells + 1)

    def lap_cdf(x, loc):
        z = (np.asarray(x) - loc) / b
        return np.where(z < 0, 0.5 * np.exp(z), 1.0 - 0.5 * np.exp(-z))

    p = np.diff(lap_cdf(edges, 0.0))
    q = np.diff(lap_cdf(edges, 1.0))
    p = np.concatenate([p, [max(0.0, 1.0 - p.sum())]])
    q = np.concatenate([q, [max(0.0, 1.0 - q.sum())]])
    p[-1] += 1.0 - p.sum()
    q[-1] += 1.0 - q.sum()
    return p, q


def kov_delta_direct(eps0, k, eps_g) -> float:
    """Homogeneous pure-DP optimal-composition delta by direct summation
    with exact rationals where possible (mpmath high precision)."""
    e = mpmath.mpf(eps0)
    total = mpmath.mpf(0)
    denom = (1 + mpmath.e**e) ** k
    for ell in range(k + 1):
        if (2 * ell - k) * eps0 > eps_g:
            total += mpmath.binomial(k, ell) * (
                mpmath.e**(ell * e) - mpmath.e**(mpmath.mpf(eps_g))
                * mpmath.e**((k - ell) * e))
    return float(total / denom)
