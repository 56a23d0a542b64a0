"""Trade-off curves: construction, evaluation, and derived privacy quantities.

A trade-off curve maps the false-positive rate alpha of the optimal
membership-inference test to the minimal achievable false-negative rate.
Every curve here is convex, continuous, non-increasing, and satisfies
0 <= f(alpha) <= 1 - alpha on [0, 1]. Each carries its own privacy profile
delta(eps) and Bayes error R_f(pi), in closed form or over its knots, so
no derived quantity needs a numeric optimizer.
"""

from __future__ import annotations

import dataclasses
import io
import math
from typing import Callable

import numpy as np

from ._special import elementwise, log_ndtr, ndtr, ndtri


class ParameterError(ValueError):
    """An input parameter is outside its admissible domain."""


def _exp(x: float) -> float:
    """e^x, or inf where it overflows: a steeper line only lowers a curve."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _times(e: float, a: np.ndarray) -> np.ndarray:
    """e * a for a >= 0, with inf * 0 taken as 0 (the value at a = 0)."""
    return e * a if e < math.inf else np.where(a > 0, math.inf, 0.0)


# --------------------------------------------------------------------------
# alpha grids

def default_alpha_grid(n: int = 2001) -> np.ndarray:
    """Non-uniform grid on [0, 1], log-dense near both endpoints from 1e-12.

    Risk baselines of practical interest (e.g. rare-attribute priors around
    1e-4) live near alpha = 0, so uniform grids waste resolution.
    """
    if n < 2:
        raise ParameterError(f"an alpha grid needs n >= 2 points, got {n}")
    half = np.logspace(-12.0, np.log10(0.5), n // 2)
    # np.unique, without the numpy.ma import that numpy's unique brings
    grid = np.sort(np.concatenate([[0.0], half, 1.0 - half[::-1], [1.0]]))
    return grid[np.concatenate([[True], grid[1:] != grid[:-1]])]


def lower_convex_hull(alphas: np.ndarray, betas: np.ndarray):
    """Keep only the vertices of the lower convex hull of (alpha, beta) points.

    Repairs floating-point convexity violations after envelope or numeric
    constructions; downstream Jensen-style bounds require convexity. The
    kernel is Andrew's monotone chain (IPL 1979), with its loop run only
    where a point can be popped or skipped. Sorted input is not copied, so
    the arrays returned may be the caller's own.
    """
    if not (alphas[:-1] <= alphas[1:]).all():  # sorted: a sort moves nothing
        order = np.argsort(alphas, kind="stable")
        alphas, betas = alphas[order], betas[order]
    n = alphas.size
    # events: points whose x repeats the one before, or whose consecutive
    # triple (i - 2, i - 1, i) fails the loop's own test
    x1, x2, x = alphas[:-2], alphas[1:-1], alphas[2:]
    y1, y2, y = betas[:-2], betas[1:-1], betas[2:]
    event = np.concatenate(([False], alphas[1:] == alphas[:-1]))
    event[2:] |= (y2 - y1) * (x - x1) >= (y - y1) * (x2 - x1)
    events = np.flatnonzero(event).tolist()
    if not events:  # the loop pops nothing: the sorted input is the hull
        return alphas, betas
    events.append(n)
    # Andrew's monotone chain on Python floats (the same IEEE arithmetic as
    # numpy scalars, at half the time), its stack held as input indices
    xs, ys = alphas.tolist(), betas.tolist()
    hull: list[int] = []
    i = k = 0
    while i < n:
        if not hull or hull[-1] == i - 1 and (len(hull) < 2
                                              or hull[-2] == i - 2):
            # in step with the input: the loop's test on each point up to
            # the next event is its triple's, which passes, so it pushes
            while events[k] < i:
                k += 1
            hull.extend(range(i, events[k]))
            i = events[k]
            if i == n:
                break
        x, y = xs[i], ys[i]
        if xs[hull[-1]] == x:
            if y < ys[hull[-1]]:
                hull.pop()
            else:
                i += 1
                continue
        while len(hull) >= 2:
            x1, y1, x2, y2 = (xs[hull[-2]], ys[hull[-2]], xs[hull[-1]],
                              ys[hull[-1]])
            # drop the middle point if it lies on or above the chord
            if (y2 - y1) * (x - x1) >= (y - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(i)
        i += 1
    keep = np.fromiter(hull, np.intp, len(hull))
    return alphas[keep], betas[keep]


# --------------------------------------------------------------------------
# core types

@dataclasses.dataclass(frozen=True)
class TradeoffCurve:
    """A convex, non-increasing trade-off function on [0, 1].

    Either analytic (``fn`` set, evaluated exactly) or piecewise linear
    (``knots`` set, linearly interpolated). Every curve carries two
    readings: ``delta``, its privacy profile eps -> delta(eps) =
    max_alpha (1 - f(alpha) - e^eps alpha), and ``bayes``, its Bayes error
    pi -> R_f(pi) = min_alpha (pi alpha + (1 - pi) f(alpha)) for 0 < pi < 1.
    An analytic curve brings both in closed form; a piecewise one takes
    the maximum and the minimum over its knots unless it brings its own.
    """

    provenance: str
    fn: Callable[[np.ndarray], np.ndarray] | None = dataclasses.field(
        default=None, repr=False, compare=False)
    knots: np.ndarray | None = dataclasses.field(default=None, repr=False)
    delta: Callable[[float], float] | None = dataclasses.field(
        default=None, repr=False, compare=False)
    bayes: Callable[[float], float] | None = dataclasses.field(
        default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.fn is None and self.knots is None:
            raise ParameterError("curve needs an analytic form or knots")
        if self.knots is not None:
            k = np.asarray(self.knots, dtype=float)
            if k.ndim != 2 or k.shape[1] != 2 or k.shape[0] < 2:
                raise ParameterError("knots must be an (m, 2) array, m >= 2")
            if np.any(np.diff(k[:, 0]) <= 0):
                raise ParameterError("knot alphas must be strictly increasing")
            object.__setattr__(self, "knots", k)
        if self.fn is not None:
            if self.delta is None or self.bayes is None:
                raise ParameterError("an analytic curve needs delta and bayes")
            return
        a, b = self.knots[:, 0], self.knots[:, 1]

        def delta_at(eps):
            d = float(np.max(1.0 - b - math.exp(min(eps, 700)) * a))
            return float(min(1.0, max(0.0, d)))

        object.__setattr__(self, "delta", self.delta or delta_at)
        object.__setattr__(self, "bayes", self.bayes or (
            lambda pi: float(np.min(pi * a + (1.0 - pi) * b))))

    def __call__(self, alpha):
        a = np.asarray(alpha, dtype=float)
        if self.fn is not None:
            out = np.asarray(self.fn(a), dtype=float)
        else:
            out = np.interp(a, self.knots[:, 0], self.knots[:, 1])
        out = out.clip(0.0, 1.0)  # the method: np.clip costs twice as much
        return out if np.ndim(alpha) else float(out)

    @property
    def is_piecewise(self) -> bool:
        return self.fn is None

    def as_knots(self, grid: np.ndarray | None = None) -> np.ndarray:
        """Knot representation, sampling analytic curves on ``grid``."""
        if self.is_piecewise and grid is None:
            return self.knots.copy()
        if grid is None:
            grid = default_alpha_grid()
        return np.column_stack([grid, self(grid)])


@dataclasses.dataclass(frozen=True)
class PrivacyProfile:
    """Attainable (epsilon, delta(epsilon)) guarantees of a mechanism."""

    points: np.ndarray  # (m, 2), sorted by epsilon, delta non-increasing

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] == 0:
            raise ParameterError("profile must be a non-empty (m, 2) array")
        if np.any(pts[:, 0] < 0):
            raise ParameterError("epsilon must be non-negative")
        if np.any((pts[:, 1] < 0) | (pts[:, 1] > 1)):
            raise ParameterError("delta must lie in [0, 1]")
        if np.any(np.diff(pts[:, 0]) < 0):
            raise ParameterError("epsilons must be sorted ascending")
        if np.any(np.diff(pts[:, 1]) > 1e-12):
            raise ParameterError("delta must be non-increasing in epsilon")
        object.__setattr__(self, "points", pts)

    @classmethod
    def from_points(cls, epsilons, deltas) -> "PrivacyProfile":
        """Build a profile, conservatively repairing delta monotonicity.

        Deltas are raised to the running maximum from the right, so any
        adjustment only weakens the claimed guarantee.
        """
        eps = np.asarray(epsilons, dtype=float)
        dlt = np.clip(np.asarray(deltas, dtype=float), 0.0, 1.0)
        order = np.argsort(eps, kind="stable")
        eps, dlt = eps[order], dlt[order]
        dlt = np.maximum.accumulate(dlt[::-1])[::-1]
        return cls(np.column_stack([eps, dlt]))

    @property
    def epsilons(self) -> np.ndarray:
        return self.points[:, 0]

    @property
    def deltas(self) -> np.ndarray:
        return self.points[:, 1]


# --------------------------------------------------------------------------
# constructors

def _zero_curve(provenance: str) -> TradeoffCurve:
    """The blatantly non-private curve f = 0: delta(eps) = 1, R_f = 0."""
    return TradeoffCurve(provenance=provenance, fn=lambda a: np.zeros_like(a),
                         delta=lambda eps: 1.0, bayes=lambda pi: 0.0)


def _logit(pi: float) -> float:
    return math.log(pi / (1.0 - pi))


def curve_from_epsilon_delta(epsilon: float, delta: float) -> TradeoffCurve:
    """Trade-off curve equivalent to an (epsilon, delta)-DP guarantee.

    f(a) = max(0, 1 - delta - e^eps * a, e^-eps * (1 - delta - a)).
    epsilon = inf or delta = 1 yield the zero curve (blatantly non-private).
    """
    if not (epsilon >= 0):
        raise ParameterError(f"epsilon must be >= 0, got {epsilon}")
    if not (0.0 <= delta <= 1.0):
        raise ParameterError(f"delta must lie in [0, 1], got {delta}")
    if math.isinf(epsilon) or delta == 1.0:
        return _zero_curve("eps_delta(degenerate)")
    e_pos, e_neg = _exp(epsilon), math.exp(-epsilon)

    def fn(a):
        return np.maximum(0.0, np.maximum(1.0 - delta - _times(e_pos, a),
                                          e_neg * (1.0 - delta - a)))

    def delta_at(eps):
        gap = min(0.0, eps - epsilon)
        # (e_pos - e^eps) / (1 + e_pos) <= -expm1(gap)
        if gap == 0.0 or e_pos == math.inf:
            return float(min(1.0, delta - (1.0 - delta) * math.expm1(gap)))
        d = delta + (e_pos - math.exp(eps)) * ((1.0 - delta) / (1.0 + e_pos))
        return float(min(1.0, max(delta, d)))

    def bayes(pi):
        return (1.0 - delta) * min(pi, 1.0 - pi, 1.0 / (1.0 + e_pos))

    return TradeoffCurve(provenance=f"eps_delta(eps={epsilon!r}, delta={delta!r})",
                         fn=fn, delta=delta_at, bayes=bayes)


def _upper_envelope_of_lines(slopes: np.ndarray, intercepts: np.ndarray):
    """Knots of max_j (intercepts[j] + slopes[j] * x) restricted to [0, 1].

    The lines on the envelope are the upper hull of the points (slope,
    intercept), by point-line duality; of equal slopes the hull keeps the
    largest intercept. Consecutive hull lines meet at the knots. Round-off
    ties and swaps the crossings of lines through one point, so a knot's
    value is the max over the hull lines crossing within 8 ulps of it, and
    one more line on each side.
    """
    s, c = lower_convex_hull(slopes, -intercepts)
    c = -c
    # a crossing that overflows (slopes a subnormal apart) lies outside [0, 1]
    with np.errstate(over="ignore"):
        xs = (c[:-1] - c[1:]) / (s[1:] - s[:-1])
    x = np.sort(np.concatenate([[0.0], xs[(xs > 0.0) & (xs < 1.0)], [1.0]]))
    x = x[np.concatenate([[True], x[1:] != x[:-1]])]
    # crossing i joins lines i and i + 1; the running max puts them in order
    rising, slack = np.maximum.accumulate(xs), 8.0 * np.finfo(float).eps
    lo = np.maximum(np.searchsorted(rising, x - slack * x, "left") - 1, 0)
    hi = np.minimum(np.searchsorted(rising, x + slack * x, "right") + 1,
                    s.size - 1)
    width = hi - lo + 1
    start = np.cumsum(width) - width
    j = np.arange(width.sum()) - np.repeat(start - lo, width)
    return x, np.maximum.reduceat(s[j] * np.repeat(x, width) + c[j], start)


def curve_from_profile(profile: PrivacyProfile) -> TradeoffCurve:
    """Upper envelope of the single-pair curves of every profile point.

    Each (epsilon, delta) pair contributes two supporting lines; the envelope
    is their exact pointwise maximum (clipped below at zero), hence convex,
    and is represented by its exact knots.
    """
    eps = profile.epsilons
    dlt = profile.deltas
    finite = np.isfinite(eps) & (dlt < 1.0)
    if not np.any(finite):
        return _zero_curve("profile(degenerate)")
    e_pos = np.exp(np.minimum(eps[finite], 700.0))
    e_neg = np.exp(-eps[finite])
    one_m_d = 1.0 - dlt[finite]
    slopes = np.concatenate([-e_pos, -e_neg, [0.0]])
    intercepts = np.concatenate([one_m_d, e_neg * one_m_d, [0.0]])
    kx, ky = _upper_envelope_of_lines(slopes, intercepts)
    ky = np.clip(ky, 0.0, 1.0)
    kx, ky = lower_convex_hull(kx, ky)
    return TradeoffCurve(provenance=f"profile_envelope({int(finite.sum())} points)",
                         knots=np.column_stack([kx, ky]))


def gaussian_curve(mu: float) -> TradeoffCurve:
    """Exact trade-off of a unit-sensitivity Gaussian pair at separation mu.

    f(a) = Phi(Phi^-1(1 - a) - mu); mu = inf yields the zero curve.
    """
    if not (mu >= 0):
        raise ParameterError(f"mu must be >= 0, got {mu}")
    if math.isinf(mu):
        return _zero_curve(f"gaussian(mu={mu!r})")

    def fn(a):
        return elementwise(lambda v: ndtr(-ndtri(v) - mu), a)

    def delta_at(epsilon):
        # closed form: the maximizing alpha sits deep in the tail, where
        # grid search loses all precision
        if mu == 0.0:
            return 0.0
        x = -epsilon / mu - mu / 2.0
        try:
            tail = math.exp(epsilon) * ndtr(x)
        except OverflowError:  # from eps = 709.78 on, where x <= -37.68
            tail = math.exp(epsilon + log_ndtr(x))
        d = ndtr(-epsilon / mu + mu / 2.0) - tail
        return d if 0.0 < d < 1.0 else 1.0 if d >= 1.0 else 0.0

    def bayes(pi):
        # the likelihood-ratio test's error at z: two tails, no cancellation
        if mu == 0.0:
            return min(pi, 1.0 - pi)
        z = _logit(pi) / mu + mu / 2.0
        return pi * ndtr(-z) + (1.0 - pi) * ndtr(z - mu)

    return TradeoffCurve(provenance=f"gaussian(mu={mu!r})", fn=fn,
                         delta=delta_at, bayes=bayes)


def laplace_curve(epsilon: float) -> TradeoffCurve:
    """Exact trade-off of two unit-shifted Laplace(1/epsilon) distributions.

    Three-regime form from likelihood-ratio thresholding:
    1 - e^eps * a for a < e^-eps / 2, e^-eps / (4a) up to 1/2, then
    e^-eps * (1 - a).
    """
    if not (epsilon >= 0):
        raise ParameterError(f"epsilon must be >= 0, got {epsilon}")
    if math.isinf(epsilon):  # point masses at 0 and 1
        return _zero_curve(f"laplace(eps={epsilon!r})")
    e_pos, e_neg = _exp(epsilon), math.exp(-epsilon)

    def fn(a):
        a = np.asarray(a, dtype=float)
        with np.errstate(divide="ignore"):
            mid = np.where(a > 0, e_neg / (4.0 * np.maximum(a, 1e-300)), 1.0)
        return np.where(a < e_neg / 2.0, 1.0 - _times(e_pos, a),
                        np.where(a <= 0.5, mid, e_neg * (1.0 - a)))

    def delta_at(eps):  # 1 - e^((eps - epsilon) / 2) below epsilon, else 0
        return max(0.0, -math.expm1(min(0.0, eps - epsilon) / 2.0))

    def bayes(pi):  # min(pi, 1 - pi) (1 - delta(|logit pi|)), no log taken
        return min(pi, 1.0 - pi,
                   math.sqrt(pi * (1.0 - pi)) * math.exp(-epsilon / 2.0))

    return TradeoffCurve(provenance=f"laplace(eps={epsilon!r})", fn=fn,
                         delta=delta_at, bayes=bayes)


def piecewise_curve(alphas, betas, provenance: str = "piecewise") -> TradeoffCurve:
    """Piecewise-linear curve through (alpha, beta) knots, convexified."""
    a = np.asarray(alphas, dtype=float)
    if not np.all((a >= 0.0) & (a <= 1.0)):
        raise ParameterError("knot alphas must lie in [0, 1]")
    b = np.clip(np.asarray(betas, dtype=float), 0.0, 1.0)
    a, b = lower_convex_hull(a, b)
    if a[0] > 0.0:
        a = np.concatenate([[0.0], a])
        b = np.concatenate([[min(1.0, b[0])], b])
    if a[-1] < 1.0:
        a = np.concatenate([a, [1.0]])
        b = np.concatenate([b, [0.0]])
        a, b = lower_convex_hull(a, b)
    return TradeoffCurve(provenance=provenance, knots=np.column_stack([a, b]))


# --------------------------------------------------------------------------
# numeric helpers

def _bisect(ok: Callable[[float], bool], lo: float, hi: float,
            tol: float = 0.0) -> float:
    """Smallest point found in (lo, hi] where the monotone ``ok`` holds,
    given ok(lo) false and ok(hi) true: halvings until the bracket is at
    most ``tol`` wide, or until the midpoint rounds to an end point and so
    can no longer move. ``calibrate_noise`` runs on it where the risk is a
    sawtooth; ``_solve`` ends with it."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _solve(f: Callable[[float], float], target: float, lo: float, hi: float,
           f_lo: float, f_hi: float, convex: bool = False,
           tol: float = 0.0) -> float:
    """Smallest point found in (lo, hi] where f <= target, for f falling
    in [0, 1] with f_lo = f(lo) > target >= f(hi) = f_hi: Illinois regula
    falsi (Dowell & Jarratt, BIT 1971) on sqrt(log 1/f), near linear on a
    Gaussian tail; for f ``convex`` in e^x, as a privacy profile is, the
    larger of it and the secant of the last two left points in e^x, at or
    below the root. Steps stay two ulps inside the bracket; a halving
    follows one so clamped that stays on its end's side, until the bracket
    is at most ``tol`` wide. ``_bisect`` on the exact test finishes, so the
    answer meets the target and lies within ``tol`` above a root."""
    t = math.sqrt(-math.log(target)) if target > 0.0 else 0.0

    def g(v):
        return t - math.sqrt(-math.log(v)) if v > 0.0 else -math.inf

    a = f_a = None  # the left point before lo
    g_lo, g_hi = g(f_lo), g(f_hi)
    w_lo = w_hi = 1.0  # Illinois weights
    side, halve = 0, False
    step = 2.0 * math.ulp(hi)
    while hi - lo > max(2.0 * step, tol):
        x = -math.inf
        if convex and a is not None and f_a != f_lo:
            y = (f_lo - target) * math.expm1(a - lo) / (f_lo - f_a)
            x = lo + math.log1p(y) if -1.0 < y else x
            x = x if x < hi else -math.inf  # above an ok point: round-off
        if -math.inf < g_hi < 0.0 and w_lo * g_lo != w_hi * g_hi:
            rf = hi - w_hi * g_hi * (hi - lo) / (w_hi * g_hi - w_lo * g_lo)
            x = rf if rf > x else x
        if halve or x == -math.inf:  # f(hi) at the target: try next to hi
            x = hi if g_hi == 0.0 and not halve else 0.5 * (lo + hi)
        near = x - lo < step or hi - x < step
        x = lo + step if x < lo + step else hi - step if x > hi - step else x
        v = f(x)
        ok = v <= target
        halve = near and ok == (hi - x < 1.5 * step)
        if ok:
            w_lo = 0.5 * w_lo if side == 1 else 1.0
            hi, f_hi, g_hi, side, w_hi = x, v, g(v), 1, 1.0
            step = 2.0 * math.ulp(hi)
        else:
            w_hi = 0.5 * w_hi if side == -1 else 1.0
            a, f_a, lo, f_lo, g_lo, side, w_lo = lo, f_lo, x, v, g(v), -1, 1.0
    return _bisect(lambda x: f(x) <= target, lo, hi, tol)


# --------------------------------------------------------------------------
# derived quantities

def tv_from_curve(f: TradeoffCurve) -> float:
    """TV privacy level eta = max_alpha (1 - f(alpha) - alpha): the privacy
    profile at epsilon = 0, so ``delta_for_epsilon(f, 0.0)``; the mechanism
    is (0, eta)-DP (Dong, Roth & Su, JRSS-B 2022)."""
    return delta_for_epsilon(f, 0.0)


def delta_for_epsilon(f: TradeoffCurve, epsilon: float) -> float:
    """Smallest delta at which f dominates the (epsilon, delta) curve:
    delta(eps) = max_alpha (1 - f(alpha) - e^eps * alpha), by convex
    conjugacy, read off the curve's own ``f.delta`` at a Python float: on
    numpy scalars the Gaussian's arithmetic would warn where it overflows."""
    if epsilon < 0:
        raise ParameterError(f"epsilon must be >= 0, got {epsilon}")
    return f.delta(float(epsilon))


def _epsilon_at_delta(delta_of: Callable[[float], float],
                      delta: float) -> float:
    """Smallest eps at which the privacy profile ``delta_of`` is at most
    delta: the bracket doubles from 1 up to 1e6, then ``_solve``."""
    d_lo = delta_of(0.0)
    if d_lo <= delta:
        return 0.0
    lo, hi = 0.0, 1.0
    while (d_hi := delta_of(hi)) > delta:
        lo, d_lo, hi = hi, d_hi, 2.0 * hi
        if hi > 1e6:
            raise ParameterError("cannot find finite epsilon at this delta")
    return _solve(delta_of, delta, lo, hi, d_lo, d_hi, convex=True)


def gaussian_mu_at(epsilon: float, delta: float) -> float:
    """The largest mu in [1e-4, 80] whose Gaussian curve has delta(epsilon)
    at most delta: the least private Gaussian that is (epsilon, delta)-DP."""
    def delta_of(t):  # on t = -mu, so that _solve's answer meets the target
        return delta_for_epsilon(gaussian_curve(-t), epsilon)

    d_lo, d_hi = delta_of(-80.0), delta_of(-1e-4)
    if not d_hi <= delta or d_lo <= delta:
        raise ParameterError(f"no mu in [1e-4, 80] has delta({epsilon!r}) "
                             f"= {delta!r}")
    return -_solve(delta_of, delta, -80.0, -1e-4, d_lo, d_hi)


# --------------------------------------------------------------------------
# serialization (CSV, full double precision)

def curve_to_csv(curve: TradeoffCurve, out, grid: np.ndarray | None = None) -> None:
    """Write curve knots as ``alpha,f`` CSV rows at 17 significant digits."""
    out.write("alpha,f\n")
    for a, b in curve.as_knots(grid).tolist():
        out.write(f"{a:.17g},{b:.17g}\n")


def curve_from_csv(inp) -> TradeoffCurve:
    """Read a piecewise-linear curve from ``alpha,f`` CSV."""
    rows = _read_csv_rows(inp, ("alpha", "f"))
    return piecewise_curve(rows[:, 0], rows[:, 1], provenance="csv")


def profile_from_csv(inp) -> PrivacyProfile:
    rows = _read_csv_rows(inp, ("epsilon", "delta"))
    return PrivacyProfile.from_points(rows[:, 0], rows[:, 1])


def _read_csv_rows(inp, expected_header: tuple[str, str]) -> np.ndarray:
    if isinstance(inp, (str, bytes)):
        inp = io.StringIO(inp.decode() if isinstance(inp, bytes) else inp)
    lines = [ln.strip() for ln in inp if ln.strip()]
    if not lines:
        raise ParameterError("empty CSV input")
    start = 1 if lines[0].replace(" ", "").lower() == ",".join(expected_header) else 0
    rows = []
    for ln in lines[start:]:
        fields = ln.split(",")
        try:
            rows.append([float(fields[0]), float(fields[1])])
        except (IndexError, ValueError) as exc:
            raise ParameterError(f"malformed CSV row {ln!r}: {exc}") from None
    if not rows:
        raise ParameterError("CSV contains no data rows")
    rows = np.array(rows)
    if np.isnan(rows).any():
        raise ParameterError("CSV values must not be NaN")
    return rows
