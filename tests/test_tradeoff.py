"""Trade-off curve construction, derived quantities, and serialization."""

import io
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from fdprisk import accountant as A
from fdprisk import cli
from fdprisk import tradeoff as T

GRID = T.default_alpha_grid()


def check_curve_invariants(f, grid=None, tol=1e-9):
    a = GRID if grid is None else grid
    v = f(a)
    assert np.all(v >= -1e-12) and np.all(v <= 1.0 + 1e-12)
    assert np.all(v - (1.0 - a) <= tol), "f(alpha) must not exceed 1 - alpha"
    assert np.all(np.diff(v) <= 1e-12), "f must be non-increasing"
    # convexity via discrete second differences on a uniform grid
    u = np.linspace(0.0, 1.0, 2001)
    w = f(u)
    assert np.all(np.diff(w, 2) >= -1e-12), "f must be convex"


# ----------------------------------------------------------------- eq. curves

def test_eps_delta_trivial_values():
    assert T.curve_from_epsilon_delta(0.0, 0.0)(0.3) == pytest.approx(0.7)
    assert T.curve_from_epsilon_delta(0.0, 0.1)(0.3) == pytest.approx(0.6)
    assert T.curve_from_epsilon_delta(math.log(2), 0.0)(0.4) == pytest.approx(0.3)


def test_eps_delta_parameter_errors():
    with pytest.raises(T.ParameterError):
        T.curve_from_epsilon_delta(-0.1, 0.0)
    with pytest.raises(T.ParameterError):
        T.curve_from_epsilon_delta(1.0, 1.5)


def test_degenerate_inputs_give_zero_curve():
    for f in (T.curve_from_epsilon_delta(math.inf, 0.0),
              T.curve_from_epsilon_delta(1.0, 1.0),
              T.gaussian_curve(math.inf), T.laplace_curve(math.inf)):
        assert f(0.0) == 0.0 and f(0.5) == 0.0
        assert T.tv_from_curve(f) == 1.0 and f.bayes(0.3) == 0.0


@given(eps=st.floats(0.0, 10.0), delta=st.floats(0.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_eps_delta_curve_invariants(eps, delta):
    check_curve_invariants(T.curve_from_epsilon_delta(eps, delta))


# --------------------------------------------------------------- gaussian

def test_gaussian_trivial_and_oracle():
    assert T.gaussian_curve(0.0)(0.25) == pytest.approx(0.75)
    got = T.gaussian_curve(0.75)(0.05)
    want = oracles.gaussian_tradeoff_hp(0.75, 0.05)
    assert got == pytest.approx(want, abs=1e-12)
    assert T.gaussian_curve(2.0)(1.0 - 1e-12) < 1e-9
    # bit-identical with the scipy.stats form it replaced
    from scipy.stats import norm
    a = np.concatenate([[0.0, 1.0, 1e-300, 5e-324, 1.0 - 1e-16], GRID])
    for mu in (0.0, 1e-9, 0.75, 3.0, 40.0):
        assert np.array_equal(T.gaussian_curve(mu).fn(a),
                              norm.cdf(norm.isf(a) - mu))


@given(mu=st.floats(0.0, 6.0))
@settings(max_examples=40, deadline=None)
def test_gaussian_curve_invariants(mu):
    check_curve_invariants(T.gaussian_curve(mu))


# ---------------------------------------------------------------- laplace

def test_laplace_trivial():
    f = T.laplace_curve(0.0)
    a = np.linspace(0, 1, 101)
    assert np.allclose(f(a), 1.0 - a, atol=1e-12)


def test_laplace_matches_neyman_pearson_oracle():
    eps = 0.2
    p, q = oracles.discretized_laplace_pair(eps, cells=200_000)
    f = T.laplace_curve(eps)
    for alpha in (0.05, 0.2, float(np.exp(-eps) / 2), 0.5, 0.7, 0.95):
        want = float(oracles.np_tradeoff_eval(p, q, alpha))
        assert f(alpha) == pytest.approx(want, abs=2e-5)


def test_laplace_dominates_pure_dp_envelope():
    for eps in (0.2, 1.0, 3.0):
        f = T.laplace_curve(eps)
        g = T.curve_from_epsilon_delta(eps, 0.0)
        assert np.all(f(GRID) >= g(GRID) - 1e-12)


@given(eps=st.floats(0.0, 8.0))
@settings(max_examples=40, deadline=None)
def test_laplace_curve_invariants(eps):
    check_curve_invariants(T.laplace_curve(eps))


# -------------------------------------------------------------- envelopes

def test_profile_envelope_singleton_and_pair():
    f = T.curve_from_profile(T.PrivacyProfile.from_points([0.0], [0.0]))
    g = T.curve_from_epsilon_delta(0.0, 0.0)
    assert np.allclose(f(GRID), g(GRID), atol=1e-12)
    prof = T.PrivacyProfile.from_points([1.0, 2.0], [0.0, 0.0])
    env = T.curve_from_profile(prof)
    f1 = T.curve_from_epsilon_delta(1.0, 0.0)
    f2 = T.curve_from_epsilon_delta(2.0, 0.0)
    a = np.linspace(0, 1, 501)
    assert np.allclose(env(a), np.maximum(f1(a), f2(a)), atol=1e-12)


def test_profile_envelope_approximates_gaussian():
    g = T.gaussian_curve(1.0)
    grid = np.arange(0.0, 6.001, 0.1)
    env = T.curve_from_profile(
        T.PrivacyProfile.from_points(grid, [g.delta(e) for e in grid]))
    a = np.linspace(0.0, 1.0, 20001)
    gap = g(a) - env(a)
    assert np.all(gap >= -1e-10), "envelope must stay below the exact curve"
    assert np.max(gap) < 1e-3


def _max_over(slopes, intercepts, x, chunk=256):
    """max_j (intercepts[j] + slopes[j] * x) at each x, in chunks of x, in
    the arithmetic of one broadcast over all lines, without its n^2 matrix."""
    return np.concatenate([
        (slopes[None, :] * x[i:i + chunk, None] + intercepts[None, :]).max(1)
        for i in range(0, x.size, chunk)])


def check_envelope_bits(slopes, intercepts):
    """Knot values bit for bit the max over the envelope's own lines (the
    upper hull of the dual points), and within 1e-12 below the max over
    every line: the hull drops lines that win only by round-off, and its
    cross-product test underflows on lines below about 1e-154."""
    kx, ky = T._upper_envelope_of_lines(slopes, intercepts)
    assert kx[0] == 0.0 and kx[-1] == 1.0 and np.all(np.diff(kx) > 0)
    s, c = T.lower_convex_hull(slopes, -intercepts)
    assert np.array_equal(ky, _max_over(s, -c, kx))
    every = _max_over(slopes, intercepts, kx)
    assert np.all(ky <= every) and np.all(every - ky <= 1e-12)
    return kx, ky


def test_envelope_knot_values_are_the_max_over_every_line():
    rng = np.random.default_rng(3)
    eps = np.sort(rng.uniform(0.0, 8.0, 300))
    slopes = np.concatenate([-np.exp(eps), -np.exp(-eps), [0.0]])
    intercepts = np.concatenate([rng.uniform(0.5, 1.0, 300),
                                 rng.uniform(0.0, 0.5, 300), [0.0]])
    kx, ky = check_envelope_bits(slopes, intercepts)
    # these lines lose none to the hull's round-off: every line's max
    assert np.array_equal(ky, _max_over(slopes, intercepts, kx))


@st.composite
def _lines(draw):
    """Lines y = c + s x, some slopes repeated at another intercept."""
    n = draw(st.integers(1, 40))
    slopes = draw(st.lists(st.floats(-50.0, 50.0), min_size=n, max_size=n))
    again = draw(st.lists(st.integers(0, n - 1), max_size=n))
    slopes += [slopes[i] for i in again]
    intercepts = draw(st.lists(st.floats(-2.0, 2.0), min_size=len(slopes),
                               max_size=len(slopes)))
    return np.array(slopes), np.array(intercepts)


@given(_lines(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
@settings(max_examples=300, deadline=None)
def test_envelope_values_are_the_brute_force_max(lines, xs):
    slopes, intercepts = lines
    kx, ky = check_envelope_bits(slopes, intercepts)
    # between the knots, by interpolation
    brute = _max_over(slopes, intercepts, np.array(xs))
    assert np.allclose(np.interp(xs, kx, ky), brute, rtol=0.0, atol=1e-12)


def _profile_lines(eps, dlt):
    """The lines of profile rows (eps, delta), as ``curve_from_profile``
    draws them: 1 - delta - e^eps x and e^-eps (1 - delta - x), and 0."""
    one_m_d = 1.0 - dlt
    return (np.concatenate([-np.exp(eps), -np.exp(-eps), [0.0]]),
            np.concatenate([one_m_d, np.exp(-eps) * one_m_d, [0.0]]))


def _far_rows(rng):
    """Rows at eps in [300, 700] with delta <= 1e-3: slopes to e^700 and
    e^-700, where the hull's cross-product test underflows."""
    n = rng.integers(1, 200)
    dlt = rng.uniform(0.0, 1e-3, n) * (rng.random(n) < 0.7)
    return np.sort(rng.uniform(300.0, 700.0, n)), np.sort(dlt)[::-1]


def _tied_rows(rng):
    """Rows sharing 2-3 deltas, 1 - delta from 1e-13 to 1: the lines
    e^-eps (1 - delta - x) of each delta meet at (1 - delta, 0), so
    round-off ties and swaps their crossings, as composed Laplace's
    profile does at small noise."""
    n = rng.integers(2, 200)
    shared = -np.expm1(-rng.uniform(0.0, 30.0, rng.integers(2, 4)))
    return (np.sort(rng.uniform(0.0, rng.choice([80.0, 300.0]), n)),
            np.sort(rng.choice(shared, n))[::-1])


@pytest.mark.parametrize("rows", [_far_rows, _tied_rows])
def test_envelope_bits_on_drawn_profile_lines(rows):
    # a window of the searchsorted line and its two neighbours misses the
    # max on 112 of the 1,500 tied draws, by up to 3.4e-21
    rng = np.random.default_rng(23)
    for _ in range(1500):
        check_envelope_bits(*_profile_lines(*rows(rng)))


def test_envelope_bits_on_composed_laplace_ties(monkeypatch):
    # at b = 0.1745, k = 40 the knot 9.88e-13 reads a window of 29 hull
    # lines; the max there is 1.6e-42, where the searchsorted line and its
    # two neighbours give 0
    seen = []
    envelope = T._upper_envelope_of_lines
    monkeypatch.setattr(T, "_upper_envelope_of_lines",
                        lambda s, c: seen.append((s, c)) or envelope(s, c))
    A.curve_of(A.MechanismSpec("laplace", 0.17450085701972312,
                               compositions=40))
    (slopes, intercepts), = seen
    check_envelope_bits(slopes, intercepts)


def test_empty_profile_rejected():
    with pytest.raises(T.ParameterError):
        T.PrivacyProfile(np.zeros((0, 2)))


# --------------------------------------------------------------------- TV

def test_tv_closed_forms_against_grid_max():
    for eps in (0.0, 0.1, 1.0, 5.0, 10.0):
        for delta in (0.0, 1e-5, 1e-2):
            f = T.curve_from_epsilon_delta(eps, delta)
            want = (math.exp(eps) - 1 + 2 * delta) / (math.exp(eps) + 1)
            got = T.tv_from_curve(f)
            assert got == pytest.approx(want, abs=1e-9)
            ref, _ = oracles.grid_max(lambda a: 1.0 - f(a) - a)
            assert got == pytest.approx(ref, abs=1e-9)


def test_tv_gaussian_and_laplace():
    from scipy.stats import norm
    for mu in (0.5, 1.0, 2.0):
        f = T.gaussian_curve(mu)
        # bit-identical with the scipy.stats form it replaced
        assert T.tv_from_curve(f) == 2 * norm.cdf(mu / 2) - 1
        ref, _ = oracles.grid_max(lambda a: 1.0 - f(a) - a)
        assert T.tv_from_curve(f) == pytest.approx(ref, abs=1e-9)
    for eps in (0.2, 1.0):
        f = T.laplace_curve(eps)
        assert T.tv_from_curve(f) == pytest.approx(
            1 - math.exp(-eps / 2), abs=1e-12)
        ref, _ = oracles.grid_max(lambda a: 1.0 - f(a) - a)
        assert T.tv_from_curve(f) == pytest.approx(ref, abs=1e-9)


_ETA_CURVES = [
    T.gaussian_curve(0.0), T.gaussian_curve(0.5), T.gaussian_curve(1.0),
    T.gaussian_curve(8.0), T.laplace_curve(1e-6), T.laplace_curve(1.0),
    T.curve_from_epsilon_delta(0.0, 0.0), T.curve_from_epsilon_delta(0.0, 0.3),
    T.curve_from_epsilon_delta(1.0, 1e-5), T.curve_from_epsilon_delta(800.0, 0.1),
    T.curve_from_epsilon_delta(math.inf, 0.0),
    T.piecewise_curve([0.0, 0.2, 1.0], [1.0, 0.3, 0.0]),
    A.randomized_response_curve(0.3, 18),
]


# the closed form rounds below the exact delta (1.5e-16 under mpmath's)
# where ndtr(-eps/mu + mu/2) - e^eps ndtr(-eps/mu - mu/2) cancels
_CLOSED_FORM_MISSES = {("gaussian(mu=0.5)", 0.5)}


@pytest.mark.parametrize("f, eps", [
    pytest.param(f, eps, id=f"{f.provenance}-{eps}", marks=[
        pytest.mark.xfail(strict=True, reason="closed form 2.5e-16 below")]
        if (f.provenance, eps) in _CLOSED_FORM_MISSES else [])
    for f in _ETA_CURVES for eps in (0.0, 0.5, 2.0)])
def test_closed_form_delta_is_the_conjugate_of_fn(f, eps):
    # the numeric maximum over the curve's own fn, or the maximum over its
    # own knots, is a value the curve attains, so a closed form may not
    # fall below it
    closed = T.delta_for_epsilon(f, eps)
    e_eps = math.exp(min(eps, 700))
    if f.is_piecewise:
        numeric = float(np.max(1.0 - f.knots[:, 1] - e_eps * f.knots[:, 0]))
    else:
        numeric = oracles.concave_max(lambda a: 1.0 - f(a) - e_eps * a)
    numeric = min(1.0, max(0.0, numeric))
    assert closed >= numeric - 2e-16
    assert abs(closed - numeric) <= 1e-9


@pytest.mark.parametrize("f", _ETA_CURVES, ids=lambda f: f.provenance)
def test_tv_is_delta_at_zero(f):
    # eta = max (1 - f(a) - a) is the privacy profile at eps = 0
    assert T.tv_from_curve(f) == T.delta_for_epsilon(f, 0.0)


def test_tv_laplace_small_epsilon_high_precision():
    # 1 - e^(-eps/2) through expm1: no cancellation as eps -> 0
    for eps in (1e-8, 1e-6, 1e-3):
        want = -mpmath.expm1(-mpmath.mpf(eps) / 2)
        got = T.tv_from_curve(T.laplace_curve(eps))
        assert abs(got - want) <= 1e-14 * want


# ------------------------------------------------------- concave maximizer

_SLOPES = st.lists(st.floats(0.0, 1e3), min_size=1, max_size=3)


@given(peak=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1e-12),
                      st.floats(1.0 - 1e-12, 1.0), st.floats(0.0, 1.0)),
       top=st.floats(-1.0, 1.0), up=_SLOPES, down=_SLOPES,
       extra=st.lists(st.tuples(st.floats(1e-9, 1.0), st.floats(-1e3, 1e3)),
                      max_size=3))
@settings(max_examples=300, deadline=None)
def test_concave_max_piecewise_linear(peak, top, up, down, extra):
    # min of lines through (peak, top), rising before it and falling after
    # it, and of lines above it there: a concave function whose maximum on
    # [0, 1] is top, at peak
    def g(x):
        d = x - peak
        lines = ([top + s * d for s in up] + [top - s * d for s in down]
                 + [top + c + s * d for c, s in extra])
        return np.min(lines, axis=0)

    got = oracles.concave_max(g)
    assert got <= top
    steepest = max(up + down + [abs(s) for _, s in extra])
    assert top - got <= 4.5e-16 * (1.0 + steepest)


def test_concave_max_ties_and_peaks():
    # two neighbouring grid points tie, with the peak between them
    assert oracles.concave_max(lambda x: -np.abs(x - (0.5 + 1 / 128))) == 0.0
    # a flat top
    assert oracles.concave_max(lambda x: np.minimum(0.25, 1.0 - x)) == 0.25
    # an interior peak off the grid, and a peak at an end
    assert oracles.concave_max(lambda x: -(x - 0.3) ** 2) == 0.0
    assert oracles.concave_max(lambda x: x) == 1.0


# ------------------------------------------------------------ root finder

@given(ends=st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=2,
                     unique=True),
       frac=st.floats(0.0, 1.0), tol=st.sampled_from([0.0, 1e-4]))
@settings(max_examples=300, deadline=None)
def test_bisect_on_threshold_predicates(ends, frac, tol):
    # ok(x) = x >= t, with ok(lo) false and ok(hi) true: the answer meets
    # the threshold and lies within tol of it, and at tol 0 it is t itself
    lo, hi = sorted(ends)
    t = min(hi, max(math.nextafter(lo, math.inf), lo + frac * (hi - lo)))
    calls = []

    def ok(x):
        calls.append(x)
        return x >= t

    got = T._bisect(ok, lo, hi, tol)
    assert t <= got <= hi
    assert all(lo < x < hi for x in calls)
    if tol:
        assert got - t <= tol
        assert len(calls) <= max(0, math.ceil(math.log2((hi - lo) / tol)))
    else:
        assert got == t


_FALLING = {"logistic": lambda x: 1.0 / (1.0 + math.exp(x)),
            "normal_tail": lambda x: 0.5 * math.erfc(x / math.sqrt(2.0)),
            "gumbel": lambda x: math.exp(-math.exp(x))}


@given(lo=st.floats(-8.0, 8.0), width=st.floats(1e-3, 20.0),
       frac=st.floats(0.0, 1.0), tol=st.sampled_from([1e-8, 1e-4, 1e-2]),
       name=st.sampled_from(sorted(_FALLING)))
@settings(max_examples=300, deadline=None)
def test_solve_with_tol_ends_within_tol_above_the_root(lo, width, frac, tol,
                                                      name):
    # the answer meets the target and lies within tol above the exact
    # root, the smallest float where f <= target (the tol = 0 bisection)
    f, hi = _FALLING[name], lo + width
    target = f(lo + frac * width)
    assume(f(lo) > target >= f(hi) and target > 0.0)
    root = T._bisect(lambda x: f(x) <= target, lo, hi)
    got = T._solve(f, target, lo, hi, f(lo), f(hi), tol=tol)
    assert f(got) <= target
    assert root <= got <= root + tol


# ------------------------------------------------------------------ profiles

def test_profile_from_curve_trivial_and_roundtrip():
    ident = T.curve_from_epsilon_delta(0.0, 0.0)
    grid = [0.0, 1.0, 5.0]
    prof = T.PrivacyProfile.from_points(grid, [ident.delta(e) for e in grid])
    assert np.allclose(prof.deltas, 0.0, atol=1e-12)
    f = T.curve_from_epsilon_delta(1.0, 1e-5)
    assert T.delta_for_epsilon(f, 1.0) == pytest.approx(1e-5, abs=1e-12)


def _epsilon_at_delta_by_bisection(delta_of, delta):
    """The doubling bracket and tol = 0 bisection from 0 that
    ``_epsilon_at_delta`` ran before its superlinear solver."""
    if delta_of(0.0) <= delta:
        return 0.0
    hi = 1.0
    while delta_of(hi) > delta:
        hi *= 2.0
        if hi > 1e6:
            return None
    return T._bisect(lambda e: delta_of(e) <= delta, 0.0, hi)


def _profiles():
    for mu in np.geomspace(0.02, 30.0, 12):
        yield "gaussian", float(mu), T.gaussian_curve(float(mu)).delta
    for eps0 in np.geomspace(0.02, 20.0, 12):
        yield "laplace", float(eps0), T.laplace_curve(float(eps0)).delta
    for eps0 in (0.1, 1.0, 3.0, 10.0):
        for d0 in (0.0, 1e-13, 1e-6):
            yield "eps_delta", eps0, T.curve_from_epsilon_delta(eps0, d0).delta
    for p in (0.05, 0.2, 0.45):
        for k in (1, 10, 64):
            yield "rr", p, A.randomized_response_curve(p, k).delta


def test_epsilon_at_delta_against_bisection():
    # every answer meets delta, lies within 1e-13 of the tol = 0 bisection
    # and takes at most 4 more delta evaluations than it; a Gaussian at
    # mu <= 2 and delta = 1e-5 takes at most 20
    for family, param, profile in _profiles():
        for delta in (1e-12, 1e-9, 1e-5, 1e-3, 0.1):
            calls = []

            def counted(e, calls=calls, profile=profile):
                calls.append(e)
                return profile(e)

            want = _epsilon_at_delta_by_bisection(counted, delta)
            n_want = len(calls)
            calls.clear()
            if want is None:  # delta below the (eps, delta) curve's floor
                with pytest.raises(T.ParameterError):
                    T._epsilon_at_delta(counted, delta)
                continue
            got = T._epsilon_at_delta(counted, delta)
            case = (family, param, delta, got, want, len(calls), n_want)
            assert profile(got) <= delta, case
            assert abs(got - want) <= 1e-13 * want, case
            assert len(calls) <= n_want + 4, case
            if family == "gaussian" and param <= 2.0 and delta == 1e-5:
                assert len(calls) <= 20, case


@pytest.mark.parametrize("eps", (0.5, 1.0, 2.0, 5.0, 10.6, 20.0))
def test_gaussian_mu_at_meets_delta(eps):
    for delta in (1e-12, 1e-10, 1e-9, 1e-6, 1e-3):
        mu = T.gaussian_mu_at(eps, delta)
        assert T.delta_for_epsilon(T.gaussian_curve(mu), eps) <= delta
        # and no much larger mu does
        assert T.delta_for_epsilon(T.gaussian_curve(mu * (1 + 1e-9)),
                                   eps) > delta


def test_gaussian_mu_at_without_root():
    with pytest.raises(T.ParameterError):
        T.gaussian_mu_at(0.0, 0.0)  # delta(0) > 0 at mu = 1e-4 already
    with pytest.raises(T.ParameterError):
        T.gaussian_mu_at(1.0, 1.0)  # mu = 80 meets delta = 1 too


def test_gaussian_profile_matches_high_precision_oracle():
    mu = 1.41
    got = T.delta_for_epsilon(T.gaussian_curve(mu), 10.6)
    want = oracles.gaussian_profile_delta_hp(mu, 10.6)
    assert got == pytest.approx(want, rel=1e-9)
    # bit-identical with the scipy.stats form it replaced, up to the largest
    # eps whose e^eps is a finite float
    from scipy.stats import norm
    for mu in (0.05, 0.5, 1.41, 3.0, 10.0, 40.0):
        for eps in (0.0, 0.1, 1.0, 5.0, 10.6, 50.0, 300.0, 709.0):
            old = norm.cdf(-eps / mu + mu / 2.0) \
                - math.exp(eps) * norm.cdf(-eps / mu - mu / 2.0)
            got = T.delta_for_epsilon(T.gaussian_curve(mu), eps)
            assert got == float(min(1.0, max(0.0, old)))
    # beyond it (where math.exp overflows) the log-space form
    for mu, eps in ((40.0, 710.0), (40.0, 800.0), (45.0, 1000.0)):
        got = T.delta_for_epsilon(T.gaussian_curve(mu), eps)
        want = oracles.gaussian_profile_delta_hp(mu, eps)
        assert 0.01 < want and got == pytest.approx(want, rel=1e-9)


def test_large_epsilon_curves_without_overflow():
    # e^eps past the float range is taken as inf: f(0) stays 1 - delta and
    # every other value lies at or below the true curve
    a = np.array([0.0, 5e-324, 1e-300, 1e-12, 0.5, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for eps in (710.0, 800.0, 1e4):
            f = T.curve_from_epsilon_delta(eps, 0.1)
            v = f(a)
            assert v[0] == 0.9 and np.all(v[1:] <= 1e-300)
            assert T.tv_from_curve(f) == 1.0
            # delta0 + 0.9 (e^eps0 - e^eps) / (1 + e^eps0): 1 far below eps0,
            # 0.1 + 0.9 (1 - 1/e) one below it, delta0 from eps0 on
            d = [T.delta_for_epsilon(f, x) for x in (10.0, eps - 1.0, eps, 2 * eps)]
            assert d[0] == 1.0 and d[2:] == [0.1, 0.1]
            assert abs(d[1] - (0.1 - 0.9 * math.expm1(-1.0))) <= 1e-15
            prof = T.PrivacyProfile.from_points(
                [10.0, eps], [f.delta(10.0), f.delta(eps)])
            assert np.array_equal(prof.deltas, [1.0, 0.1])
            v = T.laplace_curve(eps)(a)
            e_neg = math.exp(-eps)
            assert v[0] == 1.0 and v[1] == 0.0  # below 1 - e^eps a > 1/2
            assert np.allclose(v[2:], [e_neg / 4e-300, e_neg / 4e-12,
                                       e_neg / 2.0, 0.0], rtol=1e-12, atol=0)


def test_laplace_delta_closed_form_against_oracle():
    for eps0 in (0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0):
        f = T.laplace_curve(eps0)
        for eps in np.linspace(0.0, 1.2 * eps0, 13):
            got = T.delta_for_epsilon(f, eps)
            assert abs(got - oracles.laplace_delta_hp(eps0, eps)) <= 1e-15
            # the numeric maximum it replaced can only come out low
            old = oracles.concave_max(lambda a: 1.0 - f(a) - math.exp(eps) * a)
            assert got >= min(1.0, max(0.0, old)) - 2e-16


def test_profile_curve_roundtrip_idempotent():
    g = T.gaussian_curve(1.0)
    eps_grid = np.linspace(0.0, 6.0, 400)
    prof = T.PrivacyProfile.from_points(eps_grid, [g.delta(e) for e in eps_grid])
    env = T.curve_from_profile(prof)
    prof2 = T.PrivacyProfile.from_points(eps_grid,
                                         [env.delta(e) for e in eps_grid])
    assert np.max(np.abs(prof.deltas - prof2.deltas)) < 1e-9


def test_profile_envelope_lower_bounds_curve():
    g = T.gaussian_curve(1.0)
    grid = np.linspace(0, 6, 1500)
    env = T.curve_from_profile(
        T.PrivacyProfile.from_points(grid, [g.delta(e) for e in grid]))
    a = np.linspace(0.01, 0.99, 4001)
    gap = g(a) - env(a)
    assert np.all(gap >= -1e-10)
    assert np.max(gap) < 1e-6


def test_profile_monotonicity_repair_is_conservative():
    prof = T.PrivacyProfile.from_points([0.0, 1.0, 2.0], [0.2, 0.05, 0.1])
    assert np.all(np.diff(prof.deltas) <= 1e-12)
    assert prof.deltas[1] == pytest.approx(0.1)  # raised, never lowered


# ------------------------------------------------------------- serialization

def test_curve_csv_roundtrip_and_determinism(tmp_path, capsys):
    """``tradeoff --curve`` writes a curve's knots, twice the same bytes, and
    ``curve_from_csv`` reads them back to the same curve."""
    f = T.piecewise_curve([0.0, 0.3, 1.0], [1.0, 0.45, 0.0])
    path = tmp_path / "curve.csv"
    path.write_text("alpha,f\n0,1\n0.3,0.45\n1,0\n")
    outs = []
    for _ in range(2):
        assert cli.main(["tradeoff", "--curve", str(path)]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert outs[0].startswith("alpha,f\n")
    back = T.curve_from_csv(outs[0])
    a = np.linspace(0, 1, 101)
    assert np.allclose(back(a), f(a), atol=1e-15)


def test_profile_csv_roundtrip():
    text = "epsilon,delta\n0,0.5\n1,0.10000000000000001\n2,0.01\n"
    back = T.profile_from_csv(text)
    assert np.array_equal(back.points, [[0.0, 0.5], [1.0, 0.1], [2.0, 0.01]])
    # no header, unsorted, delta rising: sorted and raised to a profile
    back = T.profile_from_csv(io.StringIO("2,0.02\n0,0.5\n1,0.01\n"))
    assert np.array_equal(back.points, [[0.0, 0.5], [1.0, 0.02], [2.0, 0.02]])


def test_malformed_csv_rejected():
    for read, text in (
            (T.curve_from_csv, "alpha,f\n0.1,not_a_number\n"),
            (T.curve_from_csv, ""),
            (T.curve_from_csv, "alpha,f\n0.1\n0.5\n"),  # one field a row
            (T.curve_from_csv, "0,1\n0.2\n1,0\n"),
            (T.curve_from_csv, "alpha,f\n0,1,3\n1,0\n"),  # a third field
            (T.profile_from_csv, "epsilon,delta\n1\n"),
            (T.curve_from_csv, "0,1\nnan,0.5\n1,0\n"),  # NaN alpha
            (T.curve_from_csv, "0,1\n0.5,nan\n1,0\n"),
            (T.profile_from_csv, "0,nan\n1,0.1\n"),
            (T.profile_from_csv, "nan,0.1\n"),
            (T.curve_from_csv, "0,1\n1.5,0\n"),  # alpha outside [0, 1]
            (T.curve_from_csv, "-0.1,1\n1,0\n")):
        with pytest.raises(T.ParameterError):
            read(text)


# -------------------------------------------------------------- piecewise

def test_lower_convex_hull_repairs_violations():
    a = np.array([0.0, 0.4, 0.5, 1.0])
    b = np.array([1.0, 0.2, 0.45, 0.0])  # middle point breaks convexity
    ha, hb = T.lower_convex_hull(a, b)
    slopes = np.diff(hb) / np.diff(ha)
    assert np.all(np.diff(slopes) >= -1e-12)


def _hull_loop(alphas, betas):
    """lower_convex_hull's loop alone, with no early return."""
    order = np.argsort(alphas, kind="stable")
    hull = []
    for x, y in zip(alphas[order], betas[order]):
        if hull and hull[-1][0] == x:
            if y < hull[-1][1]:
                hull.pop()
            else:
                continue
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (x - x1) >= (y - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append((x, y))
    pts = np.array(hull)
    return pts[:, 0], pts[:, 1]


@st.composite
def _hull_inputs(draw):
    """Shuffled points, up to 200: convex up to rounding, perturbed, with
    some x repeated at another y, or with one point below the rest, which
    pops a long run that passed; or exactly collinear, as the dual points
    (-e^eps, -1) and (-e^-eps, -e^-eps) of delta = 0 profile rows are; or
    convex with one x repeated last at a higher y, which is skipped just
    before the rest of the chain passes."""
    n = draw(st.integers(1, 200))
    xs = np.sort(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n,
                               unique=True)))
    slopes = np.sort(draw(st.lists(st.floats(-10.0, 10.0), min_size=n,
                                   max_size=n, unique=True)))
    ys = np.concatenate([[1.0], 1.0 + np.cumsum(slopes[1:] * np.diff(xs))])
    kind = draw(st.sampled_from(("convex", "perturbed", "repeated", "low",
                                 "collinear", "skipped")))
    if kind == "perturbed":
        ys = ys + np.array(draw(st.lists(st.floats(-1e-3, 1e-3), min_size=n,
                                         max_size=n)))
    if kind == "repeated":
        again = np.array(draw(st.lists(st.integers(0, n - 1), min_size=1,
                                       max_size=n)))
        shift = np.array(draw(st.lists(st.floats(-0.5, 0.5),
                                       min_size=again.size,
                                       max_size=again.size)))
        xs, ys = np.append(xs, xs[again]), np.append(ys, ys[again] + shift)
    if kind == "low":
        xs = np.append(xs, draw(st.floats(0.0, 1.0)))
        ys = np.append(ys, ys.min() - draw(st.floats(0.0, 10.0)))
    if kind == "collinear":
        eps = 30.0 * xs
        xs = np.concatenate([-np.exp(eps), -np.exp(-eps)])
        ys = np.concatenate([-np.ones(n), -np.exp(-eps)])
    perm = np.array(draw(st.permutations(range(xs.size))))
    xs, ys = xs[perm], ys[perm]
    if kind == "skipped":  # after the shuffle: sorted after its twin
        j = draw(st.integers(0, n - 1))
        up = draw(st.floats(0.0, 1.0, exclude_min=True))
        xs, ys = np.append(xs, xs[j]), np.append(ys, ys[j] + up)
    return xs, ys


def check_hull_bits(points, got):
    for g, w in zip(got, _hull_loop(*points)):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


@given(_hull_inputs())
@settings(max_examples=300, deadline=None)
def test_lower_convex_hull_bits_match_loop(points):
    check_hull_bits(points, T.lower_convex_hull(*points))


@given(_hull_inputs())
@settings(max_examples=100, deadline=None)
def test_lower_convex_hull_bits_match_loop_on_sorted_input(points):
    # sorted input is not sorted again: a stable sort would move nothing
    order = np.argsort(points[0], kind="stable")
    points = points[0][order], points[1][order]
    check_hull_bits(points, T.lower_convex_hull(*points))


def test_lower_convex_hull_bits_match_loop_on_real_curves(monkeypatch):
    # every hull of the goldens' composed-Laplace curves (b = 5, k <= 18),
    # of b = 2.2758, k = 59 and of 5,000-row Gaussian profiles
    calls = []
    hull = T.lower_convex_hull

    def spy(alphas, betas):
        got = hull(alphas, betas)
        calls.append(((alphas.copy(), betas.copy()), got))
        return got

    monkeypatch.setattr(T, "lower_convex_hull", spy)
    for b, k in [(5.0, k) for k in range(2, 19)] + [(2.2758, 59)]:
        A.curve_of(A.MechanismSpec("laplace", b, compositions=k))
    for mu in (0.5547, 1.2031, 2.2544):
        g = T.gaussian_curve(mu)
        eps = np.linspace(0.0, mu * mu / 2.0 + 8.0 * mu, 5000)
        T.curve_from_profile(T.PrivacyProfile.from_points(
            eps, [g.delta(e) for e in eps]))
    assert len(calls) == 2 * 21
    # the chain drops points in more than half of them (25 of 42)
    assert sum(got[0].size < points[0].size for points, got in calls) > 21
    for points, got in calls:
        check_hull_bits(points, got)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 5: the chain's test "
                   "underflows to 0 >= 0 below about 1e-154 and pops hull "
                   "vertices")
def test_lower_convex_hull_keeps_vertices_of_tiny_points():
    x = 1e-170 * np.arange(4.0)
    y = 1e-170 * np.array([0.0, -1.0, -1.5, -1.75])  # slopes -1, -1/2, -1/4
    hx, hy = T.lower_convex_hull(x, y)
    assert np.array_equal(hx, x) and np.array_equal(hy, y)


def test_piecewise_knot_validation():
    with pytest.raises(T.ParameterError):
        T.TradeoffCurve(provenance="bad",
                        knots=np.array([[0.0, 1.0]]))
    with pytest.raises(T.ParameterError):
        T.TradeoffCurve(provenance="bad",
                        knots=np.array([[0.5, 0.5], [0.5, 0.4]]))
