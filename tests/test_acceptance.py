"""Acceptance suite: one check per headline claim, each with its stated
tolerance and runtime budget. Every test prints a single pass/fail line."""

import json
import math
import time

import numpy as np
import scipy.optimize as so
from scipy.stats import norm

import oracles
from fdprisk import accountant as A
from fdprisk import calibrate as C
from fdprisk import cli
from fdprisk import prior_bounds as P
from fdprisk import risk as R
from fdprisk import tradeoff as T


def report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert ok, line


def test_criterion_1_bound_dominance():
    t0 = time.time()
    ok = True
    worst = ""
    for sigma in np.arange(0.4, 3.01, 0.2):
        mu = 1.0 / sigma
        for base in (0.1, 0.25, 0.5):
            cap = 1.0 - base  # saturated bounds cannot be strictly ordered
            a_fdp = R.adv_bound(T.gaussian_curve(mu), base)
            a_zcdp = max(0.0, P.zcdp_bound(mu * mu / 2).success(base) - base)
            rdp = C.method_bound(A.MechanismSpec("gaussian", sigma), "rdp",
                                 2.0)
            a_rdp = max(0.0, rdp.success(base) - base)
            if not (a_fdp <= a_zcdp + 1e-12 and a_zcdp <= a_rdp + 1e-12):
                ok = False
                worst = f"sigma={sigma:.1f} base={base}"
            if a_zcdp < cap and not a_fdp < a_zcdp:
                ok = False
                worst = f"not strict (fdp/zcdp) at sigma={sigma:.1f} base={base}"
            if a_rdp < cap and not a_zcdp < a_rdp:
                ok = False
                worst = f"not strict (zcdp/rdp) at sigma={sigma:.1f} base={base}"
    elapsed = time.time() - t0
    report(1, "bound dominance", ok and elapsed < 1.0,
           worst or f"{elapsed:.2f}s")


def test_criterion_2_spso_vs_pso():
    t0 = time.time()
    w = 1 / 5000
    delta = 1e-5
    ordering_ok = True
    for n in (500, 1000, 5000):
        base_pso = n * w * (1 - w) ** (n - 1)
        for eps in np.arange(0.5, 10.01, 0.5):
            mu = T.gaussian_mu_at(eps, delta)
            adv_spso = R.adv_bound(T.gaussian_curve(mu), w)
            succ_pso = P.pso_bound_eps_delta(n, w, eps, delta)
            adv_pso = max(0.0, succ_pso - base_pso)
            if succ_pso < 1.0 and not adv_spso < adv_pso:
                ordering_ok = False
    # SPSO saturation point (advantage reaching 0.95) near eps = 35;
    # the PSO bound hits its cap min(1, n e^eps w) far earlier
    sat = so.brentq(
        lambda e: R.adv_bound(T.gaussian_curve(T.gaussian_mu_at(e, delta)),
                              w) - 0.95, 5.0, 80.0, xtol=1e-4)
    pso_sat = math.log(1 / (500 * w))  # n=500: saturates once n e^eps w >= 1
    sat_ok = abs(sat - 35.0) <= 3.0 and pso_sat < 10.0
    elapsed = time.time() - t0
    report(2, "SPSO below PSO with late saturation",
           ordering_ok and sat_ok and elapsed < 1.0,
           f"spso saturation eps={sat:.2f}, runtime {elapsed:.2f}s")


def test_criterion_3_census_worst_case_anchor():
    # (10.6, 1e-10) is the (eps, delta) form of a rho-zCDP budget under
    # eps = rho + 2 sqrt(rho ln 1/delta) (Bun & Steinke, TCC 2016, Prop. 1.3),
    # so the released mechanism is the Gaussian with mu = sqrt(2 rho)
    t0 = time.time()
    eps, delta = 10.6, 1e-10
    log_inv_delta = math.log(1 / delta)
    rho = (math.sqrt(log_inv_delta + eps) - math.sqrt(log_inv_delta)) ** 2
    mu = math.sqrt(2 * rho)
    f = T.gaussian_curve(mu)
    eta = R.adv_bound_worst_case(f)
    closed = 2 * norm.cdf(mu / 2) - 1
    std = R.adv_bound_worst_case(T.curve_from_epsilon_delta(eps, delta))
    delta_at_eps = T.delta_for_epsilon(f, eps)
    # the least private Gaussian that the pair alone allows
    mu_profile = T.gaussian_mu_at(eps, delta)
    elapsed = time.time() - t0
    ok = (abs(eta - 0.52) <= 0.03 and abs(eta - closed) < 1e-9
          and std >= 0.99 and delta_at_eps <= delta and mu_profile >= mu
          and elapsed < 0.1)
    report(3, "Census worst-case anchor", ok,
           f"rho={rho:.6f}, mu={mu:.4f} (profile-inverted mu="
           f"{mu_profile:.4f}), eta={eta:.4f} (target 0.52 +/- 0.03), "
           f"delta(eps)={delta_at_eps:.2g}, standard={std:.5f}")


def test_criterion_4_noise_reduction_ratio():
    # for a single Gaussian both bounds depend on mu = 1/sigma alone, so the
    # ratio is mu_fdp(a) / mu_rdp(a), fixed by closed forms at the target a
    t0 = time.time()

    def sigma_star(method):
        req = C.CalibrationRequest(
            family="gaussian", target_kind="advantage", target_value=0.15,
            baseline=R.BaselineSpec.worst_case(), method=method,
            tolerance=1e-5)
        return C.calibrate_noise(req).noise_scale

    s_fdp = sigma_star("fdp")
    s_rdp = sigma_star("rdp")
    ratio = s_rdp / s_fdp
    elapsed = time.time() - t0
    ref = oracles.gaussian_mu_at_worst_case_adv_hp(0.15) / math.sqrt(
        2 * oracles.zcdp_rho_at_worst_case_adv_hp(0.15))
    # the RDP order grid may only loosen the rdp bound, never tighten it
    in_band = ref * (1 - 2e-5) <= ratio <= ref * (1 + 1e-3)
    # the abstract's "20% less noise at the same risk level", as a floor
    reduction = 1 - s_fdp / s_rdp
    ok = in_band and reduction >= 0.20 and elapsed < 1.0
    report(4, "noise-reduction ratio", ok,
           f"sigma(rdp)/sigma(fdp) = {ratio:.6f} (reference {ref:.6f}), "
           f"noise reduction {reduction:.3f} (floor 0.20), "
           f"runtime {elapsed:.2f}s")


def test_criterion_5_query_case_study(tmp_path):
    t0 = time.time()
    fdp_ok = True
    std_ok = True
    detail = []
    for delta_std in ("1e-12", "1e-9", "1e-6"):
        out = tmp_path / f"q{delta_std}.json"
        code = cli.main(["queries", "--b", "5", "--k-max", "18",
                         "--base", "0.1", "--target-adv", "0.2",
                         "--delta-std", delta_std, "--format", "json",
                         "--output", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        k_fdp = payload["max_feasible_k_fdp"]
        k_std = payload["max_feasible_k_standard"]
        detail.append(f"delta={delta_std}: fdp k={k_fdp}, std k={k_std}")
        if not 14 <= k_fdp <= 16:
            fdp_ok = False
        if not 4 <= k_std <= 6:
            std_ok = False
    elapsed = time.time() - t0
    report(5, "query case study 15 vs 5", fdp_ok and std_ok and elapsed < 30,
           "; ".join(detail) + f"; runtime {elapsed:.1f}s")


def test_criterion_6_oracle_soundness():
    t0 = time.time()
    ok, lines = cli.run_verification(seed=0, n_pairs=60)
    elapsed = time.time() - t0
    report(6, "oracle soundness suite", ok and elapsed < 10,
           f"{lines[-1]}, runtime {elapsed:.1f}s")


def test_criterion_7_identity_closure():
    ok = True
    notes = []
    # TV closed form vs independent grid maximization
    for eps, delta in ((0.0, 0.0), (1.0, 0.0), (0.5, 1e-3), (5.0, 1e-5)):
        f = T.curve_from_epsilon_delta(eps, delta)
        want = (math.exp(eps) - 1 + 2 * delta) / (math.exp(eps) + 1)
        ref, _ = oracles.grid_max(lambda a: 1 - f(a) - a)
        if abs(T.tv_from_curve(f) - want) > 1e-9 or \
                abs(T.tv_from_curve(f) - ref) > 1e-9:
            ok = False
            notes.append(f"tv({eps},{delta})")
    # Bayes identity 1 - 2 R_f(1/2) = eta
    for f in (T.gaussian_curve(1.0), T.laplace_curve(0.5),
              T.curve_from_epsilon_delta(1.0, 1e-3)):
        lhs = 1 - 2 * R.bayes_error(f, 0.5)
        if abs(lhs - T.tv_from_curve(f)) > 1e-6:
            ok = False
            notes.append("bayes identity")
    # profile round trip on a dense grid
    f = T.gaussian_curve(1.0)
    grid = np.linspace(0.0, 6.0, 1500)
    env = T.curve_from_profile(
        T.PrivacyProfile.from_points(grid, [f.delta(e) for e in grid]))
    a = np.linspace(0.01, 0.99, 2001)
    gap = f(a) - env(a)
    if np.any(gap < -1e-10) or np.max(gap) > 1e-6:
        ok = False
        notes.append("profile roundtrip")
    report(7, "identity and closure properties", ok, "; ".join(notes))


def test_criterion_8_training_numbers_out_of_scope():
    # model-training accuracy figures require GPU training and are not
    # reproducible here; the bound arithmetic they rely on is exercised by
    # criteria 1 and 4
    report(8, "training-dependent numbers documented as out of scope", True,
           "bound arithmetic covered by criteria 1 and 4")
