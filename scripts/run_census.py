"""Worst-case disclosure risk for a Census-style release.

Starting from the published state-level guarantee (eps = 10.6,
delta = 1e-10), derive the Gaussian-mechanism parameter mu whose privacy
profile matches that point, then report the worst-case advantage bound
(total-variation) under three analyses:

  - the standard (eps, delta) trade-off envelope,
  - the exact Gaussian trade-off curve at the derived mu,
  - the Gaussian curve implied by treating the release as rho-zCDP: the
    pair is read as the (eps, delta) form of rho under
    eps = rho + 2 sqrt(rho log 1/delta) (Bun & Steinke, TCC 2016,
    Prop. 1.3), and the Gaussian has mu = sqrt(2 rho). For the published
    pair rho = 1.0005.

Also reports advantage at a small fixed baseline for context.
"""

import argparse
import json
import math
import sys

from scipy.stats import norm

from fdprisk import risk as R
from fdprisk import tradeoff as T


def zcdp_rho_at(eps, delta):
    """rho whose zCDP-to-(eps, delta) conversion gives eps at delta."""
    log_inv_delta = math.log(1.0 / delta)
    return (math.sqrt(log_inv_delta + eps) - math.sqrt(log_inv_delta)) ** 2


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--epsilon", type=float, default=10.6)
    ap.add_argument("--delta", type=float, default=1e-10)
    ap.add_argument("--base", type=float, default=1e-4)
    ap.add_argument("--format", choices=("text", "json"), default="text")
    args = ap.parse_args(argv)

    mu = T.gaussian_mu_at(args.epsilon, args.delta)
    f_gauss = T.gaussian_curve(mu)
    f_std = T.curve_from_epsilon_delta(args.epsilon, args.delta)
    rho = zcdp_rho_at(args.epsilon, args.delta)
    mu_zcdp = math.sqrt(2.0 * rho)
    f_zcdp = T.gaussian_curve(mu_zcdp)

    result = {
        "epsilon": args.epsilon,
        "delta": args.delta,
        "mu": mu,
        "worst_case_adv_standard": R.adv_bound_worst_case(f_std),
        "worst_case_adv_gaussian": R.adv_bound_worst_case(f_gauss),
        "worst_case_adv_closed_form": 2 * norm.cdf(mu / 2) - 1,
        "fixed_base": args.base,
        "adv_at_fixed_base_gaussian": R.adv_bound(f_gauss, args.base),
        "adv_at_fixed_base_standard": R.adv_bound(f_std, args.base),
        "rho": rho,
        "mu_zcdp": mu_zcdp,
        "worst_case_adv_zcdp": R.adv_bound_worst_case(f_zcdp),
        "adv_at_fixed_base_zcdp": R.adv_bound(f_zcdp, args.base),
    }

    if args.format == "json":
        json.dump(result, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        print(f"anchor: eps={args.epsilon}, delta={args.delta}")
        print(f"derived Gaussian mu: {mu:.4f}")
        print(f"worst-case advantage, standard (eps,delta) curve: "
              f"{result['worst_case_adv_standard']:.5f}")
        print(f"worst-case advantage, Gaussian curve:             "
              f"{result['worst_case_adv_gaussian']:.5f}")
        print(f"advantage at base {args.base:g}: Gaussian "
              f"{result['adv_at_fixed_base_gaussian']:.5f}, standard "
              f"{result['adv_at_fixed_base_standard']:.5f}")
        print(f"zCDP reading: rho={rho:.6f}, mu={mu_zcdp:.4f}")
        print(f"worst-case advantage, zCDP Gaussian curve:        "
              f"{result['worst_case_adv_zcdp']:.5f}")
        print(f"advantage at base {args.base:g}: zCDP Gaussian "
              f"{result['adv_at_fixed_base_zcdp']:.5f}")


if __name__ == "__main__":
    main()
