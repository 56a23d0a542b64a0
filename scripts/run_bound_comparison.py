"""Sweep Gaussian noise scales and compare advantage bounds across
analysis methods (trade-off curve, zCDP, RDP at order 2, RDP over a dense
order grid) for several fixed baselines.

Writes one CSV row per (sigma, baseline, method).
"""

import argparse
import csv
import sys

import numpy as np

from fdprisk import prior_bounds as P
from fdprisk import risk as R
from fdprisk import tradeoff as T


def advantage(method, mu, base):
    if method == "fdp":
        return R.adv_bound(T.gaussian_curve(mu), base)
    if method == "zcdp":
        return max(0.0, P.srr_bound_zcdp(base, mu * mu / 2) - base)
    if method == "rdp-t2":
        succ = P.srr_bound_rdp_curve(base, [P.gaussian_rdp_epsilon(2.0, mu)],
                                     [2.0])
        return max(0.0, succ - base)
    if method == "rdp":
        grid = P.default_t_grid()
        succ = P.srr_bound_rdp_curve(base, P.gaussian_rdp_epsilon(grid, mu),
                                     grid)
        return max(0.0, float(succ) - base)
    raise ValueError(method)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sigma-min", type=float, default=0.3)
    ap.add_argument("--sigma-max", type=float, default=5.0)
    ap.add_argument("--points", type=int, default=60)
    ap.add_argument("--bases", type=str, default="0.001,0.1,0.5")
    ap.add_argument("--output", type=str, default="-")
    args = ap.parse_args(argv)

    bases = [float(b) for b in args.bases.split(",")]
    sigmas = np.geomspace(args.sigma_min, args.sigma_max, args.points)
    methods = ("fdp", "zcdp", "rdp-t2", "rdp")

    out = sys.stdout if args.output == "-" else open(args.output, "w")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["sigma", "base", "method", "advantage_bound"])
    for sigma in sigmas:
        mu = 1.0 / sigma
        for base in bases:
            for method in methods:
                writer.writerow([f"{sigma:.6g}", f"{base:g}", method,
                                 f"{advantage(method, mu, base):.10g}"])
    if out is not sys.stdout:
        out.close()
        print(f"wrote {args.points * len(bases) * len(methods)} rows "
              f"to {args.output}", file=sys.stderr)


if __name__ == "__main__":
    main()
