"""Sweep Gaussian noise scales and compare advantage bounds across
analysis methods (trade-off curve, zCDP, RDP at order 2, RDP over a dense
order grid) for several fixed baselines.

Writes one CSV row per (sigma, baseline, method).
"""

import argparse
import csv
import sys

import numpy as np

from fdprisk import calibrate as C
from fdprisk.accountant import MechanismSpec
from fdprisk.risk import BaselineSpec

# CSV label -> (method, RDP order) of calibrate.method_bound
METHODS = {"fdp": ("fdp", None), "zcdp": ("zcdp", None),
           "rdp-t2": ("rdp", 2.0), "rdp": ("rdp", None)}


def advantage(label, sigma, base):
    bound = C.method_bound(MechanismSpec("gaussian", sigma), *METHODS[label])
    return C.bound_at(bound, BaselineSpec.fixed(base))[2]


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

    out = sys.stdout if args.output == "-" else open(args.output, "w")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["sigma", "base", "method", "advantage_bound"])
    for sigma in sigmas:
        for base in bases:
            for method in METHODS:
                writer.writerow([f"{sigma:.6g}", f"{base:g}", method,
                                 f"{advantage(method, sigma, base):.10g}"])
    if out is not sys.stdout:
        out.close()
        print(f"wrote {args.points * len(bases) * len(METHODS)} rows "
              f"to {args.output}", file=sys.stderr)


if __name__ == "__main__":
    main()
