"""Compare one-out re-identification bounds as epsilon grows: the classic
union-bound PSO guarantee min(1, n(e^eps w + delta)) against the sharper
per-record bound 1 - f(w) derived from the Gaussian trade-off curve at
matched (eps, delta).

Covers dataset sizes n in {500, 1000, 5000} with a fixed sampling weight
w = 1/5000, reported as advantage over the no-mechanism baseline.
"""

import argparse
import csv
import sys

import numpy as np

from fdprisk import prior_bounds as P
from fdprisk import risk as R
from fdprisk import tradeoff as T


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--eps-min", type=float, default=0.25)
    ap.add_argument("--eps-max", type=float, default=40.0)
    ap.add_argument("--points", type=int, default=80)
    ap.add_argument("--delta", type=float, default=1e-5)
    ap.add_argument("--weight", type=float, default=1 / 5000)
    ap.add_argument("--sizes", type=str, default="500,1000,5000")
    ap.add_argument("--output", type=str, default="-")
    args = ap.parse_args(argv)

    sizes = [int(n) for n in args.sizes.split(",")]
    w = args.weight
    eps_grid = np.linspace(args.eps_min, args.eps_max, args.points)

    out = sys.stdout if args.output == "-" else open(args.output, "w")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["n", "epsilon", "adv_pso", "adv_spso"])
    for eps in eps_grid:
        f = T.gaussian_curve(T.gaussian_mu_at(eps, args.delta))
        adv_spso = R.adv_bound(f, w)
        for n in sizes:
            base = R.baseline_value(R.BaselineSpec.pso_weight(n, w))
            adv_pso = max(0.0, P.pso_bound_eps_delta(n, w, eps, args.delta)
                          - base)
            writer.writerow([n, f"{eps:.6g}", f"{adv_pso:.10g}",
                             f"{adv_spso:.10g}"])
    if out is not sys.stdout:
        out.close()
        print(f"wrote {args.points * len(sizes)} rows to {args.output}",
              file=sys.stderr)


if __name__ == "__main__":
    main()
