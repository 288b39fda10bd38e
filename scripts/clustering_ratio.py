"""Compare heralded against unheralded two-fold coincidence peaks.

For each probe brightness this prints the largest heralded and
unheralded two-fold pattern probabilities and their ratio.  Heralding
concentrates the coincidences near the single-photon walk output, so
the ratio sits above 1 and falls as the coherent probe starts to
dominate the pair source.

    python scripts/clustering_ratio.py --steps 11 --mu-alpha 0.1 0.24 0.95
"""

import argparse
import sys
from dataclasses import replace

from qwalk.experiments import ExperimentSpec, fit_overlap, run_experiment
from qwalk.walk import WalkConfig


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=11)
    parser.add_argument(
        "--mu-alpha", type=float, nargs="+", default=[0.1, 0.24, 0.95]
    )
    parser.add_argument("--mu-xi", type=float, default=0.026)
    parser.add_argument(
        "--overlap",
        type=float,
        help="mode overlap; fitted to 0.70 HOM visibility when omitted",
    )
    parser.add_argument("--eta-kerr", type=float, default=0.97)
    args = parser.parse_args(argv)

    overlap = args.overlap
    if overlap is None:
        hom = ExperimentSpec(
            walk=WalkConfig.uniform(1),
            kind="hom",
            mu_alpha=args.mu_alpha[0],
            mu_xi=args.mu_xi,
        )
        overlap, _ = fit_overlap(hom)
        print(f"using fitted overlap {overlap:.6f}")

    base = ExperimentSpec(
        walk=WalkConfig.uniform(args.steps),
        kind="two-fold",
        mu_xi=args.mu_xi,
        overlap=overlap,
        eta_kerr=args.eta_kerr,
    )
    print(f"{'mu_alpha':>9s} {'heralded':>12s} {'unheralded':>12s} {'ratio':>8s}")
    for mu_alpha in args.mu_alpha:
        heralded = run_experiment(
            replace(base, mu_alpha=mu_alpha, heralded=True)
        )
        unheralded = run_experiment(
            replace(base, mu_alpha=mu_alpha, heralded=False)
        )
        top, bottom = max(heralded.raw), max(unheralded.raw)
        print(
            f"{mu_alpha:9.3f} {top:12.6f} {bottom:12.6f} {top / bottom:8.3f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
