#!/usr/bin/env python3
"""Contrast the +1-count statistics of the three preset ensembles.

The fixed z composition measured along z is a zero-variance spike, while
both the fixed x composition and the i.i.d. mixture reproduce the binomial
count law — the pmf of the mixture and of the x composition agree exactly
along z, so no count experiment along that axis separates them.  Optionally
validates each exact pmf and the pairwise discrimination rates by Monte
Carlo with a fixed seed.  The pairwise figures come from `build_report`,
as those of `spinmix distinguish` do.
"""

import argparse

from spinmix import (
    X_AXIS,
    Z_AXIS,
    build_report,
    exact_count_pmf,
    monte_carlo_count_pmf,
    pmf_moments,
    preset_ensemble,
    total_variation,
)

AXES = (("x", X_AXIS), ("z", Z_AXIS))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=10, help="ensemble size (even)")
    parser.add_argument("--trials", type=int, default=0,
                        help="Monte Carlo trials per figure (0 = exact only)")
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    args = parser.parse_args()

    specs = {name: preset_ensemble(name, args.n) for name in ("A", "B", "S")}

    print(f"exact count moments at n={args.n}")
    print(f"{'ensemble':>9} {'axis':>5} {'mean':>8} {'variance':>9}")
    for name, spec in specs.items():
        for label, axis in AXES:
            mean, variance = pmf_moments(exact_count_pmf(spec, axis))
            print(f"{name:>9} {label:>5} {mean:>8.3f} {variance:>9.3f}")

    print()
    print("pairwise count discrimination (equal priors)")
    print(f"{'pair':>9} {'axis':>5} {'TV':>9} {'bayes':>9}"
          + ("   monte carlo" if args.trials else ""))
    for left, right in (("A", "B"), ("A", "S"), ("B", "S")):
        report = build_report(specs[left], specs[right], k_max=1, axes=[X_AXIS, Z_AXIS],
                              trials=args.trials, master_seed=args.seed)
        for label, figures in report["axes"].items():
            line = (f"{left + '/' + right:>9} {label:>5} {figures['tv_distance']:>9.4f}"
                    f" {figures['bayes_success']:>9.4f}")
            if args.trials:
                mc = figures["monte_carlo"]
                line += f"   {mc['success']:.4f} +/- {mc['stderr']:.4f}"
            print(line)

    if args.trials:
        print()
        print(f"empirical-vs-exact pmf total variation ({args.trials} trials)")
        for name, spec in specs.items():
            for label, axis in AXES:
                empirical = monte_carlo_count_pmf(spec, axis, args.trials, args.seed)
                tv = total_variation(empirical, exact_count_pmf(spec, axis))
                print(f"{name:>9} {label:>5} {tv:>9.5f}")


if __name__ == "__main__":
    main()
