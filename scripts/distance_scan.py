#!/usr/bin/env python3
"""Scan the k-particle trace distance between the two fixed half/half
ensembles (polarized along x vs along z) as the ensemble size grows.

Their one-particle states coincide, so the k = 1 column is zero; the pair
column follows 1/(2(n-1)) and vanishes only in the large-n limit.  Both
ensembles have two components, so every distance comes from the
exchangeable blocks and k = 12 takes milliseconds.
"""

import argparse

from spinmix import X_AXIS, Z_AXIS, balanced_fixed, pairwise_trace_distances


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default="2,4,6,10,20,100",
                        help="comma-separated even ensemble sizes")
    parser.add_argument("--kmax", type=int, default=12, help="largest k to report")
    args = parser.parse_args()

    sizes = [int(s) for s in args.sizes.split(",")]
    kmax = args.kmax
    header = ["n", "1/(2(n-1))"] + [f"k={k}" for k in range(1, kmax + 1)]
    print("  ".join(f"{h:>12}" for h in header))
    for n in sizes:
        a = balanced_fixed(n, X_AXIS)
        b = balanced_fixed(n, Z_AXIS)
        distances = dict(pairwise_trace_distances(a, b, min(kmax, n)))
        row = [f"{n:>12}", f"{1.0 / (2.0 * (n - 1)):>12.6f}"]
        for k in range(1, kmax + 1):
            row.append(f"{distances[k]:>12.6f}" if k in distances else " " * 12)
        print("  ".join(row))


if __name__ == "__main__":
    main()
