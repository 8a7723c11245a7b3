#!/usr/bin/env python3
"""Measure how fast bag outputs stabilize as bags grow.

Prints the median absolute deviation from a large-sample reference for
each bag size, plus the decay rate between consecutive sizes.  Under
root-l averaging noise the deviation should shrink by about 2x per 4x
size step.
"""

import argparse
import math

import numpy as np

from hmil.model import ModelConfig, build_model
from hmil.verification import PLAIN_BAG, concentration_experiment


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=[4, 16, 64, 256, 1024])
    parser.add_argument("--repeats", type=int, default=200)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    model = build_model(PLAIN_BAG, ModelConfig(
        output_dim=1, seed=int(rng.integers(2**31))))
    table = concentration_experiment(
        model, lambda r, n: [float(v) for v in r.normal(size=n)],
        bag_sizes=args.sizes, repeats=args.repeats, rng=rng)

    print(f"seed {args.seed}, {args.repeats} repeats per size\n")
    print(f"{'bag size':>8} {'median |f - f_ref|':>20} {'step ratio':>12}")
    previous = None
    for size in sorted(table):
        ratio = "" if previous is None else f"{table[size] / previous:>12.3f}"
        print(f"{size:>8} {table[size]:>20.6f} {ratio}")
        previous = table[size]
    sizes = sorted(table)
    slope = (math.log(table[sizes[-1]] / table[sizes[0]])
             / math.log(sizes[-1] / sizes[0]))
    print(f"\nfitted decay exponent: {slope:.2f} (root-l predicts -0.50)")


if __name__ == "__main__":
    main()
