#!/usr/bin/env python3
"""Show the quadratic cost of the kernel baseline against the linear
cost of the network embedding.

Both compare two samples of n points; the MMD estimator touches all
n^2 kernel entries while the bag model embeds each point once.
"""

import argparse
import time

import numpy as np

from hmil.batching import build_batch
from hmil.model import ModelConfig, build_model, forward
from hmil.verification import PLAIN_BAG, mmd_baseline


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=[250, 500, 1000, 2000, 4000])
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    model = build_model(PLAIN_BAG, ModelConfig(output_dim=1, seed=args.seed))

    print(f"{'n':>6} {'mmd^2':>10} {'mmd seconds':>12} {'model seconds':>14}")
    for n in args.sizes:
        x = rng.normal(0.0, 1.0, (n, 1))
        y = rng.normal(0.5, 1.0, (n, 1))
        started = time.perf_counter()
        value = mmd_baseline(x, y, kernel_bandwidth=1.0)
        mmd_seconds = time.perf_counter() - started

        docs = [[float(v) for v in x[:, 0]], [float(v) for v in y[:, 0]]]
        started = time.perf_counter()
        forward(model, build_batch(docs, PLAIN_BAG))
        model_seconds = time.perf_counter() - started

        print(f"{n:>6} {value:>10.4f} {mmd_seconds:>12.4f} "
              f"{model_seconds:>14.4f}")
    print("\nmmd time should grow ~4x per doubling, model time ~2x")


if __name__ == "__main__":
    main()
