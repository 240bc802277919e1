#!/usr/bin/env python3
"""Dilation sweep for the product-rule harness.

For each order in the list, dilates all inputs by 2 and 4 on refined grids,
fits the common scaling exponent of the left side and of each right-hand
term, and prints CSV rows (a1,a2,b1,b2,N,seed,lhs,rhs,ratio) per scale.
"""

import argparse
import math
import sys

import numpy as np

from dyadlab.dyadic import Grid1D, GridFunction1D, GridFunction2D
from dyadlab.multiplier import ExponentTuple, leibniz_check


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--n", type=int, default=32)
    parser.add_argument("--orders", type=float, nargs="+", default=[0.0, 1.0])
    args = parser.parse_args(argv)
    if args.n < 4 or args.n & (args.n - 1):
        parser.error(f"--n must be a power of two >= 4, got {args.n}")
    res_exp = args.n.bit_length() - 1

    rng = np.random.Generator(np.random.PCG64(args.seed))
    g0 = Grid1D(0, res_exp)
    fs = [GridFunction1D(g0, rng.standard_normal(args.n)) for _ in range(4)]
    h = GridFunction2D(g0, g0, rng.standard_normal((args.n, args.n)))
    exponents = ExponentTuple(4.0, 4.0, 4.0, 4.0, 4.0)

    worst = 0.0
    for order in args.orders:
        expected = 4.0 * order
        values = []
        for lam in (1, 2, 4):
            g = Grid1D(0, (args.n * lam).bit_length() - 1)
            fs_l = [GridFunction1D(g, np.tile(f.samples, lam)) for f in fs]
            h_l = GridFunction2D(g, g, np.tile(h.samples, (lam, lam)))
            rep = leibniz_check((order, order), (order, order), exponents,
                                *fs_l, h_l, seed=args.seed)
            print(rep.csv_row())
            values.append((rep.lhs, rep.terms))
        for a, b in ((0, 1), (1, 2)):
            slopes = [math.log2(values[b][0] / values[a][0])]
            slopes += [math.log2(t1 / t0)
                       for t0, t1 in zip(values[a][1], values[b][1])]
            worst = max(worst, max(abs(s - expected) for s in slopes))
        print(f"# order {order}: expected exponent {expected}")
    print(f"# max slope error: {worst:.3e}")
    return 0 if worst <= 1e-8 else 1


if __name__ == "__main__":
    sys.exit(main())
