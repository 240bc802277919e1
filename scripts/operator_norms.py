#!/usr/bin/env python3
"""Empirical operator norms of the maximal/square/hybrid operators.

Prints max ||Op f||_p / ||f||_p over random trials for each operator and a
few exponents; a quick look at how far the desk-scale operators sit from
their boundedness constants.
"""

import argparse
import sys

import numpy as np

from dyadlab.errors import ConfigError
from dyadlab.operators import HybridKind, estimate_operator_norm


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=int, default=20)
    parser.add_argument("--res-exp", type=int, default=5)
    args = parser.parse_args(argv)

    cases = [
        (HybridKind.M, (1.5, 2.0, 4.0, np.inf)),
        (HybridKind.S, (1.5, 2.0, 4.0)),
        (HybridKind.SS_H, (1.5, 2.0, 4.0)),
        (HybridKind.MS_H, (2.0,)),
        (HybridKind.SM_H, (2.0,)),
        (HybridKind.MM, (2.0, np.inf)),
    ]
    print("operator,p,max_ratio")
    try:
        for kind, ps in cases:
            for p in ps:
                ratio = estimate_operator_norm(kind, p, args.trials, args.seed,
                                               res_exp=args.res_exp)
                print(f"{kind.value},{p},{ratio:.6f}")
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
