#!/usr/bin/env python3
"""Weak-type constant stability under grid and collection doubling.

Runs the restricted weak-type sweep over a ladder of resolutions and two
collection depths, printing the per-cell max ratio and the worst doubling
growth factor. A CSV with the per-trial rows lands next to the report path.
Exits 0 when stable, 1 when VIOLATED and 2 on a configuration error.

Example:
    python scripts/weak_type_stability.py --seed 10 --trials 5 \
        --res-exps 8 9 10 --depths 5 6 --out stability.csv
"""

import argparse
import sys

from dyadlab.errors import ConfigError
from dyadlab.harness import ExperimentConfig, run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=10)
    parser.add_argument("--trials", type=int, default=5)
    parser.add_argument("--box-exp", type=int, default=1)
    parser.add_argument("--res-exps", type=int, nargs="+", default=[8, 9, 10])
    parser.add_argument("--depths", type=int, nargs="+", default=[5, 6])
    parser.add_argument("--model", type=str, default="flag0_flag0")
    parser.add_argument("--out", type=str, default=None)
    args = parser.parse_args(argv)

    config = ExperimentConfig(
        kind="weak_type_sweep", box_exp=args.box_exp,
        res_exp=max(args.res_exps), depth=max(args.depths),
        trials=args.trials, seed=args.seed, model=args.model,
        sweep_res_exps=tuple(args.res_exps), sweep_depths=tuple(args.depths),
        out=args.out,
        p1=4.0 / 3.0, q1=4.0, p2=4.0, q2=4.0 / 3.0, s=1.5)
    try:
        report = run(config)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    for section in (report.aggregates, report.timings):
        for key, value in sorted(section.items()):
            print(f"{key}: {value}")
    growth = report.aggregates.get("max_doubling_growth", 1.0)
    ok = growth <= 1.10 and report.aggregates["e_prime_pass_rate"] >= 0.99
    print("stability:", "OK" if ok else "VIOLATED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
