"""Command-line entry points for the experiment harness.

Subcommands: invariants, weaktype, leibniz, sparsity, oracle.  Each accepts
--config <path> (key = value sections), --seed, --out, --grid-exp (resolution
exponent m) and --box-exp (box exponent J); flags override the file.  Exit
codes: 0 pass, 1 invariant failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError
from .harness import ExperimentConfig, run

_KIND_FOR_COMMAND = {
    "invariants": "invariants",
    "weaktype": "weak_type_sweep",
    "leibniz": "leibniz_sweep",
    "sparsity": "sparsity_suite",
    "oracle": "oracle_equivalence",
}


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", type=str, default=None,
                     help="structured-text config file (key = value sections)")
    sub.add_argument("--seed", type=int, default=None, help="master RNG seed")
    sub.add_argument("--out", type=str, default=None, help="report output path")
    sub.add_argument("--grid-exp", type=int, default=None,
                     help="resolution exponent m (2^m points per unit)")
    sub.add_argument("--box-exp", type=int, default=None,
                     help="box exponent J (domain [0, 2^J))")
    sub.add_argument("--trials", type=int, default=None)
    sub.add_argument("--depth", type=int, default=None,
                     help="finest dyadic scale 2^-depth of the collections")
    sub.add_argument("--model", type=str, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dyadlab",
        description="dyadic time-frequency analysis experiment harness")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in _KIND_FOR_COMMAND:
        _add_common(subs.add_parser(name))
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    if args.config:
        config = ExperimentConfig.from_file(args.config)
    else:
        config = ExperimentConfig()
    config.kind = _KIND_FOR_COMMAND[args.command]
    if args.seed is not None:
        config.seed = args.seed
    if args.out is not None:
        config.out = args.out
    if args.grid_exp is not None:
        config.res_exp = args.grid_exp
    if args.box_exp is not None:
        config.box_exp = args.box_exp
    if args.trials is not None:
        config.trials = args.trials
    if args.depth is not None:
        config.depth = args.depth
    if args.model is not None:
        config.model = args.model
    return config


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
        report = run(config)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(report.header_lines()) + "\n")
    for record in report.records:
        if "name" in record:
            status = "PASS" if record.get("passed", True) else "FAIL"
            print(f"[{status}] {record['name']}: {record.get('detail', '')}")
    for section in (report.aggregates, report.timings):
        for key, value in sorted(section.items()):
            print(f"{key}: {value}")
    return 1 if report.failed else 0


if __name__ == "__main__":
    sys.exit(main())
