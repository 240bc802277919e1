"""Record the reference output summaries of one workload for a range of seeds.

    python3 perfbench/record.py --workload weaktype --seeds 0-39

Runs one checked round per seed and writes perfbench/reference/<workload>.json.
Record again only when a workload's parameters change; run.py refuses a
reference whose parameter hash differs from the workload's.
"""

from __future__ import annotations

import argparse
import sys
from types import SimpleNamespace

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=run.WORKLOAD_NAMES)
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-39")
    args = parser.parse_args(argv)
    lo, hi = (int(x) for x in args.seeds.split("-"))

    L = SimpleNamespace(**run.load_modules())
    import bench_checks
    from bench_workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    seeds = {}
    for seed in range(lo, hi + 1):
        runner = run.Runner(workload.setup(L, seed), None, bench_checks)
        wall, _ = runner.round()
        problems = runner.messages + runner.gate_selftest()
        print(f"seed {seed}: wall_s={wall:.3f} problems={len(problems)}", flush=True)
        if problems:
            print("\n".join(problems), file=sys.stderr)
            return 1
        seeds[str(seed)] = [bench_checks.reference_fields(s, op.fields)
                            for op, s in zip(runner.ops, runner.first)]

    path = bench_checks.write_reference(workload.name, {
        "workload": workload.name,
        "params_sha256": bench_checks.params_digest(workload.params),
        "seed_range": f"{lo}-{hi}", "recorded_with": run.build_info()}, seeds)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
