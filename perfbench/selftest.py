"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py [workload ...]

1. Each workload runs twice with the same seed: both runs must be correct and
   print identical `counts` lines (the exact workload properties).
2. A checkout that holds only BENCHMARK.json and perfbench/ must be refused:
   exit code other than 0 and no result line.

Exits 1 if any test fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run

SEED = 3


def bench(cwd, workload: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def line(stdout: str, prefix: str) -> str:
    return next((x for x in stdout.splitlines() if x.startswith(prefix)), "")


def main(argv=None) -> int:
    workloads = (argv if argv is not None else sys.argv[1:]) or list(run.WORKLOAD_NAMES)
    failures = []
    for workload in workloads:
        before = len(failures)
        first, second = bench(run.ROOT, workload), bench(run.ROOT, workload)
        for proc in (first, second):
            ok = proc.returncode == 0 and proc.stdout.strip()
            result = json.loads(proc.stdout.splitlines()[-1]) if ok else {}
            if not result.get("correct"):
                failures.append(f"{workload}: run not correct (exit {proc.returncode}): "
                                f"{proc.stderr[-300:]}")
        a, b = line(first.stdout, "counts "), line(second.stdout, "counts ")
        if not a or a != b:
            failures.append(f"{workload}: counts differ between runs:\n  {a}\n  {b}")
        print(f"{workload}: {'ok' if len(failures) == before else 'FAILED'} {a}",
              flush=True)

    bare = run.OUT_DIR / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = bench(bare, workloads[0])
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append(f"bare checkout not refused: exit {proc.returncode}, "
                        f"stdout {proc.stdout[-200:]!r}")
    print(f"bare checkout: exit {proc.returncode}, {proc.stderr.strip()}")
    shutil.rmtree(bare)

    for f in failures:
        print("FAIL " + f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
