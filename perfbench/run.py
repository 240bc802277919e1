"""dyadlab benchmark: one workload per process, verified outputs, one JSON line.

    python3 perfbench/run.py --workload weaktype --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from src/.
Set-up (import, collections, specs, inputs, warm-up) is followed by rounds:
a round runs the workload's fixed op list once, on the same inputs each time,
and rounds repeat until --seconds of timed work have passed.  Every op's
output is checked outside the timed section.

--trace 0 prints the end-to-end metrics.  --trace 1 runs one untraced round,
then installs the span tracer and runs traced rounds, and prints the per-layer
metrics; the untraced round counts towards --seconds.  The last line of
standard output is the result JSON; perfbench/README.md lists every metric.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("weaktype", "stopping-1d", "fivelinear")
MODULES = ("dyadic", "wavelets", "operators", "size_energy", "stopping", "models",
           "multiplier", "harness", "errors", "invariants", "cli")
SETUP_REPEATS = 5
MAX_ROUNDS = 100
THREADS = 1  # BLAS / OpenMP threads of the workload process, at most nproc
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mib": "MiB",
              "verified_frac": "ratio"}
TIMED_LAYERS = (
    "dyadic.cell_range", "wavelets.haar_pyramid_2d", "wavelets.haar_coefficient_2d",
    "operators.maximal_function_2d", "operators.hybrid_2d",
    "operators.maximal_function", "models.bilinear_block")
SELF_ONLY = (
    "wavelets.all_coefficients", "wavelets.all_coefficients_2d",
    "size_energy.energy", "size_energy.stopping_time_maximal",
    "size_energy.check_stopping_time_properties", "stopping.build_exceptional_set",
    "stopping.level_decomposition_1d", "stopping.sparsity_check_1d",
    "stopping.sparsity_check_2d", "stopping.union_measure",
    "models.multilinear_form", "models.model_operator",
    "multiplier.apply_multiplier", "multiplier.special_symbol_cascade",
    "multiplier.leibniz_check", "harness.weak_type_trial")
CALLS_ONLY = ("wavelets.smooth_bump", "size_energy.weak_l1_norm",
              "multiplier.fractional_derivative")
COUNTS = ("models.rectangle_terms", "stopping.omega_cells", "stopping.enlarged_cells",
          "stopping.e_prime_cells")


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in TIMED_LAYERS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({f"{n}.self_s": "s" for n in SELF_ONLY})
    units.update({f"{n}.calls": "count" for n in CALLS_ONLY})
    units.update({n: "count" for n in COUNTS})
    units.update({"stopping.omega_empty_frac": "ratio", "harness.import_s": "s",
                  "process.cpu_s": "s", "trace.overhead_frac": "ratio"})
    return units


def pin_threads() -> None:
    threads = min(THREADS, len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = str(threads)


def load_modules() -> dict:
    """Pin the thread count, then import every dyadlab module from src/."""
    pin_threads()
    sys.path.insert(0, str(SRC))
    return {name: importlib.import_module(f"dyadlab.{name}") for name in MODULES}


def build_info() -> dict:
    import numpy as np
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"git_revision": git_revision(), "source_sha256": source_digest(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "threads": {var: os.environ[var] for var in THREAD_VARS}}


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        if target.is_file():
            return target.read_text().strip()
        packed = ROOT / ".git" / "packed-refs"
        if packed.is_file():
            for line in packed.read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
        return "unresolved " + ref[5:]
    return ref


def source_digest() -> str:
    import hashlib
    h = hashlib.sha256()
    for path in sorted((SRC / "dyadlab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


class Runner:
    """Runs rounds of the op list and checks every output outside the timing."""

    def __init__(self, ops, reference, checks):
        self.ops = ops
        self.reference = reference
        self.checks = checks
        self.first: list[dict | None] = [None] * len(ops)
        self.base_problems: list[list[str]] = [[] for _ in ops]
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.gate_samples: list[tuple] = []

    def round(self, tracer=None, op_base=0) -> tuple[float, float]:
        """One pass over the ops; returns (wall, cpu) of the timed calls."""
        wall = cpu = 0.0
        for i, op in enumerate(self.ops):
            args = op.args()
            gc.collect()
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                if tracer is None:
                    out = op.fn(*args)
                else:
                    with tracer.op(op_base + i, "op." + op.kind):
                        out = op.fn(*args)
                error = None
            except Exception as exc:  # an op that raises counts as failed
                out, error = None, f"{type(exc).__name__}: {exc}"
            wall += time.perf_counter() - t0
            cpu += time.process_time() - c0
            del args
            self.attempted += 1
            problems = [error] if error else self._check(i, op, out)
            del out
            if problems:
                self.failed += 1
                self.messages.append(f"FAILED {op.name}: " + "; ".join(problems[:3]))
        return wall, cpu

    def _check(self, i, op, out) -> list[str]:
        summary = op.summarize(out)
        if self.first[i] is not None:
            return self.base_problems[i] + self.checks.compare(
                summary, self.first[i], op.fields, within_run=True)
        problems = op.verify(out)
        if self.reference is not None:
            problems += self.checks.compare(summary, self.reference[i], op.fields,
                                            within_run=False)
        tried = {o.kind for o, _ in self.gate_samples}
        if op.corrupt is not None and op.kind not in tried:
            self.gate_samples.append((op, bool(op.verify(op.corrupt(out)))))
        self.first[i], self.base_problems[i] = summary, problems
        return problems

    def gate_selftest(self) -> list[str]:
        """Damaged outputs and perturbed summaries must each be rejected."""
        bad = [f"{op.name}: verify accepted a damaged output"
               for op, caught in self.gate_samples if not caught]
        if not self.gate_samples and any(op.corrupt for op in self.ops):
            bad.append("no damaged output was tried")
        seen = set()
        for op, summary in zip(self.ops, self.first):
            if summary is None or op.kind in seen:
                continue
            seen.add(op.kind)
            ref = self.checks.reference_fields(summary, op.fields)
            for key, rule in op.fields.items():
                if rule == "digest":
                    continue
                if not self.checks.compare(perturb(summary, key, rule), ref, op.fields,
                                           within_run=False):
                    bad.append(f"{op.name}: a perturbed {key} passed the check")
        return bad


def perturb(summary: dict, key: str, rule) -> dict:
    """Change one field by just more than its rule allows."""
    v = summary[key]
    if isinstance(rule, tuple):
        _, tol, scale_key = rule
        scale = abs(summary[scale_key] if scale_key else v)
        v = v + 2.0 * tol * scale + (1e-300 if scale == 0 else 0.0)
    elif isinstance(v, bool):
        v = not v
    elif isinstance(v, int):
        v = v + 1
    elif isinstance(v, float):
        v = v * (1.0 + 1e-12) + 1e-300
    elif isinstance(v, str):
        v = v + "0"
    elif isinstance(v, dict):
        v = {**v, "perturbed": 1}
    else:
        raise TypeError(f"cannot perturb {key}={v!r}")
    return {**summary, key: v}


def run_rounds(runner, seconds, tracer=None, op_base=0):
    walls, cpus = [], []
    while not walls or (sum(walls) < seconds and len(walls) < MAX_ROUNDS):
        wall, cpu = runner.round(tracer, op_base + len(walls) * len(runner.ops))
        walls.append(wall)
        cpus.append(cpu)
        print(f"round {len(walls)}{' traced' if tracer else ''}: "
              f"wall_s={wall:.4f} cpu_s={cpu:.4f}", flush=True)
    return walls, cpus


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "dyadlab" / "__init__.py").is_file():
        print(f"error: no dyadlab sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    modules = load_modules()
    import_s = time.perf_counter() - T_START

    import bench_checks
    import bench_trace
    from bench_workloads import WORKLOADS

    L = SimpleNamespace(**modules)
    workload = WORKLOADS[args.workload]
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ops = workload.setup(L, args.seed)
        setup_times.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setup_times)

    params_hash = bench_checks.params_digest(workload.params)
    reference, ref_status = bench_checks.reference_for(workload.name, params_hash,
                                                       args.seed)
    if reference is not None and len(reference) != len(ops):
        reference, ref_status = None, "MISMATCH: op count differs from the recording"
    header = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "params_sha256": params_hash, **build_info(),
        "ops_per_round": len(ops), "setup_repeats": SETUP_REPEATS,
        "setup_rep_s": setup_times, "import_s": import_s, "reference": ref_status,
    }
    print("header " + json.dumps(header), flush=True)

    runner = Runner(ops, reference, bench_checks)
    trace_problems: list[str] = []
    if args.trace == 0:
        walls, _ = run_rounds(runner, args.seconds)
    else:
        (untraced_wall,), (untraced_cpu,) = run_rounds(runner, 0.0)
        tracer = bench_trace.Tracer()
        wrapped = tracer.install(modules)
        walls, _ = run_rounds(runner, args.seconds - untraced_wall, tracer,
                              op_base=len(ops))
        per_round = []
        for r in range(len(walls)):
            first = (r + 1) * len(ops)
            layers, problems = bench_trace.analyse(tracer, range(first, first + len(ops)))
            per_round.append(layers)
            trace_problems += problems
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.npz"
        tracer.write(spans_path)
        print(f"trace: {len(tracer.name)} spans, {wrapped} functions wrapped, "
              f"written to {spans_path.relative_to(ROOT)}", flush=True)

    gate_problems = runner.gate_selftest()
    counts = workload.counts(ops, runner.first) if None not in runner.first else {}
    for msg in runner.messages[:20] + trace_problems + gate_problems:
        print(msg, flush=True)
    print("counts " + json.dumps(counts), flush=True)
    print(f"failed_frac {runner.failed / runner.attempted!r} "
          f"({runner.failed} of {runner.attempted} ops)", flush=True)
    if reference is None and ref_status.startswith("MISMATCH"):
        gate_problems.append(ref_status)

    if args.trace == 0:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {"setup_s": setup_s, "wall_s": statistics.median(walls),
                  "peak_rss_mib": peak,
                  "verified_frac": (runner.attempted - runner.failed) / runner.attempted}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    else:
        units = per_layer_units()
        values = {}
        for name in TIMED_LAYERS + SELF_ONLY + CALLS_ONLY:
            rows = [layers.get(name, {"calls": 0, "self_s": 0.0}) for layers in per_round]
            values[f"{name}.calls"] = rows[0]["calls"]
            values[f"{name}.self_s"] = statistics.median(r["self_s"] for r in rows)
        for name in COUNTS + ("stopping.omega_empty_frac",):
            values[name] = counts.get(name, 0)
        values["harness.import_s"] = import_s
        values["process.cpu_s"] = untraced_cpu
        values["trace.overhead_frac"] = statistics.median(walls) / untraced_wall - 1.0
        metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}

    correct = runner.failed == 0 and not trace_problems and not gate_problems
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
