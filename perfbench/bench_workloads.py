"""The benchmark workloads: inputs from the seed, timed ops, output checks.

Every op draws its inputs from a fresh `SeedSequence(seed, spawn_key=(i,))`,
where i is the op's index in the workload; warm-up inputs use the separate key
(WARMUP, j), so warming up never shifts the inputs of a timed op.  Library
calls go through the module objects in `L`, looked up at call time, so the
tracer's wrappers are used once they are installed.

A workload's `setup(L, seed)` builds its collections, specs and inputs, runs
the warm-up and returns its ops.  Each op has:

  fn(*args())   the timed call; args() builds fresh arguments, untimed
  summarize     output -> flat summary dict, compared field by field
  fields        the comparison rule of each summary field (see bench_checks)
  verify        output -> problems, from checks that need no reference
  corrupt       output -> a damaged copy that verify must reject (optional)
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from bench_checks import digest, mask_digest, text_digest

WARMUP = 1 << 20


def op_seed(seed: int, *key: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(seed, spawn_key=key)


def op_rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(op_seed(seed, *key)))


@dataclass
class Op:
    name: str
    kind: str
    fn: Callable
    args: Callable[[], tuple]
    summarize: Callable[[object], dict]
    fields: dict
    verify: Callable[[object], list[str]]
    corrupt: Callable[[object], object] | None = None


@dataclass
class Workload:
    name: str
    params: dict
    setup: Callable
    counts: Callable[[list[Op], list[dict]], dict]


def _array_fields(tol: float) -> dict:
    rel = ("rel", tol, "l2")
    return {"l2": rel, "proj": rel, "max_abs": rel, "sha": "digest"}


_PROJECTIONS: dict[tuple, np.ndarray] = {}


def _array_summary(a: np.ndarray) -> dict:
    """Norm, a fixed unit-norm projection, the largest entry and a digest."""
    if a.shape not in _PROJECTIONS:
        w = np.random.Generator(np.random.PCG64(20011)).standard_normal(a.shape)
        _PROJECTIONS[a.shape] = w / np.linalg.norm(w)
    return {"l2": float(np.linalg.norm(a)),
            "proj": float(np.sum(_PROJECTIONS[a.shape] * a)),
            "max_abs": float(np.max(np.abs(a))),
            "sha": digest(a)}


def _finite(name: str, *values) -> list[str]:
    return [] if all(math.isfinite(v) for v in values) else [f"{name} not finite"]


# ---------------------------------------------------------------- weaktype

WEAKTYPE = {
    "box_exp": 1, "res_exp": 10, "depth": 6, "model": "flag0_flag0",
    "p1": 4.0 / 3.0, "q1": 4.0, "p2": 4.0, "q2": 4.0 / 3.0, "s": 1.5,
    "constants": [2.0 ** 10, 4.0],
    "warmup": {"res_exp": 7, "depth": 4},
}

_WEAKTYPE_FIELDS = {
    "ratio": ("rel", 1e-12, None), "lam": ("rel", 1e-12, None),
    "e_measure": "exact", "e_prime_measure": "exact", "e_prime_ok": "exact",
    "n_rectangles": "exact", "omega1_cells": "exact", "omega2_cells": "exact",
    "omega_cells": "exact", "enlarged_cells": "exact", "e_cells": "exact",
    "e_prime_cells": "exact", "omega_mask": "exact", "enlarged_mask": "exact",
    "e_prime_mask": "exact",
}


@dataclass
class TrialOutput:
    record: dict
    exc: object  # the ExceptionalSet that build_exceptional_set returned


def _install_capture(L, sink: list) -> None:
    """Keep the ExceptionalSet of each weak_type_trial for the output checks.

    weak_type_trial returns only scalars; the exceptional set is the return
    value of its build_exceptional_set call, read through the name harness
    binds.  The wrapper looks the stopping function up at call time, so a
    tracer installed later still sees the call.
    """
    def build_exceptional_set(*args, **kwargs):
        exc = L.stopping.build_exceptional_set(*args, **kwargs)
        sink.append(exc)
        return exc

    L.harness.build_exceptional_set = build_exceptional_set


def _masks(exc) -> dict[str, np.ndarray]:
    return {k: getattr(exc, k).samples != 0
            for k in ("omega1", "omega2", "omega", "enlarged", "e_set", "e_prime")}


def _weaktype_summary(out: TrialOutput) -> dict:
    rec, m = out.record, _masks(out.exc)
    return {
        "ratio": rec["ratio"], "lam": rec["lam"],
        "e_measure": rec["e_measure"], "e_prime_measure": rec["e_prime_measure"],
        "e_prime_ok": rec["e_prime_ok"], "n_rectangles": rec["n_rectangles"],
        "omega1_cells": int(m["omega1"].sum()), "omega2_cells": int(m["omega2"].sum()),
        "omega_cells": int(m["omega"].sum()), "enlarged_cells": int(m["enlarged"].sum()),
        "e_cells": int(m["e_set"].sum()), "e_prime_cells": int(m["e_prime"].sum()),
        "omega_mask": mask_digest(m["omega"]),
        "enlarged_mask": mask_digest(m["enlarged"]),
        "e_prime_mask": mask_digest(m["e_prime"]),
    }


def _weaktype_verify(out: TrialOutput, cell_area: float, n_rect: int) -> list[str]:
    rec, m = out.record, _masks(out.exc)
    bad = _finite("lam/ratio", rec["lam"], rec["ratio"])
    if not np.array_equal(m["e_prime"], m["e_set"] & ~m["enlarged"]):
        bad.append("E' is not E minus Enl(Omega)")
    if not np.array_equal(m["omega"], m["omega1"] | m["omega2"]):
        bad.append("Omega is not Omega1 union Omega2")
    if (m["omega"] & ~m["enlarged"]).any():
        bad.append("Omega not inside Enl(Omega)")
    if rec["e_prime_measure"] != int(m["e_prime"].sum()) * cell_area:
        bad.append("|E'| disagrees with the E' cell count")
    if rec["e_measure"] != 1.0 or rec["e_measure"] != int(m["e_set"].sum()) * cell_area:
        bad.append("|E| is not the unit measure of its cells")
    if rec["e_prime_ok"] != (rec["e_prime_measure"] >= rec["e_measure"] / 2.0):
        bad.append("e_prime_ok disagrees with |E'| >= |E|/2")
    if rec["n_rectangles"] != n_rect or rec["ratio"] < 0:
        bad.append(f"n_rectangles {rec['n_rectangles']} != {n_rect} or ratio < 0")
    return bad


def _weaktype_corrupt(out: TrialOutput) -> TrialOutput:
    exc = out.exc
    e_prime = exc.e_prime.samples.copy()
    e_prime.flat[0] = 1.0 - e_prime.flat[0]
    bad = dataclasses.replace(exc, e_prime=type(exc.e_prime)(
        exc.e_prime.grid_x, exc.e_prime.grid_y, e_prime))
    return TrialOutput(out.record, bad)


def _weaktype_setup(L, seed: int) -> list[Op]:
    P = WEAKTYPE
    sink: list = []
    _install_capture(L, sink)

    def config(c: float):
        return L.harness.ExperimentConfig(
            kind="weak_type_sweep", box_exp=P["box_exp"], res_exp=P["res_exp"],
            depth=P["depth"], trials=1, seed=seed, model=P["model"],
            c1=c, c2=c, c3=c, p1=P["p1"], q1=P["q1"], p2=P["p2"], q2=P["q2"],
            s=P["s"])

    def trial(cfg, seq, res_exp, depth):
        sink.clear()
        rec = L.harness.weak_type_trial(cfg, seq, res_exp, depth)
        return TrialOutput(rec, sink.pop())

    w = P["warmup"]
    trial(config(P["constants"][-1]), op_seed(seed, WARMUP, 0), w["res_exp"], w["depth"])

    side = 2 ** (P["box_exp"] + P["depth"] + 1) - 1
    cell_area = 2.0 ** (-2 * P["res_exp"])
    ops = []
    for i, c in enumerate(P["constants"]):
        cfg = config(c)
        ops.append(Op(
            name=f"weak_type_trial[c={c:g}]", kind="weak_type_trial", fn=trial,
            args=lambda cfg=cfg, i=i: (cfg, op_seed(seed, i), P["res_exp"], P["depth"]),
            summarize=_weaktype_summary, fields=_WEAKTYPE_FIELDS,
            verify=lambda out: _weaktype_verify(out, cell_area, side * side),
            corrupt=_weaktype_corrupt))
    return ops


def _weaktype_counts(ops: list[Op], summaries: list[dict]) -> dict:
    return {
        "stopping.omega_cells": sum(s["omega_cells"] for s in summaries),
        "stopping.enlarged_cells": sum(s["enlarged_cells"] for s in summaries),
        "stopping.e_prime_cells": sum(s["e_prime_cells"] for s in summaries),
        "stopping.omega_empty_frac":
            sum(s["omega_cells"] == 0 for s in summaries) / len(summaries),
        "models.rectangle_terms": sum(s["n_rectangles"] for s in summaries),
        "rectangles_per_op": [s["n_rectangles"] for s in summaries],
    }


# ------------------------------------------------------------- stopping-1d

STOPPING = {
    "sparsity": {"box_exp": 4, "res_exp": 10, "k_min": -6, "x_k_min": -2,
                 "rect_draws": 120, "ops": 24,
                 "constants": {"indicator_bounded": 2.0 ** 10, "layered": 2.0}},
    "averaging": {"res_exp": 10, "k_min": -9, "ops": 4, "c1": [2.0 ** 10, 1.0]},
    "lacunary": {"res_exp": 8, "k_min": -7, "ops": 4, "c1": [2.0 ** 10, 1.0]},
    "warmup": {"sparsity_res_exp": 7, "averaging_res_exp": 6, "lacunary_res_exp": 5},
}

_SPARSITY_FIELDS = {k: "exact" for k in (
    "driver_sha", "buckets", "bottom", "buckets_sha", "violations", "lhs", "rhs")}
_TREE_FIELDS = {"energy": ("rel", 1e-12, None), "base_value": ("rel", 1e-12, None),
                **{k: "exact" for k in ("levels", "bottom_trees", "residual",
                                        "trees_sha", "violations")}}


def _layered_nonnegative(L, rng, grid):
    """Nonnegative function with amplitude layers spanning many dyadic levels."""
    vals = np.zeros(grid.n_points)
    for j in range(6):
        k = int(rng.integers(-6, grid.box_exp - 1))
        n = int(rng.integers(0, 2 ** (grid.box_exp - k)))
        a, b = grid.cell_range(L.dyadic.DyadicInterval(k, n))
        vals[a:b] += 2.0 ** (-3 * j) * rng.uniform(0.5, 1.0)
    return L.dyadic.GridFunction1D(grid, vals)


def _sparsity_inputs(L, seed: int, key: tuple, grid, collection, xs, draws: int):
    rng = op_rng(seed, *key)
    constants = STOPPING["sparsity"]["constants"]
    if key[-1] % 2 == 0:
        data = L.harness.generate_test_functions("indicator_bounded",
                                                 op_seed(seed, *key, 1), grid)
        g1 = L.dyadic.GridFunction1D(grid, np.abs(data["f"].samples))
        weight, c2 = data["support_measure"], constants["indicator_bounded"]
    else:
        g1 = _layered_nonnegative(L, rng, grid)
        weight, c2 = 1.0, constants["layered"]
    rects = set()
    for _ in range(draws):
        i, j = int(rng.integers(0, len(xs))), int(rng.integers(0, len(collection)))
        rects.add(L.dyadic.DyadicRectangle(xs[i], collection[j]))
    return (collection, g1, c2, weight, sorted(rects))


def _sparsity_op(L):
    def run(collection, g1, c2, weight, rects):
        decomp = L.stopping.level_decomposition_1d(
            collection, L.operators.maximal_function(g1), c2, weight)
        violations = L.stopping.sparsity_check_1d(decomp)
        lhs, rhs = L.stopping.sparsity_check_2d(rects, decomp)
        return {"g1": g1, "collection": collection, "decomp": decomp,
                "violations": violations, "lhs": lhs, "rhs": rhs}
    return run


def _sparsity_summary(out: dict) -> dict:
    d = out["decomp"]
    return {
        "driver_sha": digest(d.driver.samples),
        "buckets": {str(n): len(v) for n, v in sorted(d.buckets.items())},
        "bottom": len(d.bottom),
        "buckets_sha": text_digest(sorted((n, [(i.k, i.n) for i in v])
                                          for n, v in d.buckets.items())),
        "violations": len(out["violations"]),
        "lhs": str(Fraction(out["lhs"])), "rhs": str(Fraction(out["rhs"])),
    }


def _sparsity_verify(out: dict) -> list[str]:
    d, bad = out["decomp"], []
    placed = [iv for v in d.buckets.values() for iv in v] + list(d.bottom)
    if sorted(placed) != sorted(out["collection"]):
        bad.append("level buckets do not partition the collection")
    if not np.all(d.driver.samples >= np.abs(out["g1"].samples)):
        bad.append("maximal function below |g| somewhere")
    if not out["lhs"] >= out["rhs"] > 0:
        bad.append(f"nested union mass {out['lhs']} below union {out['rhs']}")
    return bad


def _sparsity_corrupt(out: dict) -> dict:
    """Drop one interval from the decomposition."""
    d = out["decomp"]
    if not d.buckets:
        return {**out, "decomp": dataclasses.replace(d, bottom=d.bottom[1:])}
    n = next(iter(d.buckets))
    return {**out, "decomp": dataclasses.replace(
        d, buckets={**d.buckets, n: d.buckets[n][1:]})}


def _sequence(L, seed: int, key: tuple, collection):
    rng = op_rng(seed, *key)
    raw = {iv: float(rng.standard_normal()) for iv in collection}
    return L.wavelets.CoefficientSequence(raw, tuple(collection))


def _tree_op(L):
    def run(seq_raw, collection, c1, lacunary, grid):
        e = L.size_energy.energy(seq_raw, collection, lacunary=lacunary, grid=grid).value
        seq = seq_raw.scaled(1.0 / e)
        decomp = L.size_energy.stopping_time_maximal(seq, collection, c1,
                                                     lacunary=lacunary, grid=grid)
        violations = L.size_energy.check_stopping_time_properties(
            decomp, seq, collection, lacunary=lacunary, grid=grid)
        return {"energy": e, "collection": collection, "decomp": decomp,
                "violations": violations}
    return run


def _tree_summary(out: dict) -> dict:
    d = out["decomp"]
    trees = [(k, t.top.k, t.top.n, [(i.k, i.n) for i in t.members])
             for k, t in d.all_trees()]
    return {
        "energy": out["energy"], "base_value": d.base_value,
        "levels": {str(k): len(v) for k, v in sorted(d.levels.items())},
        "bottom_trees": len(d.bottom), "residual": len(d.residual),
        "trees_sha": text_digest(trees), "violations": len(out["violations"]),
    }


def _tree_verify(out: dict) -> list[str]:
    d, bad = out["decomp"], _finite("energy", out["energy"])
    if not out["energy"] > 0:
        bad.append("energy not positive")
    if sorted(d.assigned()) != sorted(out["collection"]) or d.residual:
        bad.append("trees do not partition the collection")
    return bad


def _stopping_setup(L, seed: int) -> list[Op]:
    P = STOPPING
    Grid1D, enum = L.dyadic.Grid1D, L.dyadic.enumerate_dyadic
    sp, av, la, w = P["sparsity"], P["averaging"], P["lacunary"], P["warmup"]
    sparsity, trees = _sparsity_op(L), _tree_op(L)

    # warm-up: one op of each kind on smaller grids, from warm-up seeds
    g = Grid1D(sp["box_exp"], w["sparsity_res_exp"])
    coll = enum(g, sp["k_min"], sp["box_exp"])
    sparsity(*_sparsity_inputs(L, seed, (WARMUP, 0), g, coll,
                               enum(g, sp["x_k_min"], sp["box_exp"]), sp["rect_draws"]))
    for j, (res, lac) in enumerate(((w["averaging_res_exp"], False),
                                    (w["lacunary_res_exp"], True))):
        g = Grid1D(0, res)
        coll = enum(g, 1 - res, 0)
        trees(_sequence(L, seed, (WARMUP, 1 + j), coll), coll, 1.0, lac, g)

    ops = []
    grid = Grid1D(sp["box_exp"], sp["res_exp"])
    collection = enum(grid, sp["k_min"], sp["box_exp"])
    xs = enum(grid, sp["x_k_min"], sp["box_exp"])
    for i in range(sp["ops"]):
        inputs = _sparsity_inputs(L, seed, (i,), grid, collection, xs, sp["rect_draws"])
        driver = "indicator_bounded" if i % 2 == 0 else "layered"
        ops.append(Op(f"sparsity[{driver}]", "sparsity_1d", sparsity,
                      lambda inputs=inputs: inputs, _sparsity_summary,
                      _SPARSITY_FIELDS, _sparsity_verify, _sparsity_corrupt))
    for spec, lac in ((av, False), (la, True)):
        g = Grid1D(0, spec["res_exp"])
        coll = enum(g, spec["k_min"], 0)
        for j in range(spec["ops"]):
            i = len(ops)
            seq = _sequence(L, seed, (i,), coll)
            c1 = spec["c1"][j % len(spec["c1"])]
            flavor = "lacunary" if lac else "averaging"
            ops.append(Op(f"stopping_time[{flavor},c1={c1:g}]", f"stopping_time_{flavor}",
                          trees, lambda a=(seq, coll, c1, lac, g): a, _tree_summary,
                          _TREE_FIELDS, _tree_verify))
    return ops


def _stopping_counts(ops: list[Op], summaries: list[dict]) -> dict:
    sp = [s for o, s in zip(ops, summaries) if o.kind == "sparsity_1d"]
    tr = [s for o, s in zip(ops, summaries) if o.kind != "sparsity_1d"]
    return {
        "stopping.level_buckets": sum(len(s["buckets"]) for s in sp),
        "stopping.bottom_intervals": sum(s["bottom"] for s in sp),
        "stopping.sparsity_violations": sum(s["violations"] for s in sp),
        "size_energy.trees": sum(sum(s["levels"].values()) + s["bottom_trees"]
                                 for s in tr),
        "size_energy.stopping_violations": sum(s["violations"] for s in tr),
    }


# -------------------------------------------------------------- fivelinear

FIVELINEAR = {
    "models": {"res_exp": 8, "depth": 5, "inner_depth": 7, "sharp1": 1, "sharp2": 2,
               "flavors": ["haar", "smooth"], "oracle_rectangles": 32},
    "symbols": {"a": [["psi", "phi"], ["phi", "psi"]],
                "b": [["phi", "phi", "psi"], ["phi", "phi", "psi"]], "gap": 3},
    "direct_n": [32] * 16 + [64] * 48,
    "cascade_n": [128] * 8 + [256] * 2 + [512],
    "leibniz": {"n": [256] * 4, "alphas": [1.0, 1.0], "betas": [1.0, 1.0],
                "exponents": [4.0 / 3.0, 4.0, 4.0, 4.0 / 3.0, 1.5]},
    "warmup": {"res_exp": 5, "depth": 2, "direct_n": 32, "cascade_n": 128},
}

_MODEL_TOL = 1e-12      # model_operator output, a sum of rectangle terms
_ORACLE_TOL = 1e-12     # model vs oracle, relative to the oracle's largest entry
_PATH_TOL = 1e-9        # direct vs cascade, absolute, as in the acceptance gate
_FFT_TOL = 1e-9         # FFT-evaluated outputs against the reference
_LEIBNIZ_FIELDS = {"lhs": ("rel", _FFT_TOL, None), "rhs": ("rel", _FFT_TOL, None),
                   "ratio": ("rel", _FFT_TOL, None), "terms": "exact"}


def _five_inputs(L, rng, grid):
    fs = [L.dyadic.GridFunction1D(grid, rng.standard_normal(grid.n_points))
          for _ in range(4)]
    h = L.dyadic.GridFunction2D(grid, grid,
                                rng.standard_normal((grid.n_points, grid.n_points)))
    return (*fs, h)


def _model_spec(L, flavor, which, grid, depth, inner_depth, sharp1, sharp2,
                rectangles=None):
    enum = L.dyadic.enumerate_dyadic
    ivs = enum(grid, -depth, grid.box_exp)
    if rectangles is None:
        rectangles = [L.dyadic.DyadicRectangle(i, j) for i in ivs for j in ivs]
    inner = enum(grid, -inner_depth, grid.box_exp)
    spec_type = L.models.ModelOperatorSpec
    maker = spec_type.haar if flavor == "haar" else spec_type.smooth
    return maker(which, rectangles, inner, inner, sharp1, sharp2)


def _oracle_verify(L, spec, subset, inputs) -> list[str]:
    sub = dataclasses.replace(spec, rectangles=tuple(subset))
    fast = L.models.model_operator(sub, *inputs).samples
    slow = L.models.oracle_model_operator(sub, *inputs).samples
    dev, scale = float(np.max(np.abs(fast - slow))), float(np.max(np.abs(slow)))
    if not dev <= _ORACLE_TOL * scale:
        return [f"model vs oracle on {len(subset)} rectangles: deviation {dev:.3e} "
                f"> {_ORACLE_TOL:g} x {scale:.3e}"]
    return []


def _path_verify(L, a, b, inputs, out) -> list[str]:
    casc = L.multiplier.special_symbol_cascade(a, b, *inputs).samples
    dev = float(np.max(np.abs(out.samples - casc)))
    return [] if dev <= _PATH_TOL else [f"direct vs cascade deviation {dev:.3e}"]


def _shifted(out):
    return type(out)(out.grid_x, out.grid_y, out.samples + 1e-8)


def _cascade_verify(out) -> list[str]:
    return _finite("output", float(np.sum(out.samples)))


def _leibniz_summary(rep) -> dict:
    return {"lhs": rep.lhs, "rhs": rep.rhs, "ratio": rep.ratio, "terms": len(rep.terms)}


def _leibniz_verify(rep) -> list[str]:
    bad = _finite("lhs/rhs", rep.lhs, rep.rhs)
    if not (rep.lhs >= 0 and rep.rhs > 0 and len(rep.terms) == 16):
        bad.append("product-rule report has a negative side or missing terms")
    return bad


def _fivelinear_setup(L, seed: int) -> list[Op]:
    P = FIVELINEAR
    M, w = P["models"], P["warmup"]
    Grid1D, mul = L.dyadic.Grid1D, L.multiplier
    sym = P["symbols"]
    a, b = (mul.SymbolSpec("product_special", tuple(sym[k][0]), tuple(sym[k][1]),
                           gap=sym["gap"]) for k in ("a", "b"))
    lb = P["leibniz"]
    exps = mul.ExponentTuple(*lb["exponents"])

    def model_run(spec, *inputs):
        return L.models.model_operator(spec, *inputs)

    def multiplier_run(*inputs):
        return L.multiplier.apply_multiplier(a, b, *inputs)

    def leibniz_run(*inputs):
        return L.multiplier.leibniz_check(tuple(lb["alphas"]), tuple(lb["betas"]),
                                          exps, *inputs)

    # warm-up: both flavors of one model, both multiplier paths, the product rule
    wg = Grid1D(0, w["res_exp"])
    for j, flavor in enumerate(M["flavors"]):
        spec = _model_spec(L, flavor, "flag0_flag0", wg, w["depth"], w["res_exp"] - 1,
                           M["sharp1"], M["sharp2"])
        model_run(spec, *_five_inputs(L, op_rng(seed, WARMUP, j), wg))
    for j, n in enumerate((w["direct_n"], w["cascade_n"])):
        g = Grid1D(0, n.bit_length() - 1)
        multiplier_run(*_five_inputs(L, op_rng(seed, WARMUP, 2 + j), g))
    leibniz_run(*_five_inputs(L, op_rng(seed, WARMUP, 4), wg))

    ops = []
    grid = Grid1D(0, M["res_exp"])
    for flavor in M["flavors"]:
        for which in L.models.MODEL_NAMES:
            i = len(ops)
            rng = op_rng(seed, i)
            inputs = _five_inputs(L, rng, grid)
            spec = _model_spec(L, flavor, which, grid, M["depth"], M["inner_depth"],
                               M["sharp1"], M["sharp2"])
            picks = sorted(rng.choice(len(spec.rectangles), M["oracle_rectangles"],
                                      replace=False))
            subset = [spec.rectangles[int(k)] for k in picks]
            ops.append(Op(
                f"model_operator[{flavor},{which}]", "model_operator", model_run,
                lambda args=(spec, *inputs): args,
                lambda out: _array_summary(out.samples), _array_fields(_MODEL_TOL),
                lambda out, spec=spec, subset=subset, inputs=inputs:
                    _oracle_verify(L, spec, subset, inputs)))
    for n in P["direct_n"] + P["cascade_n"]:
        i = len(ops)
        inputs = _five_inputs(L, op_rng(seed, i), Grid1D(0, n.bit_length() - 1))
        direct = n <= 64
        if direct:
            verify, corrupt = functools.partial(_path_verify, L, a, b, inputs), _shifted
        else:
            verify, corrupt = _cascade_verify, None
        ops.append(Op(
            f"apply_multiplier[N={n},{'direct' if direct else 'cascade'}]",
            "apply_multiplier_direct" if direct else "apply_multiplier_cascade",
            multiplier_run, lambda inputs=inputs: inputs,
            lambda out: _array_summary(out.samples), _array_fields(_FFT_TOL),
            verify, corrupt))
    for n in lb["n"]:
        i = len(ops)
        inputs = _five_inputs(L, op_rng(seed, i), Grid1D(0, n.bit_length() - 1))
        ops.append(Op(f"leibniz_check[N={n}]", "leibniz_check", leibniz_run,
                      lambda inputs=inputs: inputs, _leibniz_summary, _LEIBNIZ_FIELDS,
                      _leibniz_verify))
    return ops


def _fivelinear_counts(ops: list[Op], summaries: list[dict]) -> dict:
    rects = [len(o.args()[0].rectangles) for o in ops if o.kind == "model_operator"]
    sizes: dict[str, int] = {}
    for o in ops:
        if o.kind != "model_operator":
            key = f"{o.kind}[N={o.args()[0].grid.n_points}]"
            sizes[key] = sizes.get(key, 0) + 1
    return {"models.rectangle_terms": sum(rects), "rectangles_per_op": rects,
            "multiplier_ops": sizes}


# Why each workload was chosen: see README.md and BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("weaktype", WEAKTYPE, _weaktype_setup, _weaktype_counts),
    Workload("stopping-1d", STOPPING, _stopping_setup, _stopping_counts),
    Workload("fivelinear", FIVELINEAR, _fivelinear_setup, _fivelinear_counts),
)}
