"""The exact-invariant battery behind the `invariants` experiment kind.

Each check returns a record {name, passed, detail}; everything here is either
an exact identity on the grid or an inequality with an explicit tolerance.
"""

from __future__ import annotations

import itertools

import numpy as np

from .dyadic import (DyadicInterval, DyadicRectangle, Grid1D, GridFunction1D,
                     GridFunction2D, contains, disjoint, enumerate_dyadic,
                     measure_intersection)
from .harness import _rng, generate_test_functions
from .models import (BilinearBlockSpec, MODEL_NAMES, ModelOperatorSpec,
                     energy_localization_check, local_size_bound_check,
                     model_operator, oracle_model_operator)
from .multiplier import (SymbolSpec, apply_multiplier, fractional_derivative,
                         lp_project, usable_bands)
from .operators import HybridKind, hybrid_2d, maximal_function
from .size_energy import (check_stopping_time_properties,
                          stopping_time_maximal)
from .stopping import (build_exceptional_set, check_index_observation_I,
                       level_decomposition_1d, sparsity_check_1d,
                       sparsity_check_2d, tensor_decomposition_I)
from .wavelets import (CoefficientSequence, HAAR_LACUNARY, HAAR_NONLACUNARY,
                       all_coefficients, coefficient_naive)


def run_all(config) -> list[dict]:
    checks = (
        _check_dichotomy,
        _check_parseval,
        _check_biest_support,
        _check_maximal_pointwise,
        _check_bessel,
        _check_model_oracle,
        _check_stopping_time,
        _check_tensor_partition,
        _check_sparsity,
        _check_localization,
        _check_multiplier_basics,
    )
    out = []
    for check in checks:
        out.extend(check(config))
    return out


def _record(name: str, passed: bool, detail) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def _check_dichotomy(config) -> list[dict]:
    g = Grid1D(1, 5)
    ivs = enumerate_dyadic(g, -4, 1)
    bad = sum(1 for a in ivs for b in ivs
              if contains(a, b) + contains(b, a) + disjoint(a, b)
              not in (1, 2))  # nested pairs satisfy exactly one unless equal
    ok = bad == 0
    mi = all(measure_intersection(iv, GridFunction1D.indicator(g, [iv]))
             == iv.length for iv in ivs)
    return [_record("dyadic_dichotomy", ok, f"{len(ivs)} intervals"),
            _record("measure_self_intersection", mi, "exact")]


def _check_parseval(config) -> list[dict]:
    rng = _rng(config.seed)
    g = Grid1D(0, 7)
    f = GridFunction1D(g, rng.standard_normal(g.n_points))
    ivs = enumerate_dyadic(g, 1 - g.res_exp, 0)
    worst = 0.0
    total = 0.0
    for iv, fast in zip(ivs, all_coefficients(f, ivs, HAAR_LACUNARY).tolist()):
        slow = coefficient_naive(f, iv, HAAR_LACUNARY)
        worst = max(worst, abs(fast - slow))
        total += fast * fast
    top = coefficient_naive(f, DyadicInterval(0, 0), HAAR_NONLACUNARY)
    total += top * top
    parseval = abs(total - f.norm(2) ** 2)
    return [_record("haar_fast_vs_naive", worst <= 1e-12, worst),
            _record("haar_parseval", parseval <= 1e-10, parseval)]


def _check_biest_support(config) -> list[dict]:
    g = Grid1D(0, 6)
    ivs = enumerate_dyadic(g, 1 - g.res_exp, 0)
    bad = 0
    for p in ivs:
        chi = GridFunction1D(g, HAAR_NONLACUNARY.member(p, g))
        for q in ivs:
            if q.length < p.length:
                continue
            ip = coefficient_naive(chi, q, HAAR_LACUNARY)
            if abs(ip) > 1e-12 and not contains(q, p):
                bad += 1
            if contains(q, p) and q != p and abs(ip) <= 1e-12:
                bad += 1
    return [_record("biest_support_fact", bad == 0, f"{len(ivs)}^2 pairs")]


def _check_maximal_pointwise(config) -> list[dict]:
    rng = _rng(config.seed + 1)
    g = Grid1D(1, 6)
    f = GridFunction1D(g, rng.standard_normal(g.n_points))
    gfun = GridFunction1D(g, f.samples + rng.standard_normal(g.n_points))
    mono = np.all(maximal_function(f).samples
                  <= maximal_function(
                      GridFunction1D(g, np.abs(f.samples)
                                     + np.abs(gfun.samples))).samples + 1e-15)
    sub = np.all(maximal_function(GridFunction1D(g, f.samples + gfun.samples)).samples
                 <= maximal_function(f).samples + maximal_function(gfun).samples
                 + 1e-12)
    const = GridFunction1D(g, np.ones(g.n_points))
    m_const = maximal_function(const)
    return [_record("maximal_monotone", bool(mono), "pointwise"),
            _record("maximal_sublinear", bool(sub), "pointwise"),
            _record("maximal_of_constant", bool(np.allclose(m_const.samples, 1.0)),
                    "M1 = 1")]


def _check_bessel(config) -> list[dict]:
    rng = _rng(config.seed + 2)
    g = Grid1D(0, 5)
    xs = enumerate_dyadic(g, 1 - g.res_exp, 0)
    rect = [DyadicRectangle(i, j) for i in xs for j in xs]
    h = GridFunction2D(g, g, rng.standard_normal((g.n_points, g.n_points)))
    ss = hybrid_2d(h, HybridKind.SS_H, rect)
    ok = ss.norm(2) <= h.norm(2) + 1e-9
    return [_record("haar_double_square_bessel", ok,
                    f"{ss.norm(2):.12f} <= {h.norm(2):.12f}")]


def _check_model_oracle(config) -> list[dict]:
    rng = _rng(config.seed + 3)
    worst = 0.0
    for which in MODEL_NAMES:
        g = Grid1D(0, 5)
        xs = enumerate_dyadic(g, -2, 0)
        rect = [DyadicRectangle(xs[int(rng.integers(0, len(xs)))],
                                xs[int(rng.integers(0, len(xs)))])
                for _ in range(4)]
        rect = sorted(set(rect))
        inner = enumerate_dyadic(g, -3, 0)
        spec = ModelOperatorSpec.haar(which, rect, inner, inner, 1, 1)
        fs = [GridFunction1D(g, rng.standard_normal(g.n_points)) for _ in range(4)]
        h = GridFunction2D(g, g, rng.standard_normal((g.n_points, g.n_points)))
        a = model_operator(spec, *fs, h)
        b = oracle_model_operator(spec, *fs, h)
        worst = max(worst, float(np.max(np.abs(a.samples - b.samples))))
    return [_record("model_vs_oracle", worst <= 1e-12, worst)]


def _check_stopping_time(config) -> list[dict]:
    rng = _rng(config.seed + 4)
    g = Grid1D(0, 6)
    ivs = enumerate_dyadic(g, -3, 0)
    data = {iv: float(rng.standard_normal()) for iv in ivs}
    seq = CoefficientSequence(data, tuple(ivs))
    violations = []
    for lacunary, c1 in itertools.product((False, True), (1.0, 2.0 ** 10)):
        decomp = stopping_time_maximal(seq, ivs, c1, lacunary=lacunary, grid=g)
        assigned = sorted(decomp.assigned())
        if assigned != sorted(ivs) or decomp.residual:
            violations.append(f"partition broken at c1={c1}, lacunary={lacunary}")
        violations.extend(check_stopping_time_properties(decomp, seq, ivs,
                                                         lacunary=lacunary, grid=g))
        for k, trees in decomp.levels.items():
            tops = [t.top for t in trees]
            for i, a in enumerate(tops):
                for b in tops[i + 1:]:
                    if not disjoint(a, b):
                        violations.append(f"tops overlap at level {k}")
            for t in trees:
                if not all(contains(t.top, iv) for iv in t.members):
                    violations.append("member outside tree top")
    return [_record("stopping_time_properties", not violations,
                    violations[:3] or "sandwich+mass exact")]


def _check_tensor_partition(config) -> list[dict]:
    rng = _rng(config.seed + 5)
    g = Grid1D(1, 6)
    fs = [generate_test_functions("indicator_bounded", config.seed + 10 + i, g)
          for i in range(4)]
    f1, f2, g1, g2 = (p["f"] for p in fs)
    weights = tuple(max(p["support_measure"], 1e-9) for p in fs)
    ivs = enumerate_dyadic(g, -3, 1)
    decomps = tensor_decomposition_I(ivs, ivs, f1, f2, g1, g2, weights,
                                     config.c1, config.c2)
    ok = True
    for d in decomps:
        seen = sorted(sum((list(v) for v in d.buckets.values()),
                          list(d.bottom)))
        ok = ok and seen == sorted(ivs)
        for n, items in d.buckets.items():
            for iv in items:
                inter = measure_intersection(iv, d.level_set(n))
                above = measure_intersection(iv, d.level_set(n + 1))
                ok = ok and inter > iv.length * d.fraction
                ok = ok and above <= iv.length * d.fraction
    h = GridFunction2D(g, g, rng.standard_normal((g.n_points, g.n_points)))
    e_set = GridFunction2D(g, g, np.ones((g.n_points, g.n_points)))
    rect = [DyadicRectangle(i, j) for i in ivs[:12] for j in ivs[:12]]
    exc = build_exceptional_set(f1, f2, g1, g2, h, e_set,
                                (config.c1, config.c2, config.c3),
                                "fixed_scale", rectangles=rect, weights=weights)
    viol = check_index_observation_I(rect, exc, decomps[0], decomps[1],
                                     decomps[2], decomps[3])
    return [_record("tensor_partition", ok, "levels exact"),
            _record("index_observation", not viol, viol[:3] or "all sums < 0")]


def _check_sparsity(config) -> list[dict]:
    g = Grid1D(1, 7)
    data = generate_test_functions("indicator_bounded", config.seed + 20, g)
    g1 = GridFunction1D(g, np.abs(data["f"].samples))
    w = data["support_measure"] or 1.0
    decomp = level_decomposition_1d(enumerate_dyadic(g, -4, 1),
                                    maximal_function(g1), config.c2, w)
    viol = sparsity_check_1d(decomp)
    xs = enumerate_dyadic(g, -2, 1)
    rng = _rng(config.seed + 21)
    rect = sorted({DyadicRectangle(xs[int(rng.integers(0, len(xs)))], j)
                   for j in enumerate_dyadic(g, -4, 1)})
    lhs, rhs = sparsity_check_2d(rect, decomp)
    return [_record("sparsity_1d", not viol, viol[:3] or "no violations"),
            _record("sparsity_2d", lhs <= 10 * rhs, f"{lhs} <= 10*{rhs}")]


def _check_localization(config) -> list[dict]:
    rng = _rng(config.seed + 6)
    g = Grid1D(0, 6)
    inner = enumerate_dyadic(g, -4, 0)
    level = GridFunction1D.indicator(g, [DyadicInterval(-1, 0)])
    outer = [iv for iv in enumerate_dyadic(g, -3, -1)
             if measure_intersection(iv, level) > 0]
    v1 = GridFunction1D(g, rng.standard_normal(g.n_points))
    v2 = GridFunction1D(g, rng.standard_normal(g.n_points))
    lac_spec = BilinearBlockSpec(tuple(inner),
                                 (HAAR_NONLACUNARY, HAAR_LACUNARY, HAAR_LACUNARY),
                                 "local", outer[0])
    viol = energy_localization_check(lac_spec, v1, v2, level, outer)
    nonlac_spec = BilinearBlockSpec(tuple(inner),
                                    (HAAR_LACUNARY, HAAR_LACUNARY, HAAR_NONLACUNARY),
                                    "local", outer[0])
    viol2 = energy_localization_check(nonlac_spec, v1, v2, level, outer)
    fixed = BilinearBlockSpec(tuple(inner),
                              (HAAR_NONLACUNARY, HAAR_LACUNARY, HAAR_LACUNARY),
                              "fixed_scale", outer[0], 1)
    lhs, rhs = local_size_bound_check(fixed, v1, v2, level, outer)
    ok3 = lhs <= 4.0 * rhs + 1e-12
    return [_record("energy_localization_lacunary", not viol, viol[:3] or "exact"),
            _record("energy_localization_nonlacunary", not viol2,
                    viol2[:3] or "dominated"),
            _record("size_localization", ok3, f"{lhs} <= 4*{rhs}")]


def _check_multiplier_basics(config) -> list[dict]:
    rng = _rng(config.seed + 7)
    n = 16
    g = Grid1D(0, 4)
    one = SymbolSpec("constant_one")
    fs = [GridFunction1D(g, rng.standard_normal(n)) for _ in range(4)]
    h = GridFunction2D(g, g, rng.standard_normal((n, n)))
    t = apply_multiplier(one, one, *fs, h)
    ref = ((fs[0].samples * fs[1].samples)[:, None]
           * (fs[2].samples * fs[3].samples)[None, :] * h.samples)
    d1 = float(np.max(np.abs(t.samples - ref)))
    mode = GridFunction1D(g, np.exp(2j * np.pi * 3 * np.arange(n) / n))
    eig = fractional_derivative(mode, 1.5)
    d2 = float(np.max(np.abs(eig.samples - 3.0 ** 1.5 * mode.samples)))
    f = GridFunction1D(g, rng.standard_normal(n))
    f = GridFunction1D(g, f.samples - f.samples.mean())
    tot = np.zeros(n)
    for k in usable_bands(n):
        tot = tot + lp_project(f, k, "psi").samples
    d3 = float(np.max(np.abs(tot - f.samples)))
    # Parseval: space-side L2 norm vs frequency-side evaluation
    spec = np.fft.fft2(t.samples) / t.samples.size
    d4 = abs(t.norm(2) ** 2 - float(np.sum(np.abs(spec) ** 2)) * 1.0)
    return [_record("multiplier_constant_symbol", d1 <= 1e-10, d1),
            _record("fractional_derivative_eigen", d2 <= 1e-12, d2),
            _record("lp_partition_of_unity", d3 <= 1e-10, d3),
            _record("multiplier_parseval", d4 <= 1e-10, d4)]
