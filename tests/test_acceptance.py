"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import math
import time

import numpy as np
import pytest

from dyadlab.dyadic import (DyadicInterval, DyadicRectangle, Grid1D,
                            GridFunction1D, GridFunction2D, enumerate_dyadic)
from dyadlab.harness import (ExperimentConfig, generate_test_functions, run)
from dyadlab.models import (BilinearBlockSpec, energy_localization_check)
from dyadlab.multiplier import (SymbolSpec, apply_multiplier,
                                fractional_derivative, lp_project,
                                special_symbol_cascade, usable_bands)
from dyadlab.operators import (HybridKind, hybrid_2d, maximal_function)
from dyadlab.size_energy import (check_stopping_time_properties, energy,
                                 stopping_time_maximal)
from dyadlab.stopping import (level_decomposition_1d, sparsity_check_1d,
                              sparsity_check_2d)
from dyadlab.wavelets import (CoefficientSequence, HAAR_LACUNARY,
                              HAAR_NONLACUNARY, all_coefficients,
                              coefficient_naive)


def _report(number: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {number:2d}] {status} {name}: {detail}")
    assert passed, f"criterion {number} ({name}): {detail}"


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _layered_nonnegative(rng, grid):
    """Nonnegative function with amplitude layers spanning many dyadic levels."""
    vals = np.zeros(grid.n_points)
    for j in range(6):
        k = int(rng.integers(-6, grid.box_exp - 1))
        n = int(rng.integers(0, 2 ** (grid.box_exp - k)))
        iv = DyadicInterval(k, n)
        a, b = grid.cell_range(iv)
        vals[a:b] += 2.0 ** (-3 * j) * rng.uniform(0.5, 1.0)
    return GridFunction1D(grid, vals)


def test_criterion_1_sparsity():
    started = time.time()
    grid = Grid1D(4, 10)
    collection = enumerate_dyadic(grid, -6, 4)
    xs = enumerate_dyadic(grid, -2, 4)
    violations = 0
    worst = 0.0
    runs = 0
    for seed in range(100):
        rng = _rng(seed)
        if seed % 2 == 0:
            data = generate_test_functions("indicator_bounded", seed, grid)
            g1 = GridFunction1D(grid, np.abs(data["f"].samples))
            weight = data["support_measure"]
            c2 = 2.0 ** 10
        else:
            g1 = _layered_nonnegative(rng, grid)
            weight = 1.0
            c2 = 2.0
        if weight == 0.0 or float(np.max(g1.samples)) == 0.0:
            continue
        runs += 1
        decomp = level_decomposition_1d(collection, maximal_function(g1),
                                        c2, weight)
        violations += len(sparsity_check_1d(decomp))
        rect = sorted({DyadicRectangle(xs[int(rng.integers(0, len(xs)))],
                                       collection[int(rng.integers(0, len(collection)))])
                       for _ in range(120)})
        lhs, rhs = sparsity_check_2d(rect, decomp)
        assert rhs > 0
        worst = max(worst, float(lhs / rhs))
    elapsed = time.time() - started
    _report(1, "sparsity", violations == 0 and worst <= 10.0 and elapsed <= 60.0
            and runs >= 100 * 0.9,
            f"{runs} runs, 1d violations={violations}, "
            f"max nested/union={worst:.3f}, {elapsed:.1f}s")


def test_criterion_2_stopping_time():
    grid = Grid1D(0, 8)
    collection = enumerate_dyadic(grid, -4, 0)
    bad = []
    runs = 0
    for seed in range(100):
        rng = _rng(1000 + seed)
        raw = {iv: float(rng.standard_normal()) for iv in collection}
        seq = CoefficientSequence(raw, tuple(collection))
        e = energy(seq, collection).value
        if e == 0.0:
            continue
        seq = seq.scaled(1.0 / e)  # normalize the energy to 1
        runs += 1
        c1 = 2.0 ** 10 if seed % 2 == 0 else 1.0
        decomp = stopping_time_maximal(seq, collection, c1)
        bad.extend(check_stopping_time_properties(decomp, seq, collection))
        if sorted(decomp.assigned()) != sorted(collection) or decomp.residual:
            bad.append(f"seed {seed}: partition broken")
    _report(2, "stopping-time sandwich and mass", not bad and runs == 100,
            f"{runs} runs, violations={len(bad)}")


def test_criterion_3_energy_localization():
    grid = Grid1D(0, 7)
    pyramid = enumerate_dyadic(grid, -5, 0)
    haar_lac = (HAAR_NONLACUNARY, HAAR_LACUNARY, HAAR_LACUNARY)
    haar_nonlac = (HAAR_LACUNARY, HAAR_LACUNARY, HAAR_NONLACUNARY)
    failures = 0
    for seed in range(100):
        rng = _rng(2000 + seed)
        size = int(rng.integers(8, 65))
        picks = rng.choice(len(pyramid), size=min(size, len(pyramid)),
                           replace=False)
        inner = tuple(sorted(pyramid[int(i)] for i in picks))
        anchor = DyadicInterval(-2, int(rng.integers(0, 4)))
        level = GridFunction1D.indicator(grid, [anchor])
        outer = [iv for iv in enumerate_dyadic(grid, -4, -1)
                 if np.any(level.restrict(iv) > 0)]
        v1 = GridFunction1D(grid, rng.standard_normal(grid.n_points))
        v2 = GridFunction1D(grid, rng.standard_normal(grid.n_points))
        fams = haar_lac if seed % 2 == 0 else haar_nonlac
        spec = BilinearBlockSpec(inner, fams, "local", outer[0])
        failures += len(energy_localization_check(spec, v1, v2, level, outer,
                                                  tol=1e-12))
    _report(3, "biest trick / energy localization", failures == 0,
            f"100 instances (<=64 intervals), violations={failures}")


def test_criterion_4_oracle_equivalence():
    cfg = ExperimentConfig(kind="oracle_equivalence", trials=100, seed=7)
    rep = run(cfg)
    worst = rep.aggregates["max_deviation"]
    models = {r["model"] for r in rep.records}
    flavors = {r["flavor"] for r in rep.records}
    _report(4, "model vs oracle", worst <= 1e-12 and len(models) == 5
            and flavors == {"haar", "smooth"},
            f"100 specs over {len(models)} models x {sorted(flavors)}, "
            f"max deviation={worst:.2e}")


def test_criterion_5_transforms():
    grid = Grid1D(0, 8)
    rng = _rng(5)
    f = GridFunction1D(grid, rng.standard_normal(grid.n_points))
    ivs = enumerate_dyadic(grid, 1 - grid.res_exp, 0)
    worst_haar = 0.0
    for fam in (HAAR_LACUNARY, HAAR_NONLACUNARY):
        for iv, fast in zip(ivs, all_coefficients(f, ivs, fam).tolist()):
            worst_haar = max(worst_haar,
                             abs(fast - coefficient_naive(f, iv, fam)))
    n = 64
    gm = Grid1D(0, 6)
    g = GridFunction1D(gm, rng.standard_normal(n))
    g = GridFunction1D(gm, g.samples - g.samples.mean())
    total = np.zeros(n)
    for k in usable_bands(n):
        total = total + lp_project(g, k, "psi").samples
    worst_lp = float(np.max(np.abs(total - g.samples)))
    worst_eig = 0.0
    for k in (1, 2, 7):
        mode = GridFunction1D(gm, np.exp(2j * np.pi * k * np.arange(n) / n))
        out = fractional_derivative(mode, 1.25)
        worst_eig = max(worst_eig,
                        float(np.max(np.abs(out.samples
                                            - k ** 1.25 * mode.samples))))
    ok = worst_haar <= 1e-12 and worst_lp <= 1e-10 and worst_eig <= 1e-12
    _report(5, "transform correctness", ok,
            f"haar fast-vs-naive={worst_haar:.2e}, LP recon={worst_lp:.2e}, "
            f"eigen={worst_eig:.2e}")


def test_criterion_6_hybrid_sanity():
    grid = Grid1D(0, 5)
    ivs = enumerate_dyadic(grid, 1 - grid.res_exp, 0)
    rect = [DyadicRectangle(i, j) for i in ivs for j in ivs]
    rng = _rng(6)
    bessel_ok = True
    detail = 1.0
    for _ in range(10):
        h = GridFunction2D(grid, grid,
                           rng.standard_normal((grid.n_points, grid.n_points)))
        ss = hybrid_2d(h, HybridKind.SS_H, rect)
        bessel_ok &= ss.norm(2) <= h.norm(2) + 1e-9
        detail = min(detail, (h.norm(2) - ss.norm(2)))
    mono_ok = True
    sub_ok = True
    for _ in range(20):
        f = GridFunction1D(grid, rng.standard_normal(grid.n_points))
        g = GridFunction1D(grid, rng.standard_normal(grid.n_points))
        bigger = GridFunction1D(grid, np.abs(f.samples) + np.abs(g.samples))
        mono_ok &= bool(np.all(maximal_function(f).samples
                               <= maximal_function(bigger).samples))
        summed = GridFunction1D(grid, f.samples + g.samples)
        sub_ok &= bool(np.all(maximal_function(summed).samples
                              <= maximal_function(f).samples
                              + maximal_function(g).samples + 1e-12))
    _report(6, "hybrid operator sanity", bessel_ok and mono_ok and sub_ok,
            f"Bessel slack>={detail:.3e}, monotone={mono_ok}, sublinear={sub_ok}")


def test_criterion_7_multiplier_degenerate():
    rng = _rng(7)
    worst = 0.0
    one = SymbolSpec("constant_one")
    for n_exp in (4, 5):
        g = Grid1D(0, n_exp)
        n = g.n_points
        fs = [GridFunction1D(g, rng.standard_normal(n)) for _ in range(4)]
        h = GridFunction2D(g, g, rng.standard_normal((n, n)))
        out = apply_multiplier(one, one, *fs, h)
        ref = ((fs[0].samples * fs[1].samples)[:, None]
               * (fs[2].samples * fs[3].samples)[None, :] * h.samples)
        worst = max(worst, float(np.max(np.abs(out.samples - ref))))
    _report(7, "multiplier degenerate case", worst <= 1e-10,
            f"N in (16, 32), max deviation={worst:.2e}")


def test_criterion_8_path_equivalence():
    g = Grid1D(0, 5)
    a = SymbolSpec("product_special", ("psi", "phi"), ("phi", "psi"), gap=3)
    b = SymbolSpec("product_special", ("phi", "phi", "psi"),
                   ("phi", "phi", "psi"), gap=3)
    worst = 0.0
    scale = 0.0
    for seed in range(20):
        rng = _rng(800 + seed)
        fs = [GridFunction1D(g, rng.standard_normal(g.n_points))
              for _ in range(4)]
        h = GridFunction2D(g, g,
                           rng.standard_normal((g.n_points, g.n_points)))
        direct = apply_multiplier(a, b, *fs, h)
        cascade = special_symbol_cascade(a, b, *fs, h)
        worst = max(worst, float(np.max(np.abs(direct.samples
                                               - cascade.samples))))
        scale = max(scale, float(np.max(np.abs(direct.samples))))
    _report(8, "path equivalence", worst <= 1e-9 and scale > 0,
            f"20 seeds at N=32, max deviation={worst:.2e} "
            f"(output scale {scale:.2e})")


def test_criterion_9_homogeneity():
    from test_multiplier import dilation_slopes
    worst = 0.0
    for order in (0.0, 1.0):
        expected = 4.0 * order
        slopes = dilation_slopes((order, order), (order, order), seed=900)
        worst = max(worst, max(abs(s - expected) for s in slopes))
    _report(9, "dilation homogeneity", worst <= 1e-8,
            f"orders 0 and 1, max slope error={worst:.2e}")


def test_criterion_10_boundedness_stability():
    started = time.time()
    cfg = ExperimentConfig(kind="weak_type_sweep", box_exp=1, res_exp=10,
                           depth=5, trials=5, seed=10,
                           sweep_res_exps=(8, 9, 10), sweep_depths=(5, 6),
                           p1=4.0 / 3.0, q1=4.0, p2=4.0, q2=4.0 / 3.0, s=1.5,
                           model="flag0_flag0")
    rep = run(cfg)
    growth = rep.aggregates.get("max_doubling_growth", 1.0)
    rate = rep.aggregates["e_prime_pass_rate"]
    elapsed = time.time() - started
    nonzero = rep.aggregates["max_ratio"] > 0
    _report(10, "boundedness stability", growth <= 1.10 and rate >= 0.99
            and elapsed <= 600.0 and nonzero,
            f"max growth={growth:.4f}, E' pass rate={rate:.3f}, "
            f"max ratio={rep.aggregates['max_ratio']:.3e}, {elapsed:.0f}s")
