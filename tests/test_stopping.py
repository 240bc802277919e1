import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dyadlab.dyadic import (DyadicInterval, DyadicRectangle, Grid1D,
                            GridFunction1D, GridFunction2D, enumerate_dyadic,
                            measure_intersection)
from dyadlab.errors import ConfigError
from dyadlab.harness import generate_test_functions
from dyadlab.operators import maximal_function
from dyadlab.stopping import (build_exceptional_set, check_index_observation_I,
                              check_index_observation_II,
                              level_decomposition_1d,
                              level_set_decomposition_2d, sparsity_check_1d,
                              sparsity_check_2d, tensor_decomposition_I,
                              tensor_decomposition_II, union_measure,
                              _pair_union)
from dyadlab.wavelets import CoefficientSequence

G = Grid1D(1, 7)  # box [0,2)
UNIT = DyadicInterval(0, 0)
C_BIG = 2.0 ** 10


def _indicator_inputs(seed):
    parts = [generate_test_functions("indicator_bounded", seed + i, G)
             for i in range(4)]
    funcs = [p["f"] for p in parts]
    weights = tuple(max(p["support_measure"], 2.0 ** -7) for p in parts)
    return funcs, weights


def test_level_decomposition_example():
    # f1 = chi_[0,1), weight 1, C = 1: the unit interval lands at level -1
    f1 = GridFunction1D.indicator(G, [UNIT])
    decomp = level_decomposition_1d([UNIT], maximal_function(f1), 1.0, 1.0)
    assert decomp.buckets == {-1: (UNIT,)}
    assert measure_intersection(UNIT, decomp.level_set(-1)) == 1
    assert measure_intersection(UNIT, decomp.level_set(0)) == 0


def test_level_decomposition_zero_driver_goes_bottom():
    decomp = level_decomposition_1d([UNIT], GridFunction1D.zeros(G), 1.0, 1.0)
    assert decomp.buckets == {} and decomp.bottom == (UNIT,)


def test_tensor_decomposition_partitions():
    funcs, weights = _indicator_inputs(40)
    ivs = enumerate_dyadic(G, -3, 1)
    decomps = tensor_decomposition_I(ivs, ivs, *funcs, weights, C_BIG, C_BIG)
    for d in decomps:
        seen = sorted(list(d.bottom)
                      + [iv for v in d.buckets.values() for iv in v])
        assert seen == sorted(ivs)
        for n, items in d.buckets.items():
            for iv in items:
                assert measure_intersection(iv, d.level_set(n)) > iv.length / 10
                assert measure_intersection(iv, d.level_set(n + 1)) <= iv.length / 10


def test_index_observation_fixed_scale():
    funcs, weights = _indicator_inputs(41)
    ivs = enumerate_dyadic(G, -2, 1)
    rng = np.random.default_rng(0)
    rect = [DyadicRectangle(i, j) for i in ivs for j in ivs]
    h = GridFunction2D(G, G, rng.standard_normal((G.n_points, G.n_points)))
    e_set = GridFunction2D(G, G, np.ones((G.n_points, G.n_points)))
    exc = build_exceptional_set(*funcs, h, e_set, (C_BIG, C_BIG, C_BIG),
                                "fixed_scale", rectangles=rect, weights=weights)
    decomps = tensor_decomposition_I(ivs, ivs, *funcs, weights, C_BIG, C_BIG)
    assert check_index_observation_I(rect, exc, *decomps) == []


def test_tensor_decomposition_II_examples():
    zero = CoefficientSequence({}, (UNIT,))
    with pytest.raises(ConfigError):
        tensor_decomposition_II([UNIT], [UNIT], zero, zero, (0.0, 1.0), 1.0, 1.0)
    tx, ty = tensor_decomposition_II([UNIT], [UNIT], zero, zero, (1.0, 1.0),
                                     1.0, 1.0)
    assert not tx.levels and len(tx.bottom) == 1
    # single interval with ratio r and norm nu sits at level ceil(log2(r/nu))
    seq = CoefficientSequence({UNIT: 3.0})
    tx, _ = tensor_decomposition_II([UNIT], [UNIT], seq, zero, (1.0, 1.0),
                                    1.0, 1.0)
    (k,) = tx.levels.keys()
    assert k == 2  # 2^1 < 3 <= 2^2


@pytest.mark.parametrize("norms", [(math.nan, 1.0), (1.0, math.inf)],
                         ids=["nan", "inf"])
def test_tensor_decomposition_II_rejects_non_finite_norms(norms):
    seq = CoefficientSequence({UNIT: 1.0})
    with pytest.raises(ConfigError):
        tensor_decomposition_II([UNIT], [UNIT], seq, seq, norms, 1.0, 1.0)


def test_obs_st_B_replica():
    from dyadlab.models import BilinearBlockSpec, bilinear_block
    from dyadlab.wavelets import (HAAR_LACUNARY, HAAR_NONLACUNARY,
                                  coefficient_naive, all_coefficients)
    funcs, weights = _indicator_inputs(42)
    f1, f2, g1, g2 = funcs
    ivs = enumerate_dyadic(G, -2, 1)
    inner = enumerate_dyadic(G, -4, 1)
    fams = (HAAR_NONLACUNARY, HAAR_LACUNARY, HAAR_LACUNARY)
    rng = np.random.default_rng(1)
    h = GridFunction2D(G, G, rng.standard_normal((G.n_points, G.n_points)))
    e_set = GridFunction2D(G, G, np.ones((G.n_points, G.n_points)))
    rect = [DyadicRectangle(i, j) for i in ivs for j in ivs]
    exc = build_exceptional_set(f1, f2, g1, g2, h, e_set, (C_BIG, C_BIG, C_BIG),
                                "flag0", rectangles=rect, weights=weights,
                                inner_x=inner, inner_y=inner)
    # local-block coefficient sequences drive the maximal-interval trees
    def local_coeffs(v1, v2, outer):
        out = {}
        for iv in outer:
            spec = BilinearBlockSpec(tuple(inner), fams, "local", iv)
            blk = bilinear_block(spec, v1, v2)
            out[iv] = coefficient_naive(blk, iv, HAAR_NONLACUNARY)
        return CoefficientSequence(out, tuple(outer))

    bx = bilinear_block(BilinearBlockSpec(tuple(inner), fams, "global"), f1, f2)
    by = bilinear_block(BilinearBlockSpec(tuple(inner), fams, "global"), g1, g2)
    if bx.norm(1) == 0 or by.norm(1) == 0:
        pytest.skip("degenerate draw")
    tx, ty = tensor_decomposition_II(ivs, ivs, local_coeffs(f1, f2, ivs),
                                     local_coeffs(g1, g2, ivs),
                                     (bx.norm(1), by.norm(1)), C_BIG, C_BIG)
    assert check_index_observation_II(rect, exc, tx, ty) == []


def test_level_set_2d_examples():
    rng = np.random.default_rng(3)
    ivs = enumerate_dyadic(G, -2, 0)
    rect = [DyadicRectangle(i, j) for i in ivs for j in ivs]
    zero = GridFunction2D.zeros(G, G)
    with pytest.raises(ConfigError):
        level_set_decomposition_2d(rect, zero, zero, C_BIG, 1.5)
    h = GridFunction2D(G, G, rng.standard_normal((G.n_points, G.n_points)))
    e_prime = GridFunction2D(G, G, np.ones((G.n_points, G.n_points)))
    decomp = level_set_decomposition_2d(rect, h, e_prime, 2.0, 1.5)
    assert sorted(r for v in decomp.buckets.values() for r in v) == sorted(rect)
    text = decomp.to_text()
    assert "level" in text
    # the defining measure conditions, from the stored level-set drivers
    cell = h.cell_area
    for (k1, k2), items in decomp.buckets.items():
        for r in items:
            area = float(r.area)
            if k1 is not None:
                vals = decomp.driver1.restrict(r)
                thr = decomp.constant * 2.0 ** k1 * decomp.weight1
                assert np.count_nonzero(vals > thr) * cell > area / 100
                thr_up = decomp.constant * 2.0 ** (k1 + 1) * decomp.weight1
                assert np.count_nonzero(vals > thr_up) * cell <= area / 100
            if k2 is not None:
                vals = decomp.driver2.restrict(r)
                thr = decomp.constant * 2.0 ** k2 * decomp.weight2
                assert np.count_nonzero(vals > thr) * cell > area / 100


def test_level_set_2d_single_rectangle_threshold():
    # SSh constant on the rectangle: the level is the largest k1 with
    # c3 2^{k1} ||h||_s below that constant
    iv = UNIT
    rect = [DyadicRectangle(iv, iv)]
    from dyadlab.wavelets import HAAR_LACUNARY
    from dyadlab.dyadic import tensor
    h = tensor(GridFunction1D(G, HAAR_LACUNARY.member(iv, G)),
               GridFunction1D(G, HAAR_LACUNARY.member(iv, G)))
    e_prime = GridFunction2D.zeros(G, G)
    c3 = 1.0
    decomp = level_set_decomposition_2d(rect, h, e_prime, c3, 1.5)
    ((k1, k2), items), = decomp.buckets.items()
    assert items == tuple(rect) and k2 is None
    w = h.norm(1.5)
    assert c3 * 2.0 ** k1 * w < 1.0 <= c3 * 2.0 ** (k1 + 1) * w


def test_exceptional_set_examples():
    g = G
    zero1 = GridFunction1D.zeros(g)
    zero2 = GridFunction2D.zeros(g, g)
    e_set = GridFunction2D(g, g, np.ones((g.n_points, g.n_points)))
    exc = build_exceptional_set(zero1, zero1, zero1, zero1, zero2, e_set,
                                (C_BIG, C_BIG, C_BIG), "fixed_scale")
    assert exc.omega1.integral() == 0.0
    assert exc.e_prime_measure == exc.e_measure
    with pytest.raises(ConfigError):
        build_exceptional_set(zero1, zero1, zero1, zero1, zero2, zero2,
                              (C_BIG, C_BIG, C_BIG), "fixed_scale")
    with pytest.raises(ConfigError):
        build_exceptional_set(zero1, zero1, zero1, zero1, zero2, e_set,
                              (C_BIG, C_BIG, C_BIG), "no_such_mode")


def test_omega_inside_enlargement():
    funcs, weights = _indicator_inputs(43)
    rng = np.random.default_rng(4)
    h = GridFunction2D(G, G, rng.standard_normal((G.n_points, G.n_points)))
    e_set = GridFunction2D(G, G, np.ones((G.n_points, G.n_points)))
    ivs = enumerate_dyadic(G, -2, 1)
    rect = [DyadicRectangle(i, j) for i in ivs for j in ivs]
    exc = build_exceptional_set(*funcs, h, e_set, (2.0, 2.0, 2.0),
                                "fixed_scale", rectangles=rect, weights=weights)
    assert np.all(exc.enlarged.samples >= exc.omega.samples)
    assert np.all(exc.e_prime.samples * exc.enlarged.samples == 0.0)


def test_exceptional_set_linf_modes():
    funcs, weights = _indicator_inputs(44)
    rng = np.random.default_rng(5)
    h = GridFunction2D(G, G, rng.standard_normal((G.n_points, G.n_points)))
    e_set = GridFunction2D(G, G, np.ones((G.n_points, G.n_points)))
    inner = enumerate_dyadic(G, -3, 1)
    for mode in ("linf_fixed", "linf_easy", "flag0"):
        exc = build_exceptional_set(*funcs, h, e_set, (C_BIG, C_BIG, C_BIG),
                                    mode, weights=weights, p=2.0, t=1.5,
                                    inner_x=inner, inner_y=inner)
        assert exc.e_prime_measure >= exc.e_measure / 2


def test_sparsity_check_trivial():
    decomp = level_decomposition_1d([UNIT], GridFunction1D.zeros(G), 1.0, 1.0)
    assert sparsity_check_1d(decomp) == []


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=20, deadline=None)
def test_sparsity_seeded(seed):
    data = generate_test_functions("indicator_bounded", seed, G)
    if data["support_measure"] == 0.0:
        return
    g1 = GridFunction1D(G, np.abs(data["f"].samples))
    decomp = level_decomposition_1d(enumerate_dyadic(G, -4, 1),
                                    maximal_function(g1), C_BIG,
                                    data["support_measure"])
    assert sparsity_check_1d(decomp) == []


def test_union_measure():
    r1 = DyadicRectangle(UNIT, UNIT)
    assert union_measure([r1]) == 1
    assert union_measure([r1, r1]) == 1
    r2 = DyadicRectangle(DyadicInterval(-1, 0), DyadicInterval(-1, 0))
    assert union_measure([r1, r2]) == 1  # nested
    r3 = DyadicRectangle(DyadicInterval(0, 1), UNIT)
    assert union_measure([r1, r3]) == 2  # disjoint
    assert union_measure([]) == 0


def test_sparsity_2d_single_and_one_level():
    f = GridFunction1D.indicator(G, [UNIT])
    decomp = level_decomposition_1d([UNIT, DyadicInterval(0, 1)],
                                    maximal_function(f), 1.0, 1.0)
    r1 = DyadicRectangle(UNIT, UNIT)
    lhs, rhs = sparsity_check_2d([r1], decomp)
    assert lhs == rhs
    r2 = DyadicRectangle(UNIT, DyadicInterval(0, 1))
    lhs, rhs = sparsity_check_2d([r1, r2], decomp)
    assert lhs <= 10 * rhs


def test_sparsity_2d_multi_level():
    data = generate_test_functions("indicator_bounded", 77, G)
    g1 = GridFunction1D(G, np.abs(data["f"].samples))
    w = max(data["support_measure"], 2.0 ** -7)
    ys = enumerate_dyadic(G, -4, 1)
    decomp = level_decomposition_1d(ys, maximal_function(g1), 4.0, w)
    rng = np.random.default_rng(7)
    xs = enumerate_dyadic(G, -2, 1)
    rect = sorted({DyadicRectangle(xs[int(rng.integers(0, len(xs)))], j)
                   for j in ys})
    lhs, rhs = sparsity_check_2d(rect, decomp)
    assert lhs <= 10 * rhs


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_level_decomposition_rejects_non_finite_driver(bad):
    g = Grid1D(0, 3)
    samples = np.ones(g.n_points)
    samples[2] = bad
    with pytest.raises(ConfigError):
        level_decomposition_1d([UNIT], GridFunction1D(g, samples), 1.0, 1.0)


def test_level_decomposition_with_a_subnormal_threshold():
    """c w = 1e-300 * 1e-10 is subnormal; the level n with c 2^n w < 1 lies
    beyond 2^1023."""
    g = Grid1D(0, 3)
    decomp = level_decomposition_1d([UNIT], GridFunction1D(g, np.ones(g.n_points)),
                                    1e-300, 1e-10)
    (n,) = decomp.buckets
    assert math.ldexp(1e-300, n) * 1e-10 < 1.0 <= math.ldexp(1e-300, n + 1) * 1e-10
    assert decomp.level_set(n).samples.all()
    assert sparsity_check_1d(decomp) == []


def test_pair_union_levels_near_dbl_max():
    """A = 1.7e308 sits on level 1023; no power of two may overflow."""
    a = np.array([1.7e308, 0.0, 1.0, 1.5])
    b = np.array([1.0, 1e-300, 0.0, 1.5])
    with np.errstate(all="raise"):
        mask = _pair_union(a, 1.0, 1.0, b, 1.0, 1.0)
    # {A > 2^n} x {B > 2^-n}: n = 1023 admits every nonzero B, A = 1 needs
    # n < 0 and so B > 2, and A = B = 1.5 meet at n = 0
    assert mask.tolist() == [[True, True, False, True], [False] * 4,
                             [False] * 4, [False, False, False, True]]
