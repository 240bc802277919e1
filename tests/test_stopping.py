import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dyadlab import stopping
from dyadlab.dyadic import (DyadicInterval, DyadicRectangle, Grid1D,
                            GridFunction1D, GridFunction2D, _level_below,
                            _times_pow2, enumerate_dyadic, measure_intersection)
from dyadlab.errors import ConfigError, DomainError, ResolutionError
from dyadlab.harness import generate_test_functions
from dyadlab.operators import HybridKind, hybrid_2d, maximal_function
from dyadlab.stopping import (LevelSetDecomposition1D, build_exceptional_set,
                              check_index_observation_I,
                              check_index_observation_II,
                              level_decomposition_1d,
                              level_set_decomposition_2d, sparsity_check_1d,
                              sparsity_check_2d, tensor_decomposition_I,
                              tensor_decomposition_II, union_measure,
                              _pair_union)
from dyadlab.wavelets import CoefficientSequence, HAAR_LACUNARY, all_coefficients_2d

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


def test_exceptional_set_masks_are_bool_and_e_prime_keeps_e():
    """Omega1, Omega2, Omega and Enl(Omega) are bool masks; E' holds E's own
    values off Enl(Omega), here for an E that is not an indicator."""
    funcs, weights = _indicator_inputs(43)
    rng = np.random.default_rng(6)
    h = GridFunction2D(G, G, rng.standard_normal((G.n_points, G.n_points)))
    e_set = GridFunction2D(G, G, rng.random((G.n_points, G.n_points)))
    ivs = enumerate_dyadic(G, -3, 1)
    rect = [DyadicRectangle(i, j) for i in ivs for j in ivs]
    exc = build_exceptional_set(*funcs, h, e_set, (1.8, 1.8, 10.0),
                                "fixed_scale", rectangles=rect, weights=weights)
    for k in ("omega1", "omega2", "omega", "enlarged"):
        assert getattr(exc, k).samples.dtype == bool
    enl = exc.enlarged.samples
    assert enl.any() and not enl.all()
    assert np.array_equal(exc.e_prime.samples, np.where(enl, 0.0, e_set.samples))


@pytest.mark.parametrize("s", [1.5, 2.0])
def test_exceptional_set_h_norm(s):
    """h_norm is ||h||_s, the scale of the Omega2 threshold, with or without
    rectangles; handing over h's SS_H coefficients changes no mask."""
    funcs, weights = _indicator_inputs(45)
    rng = np.random.default_rng(6)
    h = GridFunction2D(G, G, rng.standard_normal((G.n_points, G.n_points)))
    e_set = GridFunction2D(G, G, np.ones((G.n_points, G.n_points)))
    ivs = enumerate_dyadic(G, -3, 1)
    rect = [DyadicRectangle(i, j) for i in ivs for j in ivs]
    exc = build_exceptional_set(*funcs, h, e_set, (2.0, 2.0, 0.05), "fixed_scale",
                                rectangles=rect, weights=weights, s=s)
    assert exc.h_norm == h.norm(s)
    ss = hybrid_2d(h, HybridKind.SS_H, rect).samples
    assert np.array_equal(exc.omega2.samples != 0, ss > 0.05 * h.norm(s))
    assert 0 < np.count_nonzero(exc.omega2.samples) < h.samples.size
    hc = all_coefficients_2d(h, rect, HAAR_LACUNARY, HAAR_LACUNARY)
    given_hc = build_exceptional_set(*funcs, h, e_set, (2.0, 2.0, 0.05),
                                     "fixed_scale", rectangles=rect,
                                     weights=weights, s=s, h_coefficients=hc)
    for k in ("omega1", "omega2", "omega", "enlarged", "e_prime"):
        assert np.array_equal(getattr(exc, k).samples, getattr(given_hc, k).samples)
    assert given_hc.h_norm == exc.h_norm
    bare = build_exceptional_set(*funcs, h, e_set, (2.0, 2.0, 0.05), "fixed_scale",
                                 weights=weights, s=s)
    assert bare.h_norm == h.norm(s) and not bare.omega2.samples.any()


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


def _union_measure_reference(rectangles):
    """The slab loop that rescans every rectangle for each x slab."""
    rects = list(rectangles)
    if not rects:
        return Fraction(0)
    unit = 2 ** max(0, max(max(-r.x.k, -r.y.k) for r in rects))

    def span(iv):
        if iv.k >= 0:
            return iv.n * (2 ** iv.k) * unit, (iv.n + 1) * (2 ** iv.k) * unit
        return iv.n * (unit >> -iv.k), (iv.n + 1) * (unit >> -iv.k)

    spans = [(span(r.x), span(r.y)) for r in rects]
    xs = sorted({e for (x0, x1), _ in spans for e in (x0, x1)})
    total = 0
    for x0, x1 in zip(xs[:-1], xs[1:]):
        slabs = sorted(sy for sx, sy in spans if sx[0] <= x0 and sx[1] >= x1)
        if not slabs:
            continue
        covered = 0
        cur_lo, cur_hi = slabs[0]
        for lo, hi in slabs[1:]:
            if lo > cur_hi:
                covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        covered += cur_hi - cur_lo
        total += (x1 - x0) * covered
    return Fraction(total, unit * unit)


_RASTER = Grid1D(1, 3)  # 16 cells per axis


@st.composite
def _box_intervals(draw):
    k = draw(st.integers(-_RASTER.res_exp, _RASTER.box_exp))
    return DyadicInterval(k, draw(st.integers(0, 2 ** (_RASTER.box_exp - k) - 1)))


_any_intervals = st.builds(DyadicInterval, st.integers(-5, 4), st.integers(-6, 9))


@given(st.lists(st.builds(DyadicRectangle, _box_intervals(), _box_intervals()),
                max_size=25),
       st.lists(st.builds(DyadicRectangle, _any_intervals, _any_intervals),
                max_size=25))
@settings(max_examples=150, deadline=None)
def test_union_measure_sweep_matches_slab_loop_and_raster(in_box, anywhere):
    """The sweep is == to the slab loop on any dyadic rectangles, repeats and
    negative positions included, and to a cell count inside a grid's box."""
    raster = GridFunction2D.indicator(_RASTER, _RASTER, in_box).samples
    cells = Fraction(int(np.count_nonzero(raster)), 4 ** _RASTER.res_exp)
    assert union_measure(in_box) == _union_measure_reference(in_box) == cells
    assert union_measure(anywhere) == _union_measure_reference(anywhere)
    assert isinstance(union_measure(anywhere), Fraction)


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


def _no_work(*args, **kwargs):
    raise AssertionError("work started before the input check")


@pytest.mark.parametrize("constant,weight", [(np.nan, 1.0), (np.inf, 1.0),
                                             (1.0, np.nan), (1.0, np.inf),
                                             (1.0, -np.inf), (0.0, 1.0),
                                             (-1.0, 1.0)])
def test_level_decomposition_rejects_non_finite_constant_or_weight(
        constant, weight, monkeypatch):
    """A NaN constant used to pass as a plain exponent shift, and a constant
    <= 0 gave the buckets of constant 1; both are refused before the
    intervals are read."""
    monkeypatch.setattr(stopping, "_interval_table", _no_work)
    driver = GridFunction1D(G, np.ones(G.n_points))
    with pytest.raises(ConfigError):
        level_decomposition_1d([UNIT], driver, constant, weight)


@pytest.mark.parametrize("slot", [0, 1, 2])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1.0])
def test_exceptional_set_rejects_non_finite_constants(slot, bad, monkeypatch):
    """Non-finite and non-positive constants are refused before any maximal
    function is computed."""
    funcs, weights = _indicator_inputs(3)
    h = GridFunction2D(G, G, np.ones((G.n_points, G.n_points)))
    constants = [2.0, 2.0, 2.0]
    constants[slot] = bad
    monkeypatch.setattr(stopping, "maximal_function", _no_work)
    with pytest.raises(ConfigError):
        build_exceptional_set(*funcs, h, h, tuple(constants), "fixed_scale",
                              weights=weights)


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


# ---------------------------------------------------- per-interval references

def _qualifying_value_reference(values, frac):
    """Largest v such that strictly more than frac of the cells exceed any
    threshold below v; i.e. the k0-th largest value with k0 = floor(c*frac)+1."""
    c = values.size
    k0 = int(c * frac) + 1
    if k0 > c:
        return 0.0
    return float(np.partition(values, c - k0)[c - k0])


def _max_level_reference(vstar, c, weight):
    if vstar <= 0 or weight <= 0:
        return None
    return _level_below(vstar, c, weight)


def _level_decomposition_reference(collection, driver, constant, weight,
                                   fraction=Fraction(1, 10)):
    """One driver.restrict and one partition per interval."""
    buckets, bottom = {}, []
    for iv in collection:
        vstar = _qualifying_value_reference(driver.restrict(iv), fraction)
        n = _max_level_reference(vstar, constant, weight)
        if n is None:
            bottom.append(iv)
        else:
            buckets.setdefault(n, []).append(iv)
    return {n: tuple(sorted(v)) for n, v in buckets.items()}, tuple(sorted(bottom))


def _sparsity_reference(decomp, gap=10):
    """Fraction masses summed interval by interval, minima restricted one
    interval at a time."""
    out = []
    for n in sorted(decomp.buckets):
        for j0 in decomp.buckets.get(n - gap, ()):
            mass = sum((j.length for j in decomp.buckets[n]
                        if not (j.right <= j0.left or j.left >= j0.right)),
                       Fraction(0))
            if mass > j0.length / 2:
                out.append(f"level {n}: mass {mass} around {j0} exceeds "
                           f"{j0.length / 2}")
        floor_val = _times_pow2(n - 7, decomp.constant, decomp.weight)
        for j in decomp.buckets[n]:
            if float(np.min(decomp.driver.restrict(j))) <= floor_val:
                out.append(f"level {n}: driver dips to "
                           f"{float(np.min(decomp.driver.restrict(j)))} on {j}, "
                           f"needs > {floor_val}")
    return out


def _level_of_reference(decomp, interval):
    for n, ivs in decomp.buckets.items():
        if interval in ivs:
            return n
    return None


@st.composite
def level_cases(draw):
    """(collection, driver, constant, weight, fraction, gap).

    The collection is either every interval of the grid down to one cell or a
    draw with repeats from them (partial scales, single cells).  Drivers are
    zero, powers of two with zeros (ties, values on thresholds) or floats
    spread over 2^18; constants and gaps reach small enough values that both
    kinds of violation occur."""
    box, res = draw(st.integers(0, 2)), draw(st.integers(0, 6))
    grid = Grid1D(box, res)
    pool = enumerate_dyadic(grid, -res, box)
    if draw(st.booleans()):
        collection = pool
    else:
        collection = draw(st.lists(st.sampled_from(pool), max_size=24))
    kind = draw(st.sampled_from(["zero", "pow2", "float"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = 2.0 ** rng.integers(-4, 15, grid.n_points)
    if kind == "zero":
        samples = np.zeros(grid.n_points)
    elif kind == "pow2":
        samples = np.where(rng.random(grid.n_points) < 0.2, 0.0, scale)
    else:
        samples = rng.random(grid.n_points) * scale
    constant = draw(st.sampled_from([2.0 ** -6, 0.75, 1.0, 2.0 ** 10]))
    weight = draw(st.sampled_from([0.0, 2.0 ** -4, 0.3, 1.0]))
    fraction = draw(st.sampled_from([Fraction(1, 10), Fraction(1, 100),
                                     Fraction(1, 2), Fraction(1)]))
    gap = draw(st.sampled_from([10, 2, 1, 0]))
    return (collection, GridFunction1D(grid, samples), constant, weight,
            fraction, gap)


@given(level_cases())
@settings(max_examples=150, deadline=None)
def test_level_decomposition_and_sparsity_match_per_interval_reference(case):
    collection, driver, constant, weight, fraction, gap = case
    decomp = level_decomposition_1d(collection, driver, constant, weight, fraction)
    assert (decomp.buckets, decomp.bottom) == _level_decomposition_reference(
        collection, driver, constant, weight, fraction)
    assert sparsity_check_1d(decomp, gap) == _sparsity_reference(decomp, gap)
    for iv in list(collection) + [DyadicInterval(driver.grid.box_exp + 1, 0)]:
        assert decomp.level_of(iv) == _level_of_reference(decomp, iv)


def test_level_cases_reach_both_violations():
    """The strategy above is not vacuous: some fixed draws violate."""
    found = set()

    @given(level_cases())
    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    def collect(case):
        collection, driver, constant, weight, fraction, gap = case
        decomp = level_decomposition_1d(collection, driver, constant, weight,
                                        fraction)
        for line in sparsity_check_1d(decomp, gap):
            found.add("mass" if " mass " in line else "dips")

    collect()
    assert found == {"mass", "dips"}


G4 = Grid1D(0, 4)  # box [0,1), 16 cells
BIG = 1.5 * 2.0 ** 10  # level 10 at C = w = 1; 1.5 sits on level 0


def test_sparsity_reports_one_mass_violation():
    # a single hot cell: the cell (repeated nine times) lands on level 10,
    # the box on level 0, and the nine copies carry 9/16 > 1/2 of it
    samples = np.full(G4.n_points, 1.5)
    samples[0] = BIG
    cell = DyadicInterval(-4, 0)
    decomp = level_decomposition_1d([UNIT] + [cell] * 9,
                                    GridFunction1D(G4, samples), 1.0, 1.0)
    assert decomp.buckets == {0: (UNIT,), 10: (cell,) * 9}
    assert sparsity_check_1d(decomp) == [
        "level 10: mass 9/16 around I(k=0,n=0) exceeds 1/2"]
    # eight copies carry exactly half, which is allowed
    decomp = level_decomposition_1d([UNIT] + [cell] * 8,
                                    GridFunction1D(G4, samples), 1.0, 1.0)
    assert decomp.buckets == {0: (UNIT,), 10: (cell,) * 8}
    assert sparsity_check_1d(decomp) == []


def test_sparsity_reports_one_driver_dip():
    # two hot cells lift the box to level 10, where the floor is 2^3
    samples = np.full(G4.n_points, 1.5)
    samples[3] = samples[9] = BIG
    decomp = level_decomposition_1d([UNIT], GridFunction1D(G4, samples), 1.0, 1.0)
    assert decomp.buckets == {10: (UNIT,)}
    assert sparsity_check_1d(decomp) == [
        "level 10: driver dips to 1.5 on I(k=0,n=0), needs > 8.0"]
    # a driver resting on the floor dips too
    samples[samples == 1.5] = 8.0
    decomp = level_decomposition_1d([UNIT], GridFunction1D(G4, samples), 1.0, 1.0)
    assert sparsity_check_1d(decomp) == [
        "level 10: driver dips to 8.0 on I(k=0,n=0), needs > 8.0"]


def test_level_of_map():
    samples = np.full(G4.n_points, 1.5)
    samples[0] = BIG
    left, right = DyadicInterval(-1, 0), DyadicInterval(-1, 1)
    decomp = level_decomposition_1d([left, right], GridFunction1D(G4, samples),
                                    1.0, 1.0, Fraction(1, 8))
    # right is flat at 1.5 (level 0); left's second largest of 8 cells is 1.5
    assert decomp.level_of(left) == decomp.level_of(right) == 0
    low = level_decomposition_1d([left, right], GridFunction1D(G4, samples),
                                 1.0, 0.0)
    assert low.bottom == (left, right)
    assert low.level_of(left) is None and low.level_of(UNIT) is None
    assert low.level_map == {left: None, right: None}
    # a bottom y interval joins one group; an absent one is an error
    r = DyadicRectangle(UNIT, left)
    assert sparsity_check_2d([r], low) == (1 / 2, 1 / 2)
    with pytest.raises(ConfigError, match="missing from the y decomposition"):
        sparsity_check_2d([DyadicRectangle(UNIT, UNIT)], low)


OFF_GRID = {
    "finer": DyadicInterval(-5, 0),
    "above_box": DyadicInterval(1, 0),
    "right_of_box": DyadicInterval(-1, 2),
    "negative": DyadicInterval(-2, -1),
    "beyond_int64": DyadicInterval(-2, 2 ** 70),
}


@pytest.mark.parametrize("bad", [["finer"], ["above_box"], ["right_of_box"],
                                 ["negative"], ["finer", "negative"],
                                 ["negative", "finer"], ["beyond_int64"],
                                 ["finer", "beyond_int64"]],
                         ids=lambda b: "+".join(b))
def test_off_grid_intervals_raise_the_first_error(bad):
    """The first interval off the grid raises its cell_range error, in the
    decomposition and in a hand-built decomposition's sparsity check."""
    driver = GridFunction1D(G4, np.ones(G4.n_points))
    collection = [UNIT, DyadicInterval(-2, 1)] + [OFF_GRID[b] for b in bad]
    first = OFF_GRID[bad[0]]
    expect = ResolutionError if first.k < -4 else DomainError
    with pytest.raises(expect) as ref:
        _level_decomposition_reference(collection, driver, 1.0, 1.0)
    with pytest.raises(expect, match=re.escape(str(ref.value))):
        level_decomposition_1d(collection, driver, 1.0, 1.0)
    decomp = LevelSetDecomposition1D({-3: (UNIT,), 2: tuple(collection)}, (),
                                     driver, 1.0, 1.0)
    with pytest.raises(expect, match=re.escape(str(ref.value))):
        sparsity_check_1d(decomp)


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1.5, 2.0 ** -4]),
       st.sampled_from([Fraction(1, 100), Fraction(1, 4), Fraction(1)]))
@settings(max_examples=15, deadline=None)
def test_level_set_2d_matches_per_rectangle_reference(seed, c3, fraction):
    rng = np.random.default_rng(seed)
    ivs = enumerate_dyadic(G, -3, 1)
    rect = [DyadicRectangle(ivs[int(rng.integers(len(ivs)))],
                            ivs[int(rng.integers(len(ivs)))]) for _ in range(40)]
    h = GridFunction2D(G, G, rng.standard_normal((G.n_points, G.n_points)))
    e_prime = GridFunction2D(G, G, (rng.random((G.n_points, G.n_points)) < 0.5)
                             * 1.0)
    decomp = level_set_decomposition_2d(rect, h, e_prime, c3, 1.5, fraction)
    ref = {}
    for r in rect:
        v1 = _qualifying_value_reference(decomp.driver1.restrict(r).ravel(), fraction)
        v2 = _qualifying_value_reference(decomp.driver2.restrict(r).ravel(), fraction)
        k1 = _max_level_reference(v1, c3, decomp.weight1)
        k2 = (_max_level_reference(v2, c3, decomp.weight2)
              if decomp.weight2 > 0 else None)
        ref.setdefault((k1, k2), []).append(r)
    assert decomp.buckets == {k: tuple(sorted(v)) for k, v in ref.items()}
