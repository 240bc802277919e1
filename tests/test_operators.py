import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dyadlab.dyadic import (DyadicInterval, DyadicRectangle, Grid1D,
                            GridFunction1D, GridFunction2D, enumerate_dyadic,
                            tensor)
from dyadlab.errors import ConfigError, DomainError, ResolutionError
from dyadlab.operators import (HybridKind, estimate_operator_norm, hybrid_2d,
                               maximal_function, maximal_function_2d, square_1d)
from dyadlab.wavelets import (HAAR_LACUNARY, HAAR_NONLACUNARY, SMOOTH_LACUNARY,
                              SMOOTH_NONLACUNARY, all_coefficients,
                              haar_pyramid_2d)


def test_maximal_examples():
    g = Grid1D(2, 5)  # box [0,4)
    f = GridFunction1D.indicator(g, [DyadicInterval(0, 0)])
    assert maximal_function(f).samples[g.cell_of(0.5)] == 1.0
    assert maximal_function(GridFunction1D.zeros(g)).samples[g.cell_of(1.0)] == 0.0
    # best dyadic interval containing 2.5 and meeting [0,1) is [0,4)
    assert maximal_function(f).samples[g.cell_of(2.5)] == 0.25


def test_maximal_of_constant():
    g = Grid1D(1, 4)
    c = GridFunction1D(g, 3.0 * np.ones(g.n_points))
    assert np.allclose(maximal_function(c).samples, 3.0)


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=20, deadline=None)
def test_maximal_monotone_and_sublinear(seed):
    g = Grid1D(1, 5)
    rng = np.random.default_rng(seed)
    f = GridFunction1D(g, rng.standard_normal(g.n_points))
    h = GridFunction1D(g, rng.standard_normal(g.n_points))
    bigger = GridFunction1D(g, np.abs(f.samples) + np.abs(h.samples))
    assert np.all(maximal_function(f).samples <= maximal_function(bigger).samples + 1e-14)
    summed = GridFunction1D(g, f.samples + h.samples)
    bound = maximal_function(f).samples + maximal_function(h).samples
    assert np.all(maximal_function(summed).samples <= bound + 1e-12)


def test_square_function_examples():
    g = Grid1D(0, 6)
    collection = enumerate_dyadic(g, -1, 0)
    zero = square_1d(GridFunction1D.zeros(g), collection, HAAR_LACUNARY)
    assert np.all(zero.samples == 0.0)
    half = GridFunction1D.indicator(g, [DyadicInterval(-1, 0)])
    sq = square_1d(half, collection, HAAR_LACUNARY)
    # at x = 0.9 only the unit-interval term contributes, value |c|/1 = 1/2
    assert sq.samples[g.cell_of(0.9)] == pytest.approx(0.5, abs=1e-14)


def test_square_single_term():
    g = Grid1D(1, 6)
    iv = DyadicInterval(0, 0)
    f = GridFunction1D(g, 0.7 * HAAR_LACUNARY.member(iv, g))
    sq = square_1d(f, [iv], HAAR_LACUNARY)
    a, b = g.cell_range(iv)
    assert np.allclose(sq.samples[a:b], 0.7)
    assert np.all(sq.samples[b:] == 0.0)


def test_square_requires_lacunary():
    g = Grid1D(0, 4)
    with pytest.raises(ConfigError):
        square_1d(GridFunction1D.zeros(g), [DyadicInterval(0, 0)], HAAR_NONLACUNARY)


def _unit_square_rect():
    return DyadicRectangle(DyadicInterval(0, 0), DyadicInterval(0, 0))


def test_hybrid_examples():
    g = Grid1D(1, 5)
    rect = [_unit_square_rect()]
    box_ind = GridFunction2D.indicator(g, g, rect)
    out = hybrid_2d(box_ind, HybridKind.SS_H, rect)
    assert np.all(out.samples == 0.0)  # <chi, psi x psi> = 0
    zero = hybrid_2d(GridFunction2D.zeros(g, g), HybridKind.MS_H, rect)
    assert np.all(zero.samples == 0.0)
    wavelet = tensor(GridFunction1D(g, HAAR_LACUNARY.member(DyadicInterval(0, 0), g)),
                     GridFunction1D(g, HAAR_LACUNARY.member(DyadicInterval(0, 0), g)))
    ss = hybrid_2d(wavelet, HybridKind.SS_H, rect)
    a, b = g.cell_range(DyadicInterval(0, 0))
    assert np.allclose(ss.samples[a:b, a:b], 1.0)
    assert np.all(ss.samples[b:, :] == 0.0)


def test_hybrid_rejects_one_dimensional_kinds():
    g = Grid1D(0, 4)
    h = GridFunction2D.zeros(g, g)
    for kind in (HybridKind.M, HybridKind.S):
        with pytest.raises(ConfigError):
            hybrid_2d(h, kind, [_unit_square_rect()])


def test_mm_bounded_by_sup():
    g = Grid1D(1, 4)
    rng = np.random.default_rng(2)
    h = GridFunction2D(g, g, rng.standard_normal((g.n_points, g.n_points)))
    rect = [DyadicRectangle(i, j) for i in enumerate_dyadic(g, -2, 1)
            for j in enumerate_dyadic(g, -2, 1)]
    mm = hybrid_2d(h, HybridKind.MM, rect)
    assert float(np.max(mm.samples)) <= h.norm(np.inf) + 1e-12


def test_grid_kernels_leave_their_input_alone():
    """The maximal functions and the Haar pyramids read float samples without
    copying them, and never write into them."""
    g = Grid1D(1, 4)
    rng = np.random.default_rng(3)
    a = rng.random((g.n_points, g.n_points))  # >= 0: abs would be a no-op
    h = GridFunction2D(g, g, a.copy())
    f = GridFunction1D(g, a[0].copy())
    maximal_function_2d(h)
    maximal_function(f)
    haar_pyramid_2d(h)
    for family in (HAAR_LACUNARY, HAAR_NONLACUNARY):
        all_coefficients(f, enumerate_dyadic(g, 1 - g.res_exp, g.box_exp), family)
    assert np.array_equal(h.samples, a) and np.array_equal(f.samples, a[0])


def test_bessel_haar_double_square():
    g = Grid1D(0, 5)
    ivs = enumerate_dyadic(g, 1 - g.res_exp, 0)
    rect = [DyadicRectangle(i, j) for i in ivs for j in ivs]
    rng = np.random.default_rng(7)
    h = GridFunction2D(g, g, rng.standard_normal((g.n_points, g.n_points)))
    ss = hybrid_2d(h, HybridKind.SS_H, rect)
    assert ss.norm(2) <= h.norm(2) + 1e-9


def test_estimate_operator_norm():
    assert estimate_operator_norm(HybridKind.MM, np.inf, 5, 0) <= 1.0 + 1e-12
    r = estimate_operator_norm(HybridKind.SS_H, 2.0, 5, 1, res_exp=4)
    assert r <= 1.0 + 1e-9
    grow5 = estimate_operator_norm(HybridKind.M, 2.0, 5, 3, res_exp=4)
    grow9 = estimate_operator_norm(HybridKind.M, 2.0, 9, 3, res_exp=4)
    assert grow9 >= grow5  # sup over a growing set of trials
    with pytest.raises(ConfigError):
        estimate_operator_norm(HybridKind.SS, np.inf, 1, 0)
    with pytest.raises(ConfigError):
        estimate_operator_norm(HybridKind.M, 2.0, 0, 0)


def test_ms_single_rectangle_value():
    g = Grid1D(0, 5)
    iv = DyadicInterval(0, 0)
    rect = [DyadicRectangle(iv, iv)]
    h = tensor(GridFunction1D(g, 2.0 * HAAR_NONLACUNARY.member(iv, g)),
               GridFunction1D(g, HAAR_LACUNARY.member(iv, g)))
    out = hybrid_2d(h, HybridKind.MS_H, rect)
    # coefficient 2, unit interval lengths: the value is |c| on the square
    assert out.samples[0, 0] == pytest.approx(2.0, abs=1e-12)


def test_estimate_operator_norm_deterministic():
    a = estimate_operator_norm(HybridKind.M, 2.0, 4, 17, res_exp=4)
    b = estimate_operator_norm(HybridKind.M, 2.0, 4, 17, res_exp=4)
    assert a == b


def test_sm_uses_first_power_supremum():
    """The square-maximal display carries the inner supremum to the first
    power; a single-rectangle instance pins the exponent."""
    g = Grid1D(0, 5)
    iv = DyadicInterval(0, 0)
    rect = [DyadicRectangle(iv, iv)]
    h = tensor(GridFunction1D(g, HAAR_LACUNARY.member(iv, g)),
               GridFunction1D(g, 2.0 * HAAR_NONLACUNARY.member(iv, g)))
    out = hybrid_2d(h, HybridKind.SM_H, rect)
    # |<h, psi x ind>| = 2, sup_J 2/|J| = 2, and sqrt(2/|I|) = sqrt(2)
    assert out.samples[0, 0] == pytest.approx(np.sqrt(2.0), abs=1e-12)


def _brute_maximal(samples: np.ndarray, grids) -> np.ndarray:
    """Max over every dyadic box of the grids of the mean of |samples|."""
    a = np.abs(samples)
    best = np.zeros_like(a)
    blocks = [[slice(*g.cell_range(iv))
               for iv in enumerate_dyadic(g, -g.res_exp, g.box_exp)] for g in grids]
    for index in itertools.product(*blocks):
        np.maximum(best[index], a[index].mean(), out=best[index])
    return best


@given(st.integers(0, 2), st.integers(0, 3), st.integers(0, 2), st.integers(0, 3),
       st.integers(0, 2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_maximal_recurrence_matches_brute_force(bx, rx, by, ry, seed):
    """Integer samples make every block mean exact, so the two must agree
    bit for bit whatever order they sum in."""
    gx, gy = Grid1D(bx, rx), Grid1D(by, ry)
    rng = np.random.default_rng(seed)
    samples = rng.integers(-9, 10, (gx.n_points, gy.n_points)).astype(float)
    h = GridFunction2D(gx, gy, samples)
    assert np.array_equal(maximal_function_2d(h).samples, _brute_maximal(samples, (gx, gy)))
    f = GridFunction1D(gx, h.samples[:, 0])
    assert np.array_equal(maximal_function(f).samples, _brute_maximal(f.samples, (gx,)))


def _quadrature_2d(h, r, fx, fy) -> float:
    """<h, member_I tensor member_J> by direct quadrature on the grid."""
    mx = fx.member(r.x, h.grid_x)
    my = fy.member(r.y, h.grid_y)
    return float(mx @ h.samples @ my) * float(h.grid_x.cell_width) \
        * float(h.grid_y.cell_width)


def _square_per_rectangle(h, rects, fx, fy) -> np.ndarray:
    """sqrt(sum_R |c_R|^2 / |R| chi_R), one rectangle slice at a time."""
    acc = np.zeros(h.samples.shape)
    for r in rects:
        a, b = h.grid_x.cell_range(r.x)
        c0, c1 = h.grid_y.cell_range(r.y)
        acc[a:b, c0:c1] += abs(_quadrature_2d(h, r, fx, fy)) ** 2 / float(r.area)
    return np.sqrt(acc)


@given(st.integers(0, 1), st.integers(2, 4), st.integers(0, 1), st.integers(2, 4),
       st.integers(0, 2 ** 31 - 1), st.sampled_from(["SS_H", "SS"]))
@settings(max_examples=20, deadline=None)
def test_square_per_shape_matches_per_rectangle(bx, rx, by, ry, seed, kind):
    gx, gy = Grid1D(bx, rx), Grid1D(by, ry)
    rng = np.random.default_rng(seed)
    h = GridFunction2D(gx, gy, rng.standard_normal((gx.n_points, gy.n_points)))
    rects = [DyadicRectangle(i, j) for i in enumerate_dyadic(gx, 1 - rx, bx)
             for j in enumerate_dyadic(gy, 1 - ry, by)]
    # a shuffled subset with repeats: shape order is not list order
    rects = [rects[int(i)] for i in rng.integers(0, len(rects), len(rects))]
    fams = (HAAR_LACUNARY, HAAR_LACUNARY) if kind == "SS_H" else (SMOOTH_LACUNARY,) * 2
    want = _square_per_rectangle(h, rects, *fams)
    got = hybrid_2d(h, kind, rects).samples
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, float(np.max(want)))


def test_square_per_shape_rejects_unresolved_rectangles():
    g = Grid1D(0, 3)
    h = GridFunction2D.zeros(g, g)
    fine = DyadicRectangle(DyadicInterval(-4, 0), DyadicInterval(0, 0))
    outside = DyadicRectangle(DyadicInterval(0, 1), DyadicInterval(0, 0))
    for kind in ("SS", "SS_H", "MS", "MS_H", "SM", "SM_H", "MM"):
        with pytest.raises(ResolutionError):
            hybrid_2d(h, kind, [fine])
        with pytest.raises(DomainError):
            hybrid_2d(h, kind, [outside])


def _hybrid_per_rectangle(h, rects, kind) -> np.ndarray:
    """MS or SM as displayed, one x interval and one rectangle at a time."""
    haar = kind.endswith("_H")
    lac = HAAR_LACUNARY if haar else SMOOTH_LACUNARY
    nonlac = HAAR_NONLACUNARY if haar else SMOOTH_NONLACUNARY
    ms = kind.startswith("MS")
    fx, fy = (nonlac, lac) if ms else (lac, nonlac)
    gx, gy = h.grid_x, h.grid_y
    out = np.zeros(h.samples.shape)
    for I in sorted({r.x for r in rects}):
        inner = np.zeros(gy.n_points)
        for r in rects:
            if r.x != I:
                continue
            c = abs(_quadrature_2d(h, r, fx, fy))
            c0, c1 = gy.cell_range(r.y)
            if ms:
                inner[c0:c1] += c ** 2 / float(r.y.length)
            else:
                np.maximum(inner[c0:c1], c / float(r.y.length), out=inner[c0:c1])
        a, b = gx.cell_range(I)
        if ms:
            np.maximum(out[a:b], np.sqrt(inner / float(I.length))[None, :],
                       out=out[a:b])
        else:
            out[a:b] += inner[None, :] / float(I.length)
    return out if ms else np.sqrt(out)


@given(st.integers(0, 1), st.integers(2, 4), st.integers(0, 1), st.integers(2, 4),
       st.integers(0, 2 ** 31 - 1), st.sampled_from(["MS_H", "MS", "SM_H", "SM"]))
@settings(max_examples=30, deadline=None)
def test_max_square_per_shape_matches_per_rectangle(bx, rx, by, ry, seed, kind):
    """x and y may differ in box and resolution; the rectangle list is a
    shuffled subset with repeats."""
    gx, gy = Grid1D(bx, rx), Grid1D(by, ry)
    rng = np.random.default_rng(seed)
    h = GridFunction2D(gx, gy, rng.standard_normal((gx.n_points, gy.n_points)))
    rects = [DyadicRectangle(i, j) for i in enumerate_dyadic(gx, 1 - rx, bx)
             for j in enumerate_dyadic(gy, 1 - ry, by)]
    rects = [rects[int(i)] for i in rng.integers(0, len(rects), len(rects))]
    want = _hybrid_per_rectangle(h, rects, kind)
    got = hybrid_2d(h, kind, rects).samples
    assert np.max(want) > 0
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, float(np.max(want)))


def _mm_per_rectangle(h, rects) -> np.ndarray:
    """sup_R (average of |h| over R) chi_R, one rectangle slice at a time."""
    out = np.zeros(h.samples.shape)
    for r in rects:
        a, b = h.grid_x.cell_range(r.x)
        c0, c1 = h.grid_y.cell_range(r.y)
        avg = np.abs(h.samples[a:b, c0:c1]).mean()
        np.maximum(out[a:b, c0:c1], avg, out=out[a:b, c0:c1])
    return out


@given(st.integers(0, 1), st.integers(1, 4), st.integers(0, 1), st.integers(1, 4),
       st.integers(0, 2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_mm_per_shape_matches_per_rectangle(bx, rx, by, ry, seed):
    """MM over a shuffled rectangle list with repeats, single cells included,
    against the per-rectangle supremum of block averages."""
    gx, gy = Grid1D(bx, rx), Grid1D(by, ry)
    rng = np.random.default_rng(seed)
    h = GridFunction2D(gx, gy, rng.standard_normal((gx.n_points, gy.n_points)))
    rects = [DyadicRectangle(i, j) for i in enumerate_dyadic(gx, -rx, bx)
             for j in enumerate_dyadic(gy, -ry, by)]
    rects = [rects[int(i)] for i in rng.integers(0, len(rects), len(rects))]
    want = _mm_per_rectangle(h, rects)
    got = hybrid_2d(h, HybridKind.MM, rects).samples
    assert np.max(want) > 0
    assert np.max(np.abs(got - want)) <= 1e-12 * float(np.max(want))


@given(st.integers(0, 2), st.integers(2, 6), st.integers(0, 2 ** 31 - 1),
       st.booleans())
@settings(max_examples=20, deadline=None)
def test_square_1d_matches_per_interval(box, res, seed, haar):
    """S as one synthesis against the per-interval sum of |c_I|^2 / |I| chi_I,
    over a shuffled interval list with repeats."""
    g = Grid1D(box, res)
    rng = np.random.default_rng(seed)
    f = GridFunction1D(g, rng.standard_normal(g.n_points))
    ivs = enumerate_dyadic(g, 1 - res, box)
    ivs = [ivs[int(i)] for i in rng.integers(0, len(ivs), len(ivs))]
    family = HAAR_LACUNARY if haar else SMOOTH_LACUNARY
    want = np.zeros(g.n_points)
    for iv, c in zip(ivs, all_coefficients(f, ivs, family)):
        a, b = g.cell_range(iv)
        want[a:b] += c ** 2 / float(iv.length)
    want = np.sqrt(want)
    got = square_1d(f, ivs, family).samples
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, float(np.max(want)))
