import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dyadlab.dyadic import (DyadicInterval, DyadicRectangle, Grid1D,
                            GridFunction1D, GridFunction2D, RectangleTable,
                            _level_below, contains, disjoint, enumerate_dyadic,
                            measure_intersection, tensor)
from dyadlab.errors import ConfigError, DomainError, ResolutionError


intervals = st.builds(DyadicInterval,
                      st.integers(min_value=-6, max_value=3),
                      st.integers(min_value=0, max_value=40))


def test_contains_examples():
    assert contains(DyadicInterval(0, 0), DyadicInterval(-1, 0))
    assert not contains(DyadicInterval(0, 0), DyadicInterval(0, 1))
    # [0,4) contains [2,3): endpoint arithmetic across scales
    assert contains(DyadicInterval(2, 0), DyadicInterval(0, 2))


def test_interval_geometry():
    iv = DyadicInterval(-2, 5)  # [5/4, 6/4)
    assert iv.left == Fraction(5, 4) and iv.right == Fraction(3, 2)
    assert iv.length == Fraction(1, 4)
    assert iv.parent() == DyadicInterval(-1, 2)
    a, b = iv.children()
    assert contains(iv, a) and contains(iv, b) and disjoint(a, b)


@given(intervals, intervals)
def test_dyadic_dichotomy(a, b):
    assert contains(a, b) or contains(b, a) or disjoint(a, b)


@given(intervals)
def test_parent_contains(a):
    assert contains(a.parent(), a)
    assert a.parent().length == 2 * a.length


def test_measure_intersection_examples():
    g = Grid1D(0, 4)
    full = GridFunction1D.indicator(g, [DyadicInterval(0, 0)])
    assert measure_intersection(DyadicInterval(0, 0), full) == 1
    empty = GridFunction1D.zeros(g)
    assert measure_intersection(DyadicInterval(0, 0), empty) == 0
    quarter = GridFunction1D.indicator(g, [DyadicInterval(-2, 0)])
    assert measure_intersection(DyadicInterval(0, 0), quarter) == Fraction(1, 4)


def test_measure_intersection_monotone():
    g = Grid1D(1, 5)
    small = GridFunction1D.indicator(g, [DyadicInterval(-2, 1)])
    large = GridFunction1D.indicator(g, [DyadicInterval(-2, 1), DyadicInterval(-1, 3)])
    for iv in enumerate_dyadic(g, -3, 1):
        assert measure_intersection(iv, small) <= measure_intersection(iv, large)


def test_measure_intersection_errors():
    g = Grid1D(0, 3)
    with pytest.raises(DomainError):
        measure_intersection(DyadicInterval(0, 1), GridFunction1D.zeros(g))
    bad = GridFunction1D(g, 0.5 * np.ones(g.n_points))
    with pytest.raises(ValueError):
        measure_intersection(DyadicInterval(0, 0), bad)


def test_enumerate_dyadic_counts():
    assert [i for i in enumerate_dyadic(Grid1D(0, 0), 0, 0)] == [DyadicInterval(0, 0)]
    assert len(enumerate_dyadic(Grid1D(0, 0), -1, 0)) == 3
    assert len(enumerate_dyadic(Grid1D(1, 0), -1, 1)) == 7
    with pytest.raises(ValueError):
        enumerate_dyadic(Grid1D(0, 0), 1, 0)


def test_grid_quadrature_exact():
    g = Grid1D(2, 5)
    one = GridFunction1D(g, np.ones(g.n_points))
    assert one.integral() == 4.0  # the box length, with zero quadrature error
    assert g.n_points == 2 ** (2 + 5)


def test_cell_range_validation():
    g = Grid1D(0, 2)  # four cells
    assert g.cell_range(DyadicInterval(-1, 1)) == (2, 4)
    with pytest.raises(ResolutionError):
        g.cell_range(DyadicInterval(-3, 0))
    with pytest.raises(DomainError):
        g.cell_range(DyadicInterval(0, 1))


def _cell_range_reference(grid: Grid1D, iv: DyadicInterval) -> tuple[int, int]:
    """Cell range by exact Fraction arithmetic on the interval's endpoints."""
    if iv.k < -grid.res_exp:
        raise ResolutionError(str(iv))
    lo, hi = iv.left / grid.cell_width, iv.right / grid.cell_width
    if lo.denominator != 1 or hi.denominator != 1:
        raise ResolutionError(str(iv))
    if lo < 0 or hi > grid.n_points:
        raise DomainError(str(iv))
    return int(lo), int(hi)


@given(st.integers(0, 3), st.integers(0, 6), st.integers(-9, 4),
       st.integers(-20, 80))
@example(1, 2, -3, 0)  # finer than the grid
@example(0, 2, 0, 1)   # past the right end of the box
@example(2, 1, -1, -1)  # left of the box
def test_cell_range_matches_fraction_reference(box_exp, res_exp, k, n):
    g, iv = Grid1D(box_exp, res_exp), DyadicInterval(k, n)
    try:
        want = _cell_range_reference(g, iv)
    except (ResolutionError, DomainError) as exc:
        with pytest.raises(type(exc)):
            g.cell_range(iv)
    else:
        assert g.cell_range(iv) == want


def test_tensor_matches_pointwise_product():
    g = Grid1D(0, 3)
    rng = np.random.default_rng(0)
    f = GridFunction1D(g, rng.standard_normal(g.n_points))
    h = GridFunction1D(g, rng.standard_normal(g.n_points))
    t = tensor(f, h)
    for i in range(g.n_points):
        for j in range(g.n_points):
            assert t.samples[i, j] == f.samples[i] * h.samples[j]


def test_rectangle_area():
    r = DyadicRectangle(DyadicInterval(-1, 0), DyadicInterval(2, 1))
    assert r.area == Fraction(1, 2) * 4


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_grid_functions_reject_non_finite_samples(bad):
    g = Grid1D(0, 2)
    samples = np.zeros(g.n_points, dtype=type(bad))
    samples[1] = bad
    with pytest.raises(ConfigError):
        GridFunction1D(g, samples)
    with pytest.raises(ConfigError):
        GridFunction2D(g, g, np.tile(samples, (g.n_points, 1)))


DBL_MAX = sys.float_info.max
TINY = math.ldexp(1.0, -1074)  # the smallest subnormal
positive_floats = st.one_of(
    st.floats(min_value=TINY, max_value=DBL_MAX),
    st.integers(-1074, 1023).map(lambda e: math.ldexp(1.0, e)))


def _level_below_reference(num: float, den: float) -> int:
    """Largest n with den 2^n < num, in exact rational arithmetic."""
    q = Fraction(num) / Fraction(den)
    n = q.numerator.bit_length() - q.denominator.bit_length()
    while Fraction(2) ** n >= q:
        n -= 1
    while Fraction(2) ** (n + 1) < q:
        n += 1
    return n


@given(positive_floats, positive_floats)
@example(TINY, 1.0)
@example(1.0, TINY)
@example(DBL_MAX, TINY)
@example(TINY, DBL_MAX)
@example(DBL_MAX, DBL_MAX)
@example(1.0, 1.0)
@example(3 * TINY, 2.0)
def test_level_below_matches_fraction_reference(num, den):
    want = _level_below_reference(num, den)
    assert _level_below(num, den) == want
    assert _level_below(np.array([num, num]), den).tolist() == [want, want]
    assert _level_below(num) == _level_below_reference(num, 1.0)


@given(positive_floats, st.floats(1e-150, 1e150), st.floats(1e-150, 1e150))
def test_level_below_two_factors_reads_the_float_product(num, c, w):
    """With c * w a normal float, the level against the factors c and w is
    the level against their float product: c 2^n w < num as it is written."""
    assert _level_below(num, c, w) == _level_below_reference(num, c * w)


def _full_rectangles_reference(gx, gy, k_min):
    """The full rectangle list, built as DyadicRectangle objects: I outer."""
    xs = enumerate_dyadic(gx, k_min, gx.box_exp)
    ys = enumerate_dyadic(gy, k_min, gy.box_exp)
    return [DyadicRectangle(i, j) for i in xs for j in ys]


def _shape_groups_reference(rectangles):
    """shape -> (idx, nx, ny), grouped per rectangle in plain Python."""
    groups = {}
    for i, r in enumerate(rectangles):
        groups.setdefault((r.x.k, r.y.k), []).append((i, r.x.n, r.y.n))
    return {s: tuple(np.array(c, dtype=np.int64) for c in zip(*groups[s]))
            for s in sorted(groups)}


def _assert_table_reads_as(table, rects):
    """The table's arrays, groups and distinct intervals against the list."""
    assert len(table) == len(rects)
    for arr, col in ((table.kx, [r.x.k for r in rects]),
                     (table.nx, [r.x.n for r in rects]),
                     (table.ky, [r.y.k for r in rects]),
                     (table.ny, [r.y.n for r in rects])):
        assert arr.dtype == np.int64 and arr.tolist() == col
    ref = _shape_groups_reference(rects)
    assert list(table.groups) == list(ref)
    for s, (idx, nx, ny) in table.groups.items():
        for got, want in zip((idx, nx, ny), ref[s]):
            assert got.dtype == np.int64 and np.array_equal(got, want)
    xs, ys = table.x_intervals(), table.y_intervals()
    assert xs == sorted({r.x for r in rects}) and ys == sorted({r.y for r in rects})
    assert [xs[a] for a in table.x_inverse.tolist()] == [r.x for r in rects]
    assert [ys[b] for b in table.y_inverse.tolist()] == [r.y for r in rects]


@pytest.mark.parametrize("gx,gy,k_min", [
    (Grid1D(1, 6), Grid1D(1, 6), -4),   # the weak-type shape, smaller
    (Grid1D(0, 3), Grid1D(2, 3), -2),   # boxes of different sizes
    (Grid1D(1, 4), Grid1D(1, 4), 1),    # the box scale alone
    (Grid1D(2, 2), Grid1D(0, 5), 0)])
def test_full_table_matches_the_rectangle_list(gx, gy, k_min):
    rects = _full_rectangles_reference(gx, gy, k_min)
    full = RectangleTable.full(gx, gy, k_min)
    _assert_table_reads_as(full, rects)
    built = RectangleTable.of(rects)
    assert full == built and hash(full) == hash(built)
    for a, b in zip((full.x_k, full.x_n, full.x_inverse, full.y_k, full.y_n,
                     full.y_inverse), (built.x_k, built.x_n, built.x_inverse,
                                       built.y_k, built.y_n, built.y_inverse)):
        assert np.array_equal(a, b)


def test_enumerate_dyadic_order():
    g = Grid1D(1, 3)
    assert enumerate_dyadic(g, -1, 5) == [
        DyadicInterval(k, n) for k in (1, 0, -1) for n in range(2 ** (1 - k))]
    assert enumerate_dyadic(g, 2, 5) == []
    with pytest.raises(ValueError):
        enumerate_dyadic(g, 1, 0)


_POOL = _full_rectangles_reference(Grid1D(1, 3), Grid1D(0, 3), -3)


@given(st.lists(st.integers(0, len(_POOL) - 1), max_size=40))
@settings(max_examples=60, deadline=None)
def test_table_of_a_list_with_repeats(picks):
    """Any order, repeats included: the table reads as the list it came from."""
    rects = [_POOL[i] for i in picks]
    table = RectangleTable.of(rects)
    _assert_table_reads_as(table, rects)
    assert RectangleTable.of(table) is table
    assert list(table) == rects
    for i in range(-len(rects), len(rects)):
        assert table[i] == rects[i]
    for sl in (slice(None), slice(1, None), slice(None, -1), slice(None, None, -2)):
        assert table[sl] == tuple(rects[sl])
    with pytest.raises(IndexError):
        table[len(rects)]
    assert (rects[0] in table) if rects else (_POOL[0] not in table)
    assert table.kx.flags.writeable is False
