import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dyadlab.dyadic import (DyadicInterval, DyadicRectangle, Grid1D,
                            GridFunction1D, GridFunction2D, RectangleTable,
                            contains, enumerate_dyadic)
from dyadlab.errors import ConfigError, DomainError, ResolutionError
from dyadlab.wavelets import (HAAR_LACUNARY, HAAR_NONLACUNARY, SMOOTH_LACUNARY,
                              SMOOTH_NONLACUNARY, CoefficientSequence,
                              CutoffFamily, all_coefficients,
                              all_coefficients_2d, band_energy_fraction,
                              _haar_gather_2d, coefficient_naive, haar_eval,
                              haar_pyramid_2d, smooth_bump, synthesize)

G = Grid1D(0, 6)
UNIT = DyadicInterval(0, 0)


def test_haar_eval_values():
    assert haar_eval(UNIT, True, 0.25) == 1.0
    assert haar_eval(UNIT, True, 0.75) == -1.0
    assert haar_eval(DyadicInterval(1, 0), True, 0.5) == pytest.approx(2 ** -0.5, abs=0)
    assert haar_eval(UNIT, True, 1.5) == 0.0
    assert haar_eval(UNIT, False, 0.9) == 1.0


def test_coefficient_examples():
    f = GridFunction1D.indicator(G, [UNIT])
    assert all_coefficients(f, [UNIT], HAAR_LACUNARY)[0] == 0.0
    assert all_coefficients(f, [UNIT], HAAR_NONLACUNARY)[0] == 1.0
    half = GridFunction1D.indicator(G, [DyadicInterval(-1, 0)])
    assert all_coefficients(half, [UNIT], HAAR_LACUNARY)[0] == 0.5


FAMILIES = [HAAR_LACUNARY, HAAR_NONLACUNARY, SMOOTH_LACUNARY, SMOOTH_NONLACUNARY]


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.kind)
def test_coefficient_resolution_error(family):
    """On a 2^-5 grid of [0, 1): a scale finer than the grid, a position
    outside the box, a negative position and a scale coarser than the box
    raise in every family, the finest scale only where its halves are read.
    The bad interval sits between good ones, in both 1D kernels and on
    either axis of the 2D kernel, against a smooth family and, for Haar, both
    Haar families: every family pair raises the same error."""
    g = Grid1D(0, 5)
    f = GridFunction1D(g, np.random.default_rng(0).standard_normal(g.n_points))
    h = GridFunction2D(g, g, np.ones((g.n_points, g.n_points)))
    finest = ResolutionError if family == HAAR_LACUNARY else None
    cases = [(DyadicInterval(-7, 0), ResolutionError),
             (DyadicInterval(-5, 0), finest),
             (DyadicInterval(-2, 4), DomainError),
             (DyadicInterval(-2, -4), DomainError),
             (DyadicInterval(1, 0), DomainError)]
    # a Haar family also meets both Haar families on the other axis
    others = [SMOOTH_NONLACUNARY] + (
        [HAAR_LACUNARY, HAAR_NONLACUNARY] if family.haar else [])
    for bad, error in cases:
        ivs = [UNIT, bad, DyadicInterval(-1, 1)]
        rects = [DyadicRectangle(UNIT, UNIT), DyadicRectangle(bad, UNIT),
                 DyadicRectangle(UNIT, bad)]
        if error is None:
            got = all_coefficients(f, ivs, family)
            assert got[1] == coefficient_naive(f, bad, family)
            assert synthesize(np.ones(3), ivs, family, g).shape == (g.n_points,)
        else:
            with pytest.raises(error):
                all_coefficients(f, ivs, family)
            with pytest.raises(error):
                synthesize(np.ones(3), ivs, family, g)
        for other in others:
            if error is None:
                all_coefficients_2d(h, rects[:2], family, other)
                all_coefficients_2d(h, rects[::2], other, family)
                continue
            with pytest.raises(error):
                all_coefficients_2d(h, rects[:2], family, other)
            with pytest.raises(error):
                all_coefficients_2d(h, rects[::2], other, family)


def test_all_coefficients_example():
    half = GridFunction1D.indicator(G, [DyadicInterval(-1, 0)])
    seq = all_coefficients(half, [UNIT, DyadicInterval(-1, 0)], HAAR_LACUNARY)
    assert seq.tolist() == [0.5, 0.0]
    zero = all_coefficients(GridFunction1D.zeros(G), [UNIT], HAAR_NONLACUNARY)
    assert zero.tolist() == [0.0]
    assert all_coefficients(half, [], SMOOTH_LACUNARY).shape == (0,)


def _random_collection(rng, grid, family):
    """Intervals the family resolves on the grid, in any order, with repeats."""
    lac = int(family.haar and family.lacunary)
    ivs = enumerate_dyadic(grid, lac - grid.res_exp, grid.box_exp)
    return [ivs[int(i)]
            for i in rng.integers(0, len(ivs), rng.integers(1, len(ivs) + 8))]


@given(st.integers(0, 2), st.integers(2, 8), st.sampled_from(FAMILIES),
       st.integers(0, 2 ** 31 - 1))
@settings(max_examples=60, deadline=None)
def test_synthesize_is_the_transpose_of_all_coefficients(box, cells, family, seed):
    """<synthesize(c), f> = <c, all_coefficients(f)> on grids of 2^2 to 2^8
    cells, within 1e-12 of the same pairing over absolute values (the
    collection comes in any order, with repeats)."""
    g = Grid1D(box, cells - box)
    rng = np.random.default_rng(seed)
    f = GridFunction1D(g, rng.standard_normal(g.n_points))
    collection = _random_collection(rng, g, family)
    c = rng.standard_normal(len(collection))
    w = float(g.cell_width)
    lhs = float(np.sum(synthesize(c, collection, family, g) * f.samples)) * w
    rhs = float(np.sum(c * all_coefficients(f, collection, family)))
    members = np.array([family.member(iv, g) for iv in collection])
    scale = float(np.abs(c) @ (np.abs(members) @ np.abs(f.samples))) * w
    assert abs(lhs - rhs) <= 1e-12 * scale


@given(st.integers(0, 1), st.integers(2, 6), st.sampled_from(FAMILIES),
       st.integers(0, 2 ** 31 - 1))
@settings(max_examples=60, deadline=None)
def test_synthesize_columns_are_the_members(box, cells, family, seed):
    """At up to 64 cells, synthesizing the unit coefficient vectors, as one
    trailing axis, gives the dense matrix of member rows, ==."""
    g = Grid1D(box, cells - box)
    collection = _random_collection(np.random.default_rng(seed), g, family)
    dense = np.array([family.member(iv, g) for iv in collection])
    got = synthesize(np.eye(len(collection)), collection, family, g)
    assert got.shape == (g.n_points, len(collection))
    assert np.array_equal(got, dense.T)
    assert synthesize([], [], family, g).shape == (g.n_points,)
    with pytest.raises(ConfigError):
        synthesize(np.ones(len(collection) + 1), collection, family, g)


def _pyramid_read(f, iv, lacunary):
    """The Haar coefficient of f on iv from pairwise block sums built here."""
    b = f.samples * math.ldexp(1.0, -f.grid.res_exp)
    for _ in range(iv.k - lacunary + f.grid.res_exp):
        b = b[0::2] + b[1::2]
    n = iv.n << lacunary
    return 2.0 ** (-iv.k / 2.0) * (b[n] - b[n + 1] if lacunary else b[n])


@given(st.integers(0, 2), st.integers(2, 5), st.sampled_from(FAMILIES),
       st.integers(0, 2 ** 31 - 1))
@settings(max_examples=60, deadline=None)
def test_fast_pyramid_matches_naive(box, res, family, seed):
    """The per-scale kernel on a random collection in any order, with
    repeats, against one quadrature per interval; Haar reads are also == to
    a pyramid read of their own."""
    g = Grid1D(box, res)
    rng = np.random.default_rng(seed)
    f = GridFunction1D(g, rng.standard_normal(g.n_points))
    lac = int(family.haar and family.lacunary)
    ivs = enumerate_dyadic(g, lac - res, box)
    collection = [ivs[int(i)]
                  for i in rng.integers(0, len(ivs), rng.integers(0, len(ivs) + 8))]
    got = all_coefficients(f, collection, family)
    assert got.shape == (len(collection),)
    for c, iv in zip(got.tolist(), collection):
        assert abs(c - coefficient_naive(f, iv, family)) <= 1e-12
        if family.haar:
            assert c == _pyramid_read(f, iv, lac)


def test_parseval_reconstruction():
    rng = np.random.default_rng(4)
    f = GridFunction1D(G, rng.standard_normal(G.n_points))
    wavelets = enumerate_dyadic(G, 1 - G.res_exp, 0)
    seq = all_coefficients(f, wavelets, HAAR_LACUNARY)
    total = float(np.sum(seq * seq))
    total += all_coefficients(f, [UNIT], HAAR_NONLACUNARY)[0] ** 2
    assert total == pytest.approx(f.norm(2) ** 2, abs=1e-10)


def test_orthonormality_fixed_scale():
    ivs = [DyadicInterval(-2, n) for n in range(4)]
    for a in ivs:
        fa = GridFunction1D(G, HAAR_LACUNARY.member(a, G))
        for b in ivs:
            ip = coefficient_naive(fa, b, HAAR_LACUNARY)
            assert ip == pytest.approx(1.0 if a == b else 0.0, abs=1e-12)


def test_nested_scales_orthogonal():
    outer = GridFunction1D(G, HAAR_LACUNARY.member(UNIT, G))
    for iv in enumerate_dyadic(G, -3, -1):
        ip = coefficient_naive(outer, iv, HAAR_LACUNARY)
        # inner wavelet sees a constant; lacunary mean-zero kills it
        assert ip == pytest.approx(0.0, abs=1e-12)


def test_biest_support_fact():
    """Nonvanishing of <ind_P, psi_Q> forces Q strictly above P, and every
    strict dyadic ancestor produces a nonzero pairing."""
    ivs = enumerate_dyadic(G, -4, 0)
    for p in ivs:
        chi = GridFunction1D(G, HAAR_NONLACUNARY.member(p, G))
        for q in ivs:
            if q.length < p.length:
                continue
            ip = coefficient_naive(chi, q, HAAR_LACUNARY)
            if abs(ip) > 1e-12:
                assert contains(q, p)
            if contains(q, p) and q != p:
                assert abs(ip) == pytest.approx(
                    float(p.length) ** 0.5 / float(q.length) ** 0.5, abs=1e-12)


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_coefficient_linearity(seed):
    rng = np.random.default_rng(seed)
    f = GridFunction1D(G, rng.standard_normal(G.n_points))
    g = GridFunction1D(G, rng.standard_normal(G.n_points))
    a, b = rng.standard_normal(2)
    combo = GridFunction1D(G, a * f.samples + b * g.samples)
    for family in (HAAR_LACUNARY, SMOOTH_NONLACUNARY):
        iv = DyadicInterval(-1, rng.integers(0, 2))
        lhs = coefficient_naive(combo, iv, family)
        rhs = a * coefficient_naive(f, iv, family) + b * coefficient_naive(g, iv, family)
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestSmoothBumps:
    grid = Grid1D(3, 7)  # box [0,8)
    interval = DyadicInterval(-1, 4)  # [2, 5/2), well inside

    def test_normalization(self):
        for lac in (False, True):
            member = smooth_bump(self.interval, lac, self.grid)
            norm = math.sqrt(float(np.sum(member ** 2)) * float(self.grid.cell_width))
            assert norm == pytest.approx(1.0, abs=1e-6)

    def test_lacunary_mean_zero(self):
        member = smooth_bump(self.interval, True, self.grid)
        mean = abs(float(np.sum(member)) * float(self.grid.cell_width))
        assert mean <= 1e-8

    def test_decay(self):
        # |phi(x)| <= C (1 + dist(x, I)/|I|)^{-M} checked at a far point
        member = smooth_bump(DyadicInterval(-1, 0), False, self.grid)
        peak = float(np.max(np.abs(member)))
        x_cell = self.grid.cell_of(4)
        dist_ratio = (4 - 0.5) / 0.5
        assert abs(member[x_cell]) <= peak * (1 + dist_ratio) ** -10 * 1e3

    def test_band_localization(self):
        lac = smooth_bump(self.interval, True, self.grid)
        nonlac = smooth_bump(self.interval, False, self.grid)
        assert band_energy_fraction(lac, self.grid, self.interval, True) >= 0.99
        assert band_energy_fraction(nonlac, self.grid, self.interval, False) >= 0.99


def _smooth_profile_reference(interval, lacunary, grid):
    """The smooth member of one interval, by scalar arithmetic per interval."""
    length = float(interval.length)
    center = float(interval.left) + length / 2.0
    period = float(grid.length)
    d = (grid.points() - center) % period
    d[d > period / 2] -= period
    u = d / length
    if lacunary:
        env = np.exp(-u * u / 2.0)
        vals = env * np.cos(2.0 * np.pi * 1.5 * u)
        vals -= (float(vals.sum()) / float(env.sum())) * env
    else:
        vals = np.exp(-u * u / (2.0 * 1.4 ** 2))
    return vals / math.sqrt(float(np.sum(vals * vals)) * float(grid.cell_width))


@pytest.mark.parametrize("grid", [Grid1D(0, 2), Grid1D(0, 5), Grid1D(1, 6),
                                  Grid1D(2, 4), Grid1D(0, 8)], ids=str)
def test_stacked_smooth_members_equal_per_interval_profiles(grid):
    """Each scale's smooth members, built as one array, are == to the
    profiles built one interval at a time, and smooth_bump is its one-row
    case, on and off the box."""
    from dyadlab.wavelets import _stacked_members
    for family in (SMOOTH_LACUNARY, SMOOTH_NONLACUNARY):
        for k in range(-grid.res_exp, grid.box_exp + 1):
            ns = np.arange(1 << (grid.box_exp - k))
            ref = np.array([_smooth_profile_reference(DyadicInterval(k, int(n)),
                                                      family.lacunary, grid)
                            for n in ns])
            assert np.array_equal(_stacked_members(family, grid, k, ns), ref)
        for iv in (DyadicInterval(0, 0), DyadicInterval(-1, -3),
                   DyadicInterval(grid.box_exp + 1, 0)):
            assert np.array_equal(smooth_bump(iv, family.lacunary, grid),
                                  _smooth_profile_reference(iv, family.lacunary, grid))


@pytest.mark.parametrize("grid", [Grid1D(0, 0), Grid1D(0, 1), Grid1D(1, 0)], ids=str)
def test_vanishing_smooth_member_raises(grid):
    """On one or two cells the finest lacunary smooth member loses every
    sample to its mean correction: it raises, naming interval and grid,
    where it would be 0/0."""
    finest = DyadicInterval(-grid.res_exp, 0)
    f = GridFunction1D(grid, np.ones(grid.n_points))
    h = GridFunction2D(grid, grid, np.ones((grid.n_points, grid.n_points)))
    rect = [DyadicRectangle(finest, finest)]
    message = f"{re.escape(str(finest))} vanishes on {re.escape(str(grid))}"
    with pytest.raises(ResolutionError, match=message):
        smooth_bump(finest, True, grid)
    with pytest.raises(ResolutionError, match=message):
        all_coefficients(f, [finest], SMOOTH_LACUNARY)
    with pytest.raises(ResolutionError, match=message):
        all_coefficients_2d(h, rect, SMOOTH_LACUNARY, SMOOTH_NONLACUNARY)
    with pytest.raises(ResolutionError, match=message):
        all_coefficients_2d(h, rect, HAAR_NONLACUNARY, SMOOTH_LACUNARY)
    # the non-lacunary member has no mean to remove
    assert np.isfinite(smooth_bump(finest, False, grid)).all()


def test_family_kind_validation():
    with pytest.raises(ConfigError):
        CutoffFamily("sawtooth")


def test_coefficient_sequence_missing_is_zero():
    seq = CoefficientSequence({UNIT: 2.0}, (UNIT, DyadicInterval(-1, 0)))
    assert seq[DyadicInterval(-1, 0)] == 0.0
    assert seq[UNIT] == 2.0
    scaled = seq.scaled(3.0)
    assert scaled[UNIT] == 6.0


def test_coefficient_sequence_rejects_strays():
    with pytest.raises(ConfigError):
        CoefficientSequence({UNIT: 1.0}, (DyadicInterval(-1, 0),))


def _quadrature_2d(h, r, fx, fy) -> float:
    """<h, member_I tensor member_J> by direct quadrature on the grid."""
    mx = fx.member(r.x, h.grid_x)
    my = fy.member(r.y, h.grid_y)
    return float(mx @ h.samples @ my) * float(h.grid_x.cell_width) \
        * float(h.grid_y.cell_width)


def test_haar_pyramid_2d_matches_direct():
    g = Grid1D(0, 4)
    rng = np.random.default_rng(9)
    h = GridFunction2D(g, g, rng.standard_normal((g.n_points, g.n_points)))
    pyr = haar_pyramid_2d(h)
    rects = [DyadicRectangle(i, j)
             for i in enumerate_dyadic(g, -2, 0) for j in enumerate_dyadic(g, -2, 0)]
    for r in rects:
        fast = _haar_gather_2d(pyr, (r.x.k, r.y.k), [r.x.n], [r.y.n], True, True)
        direct = _quadrature_2d(h, r, HAAR_LACUNARY, HAAR_LACUNARY)
        assert abs(fast[0] - direct) <= 1e-12
    coarse = haar_pyramid_2d(h, (-1, -3))  # keeps only the levels it is asked for
    assert set(coarse) == {k for k in pyr if k[0] >= -1 and k[1] >= -3}
    assert all(np.array_equal(coarse[k], pyr[k]) for k in coarse)


@given(st.integers(0, 1), st.integers(1, 5), st.integers(0, 1), st.integers(1, 5),
       st.booleans(), st.booleans(), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=40, deadline=None)
def test_haar_gather_matches_quadrature(bx, rx, by, ry, lac_x, lac_y, seed):
    gx, gy = Grid1D(bx, rx), Grid1D(by, ry)
    rng = np.random.default_rng(seed)
    h = GridFunction2D(gx, gy, rng.standard_normal((gx.n_points, gy.n_points)))
    fx = HAAR_LACUNARY if lac_x else HAAR_NONLACUNARY
    fy = HAAR_LACUNARY if lac_y else HAAR_NONLACUNARY
    pyr = haar_pyramid_2d(h)
    wx, wy = float(gx.cell_width), float(gy.cell_width)
    for I_k in range(int(lac_x) - rx, bx + 1):
        for J_k in range(int(lac_y) - ry, by + 1):
            nx = rng.integers(0, 2 ** (bx - I_k), 3)
            ny = rng.integers(0, 2 ** (by - J_k), 3)
            fast = _haar_gather_2d(pyr, (I_k, J_k), nx, ny, lac_x, lac_y)
            for c, m, n in zip(fast, nx, ny):
                mx = fx.member(DyadicInterval(I_k, int(m)), gx)
                my = fy.member(DyadicInterval(J_k, int(n)), gy)
                assert abs(c - float(mx @ h.samples @ my) * wx * wy) <= 1e-12


def test_haar_all_coefficients_2d_rejects_unresolved_shapes():
    """A lacunary Haar member whose halves are finer than the grid, and a
    rectangle off the box, raise as in all_coefficients."""
    g = Grid1D(0, 2)
    h = GridFunction2D.zeros(g, g)
    with pytest.raises(ResolutionError):
        all_coefficients_2d(h, [DyadicRectangle(DyadicInterval(-2, 0), UNIT)],
                            HAAR_LACUNARY, HAAR_NONLACUNARY)
    with pytest.raises(DomainError):
        all_coefficients_2d(h, [DyadicRectangle(DyadicInterval(-1, 2), UNIT)],
                            HAAR_LACUNARY, HAAR_NONLACUNARY)


_FAMILY_PAIRS = [(SMOOTH_LACUNARY, SMOOTH_LACUNARY),
                 (SMOOTH_NONLACUNARY, SMOOTH_LACUNARY),
                 (HAAR_LACUNARY, SMOOTH_NONLACUNARY),
                 (SMOOTH_LACUNARY, HAAR_NONLACUNARY),
                 (HAAR_NONLACUNARY, HAAR_LACUNARY)]


@given(st.integers(0, 1), st.integers(1, 4), st.integers(0, 1), st.integers(1, 4),
       st.sampled_from(_FAMILY_PAIRS), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=40, deadline=None)
def test_all_coefficients_2d_matches_quadrature(bx, rx, by, ry, families, seed):
    """The kernel, in rectangle order, on a shuffled rectangle list with
    repeats, against one direct quadrature per rectangle."""
    gx, gy = Grid1D(bx, rx), Grid1D(by, ry)
    fx, fy = families
    rng = np.random.default_rng(seed)
    h = GridFunction2D(gx, gy, rng.standard_normal((gx.n_points, gy.n_points)))
    rects = [DyadicRectangle(i, j)
             for i in enumerate_dyadic(gx, int(fx.lacunary) - rx, bx)
             for j in enumerate_dyadic(gy, int(fy.lacunary) - ry, by)]
    rects = [rects[int(i)] for i in rng.integers(0, len(rects), len(rects) + 3)]
    got = all_coefficients_2d(h, RectangleTable.of(rects), fx, fy)
    assert got.shape == (len(rects),)
    for c, r in zip(got, rects):
        assert abs(c - _quadrature_2d(h, r, fx, fy)) <= 1e-12


def test_all_coefficients_2d_empty():
    g = Grid1D(0, 2)
    out = all_coefficients_2d(GridFunction2D.zeros(g, g), RectangleTable.of([]),
                              SMOOTH_LACUNARY, SMOOTH_LACUNARY)
    assert out.shape == (0,)
