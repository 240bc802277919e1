import math
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
                              coefficient, coefficient_naive, haar_eval,
                              haar_gather_2d, haar_pyramid, haar_pyramid_2d,
                              smooth_bump)

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
    assert coefficient(f, UNIT, HAAR_LACUNARY) == 0.0
    assert coefficient(f, UNIT, HAAR_NONLACUNARY) == 1.0
    half = GridFunction1D.indicator(G, [DyadicInterval(-1, 0)])
    assert coefficient(half, UNIT, HAAR_LACUNARY) == 0.5


def test_coefficient_resolution_error():
    g = Grid1D(0, 2)
    f = GridFunction1D.zeros(g)
    with pytest.raises(ResolutionError):
        coefficient(f, DyadicInterval(-2, 0), HAAR_LACUNARY)


def test_all_coefficients_example():
    half = GridFunction1D.indicator(G, [DyadicInterval(-1, 0)])
    seq = all_coefficients(half, [UNIT, DyadicInterval(-1, 0)], HAAR_LACUNARY)
    assert seq[UNIT] == 0.5
    assert seq[DyadicInterval(-1, 0)] == 0.0
    zero = all_coefficients(GridFunction1D.zeros(G), [UNIT], HAAR_NONLACUNARY)
    assert all(v == 0.0 for _, v in zero.items())


def test_fast_pyramid_matches_naive():
    rng = np.random.default_rng(3)
    f = GridFunction1D(G, rng.standard_normal(G.n_points))
    pyramid = haar_pyramid(f)
    for family in (HAAR_LACUNARY, HAAR_NONLACUNARY):
        for iv in enumerate_dyadic(G, 1 - G.res_exp, 0):
            fast = coefficient(f, iv, family, pyramid)
            assert fast == pytest.approx(coefficient_naive(f, iv, family), abs=1e-12)


def test_parseval_reconstruction():
    rng = np.random.default_rng(4)
    f = GridFunction1D(G, rng.standard_normal(G.n_points))
    wavelets = enumerate_dyadic(G, 1 - G.res_exp, 0)
    seq = all_coefficients(f, wavelets, HAAR_LACUNARY)
    total = sum(v * v for _, v in seq.items())
    total += coefficient(f, UNIT, HAAR_NONLACUNARY) ** 2
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
        member = smooth_bump(DyadicInterval(-1, 0), False, self.grid, decay=10)
        peak = float(np.max(np.abs(member)))
        x_cell = self.grid.cell_of(4)
        dist_ratio = (4 - 0.5) / 0.5
        assert abs(member[x_cell]) <= peak * (1 + dist_ratio) ** -10 * 1e3

    def test_band_localization(self):
        lac = smooth_bump(self.interval, True, self.grid)
        nonlac = smooth_bump(self.interval, False, self.grid)
        assert band_energy_fraction(lac, self.grid, self.interval, True) >= 0.99
        assert band_energy_fraction(nonlac, self.grid, self.interval, False) >= 0.99

    def test_decay_order_validated(self):
        with pytest.raises(ConfigError):
            smooth_bump(self.interval, False, self.grid, decay=1)


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
        fast = haar_gather_2d(pyr, (r.x.k, r.y.k), [r.x.n], [r.y.n], True, True)
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
            fast = haar_gather_2d(pyr, (I_k, J_k), nx, ny, lac_x, lac_y)
            for c, m, n in zip(fast, nx, ny):
                mx = fx.member(DyadicInterval(I_k, int(m)), gx)
                my = fy.member(DyadicInterval(J_k, int(n)), gy)
                assert abs(c - float(mx @ h.samples @ my) * wx * wy) <= 1e-12


def test_haar_gather_rejects_unresolved_shapes():
    g = Grid1D(0, 2)
    pyr = haar_pyramid_2d(GridFunction2D.zeros(g, g))
    with pytest.raises(ResolutionError):
        haar_gather_2d(pyr, (-2, 0), [0], [0], True, False)
    with pytest.raises(DomainError):
        haar_gather_2d(pyr, (-1, 0), [2], [0], True, False)


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
