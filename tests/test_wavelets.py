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
                              coefficient_naive, haar_eval,
                              haar_gather_2d, haar_pyramid_2d,
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
    The bad interval sits between good ones, in 1D and on either axis of the
    2D kernel's quadrature path."""
    g = Grid1D(0, 5)
    f = GridFunction1D(g, np.random.default_rng(0).standard_normal(g.n_points))
    h = GridFunction2D(g, g, np.ones((g.n_points, g.n_points)))
    finest = ResolutionError if family == HAAR_LACUNARY else None
    cases = [(DyadicInterval(-7, 0), ResolutionError),
             (DyadicInterval(-5, 0), finest),
             (DyadicInterval(-2, 4), DomainError),
             (DyadicInterval(-2, -4), DomainError),
             (DyadicInterval(1, 0), DomainError)]
    for bad, error in cases:
        ivs = [UNIT, bad, DyadicInterval(-1, 1)]
        rects = [DyadicRectangle(UNIT, UNIT), DyadicRectangle(bad, UNIT),
                 DyadicRectangle(UNIT, bad)]
        if error is None:
            got = all_coefficients(f, ivs, family)
            assert got[1] == coefficient_naive(f, bad, family)
            all_coefficients_2d(h, rects, family, SMOOTH_NONLACUNARY)
            continue
        with pytest.raises(error):
            all_coefficients(f, ivs, family)
        with pytest.raises(error):
            all_coefficients_2d(h, rects[:2], family, SMOOTH_NONLACUNARY)
        with pytest.raises(error):
            all_coefficients_2d(h, rects[::2], SMOOTH_NONLACUNARY, family)


def test_all_coefficients_example():
    half = GridFunction1D.indicator(G, [DyadicInterval(-1, 0)])
    seq = all_coefficients(half, [UNIT, DyadicInterval(-1, 0)], HAAR_LACUNARY)
    assert seq.tolist() == [0.5, 0.0]
    zero = all_coefficients(GridFunction1D.zeros(G), [UNIT], HAAR_NONLACUNARY)
    assert zero.tolist() == [0.0]
    assert all_coefficients(half, [], SMOOTH_LACUNARY).shape == (0,)


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
