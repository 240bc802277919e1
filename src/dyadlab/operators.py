"""Dyadic maximal functions, square functions and the 2D hybrid operators."""

from __future__ import annotations

import math
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .dyadic import (DyadicInterval, DyadicRectangle, Grid1D, GridFunction1D,
                     GridFunction2D, RectangleTable, enumerate_dyadic)
from .errors import ConfigError, DomainError, ResolutionError
from .wavelets import (CutoffFamily, all_coefficients, all_coefficients_2d,
                       block_sums, HAAR_LACUNARY, HAAR_NONLACUNARY, SMOOTH_LACUNARY,
                       SMOOTH_NONLACUNARY)

__all__ = [
    "HybridKind",
    "maximal_1d",
    "maximal_function",
    "maximal_function_2d",
    "square_1d",
    "hybrid_2d",
    "estimate_operator_norm",
]


class HybridKind(str, Enum):
    M = "M"
    S = "S"
    SS = "SS"
    SS_H = "SS_H"
    MS = "MS"
    MS_H = "MS_H"
    SM = "SM"
    SM_H = "SM_H"
    MM = "MM"


def maximal_function(f: GridFunction1D) -> GridFunction1D:
    """Dyadic Hardy-Littlewood maximal function on the whole grid.

    The supremum runs over all dyadic subintervals of the box, from single
    grid cells up to the box itself, as the recurrence from the box down
    best_i = max(avg_i, up(best_{i+1})) over blocks of 2^i cells.
    """
    levels = f.grid.box_exp + f.grid.res_exp
    sums = block_sums(np.abs(f.samples).astype(float, copy=False), 0, levels)
    best = sums[levels] * math.ldexp(1.0, -levels)
    for i in range(levels - 1, -1, -1):
        best = np.maximum(sums[i] * math.ldexp(1.0, -i), np.repeat(best, 2))
    return GridFunction1D(f.grid, best)


def maximal_1d(f: GridFunction1D, x) -> float:
    """Dyadic maximal function at one point."""
    return float(maximal_function(f).samples[f.grid.cell_of(x)])


def _strong_maximal_full(a: np.ndarray) -> np.ndarray:
    """sup over all dyadic rectangles of the box of the average of a >= 0.

    best[i, j] on blocks of 2^i x 2^j cells is max(avg[i, j],
    up_x(best[i+1, j]), up_y(best[i, j+1])), swept one x level at a time from
    the box down, so only two x levels of best are alive at once.
    """
    rows = block_sums(a, 0, a.shape[0].bit_length() - 1)
    ly = a.shape[1].bit_length() - 1
    above = None  # best on the x level above, per y level
    for i in range(len(rows) - 1, -1, -1):
        cur = block_sums(rows.pop(), 1, ly)
        for j in range(ly, -1, -1):
            b = cur[j]
            b *= math.ldexp(1.0, -(i + j))
            m, n = b.shape
            if above is not None:
                np.maximum(b.reshape(m // 2, 2, n), above[j][:, None, :],
                           out=b.reshape(m // 2, 2, n))
            if j < ly:
                np.maximum(b.reshape(m, n // 2, 2), cur[j + 1][:, :, None],
                           out=b.reshape(m, n // 2, 2))
        above = cur
    return above[0]


def maximal_function_2d(h: GridFunction2D,
                        rectangles: Iterable[DyadicRectangle] | None = None
                        ) -> GridFunction2D:
    """Dyadic strong maximal function MM.

    With rectangles=None the supremum runs over all dyadic rectangles of the
    box (the default used for exceptional-set enlargements), by a
    max-recurrence over the (kx, ky) scale lattice that visits each shape
    once at its own resolution; otherwise only over the rectangles of the
    given collection containing the point.
    """
    if rectangles is None:
        # a fresh array: the recurrence writes into its input
        best = _strong_maximal_full(np.abs(h.samples).astype(float, copy=False))
        return GridFunction2D(h.grid_x, h.grid_y, best)
    best = np.zeros((h.grid_x.n_points, h.grid_y.n_points))
    area = h.cell_area
    for r in rectangles:
        a, b = h.grid_x.cell_range(r.x)
        c, d = h.grid_y.cell_range(r.y)
        avg = (float(np.abs(h.samples[a:b, c:d]).sum()) * area
               / math.ldexp(1.0, r.x.k + r.y.k))
        np.maximum(best[a:b, c:d], avg, out=best[a:b, c:d])
    return GridFunction2D(h.grid_x, h.grid_y, best)


def square_1d(f: GridFunction1D, collection: Sequence[DyadicInterval],
              family: CutoffFamily) -> GridFunction1D:
    """Discretized Littlewood-Paley square function over the collection."""
    if not family.lacunary:
        raise ConfigError("square function requires a lacunary family")
    collection = tuple(collection)
    coeffs = all_coefficients(f, collection, family)
    acc = np.zeros(f.grid.n_points)
    for iv, c in zip(collection, coeffs.tolist()):
        a, b = f.grid.cell_range(iv)
        acc[a:b] += abs(c) ** 2 / math.ldexp(1.0, iv.k)
    return GridFunction1D(f.grid, np.sqrt(acc))


def _hybrid_families(kind: HybridKind,
                     families: tuple[CutoffFamily, CutoffFamily] | None
                     ) -> tuple[CutoffFamily, CutoffFamily]:
    haar = kind.value.endswith("_H")
    lac = HAAR_LACUNARY if haar else SMOOTH_LACUNARY
    nonlac = HAAR_NONLACUNARY if haar else SMOOTH_NONLACUNARY
    base = kind.value[:-2] if haar else kind.value
    defaults = {"SS": (lac, lac), "MS": (nonlac, lac), "SM": (lac, nonlac)}
    want_lac = {"SS": (True, True), "MS": (False, True), "SM": (True, False)}
    if families is None:
        return defaults[base]
    fx, fy = families
    if (fx.lacunary, fy.lacunary) != want_lac[base]:
        raise ConfigError(
            f"{kind.value} requires lacunarity pattern {want_lac[base]}")
    return fx, fy


def _coarse(gx: Grid1D, gy: Grid1D, shape: tuple[int, int], nx: np.ndarray,
            ny: np.ndarray) -> np.ndarray:
    """Zeros with one entry per rectangle of the shape in the box, after
    checking that the rectangles at (nx, ny) are resolved and inside it."""
    kx, ky = shape
    i, j = kx + gx.res_exp, ky + gy.res_exp
    if min(i, j) < 0:
        raise ResolutionError(f"rectangles of shape {shape} finer than the grid")
    coarse = np.zeros((gx.n_points >> i, gy.n_points >> j))
    if min(nx.min(), ny.min()) < 0 or nx.max() >= coarse.shape[0] \
            or ny.max() >= coarse.shape[1]:
        raise DomainError(f"rectangles of shape {shape} outside the domain")
    return coarse


def _square_sum_2d(gx: Grid1D, gy: Grid1D, groups: dict, coeffs: np.ndarray
                   ) -> np.ndarray:
    """(sum_R |c_R|^2 / |R| chi_R)^(1/2), assembled one rectangle shape at a time.

    Each shape scatters |c|^2 2^-(kx+ky) into a coarse array that is added at
    the resolution of its x scale; the sum is refined in x between x scales.
    Shapes run coarse to fine, so on the full pyramid every cell adds its
    terms in the order of the rectangle list."""
    acc = np.zeros((1, gy.n_points))
    for kx, ky in sorted(groups, reverse=True):
        idx, nx, ny = groups[(kx, ky)]
        coarse = _coarse(gx, gy, (kx, ky), nx, ny)
        if acc.shape[0] < coarse.shape[0]:
            acc = np.repeat(acc, coarse.shape[0] // acc.shape[0], axis=0)
        np.add.at(coarse, (nx, ny),
                  np.abs(coeffs[idx]) ** 2 * math.ldexp(1.0, -(kx + ky)))
        acc.reshape(acc.shape[0], -1, gy.n_points // coarse.shape[1])[...] \
            += coarse[:, :, None]
    return np.sqrt(np.repeat(acc, gx.n_points // acc.shape[0], axis=0))


def _x_scale_rows(gx: Grid1D, gy: Grid1D, groups: dict, terms: np.ndarray,
                  ufunc: np.ufunc):
    """For each x scale kx, fine to coarse: kx and the array over (x interval
    of scale kx, y cell) that reduces terms_R 2^-ky chi_J(y) with ufunc (add
    or maximum) over the rectangles R = I x J of that x scale."""
    for kx in sorted({kx for kx, _ in groups}):
        rows = None
        for (sx, ky), (idx, nx, ny) in groups.items():
            if sx != kx:
                continue
            coarse = _coarse(gx, gy, (kx, ky), nx, ny)
            ufunc.at(coarse, (nx, ny), terms[idx] * math.ldexp(1.0, -ky))
            fine = np.repeat(coarse, gy.n_points // coarse.shape[1], axis=1)
            rows = fine if rows is None else ufunc(rows, fine, out=rows)
        yield kx, rows


def hybrid_2d(h: GridFunction2D, kind: HybridKind,
              rectangles: RectangleTable | Sequence[DyadicRectangle],
              families: tuple[CutoffFamily, CutoffFamily] | None = None,
              coefficients: np.ndarray | None = None) -> GridFunction2D:
    """The 2D hybrid operators SS, (SS)^H, MS, (MS)^H, SM, (SM)^H and MM.

    rectangles is a dyadic.RectangleTable, or a rectangle sequence that is
    turned into one.  The rectangle coefficients of h for the kind's families
    come from wavelets.all_coefficients_2d, unless the caller passes them, in
    rectangle order, as coefficients.  Every kind but MM is assembled per
    shape of the table's groups: SS and (SS)^H shape by shape, MS and SM one
    x scale at a time, reducing over the y scales.
    """
    kind = HybridKind(kind)
    if kind in (HybridKind.M, HybridKind.S):
        raise ConfigError(f"{kind.value} is one-dimensional; use the 1d entry points")
    if kind == HybridKind.MM:
        return maximal_function_2d(h, rectangles)

    fx, fy = _hybrid_families(kind, families)
    table = RectangleTable.of(rectangles)
    groups = table.groups
    if coefficients is None:
        coeffs = all_coefficients_2d(h, table, fx, fy)
    elif np.shape(coefficients) != (len(table),):
        raise ConfigError(f"expected {len(table)} rectangle coefficients, "
                          f"got shape {np.shape(coefficients)}")
    else:
        coeffs = coefficients
    gx, gy = h.grid_x, h.grid_y
    base = kind.value[:-2] if kind.value.endswith("_H") else kind.value

    if base == "SS":
        return GridFunction2D(gx, gy, _square_sum_2d(gx, gy, groups, coeffs))

    out = np.zeros((gx.n_points, gy.n_points))
    if base == "MS":
        # sup_I |I|^{-1/2} (sum_J |<h, phi_I x psi_J>|^2 / |J| chi_J(y))^{1/2} chi_I(x)
        for kx, rows in _x_scale_rows(gx, gy, groups, np.abs(coeffs) ** 2, np.add):
            view = out.reshape(rows.shape[0], -1, gy.n_points)
            np.maximum(view, (np.sqrt(rows) * 2.0 ** (-kx / 2.0))[:, None, :], out=view)
        return GridFunction2D(gx, gy, out)

    # SM: (sum_I [sup_J |<h, psi_I x phi_J>| / |J| chi_J(y)] / |I| chi_I(x))^{1/2}
    # The inner supremum enters to the first power, exactly as displayed.
    for kx, rows in _x_scale_rows(gx, gy, groups, np.abs(coeffs), np.maximum):
        view = out.reshape(rows.shape[0], -1, gy.n_points)
        view += (rows * math.ldexp(1.0, -kx))[:, None, :]
    return GridFunction2D(gx, gy, np.sqrt(out))


def estimate_operator_norm(kind: HybridKind, p: float, trials: int, seed: int,
                           box_exp: int = 0, res_exp: int = 5,
                           rectangles: Sequence[DyadicRectangle] | None = None
                           ) -> float:
    """Empirical operator norm: max over random inputs of ||Op f||_p / ||f||_p.

    Deterministic for a given seed.  The supremum over inputs only grows with
    the trial count.  p = inf is admitted for M and MM only.
    """
    kind = HybridKind(kind)
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    if p == np.inf and kind not in (HybridKind.M, HybridKind.MM):
        raise ConfigError(f"p = inf is only admitted for M and MM, not {kind.value}")
    if not (1.0 < p) and p != np.inf:
        raise ConfigError("need 1 < p")
    from .harness import _rng
    rng = _rng(seed)
    gx = Grid1D(box_exp, res_exp)
    gy = Grid1D(box_exp, res_exp)
    one_dim = kind in (HybridKind.M, HybridKind.S)
    if not one_dim and rectangles is None:
        k_min = 1 - res_exp  # halves of every rectangle stay resolvable
        rectangles = RectangleTable.full(gx, gy, k_min)
    intervals = enumerate_dyadic(gx, 1 - res_exp, box_exp)
    best = 0.0
    for _ in range(trials):
        if one_dim:
            f = GridFunction1D(gx, rng.standard_normal(gx.n_points))
            nf = f.norm(p)
            if nf == 0.0:
                continue
            out = (maximal_function(f) if kind == HybridKind.M
                   else square_1d(f, intervals, SMOOTH_LACUNARY))
            best = max(best, out.norm(p) / nf)
        else:
            h = GridFunction2D(gx, gy,
                               rng.standard_normal((gx.n_points, gy.n_points)))
            nh = h.norm(p)
            if nh == 0.0:
                continue
            out = hybrid_2d(h, kind, rectangles)
            best = max(best, out.norm(p) / nh)
    return best
