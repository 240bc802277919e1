"""Dyadic maximal functions, square functions and the 2D hybrid operators.

Two kernels build every operator here.  _strong_maximal_full, a
max-recurrence over the scale lattice, gives the supremum over every dyadic
rectangle of the box: maximal_function (M) is its one-column case and
maximal_function_2d (MM over the box) is it.  _assemble builds SS, MS, SM and
MM over a RectangleTable, one x scale at a time, from the rectangle terms.
square_1d (S) is one wavelets.synthesize call.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Sequence

import numpy as np

from .dyadic import (DyadicInterval, DyadicRectangle, Grid1D, GridFunction1D,
                     GridFunction2D, RectangleTable, enumerate_dyadic)
from .errors import ConfigError, DomainError, ResolutionError
from .wavelets import (CutoffFamily, all_coefficients, all_coefficients_2d,
                       block_sums, synthesize, HAAR_LACUNARY, HAAR_NONLACUNARY,
                       SMOOTH_LACUNARY, SMOOTH_NONLACUNARY)

__all__ = [
    "HybridKind",
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


def _strong_maximal_full(a: np.ndarray) -> np.ndarray:
    """sup over all dyadic rectangles of the box of the average of a >= 0.

    best[i, j] on blocks of 2^i x 2^j cells is max(avg[i, j],
    up_x(best[i+1, j]), up_y(best[i, j+1])), swept one x level at a time from
    the box down, so only two x levels of best are alive at once.  It writes
    into a, so callers pass a fresh array (np.abs makes one).
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


def maximal_function(f: GridFunction1D) -> GridFunction1D:
    """Dyadic Hardy-Littlewood maximal function: the supremum over all dyadic
    subintervals of the box, from single grid cells up to the box itself."""
    a = np.abs(f.samples).astype(float, copy=False)
    return GridFunction1D(f.grid, _strong_maximal_full(a[:, None])[:, 0])


def maximal_function_2d(h: GridFunction2D) -> GridFunction2D:
    """Dyadic strong maximal function MM over all dyadic rectangles of the
    box, the enlargement of exceptional sets; hybrid_2d gives MM over a
    rectangle collection."""
    a = np.abs(h.samples).astype(float, copy=False)
    return GridFunction2D(h.grid_x, h.grid_y, _strong_maximal_full(a))


def square_1d(f: GridFunction1D, collection: Sequence[DyadicInterval],
              family: CutoffFamily) -> GridFunction1D:
    """Discretized Littlewood-Paley square function over the collection,
    (sum_I |<f, member_I>|^2 / |I| chi_I)^(1/2)."""
    if not family.lacunary:
        raise ConfigError("square function requires a lacunary family")
    collection = tuple(collection)
    ks = np.array([iv.k for iv in collection], dtype=float)
    c = np.abs(all_coefficients(f, collection, family)) ** 2 * 2.0 ** (-ks / 2.0)
    # 2^(-k/2) chi_I is the Haar non-lacunary member on I
    acc = synthesize(c, collection, HAAR_NONLACUNARY, f.grid)
    return GridFunction1D(f.grid, np.sqrt(acc))


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


def _assemble(gx: Grid1D, gy: Grid1D, groups: dict, terms: np.ndarray,
              inner: np.ufunc, transform, outer: np.ufunc) -> np.ndarray:
    """The grid array built from one term per rectangle, x scale by x scale.

    For each x scale kx, coarse to fine, the terms of its shapes are reduced
    by inner (add or maximum) over the rectangles I x J that share I, each
    spread over the y cells of J: one row per x interval of scale kx.  The
    rows, after transform(rows, kx), are combined by outer with the result so
    far, refined in x.
    """
    acc = np.zeros((1, gy.n_points))
    for kx in sorted({kx for kx, _ in groups}, reverse=True):
        rows = None
        for (sx, ky), (idx, nx, ny) in groups.items():
            if sx != kx:
                continue
            coarse = _coarse(gx, gy, (kx, ky), nx, ny)
            inner.at(coarse, (nx, ny), terms[idx])
            if rows is None:
                rows = np.zeros((coarse.shape[0], gy.n_points))
            view = rows.reshape(coarse.shape + (-1,))
            inner(view, coarse[:, :, None], out=view)
        rows = transform(rows, kx)
        view = rows.reshape(acc.shape[0], -1, gy.n_points)
        outer(view, acc[:, None, :], out=view)
        acc = rows
    return np.repeat(acc, gx.n_points // acc.shape[0], axis=0)


# lacunary x and y members, inner ufunc, row transform, outer ufunc
_PLANS = {
    "SS": (1, 1, np.add, lambda r, kx: r * math.ldexp(1.0, -kx), np.add),
    "MS": (0, 1, np.add, lambda r, kx: np.sqrt(r) * 2.0 ** (-kx / 2.0), np.maximum),
    "SM": (1, 0, np.maximum, lambda r, kx: r * math.ldexp(1.0, -kx), np.add),
    "MM": (0, 0, np.maximum, lambda r, kx: r, np.maximum),
}


def hybrid_2d(h: GridFunction2D, kind: HybridKind,
              rectangles: RectangleTable | Sequence[DyadicRectangle],
              coefficients: np.ndarray | None = None) -> GridFunction2D:
    """The 2D hybrid operators SS, (SS)^H, MS, (MS)^H, SM, (SM)^H and MM:

      SS  (sum_R |c_R|^2 / |R| chi_R)^(1/2),
      MS  sup_I |I|^(-1/2) (sum_J |c_{I x J}|^2 / |J| chi_J(y))^(1/2) chi_I(x),
      SM  (sum_I [sup_J |c_{I x J}| / |J| chi_J(y)] / |I| chi_I(x))^(1/2),
      MM  sup_R (the average of |h| over R) chi_R,

    each one _assemble over the shapes of the rectangles, a
    dyadic.RectangleTable or a rectangle sequence that is turned into one.
    SM's inner supremum enters to the first power, exactly as displayed.
    The coefficients c_R, for the kind's families (Haar for MM and the _H
    kinds, smooth otherwise; for MM the non-lacunary ones of |h|), come from
    wavelets.all_coefficients_2d, unless the caller passes them, in rectangle
    order, as coefficients.
    """
    kind = HybridKind(kind)
    if kind in (HybridKind.M, HybridKind.S):
        raise ConfigError(f"{kind.value} is one-dimensional; use the 1d entry points")
    base = kind.value[:2]
    lac_x, lac_y, inner, transform, outer = _PLANS[base]
    fams = ((HAAR_NONLACUNARY, HAAR_LACUNARY) if kind.value.endswith("_H")
            or base == "MM" else (SMOOTH_NONLACUNARY, SMOOTH_LACUNARY))
    table = RectangleTable.of(rectangles)
    if coefficients is None:
        src = GridFunction2D(h.grid_x, h.grid_y, np.abs(h.samples)) if base == "MM" else h
        coeffs = all_coefficients_2d(src, table, fams[lac_x], fams[lac_y])
    elif np.shape(coefficients) != (len(table),):
        raise ConfigError(f"expected {len(table)} rectangle coefficients, "
                          f"got shape {np.shape(coefficients)}")
    else:
        coeffs = coefficients
    if base == "MM":  # the averages c_R / |R|^(1/2)
        terms = np.abs(coeffs) * 2.0 ** (-(table.kx + table.ky) / 2.0)
    else:  # |c_R|^2 / |J| or |c_R| / |J|
        terms = np.abs(coeffs) ** (2 if inner is np.add else 1) * np.ldexp(1.0, -table.ky)
    out = _assemble(h.grid_x, h.grid_y, table.groups, terms, inner, transform, outer)
    if outer is np.add:
        np.sqrt(out, out=out)
    return GridFunction2D(h.grid_x, h.grid_y, out)


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
