"""Exact dyadic geometry: intervals, rectangles and periodic grid functions.

Interval endpoints are kept as integer (scale, position) pairs so containment,
disjointness and measures of grid sets are computed without floating point.
Functions are sampled on uniform periodic grids; every integral in the package
is a left-endpoint Riemann sum with uniform weights.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .errors import ConfigError, DomainError, ResolutionError

__all__ = [
    "DyadicInterval",
    "DyadicRectangle",
    "RectangleTable",
    "Grid1D",
    "GridFunction1D",
    "GridFunction2D",
    "contains",
    "disjoint",
    "measure_intersection",
    "enumerate_dyadic",
    "tensor",
]


@dataclass(frozen=True, order=True)
class DyadicInterval:
    """The half-open interval [n*2^k, (n+1)*2^k)."""

    k: int
    n: int

    @property
    def left(self) -> Fraction:
        return Fraction(self.n) * Fraction(2) ** self.k

    @property
    def right(self) -> Fraction:
        return Fraction(self.n + 1) * Fraction(2) ** self.k

    @property
    def length(self) -> Fraction:
        return Fraction(2) ** self.k

    def parent(self) -> "DyadicInterval":
        return DyadicInterval(self.k + 1, self.n // 2)

    def children(self) -> tuple["DyadicInterval", "DyadicInterval"]:
        return (DyadicInterval(self.k - 1, 2 * self.n),
                DyadicInterval(self.k - 1, 2 * self.n + 1))

    def contains_point(self, x) -> bool:
        return self.left <= Fraction(x) < self.right

    def __str__(self) -> str:  # e.g. I(k=-1,n=3)
        return f"I(k={self.k},n={self.n})"


def contains(a: DyadicInterval, b: DyadicInterval) -> bool:
    """True iff b is a subset of a (as sets of reals)."""
    if b.k > a.k:
        return False
    # b's ancestor at scale a.k has position b.n >> (a.k - b.k)
    return (b.n >> (a.k - b.k)) == a.n


def disjoint(a: DyadicInterval, b: DyadicInterval) -> bool:
    return not (contains(a, b) or contains(b, a))


@dataclass(frozen=True, order=True)
class DyadicRectangle:
    """Product R = I x J of two dyadic intervals."""

    x: DyadicInterval
    y: DyadicInterval

    @property
    def area(self) -> Fraction:
        return self.x.length * self.y.length

    def __str__(self) -> str:
        return f"R({self.x}x{self.y})"


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic grid on [0, 2^box_exp) with 2^res_exp points per unit;
    cell i is [i 2^-res_exp, (i+1) 2^-res_exp), so cell ranges are integer shifts."""

    box_exp: int
    res_exp: int

    def __post_init__(self):
        if self.res_exp < 0:
            raise ConfigError("res_exp must be nonnegative")

    @property
    def length(self) -> Fraction:
        return Fraction(2) ** self.box_exp

    @property
    def n_points(self) -> int:
        return 2 ** (self.box_exp + self.res_exp)

    @property
    def cell_width(self) -> Fraction:
        return Fraction(1, 2 ** self.res_exp)

    def points(self) -> np.ndarray:
        """Left endpoints of the grid cells, as floats."""
        return float(self.cell_width) * np.arange(self.n_points)

    def cell_of(self, x) -> int:
        """Index of the grid cell containing the point x."""
        idx = math.floor(x * 2 ** self.res_exp)  # exact for floats and Fractions
        if idx < 0 or idx >= self.n_points:
            raise DomainError(f"point {x} outside domain")
        return idx

    def cell_range(self, interval: DyadicInterval) -> tuple[int, int]:
        """Half-open index range [a, b) of the cells making up the interval.

        Raises ResolutionError if the interval is not a union of grid cells and
        DomainError if it is not contained in the domain.
        """
        s = interval.k + self.res_exp
        if s < 0:
            raise ResolutionError(
                f"{interval} finer than grid resolution 2^-{self.res_exp}")
        a, b = interval.n << s, (interval.n + 1) << s
        if a < 0 or b > self.n_points:
            raise DomainError(f"{interval} outside domain")
        return a, b


def _interval_table(intervals: Sequence[DyadicInterval], grid: Grid1D
                    ) -> tuple[np.ndarray, np.ndarray]:
    """The intervals' scales and positions as int64 arrays, checked."""
    try:
        ks = np.array([iv.k for iv in intervals], dtype=np.int64)
        ns = np.array([iv.n for iv in intervals], dtype=np.int64)
    except OverflowError:  # an interval beyond int64 lies off the grid
        for iv in intervals:
            grid.cell_range(iv)
        raise
    _check_intervals(ks, ns, grid)
    return ks, ns


def _check_intervals(ks: np.ndarray, ns: np.ndarray, grid: Grid1D) -> None:
    """Each I(ks[i], ns[i]) must be a union of grid cells inside the box; the
    first one that is not raises its cell_range error."""
    ok = (ks >= -grid.res_exp) & (ks <= grid.box_exp) & (ns >= 0)
    # the box holds 2^(box_exp - k) intervals of scale k
    ok[ok] = ns[ok] < np.left_shift(1, grid.box_exp - ks[ok])
    if not ok.all():
        i = int(np.argmin(ok))
        grid.cell_range(DyadicInterval(int(ks[i]), int(ns[i])))  # raises


def _check_finite(samples: np.ndarray) -> None:
    if not np.isfinite(samples).all():
        raise ConfigError("samples must be finite (no NaN or inf)")


@dataclass
class GridFunction1D:
    """Real- or complex-valued samples on a Grid1D (left-endpoint convention)."""

    grid: Grid1D
    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples)
        if self.samples.shape != (self.grid.n_points,):
            raise ValueError(
                f"expected {self.grid.n_points} samples, got {self.samples.shape}")
        _check_finite(self.samples)

    @classmethod
    def zeros(cls, grid: Grid1D) -> "GridFunction1D":
        return cls(grid, np.zeros(grid.n_points))

    @classmethod
    def indicator(cls, grid: Grid1D, intervals: Iterable[DyadicInterval]) -> "GridFunction1D":
        s = np.zeros(grid.n_points)
        for iv in intervals:
            a, b = grid.cell_range(iv)
            s[a:b] = 1.0
        return cls(grid, s)

    def integral(self) -> float:
        return float(np.sum(self.samples) * float(self.grid.cell_width))

    def norm(self, p: float) -> float:
        w = float(self.grid.cell_width)
        a = np.abs(self.samples)
        if p == np.inf:
            return float(a.max(initial=0.0))
        return float((np.sum(a ** p) * w) ** (1.0 / p))

    def restrict(self, interval: DyadicInterval) -> np.ndarray:
        a, b = self.grid.cell_range(interval)
        return self.samples[a:b]


@dataclass
class GridFunction2D:
    """Samples on a product grid; axis 0 is x, axis 1 is y."""

    grid_x: Grid1D
    grid_y: Grid1D
    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples)
        expect = (self.grid_x.n_points, self.grid_y.n_points)
        if self.samples.shape != expect:
            raise ValueError(f"expected shape {expect}, got {self.samples.shape}")
        _check_finite(self.samples)

    @classmethod
    def zeros(cls, grid_x: Grid1D, grid_y: Grid1D) -> "GridFunction2D":
        return cls(grid_x, grid_y, np.zeros((grid_x.n_points, grid_y.n_points)))

    @classmethod
    def indicator(cls, grid_x: Grid1D, grid_y: Grid1D,
                  rectangles: Iterable[DyadicRectangle]) -> "GridFunction2D":
        s = np.zeros((grid_x.n_points, grid_y.n_points))
        for r in rectangles:
            a, b = grid_x.cell_range(r.x)
            c, d = grid_y.cell_range(r.y)
            s[a:b, c:d] = 1.0
        return cls(grid_x, grid_y, s)

    @property
    def cell_area(self) -> float:
        return math.ldexp(1.0, -(self.grid_x.res_exp + self.grid_y.res_exp))

    def integral(self) -> float:
        return float(np.sum(self.samples) * self.cell_area)

    def norm(self, p: float) -> float:
        a = np.abs(self.samples)
        if p == np.inf:
            return float(a.max(initial=0.0))
        return float((np.sum(a ** p) * self.cell_area) ** (1.0 / p))

    def restrict(self, rect: DyadicRectangle) -> np.ndarray:
        a, b = self.grid_x.cell_range(rect.x)
        c, d = self.grid_y.cell_range(rect.y)
        return self.samples[a:b, c:d]


def tensor(f: GridFunction1D, g: GridFunction1D) -> GridFunction2D:
    """(f tensor g)(x, y) = f(x) g(y)."""
    return GridFunction2D(f.grid, g.grid, np.outer(f.samples, g.samples))


def measure_intersection(interval: DyadicInterval, indicator: GridFunction1D) -> Fraction:
    """|I ∩ S| for S given by a 0/1 grid indicator; exact for unions of cells."""
    vals = np.unique(indicator.samples)
    if not np.all(np.isin(vals, (0.0, 1.0))):
        raise ValueError("indicator must take values in {0, 1}")
    a, b = indicator.grid.cell_range(interval)
    count = int(np.count_nonzero(indicator.samples[a:b]))
    return count * indicator.grid.cell_width


def _dyadic_positions(box_exp: int, k_min: int, k_max: int
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Scales and positions of the dyadic subintervals of [0, 2^box_exp) with
    scales in [k_min, k_max], coarsest scale first, as int64 arrays."""
    if k_min > k_max:
        raise ValueError("k_min must be <= k_max")
    ks = np.arange(min(k_max, box_exp), k_min - 1, -1, dtype=np.int64)
    counts = np.left_shift(1, box_exp - ks)
    firsts = np.cumsum(counts) - counts
    return (np.repeat(ks, counts),
            np.arange(counts.sum(), dtype=np.int64) - np.repeat(firsts, counts))


def enumerate_dyadic(domain: Grid1D, k_min: int, k_max: int) -> list[DyadicInterval]:
    """All dyadic subintervals of the grid's box with scales in [k_min, k_max]
    (the grid's resolution is ignored here), coarsest scale first."""
    ks, ns = _dyadic_positions(domain.box_exp, k_min, k_max)
    return [DyadicInterval(k, n) for k, n in zip(ks.tolist(), ns.tolist())]


def _mantissa_product(factors) -> tuple[float, int]:
    """(m, e) with m in [1/2, 1) and m 2^e the product of the factors (> 0):
    mantissas multiply, rounded once for two factors as their float product
    is, and exponents add, so no intermediate overflows or underflows."""
    m, e = 1.0, 0
    for f in factors:
        fm, fe = math.frexp(f)
        m, e = m * fm, e + fe
    m, me = math.frexp(m)
    return m, e + me


def _level_below(num, *den):
    """Largest integer n with den[0] den[1] ... 2^n < num, for finite num > 0
    (a float or an array) and den > 0, exactly: with num = m 2^e it is an
    exponent difference, one less when the den mantissa is not below m."""
    md, ed = _mantissa_product(den)
    m, e = math.frexp(num) if isinstance(num, float) else np.frexp(num)
    return e - ed - (md >= m)


def _times_pow2(n: int, *factors) -> float:
    """factors[0] factors[1] ... 2^n, the threshold of level n."""
    m, e = _mantissa_product(factors)
    return math.ldexp(m, e + n)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _distinct(k: np.ndarray, n: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct (k, n) pairs, sorted as DyadicInterval sorts, and the
    index of each given pair among them."""
    order = np.lexsort((n, k))
    k, n = k[order], n[order]
    new = np.ones(order.size, dtype=bool)
    new[1:] = (k[1:] != k[:-1]) | (n[1:] != n[:-1])
    inverse = np.empty(order.size, dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    return _frozen(k[new]), _frozen(n[new]), _frozen(inverse)


class RectangleTable(Sequence):
    """A list of dyadic rectangles as integer arrays, in list order.

    Rectangle i is I(kx[i], nx[i]) x I(ky[i], ny[i]).  groups maps each shape
    (kx, ky), in increasing order, to (idx, nx, ny): the positions of the
    rectangles of that shape, increasing, and their x and y interval
    positions.  The distinct x intervals, sorted as DyadicInterval sorts, are
    I(x_k[a], x_n[a]), and x_inverse[i] is the a of rectangle i; likewise on
    y.  All arrays are int64 and read-only.

    As a sequence the table is the rectangle list: len, indexing, slicing
    (to a tuple) and iteration give DyadicRectangle objects, built on demand.
    """

    def __init__(self, kx, nx, ky, ny):
        self.kx, self.nx, self.ky, self.ny = (
            _frozen(np.array(a, dtype=np.int64)) for a in (kx, nx, ky, ny))
        self.x_k, self.x_n, self.x_inverse = _distinct(self.kx, self.nx)
        self.y_k, self.y_n, self.y_inverse = _distinct(self.ky, self.ny)
        order = _frozen(np.lexsort((self.ky, self.kx)))  # stable
        kx, ky = self.kx[order], self.ky[order]
        cuts = np.flatnonzero((kx[1:] != kx[:-1]) | (ky[1:] != ky[:-1])) + 1
        self.groups = {
            (int(self.kx[i[0]]), int(self.ky[i[0]])):
                (i, _frozen(self.nx[i]), _frozen(self.ny[i]))
            for i in np.split(order, cuts) if i.size}

    @classmethod
    def of(cls, rectangles: Iterable[DyadicRectangle]) -> "RectangleTable":
        """The table of a rectangle sequence; a table is returned as it is."""
        if isinstance(rectangles, cls):
            return rectangles
        rows = np.array([(r.x.k, r.x.n, r.y.k, r.y.n) for r in rectangles],
                        dtype=np.int64).reshape(-1, 4)
        return cls(*rows.T)

    @classmethod
    def full(cls, grid_x: Grid1D, grid_y: Grid1D, k_min: int) -> "RectangleTable":
        """Every dyadic rectangle of the box with both scales at least k_min:
        I x J for I, then J, running over enumerate_dyadic(grid, k_min,
        grid.box_exp) of their axis."""
        xk, xn = _dyadic_positions(grid_x.box_exp, k_min, grid_x.box_exp)
        yk, yn = _dyadic_positions(grid_y.box_exp, k_min, grid_y.box_exp)
        return cls(np.repeat(xk, yk.size), np.repeat(xn, yk.size),
                   np.tile(yk, xk.size), np.tile(yn, xk.size))

    def x_intervals(self) -> list[DyadicInterval]:
        return [DyadicInterval(k, n)
                for k, n in zip(self.x_k.tolist(), self.x_n.tolist())]

    def y_intervals(self) -> list[DyadicInterval]:
        return [DyadicInterval(k, n)
                for k, n in zip(self.y_k.tolist(), self.y_n.tolist())]

    def _rectangles(self, rows):
        cols = (a[rows].tolist() for a in (self.kx, self.nx, self.ky, self.ny))
        return (DyadicRectangle(DyadicInterval(kx, nx), DyadicInterval(ky, ny))
                for kx, nx, ky, ny in zip(*cols))

    def __len__(self) -> int:
        return self.kx.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self._rectangles(i))
        return next(self._rectangles([i]))

    def __iter__(self):
        return self._rectangles(slice(None))

    def __eq__(self, other) -> bool:
        if not isinstance(other, RectangleTable):
            return NotImplemented
        return all(np.array_equal(a, b) for a, b in
                   zip((self.kx, self.nx, self.ky, self.ny),
                       (other.kx, other.nx, other.ky, other.ny)))

    def __hash__(self) -> int:
        return hash(tuple(a.tobytes() for a in (self.kx, self.nx, self.ky, self.ny)))

    def __repr__(self) -> str:
        return f"RectangleTable({len(self)} rectangles, {len(self.groups)} shapes)"
