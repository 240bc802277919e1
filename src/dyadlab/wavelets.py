"""Cutoff families: Haar wavelets, L2-normalized indicators, smooth bumps.

A family member lives on a dyadic interval I. Haar members are exact on any
grid fine enough to resolve I; smooth members are Gaussian-envelope profiles
evaluated at the grid points and normalized so the grid L2 norm is exactly 1.
The lacunary smooth profile is a modulated Gaussian whose spectrum sits inside
the annulus [1/(4|I|), 4/|I|]; the non-lacunary one concentrates in the ball
of radius 1/(4|I|).  Frequency localization is approximate by necessity and is
quantified by band_energy_fraction.

all_coefficients and all_coefficients_2d, the 1D and 2D coefficient kernels,
return arrays in collection order; coefficient_naive is their reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .dyadic import (DyadicInterval, DyadicRectangle, Grid1D, GridFunction1D,
                     RectangleTable, _check_intervals, _interval_table)
from .errors import ConfigError, DomainError, ResolutionError

__all__ = [
    "CutoffFamily",
    "HAAR_LACUNARY",
    "HAAR_NONLACUNARY",
    "SMOOTH_LACUNARY",
    "SMOOTH_NONLACUNARY",
    "CoefficientSequence",
    "haar_eval",
    "coefficient_naive",
    "all_coefficients",
    "all_coefficients_2d",
    "smooth_bump",
    "band_energy_fraction",
    "haar_pyramid_2d",
    "haar_gather_2d",
    "block_sums",
]

# Envelope widths (in units of |I|) placing ~99%+ of spectral energy in the
# stated bands; see tests for the measured fractions.
_SIGMA_NONLAC = 1.4
_SIGMA_LAC = 1.0
_MODULATION = 1.5  # center frequency of the lacunary profile, in units 1/|I|


@dataclass(frozen=True)
class CutoffFamily:
    """One of the four cutoff kinds, with smooth-profile parameters."""

    kind: str  # haar_lacunary | haar_nonlacunary | smooth_lacunary | smooth_nonlacunary
    decay: int = 10  # adaptedness order M checked in tests; profiles beat any M

    def __post_init__(self):
        if self.kind not in ("haar_lacunary", "haar_nonlacunary",
                             "smooth_lacunary", "smooth_nonlacunary"):
            raise ConfigError(f"unknown family kind {self.kind!r}")
        if self.kind.startswith("smooth") and self.decay < 2:
            raise ConfigError("decay order must be >= 2")

    @property
    def lacunary(self) -> bool:
        return self.kind.endswith("_lacunary") and not self.kind.endswith("nonlacunary")

    @property
    def haar(self) -> bool:
        return self.kind.startswith("haar")

    def member(self, interval: DyadicInterval, grid: Grid1D) -> np.ndarray:
        """Samples of the family member on the full grid."""
        if self.haar:
            out = np.zeros(grid.n_points)
            a, b = grid.cell_range(interval)
            amp = 2.0 ** (-interval.k / 2.0)
            if self.lacunary:
                if interval.k - 1 < -grid.res_exp:
                    raise ResolutionError(
                        f"halves of {interval} not resolved at 2^-{grid.res_exp}")
                mid = (a + b) // 2
                out[a:mid] = amp
                out[mid:b] = -amp
            else:
                out[a:b] = amp
            return out
        return smooth_bump(interval, self.lacunary, grid, self.decay)


HAAR_LACUNARY = CutoffFamily("haar_lacunary")
HAAR_NONLACUNARY = CutoffFamily("haar_nonlacunary")
SMOOTH_LACUNARY = CutoffFamily("smooth_lacunary")
SMOOTH_NONLACUNARY = CutoffFamily("smooth_nonlacunary")


def haar_eval(interval: DyadicInterval, lacunary: bool, x) -> float:
    """Exact value of the Haar wavelet / normalized indicator at a point."""
    if not interval.contains_point(x):
        return 0.0
    amp = 2.0 ** (-interval.k / 2.0)
    if not lacunary:
        return amp
    midpoint = (interval.left + interval.right) / 2
    return amp if Fraction(x) < midpoint else -amp


def smooth_bump(interval: DyadicInterval, lacunary: bool, grid: Grid1D,
                decay: int = 10) -> np.ndarray:
    """L2-normalized smooth profile adapted to the interval, sampled on the grid."""
    if decay < 2:
        raise ConfigError("decay order must be >= 2")
    return _smooth_profiles(grid, interval.k, [interval.n], lacunary)[0]


def _smooth_profiles(grid: Grid1D, k: int, positions: np.ndarray,
                     lacunary: bool) -> np.ndarray:
    """Rows: the smooth profiles on the intervals (k, n), n in positions,
    each L2-normalized on the grid.

    A lacunary profile has its envelope-weighted mean removed.  On a grid of
    one or two cells that can cancel every sample, and such a profile has no
    normalization: it raises ResolutionError.
    """
    length = math.ldexp(1.0, k)
    centers = np.asarray(positions, dtype=float)[:, None] * length + length / 2.0
    period = float(grid.length)
    d = (grid.points()[None, :] - centers) % period  # periodic displacement
    d[d > period / 2] -= period
    u = d / length
    if lacunary:
        env = np.exp(-u * u / (2.0 * _SIGMA_LAC ** 2))
        vals = env * np.cos(2.0 * np.pi * _MODULATION * u)
        # envelope-weighted mean correction: exact vanishing of the grid mean
        # (the correction is ~exp(-2 pi^2 sigma^2 gamma^2) for well-contained
        # intervals, only the periodic wrap makes it noticeable)
        vals -= (vals.sum(axis=1, keepdims=True) / env.sum(axis=1, keepdims=True)) * env
    else:
        vals = np.exp(-u * u / (2.0 * _SIGMA_NONLAC ** 2))
    nrm = np.sqrt(np.sum(vals * vals, axis=1, keepdims=True) * float(grid.cell_width))
    if not (nrm > 0).all():
        n = positions[int(np.argmin(nrm[:, 0] > 0))]
        raise ResolutionError(
            f"the smooth {'lacunary' if lacunary else 'non-lacunary'} member on "
            f"{DyadicInterval(k, int(n))} vanishes on {grid}")
    return vals / nrm


def band_energy_fraction(member: np.ndarray, grid: Grid1D,
                         interval: DyadicInterval, lacunary: bool) -> float:
    """Fraction of spectral energy inside the stated frequency band.

    Frequencies are in cycles per unit length; the lacunary band is
    [1/(4|I|), 4/|I|] (two-sided), the non-lacunary band is |xi| <= 1/(4|I|).
    """
    spec = np.fft.fft(member)
    energy = np.abs(spec) ** 2
    freqs = np.fft.fftfreq(grid.n_points, d=float(grid.cell_width))
    length = float(interval.length)
    if lacunary:
        mask = (np.abs(freqs) >= 1.0 / (4.0 * length)) & (np.abs(freqs) <= 4.0 / length)
    else:
        mask = np.abs(freqs) <= 1.0 / (4.0 * length)
    total = float(energy.sum())
    return float(energy[mask].sum()) / total if total > 0 else 1.0


@dataclass
class CoefficientSequence:
    """Sparse map from dyadic intervals (or rectangles) to scalars; missing = 0."""

    data: dict
    collection: tuple = ()

    def __post_init__(self):
        if not self.collection:
            self.collection = tuple(self.data.keys())
        extra = set(self.data) - set(self.collection)
        if extra:
            raise ConfigError(f"coefficients outside declared collection: {extra}")

    def __getitem__(self, key) -> float:
        return self.data.get(key, 0.0)

    def __len__(self) -> int:
        return len(self.collection)

    def items(self):
        return ((key, self.data.get(key, 0.0)) for key in self.collection)

    def scaled(self, factor: float) -> "CoefficientSequence":
        return CoefficientSequence({k: factor * v for k, v in self.data.items()},
                                   self.collection)


def coefficient_naive(f: GridFunction1D, interval: DyadicInterval,
                      family: CutoffFamily) -> float:
    """Quadrature of f times the family member; the slow reference path."""
    member = family.member(interval, f.grid)
    return float(np.sum(f.samples * member) * float(f.grid.cell_width))


def block_sums(a: np.ndarray, axis: int, levels: int, first: int = 0
               ) -> list[np.ndarray]:
    """Sums of a over aligned blocks of 2^i cells along one axis, i = first..levels.

    Level i + 1 adds neighbouring pairs of level i, so a block's average is its
    sum times the exact power of two 2^-i.  Behind the Haar pyramids and the
    dyadic maximal functions alike.
    """
    lo = (slice(None),) * axis + (slice(0, None, 2),)
    hi = (slice(None),) * axis + (slice(1, None, 2),)
    out = [a] if first == 0 else []
    for i in range(1, levels + 1):
        a = a[lo] + a[hi]
        if i >= first:
            out.append(a)
    return out


def haar_pyramid_2d(h, k_min: tuple[int, int] | None = None
                    ) -> dict[tuple[int, int], np.ndarray]:
    """Block integrals of a 2D grid function over all dyadic rectangles, or
    over those with scales (kx, ky) >= k_min; finer levels are not kept."""
    gx, gy = h.grid_x, h.grid_y
    area = math.ldexp(1.0, -(gx.res_exp + gy.res_exp))
    kx0, ky0 = (-gx.res_exp, -gy.res_exp) if k_min is None else (
        max(int(k_min[0]), -gx.res_exp), max(int(k_min[1]), -gy.res_exp))
    rows = block_sums(h.samples.astype(float, copy=False) * area, 0,
                      gx.box_exp + gx.res_exp, kx0 + gx.res_exp)
    return {(kx0 + i, ky0 + j): s
            for i, row in enumerate(rows)
            for j, s in enumerate(block_sums(row, 1, gy.box_exp + gy.res_exp,
                                             ky0 + gy.res_exp))}


_HALVES = {False: ((0, 1.0),), True: ((0, 1.0), (1, -1.0))}


def haar_gather_2d(pyramid: Mapping[tuple[int, int], np.ndarray],
                   shape: tuple[int, int], nx: np.ndarray, ny: np.ndarray,
                   lacunary_x: bool, lacunary_y: bool) -> np.ndarray:
    """<h, member_I tensor member_J> for Haar families, from 2D block sums,
    for all rectangles I x J of one shape (kx, ky) at positions (nx, ny).

    A lacunary member reads the two halves of its interval one scale down;
    the signed blocks are added in the order ((B00 - B01) - B10) + B11.
    """
    kx, ky = shape
    lx, ly = int(lacunary_x), int(lacunary_y)
    blocks = pyramid.get((kx - lx, ky - ly))
    if blocks is None:
        raise ResolutionError(f"no block sums resolve rectangles of shape {shape}")
    nx, ny = np.asarray(nx, dtype=np.int64), np.asarray(ny, dtype=np.int64)
    if nx.size and (min(nx.min(), ny.min()) < 0 or nx.max() >= blocks.shape[0] >> lx
                    or ny.max() >= blocks.shape[1] >> ly):
        raise DomainError(f"rectangles of shape {shape} outside the domain")
    total = 0.0
    for dx, wx in _HALVES[lacunary_x]:
        for dy, wy in _HALVES[lacunary_y]:
            total = total + wx * wy * blocks[(nx << lx) + dx, (ny << ly) + dy]
    return 2.0 ** (-(kx + ky) / 2.0) * total


def _stacked_members(family: CutoffFamily, grid: Grid1D, k: int,
                     positions: np.ndarray) -> np.ndarray:
    """Rows: the members on the intervals (k, n), n in positions; the smooth
    ones in one array expression."""
    if not family.haar:
        return _smooth_profiles(grid, k, positions, family.lacunary)
    return np.array([family.member(DyadicInterval(k, int(n)), grid)
                     for n in positions])


def all_coefficients(f: GridFunction1D, collection: Iterable[DyadicInterval],
                     family: CutoffFamily) -> np.ndarray:
    """<f, member on I> for every interval I of the collection, in order.

    One scale k at a time.  Haar kinds are exact: from one block_sums pyramid
    of the integrals b of f, a member reads 2^(-k/2) b[n], or 2^(-k/2)
    (b[2n] - b[2n+1]) one scale down if lacunary.  Any other kind is the
    quadrature of f against the scale's members, stacked as rows.  The first
    interval, or lacunary Haar half, off the grid raises its cell_range error.
    """
    g = f.grid
    ks, ns = _interval_table(tuple(collection), g)
    lac = int(family.haar and family.lacunary)
    _check_intervals(ks - lac, ns << lac, g)  # a lacunary Haar member reads halves
    out = np.zeros(ks.size)
    if family.haar and ks.size:
        sums = block_sums(f.samples.astype(float, copy=False)
                          * math.ldexp(1.0, -g.res_exp), 0,
                          int(ks.max()) - lac + g.res_exp)
    for k in np.unique(ks).tolist():
        idx = np.flatnonzero(ks == k)
        if not family.haar:
            rows = f.samples * _stacked_members(family, g, k, ns[idx])
            out[idx] = np.sum(rows, axis=1) * float(g.cell_width)
            continue
        b, n = sums[k - lac + g.res_exp], ns[idx] << lac
        out[idx] = 2.0 ** (-k / 2.0) * (b[n] - b[n + 1] if lac else b[n])
    return out


def _scale_slices(ks: np.ndarray) -> dict[int, slice]:
    """Each scale of a sorted scale array, mapped to its run of entries."""
    scales, first = np.unique(ks, return_index=True)
    ends = np.append(first[1:], ks.size)
    return {int(k): slice(int(a), int(b)) for k, a, b in zip(scales, first, ends)}


def _table_members(family: CutoffFamily, grid: Grid1D, ks: np.ndarray,
                   ns: np.ndarray) -> np.ndarray:
    """Rows: the members on the intervals I(ks[i], ns[i]), sorted by scale,
    stacked one scale at a time."""
    return np.concatenate([_stacked_members(family, grid, k, ns[s])
                           for k, s in _scale_slices(ks).items()])


def all_coefficients_2d(h, rectangles: RectangleTable | Sequence[DyadicRectangle],
                        family_x: CutoffFamily,
                        family_y: CutoffFamily) -> np.ndarray:
    """<h, member_I tensor member_J> for every rectangle I x J, in rectangle order.

    rectangles is a dyadic.RectangleTable, or a rectangle sequence that is
    turned into one; the kernels run one shape of its groups at a time.  Haar
    x Haar is exact: each shape is gathered from one 2D block-sum pyramid.
    Any other pair is the direct quadrature (Mx h My^T)[I, J] of each shape,
    with the members on the table's distinct intervals of a scale stacked as
    the rows of Mx and My (cell widths included) and h contracted once per x
    scale.  In every family pair the first distinct x, then y, interval that
    is not a union of grid cells inside the box raises its cell_range error.
    """
    table = RectangleTable.of(rectangles)
    groups = table.groups
    out = np.zeros(len(table))
    if not groups:
        return out
    gx, gy = h.grid_x, h.grid_y
    _check_intervals(table.x_k, table.x_n, gx)
    _check_intervals(table.y_k, table.y_n, gy)
    if family_x.haar and family_y.haar:
        # halves of the finest shapes are the finest blocks read
        pyr = haar_pyramid_2d(h, np.min(list(groups), axis=0) - 1)
        for s, (idx, nx, ny) in groups.items():
            out[idx] = haar_gather_2d(pyr, s, nx, ny, family_x.lacunary,
                                      family_y.lacunary)
        return out
    wx, wy = float(gx.cell_width), float(gy.cell_width)
    ys = _scale_slices(table.y_k)
    my = {ky: _stacked_members(family_y, gy, ky, table.y_n[sy]) * wy
          for ky, sy in ys.items()}
    for kx, sx in _scale_slices(table.x_k).items():
        part = (_stacked_members(family_x, gx, kx, table.x_n[sx]) * wx) @ h.samples
        for (shape_kx, ky), (idx, _, _) in groups.items():
            if shape_kx == kx:
                out[idx] = (part @ my[ky].T)[table.x_inverse[idx] - sx.start,
                                             table.y_inverse[idx] - ys[ky].start]
    return out
