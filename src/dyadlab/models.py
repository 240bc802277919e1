"""Bilinear blocks and the five discrete model operators, with a naive oracle.

The bilinear block over a collection Q is

    B(v1, v2) = sum_Q |Q|^{-1/2} <v1, m1_Q> <v2, m2_Q> m3_Q

with the sum restricted per variant: all of Q (global), |Q| >= |P| (local),
|Q| = 2^sharp |P| (fixed_scale, reading the dyadic band [2^sharp |P|,
2^{sharp+1} |P|) which contains exactly one dyadic size), or Q meeting a level
set (localized variants; the non-lacunary one sums absolute values).

A model operator pairs an x-side block against each rectangle's x interval, a
y-side block or paraproduct coefficients against the y interval, and a 2D
coefficient of h; the output is a linear combination of tensor members.
A spec holds its rectangles as a dyadic.RectangleTable.  The block and
paraproduct factors are computed once per distinct x or y interval of the
table and gathered to the rectangles through its inverse indices.  One
per-scale path, driven by one axis's data, gives the block coefficients of
every cutoff family to the model weights and to both localization checks:
the global block of each inner scale is built once; the local block of an
outer scale is the running sum of those blocks from the top scale down, the
fixed-scale block the one at scale k + sharp; and each outer scale reads the
coefficients of all its intervals from its one block.  Every 1D coefficient
is read by wavelets.all_coefficients, as an array in collection order.
model_operator and multilinear_form take the 2D coefficients of every
rectangle from wavelets.all_coefficients_2d.  wavelets.synthesize sums every
block and, once per axis, model_operator's terms; multilinear_form pairs the
terms with the dual's coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dyadic import (DyadicInterval, GridFunction1D, GridFunction2D,
                     RectangleTable)
from .errors import ConfigError
from .size_energy import size
from .wavelets import (CutoffFamily, CoefficientSequence, all_coefficients,
                       all_coefficients_2d, HAAR_LACUNARY, HAAR_NONLACUNARY,
                       SMOOTH_LACUNARY, SMOOTH_NONLACUNARY, synthesize)

__all__ = [
    "BilinearBlockSpec",
    "ModelOperatorSpec",
    "MODEL_NAMES",
    "bilinear_block",
    "model_operator",
    "oracle_model_operator",
    "multilinear_form",
    "local_size_bound_check",
    "energy_localization_check",
]

MODEL_NAMES = (
    "flag0_paraproduct",
    "flag_sharp_paraproduct",
    "flag0_flag0",
    "flag0_flag_sharp",
    "flag_sharp_flag_sharp",
)

_HAAR_TRIPLE = (HAAR_NONLACUNARY, HAAR_LACUNARY, HAAR_LACUNARY)
_SMOOTH_TRIPLE = (SMOOTH_NONLACUNARY, SMOOTH_LACUNARY, SMOOTH_LACUNARY)
_ORACLE_CAP = 64  # rectangles oracle_model_operator accepts


@dataclass(frozen=True)
class BilinearBlockSpec:
    """Collection, three cutoff families and a summation variant."""

    collection: tuple[DyadicInterval, ...]
    families: tuple[CutoffFamily, CutoffFamily, CutoffFamily]
    variant: str = "global"  # global | local | fixed_scale | localized_lac | localized_nonlac
    reference: DyadicInterval | None = None  # P, for local / fixed_scale
    sharp: int = 0  # scale offset, for fixed_scale
    level_set: object = None  # GridFunction1D indicator, for localized variants

    def __post_init__(self):
        f1, f2, f3 = self.families
        if sum(f.lacunary for f in self.families) < 2:
            raise ConfigError("at least two of the three families must be lacunary")
        if self.variant in ("local", "fixed_scale") and self.reference is None:
            raise ConfigError(f"variant {self.variant} needs a reference interval")
        if self.variant == "fixed_scale" and self.sharp < 0:
            raise ConfigError("scale offset must be nonnegative")
        if self.variant in ("localized_lac", "localized_nonlac"):
            if self.level_set is None:
                raise ConfigError(f"variant {self.variant} needs a level set")
            if self.variant == "localized_lac" and not f3.lacunary:
                raise ConfigError("localized_lac requires a lacunary third family")
            if self.variant == "localized_nonlac" and (
                    f3.lacunary or not (f1.lacunary and f2.lacunary)):
                raise ConfigError("localized_nonlac requires lacunary first two "
                                  "families and a non-lacunary third")
        elif self.variant not in ("global", "local", "fixed_scale"):
            raise ConfigError(f"unknown variant {self.variant!r}")

    def qualifying(self) -> list[DyadicInterval]:
        if self.variant == "global":
            return list(self.collection)
        if self.variant == "local":
            return [q for q in self.collection
                    if q.length >= self.reference.length]
        if self.variant == "fixed_scale":
            # |Q| ~ 2^sharp |P| as the dyadic band [2^sharp |P|, 2^{sharp+1} |P|)
            want = self.reference.k + self.sharp
            return [q for q in self.collection if q.k == want]
        return [q for q in self.collection if _meets(q, self.level_set)]


def _meets(interval: DyadicInterval, indicator) -> bool:
    """Does the interval meet the set given by a 0/1 grid indicator?"""
    return bool(np.any(indicator.restrict(interval) > 0))


def bilinear_block(spec: BilinearBlockSpec, v1: GridFunction1D,
                   v2: GridFunction1D) -> GridFunction1D:
    """Evaluate the block on the grid of v1 (v2 must share it)."""
    if v1.grid != v2.grid:
        raise ConfigError("v1 and v2 must share a grid")
    f1, f2, f3 = spec.families
    qs = spec.qualifying()
    w = all_coefficients(v1, qs, f1) * all_coefficients(v2, qs, f2)
    if spec.variant == "localized_nonlac":  # its third members are >= 0
        w = np.abs(w)
    norms = np.array([math.ldexp(1.0, q.k) ** 0.5 for q in qs])
    return GridFunction1D(v1.grid, synthesize(w / norms, qs, f3, v1.grid))


@dataclass(frozen=True)
class ModelOperatorSpec:
    """Which of the five models, its collections, offsets and family flavors.

    x_outer = (m1_I, m2_I, m3_I): the averaging family paired with the block,
    the h-coefficient family and the output family on x intervals; m1 must be
    non-lacunary and m2, m3 lacunary.  y_outer plays the same role on y for the
    flag-type models.  For the paraproduct models the y side instead uses
    y_para = (p1_J, p2_J, p3_J): g1 and g2 coefficients (p2 doubles as the
    h-coefficient family, as displayed) and the output family; at least two of
    the three must be lacunary.

    rectangles may be given as any sequence of DyadicRectangle; it is kept as
    its RectangleTable, which reads as the same sequence.
    """

    which: str
    rectangles: RectangleTable
    inner_x: tuple[DyadicInterval, ...]
    inner_y: tuple[DyadicInterval, ...] = ()
    sharp1: int = 0
    sharp2: int = 0
    inner_x_families: tuple = _HAAR_TRIPLE
    inner_y_families: tuple = _HAAR_TRIPLE
    x_outer: tuple = (HAAR_NONLACUNARY, HAAR_LACUNARY, HAAR_LACUNARY)
    y_outer: tuple = (HAAR_NONLACUNARY, HAAR_LACUNARY, HAAR_LACUNARY)
    y_para: tuple = (HAAR_NONLACUNARY, HAAR_LACUNARY, HAAR_LACUNARY)

    def __post_init__(self):
        if self.which not in MODEL_NAMES:
            raise ConfigError(f"unknown model {self.which!r}")
        if self.sharp1 < 0 or self.sharp2 < 0:
            raise ConfigError("scale offsets must be nonnegative")
        object.__setattr__(self, "rectangles", RectangleTable.of(self.rectangles))
        if not self.rectangles:
            raise ConfigError("empty rectangle collection")
        if sum(f.lacunary for f in self.inner_x_families) < 2:
            raise ConfigError("inner x families: need at least two lacunary")
        if self.paraproduct_y:
            if sum(f.lacunary for f in self.y_para) < 2:
                raise ConfigError("paraproduct y families: need at least two lacunary")
        else:
            if sum(f.lacunary for f in self.inner_y_families) < 2:
                raise ConfigError("inner y families: need at least two lacunary")
            if not self.inner_y:
                raise ConfigError("flag-type y side needs an inner collection")
        if self.x_outer[0].lacunary or not (self.x_outer[1].lacunary
                                            and self.x_outer[2].lacunary):
            raise ConfigError("x outer families must be (nonlacunary, lacunary, lacunary)")
        if not self.paraproduct_y and (
                self.y_outer[0].lacunary or not (self.y_outer[1].lacunary
                                                 and self.y_outer[2].lacunary)):
            raise ConfigError("y outer families must be (nonlacunary, lacunary, lacunary)")

    @property
    def paraproduct_y(self) -> bool:
        return self.which in ("flag0_paraproduct", "flag_sharp_paraproduct")

    @property
    def x_fixed_scale(self) -> bool:
        return self.which in ("flag_sharp_paraproduct", "flag_sharp_flag_sharp")

    @property
    def y_fixed_scale(self) -> bool:
        return self.which in ("flag0_flag_sharp", "flag_sharp_flag_sharp")

    def x_block_spec(self, interval: DyadicInterval) -> BilinearBlockSpec:
        if self.x_fixed_scale:
            return BilinearBlockSpec(self.inner_x, self.inner_x_families,
                                     "fixed_scale", interval, self.sharp1)
        return BilinearBlockSpec(self.inner_x, self.inner_x_families,
                                 "local", interval)

    def y_block_spec(self, interval: DyadicInterval) -> BilinearBlockSpec:
        if self.y_fixed_scale:
            return BilinearBlockSpec(self.inner_y, self.inner_y_families,
                                     "fixed_scale", interval, self.sharp2)
        return BilinearBlockSpec(self.inner_y, self.inner_y_families,
                                 "local", interval)

    @classmethod
    def haar(cls, which: str, rectangles, inner_x, inner_y=(), sharp1=0, sharp2=0):
        return cls(which, rectangles, tuple(inner_x), tuple(inner_y),
                   sharp1, sharp2)

    @classmethod
    def smooth(cls, which: str, rectangles, inner_x, inner_y=(), sharp1=0, sharp2=0):
        smooth_outer = (SMOOTH_NONLACUNARY, SMOOTH_LACUNARY, SMOOTH_LACUNARY)
        return cls(which, rectangles, tuple(inner_x), tuple(inner_y),
                   sharp1, sharp2,
                   inner_x_families=_SMOOTH_TRIPLE, inner_y_families=_SMOOTH_TRIPLE,
                   x_outer=smooth_outer, y_outer=smooth_outer,
                   y_para=smooth_outer)


def _block_coefficients(inner: Sequence[DyadicInterval], families: tuple,
                        fixed: bool, sharp: int, outer: CutoffFamily,
                        intervals: Sequence[DyadicInterval],
                        v1: GridFunction1D, v2: GridFunction1D) -> np.ndarray:
    """<B_{.,I}(v1, v2), m1_I> for each interval I, in order, with m1 = outer.

    The global block over the inner intervals of scale k is built once per
    scale needed.  B_{.,I} is the block at scale k_I + sharp if fixed
    (fixed_scale), else the running sum of the blocks from the top scale
    down to k_I (local).  Each outer scale reads the coefficients of all
    its intervals from its one block, with one all_coefficients call.
    """
    def scale_block(k: int) -> np.ndarray:
        qs = tuple(q for q in inner if q.k == k)
        return bilinear_block(BilinearBlockSpec(qs, families), v1, v2).samples

    ks = np.array([I.k for I in intervals])
    out = np.zeros(len(intervals))
    inner_scales = sorted({q.k for q in inner}, reverse=True)
    block = np.zeros(v1.grid.n_points)
    for s in sorted(set(ks.tolist()), reverse=True):
        if fixed:
            block = scale_block(s + sharp)
        else:
            while inner_scales and inner_scales[0] >= s:
                block = block + scale_block(inner_scales.pop(0))
        at = np.flatnonzero(ks == s).tolist()
        out[at] = all_coefficients(GridFunction1D(v1.grid, block),
                                   [intervals[i] for i in at], outer)
    return out


def _rectangle_weights(spec: ModelOperatorSpec, f1, f2, g1, g2):
    """Each rectangle's weight (b_I / |I|^{1/2}) y_J n_J, in rectangle order;
    the table's distinct x and y intervals, sorted; the y side's
    h-coefficient and output families.

    b_I and, for the flag-type models, y_J are the block coefficients of
    _block_coefficients, with n_J = |J|^{-1/2}; for the paraproduct models
    y_J is the product of the g1 and g2 coefficients and n_J = |J|^{-1}.
    Each factor is computed once per distinct interval and gathered to the
    rectangles through the table's inverse indices.
    """
    table = spec.rectangles
    xs, ys = table.x_intervals(), table.y_intervals()
    x_factor = (_block_coefficients(spec.inner_x, spec.inner_x_families,
                                    spec.x_fixed_scale, spec.sharp1,
                                    spec.x_outer[0], xs, f1, f2)
                / np.array([math.ldexp(1.0, I.k) ** 0.5 for I in xs]))
    if spec.paraproduct_y:
        y_factor = (all_coefficients(g1, ys, spec.y_para[0])
                    * all_coefficients(g2, ys, spec.y_para[1]))
        norm_y = 1.0 / np.array([math.ldexp(1.0, J.k) for J in ys])
        h_y_family, out_y_family = spec.y_para[1], spec.y_para[2]
    else:
        y_factor = _block_coefficients(spec.inner_y, spec.inner_y_families,
                                       spec.y_fixed_scale, spec.sharp2,
                                       spec.y_outer[0], ys, g1, g2)
        norm_y = 1.0 / np.array([math.ldexp(1.0, J.k) ** 0.5 for J in ys])
        h_y_family, out_y_family = spec.y_outer[1], spec.y_outer[2]
    w = (x_factor[table.x_inverse] * y_factor[table.y_inverse]
         * norm_y[table.y_inverse])
    return w, xs, ys, h_y_family, out_y_family


def model_operator(spec: ModelOperatorSpec, f1: GridFunction1D, f2: GridFunction1D,
                   g1: GridFunction1D, g2: GridFunction1D,
                   h: GridFunction2D) -> GridFunction2D:
    """Evaluate the selected model operator on the grid of h.

    C[I, J] sums weight times <h, m2_I tensor m2_J> over the rectangles I x J
    (a rectangle listed twice counts twice); the output is C synthesized
    against the output members m3_I on x, then against m3_J on y.
    """
    gx, gy = h.grid_x, h.grid_y
    table = spec.rectangles
    w, xs, ys, h_y_family, out_y_family = _rectangle_weights(spec, f1, f2, g1, g2)
    hc = all_coefficients_2d(h, table, spec.x_outer[1], h_y_family)
    c = np.zeros((len(xs), len(ys)))
    np.add.at(c, (table.x_inverse, table.y_inverse), w * hc)
    x_side = synthesize(c, xs, spec.x_outer[2], gx)
    return GridFunction2D(gx, gy, synthesize(x_side.T, ys, out_y_family, gy).T)


def oracle_model_operator(spec: ModelOperatorSpec, f1, f2, g1, g2, h
                          ) -> GridFunction2D:
    """Naive nested-loop evaluation with no shared subexpressions.

    Every inner product is recomputed by direct quadrature against a freshly
    sampled member; the only purpose is to cross-check model_operator.
    """
    if len(spec.rectangles) > _ORACLE_CAP:
        raise ConfigError(f"oracle capped at {_ORACLE_CAP} rectangles")
    gx, gy = h.grid_x, h.grid_y
    wx, wy = float(gx.cell_width), float(gy.cell_width)

    def block_coef(bspec, outer, interval, v1, v2):
        grid, w = v1.grid, float(v1.grid.cell_width)
        blk = np.zeros(grid.n_points)
        for q in bspec.qualifying():
            a1 = float(np.sum(v1.samples * bspec.families[0].member(q, grid)) * w)
            a2 = float(np.sum(v2.samples * bspec.families[1].member(q, grid)) * w)
            blk = blk + (a1 * a2 / math.ldexp(1.0, q.k) ** 0.5) \
                * bspec.families[2].member(q, grid)
        coef = float(np.sum(blk * outer.member(interval, grid)) * w)
        return coef / math.ldexp(1.0, interval.k) ** 0.5

    acc = np.zeros((gx.n_points, gy.n_points))
    for r in spec.rectangles:
        I, J = r.x, r.y
        x_coef = block_coef(spec.x_block_spec(I), spec.x_outer[0], I, f1, f2)
        if spec.paraproduct_y:
            b1 = float(np.sum(g1.samples * spec.y_para[0].member(J, gy)) * wy)
            b2 = float(np.sum(g2.samples * spec.y_para[1].member(J, gy)) * wy)
            y_coef = b1 * b2 / math.ldexp(1.0, J.k)
            h_y = spec.y_para[1].member(J, gy)
            out_y = spec.y_para[2].member(J, gy)
        else:
            y_coef = block_coef(spec.y_block_spec(J), spec.y_outer[0], J, g1, g2)
            h_y = spec.y_outer[1].member(J, gy)
            out_y = spec.y_outer[2].member(J, gy)

        h_x = spec.x_outer[1].member(I, gx)
        hc = float(h_x @ h.samples @ h_y) * wx * wy
        coef = x_coef * y_coef * hc
        acc = acc + coef * np.outer(spec.x_outer[2].member(I, gx), out_y)
    return GridFunction2D(gx, gy, acc)


def multilinear_form(spec: ModelOperatorSpec, f1, f2, g1, g2, h,
                     dual: GridFunction2D,
                     h_coefficients: np.ndarray | None = None) -> float:
    """<model(f1, f2, g1, g2, h), dual> as a grid inner product.

    The sum over the rectangles R = I x J of weight times <h, m2_I tensor m2_J>
    times <dual, m3_I tensor m3_J>, taken in rectangle order.  Both
    coefficient arrays come from all_coefficients_2d, one after the other,
    unless the caller passes h's, in rectangle order, as h_coefficients; no
    full-grid output is materialized.
    """
    if dual.samples.shape != h.samples.shape:
        raise ConfigError("dual lives on a different grid")
    table = spec.rectangles
    w, _, _, h_y_family, out_y_family = _rectangle_weights(spec, f1, f2, g1, g2)
    if h_coefficients is None:
        h_coefficients = all_coefficients_2d(h, table, spec.x_outer[1], h_y_family)
    elif np.shape(h_coefficients) != (len(table),):
        raise ConfigError(f"expected {len(table)} h coefficients, "
                          f"got shape {np.shape(h_coefficients)}")
    terms = w * h_coefficients
    terms *= all_coefficients_2d(dual, table, spec.x_outer[2], out_y_family)
    terms[w == 0.0] = 0.0  # a vanishing weight contributes nothing
    total = 0.0
    for t in terms.tolist():  # in rectangle order, as a plain running sum
        total += t
    return total


def local_size_bound_check(block_spec: BilinearBlockSpec, v1: GridFunction1D,
                           v2: GridFunction1D, level_set: GridFunction1D,
                           outer_collection: Sequence[DyadicInterval]
                           ) -> tuple[float, float]:
    """Size of the fixed-scale block coefficients against the coefficient sups.

    lhs = size over P of <B^{sharp}_{Q,P}(v1,v2), ind_P> (averaging flavor),
    all P read by _block_coefficients; rhs = sup_{Q meets the level set}
    |<v1, m1_Q>|/|Q|^{1/2} times the same for v2.  Both sides are returned;
    the bound is lhs <= C rhs with C reported by the caller.
    """
    if block_spec.variant != "fixed_scale":
        raise ConfigError("the size localization check needs a fixed_scale block")
    outer = tuple(outer_collection)
    for p in outer:
        if not _meets(p, level_set):
            raise ConfigError(f"{p} does not meet the level set")
    f1, f2, f3 = block_spec.families
    outer_family = HAAR_NONLACUNARY if f3.haar else SMOOTH_NONLACUNARY
    coeffs = _block_coefficients(block_spec.collection, block_spec.families, True,
                                 block_spec.sharp, outer_family, outer, v1, v2)
    lhs = size(CoefficientSequence(dict(zip(outer, coeffs.tolist())), outer),
               outer, lacunary=False).value

    meeting = [q for q in block_spec.collection if _meets(q, level_set)]
    norms = np.array([math.ldexp(1.0, q.k) ** 0.5 for q in meeting])
    s1 = np.max(np.abs(all_coefficients(v1, meeting, f1)) / norms, initial=0.0)
    s2 = np.max(np.abs(all_coefficients(v2, meeting, f2)) / norms, initial=0.0)
    return lhs, float(s1 * s2)


def energy_localization_check(block_spec: BilinearBlockSpec, v1: GridFunction1D,
                              v2: GridFunction1D, level_set: GridFunction1D,
                              outer_collection: Sequence[DyadicInterval],
                              tol: float = 1e-12) -> list[str]:
    """Per-interval comparison of local block coefficients with localized ones.

    With a lacunary third family the two coefficients agree exactly (the
    support of the averaging member forces the containing intervals, so the
    scale restriction is vacuous); with a non-lacunary third family the
    localized absolute-value block dominates.  The local coefficients of all
    P come from _block_coefficients, the localized ones from one localized
    block.  Returns violations beyond tol.
    """
    if not block_spec.families[2].haar:
        raise ConfigError("the energy localization check lives in the Haar model")
    outer = tuple(outer_collection)
    for p in outer:
        if not _meets(p, level_set):
            raise ConfigError(f"{p} does not meet the level set")
    third_lac = block_spec.families[2].lacunary
    variant = "localized_lac" if third_lac else "localized_nonlac"
    localized = BilinearBlockSpec(block_spec.collection, block_spec.families,
                                  variant, level_set=level_set)
    rhs_all = all_coefficients(bilinear_block(localized, v1, v2), outer,
                               HAAR_NONLACUNARY)
    lhs_all = _block_coefficients(block_spec.collection, block_spec.families,
                                  False, 0, HAAR_NONLACUNARY, outer, v1, v2)
    out: list[str] = []
    for p, lhs, rhs in zip(outer, lhs_all.tolist(), rhs_all.tolist()):
        if third_lac:
            if abs(lhs - rhs) > tol:
                out.append(f"{p}: |{lhs} - {rhs}| > {tol}")
        else:
            if abs(lhs) > abs(rhs) + tol:
                out.append(f"{p}: |{lhs}| > |{rhs}| + {tol}")
    return out
