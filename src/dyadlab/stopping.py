"""Level-set and tensor-type stopping-time decompositions, exceptional sets,
and the sparsity verifiers.

Level assignment is by maximal qualifying level: an interval lands in bucket n
when it meets the level set {driver > C 2^n w} in more than a tenth of its
measure but fails that test at level n+1 (the 2D rectangle version uses one
hundredth).  Intervals qualifying at no level go to a reserved bottom bucket.
All measure comparisons are exact integer cell counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .dyadic import (DyadicInterval, DyadicRectangle, GridFunction1D,
                     GridFunction2D, _level_below, _times_pow2, contains)
from .errors import ConfigError
from .models import BilinearBlockSpec, bilinear_block
from .operators import (HybridKind, hybrid_2d, maximal_function,
                        maximal_function_2d)
from .size_energy import TreeDecomposition, stopping_time_maximal
from .wavelets import (CoefficientSequence, HAAR_LACUNARY, HAAR_NONLACUNARY,
                       SMOOTH_LACUNARY, SMOOTH_NONLACUNARY)

__all__ = [
    "LevelSetDecomposition1D",
    "LevelSetDecomposition2D",
    "ExceptionalSet",
    "level_decomposition_1d",
    "tensor_decomposition_I",
    "tensor_decomposition_II",
    "level_set_decomposition_2d",
    "build_exceptional_set",
    "sparsity_check_1d",
    "sparsity_check_2d",
    "union_measure",
    "check_index_observation_I",
    "check_index_observation_II",
]


def _qualifying_value(values: np.ndarray, frac: Fraction) -> float:
    """Largest v such that strictly more than frac of the cells exceed any
    threshold below v; i.e. the k0-th largest value with k0 = floor(c*frac)+1."""
    c = values.size
    k0 = int(c * frac) + 1
    if k0 > c:
        return 0.0
    return float(np.partition(values, c - k0)[c - k0])


def _max_level(vstar: float, c: float, weight: float) -> int | None:
    """Largest n with c * 2^n * weight < vstar, or None if there is none."""
    if vstar <= 0 or weight <= 0:
        return None
    return _level_below(vstar, c, weight)


@dataclass
class LevelSetDecomposition1D:
    """Buckets of intervals per level, the level sets, and the driver data."""

    buckets: dict[int, tuple[DyadicInterval, ...]]
    bottom: tuple[DyadicInterval, ...]
    driver: GridFunction1D  # maximal-function values steering the levels
    constant: float
    weight: float
    fraction: Fraction = Fraction(1, 10)

    def level_set(self, n: int) -> GridFunction1D:
        thr = _times_pow2(n, self.constant, self.weight)
        return GridFunction1D(self.driver.grid,
                              (self.driver.samples > thr).astype(float))

    def level_of(self, interval: DyadicInterval) -> int | None:
        for n, ivs in self.buckets.items():
            if interval in ivs:
                return n
        return None

    def to_text(self) -> str:
        lines = []
        for n in sorted(self.buckets, reverse=True):
            lines.append(f"level {n}: " + " ".join(str(i) for i in self.buckets[n]))
        if self.bottom:
            lines.append("level bottom: " + " ".join(str(i) for i in self.bottom))
        return "\n".join(lines)


def level_decomposition_1d(collection: Sequence[DyadicInterval],
                           driver: GridFunction1D, constant: float,
                           weight: float,
                           fraction: Fraction = Fraction(1, 10)
                           ) -> LevelSetDecomposition1D:
    """Assign each interval its maximal qualifying level for the driver."""
    buckets: dict[int, list[DyadicInterval]] = {}
    bottom: list[DyadicInterval] = []
    for iv in collection:
        vstar = _qualifying_value(driver.restrict(iv), fraction)
        n = _max_level(vstar, constant, weight)
        if n is None:
            bottom.append(iv)
        else:
            buckets.setdefault(n, []).append(iv)
    return LevelSetDecomposition1D(
        {n: tuple(sorted(v)) for n, v in buckets.items()},
        tuple(sorted(bottom)), driver, constant, weight, fraction)


def tensor_decomposition_I(collection_x: Sequence[DyadicInterval],
                           collection_y: Sequence[DyadicInterval],
                           f1: GridFunction1D, f2: GridFunction1D,
                           g1: GridFunction1D, g2: GridFunction1D,
                           weights: tuple[float, float, float, float],
                           c1: float, c2: float,
                           fraction: Fraction = Fraction(1, 10)
                           ) -> tuple[LevelSetDecomposition1D, ...]:
    """Level-set decompositions of the x and y interval collections, driven by
    the four maximal functions M f1, M f2, M g1, M g2."""
    w_f1, w_f2, w_g1, w_g2 = weights
    mf1, mf2 = maximal_function(f1), maximal_function(f2)
    mg1, mg2 = maximal_function(g1), maximal_function(g2)
    return (level_decomposition_1d(collection_x, mf1, c1, w_f1, fraction),
            level_decomposition_1d(collection_x, mf2, c1, w_f2, fraction),
            level_decomposition_1d(collection_y, mg1, c2, w_g1, fraction),
            level_decomposition_1d(collection_y, mg2, c2, w_g2, fraction))


def tensor_decomposition_II(collection_x: Sequence[DyadicInterval],
                            collection_y: Sequence[DyadicInterval],
                            b_seq_x: CoefficientSequence,
                            b_seq_y: CoefficientSequence,
                            norms: tuple[float, float], c1: float, c2: float
                            ) -> tuple[TreeDecomposition, TreeDecomposition]:
    """Maximal-interval tree decompositions thresholded by the supplied norms."""
    nx, ny = norms
    if not all(math.isfinite(v) and v > 0 for v in norms):
        raise ConfigError("norms must be finite and positive")
    tx = stopping_time_maximal(b_seq_x, collection_x, c1, base_value=nx)
    ty = stopping_time_maximal(b_seq_y, collection_y, c2, base_value=ny)
    return tx, ty


@dataclass
class LevelSetDecomposition2D:
    """Joint (k1, k2) bucketing of rectangles from two 2D level-set ladders."""

    buckets: dict[tuple[int | None, int | None], tuple[DyadicRectangle, ...]]
    driver1: GridFunction2D
    driver2: GridFunction2D
    constant: float
    weight1: float
    weight2: float
    fraction: Fraction = Fraction(1, 100)

    def to_text(self) -> str:
        lines = []
        for key in sorted(self.buckets, key=str):
            lines.append(f"level {key}: "
                         + " ".join(str(r) for r in self.buckets[key]))
        return "\n".join(lines)


def level_set_decomposition_2d(rectangles: Sequence[DyadicRectangle],
                               h: GridFunction2D, e_prime: GridFunction2D,
                               c3: float, s: float,
                               fraction: Fraction = Fraction(1, 100),
                               flavor: str = "haar") -> LevelSetDecomposition2D:
    """Bucket rectangles by the double square function of h and of chi_{E'}.

    k1 is the maximal level with |R & {SSh > c3 2^{k1} ||h||_s}| > |R|/100,
    and k2 the analogue for the Haar double square function of chi_{E'}
    thresholded by its own L^s norm.  h must be nonzero.
    """
    if float(np.max(np.abs(h.samples))) == 0.0:
        raise ConfigError("h must be nonzero")
    rectangles = tuple(rectangles)
    fams = None
    kind = HybridKind.SS_H if flavor == "haar" else HybridKind.SS
    ss_h = hybrid_2d(h, kind, rectangles, fams)
    ss_e = hybrid_2d(e_prime, HybridKind.SS_H, rectangles, None)
    w1 = h.norm(s)
    w2 = e_prime.norm(s)
    buckets: dict[tuple[int | None, int | None], list[DyadicRectangle]] = {}
    for r in rectangles:
        v1 = _qualifying_value(ss_h.restrict(r).ravel(), fraction)
        v2 = _qualifying_value(ss_e.restrict(r).ravel(), fraction)
        k1 = _max_level(v1, c3, w1)
        k2 = _max_level(v2, c3, w2) if w2 > 0 else None
        buckets.setdefault((k1, k2), []).append(r)
    return LevelSetDecomposition2D(
        {k: tuple(sorted(v)) for k, v in buckets.items()},
        ss_h, ss_e, c3, w1, w2, fraction)


@dataclass
class ExceptionalSet:
    """Omega = Omega1 union Omega2, its enlargement and E' = E minus Enl."""

    omega1: GridFunction2D
    omega2: GridFunction2D
    omega: GridFunction2D
    enlarged: GridFunction2D
    e_set: GridFunction2D
    e_prime: GridFunction2D
    constants: tuple[float, float, float]
    mode: str

    @property
    def e_measure(self) -> float:
        return self.e_set.integral()

    @property
    def e_prime_measure(self) -> float:
        return self.e_prime.integral()


def _pair_union(ax_vals: np.ndarray, wx: float, cx: float,
                ay_vals: np.ndarray, wy: float, cy: float) -> np.ndarray:
    """Union over integer n of {A > cx 2^n wx} x {B > cy 2^{-n} wy} as a mask.

    With n_A(x) the largest n qualifying on the x side and n_B(y) the
    largest m with B(y) > cy 2^m wy, a point (x, y) belongs iff
    n_A(x) + n_B(y) >= 0.
    """
    out = np.zeros((ax_vals.shape[0], ay_vals.shape[0]), dtype=bool)
    if wx <= 0 or wy <= 0:
        return out
    pos_x, pos_y = ax_vals > 0, ay_vals > 0
    n_b = np.full(ay_vals.shape, np.iinfo(np.int32).min, dtype=np.int32)  # B <= 0
    n_b[pos_y] = _level_below(ay_vals[pos_y], cy, wy)
    out[pos_x] = n_b[None, :] >= -_level_below(ax_vals[pos_x], cx, wx)[:, None]
    return out


def _global_block(spec_collection, families, v1, v2):
    spec = BilinearBlockSpec(tuple(spec_collection), families, "global")
    return bilinear_block(spec, v1, v2)


def build_exceptional_set(f1: GridFunction1D, f2: GridFunction1D,
                          g1: GridFunction1D, g2: GridFunction1D,
                          h: GridFunction2D, e_set: GridFunction2D,
                          constants: tuple[float, float, float],
                          mode: str = "fixed_scale", *,
                          rectangles: Sequence[DyadicRectangle] = (),
                          weights: tuple[float, float, float, float] | None = None,
                          s: float = 1.5, p: float = 2.0, t: float = 1.0,
                          inner_x: Sequence[DyadicInterval] = (),
                          inner_y: Sequence[DyadicInterval] = (),
                          block_families=None,
                          ss_flavor: str = "haar") -> ExceptionalSet:
    """Construct Omega, Enl(Omega) and E' for one of the four localization modes.

    fixed_scale: four product ladders pairing M f_i against M g_j with the
      set-measure weights |F_i|, |G_j|.
    flag0: the f1/g1 and f2/g2 ladders plus a ladder of maximal functions of
      the global bilinear blocks, weighted by their L1 norms.
    linf_fixed: the single f1/g1 ladder with L^p-norm weights.
    linf_easy: a single ladder of global-block maximal functions with L^t
      weights.
    Omega2 is the square-function level set {SS h > C3 ||h||_s} throughout.
    """
    c1, c2, c3 = constants
    if e_set.integral() <= 0:
        raise ConfigError("E must have positive measure")
    mf1, mf2 = maximal_function(f1), maximal_function(f2)
    mg1, mg2 = maximal_function(g1), maximal_function(g2)
    if weights is None:
        wf1 = GridFunction1D(f1.grid, (f1.samples != 0).astype(float)).integral()
        wf2 = GridFunction1D(f2.grid, (f2.samples != 0).astype(float)).integral()
        wg1 = GridFunction1D(g1.grid, (g1.samples != 0).astype(float)).integral()
        wg2 = GridFunction1D(g2.grid, (g2.samples != 0).astype(float)).integral()
    else:
        wf1, wf2, wg1, wg2 = weights

    a1, a2 = mf1.samples, mf2.samples
    b1, b2 = mg1.samples, mg2.samples
    if mode == "fixed_scale":
        mask = (_pair_union(a1, wf1, c1, b1, wg1, c2)
                | _pair_union(a2, wf2, c1, b2, wg2, c2)
                | _pair_union(a1, wf1, c1, b2, wg2, c2)
                | _pair_union(a2, wf2, c1, b1, wg1, c2))
    elif mode == "flag0":
        fams = block_families or (HAAR_NONLACUNARY, HAAR_LACUNARY, HAAR_LACUNARY)
        bx = _global_block(inner_x, fams, f1, f2)
        by = _global_block(inner_y, fams, g1, g2)
        mbx, mby = maximal_function(bx), maximal_function(by)
        mask = (_pair_union(a1, wf1, c1, b1, wg1, c2)
                | _pair_union(a2, wf2, c1, b2, wg2, c2)
                | _pair_union(mbx.samples, bx.norm(1), c1,
                              mby.samples, by.norm(1), c2))
    elif mode == "linf_fixed":
        mask = _pair_union(a1, f1.norm(p), c1, b1, g1.norm(p), c2)
    elif mode == "linf_easy":
        fams = block_families or (HAAR_NONLACUNARY, HAAR_LACUNARY, HAAR_LACUNARY)
        bx = _global_block(inner_x, fams, f1, f2)
        by = _global_block(inner_y, fams, g1, g2)
        mbx, mby = maximal_function(bx), maximal_function(by)
        mask = _pair_union(mbx.samples, bx.norm(t), c1,
                           mby.samples, by.norm(t), c2)
    else:
        raise ConfigError(f"unknown exceptional-set mode {mode!r}")

    omega1 = GridFunction2D(h.grid_x, h.grid_y, mask.astype(float))
    if rectangles:
        kind = HybridKind.SS_H if ss_flavor == "haar" else HybridKind.SS
        ss = hybrid_2d(h, kind, tuple(rectangles))
        omega2_mask = ss.samples > c3 * h.norm(s)
    else:
        omega2_mask = np.zeros_like(mask)
    omega2 = GridFunction2D(h.grid_x, h.grid_y, omega2_mask.astype(float))
    omega = GridFunction2D(h.grid_x, h.grid_y,
                           (mask | omega2_mask).astype(float))
    mm = maximal_function_2d(omega)
    enlarged = GridFunction2D(h.grid_x, h.grid_y,
                              (mm.samples > 0.01).astype(float))
    e_prime = GridFunction2D(h.grid_x, h.grid_y,
                             e_set.samples * (1.0 - enlarged.samples))
    return ExceptionalSet(omega1, omega2, omega, enlarged, e_set, e_prime,
                          constants, mode)


def union_measure(rectangles: Iterable[DyadicRectangle]) -> Fraction:
    """Exact measure of a union of dyadic rectangles (sweep over x slabs).

    Endpoints are rescaled to integers at the finest scale involved, so the
    sweep runs in pure integer arithmetic.
    """
    rects = list(rectangles)
    if not rects:
        return Fraction(0)
    shift = max(0, max(max(-r.x.k, -r.y.k) for r in rects))
    unit = 2 ** shift

    def span(iv: DyadicInterval) -> tuple[int, int]:
        if iv.k >= 0:
            return iv.n * (2 ** iv.k) * unit, (iv.n + 1) * (2 ** iv.k) * unit
        scale = unit >> (-iv.k)
        return iv.n * scale, (iv.n + 1) * scale

    spans = [(span(r.x), span(r.y)) for r in rects]
    xs = sorted({e for (x0, x1), _ in spans for e in (x0, x1)})
    total = 0
    for x0, x1 in zip(xs[:-1], xs[1:]):
        slabs = sorted(sy for sx, sy in spans if sx[0] <= x0 and sx[1] >= x1)
        if not slabs:
            continue
        covered = 0
        cur_lo, cur_hi = slabs[0]
        for lo, hi in slabs[1:]:
            if lo > cur_hi:
                covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        covered += cur_hi - cur_lo
        total += (x1 - x0) * covered
    return Fraction(total, unit * unit)


def sparsity_check_1d(decomp: LevelSetDecomposition1D,
                      gap: int = 10) -> list[str]:
    """Exact sparsity and pointwise checks on a 1D level-set decomposition.

    For every level n and every J0 in bucket n-10, the intervals of bucket n
    meeting J0 must carry at most half of |J0|; and on every bucket-n interval
    the driver must exceed 2^{-7} C 2^n w pointwise.  Returns violations.
    """
    out: list[str] = []
    levels = sorted(decomp.buckets)
    for n in levels:
        for j0 in decomp.buckets.get(n - gap, ()):
            mass = sum((j.length for j in decomp.buckets[n]
                        if not (j.right <= j0.left or j.left >= j0.right)),
                       Fraction(0))
            if mass > j0.length / 2:
                out.append(f"level {n}: mass {mass} around {j0} exceeds "
                           f"{j0.length / 2}")
        floor_val = _times_pow2(n - 7, decomp.constant, decomp.weight)
        for j in decomp.buckets[n]:
            if float(np.min(decomp.driver.restrict(j))) <= floor_val:
                out.append(f"level {n}: driver dips to "
                           f"{float(np.min(decomp.driver.restrict(j)))} on {j}, "
                           f"needs > {floor_val}")
    return out


def sparsity_check_2d(rectangles: Sequence[DyadicRectangle],
                      decomp_y: LevelSetDecomposition1D
                      ) -> tuple[Fraction, Fraction]:
    """Nested union masses against the total union, grouped by y-level.

    Returns (sum over levels of |union of that level's rectangles|,
    |union of all rectangles|); the contract is lhs <= 10 rhs.
    """
    rectangles = tuple(rectangles)
    groups: dict[object, list[DyadicRectangle]] = {}
    level_of: dict[DyadicInterval, object] = {}
    for n, ivs in decomp_y.buckets.items():
        for iv in ivs:
            level_of[iv] = n
    for iv in decomp_y.bottom:
        level_of[iv] = "bottom"
    for r in rectangles:
        if r.y not in level_of:
            raise ConfigError(f"{r.y} missing from the y decomposition")
        groups.setdefault(level_of[r.y], []).append(r)
    lhs = sum((union_measure(g) for g in groups.values()), Fraction(0))
    rhs = union_measure(rectangles)
    return lhs, rhs


def _meets_complement(rect: DyadicRectangle, indicator: GridFunction2D) -> bool:
    return bool(np.any(indicator.restrict(rect) == 0))


def check_index_observation_I(rectangles: Sequence[DyadicRectangle],
                              exc: ExceptionalSet,
                              dx_f1: LevelSetDecomposition1D,
                              dx_f2: LevelSetDecomposition1D,
                              dy_g1: LevelSetDecomposition1D,
                              dy_g2: LevelSetDecomposition1D) -> list[str]:
    """Rectangles meeting the complement of Enl(Omega) must have all four
    cross sums of tensor-I levels strictly negative."""
    out = []
    for r in rectangles:
        if not _meets_complement(r, exc.enlarged):
            continue
        n1, m1 = dx_f1.level_of(r.x), dx_f2.level_of(r.x)
        n2, m2 = dy_g1.level_of(r.y), dy_g2.level_of(r.y)
        for a, b, tag in ((n1, n2, "n1+n2"), (m1, m2, "m1+m2"),
                          (n1, m2, "n1+m2"), (m1, n2, "m1+n2")):
            if a is not None and b is not None and a + b >= 0:
                out.append(f"{r}: {tag} = {a + b} >= 0")
    return out


def check_index_observation_II(rectangles: Sequence[DyadicRectangle],
                               exc: ExceptionalSet,
                               trees_x: TreeDecomposition,
                               trees_y: TreeDecomposition) -> list[str]:
    """Tree levels of rectangles meeting Enl(Omega)^c must satisfy
    (l1 - 1) + (l2 - 1) < 0.

    Tree level l holds tops with ratio in (C 2^{l-1} nu, C 2^l nu], so the
    guaranteed containment is in the level-(l-1) maximal-function set; the
    strict-sum bound applies to the shifted indices.
    """
    lx = {iv: k for k, t in trees_x.all_trees() for iv in t.members}
    ly = {iv: k for k, t in trees_y.all_trees() for iv in t.members}
    out = []
    for r in rectangles:
        if not _meets_complement(r, exc.enlarged):
            continue
        l1, l2 = lx.get(r.x), ly.get(r.y)
        if l1 is None or l2 is None:
            continue
        if (l1 - 1) + (l2 - 1) >= 0:
            out.append(f"{r}: (l1-1)+(l2-1) = {l1 + l2 - 2} >= 0")
    return out
