"""Level-set and tensor-type stopping-time decompositions, exceptional sets,
and the sparsity verifiers.

Level assignment is by maximal qualifying level: an interval lands in bucket n
when it meets the level set {driver > C 2^n w} in more than a tenth of its
measure but fails that test at level n+1 (the 2D rectangle version uses one
hundredth).  Intervals qualifying at no level go to a reserved bottom bucket.
All measure comparisons are exact integer cell counts.

The 1D decomposition and its sparsity check run one dyadic scale at a time:
the intervals of scale k tile the box, so the driver viewed as rows of
2^(k + res_exp) cells holds one interval per row, and order statistics and
minima over intervals are taken along those rows.  The 2D decomposition does
the same per rectangle shape, one shape of a dyadic.RectangleTable at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .dyadic import (DyadicInterval, DyadicRectangle, Grid1D, GridFunction1D,
                     GridFunction2D, RectangleTable, _interval_table,
                     _level_below, _times_pow2)
from .errors import ConfigError
from .models import BilinearBlockSpec, bilinear_block
from .operators import (HybridKind, hybrid_2d, maximal_function,
                        maximal_function_2d)
from .size_energy import TreeDecomposition, stopping_time_maximal
from .wavelets import CoefficientSequence, HAAR_LACUNARY, HAAR_NONLACUNARY

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


_BOTTOM = np.iinfo(np.int64).min  # the level of an interval that has none


def _qualifying_rows(blocks: np.ndarray, fraction: Fraction) -> np.ndarray:
    """Per row of blocks, the largest v such that strictly more than fraction
    of the row's c cells exceed any threshold below v: the k0-th largest value,
    k0 = floor(c fraction) + 1, or 0 when k0 > c."""
    m, c = blocks.shape
    k0 = int(c * fraction) + 1
    if k0 > c:
        return np.zeros(m)
    return np.partition(blocks, c - k0, axis=1)[:, c - k0]


def _max_levels(vstar: np.ndarray, c: float, weight: float) -> np.ndarray:
    """Per entry, the largest n with c 2^n weight < vstar, or _BOTTOM where
    there is none: where vstar <= 0, and everywhere when weight <= 0."""
    out = np.full(vstar.shape, _BOTTOM, dtype=np.int64)
    if weight <= 0:
        return out
    pos = vstar > 0
    out[pos] = _level_below(vstar[pos], c, weight)
    return out


def _scale_rows(samples: np.ndarray, res_exp: int, ks: np.ndarray,
                ns: np.ndarray):
    """Yield (idx, rows) per scale k among ks: the intervals of scale k tile
    the box, so viewed as rows of 2^(k + res_exp) cells the samples hold one
    interval per row, and rows[j] are the samples on interval idx[j]."""
    for k in np.unique(ks).tolist():
        idx = np.flatnonzero(ks == k)
        yield idx, samples.reshape(-1, 1 << (k + res_exp))[ns[idx]]


@dataclass
class LevelSetDecomposition1D:
    """Buckets of intervals per level, the level sets, and the driver data.

    level_map sends each interval of a bucket to its level and each bottom
    interval to None; it is built once, from the buckets given at
    construction.
    """

    buckets: dict[int, tuple[DyadicInterval, ...]]
    bottom: tuple[DyadicInterval, ...]
    driver: GridFunction1D  # maximal-function values steering the levels
    constant: float
    weight: float
    fraction: Fraction = Fraction(1, 10)
    level_map: dict[DyadicInterval, int | None] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        self.level_map = dict.fromkeys(self.bottom)
        for n, ivs in reversed(self.buckets.items()):  # the first bucket wins
            self.level_map.update(dict.fromkeys(ivs, n))

    def level_set(self, n: int) -> GridFunction1D:
        thr = _times_pow2(n, self.constant, self.weight)
        return GridFunction1D(self.driver.grid,
                              (self.driver.samples > thr).astype(float))

    def level_of(self, interval: DyadicInterval) -> int | None:
        """The interval's level, or None for a bottom or absent interval."""
        return self.level_map.get(interval)

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
    """Assign each interval its maximal qualifying level for the driver.

    An interval's qualifying value is the k0-th largest driver value on its
    c cells, k0 = floor(c fraction) + 1, and its level is the largest n with
    constant 2^n weight below that value.  Intervals with no such level
    (k0 > c, a value <= 0, or weight <= 0) go to bottom.  The values are
    found one scale at a time, with one np.partition over the rows of the
    driver that hold the scale's intervals.  Buckets and bottom keep repeated
    intervals and are sorted; the first interval that is not a union of grid
    cells inside the box raises ResolutionError or DomainError, and a
    non-finite constant or weight, or a constant <= 0, raises ConfigError.
    """
    if not (math.isfinite(constant) and math.isfinite(weight)) or constant <= 0:
        raise ConfigError("constant must be finite and positive, weight finite")
    collection = tuple(collection)
    grid = driver.grid
    ks, ns = _interval_table(collection, grid)
    vstar = np.zeros(len(collection))
    for idx, rows in _scale_rows(driver.samples, grid.res_exp, ks, ns):
        vstar[idx] = _qualifying_rows(rows, fraction)
    levels = _max_levels(vstar, constant, weight)
    order = np.lexsort((ns, ks))  # DyadicInterval order, stable
    _, first = np.unique(levels, return_index=True)
    buckets = {}
    for n in levels[np.sort(first)].tolist():  # in order of first appearance
        buckets[n] = tuple(collection[i] for i in order[levels[order] == n].tolist())
    bottom = buckets.pop(_BOTTOM, ())
    return LevelSetDecomposition1D(buckets, bottom, driver, constant, weight,
                                   fraction)


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


def level_set_decomposition_2d(rectangles: RectangleTable | Sequence[DyadicRectangle],
                               h: GridFunction2D, e_prime: GridFunction2D,
                               c3: float, s: float,
                               fraction: Fraction = Fraction(1, 100)
                               ) -> LevelSetDecomposition2D:
    """Bucket rectangles by the Haar double square functions of h and of
    chi_{E'}.

    k1 is the maximal level with |R & {SSh > c3 2^{k1} ||h||_s}| > |R|/100,
    and k2 the analogue for chi_{E'} thresholded by its own L^s norm.  h must
    be nonzero.  The rectangles are read as one RectangleTable; the
    qualifying values come one shape of it at a time, from one np.partition
    over the shape's blocks of each double square function, gathered as rows.
    """
    if float(np.max(np.abs(h.samples))) == 0.0:
        raise ConfigError("h must be nonzero")
    table = RectangleTable.of(rectangles)
    ss_h = hybrid_2d(h, HybridKind.SS_H, table)
    ss_e = hybrid_2d(e_prime, HybridKind.SS_H, table)
    w1 = h.norm(s)
    w2 = e_prime.norm(s)
    v1, v2 = np.zeros(len(table)), np.zeros(len(table))
    for (kx, ky), (idx, nx, ny) in table.groups.items():
        for ss, v in ((ss_h, v1), (ss_e, v2)):
            bx, by = 1 << (kx + ss.grid_x.res_exp), 1 << (ky + ss.grid_y.res_exp)
            blocks = ss.samples.reshape(-1, bx, ss.grid_y.n_points // by, by)
            v[idx] = _qualifying_rows(
                blocks[nx, :, ny, :].reshape(idx.size, bx * by), fraction)
    # a NaN norm gives no k2 level, as a zero one does
    keys = zip(_max_levels(v1, c3, w1).tolist(),
               _max_levels(v2, c3, w2 if w2 > 0 else 0.0).tolist())
    buckets: dict[tuple[int | None, int | None], list[DyadicRectangle]] = {}
    for (k1, k2), r in zip(keys, table):
        key = (None if k1 == _BOTTOM else k1, None if k2 == _BOTTOM else k2)
        buckets.setdefault(key, []).append(r)
    return LevelSetDecomposition2D(
        {k: tuple(sorted(v)) for k, v in buckets.items()},
        ss_h, ss_e, c3, w1, w2, fraction)


@dataclass
class ExceptionalSet:
    """Omega = Omega1 union Omega2, its enlargement and E' = E minus Enl;
    h_norm is ||h||_s, the scale of the Omega2 threshold."""

    omega1: GridFunction2D
    omega2: GridFunction2D
    omega: GridFunction2D
    enlarged: GridFunction2D
    e_set: GridFunction2D
    e_prime: GridFunction2D
    constants: tuple[float, float, float]
    mode: str
    h_norm: float

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


def _global_block(spec_collection, v1, v2):
    spec = BilinearBlockSpec(tuple(spec_collection),
                             (HAAR_NONLACUNARY, HAAR_LACUNARY, HAAR_LACUNARY))
    return bilinear_block(spec, v1, v2)


def build_exceptional_set(f1: GridFunction1D, f2: GridFunction1D,
                          g1: GridFunction1D, g2: GridFunction1D,
                          h: GridFunction2D, e_set: GridFunction2D,
                          constants: tuple[float, float, float],
                          mode: str = "fixed_scale", *,
                          rectangles: RectangleTable | Sequence[DyadicRectangle] = (),
                          weights: tuple[float, float, float, float] | None = None,
                          s: float = 1.5, p: float = 2.0, t: float = 1.0,
                          inner_x: Sequence[DyadicInterval] = (),
                          inner_y: Sequence[DyadicInterval] = (),
                          h_coefficients: np.ndarray | None = None) -> ExceptionalSet:
    """Construct Omega, Enl(Omega) and E' for one of the four localization modes.

    fixed_scale: four product ladders pairing M f_i against M g_j with the
      set-measure weights |F_i|, |G_j|.
    flag0: the f1/g1 and f2/g2 ladders plus a ladder of maximal functions of
      the global Haar bilinear blocks, weighted by their L1 norms.
    linf_fixed: the single f1/g1 ladder with L^p-norm weights.
    linf_easy: a single ladder of global-block maximal functions with L^t
      weights.
    Omega2 is the Haar square-function level set {SS h > C3 ||h||_s}
    throughout, over the given rectangles; h_coefficients, when given, are
    h's Haar lacunary rectangle coefficients, in rectangle order, and
    hybrid_2d uses them instead of computing its own.  Omega1, Omega2, Omega
    and Enl(Omega) hold bool masks; E' keeps the values of E off Enl(Omega).
    Non-finite or non-positive constants raise ConfigError.
    """
    if not all(math.isfinite(c) and c > 0 for c in constants):
        raise ConfigError("constants must be finite and positive")
    c1, c2, c3 = constants
    if e_set.integral() <= 0:
        raise ConfigError("E must have positive measure")
    a1, a2, b1, b2 = (maximal_function(v).samples for v in (f1, f2, g1, g2))
    if weights is None:  # the measures of the supports
        weights = [GridFunction1D(v.grid, (v.samples != 0).astype(float)).integral()
                   for v in (f1, f2, g1, g2)]
    wf1, wf2, wg1, wg2 = weights
    if mode in ("flag0", "linf_easy"):
        bx = _global_block(inner_x, f1, f2)
        by = _global_block(inner_y, g1, g2)
        mbx, mby = maximal_function(bx), maximal_function(by)
    if mode == "fixed_scale":
        mask = (_pair_union(a1, wf1, c1, b1, wg1, c2)
                | _pair_union(a2, wf2, c1, b2, wg2, c2)
                | _pair_union(a1, wf1, c1, b2, wg2, c2)
                | _pair_union(a2, wf2, c1, b1, wg1, c2))
    elif mode == "flag0":
        mask = (_pair_union(a1, wf1, c1, b1, wg1, c2)
                | _pair_union(a2, wf2, c1, b2, wg2, c2)
                | _pair_union(mbx.samples, bx.norm(1), c1,
                              mby.samples, by.norm(1), c2))
    elif mode == "linf_fixed":
        mask = _pair_union(a1, f1.norm(p), c1, b1, g1.norm(p), c2)
    elif mode == "linf_easy":
        mask = _pair_union(mbx.samples, bx.norm(t), c1,
                           mby.samples, by.norm(t), c2)
    else:
        raise ConfigError(f"unknown exceptional-set mode {mode!r}")

    omega1 = GridFunction2D(h.grid_x, h.grid_y, mask)
    h_norm = h.norm(s)
    if rectangles:
        ss = hybrid_2d(h, HybridKind.SS_H, rectangles, coefficients=h_coefficients)
        omega2_mask = ss.samples > c3 * h_norm
    else:
        omega2_mask = np.zeros_like(mask)
    omega2 = GridFunction2D(h.grid_x, h.grid_y, omega2_mask)
    omega = GridFunction2D(h.grid_x, h.grid_y, mask | omega2_mask)
    mm = maximal_function_2d(omega)
    enlarged = GridFunction2D(h.grid_x, h.grid_y, mm.samples > 0.01)
    e_prime = GridFunction2D(h.grid_x, h.grid_y,
                             np.where(enlarged.samples, 0.0, e_set.samples))
    return ExceptionalSet(omega1, omega2, omega, enlarged, e_set, e_prime,
                          constants, mode, h_norm)


def _covered(spans) -> int:
    """Total length of the union of a nonempty set of integer spans [lo, hi)."""
    spans = sorted(spans)
    covered = 0
    cur_lo, cur_hi = spans[0]
    for lo, hi in spans[1:]:
        if lo > cur_hi:
            covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    return covered + cur_hi - cur_lo


def union_measure(rectangles: Iterable[DyadicRectangle]) -> Fraction:
    """Exact measure of a union of dyadic rectangles, by one sweep in x.

    Endpoints are rescaled to integers at the finest scale involved.  The
    sweep visits the x endpoints in order, keeping the y spans of the
    rectangles over the current x slab in an active multiset, and adds each
    slab's width times the length the active spans cover; it runs in pure
    integer arithmetic.
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

    events = []  # (x, +1 or -1, y span): a rectangle opens or closes at x
    for r in rects:
        (x0, x1), sy = span(r.x), span(r.y)
        events += [(x0, 1, sy), (x1, -1, sy)]
    events.sort()
    active: dict[tuple[int, int], int] = {}  # y span -> rectangles over the slab
    total, prev = 0, events[0][0]
    for x, delta, sy in events:
        if x > prev and active:
            total += (x - prev) * _covered(active)
        prev = x
        count = active.get(sy, 0) + delta
        if count:
            active[sy] = count
        else:
            del active[sy]
    return Fraction(total, unit * unit)


def _mass_violations(n: int, j0s: Sequence[DyadicInterval],
                     lo0: np.ndarray, hi0: np.ndarray, lo: np.ndarray,
                     hi: np.ndarray, grid: Grid1D) -> list[str]:
    """The J0 = j0s[i], cells [lo0[i], hi0[i]), met by intervals [lo, hi)
    whose summed lengths exceed |J0| / 2, as violation messages of level n."""
    length = hi - lo
    by_lo, by_hi = np.argsort(lo), np.argsort(hi)
    starts_before = np.concatenate(([0], np.cumsum(length[by_lo])))
    ends_before = np.concatenate(([0], np.cumsum(length[by_hi])))
    mass = (starts_before[np.searchsorted(lo[by_lo], hi0, "left")]
            - ends_before[np.searchsorted(hi[by_hi], lo0, "right")])
    return [f"level {n}: mass {int(mass[i]) * grid.cell_width} around "
            f"{j0s[i]} exceeds {j0s[i].length / 2}"
            for i in np.flatnonzero(2 * mass > hi0 - lo0).tolist()]


def sparsity_check_1d(decomp: LevelSetDecomposition1D,
                      gap: int = 10) -> list[str]:
    """Exact sparsity and pointwise checks on a 1D level-set decomposition.

    For every level n and every J0 in bucket n-10, the intervals of bucket n
    meeting J0 must carry at most half of |J0|; and on every bucket-n interval
    the driver must exceed 2^{-7} C 2^n w pointwise.  Returns violations,
    level by level upwards: each level's mass violations in the order of
    bucket n-10, then its driver dips in the order of bucket n.

    The driver minima come one scale at a time, as row minima of the driver
    viewed as rows of the scale's cells.  A mass is an exact count of grid
    cells: the summed lengths of the bucket-n intervals starting before J0
    ends, minus those ending before J0 starts, read off cumulative sums with
    searchsorted.  The first bucket interval that is not a union of grid
    cells inside the box raises ResolutionError or DomainError.
    """
    grid, samples = decomp.driver.grid, decomp.driver.samples
    levels = sorted(decomp.buckets)
    ks, ns = _interval_table(
        [iv for n in levels for iv in decomp.buckets[n]], grid)
    mins = np.zeros(len(ks))
    for idx, rows in _scale_rows(samples, grid.res_exp, ks, ns):
        mins[idx] = rows.min(axis=1)
    s = ks + grid.res_exp
    lo, hi = ns << s, (ns + 1) << s  # cell spans [lo, hi)
    ends = np.cumsum([0] + [len(decomp.buckets[n]) for n in levels])
    at = {n: slice(a, b) for n, a, b in zip(levels, ends[:-1], ends[1:])}

    out: list[str] = []
    for n in levels:
        if n - gap in at:
            out.extend(_mass_violations(n, decomp.buckets[n - gap],
                                        lo[at[n - gap]], hi[at[n - gap]],
                                        lo[at[n]], hi[at[n]], grid))
        floor_val = _times_pow2(n - 7, decomp.constant, decomp.weight)
        dips = mins[at[n]]
        for i in np.flatnonzero(dips <= floor_val).tolist():
            out.append(f"level {n}: driver dips to {float(dips[i])} on "
                       f"{decomp.buckets[n][i]}, needs > {floor_val}")
    return out


def sparsity_check_2d(rectangles: Sequence[DyadicRectangle],
                      decomp_y: LevelSetDecomposition1D
                      ) -> tuple[Fraction, Fraction]:
    """Nested union masses against the total union, grouped by y-level.

    Returns (sum over levels of |union of that level's rectangles|,
    |union of all rectangles|); the contract is lhs <= 10 rhs.
    """
    rectangles = tuple(rectangles)
    groups: dict[int | None, list[DyadicRectangle]] = {}
    for r in rectangles:
        if r.y not in decomp_y.level_map:
            raise ConfigError(f"{r.y} missing from the y decomposition")
        groups.setdefault(decomp_y.level_map[r.y], []).append(r)
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
