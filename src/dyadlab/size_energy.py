"""Size and energy functionals, BMO norms, and the maximal-interval stopping time.

Ratios come in two flavors.  For a sequence paired with averaging-type
(non-lacunary) cutoffs the ratio of an interval is |a_I| / |I|^{1/2}.  For a
wavelet-type (lacunary) sequence it is the weak-L1 norm of the local square
function over the interval, divided by |I|.  Every functional below accepts a
`lacunary` flag selecting the flavor.

The kernels work on arrays, not on one interval at a time.  The tops of one
scale k0 partition the grid, so their local square functions are the blocks
of one grid array per scale.  The energies read every level of their ladder
from one array of ancestor maxima.  The stopping time gathers a tree's members
with a mask over the collection's ranges in finest-scale units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .dyadic import (DyadicInterval, Grid1D, GridFunction1D, _check_finite,
                     _level_below, _times_pow2, contains)
from .errors import ConfigError
from .wavelets import CoefficientSequence

__all__ = [
    "SizeEnergyReport",
    "Tree",
    "TreeDecomposition",
    "weak_l1_norm",
    "interval_ratios",
    "size",
    "energy",
    "bmo_norm",
    "stopping_time_maximal",
    "size_energy_bound_check",
    "check_stopping_time_properties",
]


def _weak_l1(samples: np.ndarray, width: float) -> np.ndarray:
    """sup_l l * |{|g| > l}| of each row of nonnegative samples on cells of the
    given width.

    The supremum over l > 0 is attained just below one of the finitely many
    values of |g|.  With the row sorted descending as s_0 >= s_1 >= ..., the
    cells where |g| >= s_j number at least j + 1, with equality at the last
    copy of each value, so the norm is max_j s_j (j+1) width.
    """
    s = np.sort(samples, axis=-1)[..., ::-1]
    return np.max(s * np.arange(1, s.shape[-1] + 1) * width, axis=-1, initial=0.0)


def weak_l1_norm(g: GridFunction1D) -> float:
    """sup_l l * |{|g| > l}|, exact on grid functions: max_j s_j (j+1) w with
    s the values of |g| sorted descending and w the cell width (`_weak_l1`)."""
    a = np.abs(np.asarray(g.samples, dtype=float))
    return float(_weak_l1(a, float(g.grid.cell_width)))


def _local_square_functions(seq: CoefficientSequence,
                            tops: Sequence[DyadicInterval], grid: Grid1D
                            ) -> Iterator[tuple[int, list[int], np.ndarray]]:
    """Local square functions (sum_{I subseteq top} |a_I|^2 / |I| chi_I)^(1/2)
    of the tops, one scale k0 at a time.

    Yields (k0, idx, blocks): row j of blocks is the function of tops[idx[j]]
    on its grid cells, or zeros for a top that holds no grid cell.  The tops of
    one scale partition the grid, so all their functions come from one grid
    array: the sum over the members I of seq with I.k <= k0, added in sequence
    order, which is each cell's sum over its top in the same order.  Only one
    scale's arrays live at a time.

    A nonzero member contained in a top raises the cell_range error of the
    first such top and member: ResolutionError when it is finer than the grid,
    DomainError when it lies outside the domain.
    """
    res, n_points = grid.res_exp, grid.n_points
    cells, bad = [], []
    for iv, c in seq.items():
        if c == 0.0:
            continue
        s = iv.k + res
        if s >= 0 and iv.n >= 0 and (iv.n + 1) << s <= n_points:
            cells.append((iv.k, iv.n << s, (iv.n + 1) << s,
                          abs(c) ** 2 / math.ldexp(1.0, iv.k)))
        else:
            bad.append(iv)
    for top in tops:
        for iv in bad:
            if contains(top, iv):
                grid.cell_range(iv)  # raises
    by_scale: dict[int, list[int]] = {}
    for j, top in enumerate(tops):
        by_scale.setdefault(top.k, []).append(j)
    for k0, idx in sorted(by_scale.items()):
        s = k0 + res
        if s < 0:  # finer than the grid: no cell, and its nonzero members raised
            yield k0, idx, np.zeros((len(idx), 1))
            continue
        row = np.zeros(n_points)
        for k, a, b, w in cells:
            if k <= k0:
                row[a:b] += w
        blocks = np.sqrt(row).reshape(-1, 1 << min(s, grid.box_exp + res))
        out = np.zeros((len(idx), blocks.shape[1]))
        for j, i in enumerate(idx):
            if 0 <= tops[i].n < blocks.shape[0]:
                out[j] = blocks[tops[i].n]
        _check_finite(out)
        yield k0, idx, out


def interval_ratios(seq: CoefficientSequence, collection: Sequence[DyadicInterval],
                    lacunary: bool, grid: Grid1D | None = None
                    ) -> dict[DyadicInterval, float]:
    """The per-interval quantity whose sup defines the size.

    Lacunary ratios take the weak-L1 norm of every top's local square function
    at once, from the one array per top scale of `_local_square_functions`.
    """
    collection = tuple(collection)
    if lacunary:
        if grid is None:
            raise ConfigError("lacunary ratios need the grid")
        width = float(grid.cell_width)
        ratios = np.zeros(len(collection))
        for k0, idx, blocks in _local_square_functions(seq, collection, grid):
            ratios[idx] = _weak_l1(blocks, width) / math.ldexp(1.0, k0)
        return dict(zip(collection, ratios.tolist()))
    return {iv: abs(seq[iv]) / math.ldexp(1.0, iv.k) ** 0.5 for iv in collection}


@dataclass
class SizeEnergyReport:
    """Result of a size or energy evaluation, with a reproducing witness."""

    kind: str  # "size" | "energy_weak" | "energy_strong(t)"
    value: float
    witness_interval: DyadicInterval | None = None
    witness_level: int | None = None
    witness_family: tuple[DyadicInterval, ...] = ()

    def to_text(self) -> str:
        lines = [f"kind: {self.kind}", f"value: {self.value!r}"]
        if self.witness_interval is not None:
            lines.append(f"witness_interval: {self.witness_interval}")
        if self.witness_level is not None:
            lines.append(f"witness_level: {self.witness_level}")
        if self.witness_family:
            lines.append("witness_family: "
                         + " ".join(str(i) for i in self.witness_family))
        return "\n".join(lines)


def size(seq: CoefficientSequence, collection: Sequence[DyadicInterval],
         lacunary: bool, grid: Grid1D | None = None) -> SizeEnergyReport:
    """sup over the collection of the interval ratio, with the attaining interval."""
    collection = tuple(collection)
    if not collection:
        raise ConfigError("size over an empty collection")
    ratios = interval_ratios(seq, collection, lacunary, grid)
    witness = max(collection, key=lambda iv: ratios[iv])
    return SizeEnergyReport("size", ratios[witness], witness_interval=witness)


def _ancestor_max(ks: np.ndarray, ns: np.ndarray, rs: np.ndarray) -> np.ndarray:
    """For each interval (ks[i], ns[i]), the largest rs over its strict
    ancestors among the given distinct intervals, sorted by (-k, n), or 0
    when it has none."""
    anc = np.zeros_like(rs)
    for a in set(ks.tolist()):
        order = np.flatnonzero(ks == a)  # n ascending
        below = np.flatnonzero(ks < a)
        up = ns[below] >> (a - ks[below])  # the scale-a ancestor's position
        pos = np.minimum(np.searchsorted(ns[order], up), order.size - 1)
        hit = ns[order[pos]] == up
        i, j = below[hit], order[pos[hit]]
        anc[i] = np.maximum(anc[i], rs[j])
    return anc


def _energy(ratios: dict[DyadicInterval, float], kind: str = "weak_1inf",
            t: float | None = None) -> SizeEnergyReport:
    """The energy of `energy` from ratios already computed.

    With A_I the largest ratio among the strict ancestors of I (0 if none),
    the inclusion-maximal intervals with ratio above 2^n are exactly
    {I : A_I <= 2^n < r_I}, in (-k, n) order.  Their mass is an exact count
    of finest-scale units times 2^kmin, which equals the float of the exact
    sum of their lengths.
    """
    if kind not in ("weak_1inf", "strong_t"):
        raise ConfigError(f"unknown energy kind {kind!r}")
    if kind == "strong_t" and (t is None or not (math.isfinite(t) and t > 1.0)):
        raise ConfigError("strong_t energy requires a finite t > 1")
    label = "energy_weak" if kind == "weak_1inf" else f"energy_strong({t})"
    positive = sorted((iv for iv, r in ratios.items() if r > 0.0),
                      key=lambda iv: (-iv.k, iv.n))
    if not positive:
        return SizeEnergyReport(label, 0.0)
    ks = np.array([iv.k for iv in positive], dtype=np.int64)
    ns = np.array([iv.n for iv in positive], dtype=np.int64)
    rs = np.array([ratios[iv] for iv in positive])
    anc = _ancestor_max(ks, ns, rs)
    kmin = positive[-1].k
    units = np.array([1 << (iv.k - kmin) for iv in positive], dtype=object)
    crit = _level_below(rs)

    def family(n: int) -> tuple[np.ndarray, float]:
        thr = 2.0 ** n
        fam = np.flatnonzero((rs > thr) & (anc <= thr))
        return fam, math.ldexp(float(units[fam].sum()), kmin)

    if kind == "weak_1inf":
        best, best_n, best_fam = 0.0, None, ()
        for n in sorted(set(crit.tolist())):
            fam, mass = family(n)
            value = 2.0 ** n * mass
            if value > best:
                best, best_n, best_fam = value, n, tuple(positive[i] for i in fam)
        return SizeEnergyReport(label, best, witness_level=best_n,
                                witness_family=best_fam)
    total = 0.0
    for n in range(int(crit.min()), int(crit.max()) + 1):
        total += 2.0 ** (t * n) * family(n)[1]
    return SizeEnergyReport(label, total ** (1.0 / t))


def energy(seq: CoefficientSequence, collection: Sequence[DyadicInterval],
           kind: str = "weak_1inf", t: float | None = None,
           lacunary: bool = False, grid: Grid1D | None = None
           ) -> SizeEnergyReport:
    """Level-ladder energy of a coefficient sequence.

    weak_1inf: sup_n 2^n sup_{D_n} sum |I| with D_n the disjoint families of
    intervals whose ratio exceeds 2^n.  The optimizer is the family of
    inclusion-maximal qualifying intervals, which dominates every disjoint
    qualifying subfamily.

    strong_t: (sum_n 2^{tn} sup_{D_n} sum |I|)^{1/t} over the finite ladder of
    levels touched by the data (finite t > 1).

    Every level's family is read from one array of ancestor maxima (see
    `_energy`).
    """
    return _energy(interval_ratios(seq, collection, lacunary, grid), kind, t)


def bmo_norm(seq: CoefficientSequence, collection: Sequence[DyadicInterval],
             r: float, grid: Grid1D) -> float:
    """sup over tops of |I0|^{-1/r} * || local square function ||_r, for a
    finite r > 0, with the local square functions of `_local_square_functions`."""
    if not (math.isfinite(r) and r > 0):
        raise ConfigError("r must be finite and positive")
    width = float(grid.cell_width)
    best = 0.0
    for k0, _, blocks in _local_square_functions(seq, tuple(collection), grid):
        norms = (np.sum(blocks ** r, axis=1) * width) ** (1.0 / r)
        best = max(best, float(norms.max()) / math.ldexp(1.0, k0) ** (1.0 / r))
    return best


@dataclass(frozen=True)
class Tree:
    top: DyadicInterval
    members: tuple[DyadicInterval, ...]


@dataclass
class TreeDecomposition:
    """Output of the maximal-interval stopping time.

    levels[k] holds the trees whose top ratio lies in (C1 2^{k-1} E, C1 2^k E];
    intervals with ratio exactly zero end up in the reserved bottom bucket as
    their own trees.  residual is empty on every completed run.
    """

    levels: dict[int, tuple[Tree, ...]]
    bottom: tuple[Tree, ...] = ()
    residual: tuple[DyadicInterval, ...] = ()
    base_value: float = 0.0
    c1: float = 1.0

    def all_trees(self) -> list[tuple[int | None, Tree]]:
        out: list[tuple[int | None, Tree]] = []
        for k in sorted(self.levels, reverse=True):
            out.extend((k, t) for t in self.levels[k])
        out.extend((None, t) for t in self.bottom)
        return out

    def assigned(self) -> list[DyadicInterval]:
        return [iv for _, t in self.all_trees() for iv in t.members]

    def to_text(self) -> str:
        lines = []
        for k in sorted(self.levels, reverse=True):
            for t in self.levels[k]:
                members = " ".join(str(i) for i in t.members)
                lines.append(f"level {k}: top {t.top}: {members}")
        for t in self.bottom:
            members = " ".join(str(i) for i in t.members)
            lines.append(f"level bottom: top {t.top}: {members}")
        return "\n".join(lines)


def stopping_time_maximal(seq: CoefficientSequence,
                          collection: Sequence[DyadicInterval], c1: float,
                          lacunary: bool = False, grid: Grid1D | None = None,
                          base_value: float | None = None) -> TreeDecomposition:
    """Greedy maximal-interval stopping time.

    Repeatedly, at descending levels k, pick the largest unassigned interval
    whose ratio exceeds c1 * 2^{k-1} * E (ties: leftmost), make it a tree-top
    and absorb every unassigned interval it contains.  E defaults to the
    weak-(1,inf) energy of the sequence; base_value overrides it.

    The ratios are computed once.  The distinct intervals are sorted once by
    (-k, n), each with its range [lo, hi) in finest-scale units and an alive
    flag; a top's members are the alive intervals whose range lies inside its
    range, already in (-k, n) order.
    """
    if not (math.isfinite(c1) and c1 >= 1):
        raise ConfigError("c1 must be finite and >= 1")
    if base_value is not None and not (math.isfinite(base_value) and base_value > 0):
        raise ConfigError("base value must be finite and positive")
    collection = tuple(collection)
    if not collection:
        raise ConfigError("stopping time over an empty collection")
    ratios = interval_ratios(seq, collection, lacunary, grid)
    base = _energy(ratios).value if base_value is None else base_value

    ivs = sorted(set(collection), key=lambda iv: (-iv.k, iv.n))
    kmin = ivs[-1].k
    lo = np.array([iv.n << (iv.k - kmin) for iv in ivs], dtype=np.int64)
    hi = np.array([(iv.n + 1) << (iv.k - kmin) for iv in ivs], dtype=np.int64)
    rs = np.array([ratios[iv] for iv in ivs])
    alive = np.ones(len(ivs), dtype=bool)

    def absorb(i: int) -> Tree:
        inside = np.flatnonzero(alive & (lo >= lo[i]) & (hi <= hi[i]))
        alive[inside] = False
        return Tree(ivs[i], tuple(ivs[j] for j in inside))

    levels: dict[int, list[Tree]] = {}
    positive = rs > 0
    if base > 0 and positive.any():
        # the level of ratio r is the k with c1 2^{k-1} base < r <= c1 2^k base
        level = np.zeros(len(ivs), dtype=np.int64)
        level[positive] = _level_below(rs[positive], c1, base) + 1
        left = positive
        while left.any():
            k = int(level[left].max())
            threshold = _times_pow2(k - 1, c1, base)
            # the threshold is fixed and alive only shrinks, so the tops are
            # the candidates still alive when reached, in (-k, n) order
            for i in np.flatnonzero(left & (rs > threshold)).tolist():
                if alive[i]:
                    levels.setdefault(k, []).append(absorb(i))
            left = positive & alive

    bottom: list[Tree] = []
    while alive.any():
        bottom.append(absorb(int(np.argmax(alive))))

    return TreeDecomposition({k: tuple(v) for k, v in levels.items()},
                             tuple(bottom), (), base, c1)


def check_stopping_time_properties(decomp: TreeDecomposition,
                                   seq: CoefficientSequence,
                                   collection: Sequence[DyadicInterval],
                                   lacunary: bool = False,
                                   grid: Grid1D | None = None) -> list[str]:
    """Exact per-level checks of the stopping-time output.

    For each level k: the size restricted to the level-k trees lies in
    (c1 2^{k-1} E, c1 2^k E] and is at most the global size; and, after
    normalizing E to 1, the tree-top lengths satisfy sum |Q_U| <= 2^{1-k}/c1
    whenever c1 is a power of two.  Violations are returned as messages.
    The ratios are computed once and also give the actual energy.
    """
    collection = tuple(collection)
    ratios = interval_ratios(seq, collection, lacunary, grid)
    global_size = max(ratios.values()) if ratios else 0.0
    e, c1 = decomp.base_value, decomp.c1
    out: list[str] = []
    if e <= 0:
        return out
    e_actual = _energy(ratios).value
    for k, trees in decomp.levels.items():
        level_ratios = [ratios[iv] for t in trees for iv in t.members]
        lo, hi = _times_pow2(k - 1, c1, e), _times_pow2(k, c1, e)
        level_size = max(level_ratios)
        if not (lo < level_size <= min(hi, global_size) * (1 + 1e-12)):
            out.append(f"level {k}: size {level_size} outside "
                       f"({lo}, min({hi}, {global_size})]")
        # Tops form a disjoint family above the largest dyadic level below the
        # formation threshold, so energy caps their mass at e / 2^n*.  When
        # c1 * e is a power of two this is exactly 2^(1-k)/c1.
        n_star = -1 - _level_below(1.0, lo)  # the largest n with 2^n <= lo
        mass = float(sum((t.top.length for t in trees), Fraction(0)))
        bound = math.ldexp(e_actual, -n_star)
        if mass > bound * (1 + 1e-12):
            out.append(f"level {k}: top mass {mass} exceeds {bound}")
    return out


def size_energy_bound_check(seq1: CoefficientSequence, seq2: CoefficientSequence,
                            seq3: CoefficientSequence,
                            collection: Sequence[DyadicInterval],
                            thetas: tuple[float, float, float],
                            lacunary_flags: tuple[bool, bool, bool] = (False, True, True),
                            grid: Grid1D | None = None
                            ) -> tuple[float, float, float]:
    """Trilinear form against the size^(1-theta) energy^theta product bound.

    lhs = |sum_Q |Q|^{-1/2} a^1_Q a^2_Q a^3_Q|; rhs = prod_i size_i^{1-theta_i}
    energy_i^{theta_i}.  Returns (lhs, rhs, lhs/rhs) with the ratio defined as
    0 when both sides vanish.  Each sequence's interval ratios are computed
    once and give both its size and its weak energy.
    """
    t1, t2, t3 = thetas
    if not all(0.0 <= t < 1.0 for t in thetas) or abs(t1 + t2 + t3 - 1.0) > 1e-12:
        raise ConfigError("thetas must lie in [0,1) and sum to 1")
    if sum(lacunary_flags) < 2:
        raise ConfigError("at least two of the three families must be lacunary")
    collection = tuple(collection)
    if not collection:
        raise ConfigError("size over an empty collection")
    lhs = abs(sum(seq1[q] * seq2[q] * seq3[q] / math.ldexp(1.0, q.k) ** 0.5
                  for q in collection))
    rhs = 1.0
    for seq, theta, lac in zip((seq1, seq2, seq3), thetas, lacunary_flags):
        ratios = interval_ratios(seq, collection, lac, grid)
        s = max(ratios.values())
        e = _energy(ratios).value
        rhs *= s ** (1.0 - theta) * e ** theta
    if lhs == 0.0 and rhs == 0.0:
        return 0.0, 0.0, 0.0
    return lhs, rhs, (lhs / rhs if rhs > 0 else float("inf"))
