"""Size and energy functionals, BMO norms, and the maximal-interval stopping time.

Ratios come in two flavors.  For a sequence paired with averaging-type
(non-lacunary) cutoffs the ratio of an interval is |a_I| / |I|^{1/2}.  For a
wavelet-type (lacunary) sequence it is the weak-L1 norm of the local square
function over the interval, divided by |I|.  Every functional below accepts a
`lacunary` flag selecting the flavor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .dyadic import (DyadicInterval, Grid1D, GridFunction1D, _level_below,
                     _times_pow2, contains)
from .errors import ConfigError
from .wavelets import CoefficientSequence

__all__ = [
    "SizeEnergyReport",
    "Tree",
    "TreeDecomposition",
    "weak_l1_norm",
    "size",
    "energy",
    "bmo_norm",
    "stopping_time_maximal",
    "size_energy_bound_check",
    "check_stopping_time_properties",
]


def weak_l1_norm(g: GridFunction1D) -> float:
    """sup_l l * |{|g| > l}|, exact on grid functions.

    The supremum over l > 0 is attained just below one of the finitely many
    values of |g|, so it equals max over distinct values v of v * |{|g| >= v}|.
    """
    a = np.abs(np.asarray(g.samples, dtype=float))
    w = float(g.grid.cell_width)
    vals = np.unique(a)
    vals = vals[vals > 0]
    if vals.size == 0:
        return 0.0
    # cells with |g| >= v, for v descending: cumulative counts
    order = np.argsort(a)[::-1]
    sorted_desc = a[order]
    best = 0.0
    for v in vals:
        count = int(np.searchsorted(-sorted_desc, -v, side="right"))
        best = max(best, float(v) * count * w)
    return best


def local_square_function(seq: CoefficientSequence, top: DyadicInterval,
                          grid: Grid1D) -> GridFunction1D:
    """(sum_{I subseteq top} |a_I|^2 / |I| chi_I)^(1/2) on the grid."""
    acc = np.zeros(grid.n_points)
    for iv, c in seq.items():
        if c == 0.0 or not contains(top, iv):
            continue
        a, b = grid.cell_range(iv)
        acc[a:b] += abs(c) ** 2 / math.ldexp(1.0, iv.k)
    return GridFunction1D(grid, np.sqrt(acc))


def interval_ratios(seq: CoefficientSequence, collection: Sequence[DyadicInterval],
                    lacunary: bool, grid: Grid1D | None = None
                    ) -> dict[DyadicInterval, float]:
    """The per-interval quantity whose sup defines the size."""
    if lacunary:
        if grid is None:
            raise ConfigError("lacunary ratios need the grid")
        return {iv: weak_l1_norm(local_square_function(seq, iv, grid))
                / math.ldexp(1.0, iv.k) for iv in collection}
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


def _maximal_disjoint(collection: Iterable[DyadicInterval]) -> list[DyadicInterval]:
    """Inclusion-maximal elements; pairwise disjoint by dyadic dichotomy."""
    by_size = sorted(collection, key=lambda iv: (-iv.k, iv.n))
    kept: set[DyadicInterval] = set()
    max_k = by_size[0].k if by_size else 0
    out = []
    for iv in by_size:
        cur = iv
        covered = False
        while cur.k <= max_k:
            if cur in kept:
                covered = True
                break
            cur = cur.parent()
        if not covered:
            kept.add(iv)
            out.append(iv)
    return out


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
    levels touched by the data (t > 1).
    """
    collection = tuple(collection)
    ratios = interval_ratios(seq, collection, lacunary, grid)
    positive = {iv: r for iv, r in ratios.items() if r > 0.0}
    if kind == "weak_1inf":
        if not positive:
            return SizeEnergyReport("energy_weak", 0.0)
        best, best_n, best_family = 0.0, None, ()
        for n in sorted({_level_below(r) for r in positive.values()}):
            qualifying = [iv for iv, r in positive.items() if r > 2.0 ** n]
            family = _maximal_disjoint(qualifying)
            total = float(sum((iv.length for iv in family), Fraction(0)))
            value = 2.0 ** n * total
            if value > best:
                best, best_n, best_family = value, n, tuple(family)
        return SizeEnergyReport("energy_weak", best, witness_level=best_n,
                                witness_family=best_family)
    if kind != "strong_t":
        raise ConfigError(f"unknown energy kind {kind!r}")
    if t is None or t <= 1.0:
        raise ConfigError("strong_t energy requires t > 1")
    if not positive:
        return SizeEnergyReport(f"energy_strong({t})", 0.0)
    crit = {_level_below(r) for r in positive.values()}
    total = 0.0
    for n in range(min(crit), max(crit) + 1):
        qualifying = [iv for iv, r in positive.items() if r > 2.0 ** n]
        if not qualifying:
            continue
        family = _maximal_disjoint(qualifying)
        mass = float(sum((iv.length for iv in family), Fraction(0)))
        total += 2.0 ** (t * n) * mass
    return SizeEnergyReport(f"energy_strong({t})", total ** (1.0 / t))


def bmo_norm(seq: CoefficientSequence, collection: Sequence[DyadicInterval],
             r: float, grid: Grid1D) -> float:
    """sup over tops of |I0|^{-1/r} * || local square function ||_r."""
    if r <= 0:
        raise ConfigError("r must be positive")
    best = 0.0
    for top in collection:
        sq = local_square_function(seq, top, grid)
        best = max(best, sq.norm(r) / math.ldexp(1.0, top.k) ** (1.0 / r))
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
    """
    if c1 < 1:
        raise ConfigError("c1 must be >= 1")
    collection = tuple(collection)
    if not collection:
        raise ConfigError("stopping time over an empty collection")
    ratios = interval_ratios(seq, collection, lacunary, grid)
    if base_value is None:
        base = energy(seq, collection, "weak_1inf", lacunary=lacunary, grid=grid).value
    else:
        base = base_value
    if base_value is not None and base <= 0:
        raise ConfigError("base value must be positive")

    unassigned = set(collection)
    levels: dict[int, list[Tree]] = {}
    if base > 0:
        positive = sorted((iv for iv in collection if ratios[iv] > 0),
                          key=lambda iv: (-iv.k, iv.n))
        # the level of ratio r is the k with c1 2^{k-1} base < r <= c1 2^k base
        k = (max(_level_below(ratios[iv], c1, base) for iv in positive) + 1
             if positive else None)
        while k is not None:
            threshold = _times_pow2(k - 1, c1, base)
            # the threshold is fixed and unassigned only shrinks, so each next
            # top (largest, then leftmost) lies after the previous one
            for top in positive:
                if top not in unassigned or not ratios[top] > threshold:
                    continue
                members = tuple(sorted((iv for iv in unassigned if contains(top, iv)),
                                       key=lambda iv: (-iv.k, iv.n)))
                unassigned.difference_update(members)
                levels.setdefault(k, []).append(Tree(top, members))
            remaining = [ratios[iv] for iv in unassigned if ratios[iv] > 0]
            if not remaining:
                break
            k = max(_level_below(r, c1, base) + 1 for r in remaining)

    bottom: list[Tree] = []
    while unassigned:
        top = min(unassigned, key=lambda iv: (-iv.k, iv.n))
        members = tuple(sorted((iv for iv in unassigned if contains(top, iv)),
                               key=lambda iv: (-iv.k, iv.n)))
        unassigned.difference_update(members)
        bottom.append(Tree(top, members))

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
    """
    collection = tuple(collection)
    ratios = interval_ratios(seq, collection, lacunary, grid)
    global_size = max(ratios.values()) if ratios else 0.0
    e, c1 = decomp.base_value, decomp.c1
    out: list[str] = []
    if e <= 0:
        return out
    e_actual = energy(seq, collection, "weak_1inf", lacunary=lacunary, grid=grid).value
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
    0 when both sides vanish.
    """
    t1, t2, t3 = thetas
    if not all(0.0 <= t < 1.0 for t in thetas) or abs(t1 + t2 + t3 - 1.0) > 1e-12:
        raise ConfigError("thetas must lie in [0,1) and sum to 1")
    if sum(lacunary_flags) < 2:
        raise ConfigError("at least two of the three families must be lacunary")
    collection = tuple(collection)
    lhs = abs(sum(seq1[q] * seq2[q] * seq3[q] / math.ldexp(1.0, q.k) ** 0.5
                  for q in collection))
    rhs = 1.0
    for seq, theta, lac in zip((seq1, seq2, seq3), thetas, lacunary_flags):
        s = size(seq, collection, lac, grid).value
        e = energy(seq, collection, "weak_1inf", lacunary=lac, grid=grid).value
        rhs *= s ** (1.0 - theta) * e ** theta
    if lhs == 0.0 and rhs == 0.0:
        return 0.0, 0.0, 0.0
    return lhs, rhs, (lhs / rhs if rhs > 0 else float("inf"))
