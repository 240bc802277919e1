import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dyadlab.dyadic import (DyadicInterval, Grid1D, GridFunction1D, _level_below,
                            _times_pow2, contains, disjoint, enumerate_dyadic)
from dyadlab.errors import ConfigError, DomainError, ResolutionError
from dyadlab.size_energy import (SizeEnergyReport, Tree, TreeDecomposition,
                                 bmo_norm, check_stopping_time_properties,
                                 energy, interval_ratios, size,
                                 size_energy_bound_check,
                                 stopping_time_maximal, weak_l1_norm)
from dyadlab.wavelets import CoefficientSequence

G = Grid1D(0, 6)
UNIT = DyadicInterval(0, 0)


def test_weak_l1_examples():
    assert weak_l1_norm(GridFunction1D.zeros(G)) == 0.0
    assert weak_l1_norm(GridFunction1D.indicator(G, [UNIT])) == 1.0
    half = GridFunction1D.indicator(G, [DyadicInterval(-1, 0)])
    doubled = GridFunction1D(G, 2.0 * half.samples)
    assert weak_l1_norm(doubled) == 1.0


def test_weak_l1_dominated_by_l1():
    rng = np.random.default_rng(0)
    f = GridFunction1D(G, rng.standard_normal(G.n_points))
    assert weak_l1_norm(f) <= f.norm(1) + 1e-12


@given(st.integers(0, 2 ** 31 - 1), st.floats(min_value=0.1, max_value=16.0))
@settings(max_examples=25, deadline=None)
def test_weak_l1_homogeneous_and_monotone(seed, lam):
    rng = np.random.default_rng(seed)
    f = GridFunction1D(G, rng.standard_normal(G.n_points))
    base = weak_l1_norm(f)
    scaled = weak_l1_norm(GridFunction1D(G, lam * f.samples))
    assert scaled == pytest.approx(lam * base, rel=1e-12)
    bigger = GridFunction1D(G, np.abs(f.samples) + 1.0)
    assert weak_l1_norm(bigger) >= base


def test_size_examples():
    seq = CoefficientSequence({UNIT: 1.0})
    assert size(seq, [UNIT], lacunary=False).value == 1.0
    rep = size(seq, [UNIT], lacunary=True, grid=G)
    assert rep.value == pytest.approx(1.0, abs=1e-12)
    two = CoefficientSequence({UNIT: 1.0, DyadicInterval(-1, 0): 0.0},
                              (UNIT, DyadicInterval(-1, 0)))
    rep2 = size(two, two.collection, lacunary=False)
    assert rep2.value == 1.0 and rep2.witness_interval == UNIT
    with pytest.raises(ConfigError):
        size(seq, [], lacunary=False)


def test_energy_examples():
    zero = CoefficientSequence({}, (UNIT,))
    assert energy(zero, [UNIT]).value == 0.0
    one = CoefficientSequence({UNIT: 1.0})
    rep = energy(one, [UNIT])
    assert rep.value == 0.5 and rep.witness_level == -1
    pair = (DyadicInterval(0, 0), DyadicInterval(0, 1))
    two = CoefficientSequence({pair[0]: 1.0, pair[1]: 1.0}, pair)
    assert energy(two, pair).value == 1.0


def _brute_force_energy(seq, collection):
    """Exhaustive weak-(1,inf) energy over all disjoint subfamilies."""
    ratios = {iv: abs(seq[iv]) / float(iv.length) ** 0.5 for iv in collection}
    levels = set()
    for r in ratios.values():
        if r > 0:
            levels.add(math.ceil(math.log2(r)) - 1)
    best = 0.0
    for n in levels:
        qualifying = [iv for iv in collection if ratios[iv] > 2.0 ** n]
        for size_ in range(1, len(qualifying) + 1):
            for combo in itertools.combinations(qualifying, size_):
                if all(disjoint(a, b) for a, b in itertools.combinations(combo, 2)):
                    best = max(best, 2.0 ** n * float(sum(iv.length for iv in combo)))
    return best


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=15, deadline=None)
def test_energy_witness_optimality(seed):
    rng = np.random.default_rng(seed)
    ivs = enumerate_dyadic(Grid1D(1, 4), -2, 1)
    picked = [ivs[int(i)] for i in
              rng.choice(len(ivs), size=min(10, len(ivs)), replace=False)]
    seq = CoefficientSequence({iv: float(rng.standard_normal()) for iv in picked},
                              tuple(picked))
    fast = energy(seq, picked).value
    assert fast == pytest.approx(_brute_force_energy(seq, picked), rel=1e-12)


def test_energy_strong_t():
    one = CoefficientSequence({UNIT: 1.0})
    rep = energy(one, [UNIT], "strong_t", t=2.0)
    # single critical level n = -1: (2^{2(-1)} * 1)^{1/2} = 1/2
    assert rep.value == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ConfigError):
        energy(one, [UNIT], "strong_t", t=1.0)


@given(st.sampled_from([0.25, 0.5, 2.0, 4.0, 8.0]), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=20, deadline=None)
def test_scale_invariance_dyadic(lam, seed):
    # the level ladder is integer, so exact homogeneity holds for dyadic factors
    rng = np.random.default_rng(seed)
    ivs = enumerate_dyadic(G, -2, 0)
    seq = CoefficientSequence({iv: float(rng.standard_normal()) for iv in ivs},
                              tuple(ivs))
    scaled = seq.scaled(lam)
    assert size(scaled, ivs, False).value == pytest.approx(
        lam * size(seq, ivs, False).value, rel=1e-12)
    assert energy(scaled, ivs).value == pytest.approx(
        lam * energy(seq, ivs).value, rel=1e-12)


@given(st.floats(min_value=0.1, max_value=8.0), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=20, deadline=None)
def test_scale_comparability_general(lam, seed):
    # generic factors move thresholds off the integer ladder: two-sided
    # comparability within a factor of two is the exact statement
    rng = np.random.default_rng(seed)
    ivs = enumerate_dyadic(G, -2, 0)
    seq = CoefficientSequence({iv: float(rng.standard_normal()) for iv in ivs},
                              tuple(ivs))
    base = energy(seq, ivs).value
    scaled = energy(seq.scaled(lam), ivs).value
    assert size(seq.scaled(lam), ivs, False).value == pytest.approx(
        lam * size(seq, ivs, False).value, rel=1e-12)
    if base > 0:
        assert lam * base / 2 - 1e-12 <= scaled <= 2 * lam * base + 1e-12


def test_bmo_examples():
    zero = CoefficientSequence({}, (UNIT,))
    assert bmo_norm(zero, [UNIT], 2.0, G) == 0.0
    one = CoefficientSequence({UNIT: 1.0})
    assert bmo_norm(one, [UNIT], 2.0, G) == pytest.approx(1.0, abs=1e-12)


def test_bmo_john_nirenberg_comparability():
    """Empirical two-sided comparability of BMO(1) and BMO(2) over seeds."""
    rng = np.random.default_rng(11)
    ivs = enumerate_dyadic(G, -3, 0)
    ratios = []
    for _ in range(100):
        seq = CoefficientSequence({iv: float(rng.standard_normal()) for iv in ivs},
                                  tuple(ivs))
        b1 = bmo_norm(seq, ivs, 1.0, G)
        b2 = bmo_norm(seq, ivs, 2.0, G)
        ratios.append(b1 / b2)
    print(f"\nBMO(1)/BMO(2) over 100 seeds: c={min(ratios):.4f}, "
          f"C={max(ratios):.4f}")
    assert 0.1 <= min(ratios) and max(ratios) <= 10.0


def test_stopping_time_single_interval_level():
    for r, c1 in ((1.0, 1.0), (0.7, 2.0), (5.0, 1.0)):
        seq = CoefficientSequence({UNIT: r})
        decomp = stopping_time_maximal(seq, [UNIT], c1)
        e = decomp.base_value
        (k, trees), = ((k, t) for k, t in decomp.levels.items())
        assert len(trees) == 1 and trees[0].top == UNIT
        assert c1 * 2.0 ** (k - 1) * e < r <= c1 * 2.0 ** k * e


def test_stopping_time_prefers_largest_top():
    big, small = UNIT, DyadicInterval(-1, 0)
    # equal ratios: |a|/|I|^(1/2) matches when a scales with sqrt(length)
    seq = CoefficientSequence({big: 1.0, small: 2.0 ** -0.5})
    decomp = stopping_time_maximal(seq, [big, small], 1.0)
    trees = [t for _, t in decomp.all_trees()]
    assert len(trees) == 1 and trees[0].top == big
    assert set(trees[0].members) == {big, small}


def test_stopping_time_partition_and_residual():
    rng = np.random.default_rng(5)
    ivs = enumerate_dyadic(G, -3, 0)
    seq = CoefficientSequence({iv: float(rng.standard_normal()) for iv in ivs},
                              tuple(ivs))
    decomp = stopping_time_maximal(seq, ivs, 2.0 ** 10)
    assert sorted(decomp.assigned()) == sorted(ivs)
    assert decomp.residual == ()
    for _, tree in decomp.all_trees():
        assert all(contains(tree.top, iv) for iv in tree.members)


def test_stopping_time_zero_sequence_goes_to_bottom():
    seq = CoefficientSequence({}, (UNIT, DyadicInterval(-1, 0)))
    decomp = stopping_time_maximal(seq, seq.collection, 1.0)
    assert not decomp.levels
    assert sorted(decomp.assigned()) == sorted(seq.collection)


@given(st.integers(0, 2 ** 31 - 1), st.sampled_from([1.0, 2.0 ** 10]))
@settings(max_examples=25, deadline=None)
def test_stopping_time_sandwich_and_mass(seed, c1):
    rng = np.random.default_rng(seed)
    ivs = enumerate_dyadic(G, -3, 0)
    raw = {iv: float(rng.standard_normal()) for iv in ivs}
    seq = CoefficientSequence(raw, tuple(ivs))
    e = energy(seq, ivs).value
    if e > 0:  # normalize so the mass bound is the exact power-of-two form
        seq = seq.scaled(1.0 / e)
    decomp = stopping_time_maximal(seq, ivs, c1)
    assert check_stopping_time_properties(decomp, seq, ivs) == []


def _local_square_function_reference(seq, top, grid):
    """(sum_{I subseteq top} |a_I|^2 / |I| chi_I)^(1/2), one pass over the
    sequence per top."""
    acc = np.zeros(grid.n_points)
    for iv, c in seq.items():
        if c == 0.0 or not contains(top, iv):
            continue
        a, b = grid.cell_range(iv)
        acc[a:b] += abs(c) ** 2 / math.ldexp(1.0, iv.k)
    return GridFunction1D(grid, np.sqrt(acc))


def _weak_l1_reference(g):
    """max over the distinct values v > 0 of v * |{|g| >= v}|, one
    searchsorted per value."""
    a = np.abs(np.asarray(g.samples, dtype=float))
    w = float(g.grid.cell_width)
    vals = np.unique(a)
    vals = vals[vals > 0]
    sorted_desc = a[np.argsort(a)[::-1]]
    best = 0.0
    for v in vals:
        count = int(np.searchsorted(-sorted_desc, -v, side="right"))
        best = max(best, float(v) * count * w)
    return best


def _ratios_reference(seq, collection, lacunary, grid):
    if lacunary:
        return {iv: _weak_l1_reference(_local_square_function_reference(seq, iv, grid))
                / math.ldexp(1.0, iv.k) for iv in collection}
    return {iv: abs(seq[iv]) / math.ldexp(1.0, iv.k) ** 0.5 for iv in collection}


def _maximal_disjoint_reference(collection):
    """Inclusion-maximal elements, each checked against the kept ones by a
    walk up its ancestors."""
    by_size = sorted(collection, key=lambda iv: (-iv.k, iv.n))
    kept = set()
    max_k = by_size[0].k if by_size else 0
    out = []
    for iv in by_size:
        cur, covered = iv, False
        while cur.k <= max_k:
            if cur in kept:
                covered = True
                break
            cur = cur.parent()
        if not covered:
            kept.add(iv)
            out.append(iv)
    return out


def _energy_reference(ratios, kind="weak_1inf", t=None):
    """The level ladder with one maximal-disjoint pass per level."""
    positive = {iv: r for iv, r in ratios.items() if r > 0.0}
    if kind == "weak_1inf":
        if not positive:
            return SizeEnergyReport("energy_weak", 0.0)
        best, best_n, best_family = 0.0, None, ()
        for n in sorted({_level_below(r) for r in positive.values()}):
            family = _maximal_disjoint_reference(
                [iv for iv, r in positive.items() if r > 2.0 ** n])
            value = 2.0 ** n * float(sum((iv.length for iv in family), Fraction(0)))
            if value > best:
                best, best_n, best_family = value, n, tuple(family)
        return SizeEnergyReport("energy_weak", best, witness_level=best_n,
                                witness_family=best_family)
    if not positive:
        return SizeEnergyReport(f"energy_strong({t})", 0.0)
    crit = {_level_below(r) for r in positive.values()}
    total = 0.0
    for n in range(min(crit), max(crit) + 1):
        family = _maximal_disjoint_reference(
            [iv for iv, r in positive.items() if r > 2.0 ** n])
        total += 2.0 ** (t * n) * float(sum((iv.length for iv in family), Fraction(0)))
    return SizeEnergyReport(f"energy_strong({t})", total ** (1.0 / t))


@st.composite
def partial_collections(draw):
    """(seq, tops, grid): members drawn with repeats, tops either the members
    or drawn apart, and coefficients zero, small integers (ties, ratios on
    thresholds) or normals with zeros.  Edge intervals (above the box,
    outside the domain, finer than the grid) join the tops always and the
    members sometimes."""
    box, res = draw(st.integers(0, 2)), draw(st.integers(1, 4))
    grid = Grid1D(box, res)
    pool = enumerate_dyadic(grid, -res, box)
    edges = [DyadicInterval(box + 1, 0), DyadicInterval(box, 1),
             DyadicInterval(-res - 1, 0), DyadicInterval(-res - 2, 3)]
    member_pool = pool + edges if draw(st.booleans()) else pool
    members = draw(st.lists(st.sampled_from(member_pool), min_size=1, max_size=24))
    if draw(st.booleans()):
        tops = members
    else:
        tops = draw(st.lists(st.sampled_from(pool + edges), min_size=1, max_size=16))
    kind = draw(st.sampled_from(["zero", "int", "normal"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    data = {}
    for iv in set(members):
        if kind == "zero":
            data[iv] = 0.0
        elif kind == "int":
            data[iv] = float(rng.integers(-3, 4))
        else:
            data[iv] = 0.0 if rng.random() < 0.3 else float(rng.standard_normal())
    return CoefficientSequence(data, tuple(members)), tuple(tops), grid


@given(partial_collections())
@settings(max_examples=80, deadline=None)
def test_lacunary_ratios_match_per_top_reference(case):
    """The per-scale arrays give every top's ratio bit for bit, raise the
    reference's error class, and give the BMO norm within 1e-12."""
    seq, tops, grid = case
    try:
        ref = _ratios_reference(seq, tops, True, grid)
    except (ResolutionError, DomainError) as exc:
        with pytest.raises(type(exc)):
            interval_ratios(seq, tops, True, grid)
        with pytest.raises(type(exc)):
            bmo_norm(seq, tops, 2.0, grid)
        return
    got = interval_ratios(seq, tops, True, grid)
    assert list(got.items()) == list(ref.items())
    for r in (1.0, 2.0):
        bmo_ref = max(_local_square_function_reference(seq, top, grid).norm(r)
                      / math.ldexp(1.0, top.k) ** (1.0 / r) for top in tops)
        assert bmo_norm(seq, tops, r, grid) == pytest.approx(bmo_ref, rel=1e-12,
                                                             abs=1e-300)


@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 7), st.booleans())
@settings(max_examples=40, deadline=None)
def test_weak_l1_matches_per_value_reference(seed, res, small_ints):
    rng = np.random.default_rng(seed)
    g = Grid1D(0, res)
    if small_ints:
        samples = rng.integers(-3, 4, g.n_points).astype(float)
    else:
        samples = rng.standard_normal(g.n_points) * (rng.random(g.n_points) < 0.7)
    f = GridFunction1D(g, samples)
    assert weak_l1_norm(f) == _weak_l1_reference(f)


@given(partial_collections(), st.booleans())
@settings(max_examples=80, deadline=None)
def test_energy_matches_maximal_disjoint_ladder(case, lacunary):
    """Weak energy (value, level, witness family) and strong energies agree
    with == with the maximal-disjoint ladder over the reference ratios."""
    seq, tops, grid = case
    try:
        ratios = _ratios_reference(seq, tops, lacunary, grid)
    except (ResolutionError, DomainError):
        return
    assert energy(seq, tops, lacunary=lacunary, grid=grid) == _energy_reference(ratios)
    for t in (1.5, 2.0, 3.0):
        assert (energy(seq, tops, "strong_t", t=t, lacunary=lacunary, grid=grid)
                == _energy_reference(ratios, "strong_t", t))


def test_square_function_edge_cases():
    g = Grid1D(0, 2)
    fine, outside = DyadicInterval(-3, 0), DyadicInterval(0, 1)
    big = DyadicInterval(1, 0)  # holds the whole box and one unit outside it
    # a nonzero member finer than the grid, inside a top
    seq = CoefficientSequence({UNIT: 1.0, fine: 1.0}, (UNIT, fine))
    with pytest.raises(ResolutionError):
        interval_ratios(seq, [UNIT], True, g)
    # ... and inside no top: the sum never meets it
    assert interval_ratios(seq, [DyadicInterval(-1, 1)], True, g) == {
        DyadicInterval(-1, 1): 0.0}
    # a nonzero member outside the domain, inside a top above the box
    seq = CoefficientSequence({UNIT: 1.0, outside: 2.0}, (UNIT, outside))
    with pytest.raises(DomainError):
        interval_ratios(seq, [big], True, g)
    # tops finer than the grid, above the box or outside it, with zero members
    zero = CoefficientSequence({UNIT: 1.0, fine: 0.0, outside: 0.0},
                               (UNIT, fine, outside))
    got = interval_ratios(zero, [fine, big, outside, UNIT], True, g)
    assert got == {fine: 0.0, big: 0.5, outside: 0.0, UNIT: 1.0}
    # a top scale with no members
    assert interval_ratios(zero, [DyadicInterval(-2, 3)], True, g) == {
        DyadicInterval(-2, 3): 0.0}
    # a non-finite member inside a top, and inside none
    for c in (math.inf, math.nan):
        seq = CoefficientSequence({UNIT: 1.0, fine: 0.0, DyadicInterval(-2, 0): c})
        with pytest.raises(ConfigError):
            interval_ratios(seq, [DyadicInterval(-1, 1), UNIT], True, g)
        assert interval_ratios(seq, [DyadicInterval(-1, 1)], True, g) == {
            DyadicInterval(-1, 1): 0.0}


@pytest.mark.parametrize("c1, base_value",
                         [(math.nan, None), (math.inf, None), (1.0, math.inf),
                          (1.0, math.nan)],
                         ids=["c1_nan", "c1_inf", "base_inf", "base_nan"])
def test_stopping_time_rejects_non_finite_constants(c1, base_value):
    """Checked before the level loop, which never ends on a nan or inf
    threshold."""
    seq = CoefficientSequence({UNIT: 1.0})
    with pytest.raises(ConfigError):
        stopping_time_maximal(seq, [UNIT], c1, base_value=base_value)


@pytest.mark.parametrize("t", [math.nan, math.inf], ids=["nan", "inf"])
def test_strong_energy_rejects_non_finite_t(t):
    with pytest.raises(ConfigError):
        energy(CoefficientSequence({UNIT: 1.0}), [UNIT], "strong_t", t=t)


@pytest.mark.parametrize("r", [math.nan, math.inf], ids=["nan", "inf"])
def test_bmo_rejects_non_finite_r(r):
    with pytest.raises(ConfigError):
        bmo_norm(CoefficientSequence({UNIT: 1.0}), [UNIT], r, G)


def _stopping_time_rescanning(seq, collection, c1, lacunary, grid):
    """Reference stopping time: each new tree top comes from a fresh scan of
    every positive interval for the first unassigned one above the level's
    threshold, and its members from a containment scan of the unassigned set.
    Ratios and energy come from the per-top and maximal-disjoint references."""
    order = lambda iv: (-iv.k, iv.n)
    collection = tuple(collection)
    ratios = _ratios_reference(seq, collection, lacunary, grid)
    base = _energy_reference(ratios).value
    unassigned = set(collection)
    levels = {}
    if base > 0:
        positive = sorted((iv for iv in collection if ratios[iv] > 0), key=order)
        k = (max(_level_below(ratios[iv], c1, base) for iv in positive) + 1
             if positive else None)
        while k is not None:
            threshold = _times_pow2(k - 1, c1, base)
            while True:
                candidates = [iv for iv in positive
                              if iv in unassigned and ratios[iv] > threshold]
                if not candidates:
                    break
                top = candidates[0]
                members = tuple(sorted((iv for iv in unassigned
                                        if contains(top, iv)), key=order))
                unassigned.difference_update(members)
                levels.setdefault(k, []).append(Tree(top, members))
            remaining = [ratios[iv] for iv in unassigned if ratios[iv] > 0]
            if not remaining:
                break
            k = max(_level_below(r, c1, base) + 1 for r in remaining)
    bottom = []
    while unassigned:
        top = min(unassigned, key=order)
        members = tuple(sorted((iv for iv in unassigned if contains(top, iv)),
                               key=order))
        unassigned.difference_update(members)
        bottom.append(Tree(top, members))
    return TreeDecomposition({k: tuple(v) for k, v in levels.items()},
                             tuple(bottom), (), base, c1)


@given(st.integers(0, 2 ** 31 - 1), st.sampled_from([1.0, 2.0, 2.0 ** 10]),
       st.booleans(), st.booleans(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_stopping_time_matches_rescanning_reference(seed, c1, lacunary, small_ints,
                                                    partial):
    """Small integer coefficients put ratios on level thresholds and tie
    them; normal ones with a third zeroed fill the bottom bucket.  A partial
    case draws the sequence's members and the stopping collection apart, each
    with repeats."""
    rng = np.random.default_rng(seed)
    ivs = enumerate_dyadic(G, -4, 0)
    members = tops = ivs
    if partial:
        members, tops = ([ivs[int(i)] for i in
                          rng.integers(0, len(ivs), int(rng.integers(1, 40)))]
                         for _ in range(2))
    if small_ints:
        raw = {iv: float(rng.integers(-3, 4)) for iv in set(members)}
    else:
        raw = {iv: 0.0 if rng.random() < 0.3 else float(rng.standard_normal())
               for iv in set(members)}
    seq = CoefficientSequence(raw, tuple(members))
    decomp = stopping_time_maximal(seq, tops, c1, lacunary=lacunary, grid=G)
    ref = _stopping_time_rescanning(seq, tops, c1, lacunary, G)
    assert decomp.levels == ref.levels  # levels, tops and members, in order
    assert decomp.bottom == ref.bottom
    assert decomp == ref


def test_stopping_time_serialization():
    seq = CoefficientSequence({UNIT: 1.0})
    decomp = stopping_time_maximal(seq, [UNIT], 1.0)
    text = decomp.to_text()
    assert "level" in text and "I(k=0,n=0)" in text


def test_size_energy_bound_examples():
    zero = CoefficientSequence({}, (UNIT,))
    assert size_energy_bound_check(zero, zero, zero, [UNIT], (0.5, 0.25, 0.25),
                                   grid=G) == (0.0, 0.0, 0.0)
    one = CoefficientSequence({UNIT: 1.0})
    lhs, rhs, ratio = size_energy_bound_check(
        one, one, one, [UNIT], (0.9, 0.05, 0.05),
        lacunary_flags=(False, True, True), grid=G)
    assert lhs == 1.0 and rhs > 0 and ratio == lhs / rhs
    with pytest.raises(ConfigError):
        size_energy_bound_check(one, one, one, [UNIT], (0.5, 0.5, 0.5), grid=G)
    with pytest.raises(ConfigError):
        size_energy_bound_check(one, one, one, [UNIT], (1.0, 0.0, 0.0),
                                lacunary_flags=(False, False, True), grid=G)


def test_size_energy_bound_computes_ratios_once_per_sequence(monkeypatch):
    """Each sequence's ratios give both its size and its weak energy, and the
    bound equals the one built from `size` and `energy`."""
    import dyadlab.size_energy as se
    rng = np.random.default_rng(5)
    ivs = enumerate_dyadic(G, -3, 0)
    seqs = [CoefficientSequence({iv: float(rng.standard_normal()) for iv in ivs},
                                tuple(ivs)) for _ in range(3)]
    thetas, flags = (0.2, 0.4, 0.4), (False, True, True)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return interval_ratios(*args, **kwargs)

    monkeypatch.setattr(se, "interval_ratios", counted)
    lhs, rhs, ratio = size_energy_bound_check(*seqs, ivs, thetas, flags, grid=G)
    assert len(calls) == 3
    monkeypatch.undo()
    expected = 1.0
    for seq, theta, lac in zip(seqs, thetas, flags):
        sz = size(seq, ivs, lac, G).value
        en = energy(seq, ivs, "weak_1inf", lacunary=lac, grid=G).value
        expected *= sz ** (1.0 - theta) * en ** theta
    assert rhs == expected and ratio == lhs / rhs
    with pytest.raises(ConfigError, match="empty collection"):
        size_energy_bound_check(*seqs, [], thetas, flags, grid=G)
    with pytest.raises(ConfigError, match="need the grid"):
        size_energy_bound_check(*seqs, ivs, thetas, flags)


def test_size_energy_bound_stability_under_doubling():
    """The empirical constant stays put when the collection doubles."""
    rng = np.random.default_rng(123)
    worst = {}
    for depth in (2, 3):
        ivs = enumerate_dyadic(G, -depth, 0)
        best = 0.0
        for _ in range(100):
            seqs = [CoefficientSequence(
                {iv: float(rng.standard_normal()) for iv in ivs}, tuple(ivs))
                for _ in range(3)]
            lhs, rhs, ratio = size_energy_bound_check(
                seqs[0], seqs[1], seqs[2], ivs, (0.0, 0.5, 0.5), grid=G)
            best = max(best, ratio)
        worst[depth] = best
    assert worst[3] <= worst[2] * 1.10


def test_report_serialization():
    rep = size(CoefficientSequence({UNIT: 1.0}), [UNIT], False)
    text = rep.to_text()
    assert "kind: size" in text and "witness_interval" in text


def test_weak_l1_of_nan_samples_is_a_config_error():
    with pytest.raises(ConfigError):
        weak_l1_norm(GridFunction1D(G, np.full(G.n_points, np.nan)))


def test_energy_of_a_ratio_near_dbl_max():
    """The ratio 1.7e308 sits on level 1023 (2^1023 < r < 2^1024)."""
    rep = energy(CoefficientSequence({UNIT: 1.7e308}), [UNIT])
    assert rep.witness_level == 1023
    assert rep.value == math.ldexp(1.0, 1023)


def test_stopping_time_level_above_the_float_powers():
    """Ratio 1e300 against c1 E = 1e-20: the tree level k, with
    c1 2^{k-1} E < r <= c1 2^k E, lies beyond 2^1023."""
    seq = CoefficientSequence({UNIT: 1e300})
    decomp = stopping_time_maximal(seq, [UNIT], 1.0, base_value=1e-20)
    (k,) = decomp.levels
    assert k > 1024
    assert math.ldexp(1e-20, k - 1) < 1e300 <= math.ldexp(1e-20, k)
    assert check_stopping_time_properties(decomp, seq, [UNIT]) == []


def test_stopping_check_reports_the_top_mass_bound():
    """A hand-made level-2 tree with c1 E = 1: the tops may carry at most
    E_actual / 2^n* with 2^n* <= c1 2^{k-1} E = 2, so n* = 1 and the weak
    energy 1/2 of a unit ratio caps the mass at 1/4."""
    seq = CoefficientSequence({UNIT: 1.0})
    decomp = TreeDecomposition({2: (Tree(UNIT, (UNIT,)),)}, base_value=1.0, c1=1.0)
    assert check_stopping_time_properties(decomp, seq, [UNIT]) == [
        "level 2: size 1.0 outside (2.0, min(4.0, 1.0)]",
        "level 2: top mass 1.0 exceeds 0.25"]
