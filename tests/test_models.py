import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dyadlab import models
from dyadlab.dyadic import (DyadicInterval, DyadicRectangle, Grid1D,
                            GridFunction1D, GridFunction2D, RectangleTable,
                            enumerate_dyadic)
from dyadlab.errors import ConfigError
from dyadlab.models import (BilinearBlockSpec, MODEL_NAMES, ModelOperatorSpec,
                            bilinear_block, energy_localization_check,
                            local_size_bound_check, model_operator,
                            multilinear_form, oracle_model_operator)
from dyadlab.operators import HybridKind, hybrid_2d
from dyadlab.size_energy import size
from dyadlab.stopping import level_set_decomposition_2d
from dyadlab.wavelets import (HAAR_LACUNARY, HAAR_NONLACUNARY, SMOOTH_LACUNARY,
                              SMOOTH_NONLACUNARY, CoefficientSequence,
                              all_coefficients, all_coefficients_2d,
                              coefficient_naive, synthesize)

G = Grid1D(0, 6)
UNIT = DyadicInterval(0, 0)
HAAR_TRIPLE = (HAAR_NONLACUNARY, HAAR_LACUNARY, HAAR_LACUNARY)
SMOOTH_TRIPLE = (SMOOTH_NONLACUNARY, SMOOTH_LACUNARY, SMOOTH_LACUNARY)


def _random_inputs(seed, grid=G):
    rng = np.random.default_rng(seed)
    fs = [GridFunction1D(grid, rng.standard_normal(grid.n_points))
          for _ in range(4)]
    h = GridFunction2D(grid, grid,
                       rng.standard_normal((grid.n_points, grid.n_points)))
    return fs, h, rng


def test_block_empty_collection():
    spec = BilinearBlockSpec((), HAAR_TRIPLE)
    out = bilinear_block(spec, GridFunction1D.zeros(G), GridFunction1D.zeros(G))
    assert np.all(out.samples == 0.0)


def test_block_one_term_value():
    half = GridFunction1D.indicator(G, [DyadicInterval(-1, 0)])
    spec = BilinearBlockSpec((UNIT,), HAAR_TRIPLE)
    out = bilinear_block(spec, half, half)
    # <v1, ind> = 1/2, <v2, psi> = 1/2 -> (1/4) psi^H on [0,1)
    assert out.samples[0] == pytest.approx(0.25, abs=1e-15)
    assert out.samples[-1] == pytest.approx(-0.25, abs=1e-15)


def test_block_variant_filters():
    pyramid = tuple(enumerate_dyadic(G, -4, 0))
    p = DyadicInterval(-1, 0)
    local = BilinearBlockSpec(pyramid, HAAR_TRIPLE, "local", p)
    assert all(q.length >= p.length for q in local.qualifying())
    fixed = BilinearBlockSpec(pyramid, HAAR_TRIPLE, "fixed_scale", p, 1)
    qs = fixed.qualifying()
    # |Q| ~ 2 |P|: the dyadic band [2|P|, 4|P|) holds exactly the scale-0 ones
    assert qs and all(q.k == 0 for q in qs)


def _bilinear_block_loop(spec, v1, v2):
    """The block as a loop over the qualifying intervals that adds each
    weighted third member in collection order (|w| |m3_Q| for
    localized_nonlac), and the same sum over absolute values."""
    grid = v1.grid
    f1, f2, f3 = spec.families
    out, scale = np.zeros(grid.n_points), np.zeros(grid.n_points)
    qs = spec.qualifying()
    c1 = all_coefficients(v1, qs, f1).tolist()
    c2 = all_coefficients(v2, qs, f2).tolist()
    for q, a1, a2 in zip(qs, c1, c2):
        w = a1 * a2 / math.ldexp(1.0, q.k) ** 0.5
        if w == 0.0:
            continue
        member = f3.member(q, grid)
        if spec.variant == "localized_nonlac":
            out += (abs(a1) * abs(a2) / math.ldexp(1.0, q.k) ** 0.5
                    * np.abs(member))
        else:
            out += w * member
        scale += abs(w) * np.abs(member)
    return out, scale


_BLOCK_POOL = enumerate_dyadic(G, -5, 0)
_VARIANTS = ("global", "local", "fixed_scale", "localized_lac", "localized_nonlac")


@given(st.sampled_from(_VARIANTS), st.sampled_from(["haar", "smooth"]),
       st.integers(0, 2), st.lists(st.sampled_from(_BLOCK_POOL), max_size=40),
       st.booleans(), st.sampled_from(_BLOCK_POOL), st.integers(0, 3),
       st.integers(0, 2 ** 31 - 1))
@settings(max_examples=100, deadline=None)
def test_block_matches_per_member_loop(variant, flavor, lacunary_pair, inner,
                                       coarsest_first, anchor, sharp, seed):
    """bilinear_block against the per-member loop it replaced, in all five
    variants: == where each cell adds the same terms in the same order (every
    smooth collection, and a Haar collection without repeats whose scales
    run coarsest first), and otherwise within 1e-12 of the loop's sum over
    absolute values."""
    if coarsest_first:
        inner = sorted(set(inner), key=lambda q: -q.k)
    lac, non = ((HAAR_LACUNARY, HAAR_NONLACUNARY) if flavor == "haar"
                else (SMOOTH_LACUNARY, SMOOTH_NONLACUNARY))
    triples = ((non, lac, lac), (lac, non, lac), (lac, lac, non))
    if variant == "localized_lac":
        lacunary_pair %= 2
    elif variant == "localized_nonlac":
        lacunary_pair = 2
    level = GridFunction1D.indicator(G, [anchor])
    spec = BilinearBlockSpec(tuple(inner), triples[lacunary_pair], variant,
                             anchor, sharp, level)
    rng = np.random.default_rng(seed)
    v1, v2 = (GridFunction1D(G, rng.standard_normal(G.n_points)) for _ in range(2))
    got = bilinear_block(spec, v1, v2).samples
    ref, scale = _bilinear_block_loop(spec, v1, v2)
    if flavor == "smooth" or coarsest_first:
        assert np.array_equal(got, ref)
    else:
        assert np.all(np.abs(got - ref) <= 1e-12 * scale)


def test_block_spec_validation():
    with pytest.raises(ConfigError):
        BilinearBlockSpec((UNIT,), (HAAR_NONLACUNARY, HAAR_NONLACUNARY,
                                    HAAR_LACUNARY))
    with pytest.raises(ConfigError):
        BilinearBlockSpec((UNIT,), HAAR_TRIPLE, "local")  # no reference
    with pytest.raises(ConfigError):
        BilinearBlockSpec((UNIT,), HAAR_TRIPLE, "localized_nonlac",
                          level_set=GridFunction1D.zeros(G))


def _tiny_spec(which="flag0_flag0", flavor="haar", seed=0):
    rng = np.random.default_rng(seed)
    xs = enumerate_dyadic(G, -2, 0)
    rect = sorted({DyadicRectangle(xs[int(rng.integers(0, len(xs)))],
                                   xs[int(rng.integers(0, len(xs)))])
                   for _ in range(3)})
    inner = tuple(enumerate_dyadic(G, -3, 0))
    maker = ModelOperatorSpec.haar if flavor == "haar" else ModelOperatorSpec.smooth
    return maker(which, rect, inner, inner, sharp1=1, sharp2=1)


def test_model_zero_h():
    spec = _tiny_spec()
    fs, _, _ = _random_inputs(1)
    out = model_operator(spec, *fs, GridFunction2D.zeros(G, G))
    assert np.all(out.samples == 0.0)


def test_model_linear_in_h():
    spec = _tiny_spec()
    fs, h, rng = _random_inputs(2)
    h2 = GridFunction2D(G, G, rng.standard_normal((G.n_points, G.n_points)))
    both = GridFunction2D(G, G, h.samples + h2.samples)
    lhs = model_operator(spec, *fs, both).samples
    rhs = (model_operator(spec, *fs, h).samples
           + model_operator(spec, *fs, h2).samples)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_model_single_rectangle_hand_value():
    """One rectangle, one inner interval per axis: the model value is an
    explicit product of five inner products times the output tensor."""
    iv = DyadicInterval(-1, 0)
    rect = (DyadicRectangle(iv, iv),)
    inner = (UNIT,)
    spec = ModelOperatorSpec.haar("flag0_flag0", rect, inner, inner)
    fs, h, _ = _random_inputs(3)
    f1, f2, g1, g2 = fs

    c_f1 = coefficient_naive(f1, UNIT, HAAR_NONLACUNARY)
    c_f2 = coefficient_naive(f2, UNIT, HAAR_LACUNARY)
    c_g1 = coefficient_naive(g1, UNIT, HAAR_NONLACUNARY)
    c_g2 = coefficient_naive(g2, UNIT, HAAR_LACUNARY)
    psi_unit = HAAR_LACUNARY.member(UNIT, G)
    ind_iv = HAAR_NONLACUNARY.member(iv, G)
    # <B(f1,f2), ind_iv> with B = c_f1 c_f2 psi_unit
    bx = c_f1 * c_f2 * float(np.sum(psi_unit * ind_iv)) * float(G.cell_width)
    by = c_g1 * c_g2 * float(np.sum(psi_unit * ind_iv)) * float(G.cell_width)
    psi_iv = HAAR_LACUNARY.member(iv, G)
    hc = float(psi_iv @ h.samples @ psi_iv) * float(G.cell_width) ** 2
    coef = bx * by * hc / float(iv.length)
    expected = coef * np.outer(psi_iv, psi_iv)

    got = model_operator(spec, *fs, h)
    assert np.max(np.abs(got.samples - expected)) <= 1e-12
    oracle = oracle_model_operator(spec, *fs, h)
    assert np.max(np.abs(oracle.samples - expected)) <= 1e-12


@pytest.mark.parametrize("which", MODEL_NAMES)
@pytest.mark.parametrize("flavor", ["haar", "smooth"])
def test_model_matches_oracle(which, flavor):
    spec = _tiny_spec(which, flavor, seed=11)
    fs, h, _ = _random_inputs(4)
    a = model_operator(spec, *fs, h)
    b = oracle_model_operator(spec, *fs, h)
    assert np.max(np.abs(a.samples)) > 0  # non-vacuous comparison
    assert np.max(np.abs(a.samples - b.samples)) <= 1e-12


@pytest.mark.parametrize("which", ["flag_sharp_paraproduct", "flag0_flag_sharp",
                                   "flag_sharp_flag_sharp"])
@pytest.mark.parametrize("flavor", ["haar", "smooth"])
def test_model_matches_oracle_with_unequal_offsets(which, flavor):
    """sharp1 = 1 on x and sharp2 = 2 on y, as in the benchmark's models."""
    spec = replace(_tiny_spec(which, flavor, seed=11), sharp2=2)
    fs, h, _ = _random_inputs(4)
    a = model_operator(spec, *fs, h)
    b = oracle_model_operator(spec, *fs, h)
    assert np.max(np.abs(a.samples)) > 0
    assert np.max(np.abs(a.samples - b.samples)) <= 1e-12


def test_oracle_zero_inputs():
    spec = _tiny_spec(seed=15)
    fs, h, _ = _random_inputs(8)
    zero1 = GridFunction1D.zeros(G)
    for slot in range(4):
        args = list(fs)
        args[slot] = zero1
        out = oracle_model_operator(spec, *args, h)
        assert np.all(out.samples == 0.0)
    out = oracle_model_operator(spec, *fs, GridFunction2D.zeros(G, G))
    assert np.all(out.samples == 0.0)


def test_oracle_cap():
    xs = enumerate_dyadic(G, -3, 0)
    rect = tuple(DyadicRectangle(i, j) for i in xs for j in xs)[:70]
    spec = ModelOperatorSpec.haar("flag0_flag0", rect, (UNIT,), (UNIT,))
    fs, h, _ = _random_inputs(5)
    with pytest.raises(ConfigError):
        oracle_model_operator(spec, *fs, h)


def test_multilinear_form_examples():
    spec = _tiny_spec(seed=12)
    fs, h, rng = _random_inputs(6)
    zero_dual = GridFunction2D.zeros(G, G)
    assert multilinear_form(spec, *fs, h, zero_dual) == 0.0
    out = model_operator(spec, *fs, h)
    assert multilinear_form(spec, *fs, h, out) >= 0.0
    dual = GridFunction2D(G, G, rng.standard_normal((G.n_points, G.n_points)))
    slow = float(np.sum(out.samples * dual.samples) * out.cell_area)
    assert multilinear_form(spec, *fs, h, dual) == pytest.approx(slow, abs=1e-12)


@pytest.mark.parametrize("which", MODEL_NAMES)
def test_multilinear_form_smooth_matches_model_pairing(which):
    spec = _tiny_spec(which, "smooth", seed=16)
    fs, h, rng = _random_inputs(9)
    dual = GridFunction2D(G, G, rng.standard_normal((G.n_points, G.n_points)))
    out = model_operator(spec, *fs, h)
    slow = float(np.sum(out.samples * dual.samples) * out.cell_area)
    assert slow != 0.0
    assert multilinear_form(spec, *fs, h, dual) == pytest.approx(slow, abs=1e-12)


@pytest.mark.parametrize("flavor", ["haar", "smooth"])
def test_model_repeated_rectangle_counts_twice(flavor):
    """The output is the sum of one term per listed rectangle."""
    spec = _tiny_spec("flag0_flag0", flavor, seed=17)
    fs, h, _ = _random_inputs(10)
    first, rest = spec.rectangles[0], spec.rectangles[1:]
    doubled = replace(spec, rectangles=(first,) + rest + (first,))
    terms = [model_operator(replace(spec, rectangles=(r,)), *fs, h).samples
             for r in doubled.rectangles]
    got = model_operator(doubled, *fs, h).samples
    assert np.max(np.abs(terms[0])) > 0
    assert np.max(np.abs(got - sum(terms))) <= 1e-12


def test_enlargement_filtered_terms_do_not_contribute():
    """Rectangles inside the enlarged set pair to zero against chi_{E'}."""
    from dyadlab.stopping import build_exceptional_set
    g = Grid1D(1, 6)
    ivs = enumerate_dyadic(g, -2, 1)
    rect = tuple(DyadicRectangle(i, j) for i in ivs[:8] for j in ivs[:8])
    inner = tuple(enumerate_dyadic(g, -3, 1))
    spec = ModelOperatorSpec.haar("flag0_flag0", rect, inner, inner)
    rng = np.random.default_rng(13)
    fs = [GridFunction1D(g, rng.uniform(-1, 1, g.n_points) *
                         (rng.random(g.n_points) < 0.3)) for _ in range(4)]
    h = GridFunction2D(g, g, rng.standard_normal((g.n_points, g.n_points)))
    e_set = GridFunction2D(g, g, np.ones((g.n_points, g.n_points)))
    exc = build_exceptional_set(*fs, h, e_set, (2.0, 2.0, 2.0), "fixed_scale",
                                rectangles=rect)
    lam_all = multilinear_form(spec, *fs, h, exc.e_prime)
    meeting = tuple(r for r in rect
                    if np.any(exc.enlarged.restrict(r) == 0))
    if meeting != rect:
        spec_f = ModelOperatorSpec.haar("flag0_flag0", meeting, inner, inner)
        lam_meeting = multilinear_form(spec_f, *fs, h, exc.e_prime)
        assert lam_all == pytest.approx(lam_meeting, abs=1e-12)


def test_local_size_bound():
    level = GridFunction1D.indicator(G, [DyadicInterval(-1, 0)])
    inner = tuple(enumerate_dyadic(G, -4, 0))
    outer = [iv for iv in enumerate_dyadic(G, -3, -1)
             if np.any(level.restrict(iv) > 0)]
    spec = BilinearBlockSpec(inner, HAAR_TRIPLE, "fixed_scale", outer[0], 1)
    zero = GridFunction1D.zeros(G)
    lhs, rhs = local_size_bound_check(spec, zero, zero, level, outer)
    assert lhs == 0.0 and rhs == 0.0
    worst = 0.0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        v1 = GridFunction1D(G, rng.standard_normal(G.n_points))
        v2 = GridFunction1D(G, rng.standard_normal(G.n_points))
        lhs, rhs = local_size_bound_check(spec, v1, v2, level, outer)
        if rhs > 0:
            worst = max(worst, lhs / rhs)
    assert worst <= 4.0


def test_local_size_bound_single_pair():
    # single P inside a single Q one scale up: |<ind-normalized block, .>|
    # is dominated by the coefficient product exactly
    level = GridFunction1D.indicator(G, [DyadicInterval(-2, 0)])
    p = DyadicInterval(-2, 0)
    q = DyadicInterval(-1, 0)
    spec = BilinearBlockSpec((q,), HAAR_TRIPLE, "fixed_scale", p, 1)
    rng = np.random.default_rng(3)
    v1 = GridFunction1D(G, rng.standard_normal(G.n_points))
    v2 = GridFunction1D(G, rng.standard_normal(G.n_points))
    lhs, rhs = local_size_bound_check(spec, v1, v2, level, [p])
    assert lhs <= rhs + 1e-12


def test_energy_localization_empty():
    inner = tuple(enumerate_dyadic(G, -3, 0))
    spec = BilinearBlockSpec(inner, HAAR_TRIPLE, "local", UNIT)
    level = GridFunction1D.indicator(G, [UNIT])
    zero = GridFunction1D.zeros(G)
    assert energy_localization_check(spec, zero, zero, level, []) == []


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=30, deadline=None)
def test_energy_localization_lacunary_equality(seed):
    rng = np.random.default_rng(seed)
    inner = tuple(enumerate_dyadic(G, -4, 0))
    level = GridFunction1D.indicator(G, [DyadicInterval(-2, 1)])
    outer = [iv for iv in enumerate_dyadic(G, -3, -1)
             if np.any(level.restrict(iv) > 0)]
    spec = BilinearBlockSpec(inner, HAAR_TRIPLE, "local", outer[0])
    v1 = GridFunction1D(G, rng.standard_normal(G.n_points))
    v2 = GridFunction1D(G, rng.standard_normal(G.n_points))
    assert energy_localization_check(spec, v1, v2, level, outer) == []


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=30, deadline=None)
def test_energy_localization_nonlacunary_domination(seed):
    rng = np.random.default_rng(seed)
    inner = tuple(enumerate_dyadic(G, -4, 0))
    level = GridFunction1D.indicator(G, [DyadicInterval(-2, 1)])
    outer = [iv for iv in enumerate_dyadic(G, -3, -1)
             if np.any(level.restrict(iv) > 0)]
    spec = BilinearBlockSpec(inner,
                             (HAAR_LACUNARY, HAAR_LACUNARY, HAAR_NONLACUNARY),
                             "local", outer[0])
    v1 = GridFunction1D(G, rng.standard_normal(G.n_points))
    v2 = GridFunction1D(G, rng.standard_normal(G.n_points))
    assert energy_localization_check(spec, v1, v2, level, outer) == []


def test_model_spec_validation():
    rect = (DyadicRectangle(UNIT, UNIT),)
    with pytest.raises(ConfigError):
        ModelOperatorSpec("unknown_model", rect, (UNIT,))
    with pytest.raises(ConfigError):
        ModelOperatorSpec("flag0_flag0", (), (UNIT,), (UNIT,))
    with pytest.raises(ConfigError):
        ModelOperatorSpec("flag0_flag0", rect, (UNIT,), ())  # missing y inner
    with pytest.raises(ConfigError):
        ModelOperatorSpec("flag0_flag0", rect, (UNIT,), (UNIT,),
                          x_outer=(HAAR_LACUNARY, HAAR_LACUNARY, HAAR_LACUNARY))
    for sharps in ((-1, 0), (0, -5)):  # as BilinearBlockSpec refuses them
        with pytest.raises(ConfigError):
            ModelOperatorSpec.haar("flag_sharp_flag_sharp", rect, (UNIT,),
                                   (UNIT,), *sharps)


@pytest.mark.parametrize("grid", [Grid1D(0, 5), Grid1D(1, 6), Grid1D(2, 4)])
def test_haar_fixed_scale_block_coefficients_vanish_at_offset_0(grid):
    """At offset 0 each lacunary member of a Haar fixed-scale block meets the
    indicator of its own interval with mean zero and misses every other
    interval of its scale, so every block coefficient is exactly 0.0, and
    so is a fixed-scale model at sharp 0.  At offset 1 they are not all 0.
    The inner collections come in any order, with repeats."""
    rng = np.random.default_rng(grid.res_exp)
    pool = enumerate_dyadic(grid, 1 - grid.res_exp, grid.box_exp)
    inner = [pool[int(i)] for i in rng.integers(0, len(pool), 2 * len(pool))]
    v1, v2 = (GridFunction1D(grid, rng.standard_normal(grid.n_points))
              for _ in range(2))
    for families in (HAAR_TRIPLE, (HAAR_LACUNARY, HAAR_NONLACUNARY, HAAR_LACUNARY),
                     (HAAR_LACUNARY,) * 3):
        zero = models._block_coefficients(inner, families, True, 0,
                                          HAAR_NONLACUNARY, pool, v1, v2)
        assert zero.tolist() == [0.0] * len(pool)
        one = models._block_coefficients(inner, families, True, 1,
                                         HAAR_NONLACUNARY, pool, v1, v2)
        assert np.count_nonzero(one) > len(pool) // 4


def test_multilinearity_in_each_slot():
    spec = _tiny_spec(seed=14)
    fs, h, rng = _random_inputs(7)
    for slot in range(4):
        other = GridFunction1D(G, rng.standard_normal(G.n_points))
        plus = list(fs)
        plus[slot] = GridFunction1D(G, fs[slot].samples + 2.0 * other.samples)
        lhs = model_operator(spec, *plus, h).samples
        alt = list(fs)
        alt[slot] = other
        rhs = (model_operator(spec, *fs, h).samples
               + 2.0 * model_operator(spec, *alt, h).samples)
        assert np.max(np.abs(lhs - rhs)) <= 1e-11


def _haar_block_outer_coeffs_reference(inner, families, outer_intervals, v1, v2,
                                       mode, sharp=0):
    """All <B_{.,I}(v1, v2), ind_I> for Haar families by the scatter of each
    inner member into its scale's array; the 'local' cutoff |Q| >= |I| is a
    cumulative sum over scales, read from pairwise block sums per scale."""
    grid = v1.grid
    c1 = dict(zip(inner, all_coefficients(v1, inner, families[0]).tolist()))
    c2 = dict(zip(inner, all_coefficients(v2, inner, families[1]).tolist()))
    contrib = {}
    for q in inner:
        w = c1[q] * c2[q] / math.ldexp(1.0, q.k) ** 0.5
        if w == 0.0:
            continue
        arr = contrib.setdefault(q.k, np.zeros(grid.n_points))
        a, b = grid.cell_range(q)
        amp = 2.0 ** (-q.k / 2.0)
        if families[2].lacunary:
            mid = (a + b) // 2
            arr[a:mid] += w * amp
            arr[mid:b] -= w * amp
        else:
            arr[a:b] += w * amp
    outer_scales = sorted({i.k for i in outer_intervals})
    needed = {}
    if mode == "fixed_scale":
        for s in outer_scales:
            needed[s] = contrib.get(s + sharp, np.zeros(grid.n_points))
    else:
        running = np.zeros(grid.n_points)
        k = max(list(contrib) + outer_scales)
        for s in reversed(outer_scales):
            while k >= s:
                if k in contrib:
                    running = running + contrib[k]
                k -= 1
            needed[s] = running.copy()
    out = {}
    for s in outer_scales:
        b = needed[s] * math.ldexp(1.0, -grid.res_exp)
        for _ in range(s + grid.res_exp):
            b = b[0::2] + b[1::2]
        for iv in outer_intervals:
            if iv.k == s:
                out[iv] = 2.0 ** (-s / 2.0) * float(b[iv.n])
    return out


def _block_coefficient_reference(bspec, outer, interval, v1, v2):
    """<B_{.,I}(v1, v2), m1_I> by quadrature against the whole block of I,
    rebuilt for the one interval; bspec is the block spec of I."""
    return coefficient_naive(bilinear_block(bspec, v1, v2), interval, outer)


def _absolute_coefficient(bspec, outer, interval, v1, v2):
    """The block coefficient of the interval with every term of its sum
    made nonnegative: the scale of the rounding error in any order."""
    f1, f2, f3 = bspec.families
    m1 = np.abs(outer.member(interval, v1.grid))
    total = 0.0
    for q in bspec.qualifying():
        w = (coefficient_naive(v1, q, f1) * coefficient_naive(v2, q, f2)
             / math.ldexp(1.0, q.k) ** 0.5)
        total += abs(w) * float(np.sum(np.abs(f3.member(q, v1.grid)) * m1))
    return total * float(v1.grid.cell_width)


_G5 = Grid1D(0, 5)
_INNER_POOL = enumerate_dyadic(_G5, -4, 0)


@given(st.lists(st.sampled_from(_INNER_POOL), min_size=1, max_size=40),
       st.sets(st.sampled_from(_INNER_POOL), min_size=1, max_size=12),
       st.booleans(), st.integers(0, 6), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=60, deadline=None)
def test_block_coefficients_match_both_block_paths(inner, outer, fixed, sharp, seed):
    """One per-scale block path for every family.  For Haar it is == to the
    scatter; for fixed_scale it is == to the per-interval block.  For local
    the sum over scales is re-associated, so each coefficient is within 1e-12
    of the same sum taken over absolute values (a coefficient can be small
    by cancellation).  Inner collections come in any order, with repeats, at
    scales above and below the outer ones, and sharp may reach past the
    coarsest scale."""
    outer = sorted(outer)
    rng = np.random.default_rng(seed)
    v1, v2 = (GridFunction1D(_G5, rng.standard_normal(_G5.n_points))
              for _ in range(2))
    which = "flag_sharp_flag_sharp" if fixed else "flag0_flag0"
    rects = [DyadicRectangle(I, I) for I in outer]
    for flavor in ("haar", "smooth"):
        maker = getattr(ModelOperatorSpec, flavor)
        spec = maker(which, rects, inner, inner, sharp1=sharp, sharp2=sharp)
        got = models._block_coefficients(spec.inner_x, spec.inner_x_families,
                                         fixed, sharp, spec.x_outer[0], outer,
                                         v1, v2)
        per_interval = np.array([_block_coefficient_reference(
            spec.x_block_spec(I), spec.x_outer[0], I, v1, v2) for I in outer])
        if flavor == "haar":
            scatter = _haar_block_outer_coeffs_reference(
                spec.inner_x, spec.inner_x_families, outer, v1, v2,
                "fixed_scale" if fixed else "local", sharp)
            assert np.array_equal(got, [scatter[I] for I in outer])
        if fixed:
            assert np.array_equal(got, per_interval)
        else:
            scale = [_absolute_coefficient(spec.x_block_spec(I), spec.x_outer[0],
                                           I, v1, v2) for I in outer]
            assert np.all(np.abs(got - per_interval) <= 1e-12 * np.array(scale))


def _haar_coefficient_rounded(v, interval, family):
    """<v, member on the interval> for a Haar family, correctly rounded but
    for one product: the exact sum of the samples times +-1 by math.fsum,
    then one multiplication by 2^(-k/2) times the cell width."""
    a, b = v.grid.cell_range(interval)
    signs = np.ones(b - a)
    if family.lacunary:
        signs[(b - a) // 2:] = -1.0
    total = math.fsum((v.samples[a:b] * signs).tolist())
    return total * (2.0 ** (-interval.k / 2.0) * float(v.grid.cell_width))


def _local_size_bound_reference(block_spec, v1, v2, level_set, outer_collection):
    """local_size_bound_check with one fixed-scale block per outer interval P,
    each read by quadrature, and the sups by quadrature, correctly rounded
    for Haar families (a coefficient can be small by cancellation)."""
    outer = tuple(outer_collection)
    outer_family = (HAAR_NONLACUNARY if block_spec.families[2].haar
                    else SMOOTH_NONLACUNARY)
    data = {}
    for p in outer:
        blk = bilinear_block(replace(block_spec, reference=p), v1, v2)
        data[p] = coefficient_naive(blk, p, outer_family)
    lhs = size(CoefficientSequence(data, outer), outer, lacunary=False).value
    meeting = [q for q in block_spec.collection
               if np.any(level_set.restrict(q) > 0)]
    if not meeting:
        return lhs, 0.0
    coefficient = (_haar_coefficient_rounded if block_spec.families[0].haar
                   else coefficient_naive)
    s1 = max(abs(coefficient(v1, q, block_spec.families[0]))
             / math.ldexp(1.0, q.k) ** 0.5 for q in meeting)
    s2 = max(abs(coefficient(v2, q, block_spec.families[1]))
             / math.ldexp(1.0, q.k) ** 0.5 for q in meeting)
    return lhs, s1 * s2


def _energy_pairs_reference(block_spec, v1, v2, level_set, outer_collection):
    """The (local, localized) coefficient pair of each outer interval P as
    energy_localization_check once read them: a whole local block rebuilt
    for every P, each block read by quadrature."""
    variant = ("localized_lac" if block_spec.families[2].lacunary
               else "localized_nonlac")
    loc_block = bilinear_block(BilinearBlockSpec(
        block_spec.collection, block_spec.families, variant,
        level_set=level_set), v1, v2)
    pairs = []
    for p in outer_collection:
        local = replace(block_spec, variant="local", reference=p)
        pairs.append((coefficient_naive(bilinear_block(local, v1, v2), p,
                                        HAAR_NONLACUNARY),
                      coefficient_naive(loc_block, p, HAAR_NONLACUNARY)))
    return pairs


def _energy_violations_reference(pairs, outer, third_lac, tol):
    """The intervals that energy_localization_check flags, by its own rule."""
    return [p for p, (lhs, rhs) in zip(outer, pairs)
            if (abs(lhs - rhs) > tol if third_lac else abs(lhs) > abs(rhs) + tol)]


def _split_tolerance(gaps):
    """A negative tolerance -d with d at the middle of the widest jump
    between the sorted gaps |rhs| - |lhs|, so that the non-lacunary check
    flags the intervals below d and passes those above it; None when d is
    within 1e-12 of a gap, where rounding alone would decide the flag."""
    g = np.unique(np.round(gaps, 14))
    if g.size < 2:
        d = 0.5 * float(g[0])
    else:
        j = int(np.argmax(np.diff(g)))
        d = 0.5 * float(g[j] + g[j + 1])
    return -d if np.min(np.abs(np.asarray(gaps) - d)) > 1e-12 else None


_LEVEL_POOL = enumerate_dyadic(Grid1D(0, 6), -3, 0)


@given(st.sampled_from([5, 6]), st.lists(st.integers(0, 10 ** 6), min_size=1,
                                          max_size=40),
       st.sampled_from(_LEVEL_POOL), st.lists(st.integers(0, 10 ** 6), min_size=1,
                                              max_size=12),
       st.integers(0, 3), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=60, deadline=None)
@example(res_exp=6, inner_picks=[143635], anchor=DyadicInterval(0, 0),
         outer_picks=[0], sharp=0, seed=99550)  # cancels in the Haar rhs
def test_localization_checks_match_per_interval_references(
        res_exp, inner_picks, anchor, outer_picks, sharp, seed):
    """Both localization checks read their block coefficients from the one
    per-scale path; they match the per-P blocks they once rebuilt.  The
    inner collection comes in any order and with repeats; the outer
    intervals meet the level set and span several scales.  Each block
    coefficient is within 1e-12 of the same sum over absolute values; the
    size check's sides are within 1e-12 of the larger reference side and
    exactly 0 where the reference's are; the energy check flags the same
    intervals, at its default tolerance and at a negative one that splits
    the non-lacunary intervals."""
    grid = Grid1D(0, res_exp)
    pool = enumerate_dyadic(grid, -4, 0)
    inner = tuple(pool[i % len(pool)] for i in inner_picks)
    level = GridFunction1D.indicator(grid, [anchor])
    meeting = [iv for iv in pool if np.any(level.restrict(iv) > 0)]
    outer = [meeting[i % len(meeting)] for i in outer_picks]
    rng = np.random.default_rng(seed)
    v1, v2 = (GridFunction1D(grid, rng.standard_normal(grid.n_points))
              for _ in range(2))

    for triple, outer_family in ((HAAR_TRIPLE, HAAR_NONLACUNARY),
                                 (SMOOTH_TRIPLE, SMOOTH_NONLACUNARY)):
        spec = BilinearBlockSpec(inner, triple, "fixed_scale", outer[0], sharp)
        got = models._block_coefficients(inner, triple, True, sharp,
                                         outer_family, outer, v1, v2)
        for I, c in zip(outer, got):
            bspec = replace(spec, reference=I)
            ref = _block_coefficient_reference(bspec, outer_family, I, v1, v2)
            assert c == ref or abs(c - ref) <= 1e-12 * _absolute_coefficient(
                bspec, outer_family, I, v1, v2)
        lhs, rhs = local_size_bound_check(spec, v1, v2, level, outer)
        ref_lhs, ref_rhs = _local_size_bound_reference(spec, v1, v2, level, outer)
        bound = 1e-12 * max(ref_lhs, ref_rhs)
        assert abs(lhs - ref_lhs) <= bound and abs(rhs - ref_rhs) <= bound
        assert (ref_lhs != 0.0 or lhs == 0.0) and (ref_rhs != 0.0 or rhs == 0.0)

    for triple in ((HAAR_NONLACUNARY, HAAR_LACUNARY, HAAR_LACUNARY),
                   (HAAR_LACUNARY, HAAR_LACUNARY, HAAR_NONLACUNARY)):
        spec = BilinearBlockSpec(inner, triple, "local", outer[0])
        third_lac = triple[2].lacunary
        got = models._block_coefficients(inner, triple, False, 0,
                                         HAAR_NONLACUNARY, outer, v1, v2)
        pairs = _energy_pairs_reference(spec, v1, v2, level, outer)
        for I, c, (ref, _) in zip(outer, got, pairs):
            assert c == ref or abs(c - ref) <= 1e-12 * _absolute_coefficient(
                replace(spec, reference=I), HAAR_NONLACUNARY, I, v1, v2)
        tols = [1e-12]
        if not third_lac:
            tols.append(_split_tolerance([abs(r) - abs(l) for l, r in pairs]))
        for tol in (t for t in tols if t is not None):
            msgs = energy_localization_check(spec, v1, v2, level, outer, tol)
            assert [m.split(": ")[0] for m in msgs] == [
                str(p) for p in _energy_violations_reference(pairs, outer,
                                                             third_lac, tol)]


def _weights_reference(spec, f1, f2, g1, g2):
    """Rectangle weights and h families by per-rectangle dict lookups, as
    before the table's inverse indices."""
    rects = list(spec.rectangles)
    xs, ys = sorted({r.x for r in rects}), sorted({r.y for r in rects})
    bx = dict(zip(xs, models._block_coefficients(
        spec.inner_x, spec.inner_x_families, spec.x_fixed_scale, spec.sharp1,
        spec.x_outer[0], xs, f1, f2)))
    if spec.paraproduct_y:
        g1c = dict(zip(ys, all_coefficients(g1, ys, spec.y_para[0]).tolist()))
        g2c = dict(zip(ys, all_coefficients(g2, ys, spec.y_para[1]).tolist()))
        y_factor = {J: g1c[J] * g2c[J] for J in ys}
        norm_y = {J: 1.0 / math.ldexp(1.0, J.k) for J in ys}
        h_y, out_y = spec.y_para[1], spec.y_para[2]
    else:
        y_factor = dict(zip(ys, models._block_coefficients(
            spec.inner_y, spec.inner_y_families, spec.y_fixed_scale, spec.sharp2,
            spec.y_outer[0], ys, g1, g2)))
        norm_y = {J: 1.0 / math.ldexp(1.0, J.k) ** 0.5 for J in ys}
        h_y, out_y = spec.y_outer[1], spec.y_outer[2]
    x_factor = {I: bx[I] / math.ldexp(1.0, I.k) ** 0.5 for I in xs}
    w = (np.array([x_factor[r.x] for r in rects])
         * np.array([y_factor[r.y] for r in rects])
         * np.array([norm_y[r.y] for r in rects]))
    return rects, xs, ys, w, h_y, out_y


def _model_operator_reference(spec, f1, f2, g1, g2, h):
    """C assembled by per-rectangle dict lookups, then synthesized on x and
    on y as model_operator does (synthesize has tests of its own)."""
    rects, xs, ys, w, h_y, out_y = _weights_reference(spec, f1, f2, g1, g2)
    hc = all_coefficients_2d(h, rects, spec.x_outer[1], h_y)
    row = {I: a for a, I in enumerate(xs)}
    col = {J: b for b, J in enumerate(ys)}
    c = np.zeros((len(xs), len(ys)))
    np.add.at(c, ([row[r.x] for r in rects], [col[r.y] for r in rects]), w * hc)
    x_side = synthesize(c, xs, spec.x_outer[2], h.grid_x)
    return synthesize(x_side.T, ys, out_y, h.grid_y).T


def _multilinear_form_reference(spec, f1, f2, g1, g2, h, dual):
    rects, _, _, w, h_y, out_y = _weights_reference(spec, f1, f2, g1, g2)
    terms = w * all_coefficients_2d(h, rects, spec.x_outer[1], h_y)
    terms *= all_coefficients_2d(dual, rects, spec.x_outer[2], out_y)
    terms[w == 0.0] = 0.0
    total = 0.0
    for t in terms.tolist():
        total += t
    return total


_SMALL = Grid1D(0, 4)
_SMALL_POOL = [DyadicRectangle(i, j) for i in enumerate_dyadic(_SMALL, -2, 0)
               for j in enumerate_dyadic(_SMALL, -3, 0)]


@given(st.lists(st.integers(0, len(_SMALL_POOL) - 1), min_size=1, max_size=30),
       st.sampled_from(MODEL_NAMES), st.sampled_from(["haar", "smooth"]),
       st.integers(0, 2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_list_and_table_give_equal_results(picks, which, flavor, seed):
    """hybrid_2d (every kind), model_operator, multilinear_form and
    level_set_decomposition_2d give == results for a rectangle list, in any
    order and with repeats, and for its table; model_operator and
    multilinear_form also == the per-rectangle dict assembly."""
    rects = [_SMALL_POOL[i] for i in picks]
    table = RectangleTable.of(rects)
    fs, h, rng = _random_inputs(seed, _SMALL)
    dual = GridFunction2D(_SMALL, _SMALL,
                          (rng.random((_SMALL.n_points,) * 2) < 0.7).astype(float))
    for kind in HybridKind:
        if kind in (HybridKind.M, HybridKind.S):
            continue
        assert np.array_equal(hybrid_2d(h, kind, rects).samples,
                              hybrid_2d(h, kind, table).samples)
    inner = tuple(enumerate_dyadic(_SMALL, -3, 0))
    maker = ModelOperatorSpec.haar if flavor == "haar" else ModelOperatorSpec.smooth
    from_list = maker(which, rects, inner, inner, sharp1=1, sharp2=0)
    from_table = maker(which, table, inner, inner, sharp1=1, sharp2=0)
    assert from_list == from_table and from_table.rectangles is table
    out = model_operator(from_list, *fs, h).samples
    assert np.array_equal(out, model_operator(from_table, *fs, h).samples)
    assert np.array_equal(out, _model_operator_reference(from_list, *fs, h))
    lam = multilinear_form(from_list, *fs, h, dual)
    assert lam == multilinear_form(from_table, *fs, h, dual)
    assert lam == _multilinear_form_reference(from_list, *fs, h, dual)
    a = level_set_decomposition_2d(rects, h, dual, 1.0, 1.5)
    b = level_set_decomposition_2d(table, h, dual, 1.0, 1.5)
    assert a.buckets == b.buckets
    assert sum(map(len, a.buckets.values())) == len(rects)


@pytest.mark.parametrize("which", MODEL_NAMES)
def test_given_h_coefficients_change_nothing(which):
    """SS_H and the Haar form's h side read the same coefficients: handing
    them over gives == results, and an array of the wrong length is refused."""
    spec = _tiny_spec(which, "haar", seed=5)
    fs, h, rng = _random_inputs(6)
    dual = GridFunction2D(G, G, (rng.random((G.n_points,) * 2) < 0.5).astype(float))
    hc = all_coefficients_2d(h, spec.rectangles, HAAR_LACUNARY, HAAR_LACUNARY)
    lam = multilinear_form(spec, *fs, h, dual)
    assert multilinear_form(spec, *fs, h, dual, h_coefficients=hc) == lam
    ss = hybrid_2d(h, HybridKind.SS_H, spec.rectangles)
    given_hc = hybrid_2d(h, HybridKind.SS_H, spec.rectangles, coefficients=hc)
    assert np.array_equal(ss.samples, given_hc.samples)
    with pytest.raises(ConfigError):
        multilinear_form(spec, *fs, h, dual, h_coefficients=hc[1:])
    with pytest.raises(ConfigError):
        hybrid_2d(h, HybridKind.SS_H, spec.rectangles, coefficients=hc[1:])
