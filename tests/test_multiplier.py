import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dyadlab.dyadic import Grid1D, GridFunction1D, GridFunction2D
from dyadlab.errors import ConfigError
from dyadlab.multiplier import (ExponentTuple, SymbolSpec, apply_multiplier,
                                fractional_derivative, leibniz_check,
                                lp_project, mother_phi_hat,
                                special_symbol_cascade, usable_bands)

N = 16
G16 = Grid1D(0, 4)
G32 = Grid1D(0, 5)
G64 = Grid1D(0, 6)


def _rand1(rng, g):
    return GridFunction1D(g, rng.standard_normal(g.n_points))


def _rand2(rng, g):
    return GridFunction2D(g, g, rng.standard_normal((g.n_points, g.n_points)))


class TestFractionalDerivative:
    def test_identity_at_zero(self):
        rng = np.random.default_rng(0)
        f = _rand1(rng, G16)
        out = fractional_derivative(f, 0.0)
        assert np.max(np.abs(out.samples - f.samples)) <= 1e-12

    def test_single_mode_eigenfunction(self):
        for k in (1, 3, 5):
            mode = GridFunction1D(G16, np.exp(2j * np.pi * k * np.arange(N) / N))
            out = fractional_derivative(mode, 1.7)
            assert np.max(np.abs(out.samples - k ** 1.7 * mode.samples)) <= 1e-12

    def test_order_two_is_spectral_second_derivative(self):
        rng = np.random.default_rng(1)
        f = _rand1(rng, G16)
        d2 = fractional_derivative(f, 2.0)
        spec = np.fft.fft(f.samples)
        xi = np.where(np.arange(N) <= N // 2, np.arange(N), np.arange(N) - N)
        ref = np.fft.ifft(spec * xi.astype(float) ** 2).real
        assert np.max(np.abs(d2.samples - ref)) <= 1e-9

    def test_negative_order_rejected(self):
        with pytest.raises(ConfigError):
            fractional_derivative(GridFunction1D.zeros(G16), -0.5)

    def test_real_output(self):
        rng = np.random.default_rng(2)
        h = _rand2(rng, G16)
        out = fractional_derivative(h, (0.7, 1.3))
        assert np.isrealobj(out.samples)


class TestBandProjection:
    def test_partition_of_unity_on_mean_zero(self):
        rng = np.random.default_rng(3)
        f = _rand1(rng, G16)
        f = GridFunction1D(G16, f.samples - f.samples.mean())
        total = np.zeros(N)
        for k in usable_bands(N):
            total = total + lp_project(f, k, "psi").samples
        assert np.max(np.abs(total - f.samples)) <= 1e-10

    def test_annuli_kill_constants(self):
        const = GridFunction1D(G16, np.ones(N))
        for k in usable_bands(N):
            out = lp_project(const, k, "psi")
            assert np.max(np.abs(out.samples)) <= 1e-12

    def test_single_mode_passes_through_plateau(self):
        # frequency 3 sits on band 1's plateau [1.9, 3]
        mode = GridFunction1D(G16, np.cos(2 * np.pi * 3 * np.arange(N) / N))
        from dyadlab.multiplier import psi_hat_band
        k = 1
        assert psi_hat_band(np.array([3.0]), k)[0] == pytest.approx(1.0, abs=1e-12)
        out = lp_project(mode, k, "psi")
        assert np.max(np.abs(out.samples - mode.samples)) <= 1e-10

    def test_band_out_of_range(self):
        with pytest.raises(ConfigError):
            lp_project(GridFunction1D.zeros(G16), 40, "psi")

    def test_phi_band_keeps_dc(self):
        const = GridFunction1D(G16, 2.0 * np.ones(N))
        out = lp_project(const, 0, "phi")
        assert np.max(np.abs(out.samples - const.samples)) <= 1e-12


def _special_pair(gap=3):
    a = SymbolSpec("product_special", ("psi", "phi"), ("phi", "psi"), gap=gap)
    b = SymbolSpec("product_special", ("phi", "phi", "psi"),
                   ("phi", "phi", "psi"), gap=gap)
    return a, b


def _cascade_per_pair(a, b, f1, f2, g1, g2, h) -> np.ndarray:
    """Reference cascade: one pass per pair of scale pairs, no regrouping.

    Every ((k1, k2), (j1, j2)) gets its own banded blocks, its own h annulus
    and its own final window, three 2D FFTs per pass.
    """
    from dyadlab.multiplier import (_axis_pairs, _band_window,
                                    _completion_windows, _sym_freqs,
                                    psi_hat_band)
    n = f1.grid.n_points
    pairs = _axis_pairs(a, b, n)
    xs = _sym_freqs(n).astype(float)

    def conv(samples, window):
        return np.fft.ifft(np.fft.fft(samples) * window)

    def blocks(types, u1, u2):
        out = {}
        for (k1, k2) in pairs:
            comp3 = mother_phi_hat(xs / 2**(k1 + 2))
            comp1, _ = _completion_windows(k2, xs)
            p1 = conv(u1.samples.astype(complex), _band_window(types[0], k1, xs))
            p2 = conv(u2.samples.astype(complex), _band_window(types[1], k1, xs))
            out[(k1, k2)] = conv(p1 * p2, comp3 * comp1)
        return out

    xb = blocks(a.x_types[:2], f1, f2)
    yb = blocks(a.y_types[:2], g1, g2)
    hspec = np.fft.fft2(h.samples.astype(complex))
    acc = np.zeros((n, n), dtype=complex)
    for (k1, k2) in pairs:
        px = _completion_windows(k2, xs)[1]
        for (j1, j2) in pairs:
            py = _completion_windows(j2, xs)[1]
            band = np.outer(psi_hat_band(xs, k2), psi_hat_band(xs, j2))
            hband = np.fft.ifft2(hspec * band)
            core = xb[(k1, k2)][:, None] * yb[(j1, j2)][None, :] * hband
            acc += np.fft.ifft2(np.fft.fft2(core) * np.outer(px, py))
    return acc.real


def _axis_symbol_tensor(a_types, pairs, n: int) -> np.ndarray:
    """Dense completed symbol s(f1-freq, f2-freq, h-freq) with wrapped sums."""
    from dyadlab.multiplier import (_band_window, _completion_windows,
                                    _sym_freqs, psi_hat_band)
    xs = _sym_freqs(n).astype(float)
    m = np.arange(n)
    sum2 = (m[:, None] + m[None, :]) % n
    sum3 = (sum2[:, :, None] + m[None, None, :]) % n
    s = np.zeros((n, n, n))
    for (k1, k2) in pairs:
        w1 = _band_window(a_types[0], k1, xs)
        w2 = _band_window(a_types[1], k1, xs)
        comp3 = mother_phi_hat(xs / 2**(k1 + 2))
        comp1, psi3 = _completion_windows(k2, xs)
        mid = (comp3 * comp1)[sum2]
        outer = psi3[sum3]
        d = psi_hat_band(xs, k2)
        s += (w1[:, None, None] * w2[None, :, None] * mid[:, :, None]
              * d[None, None, :] * outer)
    return s


def _phases(n: int) -> np.ndarray:
    """E[x, m] = e^{2 pi i x m / N}."""
    j = np.arange(n)
    return np.exp(2j * np.pi * np.outer(j, j) / n)


def _direct_per_pair(a, b, f1, f2, g1, g2, h) -> np.ndarray:
    """The direct sum one scale pair at a time, with no regrouping.

    Per (k1, k2), the banded spectra are convolved explicitly and the pair
    adds comp1[m] conv[m] d[c] psi3[m + c] to T[m, c]; the output is
    (E Tx o E) h^ (E Ty o E)^T with the dense phase matrix E.
    """
    from dyadlab.multiplier import (_axis_pairs, _band_window,
                                    _completion_windows, _sym_freqs,
                                    psi_hat_band)
    n = f1.grid.n_points
    pairs = _axis_pairs(a, b, n)
    xs = _sym_freqs(n).astype(float)
    m = np.arange(n)
    diff = (m[None, :] - m[:, None]) % n  # [a, m] -> (m - a) mod N
    sum2 = (m[:, None] + m[None, :]) % n  # [m, c] -> (m + c) mod N

    def axis_sum(types, u1, u2):
        u1h, u2h = (np.fft.fft(u.samples.astype(complex)) / n for u in (u1, u2))
        t = np.zeros((n, n), dtype=complex)
        for (k1, k2) in pairs:
            v1 = _band_window(types[0], k1, xs) * u1h
            v2 = _band_window(types[1], k1, xs) * u2h
            conv = v1 @ v2[diff]
            comp1, psi3 = _completion_windows(k2, xs)
            d = psi_hat_band(xs, k2)
            t += (comp1 * conv)[:, None] * d[None, :] * psi3[sum2]
        return t

    e = _phases(n)
    tx = axis_sum(a.x_types[:2], f1, f2)
    ty = axis_sum(a.y_types[:2], g1, g2)
    hh = np.fft.fft2(h.samples.astype(complex)) / n ** 2
    return (((e @ tx) * e) @ hh @ ((e @ ty) * e).T).real


def _direct_dense_reference(a, b, f1, f2, g1, g2, h):
    """The direct six-fold sum contracted from the two dense N^3 symbol
    tensors, returned with the tensors themselves."""
    from dyadlab.multiplier import _axis_pairs
    n = f1.grid.n_points
    pairs = _axis_pairs(a, b, n)
    sx = _axis_symbol_tensor(a.x_types[:2], pairs, n)
    sy = _axis_symbol_tensor(a.y_types[:2], pairs, n)
    e = _phases(n)
    f1h, f2h, g1h, g2h = (np.fft.fft(u.samples.astype(complex)) / n
                          for u in (f1, f2, g1, g2))
    hh = np.fft.fft2(h.samples.astype(complex)) / n ** 2
    mx = np.einsum("abc,a,b,xa,xb->xc", sx, f1h, f2h, e, e, optimize=True)
    my = np.einsum("abc,a,b,ya,yb->yc", sy, g1h, g2h, e, e, optimize=True)
    out = np.einsum("cd,xc,yd->xy", hh, mx * e, my * e, optimize=True)
    return out.real, sx, sy


DIRECT_FLAGS = [(("psi", "phi"), ("phi", "psi")), (("psi", "psi"), ("psi", "psi"))]


# no pair is admissible at N = 16 with gap 3
@pytest.mark.parametrize("n,gap", [(n, gap) for n in (16, 32, 64, 128, 256, 512)
                                   for gap in (1, 3) if (n, gap) != (16, 3)])
def test_k1_completion_window_is_one_on_the_convolution_support(n, gap):
    """mother_phi_hat(xi / 2^(k1+2)) is exactly 1.0 wherever the cyclic
    convolution of two k1 band windows (psi or phi) is nonzero, for every
    admissible pair: the completion needs no k1 window."""
    from dyadlab.multiplier import _axis_pairs, _band_window, _sym_freqs
    a, b = _special_pair(gap)
    xs = _sym_freqs(n).astype(float)
    m = np.arange(n)
    diff = (m[None, :] - m[:, None]) % n  # [a, m] -> (m - a) mod N
    for (k1, _) in _axis_pairs(a, b, n):
        comp3 = mother_phi_hat(xs / 2**(k1 + 2))
        for t1 in ("psi", "phi"):
            for t2 in ("psi", "phi"):
                w1 = (_band_window(t1, k1, xs) != 0).astype(int)
                w2 = (_band_window(t2, k1, xs) != 0).astype(int)
                support = (w1 @ w2[diff]) > 0
                assert support.any()
                assert np.all(comp3[support] == 1.0)


@pytest.mark.parametrize("flags", DIRECT_FLAGS, ids=["psi_phi", "psi_psi"])
@pytest.mark.parametrize("res_exp,gap", [(4, 1), (5, 3), (6, 3), (6, 1)])
def test_direct_path_matches_dense_reference(flags, res_exp, gap):
    g = Grid1D(0, res_exp)
    rng = np.random.default_rng(40 + res_exp)
    a = SymbolSpec("product_special", *flags, gap=gap)
    b = SymbolSpec("product_special", ("phi", "phi", "psi"),
                   ("phi", "phi", "psi"), gap=gap)
    fs = [_rand1(rng, g) for _ in range(4)]
    h = _rand2(rng, g)
    ref = _direct_dense_reference(a, b, *fs, h)[0]
    out = apply_multiplier(a, b, *fs, h).samples
    scale = float(np.max(np.abs(ref)))
    assert scale > 0
    assert np.max(np.abs(out - ref)) <= 1e-12 * scale


@pytest.mark.parametrize("flags", DIRECT_FLAGS, ids=["psi_phi", "psi_psi"])
@pytest.mark.parametrize("res_exp,gap", [(7, 1), (7, 3), (8, 1), (8, 3)])
def test_direct_path_matches_per_pair_sum(flags, res_exp, gap):
    """Grouping the convolutions by k1 and the windows by k2, and the sheared
    assembly, give the pair-by-pair sum on grids the dense N^3 reference
    cannot reach."""
    g = Grid1D(0, res_exp)
    rng = np.random.default_rng(60 + res_exp + gap)
    a = SymbolSpec("product_special", *flags, gap=gap)
    b = SymbolSpec("product_special", ("phi", "phi", "psi"),
                   ("phi", "phi", "psi"), gap=gap)
    fs = [_rand1(rng, g) for _ in range(4)]
    h = _rand2(rng, g)
    ref = _direct_per_pair(a, b, *fs, h)
    out = apply_multiplier(a, b, *fs, h).samples
    scale = float(np.max(np.abs(ref)))
    assert scale > 0
    assert np.max(np.abs(out - ref)) <= 1e-12 * scale


@pytest.mark.parametrize("flags", DIRECT_FLAGS, ids=["psi_phi", "psi_psi"])
def test_direct_path_matches_literal_six_fold_sum(flags):
    """At N = 8 the tabulated path's nested loops evaluate the literal sum
    over (i1, j1, i2, j2, c, d), with the symbol written out in full."""
    g = Grid1D(0, 3)
    rng = np.random.default_rng(0)
    a = SymbolSpec("product_special", *flags, gap=1)
    b = SymbolSpec("product_special", ("phi", "phi", "psi"),
                   ("phi", "phi", "psi"), gap=1)
    fs = [_rand1(rng, g) for _ in range(4)]
    h = _rand2(rng, g)
    dense, sx, sy = _direct_dense_reference(a, b, *fs, h)
    full = np.einsum("ikc,jld->ijklcd", sx, sy)
    bound = float(np.max(np.abs(full)))
    ta = SymbolSpec("tabulated", values=np.ones((8,) * 4), bound=1.0)
    tb = SymbolSpec("tabulated", values=full, bound=bound)
    literal = apply_multiplier(ta, tb, *fs, h).samples
    out = apply_multiplier(a, b, *fs, h).samples
    scale = float(np.max(np.abs(literal)))
    assert scale > 1e-6
    assert np.max(np.abs(out - literal)) <= 1e-12 * scale
    assert np.max(np.abs(dense - literal)) <= 1e-12 * scale


class TestApplyMultiplier:
    def test_constant_symbol_is_pointwise_product(self):
        rng = np.random.default_rng(4)
        for g in (G16, G32):
            fs = [_rand1(rng, g) for _ in range(4)]
            h = _rand2(rng, g)
            one = SymbolSpec("constant_one")
            out = apply_multiplier(one, one, *fs, h)
            ref = ((fs[0].samples * fs[1].samples)[:, None]
                   * (fs[2].samples * fs[3].samples)[None, :] * h.samples)
            assert np.max(np.abs(out.samples - ref)) <= 1e-10

    def test_zero_input_gives_zero(self):
        rng = np.random.default_rng(5)
        fs = [_rand1(rng, G32) for _ in range(3)] + [GridFunction1D.zeros(G32)]
        h = _rand2(rng, G32)
        a, b = _special_pair()
        out = apply_multiplier(a, b, fs[3], fs[0], fs[1], fs[2], h)
        assert np.max(np.abs(out.samples)) <= 1e-14

    def test_linearity_in_each_slot(self):
        rng = np.random.default_rng(6)
        a, b = _special_pair()
        fs = [_rand1(rng, G32) for _ in range(4)]
        h = _rand2(rng, G32)
        other = _rand1(rng, G32)
        for slot in range(4):
            plus = list(fs)
            plus[slot] = GridFunction1D(G32, fs[slot].samples + 3.0 * other.samples)
            alt = list(fs)
            alt[slot] = other
            lhs = apply_multiplier(a, b, *plus, h).samples
            rhs = (apply_multiplier(a, b, *fs, h).samples
                   + 3.0 * apply_multiplier(a, b, *alt, h).samples)
            assert np.max(np.abs(lhs - rhs)) <= 1e-10
        other_h = _rand2(rng, G32)
        summed = GridFunction2D(G32, G32, h.samples + 3.0 * other_h.samples)
        lhs = apply_multiplier(a, b, *fs, summed).samples
        rhs = (apply_multiplier(a, b, *fs, h).samples
               + 3.0 * apply_multiplier(a, b, *fs, other_h).samples)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_cascade_matches_direct_sum(self):
        # N = 32 has one scale pair per axis; N = 64 has (0, 4), (0, 5) and
        # (1, 5), so the cascade sums two blocks for the top scale 5.  The
        # direct sum runs at every N, so one draw per (N, gap) at N = 128,
        # 256 and 512 checks it against the cascade on the largest grids.
        rng = np.random.default_rng(7)
        a, b = _special_pair()
        worst = worst_rel = 0.0
        for g in (G32, G64):
            for _ in range(5):
                fs = [_rand1(rng, g) for _ in range(4)]
                h = _rand2(rng, g)
                direct = apply_multiplier(a, b, *fs, h).samples
                cascade = special_symbol_cascade(a, b, *fs, h).samples
                dev = float(np.max(np.abs(direct - cascade)))
                worst = max(worst, dev)
                worst_rel = max(worst_rel, dev / float(np.max(np.abs(cascade))))
        assert worst <= 1e-9
        assert worst_rel <= 1e-12
        for res_exp in (7, 8, 9):
            g = Grid1D(0, res_exp)
            for gap in (1, 3):
                a, b = _special_pair(gap)
                fs = [_rand1(rng, g) for _ in range(4)]
                h = _rand2(rng, g)
                direct = apply_multiplier(a, b, *fs, h).samples
                cascade = special_symbol_cascade(a, b, *fs, h).samples
                scale = float(np.max(np.abs(cascade)))
                assert scale > 0
                assert np.max(np.abs(direct - cascade)) <= 1e-12 * scale

    @pytest.mark.parametrize("res_exp", [7, 8])
    def test_cascade_matches_per_pair_passes(self, res_exp):
        g = Grid1D(0, res_exp)
        rng = np.random.default_rng(12 + res_exp)
        a, b = _special_pair()
        fs = [_rand1(rng, g) for _ in range(4)]
        h = _rand2(rng, g)
        ref = _cascade_per_pair(a, b, *fs, h)
        out = special_symbol_cascade(a, b, *fs, h).samples
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_mismatched_grids_rejected(self):
        rng = np.random.default_rng(11)
        a, b = _special_pair()
        for slot in range(5):
            ins = [_rand1(rng, G32) for _ in range(4)] + [_rand2(rng, G32)]
            ins[slot] = _rand1(rng, G64) if slot < 4 else _rand2(rng, G64)
            for fn in (apply_multiplier, special_symbol_cascade):
                with pytest.raises(ConfigError):
                    fn(a, b, *ins)

    def test_gap_too_large_raises(self):
        a, b = _special_pair(gap=20)
        rng = np.random.default_rng(8)
        fs = [_rand1(rng, G32) for _ in range(4)]
        with pytest.raises(ConfigError):
            apply_multiplier(a, b, *fs, _rand2(rng, G32))

    def test_tabulated_constant_matches_product(self):
        n = 8
        g = Grid1D(0, 3)
        rng = np.random.default_rng(9)
        fs = [_rand1(rng, g) for _ in range(4)]
        h = _rand2(rng, g)
        a = SymbolSpec("tabulated", values=np.ones((n,) * 4), bound=1.0)
        b = SymbolSpec("tabulated", values=np.ones((n,) * 6), bound=1.0)
        out = apply_multiplier(a, b, *fs, h)
        ref = ((fs[0].samples * fs[1].samples)[:, None]
               * (fs[2].samples * fs[3].samples)[None, :] * h.samples)
        assert np.max(np.abs(out.samples - ref)) <= 1e-10

    def test_tabulated_bound_enforced(self):
        with pytest.raises(ConfigError):
            SymbolSpec("tabulated", values=2.0 * np.ones((4,) * 4), bound=1.0)

    def test_parseval_consistency(self):
        rng = np.random.default_rng(10)
        fs = [_rand1(rng, G16) for _ in range(4)]
        h = _rand2(rng, G16)
        one = SymbolSpec("constant_one")
        out = apply_multiplier(one, one, *fs, h)
        spec = np.fft.fft2(out.samples) / out.samples.size
        freq_side = float(np.sum(np.abs(spec) ** 2))
        assert out.norm(2) ** 2 == pytest.approx(freq_side, abs=1e-10)


def test_single_band_term_hand_value():
    """One scale pair, single-mode inputs: the output is the product of the
    window values at the input modes.  m3 = 20 sits on the plateau of the
    k2 = 4 annulus (20 / 16 = 1.25), so the expected value is not zero."""
    n = 64
    g = Grid1D(0, 6)
    a = SymbolSpec("product_special", ("psi", "psi"), ("psi", "psi"), gap=3)
    b = SymbolSpec("product_special", ("phi", "phi", "psi"),
                   ("phi", "phi", "psi"), gap=3)
    from dyadlab.multiplier import (_axis_pairs, _completion_windows,
                                    psi_hat_band)
    pairs = _axis_pairs(a, b, n)
    j = np.arange(n)
    m1, m2, m3 = 1, -1, 20
    mode = lambda m: GridFunction1D(g, np.exp(2j * np.pi * m * j / n))
    h = GridFunction2D(g, g, np.outer(np.exp(2j * np.pi * m3 * j / n),
                                      np.exp(2j * np.pi * m3 * j / n)))
    inputs = (mode(m1), mode(m2), mode(m1), mode(m2), h)
    expected = 0.0
    for (k1, k2) in pairs:
        w1 = psi_hat_band(np.array([float(m1)]), k1)[0]
        w2 = psi_hat_band(np.array([float(m2)]), k1)[0]
        comp3 = mother_phi_hat(np.array([0.0]) / 2**(k1 + 2))
        comp1, psi3 = _completion_windows(k2, np.array([0.0, float(m3)]))
        d = psi_hat_band(np.array([float(m3)]), k2)[0]
        expected += w1 * w2 * comp3[0] * comp1[0] * d * psi3[1]
    expected = expected ** 2  # both axes carry the same factors
    assert expected != 0
    phase = np.exp(2j * np.pi * m3 * j / n)  # m1 + m2 = 0
    ref = expected * np.outer(phase, phase)
    for fn in (apply_multiplier, special_symbol_cascade):
        out = fn(a, b, *inputs)
        assert np.max(np.abs(out.samples - ref.real)) <= 1e-12 * abs(expected)


class TestExponentTuple:
    def test_target_exponent(self):
        t = ExponentTuple(4 / 3, 4.0, 4.0, 4 / 3, 1.5)
        assert 1 / t.r == pytest.approx(3 / 4 + 1 / 4 + 2 / 3)
        assert t.r_conjugate_reciprocal == pytest.approx(1 - 5 / 3)

    def test_rejects_mismatched_axes(self):
        with pytest.raises(ConfigError):
            ExponentTuple(2.0, 2.0, 2.0, 4.0, 2.0)

    def test_rejects_double_infinity(self):
        with pytest.raises(ConfigError):
            ExponentTuple(math.inf, math.inf, 2.0, 2.0, 2.0)

    def test_rejects_low_exponents(self):
        with pytest.raises(ConfigError):
            ExponentTuple(1.0, 4.0, 4.0, 1.0, 2.0)


HOLDER = ExponentTuple(4.0, 4.0, 4.0, 4.0, 4.0)


class TestLeibniz:
    def test_zero_input(self):
        rng = np.random.default_rng(11)
        g = G16
        zero = GridFunction1D.zeros(g)
        fs = [_rand1(rng, g) for _ in range(3)]
        h = _rand2(rng, g)
        rep = leibniz_check((0.0, 0.0), (0.0, 0.0), HOLDER, zero, *fs, h)
        assert rep.lhs == 0.0 and rep.ratio == 0.0

    def test_hoelder_case_ratio_at_most_one(self):
        rng = np.random.default_rng(12)
        g = G16
        for _ in range(5):
            fs = [_rand1(rng, g) for _ in range(4)]
            h = _rand2(rng, g)
            rep = leibniz_check((0.0, 0.0), (0.0, 0.0), HOLDER, *fs, h)
            assert rep.ratio <= 1.0 + 1e-9

    def test_orders_validated(self):
        rng = np.random.default_rng(13)
        fs = [_rand1(rng, G16) for _ in range(4)]
        with pytest.raises(ConfigError):
            leibniz_check((-1.0, 0.0), (0.0, 0.0), HOLDER, *fs, _rand2(rng, G16))

    def test_csv_row_shape(self):
        rng = np.random.default_rng(14)
        fs = [_rand1(rng, G16) for _ in range(4)]
        rep = leibniz_check((1.0, 0.0), (0.0, 1.0), HOLDER, *fs,
                            _rand2(rng, G16), seed=7)
        row = rep.csv_row()
        assert row.count(",") == 9 and ",7," in row


def _leibniz_reference(alphas, betas, tuples, f1, f2, g1, g2, h):
    """lhs and the sixteen terms, every derivative and norm computed afresh
    for each term."""
    a1, a2 = alphas
    b1, b2 = betas
    prod = np.outer(f1.samples * f2.samples, g1.samples * g2.samples)
    inner = fractional_derivative(GridFunction2D(h.grid_x, h.grid_y, prod), (a1, a2))
    mid = GridFunction2D(h.grid_x, h.grid_y, inner.samples * h.samples)
    lhs = fractional_derivative(mid, (b1, b2)).norm(tuples[0].r)
    terms = []
    idx = 0
    for xa in (0, 1):
        for xb in ("f", "h"):
            for ya in (0, 1):
                for yb in ("g", "h"):
                    t = tuples[idx]
                    idx += 1
                    fx = [f1, f2]
                    gx = [g1, g2]
                    xakind = a1 + (b1 if xb == "f" else 0.0)
                    yakind = a2 + (b2 if yb == "g" else 0.0)
                    dfx = fractional_derivative(fx[xa], xakind)
                    dgy = fractional_derivative(gx[ya], yakind)
                    hb1 = b1 if xb == "h" else 0.0
                    hb2 = b2 if yb == "h" else 0.0
                    dh = fractional_derivative(h, (hb1, hb2))
                    terms.append(dfx.norm(t.p1) * fx[1 - xa].norm(t.q1)
                                 * dgy.norm(t.p2) * gx[1 - ya].norm(t.q2)
                                 * dh.norm(t.s))
    return lhs, terms


def _sixteen_tuples():
    """Sixteen distinct exponent tuples with one r: 1/p + 1/q = 3/4 on both
    axes and s = 2."""
    out = []
    for i in range(16):
        x, y = 0.1 + 0.03 * i, 0.6 - 0.025 * i
        out.append(ExponentTuple(1 / x, 1 / (0.75 - x), 1 / y, 1 / (0.75 - y), 2.0))
    return out


@pytest.mark.parametrize("alphas,betas", [((0.5, 1.0), (1.5, 0.0)),
                                          ((1.0, 0.0), (0.5, 1.5)),
                                          ((0.0, 1.5), (1.0, 0.5)),
                                          ((1.5, 0.5), (0.0, 1.0))])
@pytest.mark.parametrize("many", [False, True], ids=["one_tuple", "sixteen_tuples"])
def test_leibniz_check_matches_per_term_reference(alphas, betas, many):
    """Sharing derivatives and norms between terms changes no bit of lhs or
    of any term."""
    rng = np.random.default_rng(15)
    fs = [_rand1(rng, G32) for _ in range(4)]
    h = _rand2(rng, G32)
    tuples = _sixteen_tuples() if many else [ExponentTuple(4 / 3, 4.0, 4.0, 4 / 3, 1.5)] * 16
    assert len({(t.p1, t.q1, t.p2, t.q2) for t in tuples}) == (16 if many else 1)
    rep = leibniz_check(alphas, betas, tuples if many else tuples[0], *fs, h)
    lhs, terms = _leibniz_reference(alphas, betas, tuples, *fs, h)
    assert rep.lhs.hex() == lhs.hex()
    assert [t.hex() for t in rep.terms] == [t.hex() for t in terms]


def _tile1(f: GridFunction1D, lam: int, g_big: Grid1D) -> GridFunction1D:
    return GridFunction1D(g_big, np.tile(f.samples, lam))


def _tile2(h: GridFunction2D, lam: int, g_big: Grid1D) -> GridFunction2D:
    return GridFunction2D(g_big, g_big, np.tile(h.samples, (lam, lam)))


def dilation_slopes(alphas, betas, seed, n0=32):
    """log2 growth of the Leibniz sides under x -> 2x dilation (refined grids)."""
    rng = np.random.default_rng(seed)
    g0 = Grid1D(0, int(math.log2(n0)))
    fs = [_rand1(rng, g0) for _ in range(4)]
    h = _rand2(rng, g0)
    values = []
    for lam in (1, 2, 4):
        g_big = Grid1D(0, int(math.log2(n0 * lam)))
        fs_l = [_tile1(f, lam, g_big) for f in fs]
        h_l = _tile2(h, lam, g_big)
        rep = leibniz_check(alphas, betas, HOLDER, *fs_l, h_l)
        values.append((rep.lhs, rep.terms))
    slopes = []
    for a, b in ((0, 1), (1, 2)):
        slopes.append(math.log2(values[b][0] / values[a][0]))
        for t0, t1 in zip(values[a][1], values[b][1]):
            slopes.append(math.log2(t1 / t0))
    return slopes


@pytest.mark.parametrize("order", [0.0, 1.0])
def test_dilation_homogeneity(order):
    expected = 4.0 * order
    slopes = dilation_slopes((order, order), (order, order), seed=21)
    assert max(abs(s - expected) for s in slopes) <= 1e-8


def _upsample1(f: GridFunction1D, g_big: Grid1D) -> GridFunction1D:
    """Exact refinement of a band-limited grid function via spectrum padding."""
    n, m = f.grid.n_points, g_big.n_points
    spec = np.fft.fft(np.asarray(f.samples, dtype=complex)) / n
    big = np.zeros(m, dtype=complex)
    for k in range(n):
        sym = k if k <= n // 2 else k - n
        big[sym % m] += spec[k]
    return GridFunction1D(g_big, (np.fft.ifft(big) * m).real)


def _upsample2(h: GridFunction2D, g_big: Grid1D) -> GridFunction2D:
    n, m = h.grid_x.n_points, g_big.n_points
    spec = np.fft.fft2(np.asarray(h.samples, dtype=complex)) / n ** 2
    big = np.zeros((m, m), dtype=complex)
    for k1 in range(n):
        s1 = (k1 if k1 <= n // 2 else k1 - n) % m
        for k2 in range(n):
            s2 = (k2 if k2 <= n // 2 else k2 - n) % m
            big[s1, s2] += spec[k1, k2]
    return GridFunction2D(g_big, g_big, (np.fft.ifft2(big) * m * m).real)


def test_ratio_stable_under_grid_refinement():
    """For fixed band-product symbols and band-limited inputs, the ratio
    ||T||_r / prod(norms) moves by at most 10% from N=32 to N=64."""
    rng = np.random.default_rng(31)
    a, b = _special_pair()
    t = ExponentTuple(4 / 3, 4.0, 4.0, 4 / 3, 1.5)

    def bandlimited(g, bw=8):
        # include a mean so the scale-0 low-pass factor sees something
        spec = np.zeros(g.n_points, dtype=complex)
        spec[0] = rng.standard_normal()
        for m in range(1, bw + 1):
            c = rng.standard_normal() + 1j * rng.standard_normal()
            spec[m], spec[-m] = c, np.conj(c)
        return GridFunction1D(g, (np.fft.ifft(spec) * g.n_points).real)

    fs = [bandlimited(G32) for _ in range(4)]
    # h needs content inside the top annulus (|xi| in (12, 16]) to engage
    # the only admissible scale pair at N=32
    h32 = GridFunction2D(G32, G32, np.outer(bandlimited(G32, bw=15).samples,
                                            bandlimited(G32, bw=15).samples))

    def ratio(fs_, h_):
        out = apply_multiplier(a, b, *fs_, h_)
        denom = (fs_[0].norm(t.p1) * fs_[1].norm(t.q1) * fs_[2].norm(t.p2)
                 * fs_[3].norm(t.q2) * h_.norm(t.s))
        return out.norm(t.r) / denom

    g64 = Grid1D(0, 6)
    r32 = ratio(fs, h32)
    r64 = ratio([_upsample1(f, g64) for f in fs], _upsample2(h32, g64))
    assert r32 > 0
    assert abs(r64 - r32) <= 0.10 * r32
