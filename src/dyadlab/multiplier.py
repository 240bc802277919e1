"""Grid-FFT lab for the five-linear multiplier, band projections and Leibniz checks.

Frequencies are integers on the discrete torus (cycles per domain period),
with the symmetric representative in (-N/2, N/2].  Wherever a symbol factor is
evaluated at a sum of frequencies, the sum is taken mod N and mapped to its
symmetric representative: this makes the direct frequency-sum evaluation and
the FFT convolution cascade two implementations of the same finite object.

The two are kept independent on purpose, so that comparing them checks
something.  Both sum over the low scale k1 before the top scale meets h, but
by different means.  The direct sum, which apply_multiplier runs at every N,
convolves the banded input spectra by an explicit O(N^2) circulant sum, once
per k1, and assembles the output in one sheared two-matmul product and one
inverse 2D FFT; the cascade (special_symbol_cascade, the check) convolves by
FFT and runs one 2D FFT pass per pair (k2, j2) of top scales.

Band windows follow the usual smooth ladder: a mother low-pass window equal to
1 on [-1, 1] and supported in [-2, 2]; the annulus window is the difference of
two of its dilates; the low-pass member of the band family at scale k lags ten
scales behind, matching the cumulative-sum convention (its value at frequency
zero is taken to be 1 by continuity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dyadic import GridFunction1D, GridFunction2D
from .errors import ConfigError

__all__ = [
    "SymbolSpec",
    "ExponentTuple",
    "LeibnizReport",
    "fractional_derivative",
    "lp_project",
    "apply_multiplier",
    "special_symbol_cascade",
    "leibniz_check",
    "mother_phi_hat",
    "mother_psi_hat",
    "psi_hat_band",
    "phi_hat_band",
    "usable_bands",
]

PHI_LAG = 10  # scale lag of the low-pass band member behind the annulus


_PLATEAU = 1.5  # the low-pass mother equals 1 up to here ...
_CUTOFF = 1.9   # ... and vanishes from here on


def _smooth_step(t: np.ndarray) -> np.ndarray:
    """1 at t <= _PLATEAU, 0 at t >= _CUTOFF, smooth monotone in between."""
    t = np.asarray(t, dtype=float)
    out = np.where(t <= _PLATEAU, 1.0, 0.0)
    mid = (t > _PLATEAU) & (t < _CUTOFF)
    u = (t[mid] - _PLATEAU) / (_CUTOFF - _PLATEAU)  # 0 < u < 1
    num = np.exp(-1.0 / (1.0 - u))
    out[mid] = num / (num + np.exp(-1.0 / u))
    return out


def mother_phi_hat(xi) -> np.ndarray:
    """Low-pass mother window: 1 on [-1.5, 1.5], supported in [-1.9, 1.9].

    The wide plateau gives the annulus window a genuine plateau
    [0.95, 1.5] instead of a single point, so low integer frequencies can sit
    on it; the support still fits inside [-2, 2].
    """
    return _smooth_step(np.abs(np.asarray(xi, dtype=float)))


def mother_psi_hat(xi) -> np.ndarray:
    """Annulus mother window phi(xi) - phi(2 xi): supported in
    0.75 < |xi| < 1.9 and equal to 1 on 0.95 <= |xi| <= 1.5."""
    xi = np.asarray(xi, dtype=float)
    return mother_phi_hat(xi) - mother_phi_hat(2.0 * xi)


def psi_hat_band(xi, k: int) -> np.ndarray:
    return mother_psi_hat(np.asarray(xi, dtype=float) / 2.0 ** k)


def phi_hat_band(xi, k: int) -> np.ndarray:
    """Low-pass band member at scale k (cumulative annuli up to k - 10)."""
    return mother_phi_hat(np.asarray(xi, dtype=float) / 2.0 ** (k - PHI_LAG))


def _sym_freqs(n: int) -> np.ndarray:
    """Symmetric integer representatives in FFT bin order."""
    m = np.arange(n)
    return np.where(m <= n // 2, m, m - n)


def usable_bands(n: int) -> list[int]:
    """Annulus scales whose support meets a nonzero frequency of the grid."""
    top = (n // 2).bit_length() - 1 if n >= 4 else 0
    return list(range(0, top + 1))


@dataclass(frozen=True)
class SymbolSpec:
    """A multiplier symbol: trivial, band-product, or explicitly tabulated.

    product_special carries psi/phi type flags per factor and per axis: two
    flags for the four-variable symbol, three for the six-variable one.  At
    least one flag per axis group must be "psi".  tabulated carries a dense
    array over FFT-ordered frequency bins with a declared sup bound.
    """

    kind: str
    x_types: tuple[str, ...] = ()
    y_types: tuple[str, ...] = ()
    gap: int = 3
    values: object = None
    bound: float = 1.0

    def __post_init__(self):
        if self.kind == "constant_one":
            return
        if self.kind == "product_special":
            for types in (self.x_types, self.y_types):
                if not types or any(t not in ("psi", "phi") for t in types):
                    raise ConfigError("type flags must be psi/phi per factor")
                if "psi" not in types:
                    raise ConfigError("at least one factor per axis must be psi type")
            if self.gap < 1:
                raise ConfigError("gap must be >= 1")
            return
        if self.kind == "tabulated":
            if self.values is None:
                raise ConfigError("tabulated symbol needs values")
            arr = np.asarray(self.values)
            if float(np.max(np.abs(arr))) > self.bound + 1e-12:
                raise ConfigError("tabulated symbol exceeds its declared bound")
            return
        raise ConfigError(f"unknown symbol kind {self.kind!r}")


def _grid_n(f: GridFunction1D) -> int:
    return f.grid.n_points


def _shared_grid_n(f1, f2, g1, g2, h) -> int:
    """The grid size N of the five multiplier inputs, which must all agree."""
    n = _grid_n(f1)
    if not (_grid_n(f2) == _grid_n(g1) == _grid_n(g2)
            == h.grid_x.n_points == h.grid_y.n_points == n):
        raise ConfigError("all five inputs must share one grid size")
    return n


def _fft1(f: GridFunction1D) -> np.ndarray:
    return np.fft.fft(np.asarray(f.samples, dtype=complex)) / _grid_n(f)


def _fft2(h: GridFunction2D) -> np.ndarray:
    n = h.grid_x.n_points * h.grid_y.n_points
    return np.fft.fft2(np.asarray(h.samples, dtype=complex)) / n


def fractional_derivative(f, orders) -> "GridFunction1D | GridFunction2D":
    """|xi|^alpha multiplier per axis on integer torus frequencies.

    orders is a scalar (1D) or a pair (2D); all orders must be nonnegative.
    Real input yields real output up to roundoff; the real part is returned
    for real input.
    """
    if isinstance(f, GridFunction1D):
        alpha = float(orders if np.isscalar(orders) else orders[0])
        if alpha < 0:
            raise ConfigError("order must be nonnegative")
        n = f.grid.n_points
        mult = np.abs(_sym_freqs(n)).astype(float) ** alpha if alpha > 0 else np.ones(n)
        if alpha > 0:
            mult[0] = 0.0
        out = np.fft.ifft(np.fft.fft(np.asarray(f.samples, dtype=complex)) * mult)
        if np.isrealobj(f.samples):
            out = out.real
        return GridFunction1D(f.grid, out)
    a1, a2 = (float(orders[0]), float(orders[1]))
    if a1 < 0 or a2 < 0:
        raise ConfigError("orders must be nonnegative")
    nx, ny = f.grid_x.n_points, f.grid_y.n_points
    mx = np.abs(_sym_freqs(nx)).astype(float) ** a1 if a1 > 0 else np.ones(nx)
    my = np.abs(_sym_freqs(ny)).astype(float) ** a2 if a2 > 0 else np.ones(ny)
    if a1 > 0:
        mx[0] = 0.0
    if a2 > 0:
        my[0] = 0.0
    spec = np.fft.fft2(np.asarray(f.samples, dtype=complex)) * np.outer(mx, my)
    out = np.fft.ifft2(spec)
    if np.isrealobj(f.samples):
        out = out.real
    return GridFunction2D(f.grid_x, f.grid_y, out)


def lp_project(f: GridFunction1D, band: int, kind: str = "psi") -> GridFunction1D:
    """Frequency-window projection onto an annulus (psi) or ball (phi) band."""
    n = f.grid.n_points
    if 2.0 ** (band - 1) >= n // 2 + 0.5:
        raise ConfigError(f"band {band} beyond the Nyquist range of N={n}")
    xs = _sym_freqs(n).astype(float)
    if kind == "psi":
        w = psi_hat_band(xs, band)
    elif kind == "phi":
        w = phi_hat_band(xs, band)
        w[0] = 1.0  # value at frequency zero by continuity
    else:
        raise ConfigError("kind must be psi or phi")
    out = np.fft.ifft(np.fft.fft(np.asarray(f.samples, dtype=complex)) * w)
    if np.isrealobj(f.samples):
        out = out.real
    return GridFunction1D(f.grid, out)


def _band_window(t: str, k: int, xs: np.ndarray) -> np.ndarray:
    return psi_hat_band(xs, k) if t == "psi" else phi_hat_band(xs, k)


def _completion_windows(k2: int, xs: np.ndarray):
    """Fixed completion windows for a scale pair (k1 << k2): comp1 is the
    k2-scale low-pass with plateau 2^{k2-1}, psi3 a widened annulus equal to
    1 on [2^{k2-2}, 2^{k2+2}].

    The completion has no k1 window.  The banded k1 factors sit in
    |xi| < 1.9 2^k1, so their frequency sum sits in |xi| < 3.8 2^k1, which
    stays below N/2 (k1 <= log2(N) - 3) and so never wraps.  A low-pass
    mother_phi_hat(xi / 2^{k1+2}) would equal 1 up to 6 2^k1 and change
    nothing.
    """
    return mother_phi_hat(xs / 2.0 ** (k2 - 1)), _widened_annulus(k2, xs)


def _widened_annulus(k2: int, xs: np.ndarray) -> np.ndarray:
    """The final window psi3 of a scale pair: it depends on the top scale only."""
    u = np.abs(xs) / 2.0 ** k2
    return mother_phi_hat(u / 4.0) * (1.0 - mother_phi_hat(4.0 * u))


def _axis_pairs(spec_a: SymbolSpec, spec_b: SymbolSpec, n: int) -> list[tuple[int, int]]:
    gap = spec_a.gap
    if spec_b.gap != gap:
        raise ConfigError("the two symbols must share the scale gap")
    ks = usable_bands(n)
    pairs = [(k1, k2) for k2 in ks for k1 in ks if k1 < k2 - gap]
    if not pairs:
        raise ConfigError(
            f"no admissible scale pairs at N={n} with gap={gap}: "
            "insufficient band separation")
    return pairs


def _check_special(spec_a: SymbolSpec, spec_b: SymbolSpec):
    if len(spec_a.x_types) != 2 or len(spec_a.y_types) != 2:
        raise ConfigError("four-variable symbol needs two flags per axis")
    if len(spec_b.x_types) != 3 or len(spec_b.y_types) != 3:
        raise ConfigError("six-variable symbol needs three flags per axis")
    for types in (spec_b.x_types, spec_b.y_types):
        if types[:2] != ("phi", "phi") or types[2] != "psi":
            raise ConfigError(
                "the cross-scale regime needs the six-variable factors "
                "(phi, phi, psi) per axis")


def _axis_sheared_sum(a_types, pairs, u1h: np.ndarray, u2h: np.ndarray
                      ) -> np.ndarray:
    """S[p, c]: the completed symbol summed against the two input spectra
    along their frequency-sum diagonal a + b = m (mod N), sheared to
    p = m + c (mod N).

    The symbol s[a, b, c] = sum over (k1, k2) of w1[a] w2[b] comp1[a+b]
    d[c] psi3[a+b+c] meets the inputs only through m = a + b, so a pair
    contributes comp1[m] conv[m] d[c] psi3[m+c], with conv the explicit
    cyclic convolution of the k1-banded spectra; conv vanishes outside
    |m| < 3.8 2^k1 (see _completion_windows).  conv depends on k1 alone and
    every other factor on k2 alone, so each conv is built once and summed
    over the admissible k1 of each k2, and each k2 window once:
    S[p, c] = sum over k2 of psi3[p] d[c] (comp1 sum_k1 conv)[p - c].
    Only nonzero factors are visited: a convolution runs over the support
    of its first banded spectrum, and each k2 fills the entries with p - c
    in the support of its low-scale sum and c in the support of d.
    """
    n = u1h.size
    xs = _sym_freqs(n).astype(float)
    m = np.arange(n)
    conv = {}
    for k1 in sorted({k1 for k1, _ in pairs}):
        v1 = _band_window(a_types[0], k1, xs) * u1h
        v2 = _band_window(a_types[1], k1, xs) * u2h
        supp = np.flatnonzero(v1)
        conv[k1] = v1[supp] @ v2[(m - supp[:, None]) % n]  # [a, m] -> m - a
    s = np.zeros((n, n), dtype=complex)
    for k2 in sorted({k2 for _, k2 in pairs}):
        comp1, psi3 = _completion_windows(k2, xs)
        d = psi_hat_band(xs, k2)
        low = comp1 * sum(conv[k1] for k1, top in pairs if top == k2)
        r, c = np.flatnonzero(low)[:, None], np.flatnonzero(d)
        p = (r + c) % n  # distinct (p, c) for distinct (r, c)
        s[p, c] += psi3[p] * d[c] * low[r]
    return s


def _apply_direct(a: SymbolSpec, pairs, f1, f2, g1, g2, h) -> GridFunction2D:
    """Direct frequency-sum evaluation in two matmuls and one inverse FFT.

    With e[x, a] e[x, b] = e[x, a + b] and E[x, m] = e^{2 pi i x m / N},
    each axis of the sum is (E T) o E = E S, with T[m, c] the symbol summed
    along the diagonal a + b = m and S its shear S[p, c] = T[p - c, c]
    (`_axis_sheared_sum`).  The output E Sx h^ Sy^T E^T, with
    h^ = fft2(h) / N^2, is N^2 ifft2(Sx h^ Sy^T) = ifft2(Sx fft2(h) Sy^T).
    """
    sx = _axis_sheared_sum(a.x_types[:2], pairs, _fft1(f1), _fft1(f2))
    sy = _axis_sheared_sum(a.y_types[:2], pairs, _fft1(g1), _fft1(g2))
    out = np.fft.ifft2(sx @ np.fft.fft2(h.samples) @ sy.T)
    return GridFunction2D(h.grid_x, h.grid_y, out.real)


def apply_multiplier(a: SymbolSpec, b: SymbolSpec, f1: GridFunction1D,
                     f2: GridFunction1D, g1: GridFunction1D,
                     g2: GridFunction1D, h: GridFunction2D) -> GridFunction2D:
    """The five-linear multiplier operator for the symbol pair (a, b).

    constant_one pairs collapse to the pointwise product.  product_special
    pairs realize the cross-scale (completed) part of the symbol product; at
    every N up to the cap of 512 the six-fold frequency sum is evaluated
    directly: the phases of the two inputs of an axis multiply to the phase
    of their frequency sum, so each axis needs only the explicit cyclic
    convolution of its banded spectra, once per low scale, and the windows
    of each top scale, once; shearing the sum turns its phases into one
    inverse 2D FFT after two matmuls, and no N^3 symbol is built.  The
    explicit O(N^2) circulant convolution, against the cascade's FFT
    convolution, and the sheared two-matmul assembly, against its one 2D FFT
    pass per (k2, j2), keep special_symbol_cascade an independent check.
    tabulated pairs run the literal six-fold sum and are capped at N = 16.
    """
    n = _shared_grid_n(f1, f2, g1, g2, h)
    if a.kind != b.kind:
        raise ConfigError("mixed symbol kinds are not supported")
    if a.kind == "constant_one":
        prod = (f1.samples * f2.samples)[:, None] * (g1.samples * g2.samples)[None, :]
        return GridFunction2D(h.grid_x, h.grid_y, prod * h.samples)
    if a.kind == "product_special":
        _check_special(a, b)
        if n > 512:
            raise ConfigError("product_special capped at N = 512")
        return _apply_direct(a, _axis_pairs(a, b, n), f1, f2, g1, g2, h)
    # tabulated
    if n > 16:
        raise ConfigError("tabulated symbols capped at N = 16")
    av = np.asarray(a.values, dtype=complex)
    bv = np.asarray(b.values, dtype=complex)
    if av.shape != (n,) * 4 or bv.shape != (n,) * 6:
        raise ConfigError("tabulated shapes must be N^4 and N^6")
    f1h, f2h = _fft1(f1), _fft1(f2)
    g1h, g2h = _fft1(g1), _fft1(g2)
    hh = _fft2(h)
    c = np.zeros((n, n), dtype=complex)
    for i1 in range(n):
        for j1 in range(n):
            w1 = f1h[i1] * g1h[j1]
            if w1 == 0:
                continue
            for i2 in range(n):
                for j2 in range(n):
                    w = w1 * av[i1, j1, i2, j2] * f2h[i2] * g2h[j2]
                    if w == 0:
                        continue
                    block = bv[i1, j1, i2, j2] * hh
                    c += np.roll(np.roll(w * block, (i1 + i2) % n, axis=0),
                                 (j1 + j2) % n, axis=1)
    out = n * n * np.fft.ifft2(c)
    return GridFunction2D(h.grid_x, h.grid_y, out.real)


def special_symbol_cascade(a: SymbolSpec, b: SymbolSpec, f1, f2, g1, g2, h
                           ) -> GridFunction2D:
    """FFT-convolution evaluation of the cross-scale band-product symbol.

    Per axis and admissible scale pair (k1, k2), the two inputs are banded at
    k1 and multiplied, and the product is smoothed through the completion
    low-pass window comp1.  These blocks are summed over k1, leaving one
    block per top scale k2.  For each pair of top scales (k2 on x, j2 on y),
    the tensor product of the two blocks meets the annulus piece of h at
    (k2, j2) and goes through the widened-annulus window of (k2, j2); the
    results are summed in frequency and transformed back once.

    Summing over k1 first is exact, not an approximation: the h annulus and
    the widened annulus psi3 of a pair depend on its top scale alone, and
    the output is linear in each axis block.  It gives the same sum as one
    pass per ((k1, k2), (j1, j2)) in 2 + 2 |K2|^2 two-dimensional FFTs, K2
    the top scales, against three per pass.
    """
    _check_special(a, b)
    n = _shared_grid_n(f1, f2, g1, g2, h)
    pairs = _axis_pairs(a, b, n)
    xs = _sym_freqs(n).astype(float)

    def axis_blocks(types, u1: GridFunction1D, u2: GridFunction1D):
        u1h = np.fft.fft(np.asarray(u1.samples, dtype=complex))
        u2h = np.fft.fft(np.asarray(u2.samples, dtype=complex))
        blocks = {}
        for (k1, k2) in pairs:
            comp1, _ = _completion_windows(k2, xs)
            p1 = np.fft.ifft(u1h * _band_window(types[0], k1, xs))
            p2 = np.fft.ifft(u2h * _band_window(types[1], k1, xs))
            block = np.fft.ifft(np.fft.fft(p1 * p2) * comp1)
            blocks[k2] = blocks[k2] + block if k2 in blocks else block
        return blocks

    xblocks = axis_blocks((a.x_types[0], a.x_types[1]), f1, f2)
    yblocks = axis_blocks((a.y_types[0], a.y_types[1]), g1, g2)

    hspec = np.fft.fft2(np.asarray(h.samples, dtype=complex))
    acc = np.zeros((n, n), dtype=complex)
    for k2, xblock in xblocks.items():
        dx = psi_hat_band(xs, k2)
        px = _widened_annulus(k2, xs)
        for j2, yblock in yblocks.items():
            dy = psi_hat_band(xs, j2)
            py = _widened_annulus(j2, xs)
            hband = np.fft.ifft2(hspec * np.outer(dx, dy))
            core = xblock[:, None] * yblock[None, :] * hband
            acc += np.fft.fft2(core) * np.outer(px, py)
    return GridFunction2D(h.grid_x, h.grid_y, np.fft.ifft2(acc).real)


@dataclass(frozen=True)
class ExponentTuple:
    """(p1, q1, p2, q2, s) with the target r fixed by the scaling identity."""

    p1: float
    q1: float
    p2: float
    q2: float
    s: float

    def __post_init__(self):
        for name in ("p1", "q1", "p2", "q2", "s"):
            v = getattr(self, name)
            if not (1.0 < v):
                raise ConfigError(f"{name} must exceed 1")
        if math.isinf(self.p1) and math.isinf(self.q1):
            raise ConfigError("(p1, q1) = (inf, inf) is excluded")
        if math.isinf(self.p2) and math.isinf(self.q2):
            raise ConfigError("(p2, q2) = (inf, inf) is excluded")
        if abs((1 / self.p1 + 1 / self.q1) - (1 / self.p2 + 1 / self.q2)) > 1e-12:
            raise ConfigError("the two axis reciprocal sums must match")

    @property
    def r(self) -> float:
        return 1.0 / (1 / self.p1 + 1 / self.q1 + 1 / self.s)

    @property
    def r_conjugate_reciprocal(self) -> float:
        """1/r' = 1 - 1/r (negative in the quasi-Banach range r < 1)."""
        return 1.0 - 1.0 / self.r


@dataclass
class LeibnizReport:
    alphas: tuple[float, float]
    betas: tuple[float, float]
    lhs: float
    terms: tuple[float, ...]
    n: int
    seed: int | None = None

    @property
    def rhs(self) -> float:
        return float(sum(self.terms))

    @property
    def ratio(self) -> float:
        if self.lhs == 0.0:
            return 0.0
        return self.lhs / self.rhs if self.rhs > 0 else float("inf")

    def csv_row(self) -> str:
        a1, a2 = self.alphas
        b1, b2 = self.betas
        seed = "" if self.seed is None else self.seed
        return (f"{a1},{a2},{b1},{b2},{self.n},{seed},"
                f"{self.lhs!r},{self.rhs!r},{self.ratio!r}")


def leibniz_check(alphas: tuple[float, float], betas: tuple[float, float],
                  exponents: Sequence[ExponentTuple] | ExponentTuple,
                  f1: GridFunction1D, f2: GridFunction1D, g1: GridFunction1D,
                  g2: GridFunction1D, h: GridFunction2D,
                  seed: int | None = None) -> LeibnizReport:
    """Left side of the product rule against its sixteen majorizing terms.

    lhs = || D1^b1 D2^b2 ( D1^a1 D2^a2 (f1 f2 g1 g2) * h ) ||_r.  Each right
    term routes a1 to f1 or f2, a2 to g1 or g2, and b1 (resp. b2) either onto
    the same factor or onto h, with its own exponent tuple; all tuples must
    share the common r.
    """
    a1, a2 = alphas
    b1, b2 = betas
    if min(a1, a2, b1, b2) < 0:
        raise ConfigError("orders must be nonnegative")
    tuples = list(exponents) if isinstance(exponents, (list, tuple)) else [exponents] * 16
    if len(tuples) != 16:
        raise ConfigError("need one exponent tuple or sixteen")
    r = tuples[0].r
    for t in tuples:
        if abs(t.r - r) > 1e-12:
            raise ConfigError("all sixteen tuples must share the target r")

    prod_x = GridFunction1D(f1.grid, f1.samples * f2.samples)
    prod_y = GridFunction1D(g1.grid, g1.samples * g2.samples)
    big = GridFunction2D(h.grid_x, h.grid_y,
                         np.outer(prod_x.samples, prod_y.samples))
    inner = fractional_derivative(big, (a1, a2))
    mid = GridFunction2D(h.grid_x, h.grid_y, inner.samples * h.samples)
    lhs = fractional_derivative(mid, (b1, b2)).norm(r)

    # each distinct derivative and norm once: the sixteen terms share four
    # derivatives of the f's, four of the g's and four of h
    fx, gx = (f1, f2), (g1, g2)
    dfx = {(i, o): fractional_derivative(fx[i], o) for i in (0, 1) for o in {a1, a1 + b1}}
    dgy = {(i, o): fractional_derivative(gx[i], o) for i in (0, 1) for o in {a2, a2 + b2}}
    dh = {o: fractional_derivative(h, o)
          for o in {(hb1, hb2) for hb1 in (0.0, b1) for hb2 in (0.0, b2)}}
    norms = {}

    def norm(u, p):  # every u stays alive, so its id is a key
        if (id(u), p) not in norms:
            norms[id(u), p] = u.norm(p)
        return norms[id(u), p]

    terms = []
    for xa in (0, 1):           # a1 onto f1 or f2
        for xb in ("f", "h"):   # b1 onto the same f or onto h
            for ya in (0, 1):
                for yb in ("g", "h"):
                    t = tuples[len(terms)]
                    xo = a1 + (b1 if xb == "f" else 0.0)
                    yo = a2 + (b2 if yb == "g" else 0.0)
                    ho = (b1 if xb == "h" else 0.0, b2 if yb == "h" else 0.0)
                    terms.append(norm(dfx[xa, xo], t.p1) * norm(fx[1 - xa], t.q1)
                                 * norm(dgy[ya, yo], t.p2) * norm(gx[1 - ya], t.q2)
                                 * norm(dh[ho], t.s))
    return LeibnizReport((a1, a2), (b1, b2), lhs, tuple(terms),
                         _grid_n(f1), seed)
