"""Experiment orchestration: input generation, sweeps, invariant suites, reports.

Every run is driven by an ExperimentConfig and produces a RunReport whose
records are reproducible bit-for-bit from the master seed (per-trial seeds are
spawned from it).  The header names the generator algorithm, the dyadlab and
numpy versions and a hash of the config.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import io
import math
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
import numpy as np

from . import __version__
from .dyadic import (DyadicInterval, DyadicRectangle, Grid1D, GridFunction1D,
                     GridFunction2D, RectangleTable, disjoint,
                     enumerate_dyadic)
from .errors import ConfigError
from .models import (ModelOperatorSpec, MODEL_NAMES, model_operator,
                     multilinear_form, oracle_model_operator)
from .multiplier import ExponentTuple, leibniz_check
from .operators import maximal_function
from .stopping import (build_exceptional_set, level_decomposition_1d,
                       sparsity_check_1d, sparsity_check_2d)
from .wavelets import (CoefficientSequence, HAAR_LACUNARY, HAAR_NONLACUNARY,
                       SMOOTH_LACUNARY, SMOOTH_NONLACUNARY, all_coefficients_2d,
                       synthesize)

__all__ = [
    "ExperimentConfig",
    "RunReport",
    "generate_test_functions",
    "model_spec_from_config",
    "weak_type_trial",
    "run",
    "estimate_weak_type_constant",
]

RNG_ALGORITHM = "PCG64"

EXPERIMENT_KINDS = ("invariants", "weak_type_sweep", "leibniz_sweep",
                    "sparsity_suite", "oracle_equivalence")


@dataclass
class ExperimentConfig:
    kind: str = "invariants"
    box_exp: int = 0
    res_exp: int = 6
    n_freq: int = 16
    c1: float = 2.0 ** 10
    c2: float = 2.0 ** 10
    c3: float = 2.0 ** 10
    p1: float = 4.0 / 3.0
    q1: float = 4.0
    p2: float = 4.0
    q2: float = 4.0 / 3.0
    s: float = 1.5
    trials: int = 20
    seed: int = 0
    out: str | None = None
    depth: int = 3
    inner_depth: int = 7
    model: str = "flag0_flag0"
    sharp1: int = 0
    sharp2: int = 0
    sweep_res_exps: tuple[int, ...] = ()
    sweep_depths: tuple[int, ...] = ()

    def exponents(self) -> ExponentTuple:
        return ExponentTuple(self.p1, self.q1, self.p2, self.q2, self.s)

    def validate(self) -> None:
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"kind: unknown experiment {self.kind!r}")
        if self.trials < 1:
            raise ConfigError("trials: must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed: must be >= 0")
        if not (0 <= self.box_exp <= 6):
            raise ConfigError("box_exp: desk scale keeps the box exponent in [0, 6]")
        if not (1 <= self.res_exp <= 12):
            raise ConfigError("res_exp: desk scale keeps the resolution exponent in [1, 12]")
        if self.n_freq < 4 or self.n_freq & (self.n_freq - 1):
            raise ConfigError("n_freq: must be a power of two >= 4")
        if self.model not in MODEL_NAMES:
            raise ConfigError(f"model: unknown model {self.model!r}")
        if not all(math.isfinite(c) and c >= 1 for c in (self.c1, self.c2, self.c3)):
            raise ConfigError("constants: need finite c1, c2, c3 >= 1")
        if self.depth < 1 or self.depth >= self.res_exp:
            raise ConfigError("depth: need 1 <= depth < res_exp")
        if self.inner_depth < 1:
            raise ConfigError("inner_depth: must be >= 1")
        if self.sharp1 < 0 or self.sharp2 < 0:
            raise ConfigError("sharp1, sharp2: scale offsets must be >= 0")
        fixed = {"flag_sharp_paraproduct": (self.sharp1,),
                 "flag0_flag_sharp": (self.sharp2,),
                 "flag_sharp_flag_sharp": (self.sharp1, self.sharp2)}
        if self.kind == "weak_type_sweep" and 0 in fixed.get(self.model, ()):
            raise ConfigError(f"sharp1, sharp2: Haar makes {self.model} "
                              "identically zero at a fixed-scale offset 0")
        self.exponents()  # raises ConfigError on a bad tuple
        if self.kind == "weak_type_sweep" and self.box_exp == 0:
            raise ConfigError("box_exp: a weak-type sweep needs box_exp >= 1; at 0 "
                              "the set E is the whole box")

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise ConfigError(f"config file {path} not found")
        cfg = cls()
        sections = {
            "run": (("kind", str), ("trials", int), ("seed", int), ("out", str)),
            "grid": (("box_exp", int), ("res_exp", int), ("n_freq", int)),
            "constants": (("c1", float), ("c2", float), ("c3", float)),
            "exponents": (("p1", float), ("q1", float), ("p2", float),
                          ("q2", float), ("s", float)),
            "model": (("model", str), ("depth", int), ("inner_depth", int),
                      ("sharp1", int), ("sharp2", int)),
        }
        for section, fields_ in sections.items():
            if not parser.has_section(section):
                continue
            known = {name for name, _ in fields_}
            for key in parser[section]:
                if key == "name" and section == "model":
                    cfg.model = parser[section][key]
                    continue
                if key not in known:
                    raise ConfigError(f"[{section}] {key}: unknown field")
                name, conv = next(f for f in fields_ if f[0] == key)
                try:
                    setattr(cfg, name, conv(parser[section][key]))
                except ValueError as exc:
                    raise ConfigError(f"[{section}] {key}: {exc}") from exc
        return cfg


@dataclass
class RunReport:
    """A run's header, per-check records and deterministic aggregates; the
    wall-clock timings are kept apart so that equal runs compare equal."""

    header: dict
    records: list[dict] = field(default_factory=list)
    aggregates: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return any(not r.get("passed", True) for r in self.records)

    def to_csv(self) -> str:
        if not self.records:
            return ""
        out = io.StringIO()
        keys = sorted({k for r in self.records for k in r})
        writer = csv.DictWriter(out, fieldnames=keys)
        writer.writeheader()
        for r in self.records:
            writer.writerow(r)
        return out.getvalue()

    def header_lines(self) -> list[str]:
        return [f"{k}: {v}" for k, v in self.header.items()]

    def to_text(self) -> str:
        lines = self.header_lines()
        lines.append("")
        for r in self.records:
            lines.append(" ".join(f"{k}={v}" for k, v in sorted(r.items())))
        for section in (self.aggregates, self.timings):
            if section:
                lines.append("")
                lines.extend(f"{k}: {v}" for k, v in sorted(section.items()))
        return "\n".join(lines)

    def write(self, path: str | Path) -> None:
        path = Path(path)
        if path.suffix == ".csv":  # the header leads, as "# key: value" lines
            path.write_text("".join(f"# {line}\n" for line in self.header_lines())
                            + self.to_csv())
        else:
            path.write_text(self.to_text() + "\n")


def _rng(seed) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _random_interval_union(rng: np.random.Generator, grid: Grid1D,
                           max_pieces: int = 4) -> list[DyadicInterval]:
    """A random disjoint union of dyadic intervals inside the box."""
    pieces: list[DyadicInterval] = []
    n_pieces = int(rng.integers(1, max_pieces + 1))
    # scale floor independent of the grid so draws refine consistently
    k_min = max(1 - grid.res_exp, 1 - _BASE_RES)
    for _ in range(8 * n_pieces):
        if len(pieces) >= n_pieces:
            break
        k = int(rng.integers(k_min, grid.box_exp))
        n = int(rng.integers(0, 2 ** (grid.box_exp - k)))
        cand = DyadicInterval(k, n)
        if all(disjoint(cand, p) for p in pieces):
            pieces.append(cand)
    return pieces


_BASE_RES = 6  # random draws live at this resolution; finer grids refine them


def generate_test_functions(kind: str, seed, grid: Grid1D) -> dict:
    """Random 1D inputs of the requested flavor; deterministic per seed.

    indicator_bounded: f with |f| <= chi_F for a random dyadic-cell union F.
    schwartz_like: sums of modulated Gaussians well inside the box.
    haar_sparse: synthesized from a random sparse wavelet coefficient sequence.

    Draws are made at a fixed base resolution and refined to the grid, so the
    same seed yields samples of one function at every resolution >= base.
    """
    rng = _rng(seed)
    if kind == "indicator_bounded":
        pieces = _random_interval_union(rng, grid)
        support = GridFunction1D.indicator(grid, pieces)
        base = min(grid.res_exp, _BASE_RES)
        amp_base = rng.uniform(-1.0, 1.0, 2 ** (grid.box_exp + base))
        amp = np.repeat(amp_base, 2 ** (grid.res_exp - base))
        f = GridFunction1D(grid, amp * support.samples)
        return {"f": f, "support": support,
                "support_measure": support.integral(), "pieces": pieces}
    if kind == "schwartz_like":
        pts = grid.points()
        length = float(grid.length)
        vals = np.zeros(grid.n_points)
        for _ in range(int(rng.integers(1, 4))):
            center = float(rng.uniform(0.3, 0.7)) * length
            width = float(rng.uniform(0.02, 0.04)) * length
            freq = int(rng.integers(0, 5))
            vals += (float(rng.uniform(-1, 1))
                     * np.exp(-((pts - center) / width) ** 2 / 2.0)
                     * np.cos(2 * np.pi * freq * (pts - center) / length))
        return {"f": GridFunction1D(grid, vals)}
    if kind == "haar_sparse":
        intervals = enumerate_dyadic(grid, 1 - grid.res_exp, grid.box_exp)
        picks = rng.choice(len(intervals), size=min(8, len(intervals)),
                           replace=False)
        seq = {intervals[int(i)]: float(rng.standard_normal()) for i in picks}
        vals = synthesize(list(seq.values()), seq, HAAR_LACUNARY, grid)
        return {"f": GridFunction1D(grid, vals),
                "sequence": CoefficientSequence(seq)}
    raise ConfigError(f"unknown test-function kind {kind!r}")


def _random_e_set(rng: np.random.Generator, gx: Grid1D, gy: Grid1D
                  ) -> GridFunction2D:
    """A random union of disjoint dyadic squares of total measure exactly 1.

    Mixed sides 1/2 down to 1/64 so the indicator carries wavelet detail at
    every scale the rectangle collections reach.  Placement is greedy on the
    1/64-aligned occupancy bitmap of the box; grids need res_exp >= 6.
    """
    counts = ((32, 1), (16, 8), (8, 8), (4, 16), (2, 32), (1, 128))
    fine = 64 * 2 ** gx.box_exp  # bitmap cells per axis at side 1/64
    occupied = np.zeros((fine, fine), dtype=bool)
    mask = np.zeros((gx.n_points, gy.n_points))
    step = gx.n_points // fine
    placed_total = 0
    for side_cells, how_many in counts:
        anchors = [(i, j) for i in range(0, fine, side_cells)
                   for j in range(0, fine, side_cells)]
        order = rng.permutation(len(anchors))
        placed = 0
        for idx in order:
            if placed >= how_many:
                break
            i, j = anchors[int(idx)]
            if occupied[i:i + side_cells, j:j + side_cells].any():
                continue
            occupied[i:i + side_cells, j:j + side_cells] = True
            mask[i * step:(i + side_cells) * step,
                 j * step:(j + side_cells) * step] = 1.0
            placed += 1
        placed_total += placed * side_cells ** 2
    out = GridFunction2D(gx, gy, mask)
    assert placed_total == 64 * 64 and out.integral() == 1.0
    return out


def _random_h(rng: np.random.Generator, gx: Grid1D, gy: Grid1D,
              bandwidth: int = 12) -> GridFunction2D:
    """Random band-limited h: fixed-bandwidth spectrum draw, any resolution.

    Only the rows m1 mod nx, |m1| <= bw, of the spectrum are nonzero, so they
    are accumulated as a band of 2 bw + 1 rows and only the band is
    transformed along y; the x transform then runs in place on the full
    array.  This is ifft2 of the full spectrum, bit for bit.
    """
    nx, ny = gx.n_points, gy.n_points
    bw = min(bandwidth, nx // 2 - 1, ny // 2 - 1)
    coeffs = ((rng.standard_normal((2 * bw + 1, 2 * bw + 1))
               + 1j * rng.standard_normal((2 * bw + 1, 2 * bw + 1)))
              / (1.0 + np.abs(np.arange(-bw, bw + 1))[:, None]
                 + np.abs(np.arange(-bw, bw + 1))[None, :]))
    band = np.zeros((2 * bw + 1, ny), dtype=complex)  # row m1 + bw holds m1 mod nx
    for i, m1 in enumerate(range(-bw, bw + 1)):
        for j, m2 in enumerate(range(-bw, bw + 1)):
            band[m1 + bw, m2 % ny] += coeffs[i, j]
            band[bw - m1, (-m2) % ny] += np.conj(coeffs[i, j])
    spec = np.zeros((nx, ny), dtype=complex)
    spec[np.arange(-bw, bw + 1) % nx] = np.fft.ifft(band, axis=1)
    np.fft.ifft(spec, axis=0, out=spec)
    vals = spec.real * nx * ny / (2 * bw + 1.0) ** 2
    return GridFunction2D(gx, gy, vals)


_MODE_FOR_MODEL = {
    "flag0_paraproduct": "flag0",
    "flag_sharp_paraproduct": "fixed_scale",
    "flag0_flag0": "flag0",
    "flag0_flag_sharp": "flag0",
    "flag_sharp_flag_sharp": "fixed_scale",
}


def model_spec_from_config(config: ExperimentConfig, grid_x: Grid1D,
                           grid_y: Grid1D) -> ModelOperatorSpec:
    """The Haar model spec a weak-type run uses, rebuilt from its config."""
    rectangles = RectangleTable.full(grid_x, grid_y, -config.depth)
    inner = enumerate_dyadic(grid_x,
                             -min(config.inner_depth, grid_x.res_exp - 1),
                             grid_x.box_exp)
    return ModelOperatorSpec.haar(config.model, rectangles, inner, inner,
                                  config.sharp1, config.sharp2)


def weak_type_trial(config: ExperimentConfig, trial_seed, res_exp: int,
                    depth: int) -> dict:
    """One restricted weak-type trial; returns the measured record.

    E is placed on a 1/64-aligned bitmap, so the grids need res_exp >= 6.
    The record includes the grid-cell counts of Omega1, Omega2 and Enl(Omega).
    """
    if res_exp < 6:
        raise ConfigError("res_exp: the weak-type set E needs res_exp >= 6, "
                          f"got {res_exp}")
    rng = _rng(trial_seed)
    gx = Grid1D(config.box_exp, res_exp)
    gy = Grid1D(config.box_exp, res_exp)
    seq = (trial_seed if isinstance(trial_seed, np.random.SeedSequence)
           else np.random.SeedSequence(trial_seed))
    # the children a fresh seq.spawn(4) gives, without changing the caller's seq
    children = [np.random.SeedSequence(seq.entropy, spawn_key=seq.spawn_key + (j,),
                                       pool_size=seq.pool_size) for j in range(4)]
    parts = [generate_test_functions("indicator_bounded", s, gx) for s in children]
    f1, f2, g1, g2 = (p["f"] for p in parts)
    weights = tuple(p["support_measure"] for p in parts)
    h = _random_h(rng, gx, gy)
    e_set = _random_e_set(rng, gx, gy)

    sub = ExperimentConfig(**{**asdict(config), "res_exp": res_exp,
                              "depth": depth, "sweep_res_exps": (),
                              "sweep_depths": ()})
    spec = model_spec_from_config(sub, gx, gy)
    rectangles = spec.rectangles
    inner = spec.inner_x
    # SS_H of Omega2 and the form's h side read the same coefficients: both
    # pair h with Haar lacunary members on both axes, over the same table.
    hc = all_coefficients_2d(h, rectangles, HAAR_LACUNARY, HAAR_LACUNARY)
    exc = build_exceptional_set(
        f1, f2, g1, g2, h, e_set, (config.c1, config.c2, config.c3),
        _MODE_FOR_MODEL[config.model], rectangles=rectangles,
        weights=weights, s=config.s, inner_x=inner, inner_y=inner,
        h_coefficients=hc)
    lam = multilinear_form(spec, f1, f2, g1, g2, h, exc.e_prime, h_coefficients=hc)
    exps = config.exponents()
    e_meas = exc.e_measure
    denom = (weights[0] ** (1 / exps.p1) * weights[2] ** (1 / exps.p2)
             * weights[1] ** (1 / exps.q1) * weights[3] ** (1 / exps.q2)
             * exc.h_norm * e_meas ** exps.r_conjugate_reciprocal)
    # an empty support makes the form vanish; the ratio is 0 by convention
    ratio = abs(lam) / denom if denom > 0 else 0.0
    return {
        "ratio": ratio,
        "lam": lam,
        "e_measure": e_meas,
        "e_prime_measure": exc.e_prime_measure,
        "e_prime_ok": exc.e_prime_measure >= e_meas / 2.0,
        "res_exp": res_exp,
        "depth": depth,
        "n_rectangles": len(rectangles),
        "omega1_cells": int(np.count_nonzero(exc.omega1.samples)),
        "omega2_cells": int(np.count_nonzero(exc.omega2.samples)),
        "enlarged_cells": int(np.count_nonzero(exc.enlarged.samples)),
    }


def estimate_weak_type_constant(config: ExperimentConfig
                                ) -> tuple[float, list[dict], float]:
    """Max weak-type ratio over the configured trials, rows, E' pass rate."""
    master = np.random.SeedSequence(config.seed)
    rows = [weak_type_trial(config, trial_seed, config.res_exp, config.depth)
            for trial_seed in master.spawn(config.trials)]
    best = max((rec["ratio"] for rec in rows), default=0.0)
    rate = sum(rec["e_prime_ok"] for rec in rows) / len(rows) if rows else 1.0
    return best, rows, rate


def _run_weak_type(config: ExperimentConfig, report: RunReport) -> None:
    res_exps = config.sweep_res_exps or (config.res_exp,)
    depths = config.sweep_depths or (config.depth,)
    cells = {}
    pass_rates = []
    for m in res_exps:
        for d in depths:
            sub = ExperimentConfig(**{**asdict(config),
                                      "res_exp": m, "depth": d,
                                      "sweep_res_exps": (), "sweep_depths": ()})
            best, rows, rate = estimate_weak_type_constant(sub)
            cells[(m, d)] = best
            pass_rates.append(rate)
            for r in rows:
                r.update({"res_exp": m, "depth": d})
                report.records.append(r)
    report.aggregates["max_ratio"] = max(cells.values())
    report.aggregates["e_prime_pass_rate"] = min(pass_rates)
    growths = []
    for (m, d), v in cells.items():
        for (m2, d2), v2 in cells.items():
            if (m2 == m + 1 and d2 == d) or (m2 == m and d2 == d + 1):
                if v > 0:
                    growths.append(v2 / v)
    if growths:
        report.aggregates["max_doubling_growth"] = max(growths)
    for key, v in cells.items():
        report.aggregates[f"ratio[m={key[0]},depth={key[1]}]"] = v


def _admissible_triples(flavor: str):
    """Cutoff-family triples with at least two lacunary members."""
    lac = HAAR_LACUNARY if flavor == "haar" else SMOOTH_LACUNARY
    non = HAAR_NONLACUNARY if flavor == "haar" else SMOOTH_NONLACUNARY
    return ((non, lac, lac), (lac, non, lac), (lac, lac, non), (lac, lac, lac))


def _run_oracle_equivalence(config: ExperimentConfig, report: RunReport) -> None:
    master = np.random.SeedSequence(config.seed)
    worst = 0.0
    for i, trial_seed in enumerate(master.spawn(config.trials)):
        rng = _rng(trial_seed)
        res = int(rng.integers(4, 6))
        gx, gy = Grid1D(0, res), Grid1D(0, res)
        # cycle deterministically so every model, flavor and admissible
        # lacunarity assignment is covered
        which = MODEL_NAMES[i % len(MODEL_NAMES)]
        flavor = "haar" if (i // len(MODEL_NAMES)) % 2 == 0 else "smooth"
        xs = enumerate_dyadic(gx, -2, 0)
        ys = enumerate_dyadic(gy, -2, 0)
        pick = lambda lst, m: [lst[int(j)] for j in
                               rng.choice(len(lst), size=min(m, len(lst)),
                                          replace=False)]
        rect = [DyadicRectangle(i, j)
                for i in pick(xs, 3) for j in pick(ys, 2)]
        inner = enumerate_dyadic(gx, -3, 0)
        maker = ModelOperatorSpec.haar if flavor == "haar" else ModelOperatorSpec.smooth
        spec = maker(which, rect, inner, inner,
                     sharp1=int(rng.integers(0, 3)), sharp2=int(rng.integers(0, 3)))
        triples = _admissible_triples(flavor)
        spec = replace(spec, inner_x_families=triples[(i // 10) % 4])
        if spec.paraproduct_y:
            spec = replace(spec, y_para=triples[(i // 10 + 1) % 4])
        fs = [GridFunction1D(gx, rng.standard_normal(gx.n_points))
              for _ in range(4)]
        h = GridFunction2D(gx, gy,
                           rng.standard_normal((gx.n_points, gy.n_points)))
        a = model_operator(spec, fs[0], fs[1], fs[2], fs[3], h)
        b = oracle_model_operator(spec, fs[0], fs[1], fs[2], fs[3], h)
        dev = float(np.max(np.abs(a.samples - b.samples)))
        worst = max(worst, dev)
        report.records.append({"trial": i, "model": which, "flavor": flavor,
                               "deviation": dev, "passed": dev <= 1e-12})
    report.aggregates["max_deviation"] = worst


def _run_sparsity(config: ExperimentConfig, report: RunReport) -> None:
    master = np.random.SeedSequence(config.seed)
    g = Grid1D(config.box_exp, config.res_exp)
    total_violations = 0
    worst_ratio = 0.0
    for i, trial_seed in enumerate(master.spawn(config.trials)):
        rng = _rng(trial_seed)
        data = generate_test_functions("indicator_bounded", trial_seed, g)
        g1 = GridFunction1D(g, np.abs(data["f"].samples))
        weight = data["support_measure"]
        if weight == 0.0:
            report.records.append({"trial": i, "skipped": True})
            continue
        mg1 = maximal_function(g1)
        collection = enumerate_dyadic(g, -config.depth, g.box_exp)
        decomp = level_decomposition_1d(collection, mg1, config.c2, weight)
        violations = sparsity_check_1d(decomp)
        total_violations += len(violations)
        # 2D: cross the same intervals with a random x-side
        xs = enumerate_dyadic(g, -config.depth, g.box_exp)
        n_r = min(len(xs) * len(collection), 400)
        rect = [DyadicRectangle(xs[int(rng.integers(0, len(xs)))],
                                collection[int(rng.integers(0, len(collection)))])
                for _ in range(n_r)]
        rect = sorted(set(rect))
        lhs, rhs = sparsity_check_2d(rect, decomp)
        ratio = float(lhs / rhs) if rhs > 0 else 0.0
        worst_ratio = max(worst_ratio, ratio)
        report.records.append({
            "trial": i, "violations_1d": len(violations),
            "nested_over_union": ratio,
            "passed": not violations and lhs <= 10 * rhs,
        })
    report.aggregates["violations_1d"] = total_violations
    report.aggregates["max_nested_over_union"] = worst_ratio


def _run_leibniz(config: ExperimentConfig, report: RunReport) -> None:
    master = np.random.SeedSequence(config.seed)
    n = config.n_freq
    g = Grid1D(0, n.bit_length() - 1)
    exps = config.exponents()
    worst = 0.0
    for i, trial_seed in enumerate(master.spawn(config.trials)):
        rng = _rng(trial_seed)
        mk = lambda: GridFunction1D(g, _bandlimited(rng, n))
        f1, f2, g1, g2 = mk(), mk(), mk(), mk()
        h = GridFunction2D(g, g, _bandlimited_2d(rng, n))
        rep = leibniz_check((1.0, 1.0), (1.0, 1.0), exps, f1, f2, g1, g2, h)
        worst = max(worst, rep.ratio)
        report.records.append({"trial": i, "lhs": rep.lhs, "rhs": rep.rhs,
                               "ratio": rep.ratio})
    report.aggregates["max_ratio"] = worst


def _bandlimited(rng: np.random.Generator, n: int, bw: int | None = None
                 ) -> np.ndarray:
    bw = bw if bw is not None else max(2, n // 8)
    spec = np.zeros(n, dtype=complex)
    for m in range(1, bw + 1):
        c = rng.standard_normal() + 1j * rng.standard_normal()
        spec[m] = c
        spec[-m] = np.conj(c)
    spec[0] = rng.standard_normal()
    return np.fft.ifft(spec * n).real


def _bandlimited_2d(rng: np.random.Generator, n: int, bw: int | None = None
                    ) -> np.ndarray:
    f = np.outer(_bandlimited(rng, n, bw), _bandlimited(rng, n, bw))
    g = np.outer(_bandlimited(rng, n, bw), _bandlimited(rng, n, bw))
    return f + g


def _run_invariants(config: ExperimentConfig, report: RunReport) -> None:
    from . import invariants as inv
    for record in inv.run_all(config):
        report.records.append(record)


def _config_sha256(config: ExperimentConfig) -> str:
    """The first 16 hex digits of the sha256 of the sorted config fields,
    without the output path, which does not change what is computed."""
    fields_ = sorted((k, v) for k, v in asdict(config).items() if k != "out")
    return hashlib.sha256(repr(fields_).encode()).hexdigest()[:16]


def run(config: ExperimentConfig) -> RunReport:
    """Execute the configured experiment and return its report."""
    config.validate()
    report = RunReport(header={
        "kind": config.kind,
        "seed": config.seed,
        "rng": RNG_ALGORITHM,
        "dyadlab": __version__,
        "numpy": np.__version__,
        "config_sha256": _config_sha256(config),
        "box_exp": config.box_exp,
        "res_exp": config.res_exp,
        "trials": config.trials,
        "model": config.model,
    })
    started = time.time()
    if config.kind == "invariants":
        _run_invariants(config, report)
    elif config.kind == "weak_type_sweep":
        _run_weak_type(config, report)
    elif config.kind == "leibniz_sweep":
        _run_leibniz(config, report)
    elif config.kind == "sparsity_suite":
        _run_sparsity(config, report)
    elif config.kind == "oracle_equivalence":
        _run_oracle_equivalence(config, report)
    report.timings["runtime_seconds"] = round(time.time() - started, 3)
    if config.out:
        report.write(config.out)
    return report
