import csv
import io
import math

import numpy as np
import pytest

from dyadlab import dyadic, harness, stopping, wavelets
from dyadlab.cli import main as cli_main
from dyadlab.dyadic import Grid1D
from dyadlab.errors import ConfigError
from dyadlab.harness import (ExperimentConfig, _random_h,
                             estimate_weak_type_constant,
                             generate_test_functions, model_spec_from_config,
                             run, weak_type_trial)


G = Grid1D(1, 7)


def test_indicator_bounded_contract():
    data = generate_test_functions("indicator_bounded", 0, G)
    f, support = data["f"], data["support"]
    assert np.all(np.abs(f.samples) <= support.samples + 1e-15)
    assert data["support_measure"] == support.integral()


def test_generator_determinism():
    a = generate_test_functions("indicator_bounded", 123, G)
    b = generate_test_functions("indicator_bounded", 123, G)
    assert np.array_equal(a["f"].samples, b["f"].samples)


def test_schwartz_like_boundary_decay():
    data = generate_test_functions("schwartz_like", 5, G)
    f = data["f"].samples
    peak = float(np.max(np.abs(f)))
    edge = max(abs(f[0]), abs(f[-1]))
    assert edge <= 1e-8 * peak


def test_haar_sparse_synthesis():
    data = generate_test_functions("haar_sparse", 1, G)
    from dyadlab.wavelets import HAAR_LACUNARY, coefficient_naive
    seq = data["sequence"]
    for iv, c in seq.items():
        got = coefficient_naive(data["f"], iv, HAAR_LACUNARY)
        assert got == pytest.approx(c, abs=1e-10)


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError):
        generate_test_functions("white_noise", 0, G)


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="nonsense").validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(trials=0).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(n_freq=24).validate()
    bad = ExperimentConfig(p1=2.0, q1=2.0, p2=2.0, q2=4.0)
    with pytest.raises(ConfigError):
        bad.validate()
    ExperimentConfig().validate()


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("""
[run]
kind = oracle_equivalence
trials = 3
seed = 9
[grid]
res_exp = 5
[model]
name = flag0_paraproduct
depth = 2
""")
    cfg = ExperimentConfig.from_file(path)
    assert cfg.kind == "oracle_equivalence" and cfg.trials == 3
    assert cfg.res_exp == 5 and cfg.model == "flag0_paraproduct"
    bad = tmp_path / "bad.cfg"
    bad.write_text("[grid]\nres_exp = three\n")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_file(bad)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_file(tmp_path / "missing.cfg")


def test_report_determinism():
    cfg = ExperimentConfig(kind="oracle_equivalence", trials=4, seed=42)
    a = run(cfg)
    b = run(cfg)
    assert a.records == b.records and a.aggregates == b.aggregates


def test_report_header_versions_and_config_hash(tmp_path):
    import dyadlab
    base = dict(kind="oracle_equivalence", trials=1, seed=5)
    a = run(ExperimentConfig(**base))
    b = run(ExperimentConfig(**base, out=str(tmp_path / "r.txt")))
    c = run(ExperimentConfig(**{**base, "seed": 6}))
    assert a.header["dyadlab"] == dyadlab.__version__
    assert a.header["numpy"] == np.__version__
    digest = a.header["config_sha256"]
    assert len(digest) == 16 and set(digest) <= set("0123456789abcdef")
    assert b.header["config_sha256"] == digest
    assert c.header["config_sha256"] != digest
    text = a.to_text()
    for key in ("dyadlab", "numpy", "config_sha256"):
        assert f"{key}: {a.header[key]}" in text


def test_report_formats(tmp_path):
    cfg = ExperimentConfig(kind="oracle_equivalence", trials=2, seed=1,
                           out=str(tmp_path / "r.csv"))
    rep = run(cfg)
    assert (tmp_path / "r.csv").exists()
    text = rep.to_text()
    assert "kind: oracle_equivalence" in text
    assert "runtime_seconds" in rep.timings and "runtime_seconds" not in rep.aggregates
    assert text.index("max_deviation") < text.index("runtime_seconds")
    csv_text = rep.to_csv()
    assert csv_text.splitlines()[0].startswith("deviation")


def test_csv_report_keeps_the_header(tmp_path):
    path = tmp_path / "r.csv"
    rep = run(ExperimentConfig(kind="oracle_equivalence", trials=2, seed=1,
                               out=str(path)))
    lines = path.read_text().splitlines()
    head = [line for line in lines if line.startswith("#")]
    assert head == [f"# {k}: {v}" for k, v in rep.header.items()]
    assert lines[:len(head)] == head
    for key in ("seed", "rng", "dyadlab", "numpy", "config_sha256"):
        assert f"# {key}: {rep.header[key]}" in head
    body = [line for line in lines if not line.startswith("#")]
    rows = list(csv.DictReader(body))
    assert rows == list(csv.DictReader(io.StringIO(rep.to_csv())))
    assert [int(r["trial"]) for r in rows] == [0, 1]


def test_model_spec_config_roundtrip(tmp_path):
    path = tmp_path / "model.cfg"
    path.write_text("""
[model]
name = flag_sharp_flag_sharp
depth = 2
sharp1 = 2
sharp2 = 1
""")
    cfg = ExperimentConfig.from_file(path)
    g = Grid1D(cfg.box_exp, cfg.res_exp)
    spec = model_spec_from_config(cfg, g, g)
    assert spec.which == "flag_sharp_flag_sharp"
    assert spec.sharp1 == 2 and spec.sharp2 == 1
    assert min(r.x.k for r in spec.rectangles) == -cfg.depth
    assert min(iv.k for iv in spec.inner_x) == -min(cfg.inner_depth,
                                                    cfg.res_exp - 1)


def test_weak_type_estimate_smoke():
    cfg = ExperimentConfig(kind="weak_type_sweep", box_exp=1, res_exp=6,
                           depth=3, trials=2, seed=3)
    best, rows, rate = estimate_weak_type_constant(cfg)
    assert best >= 0.0 and 0.0 <= rate <= 1.0
    assert all("ratio" in r for r in rows if not r.get("skipped"))


def test_weak_type_trial_leaves_seed_sequence_unchanged():
    cfg = ExperimentConfig(kind="weak_type_sweep", box_exp=1, res_exp=8,
                           depth=5, trials=1, seed=0)
    seq = np.random.SeedSequence(10)
    records = [weak_type_trial(cfg, seq, 8, 5) for _ in range(3)]
    assert seq.n_children_spawned == 0
    assert records[0] == records[1] == records[2] == weak_type_trial(cfg, 10, 8, 5)


def test_negative_seed_is_a_config_error(capsys):
    with pytest.raises(ConfigError):
        ExperimentConfig(seed=-1).validate()
    assert cli_main(["invariants", "--seed", "-1"]) == 2
    assert "seed" in capsys.readouterr().err


def test_weak_type_below_res_exp_6_is_a_config_error(capsys):
    """E lives on a 1/64-aligned bitmap: coarser grids cannot hold it."""
    cfg = ExperimentConfig(kind="weak_type_sweep", box_exp=1, res_exp=5,
                           depth=2, trials=1, seed=0)
    with pytest.raises(ConfigError):
        weak_type_trial(cfg, 0, 5, 2)
    assert cli_main(["weaktype", "--grid-exp", "5", "--depth", "2",
                     "--trials", "1", "--box-exp", "1"]) == 2
    assert "res_exp" in capsys.readouterr().err


def test_weak_type_at_box_exp_0_is_a_config_error(capsys):
    """At box_exp = 0 the set E covers the whole box, and every trial used to
    print max_ratio: 0.0."""
    assert cli_main(["weaktype", "--trials", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error: box_exp")
    assert "Traceback" not in captured.err and "max_ratio" not in captured.out


@pytest.mark.parametrize("field", ["c1", "c2", "c3"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_constants_are_config_errors(field, bad):
    with pytest.raises(ConfigError):
        ExperimentConfig(**{field: bad}).validate()


def test_cli_rejects_non_finite_constants_in_a_config_file(tmp_path, capsys):
    """c1 = nan and c2 = inf used to run and print max_ratio: 0.0."""
    cfg = tmp_path / "nonfinite.cfg"
    cfg.write_text("[grid]\nbox_exp = 1\nres_exp = 7\n[model]\ndepth = 4\n"
                   "[constants]\nc1 = nan\nc2 = inf\n")
    assert cli_main(["weaktype", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert "constants" in captured.err and "Traceback" not in captured.err
    assert "max_ratio" not in captured.out


@pytest.mark.parametrize("model_lines", [
    "inner_depth = -3",
    "sharp1 = -1",
    "sharp2 = -5",
    "name = flag_sharp_flag_sharp\nsharp1 = 1",
    "name = flag_sharp_paraproduct\nsharp2 = 2",
    "name = flag0_flag_sharp\nsharp1 = 1",
    "gap = 3",
])
def test_cli_rejects_bad_model_fields(model_lines, tmp_path, capsys):
    """Negative depths and offsets, a fixed-scale side at offset 0 in a
    weak-type sweep (the Haar form is identically zero there) and the
    removed gap field exit 2 with a message and no traceback."""
    cfg = tmp_path / "model.cfg"
    cfg.write_text("[grid]\nbox_exp = 1\nres_exp = 7\n[run]\ntrials = 1\n"
                   f"[model]\ndepth = 4\n{model_lines}\n")
    assert cli_main(["weaktype", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error: ")
    assert "Traceback" not in captured.err and "max_ratio" not in captured.out


def test_cli_exit_codes(tmp_path, capsys):
    assert cli_main(["oracle", "--seed", "1", "--trials", "2"]) == 0
    out = capsys.readouterr().out
    assert "max_deviation" in out
    bad = tmp_path / "bad.cfg"
    bad.write_text("[exponents]\np1 = 2\nq1 = 2\np2 = 2\nq2 = 4\ns = 2\n")
    assert cli_main(["weaktype", "--config", str(bad)]) == 2


def test_cli_invariants_pass(capsys):
    assert cli_main(["invariants", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out
    assert out.startswith("kind: invariants\n")
    assert out.index("config_sha256: ") < out.index("[PASS]")


def _random_h_reference(rng, gx, gy, bandwidth=12):
    """h drawn as before: the full spectrum, then one ifft2."""
    nx, ny = gx.n_points, gy.n_points
    bw = min(bandwidth, nx // 2 - 1, ny // 2 - 1)
    coeffs = ((rng.standard_normal((2 * bw + 1, 2 * bw + 1))
               + 1j * rng.standard_normal((2 * bw + 1, 2 * bw + 1)))
              / (1.0 + np.abs(np.arange(-bw, bw + 1))[:, None]
                 + np.abs(np.arange(-bw, bw + 1))[None, :]))
    spec = np.zeros((nx, ny), dtype=complex)
    for i, m1 in enumerate(range(-bw, bw + 1)):
        for j, m2 in enumerate(range(-bw, bw + 1)):
            spec[m1 % nx, m2 % ny] += coeffs[i, j]
            spec[(-m1) % nx, (-m2) % ny] += np.conj(coeffs[i, j])
    return np.fft.ifft2(spec).real * nx * ny / (2 * bw + 1.0) ** 2


@pytest.mark.parametrize("gx,gy", [(Grid1D(1, 6), Grid1D(1, 6)),
                                   (Grid1D(1, 7), Grid1D(1, 7)),
                                   (Grid1D(1, 10), Grid1D(1, 10)),
                                   (Grid1D(0, 6), Grid1D(1, 7)),
                                   (Grid1D(0, 3), Grid1D(0, 5))])
def test_random_h_band_fft_equals_ifft2(gx, gy):
    got = _random_h(harness._rng(7), gx, gy).samples
    assert np.array_equal(got, _random_h_reference(harness._rng(7), gx, gy))


def _capture_exceptional_sets(monkeypatch):
    """Keep the arguments and the result of each build_exceptional_set call
    that weak_type_trial makes."""
    calls = []

    def capture(*args, **kwargs):
        exc = stopping.build_exceptional_set(*args, **kwargs)
        calls.append((args, kwargs, exc))
        return exc

    monkeypatch.setattr(harness, "build_exceptional_set", capture)
    return calls


def test_weak_type_record_counts_the_exceptional_set(monkeypatch):
    """At c = 2 on (7,4) Omega is nonempty and Enl(Omega) leaves part of the
    box; the record's cell counts are those of the masks, and the ratio's
    ||h||_s is the one the Omega2 threshold used."""
    calls = _capture_exceptional_sets(monkeypatch)
    cfg = ExperimentConfig(kind="weak_type_sweep", box_exp=1, res_exp=7, depth=4,
                           trials=1, seed=0, c1=2.0, c2=2.0, c3=2.0)
    rec = weak_type_trial(cfg, 2, 7, 4)
    (args, kwargs, exc), = calls
    counts = {k: int(np.count_nonzero(getattr(exc, k).samples))
              for k in ("omega1", "omega2", "enlarged")}
    assert {k: rec[f"{k}_cells"] for k in counts} == counts
    assert all(type(rec[f"{k}_cells"]) is int for k in counts)
    assert 0 < counts["omega1"] and 0 < counts["enlarged"] < 256 ** 2
    h = args[4]
    assert exc.h_norm == h.norm(cfg.s) and kwargs["s"] == cfg.s
    w, exps = kwargs["weights"], cfg.exponents()
    denom = (w[0] ** (1 / exps.p1) * w[2] ** (1 / exps.p2) * w[1] ** (1 / exps.q1)
             * w[3] ** (1 / exps.q2) * h.norm(cfg.s)
             * rec["e_measure"] ** exps.r_conjugate_reciprocal)
    assert rec["lam"] != 0.0 and rec["ratio"] == abs(rec["lam"]) / denom


def test_weak_type_trial_builds_h_pyramid_once(monkeypatch):
    """An (8,5) trial builds two Haar pyramids, h's once for SS_H and the
    form and the dual's once, and no DyadicRectangle object."""
    built = {"pyramids": 0, "rectangles": 0}
    pyramid = wavelets.haar_pyramid_2d
    init = dyadic.DyadicRectangle.__init__

    def counting_pyramid(*args, **kwargs):
        built["pyramids"] += 1
        return pyramid(*args, **kwargs)

    def counting_init(self, *args, **kwargs):
        built["rectangles"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(wavelets, "haar_pyramid_2d", counting_pyramid)
    monkeypatch.setattr(dyadic.DyadicRectangle, "__init__", counting_init)
    cfg = ExperimentConfig(kind="weak_type_sweep", box_exp=1, res_exp=8, depth=5,
                           trials=1, seed=0)
    rec = weak_type_trial(cfg, 4, 8, 5)
    assert built == {"pyramids": 2, "rectangles": 0}
    assert rec["n_rectangles"] == (2 ** (1 + 5 + 1) - 1) ** 2
    dyadic.DyadicRectangle(dyadic.DyadicInterval(0, 0), dyadic.DyadicInterval(0, 0))
    assert built["rectangles"] == 1  # the counter sees constructions
