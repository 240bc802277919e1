import csv
import io

import numpy as np
import pytest

from dyadlab.cli import main as cli_main
from dyadlab.dyadic import Grid1D
from dyadlab.errors import ConfigError
from dyadlab.harness import (ExperimentConfig, estimate_weak_type_constant,
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
                     "--trials", "1"]) == 2
    assert "res_exp" in capsys.readouterr().err


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
