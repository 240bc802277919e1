"""Smoke runs of the command-line scripts under scripts/, on small inputs."""

import importlib.util
import math
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _main(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def _csv_rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.splitlines()
            if line and not line.startswith("#")]


def test_operator_norms_script(capsys):
    assert _main("operator_norms")(["--trials", "1", "--res-exp", "3"]) == 0
    header, *rows = _csv_rows(capsys.readouterr().out)
    assert header == ["operator", "p", "max_ratio"]
    assert {"M", "S", "SS_H", "MS_H", "SM_H", "MM"} == {r[0] for r in rows}
    assert all(math.isfinite(float(r[2])) for r in rows)


def test_operator_norms_script_rejects_bad_trials(capsys):
    assert _main("operator_norms")(["--trials", "0", "--res-exp", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and "Traceback" not in err


def test_leibniz_homogeneity_script(capsys):
    assert _main("leibniz_homogeneity")(["--n", "8"]) == 0
    rows = _csv_rows(capsys.readouterr().out)
    assert len(rows) == 6  # two orders, three dilations each
    assert all(math.isfinite(float(r[-1])) for r in rows)


@pytest.mark.parametrize("n", ["48", "2", "0", "-8"])
def test_leibniz_homogeneity_script_rejects_bad_n(n, capsys):
    with pytest.raises(SystemExit) as exc:
        _main("leibniz_homogeneity")(["--n", n])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "power of two" in err and "Traceback" not in err


def test_weak_type_stability_script(capsys):
    # at this size the growth bound does not hold; VIOLATED is a result here
    main = _main("weak_type_stability")
    assert main(["--trials", "1", "--res-exps", "6", "7",
                 "--depths", "2", "3"]) in (0, 1)
    ratios = [line.split(": ") for line in capsys.readouterr().out.splitlines()
              if line.startswith("ratio[")]
    assert len(ratios) == 4  # two res_exps by two depths
    assert all(math.isfinite(float(value)) for _, value in ratios)


@pytest.mark.parametrize("argv", [["--trials", "1", "--res-exps", "5", "--depths", "2"],
                                  ["--trials", "0", "--res-exps", "6", "7",
                                   "--depths", "2", "3"]])
def test_weak_type_stability_script_rejects_bad_config(argv, capsys):
    """Exit 2, not the 1 of VIOLATED, and no traceback or result."""
    assert _main("weak_type_stability")(argv) == 2
    out, err = capsys.readouterr()
    assert err.startswith("configuration error: ") and "Traceback" not in err
    assert "stability:" not in out
