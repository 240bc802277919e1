"""Smoke runs of the command-line scripts under scripts/, on small inputs."""

import importlib.util
import math
from pathlib import Path

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


def test_leibniz_homogeneity_script(capsys):
    assert _main("leibniz_homogeneity")(["--n", "8"]) == 0
    rows = _csv_rows(capsys.readouterr().out)
    assert len(rows) == 6  # two orders, three dilations each
    assert all(math.isfinite(float(r[-1])) for r in rows)
