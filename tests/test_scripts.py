"""The study scripts under ``scripts/`` run end to end through ``main(argv)``."""

import importlib.util
import math
from pathlib import Path

_SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _main(name: str):
    spec = importlib.util.spec_from_file_location(name, _SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def _csv(path: Path):
    header, *rows = path.read_text().splitlines()
    return header, [row.split(",") for row in rows]


def test_window_convergence_writes_one_row_per_window(tmp_path):
    out = tmp_path / "windows.csv"
    assert _main("window_convergence")(["--windows", "3", "5", "--out", str(out)]) == 0
    header, rows = _csv(out)
    assert header == "window,case,spectral_radius,min_return,max_return,expected_occupation"
    assert [row[0] for row in rows] == ["3", "5"]
    assert all(len(row) == 6 and all(map(math.isfinite, map(float, row[2:]))) for row in rows)


def test_law_equivalence_writes_one_row_per_time(tmp_path):
    out = tmp_path / "law.csv"
    argv = ["--n", "200", "--times", "0.5", "1", "--out", str(out)]
    assert _main("law_equivalence")(argv) == 0
    header, rows = _csv(out)
    assert header == "t,tv_distance,tv_bound"
    assert [row[0] for row in rows] == ["0.5", "1"]
    assert all(len(row) == 3 and all(map(math.isfinite, map(float, row))) for row in rows)
