import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_run_general_layouts_writes_both_layouts(tmp_path, monkeypatch):
    # the script drives experiments.paired_grid, mean_se and
    # PairedOutcome.power_difference on a cell's columns, so an API change
    # there must not break it
    script = SCRIPTS / "run_general_layouts.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--trials", "2", "--out", str(tmp_path)])
    with pytest.raises(SystemExit) as exited:
        runpy.run_path(str(script), run_name="__main__")
    assert exited.value.code == 0
    for name in ("asymmetric", "symmetric_pairs"):
        text = (tmp_path / f"approx_{name}.csv").read_text(encoding="utf-8")
        assert text.startswith("# gathersim-csv v1 approx-region\n")


@pytest.mark.parametrize("flag, value", [("--trials", "0"), ("--jobs", "0")])
def test_run_general_layouts_reports_bad_input(tmp_path, monkeypatch, capsys, flag, value):
    # the library names the bad value; the script exits 1 without a
    # traceback, before it makes its output directory
    script = SCRIPTS / "run_general_layouts.py"
    out = tmp_path / "out"
    monkeypatch.setattr(sys, "argv", [str(script), flag, value, "--out", str(out)])
    with pytest.raises(SystemExit) as exited:
        runpy.run_path(str(script), run_name="__main__")
    assert exited.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag[2:]}: ") and "Traceback" not in err
    assert not out.exists()


def test_run_general_layouts_reports_usage_errors(tmp_path, monkeypatch, capsys):
    # a malformed flag is a usage error, reported as gathersim reports one
    script = SCRIPTS / "run_general_layouts.py"
    out = tmp_path / "out"
    monkeypatch.setattr(sys, "argv", [str(script), "--trials", "1.5", "--out", str(out)])
    with pytest.raises(SystemExit) as exited:
        runpy.run_path(str(script), run_name="__main__")
    assert exited.value.code == 1
    err = capsys.readouterr().err
    assert err == "error: argument --trials: invalid int value: '1.5'\n"
    assert not out.exists()
