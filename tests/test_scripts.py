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
