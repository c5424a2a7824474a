"""Byte-for-byte gate on the CSVs that `simulate`, `sweep` and `region` write.

The files under `tests/golden/` were written by the same commands before the
engine and grid harness were last refactored, and the trajectory and structure
dumps before the CSV writers were merged into one. Any change to an output
byte is an output change and must come with regenerated files and a note
saying why.
"""

from pathlib import Path

import pytest

from gathersim.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

CASES = {
    **{
        f"simulate_{name}_seed{seed}": ["simulate", SCENARIOS / f"{name}.yaml", "--seed", seed]
        for name in ("setting1", "minimal")
        for seed in (1, 2)
    },
    # replaces the entry above, so one case also checks the optional dumps
    "simulate_setting1_seed1": [
        "simulate", SCENARIOS / "setting1.yaml", "--seed", 1,
        "--dump-trajectory", "--dump-structure",
    ],
    **{
        f"sweep_jobs{jobs}": [
            "sweep", SCENARIOS / "setting1_sweep.yaml", "--trials", 3, "--jobs", jobs,
        ]
        for jobs in (1, 2)
    },
    **{
        f"region_setsize{m}": [
            "region", "--setsize", m, "--x-grid", "0.05:0.95:3", "--y-grid", "0.25:10:3",
            "--trials", 5,
        ]
        for m in (2, 3)
    },
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden(case, tmp_path):
    out = tmp_path / case
    assert main([str(a) for a in CASES[case]] + ["--out", str(out)]) == 0
    expected = sorted(p.name for p in (GOLDEN / case).iterdir())
    assert expected, f"no golden files for {case}"
    for name in expected:
        assert (out / name).read_bytes() == (GOLDEN / case / name).read_bytes(), f"{case}/{name}"
