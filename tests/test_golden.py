"""Byte-for-byte gate on the CSVs and SVGs that `simulate`, `sweep` and `region` write.

The files under `tests/golden/` were written by the same commands before the
engine and grid harness were last refactored, the trajectory and structure
dumps before the CSV writers were merged into one, and the `--plot` figures
(`sweep_y1.svg` to `sweep_y4.svg`, `region.svg`) before the plot module was
made one class. Plot inputs the commands never give (one delay ratio, no
points, one point) are pinned by the sha256 of the same figures. Any change
to an output byte is an output change and must come with regenerated files
and a note saying why.
"""

import hashlib
from pathlib import Path

import pytest

from gathersim import svgplot
from gathersim.analytics import raster_points
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
    # backoffs past the 150 s sampling period: DROP rows, and a TX_END and
    # FEEDBACK_END of step 0 that land after the step-1 sample
    "simulate_setting1_backoff200_seed2": [
        "simulate", SCENARIOS / "setting1.yaml", "--override", "protocol.backoff_interval=200",
        "--seed", 2,
    ],
    **{
        f"sweep_jobs{jobs}": [
            "sweep", SCENARIOS / "setting1_sweep.yaml", "--trials", 3, "--jobs", jobs, "--plot",
        ]
        for jobs in (1, 2)
    },
    **{
        f"region_setsize{m}": [
            "region", "--setsize", m, "--x-grid", "0.05:0.95:3", "--y-grid", "0.25:10:3",
            "--trials", 5, "--plot",
        ]
        for m in (2, 3)
    },
    # the pool's workers carry the grid's draw layout: the same bytes as one process
    **{
        f"region_setsize{m}_jobs2": [
            "region", "--setsize", m, "--x-grid", "0.05:0.95:3", "--y-grid", "0.25:10:3",
            "--trials", 5, "--jobs", 2, "--plot",
        ]
        for m in (2, 3)
    },
}
# cases checked against another case's golden directory
GOLDEN_OF = {f"region_setsize{m}_jobs2": f"region_setsize{m}" for m in (2, 3)}


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden(case, tmp_path):
    out = tmp_path / case
    assert main([str(a) for a in CASES[case]] + ["--out", str(out)]) == 0
    golden = GOLDEN / GOLDEN_OF.get(case, case)
    expected = sorted(p.name for p in golden.iterdir())
    assert expected, f"no golden files for {case}"
    for name in expected:
        assert (out / name).read_bytes() == (golden / name).read_bytes(), f"{case}/{name}"


# name -> (figure, sha256 of the parent's bytes): one x with filled, open and
# boundary dots, a chart with no points, a series of one point
EDGE_FIGURES = {
    "region_one_x": (lambda: svgplot.region_map(
        raster_points(2, [0.3], [0.5, 2.0, 8.0], [(1.0, 0.1), (-1.0, 0.1), (0.05, 0.1)]), "one x"),
        "f4096817a9f2eedbe6801340d87c7d78ef312176092d074f00bb494afc8e181a"),
    "line_no_points": (lambda: svgplot.line_chart(
        [("FB", "#c0392b", []), ("NF", "#7f8c8d", [])], "power", "MSE", "empty"),
        "91fbbe94b49e379698689e3e20be5bc92efe7225be70fbd5e155fbb1f76c250b"),
    "line_one_point": (lambda: svgplot.line_chart(
        [("FB", "#c0392b", [(3.0, 0.5)])], "power", "MSE", "one point"),
        "55facc2a121cd8feae51e822e53c956fa08ac13ad5532fa55237e383187509b7"),
}


@pytest.mark.parametrize("name", sorted(EDGE_FIGURES))
def test_edge_figures_match_their_digest(name):
    draw, digest = EDGE_FIGURES[name]
    assert hashlib.sha256(draw().encode()).hexdigest() == digest
