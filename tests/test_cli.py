import contextlib
import gc
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import gathersim
from gathersim import protocol, scenario
from gathersim.cli import _gc_paused, _run_trial_to_csv, main


def run(args):
    return main([str(a) for a in args])


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def test_cli_import_leaves_out_pool_and_plotting():
    # the process pool and the SVG writer load only when a run needs them
    code = (
        "import sys, gathersim.cli; "
        "print(*sorted({'multiprocessing', 'concurrent.futures.process', 'gathersim.svgplot'} "
        "& set(sys.modules)))"
    )
    src = str(Path(gathersim.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == ""


def test_validate_ok(setting1_path, capsys):
    assert run(["validate", setting1_path]) == 0
    assert "valid" in capsys.readouterr().out


def test_validate_bad_file(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("architecture: XX\n")
    assert run(["validate", bad]) == 1


@pytest.mark.parametrize("bad_id, rule", [("a", "a number"), ("0.7", "an integer"), ("true", "a number")])
@pytest.mark.parametrize("entry", ["{id: 0, center", "{id: 0, position"])
def test_validate_rejects_non_integer_ids(minimal_path, tmp_path, capsys, entry, bad_id, rule):
    bad = tmp_path / "bad_id.yaml"
    bad.write_text(read(minimal_path).replace(entry, entry.replace("0", bad_id)))
    assert run(["validate", bad]) == 1
    assert f"[0].id: must be {rule}" in capsys.readouterr().err


def test_validate_missing_file(tmp_path):
    assert run(["validate", tmp_path / "nope.yaml"]) == 2


def test_simulate_deterministic_outputs(setting1_path, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["simulate", setting1_path, "--out", a, "--seed", 7]) == 0
    assert run(["simulate", setting1_path, "--out", b, "--seed", 7]) == 0
    for name in ("events.csv", "power.csv", "mse.csv"):
        assert read(a / name) == read(b / name)


def test_simulate_override_to_nf_zeroes_downlink(setting1_path, tmp_path, capsys):
    out = tmp_path / "nf"
    assert run([
        "simulate", setting1_path, "--out", out, "--override", "architecture=NF",
    ]) == 0
    assert "architecture=NF" in capsys.readouterr().out
    lines = read(out / "power.csv").splitlines()
    assert lines[0] == "# gathersim-csv v1 power"
    assert lines[1] == "step,sensor,uplink,downlink"
    for line in lines[2:]:
        assert line.rsplit(",", 1)[1] in ("0", "0.0")


def test_simulate_reports_cancellations(setting1_path, tmp_path, capsys):
    assert run(["simulate", setting1_path, "--out", tmp_path / "fb", "--seed", 7]) == 0
    out = capsys.readouterr().out
    cancels = int(out.split("cancels=")[1].split()[0])
    assert cancels > 0


def test_simulate_counts_dropped_components(setting1_path, tmp_path, capsys):
    # backoffs past the sampling period drop packets, some of several components
    out = tmp_path / "drops"
    assert run(["simulate", setting1_path, "--out", out,
                "--override", "protocol.backoff_interval=200", "--seed", 2]) == 0
    fields = dict(item.split("=", 1) for item in capsys.readouterr().out.split())
    rows = [line.split(",") for line in read(out / "events.csv").splitlines()[2:]]
    sizes = {kind: [int(r[5]) for r in rows if r[1] == kind] for kind in ("CANCEL", "DROP")}
    assert (len(sizes["DROP"]), sum(sizes["DROP"])) == (5, 10)
    assert int(fields["drops"]) == sum(sizes["DROP"])
    assert int(fields["cancels"]) == sum(sizes["CANCEL"]) == len(sizes["CANCEL"])
    assert int(fields["events"]) == len(rows)


def test_simulate_optional_dumps(setting1_path, tmp_path):
    out = tmp_path / "dumps"
    assert run([
        "simulate", setting1_path, "--out", out, "--dump-trajectory", "--dump-structure",
    ]) == 0
    assert (out / "trajectory.csv").exists()
    assert (out / "structure.csv").exists()


@pytest.mark.parametrize("extra", [[], ["--override", "architecture=NF", "--dump-trajectory"]])
def test_simulate_validates_once(setting1_path, tmp_path, monkeypatch, extra):
    # load_scenario validates the scenario, so the draw must not validate it again
    calls = []
    original = scenario.validate

    def counting(s):
        calls.append(s)
        return original(s)

    monkeypatch.setattr(scenario, "validate", counting)
    monkeypatch.setattr(protocol, "validate", counting)
    assert run(["simulate", setting1_path, "--out", tmp_path, *extra]) == 0
    assert len(calls) == 1


def test_simulate_bad_override_path(setting1_path, tmp_path):
    assert run([
        "simulate", setting1_path, "--out", tmp_path, "--override", "protocol.nope=3",
    ]) == 1


def test_simulate_io_failure(setting1_path, tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    assert run(["simulate", setting1_path, "--out", blocker / "sub"]) == 2


HUGE = 10**400
OVERLONG = "1" + "0" * 5000  # past sys.get_int_max_str_digits(), so PyYAML cannot convert it
TOO_MANY_TRIALS = 99999999999999999999  # past a C ssize_t
SPEC = "scenario: setting1.yaml\nbackoff_intervals: [20]\nuplink_powers: [1]\ntrials: 1\n"
MINIMAL = (Path(__file__).resolve().parent.parent / "scenarios" / "minimal.yaml").read_text()

# case: (text of INPUT, or None; argv, where INPUT and SETTING1 stand for file paths)
BAD_INPUTS = {
    "simulate_malformed_yaml": ("environment: [1, 2\n", ["simulate", "INPUT"]),
    "simulate_malformed_override": (
        None, ["simulate", "SETTING1", "--override", "protocol.horizon=["],
    ),
    "simulate_unbounded_horizon": (
        None, ["simulate", "SETTING1", "--override", "protocol.horizon=1e9"],
    ),
    "sweep_malformed_yaml": ("backoff_intervals: [1, 2\n", ["sweep", "INPUT"]),
    "sweep_non_numeric_backoff": (SPEC.replace("[20]", "[a]"), ["sweep", "INPUT"]),
    "sweep_non_integer_trials": (SPEC.replace("trials: 1", "trials: abc"), ["sweep", "INPUT"]),
    "sweep_unknown_key": (SPEC.replace("trials: 1", "trails: 500"), ["sweep", "INPUT"]),
    "sweep_zero_uplink_power": (SPEC.replace("powers: [1]", "powers: [0]"), ["sweep", "INPUT"]),
    "sweep_bool_backoff": (SPEC.replace("[20]", "[true]"), ["sweep", "INPUT"]),
    "sweep_zero_jobs": (SPEC, ["sweep", "INPUT", "--jobs", 0]),
    "simulate_bool_override": (
        None, ["simulate", "SETTING1", "--override", "protocol.sampling_period=true"],
    ),
    "analyze_zero_numin": (None, ["analyze", "--scenario", "SETTING1", "--numin", 0]),
    **{
        f"analyze_scenario_with_{flag}": (None, ["analyze", "--scenario", "SETTING1", f"--{flag}", value])
        for flag, value in (
            ("setsize", 3), ("x", 0.2), ("y", 2), ("ts", 150), ("dtu", 2), ("eps", 5), ("sigma", 0.1),
        )
    },
    "analyze_x_without_y": (None, ["analyze", "--setsize", 3, "--x", 0.2]),
    "analyze_y_without_x": (None, ["analyze", "--setsize", 3, "--y", 2]),
    "analyze_nan_cost_ratio": (None, ["analyze", "--setsize", 3, "--x", 0.2, "--y", "nan"]),
    "analyze_numin_alone": (None, ["analyze", "--numin", 2]),
    "validate_misspelt_confine": (
        MINIMAL.replace("[5.0, 5.0]}", "[5.0, 5.0], confined: {center: [5.0, 5.0], radius: 2.0}}"),
        ["validate", "INPUT"],
    ),
    "validate_unknown_cost_key": (
        MINIMAL.replace("costs:\n", "costs:\n  idle_power: 3.0\n"), ["validate", "INPUT"],
    ),
    "validate_unknown_top_level_key": (MINIMAL + "trials: 500\n", ["validate", "INPUT"]),
    "validate_bool_sensor_center": (
        MINIMAL.replace("center: [5.0, 5.0]", "center: [true, 5]"), ["validate", "INPUT"],
    ),
    "region_negative_jobs": (
        None, ["region", "--setsize", 3, "--jobs", -1, "--trials", 1, "--x-grid", "0.5", "--y-grid", "1"],
    ),
    "region_zero_delay_ratio": (None, ["region", "--setsize", 3, "--x-grid", "0,0.5"]),
    "region_empty_grid": (None, ["region", "--setsize", 3, "--x-grid", ","]),
    "region_theory_negative_ratio": (
        None, ["region", "--setsize", 3, "--theory-only", "--x-grid", "-1"],
    ),
    "region_theory_nan_ratio": (None, ["region", "--setsize", 3, "--theory-only", "--x-grid", "nan"]),
    "region_nan_cost_ratio": (None, ["region", "--setsize", 3, "--theory-only", "--y-grid", "nan"]),
    "region_zero_cost_ratio": (None, ["region", "--setsize", 3, "--theory-only", "--y-grid", "0,1"]),
    # the backoff lead delay / 1e-308 overflows to inf
    "region_overflowing_backoff": (None, ["region", "--setsize", 3, "--x-grid", "1e-308", "--trials", 1]),
    # a count checked only after its list was built ran without bound
    "region_unbounded_grid_count": (None, ["region", "--setsize", 2, "--x-grid", "0.5:0.6:99999999999999999999"]),
    "region_too_many_cells": (None, ["region", "--setsize", 2, "--x-grid", "0.5,0.6", "--y-grid", "1:2:60000"]),
    "region_set_size_1": (None, ["region", "--setsize", 1]),
    "region_theory_set_size_1": (None, ["region", "--setsize", 1, "--theory-only"]),
    "region_zero_trials": (None, ["region", "--setsize", 3, "--trials", 0]),
    "sweep_zero_trials": (SPEC, ["sweep", "INPUT", "--trials", 0]),
    # past scenario.MAX_TRIALS: the grid's list of trials could not be built, or not held
    "region_unbounded_trials": (
        None, ["region", "--setsize", 2, "--x-grid", "0.5", "--y-grid", "1", "--trials", TOO_MANY_TRIALS],
    ),
    "sweep_unbounded_trials": (SPEC, ["sweep", "INPUT", "--trials", TOO_MANY_TRIALS]),
    "sweep_unbounded_spec_trials": (SPEC.replace("trials: 1", f"trials: {TOO_MANY_TRIALS}"), ["sweep", "INPUT"]),
    # integers past float range are not finite numbers
    "simulate_overflowing_uplink_power": (
        None, ["simulate", "SETTING1", "--override", f"costs.uplink_power={HUGE}"],
    ),
    "analyze_overflowing_set_size": (None, ["analyze", "--setsize", HUGE]),
    "analyze_overflowing_numin": (
        None, ["analyze", "--ts", 150, "--dtu", 2, "--numin", HUGE, "--eps", 2, "--sigma", 0.1],
    ),
    "region_theory_overflowing_set_size": (None, ["region", "--setsize", HUGE, "--theory-only"]),
    "simulate_overlong_integer_override": (None, ["simulate", "SETTING1", "--override", f"seed={OVERLONG}"]),
    "simulate_overlong_integer_literal": (
        MINIMAL.replace("seed: ", f"seed: {OVERLONG}\n# "), ["simulate", "INPUT"],
    ),
}


def check_exits_1_with_message(case, setting1_path, tmp_path, capsys):
    text, argv = BAD_INPUTS[case]
    files = {"INPUT": tmp_path / "input.yaml", "SETTING1": setting1_path}
    if text is not None:
        files["INPUT"].write_text(text.replace("setting1.yaml", str(setting1_path)))
    argv = [files.get(a, a) for a in argv]
    if argv[0] not in ("analyze", "validate"):
        argv += ["--out", tmp_path / "out"]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_1_with_message(case, setting1_path, tmp_path, capsys):
    check_exits_1_with_message(case, setting1_path, tmp_path, capsys)


@pytest.mark.parametrize(
    "case", ["simulate_malformed_override", "simulate_malformed_yaml", "sweep_malformed_yaml",
             "simulate_overlong_integer_override", "simulate_overlong_integer_literal"]
)
def test_bad_yaml_exits_1_with_python_loader(case, setting1_path, tmp_path, capsys, monkeypatch):
    # the reader falls back to PyYAML's pure-Python loader without libyaml
    monkeypatch.setattr(scenario, "_LOADER", yaml.SafeLoader)
    check_exits_1_with_message(case, setting1_path, tmp_path, capsys)


def test_sweep_row_count(scenarios_dir, tmp_path):
    out = tmp_path / "sweep"
    spec = scenarios_dir / "setting1_sweep.yaml"
    assert run(["sweep", spec, "--out", out, "--trials", 1, "--jobs", 2]) == 0
    lines = read(out / "sweep.csv").splitlines()
    assert lines[0] == "# gathersim-csv v1 sweep"
    assert lines[1] == "T_b,dp_u,dp_d,arch,mean_power_norm,se_power,mean_mse,se_mse,trials"
    assert len(lines) - 2 == 11 * 4 * 2


def test_sweep_empty_grid_fails(tmp_path, scenarios_dir):
    spec = tmp_path / "empty.yaml"
    spec.write_text(
        f"scenario: {scenarios_dir / 'setting1.yaml'}\n"
        "backoff_intervals: []\nuplink_powers: [1]\ntrials: 1\n"
    )
    assert run(["sweep", spec, "--out", tmp_path / "o"]) == 1


def test_sweep_plot_emits_svg(scenarios_dir, tmp_path):
    spec = tmp_path / "tiny.yaml"
    spec.write_text(
        f"scenario: {scenarios_dir / 'setting1.yaml'}\n"
        "backoff_intervals: [20, 40]\nuplink_powers: [2]\ntrials: 1\n"
    )
    out = tmp_path / "plot"
    assert run(["sweep", spec, "--out", out, "--plot"]) == 0
    svgs = list(out.glob("*.svg"))
    assert len(svgs) == 1
    assert svgs[0].read_text().startswith("<svg")


def test_analyze_feasibility(capsys):
    assert run(["analyze", "--setsize", 3]) == 0
    assert "feasibility_threshold(set_size=3) = 0.5" in capsys.readouterr().out


def test_analyze_full_power_condition(capsys):
    assert run(["analyze", "--setsize", 4, "--x", 1, "--y", 5]) == 0
    out = capsys.readouterr().out
    assert "= -4" in out
    assert "not advantageous" in out


def test_analyze_accuracy_condition(capsys):
    assert run([
        "analyze", "--ts", 150, "--dtu", 2, "--numin", 1, "--eps", 2, "--sigma", 0.1,
    ]) == 0
    out = capsys.readouterr().out
    assert "12.2066" in out
    assert "satisfied" in out


def test_analyze_noiseless_accuracy_condition(setting1_path, tmp_path, capsys):
    assert run([
        "analyze", "--ts", 150, "--dtu", 2, "--numin", 1, "--eps", 2, "--sigma", 0,
    ]) == 0
    assert "threshold/noise = inf: satisfied" in capsys.readouterr().out
    noiseless = tmp_path / "noiseless.yaml"
    noiseless.write_text(read(setting1_path).replace("noise_std: 0.1", "noise_std: 0.0"))
    assert run(["analyze", "--scenario", noiseless]) == 0
    assert "threshold/noise = inf: satisfied" in capsys.readouterr().out


def test_analyze_scenario_table(setting1_path, capsys):
    assert run(["analyze", "--scenario", setting1_path]) == 0
    out = capsys.readouterr().out
    assert "network advantage vote" in out


def test_thin_lens_pair_is_a_collaborative_set(setting1_path, tmp_path, capsys):
    # the two disks overlap in a lens 0.01 wide, which holds the target but
    # no center of a 0.05-spaced grid cell
    data = yaml.safe_load(read(setting1_path))
    data["sensors"] = [
        {"id": 0, "center": [10.0, 10.0], "radius": 10.0},
        {"id": 1, "center": [29.99, 10.0], "radius": 10.0},
    ]
    data["targets"] = [{"id": 0, "position": [19.995, 10.0]}]
    path = tmp_path / "thin.yaml"
    path.write_text(yaml.safe_dump(data))
    assert run(["simulate", path, "--out", tmp_path / "out", "--dump-structure"]) == 0
    assert "collaborative,0;1,1" in read(tmp_path / "out" / "structure.csv").splitlines()
    capsys.readouterr()
    assert run(["analyze", "--scenario", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    first = lines.index("sensor  delay_est  delay_ratio  set_size_est  g  advantage") + 1
    assert [line.split()[0] for line in lines[first:first + 2]] == ["0", "1"]
    assert lines[first + 2].startswith("network advantage vote")


def test_analyze_requires_arguments():
    assert run(["analyze"]) == 1


@pytest.mark.parametrize("argv, message", [
    (["--x", 0.3, "--y", 2, "--ts", 150, "--dtu", 2, "--numin", 1, "--eps", 2, "--sigma", 0.1],
     "--x and --y need --setsize"),
    (["--setsize", 3, "--ts", 150], "--dtu is required for the accuracy condition"),
    (["--setsize", 3, "--eps", 2, "--sigma", 0.1], "--ts is required for the accuracy condition"),
])
def test_analyze_rejects_flags_it_would_ignore(capsys, argv, message):
    assert run(["analyze", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""  # nothing half printed before the error
    assert message in captured.err


@pytest.mark.parametrize("argv", [
    ["--setsize", 3, "--x", 2, "--y", 1],
    ["--setsize", 3, "--ts", 150, "--dtu", 0, "--numin", 1, "--eps", 2, "--sigma", 0.1],
    ["--ts", 150, "--dtu", "nan", "--numin", 1, "--eps", 2, "--sigma", 0.1],
    ["--ts", 150, "--dtu", 2, "--numin", 1, "--eps", 2, "--sigma", "nan"],
    ["--ts", "inf", "--dtu", 2, "--numin", 1, "--eps", 2, "--sigma", 0.1],
    ["--ts", 150, "--dtu", 2, "--numin", 1, "--eps", "inf", "--sigma", 0.1],
    ["--setsize", 3, "--x", 0.3, "--y", "inf"],
    ["--setsize", 3, "--x", "nan", "--y", 1],
])
def test_analyze_bad_values_print_nothing(capsys, argv):
    assert run(["analyze", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""  # no line computed before the error is printed
    assert captured.err.startswith("error: ")


def test_analyze_bad_parameters():
    assert run(["analyze", "--setsize", 1]) == 1
    assert run(["analyze", "--setsize", 3, "--x", 2, "--y", 1]) == 1


def test_region_theory_only(tmp_path, capsys):
    out = tmp_path / "region"
    assert run(["region", "--setsize", 3, "--theory-only", "--out", out]) == 0
    lines = read(out / "region.csv").splitlines()
    assert lines[0] == "# gathersim-csv v1 region"
    assert lines[1] == "x,y,set_size,g,theoretical,empirical_mean,empirical_se"
    assert len(lines) - 2 == 100
    assert all(line.endswith(",,") for line in lines[2:])


def test_region_zero_trials(tmp_path):
    assert run(["region", "--setsize", 3, "--trials", 0, "--out", tmp_path]) == 1


def test_region_small_empirical(tmp_path, capsys):
    out = tmp_path / "r"
    assert run([
        "region", "--setsize", 2, "--x-grid", "0.3:0.7:2", "--y-grid", "0.5,2",
        "--trials", 40, "--out", out, "--plot",
    ]) == 0
    printed = capsys.readouterr().out
    assert "agreement" in printed
    assert (out / "region.svg").exists()


def test_env_var_output_dir(setting1_path, tmp_path, monkeypatch):
    monkeypatch.setenv("GATHERSIM_OUTDIR", str(tmp_path / "envout"))
    assert run(["simulate", setting1_path]) == 0
    assert (tmp_path / "envout" / "events.csv").exists()


def test_golden_csv_headers(setting1_path, tmp_path):
    out = tmp_path / "golden"
    assert run(["simulate", setting1_path, "--out", out]) == 0
    assert read(out / "events.csv").splitlines()[:2] == [
        "# gathersim-csv v1 events",
        "time,kind,step,sensor,targets,size,value",
    ]
    assert read(out / "mse.csv").splitlines()[:2] == [
        "# gathersim-csv v1 mse",
        "time,mse_instant,mse_integral",
    ]


@pytest.fixture
def gc_state():
    """The collector's switch and debug flags, restored after the test."""
    enabled = gc.isenabled()
    yield
    gc.set_debug(0)
    gc.garbage.clear()
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("text, error", [
    (MINIMAL, None), ("environment: [1, 2\n", scenario.ScenarioError), (None, OSError),
])
def test_gc_pause_restores_the_collector(gc_state, tmp_path, text, error):
    path = tmp_path / "input.yaml"  # no such file when text is None
    if text is not None:
        path.write_text(text)
    gc.enable()
    with pytest.raises(error) if error else contextlib.nullcontext():
        with _gc_paused():
            assert not gc.isenabled()
            scenario.load_scenario(path)
    assert gc.isenabled()


def test_gc_pause_leaves_a_disabled_collector_off(gc_state):
    gc.disable()
    with _gc_paused():
        pass
    assert not gc.isenabled()


def large_field(path) -> None:
    """A 64-sensor, 1000-target field, shaped like the large-field benchmark input."""
    xy = np.random.default_rng(0).uniform(1.0, 159.0, size=(1000, 2)).tolist()
    sensors = [f"  - {{id: {8 * r + c}, center: [{20.0 * c + 10.0}, {20.0 * r + 10.0}], radius: 14.0}}"
               for r in range(8) for c in range(8)]
    targets = [f"  - {{id: {i}, position: [{x!r}, {y!r}]}}" for i, (x, y) in enumerate(xy)]
    rest = MINIMAL[MINIMAL.index("protocol:"):].replace("architecture: NF", "architecture: FB")
    path.write_text("\n".join(["environment: {width: 160.0, height: 160.0}", "sensors:", *sensors,
                               "targets:", *targets, rest]))


@pytest.mark.parametrize("name", ["setting1.yaml", "minimal.yaml", "large"])
def test_gc_paused_blocks_make_no_cyclic_garbage(gc_state, scenarios_dir, tmp_path, name):
    # with DEBUG_SAVEALL the collector keeps what it finds unreachable, so a
    # count of 0 means reference counting alone freed each block's objects
    path = tmp_path / "large.yaml" if name == "large" else scenarios_dir / name
    if name == "large":
        large_field(path)
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    with _gc_paused():  # cmd_simulate's two blocks
        loaded = scenario.load_scenario(path)
    assert gc.collect() == 0
    with _gc_paused():  # draw, run, score, the three CSV writers and the summary line
        inputs = protocol.draw_inputs(loaded, checked=True)
        summary = _run_trial_to_csv(loaded, inputs, tmp_path)
    assert gc.collect() == 0
    assert summary.startswith("architecture=")
    assert {p.name for p in tmp_path.glob("*.csv")} == {"events.csv", "power.csv", "mse.csv"}


def test_repeated_simulates_leave_no_growing_garbage(gc_state, minimal_path, tmp_path, capsys):
    # an explicit gc.collect(1) after the trial block, or a gc.freeze() around it,
    # left 22,560 and 36,720 unreachable objects here and grew the tracked ones by
    # tens of thousands; the plain pauses leave about 1,200 (argparse's cycles,
    # which later collections free) and under 1,000 more tracked objects, with
    # the writers inside the trial block or after it. 5,000 is four times that.
    gc.enable()
    gc.collect()
    tracked = len(gc.get_objects())
    for _ in range(120):
        assert run(["simulate", minimal_path, "--out", tmp_path]) == 0
    capsys.readouterr()
    assert gc.collect() < 5_000
    assert len(gc.get_objects()) - tracked < 5_000
