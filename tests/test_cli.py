import os

import pytest

from gathersim.cli import main


def run(args):
    return main([str(a) for a in args])


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def test_validate_ok(setting1_path, capsys):
    assert run(["validate", setting1_path]) == 0
    assert "valid" in capsys.readouterr().out


def test_validate_bad_file(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("architecture: XX\n")
    assert run(["validate", bad]) == 1


@pytest.mark.parametrize("bad_id", ["a", "0.7", "true"])
@pytest.mark.parametrize("entry", ["{id: 0, center", "{id: 0, position"])
def test_validate_rejects_non_integer_ids(minimal_path, tmp_path, capsys, entry, bad_id):
    bad = tmp_path / "bad_id.yaml"
    bad.write_text(read(minimal_path).replace(entry, entry.replace("0", bad_id)))
    assert run(["validate", bad]) == 1
    assert "id: must be an integer" in capsys.readouterr().err


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


def test_simulate_optional_dumps(setting1_path, tmp_path):
    out = tmp_path / "dumps"
    assert run([
        "simulate", setting1_path, "--out", out, "--dump-trajectory", "--dump-structure",
    ]) == 0
    assert (out / "trajectory.csv").exists()
    assert (out / "structure.csv").exists()


def test_simulate_bad_override_path(setting1_path, tmp_path):
    assert run([
        "simulate", setting1_path, "--out", tmp_path, "--override", "protocol.nope=3",
    ]) == 1


def test_simulate_io_failure(setting1_path, tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    assert run(["simulate", setting1_path, "--out", blocker / "sub"]) == 2


SPEC = "scenario: setting1.yaml\nbackoff_intervals: [20]\nuplink_powers: [1]\ntrials: 1\n"

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
    "analyze_zero_numin": (None, ["analyze", "--scenario", "SETTING1", "--numin", 0]),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_1_with_message(case, setting1_path, tmp_path, capsys):
    text, argv = BAD_INPUTS[case]
    files = {"INPUT": tmp_path / "input.yaml", "SETTING1": setting1_path}
    if text is not None:
        files["INPUT"].write_text(text.replace("setting1.yaml", str(setting1_path)))
    argv = [files.get(a, a) for a in argv]
    if argv[0] != "analyze":
        argv += ["--out", tmp_path / "out"]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


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


def test_analyze_requires_arguments():
    assert run(["analyze"]) == 1


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
