import heapq
import math
import re
import tempfile
from collections import Counter
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings, strategies as st
from scripted_cases import (
    DOWNLINK_POWER,
    UPLINK_POWER,
    backoff_tables,
    classify_step,
    forced_inputs,
    informed_from_table,
    run_scripted_pair,
    scripted_scenario,
)

from gathersim import geometry, protocol
from gathersim.analytics import power_diff
from gathersim.experiments import assumption1_scenario, region_cells, trial_seed
from gathersim.protocol import (
    PowerLedger, TrialInputs, _times, draw_inputs, draw_layout, draw_trial, run_trial, score_trial,
)
from gathersim.scenario import (
    Architecture,
    CostParams,
    DynamicsParams,
    Environment,
    ProtocolParams,
    Scenario,
    ScenarioError,
    SensorSpec,
    TargetSpec,
    load_scenario,
)


def single_sensor_scenario(n_targets=1, architecture=Architecture.NF, uplink_power=1.0):
    targets = tuple(
        TargetSpec(i, (5.0 + 0.3 * i, 5.0)) for i in range(n_targets)
    )
    return Scenario(
        environment=Environment(10.0, 10.0),
        sensors=(SensorSpec(0, (5.0, 5.0), 3.0),),
        targets=targets,
        protocol=ProtocolParams(10.0, 4.0, 0.5, 0.25, 1.0, 0.0, 20.0),
        dynamics=DynamicsParams(1.0, 10.0, 0.0),
        costs=CostParams(uplink_power, 1.0),
        architecture=architecture,
        seed=5,
    )


def test_static_target_triggers_only_once():
    scn = single_sensor_scenario()
    res = run_trial(scn, draw_inputs(scn))
    records = res.events.records
    assert [r.step for r in records if r.kind == "TRIGGER"] == [0]
    assert sum(r.kind == "TX_START" for r in records) == 1
    assert sum(r.kind == "SAMPLE" and r.step == 1 for r in records) == 1


def test_scripted_classification_matches_hand_evaluation():
    scn = scripted_scenario(3, 3)  # delay 9 with per-component delays 2/1
    fb, _ = run_scripted_pair(scn, (1.0, 5.0, 40.0))
    cls = classify_step(scn, fb.events, [frozenset({0, 1, 2})], 0)
    assert len(cls) == 1
    c = cls[0]
    assert c.lead == 0
    assert c.informed == frozenset({2})
    assert c.uninformed == frozenset({1})
    assert c.lead_delay == 9.0
    # the informed sensor cancelled every collaborative component
    cancels = [r for r in fb.events.records if r.kind == "CANCEL"]
    assert {r.sensor for r in cancels} == {2}
    assert len(cancels) == 3


def test_scripted_nf_everyone_transmits():
    scn = scripted_scenario(3, 3)
    _, nf = run_scripted_pair(scn, (1.0, 5.0, 40.0))
    kinds = Counter(r.kind for r in nf.events.records)
    assert kinds["TX_START"] == 3
    assert kinds["CANCEL"] == 0
    assert kinds["FEEDBACK_START"] == 0
    assert nf.downlink == 0


def test_lead_tie_breaks_to_lowest_id():
    scn = scripted_scenario(3, 2)
    fb, _ = run_scripted_pair(scn, (5.0, 5.0, 20.0))
    cls = classify_step(scn, fb.events, [frozenset({0, 1, 2})], 0)
    assert cls[0].lead == 0


def test_idle_step_classifies_empty():
    scn = scripted_scenario(2, 1)
    fb, _ = run_scripted_pair(scn, (1.0, 5.0))
    # static targets: nothing triggers at later steps; classify a fresh run
    # with a longer horizon instead
    scn2 = replace(scn, architecture=Architecture.FB,
                   protocol=replace(scn.protocol, horizon=200.0))
    fb2 = run_trial(scn2, inputs=forced_inputs(scn2, {0: (1.0, 5.0)}))
    assert classify_step(scn2, fb2.events, [frozenset({0, 1})], 1) == []


def test_classify_requires_feedback_log():
    scn = scripted_scenario(2, 1)
    _, nf = run_scripted_pair(scn, (1.0, 5.0))
    with pytest.raises(ValueError):
        classify_step(replace(scn, architecture=Architecture.NF), nf.events, [frozenset({0, 1})], 0)


def test_classify_step_out_of_range():
    scn = scripted_scenario(2, 1)
    fb, _ = run_scripted_pair(scn, (1.0, 5.0))
    with pytest.raises(IndexError):
        classify_step(scn, fb.events, [frozenset({0, 1})], 99)


def step_powers(result, scenario, path):
    """Power charged per sampling step, both directions, from the power.csv
    that `PowerLedger` writes for `result`."""
    PowerLedger(result.events, scenario.costs, len(scenario.sensors)).to_csv(path)
    totals = {}
    for line in path.read_text().splitlines()[2:]:
        step, _, up, down = line.split(",")
        totals[int(step)] = totals.get(int(step), 0.0) + float(up) + float(down)
    return [totals[k] for k in range(len(totals))]


def total_power(result, costs):
    return result.uplink * costs.uplink_power + result.downlink * costs.downlink_power


def test_power_single_sensor_four_components(tmp_path):
    scn = single_sensor_scenario(n_targets=4, uplink_power=2.0)
    powers = step_powers(run_trial(scn, draw_inputs(scn)), scn, tmp_path / "power.csv")
    assert powers[0] == 8.0
    assert powers[1] == 0.0
    with pytest.raises(IndexError):
        powers[99]


def test_power_fb_vs_nf_worked_example(tmp_path):
    # two of three sensors informed, two collaborative components
    scn = scripted_scenario(3, 2)  # delay = 6
    table = (1.0, 20.0, 40.0)
    lead, informed = informed_from_table(table, 6.0)
    assert lead == 0 and informed == frozenset({1, 2})
    fb, nf = run_scripted_pair(scn, table)
    fb_power = step_powers(fb, scn, tmp_path / "fb.csv")[0]
    nf_power = step_powers(nf, scn, tmp_path / "nf.csv")[0]
    assert fb_power == 6.0   # 2 components * 1 sender * (2+1)
    assert nf_power == 12.0  # 2 components * 3 senders * 2
    diff = nf_power - fb_power
    assert diff == power_diff([2], [2], [3], UPLINK_POWER, DOWNLINK_POWER) == 6


@pytest.mark.parametrize("set_size", [2, 3])
@pytest.mark.parametrize("collab", [1, 2, 3])
def test_power_difference_exact_over_scripts(set_size, collab):
    scn = scripted_scenario(set_size, collab)
    tau = 3.0 * collab
    for table in backoff_tables(set_size, tau):
        lead, informed = informed_from_table(table, tau)
        fb, nf = run_scripted_pair(scn, table)
        simulated = total_power(nf, scn.costs) - total_power(fb, scn.costs)
        expected = power_diff([collab], [len(informed)], [set_size], UPLINK_POWER, DOWNLINK_POWER)
        assert simulated == expected
        # feedback is charged per fed-back component to each actual sender
        senders = set_size - len(informed)
        assert fb.downlink == senders * collab


def test_unique_components_cost_identically():
    # adding unique components must not change the power difference
    scn = scripted_scenario(2, 2, unique=1)
    tau = (2 + 1) * 2.0 + 2 * 1.0  # 8
    table = (1.0, 20.0)
    lead, informed = informed_from_table(table, tau)
    assert informed == frozenset({1})
    fb, nf = run_scripted_pair(scn, table)
    diff = total_power(nf, scn.costs) - total_power(fb, scn.costs)
    assert diff == power_diff([2], [1], [2], UPLINK_POWER, DOWNLINK_POWER)
    # the informed sensor still uplinks its unique component
    tx_sizes = sorted(r.size for r in fb.events.records if r.kind == "TX_START")
    assert tx_sizes == [1, 3]


def test_cancel_events_imply_informed_membership():
    # uniform-delay scenario, random draws: every cancelling sensor must be
    # classified informed at its step
    scn = assumption1_scenario(3, 3, 0, backoff_interval=30.0, seed=31)
    full = frozenset({0, 1, 2})
    for trial in range(10):
        seeded = replace(scn, seed=trial_seed(scn.seed, trial))
        res = run_trial(seeded, draw_inputs(seeded))
        by_step = {}
        for rec in res.events.records:
            if rec.kind == "CANCEL":
                by_step.setdefault(rec.step, set()).add(rec.sensor)
        for step, cancellers in by_step.items():
            cls = classify_step(scn, res.events, [full], step)
            assert cls, f"cancel at step {step} without classification"
            assert cancellers <= set(cls[0].informed)


def test_no_overlapping_uplinks_and_monotone_times():
    scn = assumption1_scenario(3, 2, 1, backoff_interval=25.0, seed=13)
    res = run_trial(scn, draw_inputs(scn))
    last = -math.inf
    for rec in res.events.records:
        assert rec.time >= last - 1e-12
        last = max(last, rec.time)
    for sensor in range(3):
        intervals = []
        starts = [r for r in res.events.records if r.kind == "TX_START" and r.sensor == sensor]
        ends = [r for r in res.events.records if r.kind == "TX_END" and r.sensor == sensor]
        assert len(starts) == len(ends)
        for s, e in zip(starts, ends):
            intervals.append((s.time, e.time))
        intervals.sort()
        for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
            assert e1 <= s2 + 1e-12


def test_trial_inputs_hold_the_layout_they_were_drawn_from():
    # the layout is the one home of the key, target ids, rows and times: a
    # draw keeps the very object, copies none of its fields, and starts from
    # its targets' own position array
    layout = draw_layout(assumption1_scenario(3, 2, 1, seed=5))
    inputs = draw_trial(layout, 11)
    assert TrialInputs._fields == ("layout", "seed", "positions", "steps")
    assert inputs.layout is layout and inputs.seed == 11
    assert inputs.positions[0] is layout.world.positions
    assert draw_trial(layout, 12).layout is layout


def test_trial_determinism():
    scn = assumption1_scenario(3, 2, 1, backoff_interval=25.0, seed=99)
    inputs_a, inputs_b = draw_inputs(scn), draw_inputs(scn)
    a = run_trial(scn, inputs_a)
    b = run_trial(scn, inputs_b)
    assert a.events.records == b.events.records
    assert (a.uplink, a.downlink) == (b.uplink, b.downlink)
    assert score_trial(inputs_a, a).rows == score_trial(inputs_b, b).rows


@pytest.mark.parametrize("seed", [2, 3, 4, 5])
def test_every_triggered_component_ends_once(setting1_path, seed):
    # backoffs longer than the time left after the last sample push some
    # transmissions past the horizon, where they are dropped
    scn = load_scenario(setting1_path)
    scn = replace(scn, seed=seed, protocol=replace(scn.protocol, backoff_interval=200.0))
    res = run_trial(scn, draw_inputs(scn))
    triggered = set()
    ends = Counter()
    for r in res.events.records:
        components = {(r.step, r.sensor, t) for t in r.targets}
        if r.kind == "TRIGGER":
            triggered |= components
        elif r.kind in ("TX_START", "CANCEL", "DROP"):
            ends.update(components)
    assert set(ends) == triggered
    assert set(ends.values()) == {1}
    assert any(r.kind == "DROP" and r.time == scn.protocol.horizon for r in res.events.records)


@st.composite
def small_scenarios(draw):
    """1-4 sensors and 1-8 targets on a 50 x 50 field over at most six
    sampling steps; the backoff interval sometimes exceeds the sampling period."""
    coord = st.floats(1.0, 49.0)
    sampling = draw(st.floats(10.0, 100.0))
    return Scenario(
        environment=Environment(50.0, 50.0),
        sensors=tuple(
            SensorSpec(i, (draw(coord), draw(coord)), draw(st.floats(5.0, 30.0)))
            for i in range(draw(st.integers(1, 4)))
        ),
        targets=tuple(
            TargetSpec(i, (draw(coord), draw(coord))) for i in range(draw(st.integers(1, 8)))
        ),
        protocol=ProtocolParams(
            sampling_period=sampling,
            backoff_interval=sampling * draw(st.floats(0.05, 2.0)),
            uplink_delay=draw(st.floats(0.5, 5.0)),
            downlink_delay=draw(st.floats(0.2, 3.0)),
            trigger_threshold=draw(st.floats(0.1, 3.0)),
            noise_std=draw(st.floats(0.0, 1.0)),
            horizon=sampling * draw(st.integers(1, 6)),
        ),
        dynamics=DynamicsParams(
            move_step=draw(st.floats(0.5, 5.0)),
            move_period=draw(st.floats(10.0, 100.0)),
            move_probability=draw(st.floats(0.0, 1.0)),
        ),
        costs=CostParams(2.0, 1.0),
        architecture=Architecture.FB,
        seed=draw(st.integers(0, 2**32)),
    )


# a sample one ulp before the end of the interval the error integral reached
# it by (11.237982727094128 + 66.41080029059754 rounds up), with a move at the
# same time: the second of the two events once raised "dt must be nonnegative"
OVERSHOT_SAMPLE = Scenario(
    environment=Environment(50.0, 50.0),
    sensors=(SensorSpec(0, (1.0, 1.0), 5.0), SensorSpec(1, (1.0, 1.0), 5.0)),
    targets=(TargetSpec(0, (1.0, 1.0)),),
    protocol=ProtocolParams(77.64878301769166, 106.76707664932603, 1.2989681097188788,
                            1.0, 1.0, 0.0, 155.2975660353833),
    dynamics=DynamicsParams(1.0, 77.64878301769166, 0.0),
    costs=CostParams(2.0, 1.0),
    architecture=Architecture.FB,
    seed=0,
)


@given(scn=small_scenarios())
@example(scn=OVERSHOT_SAMPLE)
@settings(max_examples=300)
def test_components_and_power_are_conserved(scn):
    inputs = draw_inputs(scn)
    for arch in Architecture:
        cell = replace(scn, architecture=arch)
        res = run_trial(cell, inputs)
        score_trial(inputs, res)  # integrates the engine's clock without a ValueError
        collaborative = {r.step: set(r.targets) for r in res.events.records if r.kind == "SAMPLE"}
        triggered = Counter()
        ended = Counter()
        uplink = downlink = collaborative_uplink = 0
        for r in res.events.records:
            components = [(r.step, r.sensor, t) for t in r.targets]
            if r.kind == "TRIGGER":
                triggered.update(components)
            elif r.kind in ("TX_START", "CANCEL", "DROP"):
                ended.update(components)
            if r.kind == "TX_START":
                uplink += r.size
                collaborative_uplink += len(collaborative[r.step].intersection(r.targets))
            elif r.kind == "FEEDBACK_START":
                downlink += r.size
        assert set(triggered.values()) <= {1}
        assert ended == triggered
        assert res.uplink == uplink
        assert res.downlink == downlink <= collaborative_uplink
        if arch is Architecture.NF:
            assert downlink == 0


def test_drop_when_backoff_crosses_next_sample():
    scn = scripted_scenario(2, 1)
    scn = replace(
        scn,
        architecture=Architecture.NF,
        protocol=replace(scn.protocol, backoff_interval=256.0, horizon=300.0),
    )
    backoffs = {0: (200.0, 200.0), 1: (10.0, 10.0), 2: (10.0, 10.0)}
    res = run_trial(scn, inputs=forced_inputs(scn, backoffs))
    step0 = [r for r in res.events.records if r.step == 0]
    assert {r.sensor for r in step0 if r.kind == "DROP"} == {0, 1}
    assert not [r for r in step0 if r.kind == "TX_START"]
    # the superseding step transmits normally
    assert any(r.kind == "TX_START" and r.step == 1 for r in res.events.records)


def test_sample_and_move_times_stop_short_of_the_horizon_at_every_size():
    # d * (H / d) may round a few ulps below H; with an absolute tolerance
    # of 1e-12, which falls below one ulp once H reaches 2e4, that multiple
    # became a sample or move at the horizon
    missed = [(horizon, d) for horizon in np.geomspace(1e-3, 7e9, 65).tolist() for d in range(1, 300)
              if len(_times(horizon / d, 0, horizon)) != d or len(_times(horizon / d, 1, horizon)) != d - 1]
    assert missed == []


def test_a_large_horizon_is_no_sampling_instant():
    # the 12th multiple of 1e5 / 11 is 99999.99999999999: it was sampled, and
    # its two packets dropped at the horizon
    scn = assumption1_scenario(2, 3, 0, sampling_period=1e5 / 11, horizon=1e5)
    inputs = draw_inputs(scn)
    assert (len(inputs.layout.sample_times), len(inputs.layout.move_times)) == (11, 10)
    assert not [r for r in run_trial(scn, inputs).events.records if r.kind == "DROP"]


def test_invalid_scenario_rejected():
    # a trial's inputs are drawn first, and the draw checks the whole scenario
    scn = single_sensor_scenario()
    bad = replace(scn, protocol=replace(scn.protocol, sampling_period=-1.0))
    with pytest.raises(ScenarioError):
        draw_inputs(bad)


def test_inputs_of_other_draws_rejected():
    scn = single_sensor_scenario()
    other = replace(scn, protocol=replace(scn.protocol, noise_std=0.5))
    for drawn in (other, replace(scn, seed=scn.seed + 1)):  # the layout's key, then the seed
        with pytest.raises(ValueError, match="different draws"):
            run_trial(scn, inputs=draw_inputs(drawn))
    # a checked run trusts its caller for the key, as paired_grid checks it once
    assert run_trial(scn, inputs=draw_inputs(other), checked=True).events.records
    # the backoff interval and the architecture do not change the draws
    shared = replace(scn, architecture=Architecture.FB,
                     protocol=replace(scn.protocol, backoff_interval=9.0))
    assert run_trial(shared, inputs=draw_inputs(scn)).events.records


@pytest.mark.parametrize("field, value, label", [
    ("backoff_interval", -50.0, "ProtocolParams.backoff_interval: must be > 0"),
    ("backoff_interval", math.nan, "ProtocolParams.backoff_interval: must be finite"),
    ("backoff_interval", math.inf, "ProtocolParams.backoff_interval: must be finite"),
    ("trigger_threshold", -1.0, "ProtocolParams.trigger_threshold: must be > 0"),
])
def test_a_replay_checks_its_protocol(setting1_path, field, value, label):
    # fields outside input_key do not change the draws, so the key check
    # alone lets them through; unchecked, -50 and NaN start packets at
    # negative or NaN times, inf sends nothing and -1 triggers on every sample
    scn = load_scenario(setting1_path)
    inputs = draw_inputs(scn)
    bad = replace(scn, protocol=replace(scn.protocol, **{field: value}))
    with pytest.raises(ScenarioError, match=re.escape(label)):
        run_trial(bad, inputs)


def test_a_checked_replay_skips_the_protocol_check(monkeypatch, setting1_path):
    scn = load_scenario(setting1_path)
    inputs = draw_inputs(scn)
    monkeypatch.setattr(protocol, "check", None)  # a check would fail here
    assert run_trial(scn, inputs=inputs, checked=True).events.rows


def count_calls(monkeypatch, name):
    calls = []
    original = getattr(protocol, name)
    monkeypatch.setattr(protocol, name, lambda *a: calls.append(a) or original(*a))
    return calls


@pytest.mark.parametrize("arch", list(Architecture))
def test_a_trial_fuses_each_received_packet_once(monkeypatch, setting1_path, arch):
    # an observed run of either architecture fuses each received packet once,
    # at its TX_END, and keeps no error account; the scorer writes the
    # estimates the fusions left, fusing nothing, and integrates once; an
    # unobserved run fuses only for FB's echoes
    scn = replace(load_scenario(setting1_path), architecture=arch)
    inputs = draw_inputs(scn)
    fused = count_calls(monkeypatch, "fuse")
    integrated = count_calls(monkeypatch, "accumulate_mse")
    result = run_trial(scn, inputs)
    ends = [r for r in result.events.records if r.kind == "TX_END"]
    assert ends and not integrated
    assert [(step, tuple(tid for tid, _ in comps)) for _, comps, step in fused] == [
        (r.step, r.targets) for r in ends
    ]
    # each fusion's pairs sit at its TX_END's clock index, one per target in
    # its row, and the clock ends at the horizon
    rows = [(r.time, tuple(map(inputs.layout.rows.__getitem__, r.targets))) for r in ends]
    placed = [(result.clock[k], tuple(row for row, _ in pairs)) for k, pairs in result.fusions.items()]
    assert placed == rows
    assert result.clock[-1] == scn.protocol.horizon
    score_trial(inputs, result)
    assert len(integrated) == 1 and len(fused) == len(ends)
    fused.clear()
    run_trial(scn, inputs, observe=False)
    assert len(fused) == (len(ends) if arch == Architecture.FB else 0) and len(integrated) == 1


def feedback_pushes(monkeypatch):
    """The FEEDBACK_END entries `run_trial` queues from now on, through its module's `heapq`."""
    pushes = []

    def push(heap, entry):
        if entry[1] == protocol._FEEDBACK_END:
            pushes.append(entry)
        heapq.heappush(heap, entry)

    monkeypatch.setattr(protocol, "heapq", SimpleNamespace(heappush=push, heappop=heapq.heappop))
    return pushes


def observed_and_lean(scn, inputs, pushes, checked=False):
    """`scn`'s observed and unobserved runs on `inputs`, which must charge the
    same components, and the echoes each of them queued."""
    pushes.clear()
    observed = run_trial(scn, inputs, checked=checked)
    queued = len(pushes)
    lean = run_trial(scn, inputs, checked=checked, observe=False)
    assert (lean.uplink, lean.downlink) == (observed.uplink, observed.downlink)
    return observed, queued, len(pushes) - queued


def two_step_fb(backoffs):
    """Two sensors sharing one static target, sampled at 0 and 100 with a
    horizon of 200; a packet takes 2 and its echo 1 (see `scripted_scenario`)."""
    scn = scripted_scenario(2, 1)
    scn = replace(scn, architecture=Architecture.FB,
                  protocol=replace(scn.protocol, backoff_interval=256.0, horizon=200.0))
    return scn, forced_inputs(scn, backoffs)


def test_feedback_arriving_exactly_at_tx_start_does_not_cancel(monkeypatch):
    # cutoff edge: second sensor starts exactly when feedback lands
    pushes = feedback_pushes(monkeypatch)
    scn = scripted_scenario(2, 1)  # delay = 3
    fb, _ = run_scripted_pair(scn, (1.0, 4.0))
    kinds = Counter(r.kind for r in fb.events.records)
    assert kinds["CANCEL"] == 0
    assert kinds["TX_START"] == 2
    cls = classify_step(scn, fb.events, [frozenset({0, 1})], 0)
    assert cls[0].informed == frozenset()
    # no sensor waits past either echo, so an unobserved run queues neither
    fb_scn = replace(scn, architecture=Architecture.FB)
    _, queued, lean_queued = observed_and_lean(fb_scn, forced_inputs(scn, {0: (1.0, 4.0)}), pushes)
    assert (queued, lean_queued) == (2, 0)


def test_an_unobserved_run_keeps_an_echo_that_a_later_step_hears(monkeypatch):
    # step 0: sensor 0 sends at 97.5, its echo lands at 100.5, after the next
    # sample and after sensor 1's start at 100.25, which sample 1 drops; at
    # step 1 sensor 1 triggers again, starts at 110 and the echo cancels it
    pushes = feedback_pushes(monkeypatch)
    scn, inputs = two_step_fb({0: (97.5, 100.25), 1: (10.0, 10.0)})
    observed, queued, lean_queued = observed_and_lean(scn, inputs, pushes)
    records = observed.events.records
    assert [(r.time, r.step, r.sensor) for r in records if r.kind == "CANCEL"] == [(100.5, 1, 1)]
    assert [(r.step, r.sensor) for r in records if r.kind == "DROP"] == [(0, 1)]
    assert (observed.uplink, observed.downlink, queued, lean_queued) == (1, 1, 1, 1)


def test_an_unobserved_run_keeps_an_echo_that_lands_at_the_next_sample(monkeypatch):
    # sensor 0's echo lands at 100, the next sample, which sorts after it:
    # sensor 1, waiting to start at 150, cancels, so sample 1 drops nothing
    # and neither sensor triggers at step 1
    pushes = feedback_pushes(monkeypatch)
    scn, inputs = two_step_fb({0: (97.0, 150.0)})
    observed, queued, lean_queued = observed_and_lean(scn, inputs, pushes)
    records = observed.events.records
    assert [(r.time, r.step, r.sensor) for r in records if r.kind == "CANCEL"] == [(100.0, 0, 1)]
    assert not [r for r in records if r.kind == "DROP" or (r.kind == "TRIGGER" and r.step == 1)]
    assert (observed.uplink, observed.downlink, queued, lean_queued) == (1, 1, 1, 1)


def test_unobserved_region_cells_charge_what_observed_ones_do(monkeypatch):
    # every FB cell of both region maps, at the CLI's 10 default delay ratios,
    # over 20 trials: equal counts, with a fifth (M = 2) to under a third (M = 3)
    # of the echoes queued
    pushes = feedback_pushes(monkeypatch)
    xs = [0.05 + k * (0.95 - 0.05) / 9 for k in range(10)]
    queued = {}
    for set_size in (2, 3):
        base, backoffs = region_cells(set_size, xs, seed=7)
        layout = draw_layout(base, checked=True)
        cells = [replace(base, architecture=Architecture.FB,
                         protocol=replace(base.protocol, backoff_interval=tb)) for tb in backoffs]
        totals = [0, 0]
        for i in range(20):
            inputs = draw_trial(layout, trial_seed(base.seed, i))
            for cell in cells:
                # a region grid's cells replay each trial's draw as built, checked
                _, observed, lean = observed_and_lean(cell, inputs, pushes, checked=True)
                totals[0] += observed
                totals[1] += lean
        queued[set_size] = tuple(totals)
    assert queued == {2: (1661, 339), 3: (2278, 641)}


@given(
    order=st.permutations(range(15)),
    ids=st.lists(st.integers(-50, 50), min_size=15, max_size=15, unique=True),
    backoff=st.sampled_from([40.0, 200.0]),
    seed=st.integers(0, 2**32 - 1),
)
@example(order=list(range(14, -1, -1)), ids=list(range(15)), backoff=200.0, seed=2)
@settings(max_examples=25)
def test_components_come_in_ascending_target_id_order(setting1_path, order, ids, backoff, seed):
    # the engine logs each sensor's components in the order draw_inputs
    # observed them, unsorted, so that order must be ascending target id
    # whatever order the YAML lists the targets in and whatever their ids
    data = yaml.safe_load(setting1_path.read_text(encoding="utf-8"))
    data["targets"] = [dict(data["targets"][k], id=ids[k]) for k in order]
    data["protocol"]["backoff_interval"] = backoff  # 200 > the sampling period: DROP rows
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.yaml"
        path.write_text(yaml.safe_dump(data), encoding="utf-8")
        scn = load_scenario(path, seed=seed)
    inputs = draw_inputs(scn)
    for (owners, tids, _, _), *_ in inputs.steps:
        by_sensor = {}
        for sensor, tid in zip(owners, tids):
            by_sensor.setdefault(sensor, []).append(tid)
        assert list(by_sensor) == sorted(by_sensor)
        assert all(seen == sorted(seen) for seen in by_sensor.values())
    for arch in Architecture:
        res = run_trial(replace(scn, architecture=arch), inputs=inputs)
        logged = [r for r in res.events.records if r.kind in ("TRIGGER", "BACKOFF_SET", "TX_START", "DROP")]
        assert logged
        assert all(list(r.targets) == sorted(r.targets) for r in logged)
