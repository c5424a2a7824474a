import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scripted_cases import (
    DOWNLINK_POWER,
    UPLINK_POWER,
    backoff_tables,
    forced_inputs,
    informed_from_table,
    run_scripted_pair,
    scripted_scenario,
)

from gathersim import geometry
from gathersim.analytics import power_diff
from gathersim.experiments import assumption1_scenario
from gathersim.protocol import classify_step, draw_inputs, run_trial
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
    res = run_trial(single_sensor_scenario())
    records = res.events.records
    assert [r.step for r in records if r.kind == "TRIGGER"] == [0]
    assert sum(r.kind == "TX_START" for r in records) == 1
    assert sum(r.kind == "SAMPLE" and r.step == 1 for r in records) == 1


def test_scripted_classification_matches_hand_evaluation():
    scn = scripted_scenario(3, 3)  # delay 9 with per-component delays 2/1
    fb, _ = run_scripted_pair(scn, (1.0, 5.0, 40.0))
    cls = classify_step(fb.events, [frozenset({0, 1, 2})], 0)
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
    assert nf.power.downlink_components() == 0


def test_lead_tie_breaks_to_lowest_id():
    scn = scripted_scenario(3, 2)
    fb, _ = run_scripted_pair(scn, (5.0, 5.0, 20.0))
    cls = classify_step(fb.events, [frozenset({0, 1, 2})], 0)
    assert cls[0].lead == 0


def test_idle_step_classifies_empty():
    scn = scripted_scenario(2, 1)
    fb, _ = run_scripted_pair(scn, (1.0, 5.0))
    # static targets: nothing triggers at later steps; classify a fresh run
    # with a longer horizon instead
    scn2 = replace(scn, architecture=Architecture.FB,
                   protocol=replace(scn.protocol, horizon=200.0))
    fb2 = run_trial(scn2, inputs=forced_inputs(scn2, {0: (1.0, 5.0)}))
    assert classify_step(fb2.events, [frozenset({0, 1})], 1) == []


def test_classify_requires_feedback_log():
    scn = scripted_scenario(2, 1)
    _, nf = run_scripted_pair(scn, (1.0, 5.0))
    with pytest.raises(ValueError):
        classify_step(nf.events, [frozenset({0, 1})], 0)


def test_classify_step_out_of_range():
    scn = scripted_scenario(2, 1)
    fb, _ = run_scripted_pair(scn, (1.0, 5.0))
    with pytest.raises(IndexError):
        classify_step(fb.events, [frozenset({0, 1})], 99)


def step_power(ledger, step):
    """Power charged to one sampling step, both directions, from the ledger's counts."""
    up, down = ledger.counts[step].sum(axis=0).tolist()
    return ledger.charge(up, down)


def test_power_single_sensor_four_components():
    res = run_trial(single_sensor_scenario(n_targets=4, uplink_power=2.0))
    assert step_power(res.power, 0) == 8.0
    assert step_power(res.power, 1) == 0.0
    with pytest.raises(IndexError):
        step_power(res.power, 99)


def test_power_fb_vs_nf_worked_example():
    # two of three sensors informed, two collaborative components
    scn = scripted_scenario(3, 2)  # delay = 6
    table = (1.0, 20.0, 40.0)
    lead, informed = informed_from_table(table, 6.0)
    assert lead == 0 and informed == frozenset({1, 2})
    fb, nf = run_scripted_pair(scn, table)
    assert step_power(fb.power, 0) == 6.0   # 2 components * 1 sender * (2+1)
    assert step_power(nf.power, 0) == 12.0  # 2 components * 3 senders * 2
    diff = step_power(nf.power, 0) - step_power(fb.power, 0)
    assert diff == power_diff([2], [2], [3], UPLINK_POWER, DOWNLINK_POWER) == 6


@pytest.mark.parametrize("set_size", [2, 3])
@pytest.mark.parametrize("collab", [1, 2, 3])
def test_power_difference_exact_over_scripts(set_size, collab):
    scn = scripted_scenario(set_size, collab)
    tau = 3.0 * collab
    for table in backoff_tables(set_size, tau):
        lead, informed = informed_from_table(table, tau)
        fb, nf = run_scripted_pair(scn, table)
        simulated = nf.power.total_power() - fb.power.total_power()
        expected = power_diff([collab], [len(informed)], [set_size], UPLINK_POWER, DOWNLINK_POWER)
        assert simulated == expected
        # feedback is charged per fed-back component to each actual sender
        senders = set_size - len(informed)
        assert fb.power.downlink_components() == senders * collab


def test_unique_components_cost_identically():
    # adding unique components must not change the power difference
    scn = scripted_scenario(2, 2, unique=1)
    tau = (2 + 1) * 2.0 + 2 * 1.0  # 8
    table = (1.0, 20.0)
    lead, informed = informed_from_table(table, tau)
    assert informed == frozenset({1})
    fb, nf = run_scripted_pair(scn, table)
    diff = nf.power.total_power() - fb.power.total_power()
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
        res = run_trial(replace(scn, seed=scn.seed ^ trial))
        by_step = {}
        for rec in res.events.records:
            if rec.kind == "CANCEL":
                by_step.setdefault(rec.step, set()).add(rec.sensor)
        for step, cancellers in by_step.items():
            cls = classify_step(res.events, [full], step)
            assert cls, f"cancel at step {step} without classification"
            assert cancellers <= set(cls[0].informed)


def test_no_overlapping_uplinks_and_monotone_times():
    scn = assumption1_scenario(3, 2, 1, backoff_interval=25.0, seed=13)
    res = run_trial(scn)
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


def test_trial_determinism():
    scn = assumption1_scenario(3, 2, 1, backoff_interval=25.0, seed=99)
    a = run_trial(scn)
    b = run_trial(scn)
    assert a.events.records == b.events.records
    assert np.array_equal(a.power.counts, b.power.counts)
    assert a.trace.rows == b.trace.rows


@pytest.mark.parametrize("seed", [2, 3, 4, 5])
def test_every_triggered_component_ends_once(setting1_path, seed):
    # backoffs longer than the time left after the last sample push some
    # transmissions past the horizon, where they are dropped
    scn = load_scenario(setting1_path)
    scn = replace(scn, seed=seed, protocol=replace(scn.protocol, backoff_interval=200.0))
    res = run_trial(scn)
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


@given(scn=small_scenarios())
@settings(max_examples=300)
def test_components_and_power_are_conserved(scn):
    for arch in Architecture:
        res = run_trial(replace(scn, architecture=arch))
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
        assert res.power.uplink_components() == uplink
        assert res.power.downlink_components() == downlink <= collaborative_uplink
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


def test_invalid_scenario_rejected():
    scn = single_sensor_scenario()
    bad = replace(scn, protocol=replace(scn.protocol, sampling_period=-1.0))
    with pytest.raises(ScenarioError):
        run_trial(bad)


def test_inputs_of_other_draws_rejected():
    scn = single_sensor_scenario()
    other = replace(scn, protocol=replace(scn.protocol, noise_std=0.5))
    with pytest.raises(ValueError, match="different draws"):
        run_trial(scn, inputs=draw_inputs(other))
    # the backoff interval and the architecture do not change the draws
    shared = replace(scn, architecture=Architecture.FB,
                     protocol=replace(scn.protocol, backoff_interval=9.0))
    assert run_trial(shared, inputs=draw_inputs(scn)).events.records


def test_feedback_arriving_exactly_at_tx_start_does_not_cancel():
    # cutoff edge: second sensor starts exactly when feedback lands
    scn = scripted_scenario(2, 1)  # delay = 3
    fb, _ = run_scripted_pair(scn, (1.0, 4.0))
    kinds = Counter(r.kind for r in fb.events.records)
    assert kinds["CANCEL"] == 0
    assert kinds["TX_START"] == 2
    cls = classify_step(fb.events, [frozenset({0, 1})], 0)
    assert cls[0].informed == frozenset()
