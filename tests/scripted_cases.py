"""Shared test oracles and scripted-backoff machinery for exact power-difference checks.

Builds symmetric scenarios where every sensor schedules identical packets at
step 0, forces the backoffs in the trial's drawn inputs, and evaluates both
architectures on those inputs. The informed set is computed independently
from the forced values and the known propagation delay, never from the
simulator. `classify_step` reads the lead, informed and uninformed sensors
of each collaborative set back from an FB event log, and `fusion_count` reads
an estimator's per-target fusion count.
"""

from dataclasses import dataclass, replace

from gathersim.dynamics import WorldState
from gathersim.estimation import EstimatorState
from gathersim.experiments import assumption1_scenario
from gathersim.protocol import CENTRAL, DrawLayout, EventLog, EventRecord, TrialInputs, draw_inputs, run_trial
from gathersim.scenario import Architecture, CostParams, Scenario

UPLINK_POWER = 2
DOWNLINK_POWER = 1
# from this many elements np.add.reduce sums pairwise, below it adds left to right
PAIRWISE = 8


def scripted_scenario(set_size, collab, unique=0, seed=77):
    """Propagation delay (collab + unique) * 2 + collab * 1: uplink and
    downlink delays are 2 and 1 per component. The backoff interval is a
    power of two, so every forced backoff survives the round trip through
    its uniform exactly."""
    scenario = assumption1_scenario(
        set_size,
        collab,
        unique,
        backoff_interval=64.0,
        sampling_period=100.0,
        horizon=100.0,
        noise_std=1e-9,
        move_probability=0.0,
        seed=seed,
    )
    return replace(scenario, costs=CostParams(UPLINK_POWER, DOWNLINK_POWER))


def backoff_tables(set_size, tau):
    """Forced-draw tables covering lead/informed/uninformed permutations,
    including lead ties and the exact-cutoff edge (uninformed by strictness)."""
    if set_size == 2:
        return [
            (0.0, 5.0),
            (1.0, 30.0),
            (2.0, 2.0),
            (1.0, 1.0 + tau),
            (40.0, 2.0),
            (45.0, 1.0),
        ]
    if set_size == 3:
        return [
            (1.0, 5.0, 40.0),
            (1.0, 2.0, 3.0),
            (10.0, 1.0, 30.0),
            (5.0, 5.0, 20.0),
            (1.0, 1.0 + tau, 40.0),
            (1.0, 45.0, 46.0),
            (3.0, 20.0, 10.0),
        ]
    raise ValueError(set_size)


def informed_from_table(table, tau):
    """Apply the definition directly: lead has the minimal draw (lowest index
    on ties); informed sensors have draws beyond lead's draw plus delay."""
    lead = min(range(len(table)), key=lambda j: (table[j], j))
    cutoff = table[lead] + tau
    informed = frozenset(j for j in range(len(table)) if j != lead and table[j] > cutoff)
    return lead, informed


def forced_inputs(scenario, backoffs):
    """`draw_inputs(scenario)` with the backoffs of step k forced to
    `backoffs[k]`, one value per sensor id; other steps keep their draws.

    The engine scales each uniform by the backoff interval, so a forced
    backoff b becomes the uniform b / interval, which must give b back.
    """
    interval = scenario.protocol.backoff_interval
    inputs = draw_inputs(scenario)
    steps = list(inputs.steps)
    for k, table in backoffs.items():
        uniforms = tuple(b / interval for b in table)
        assert len(uniforms) == len(steps[k][3]), "one backoff per sensor"
        assert [u * interval for u in uniforms] == list(table), (table, interval)
        steps[k] = (*steps[k][:3], uniforms)
    return inputs._replace(steps=tuple(steps))


def hand_inputs(positions, move_times=(), target_ids=None, environment=None):
    """Inputs of hand-made target positions (before any move, then after each
    of `move_times`), on a layout that holds only what the scorer and the
    trajectory dump read: the target ids and rows, the environment and the
    move times. The targets are ids 0..n-1 unless `target_ids` names them."""
    ids = tuple(range(len(positions[0]))) if target_ids is None else tuple(target_ids)
    world = WorldState(positions[0], ids, environment, (None,) * len(ids))
    layout = DrawLayout((), world, dict(zip(ids, range(len(ids)))), None, 0.0, (), tuple(move_times), (), None, None)
    return TrialInputs(layout, 0, tuple(positions), ())


def run_scripted_pair(scenario, table):
    inputs = forced_inputs(scenario, {0: table})
    fb = run_trial(replace(scenario, architecture=Architecture.FB), inputs=inputs)
    nf = run_trial(replace(scenario, architecture=Architecture.NF), inputs=inputs)
    return fb, nf


@dataclass(frozen=True)
class SetClassification:
    """How one collaborative set behaved at one sampling step."""

    members: frozenset[int]
    lead: int
    informed: frozenset[int]
    uninformed: frozenset[int]
    lead_delay: float


def classify_step(
    scenario: Scenario, log: EventLog, sets: list[frozenset[int]], step: int
) -> list[SetClassification]:
    """Partition each collaborative set at a step of `log`, a trial of
    `scenario`, into lead/informed/uninformed.

    The lead minimizes backoff plus propagation delay (lowest id on ties); a
    sensor is informed when its backoff exceeds the lead's backoff plus the
    lead's actual propagation delay. Only sensors triggered at the step take
    part; sets with no triggered member yield no entry.
    """
    if scenario.architecture != Architecture.FB:
        raise ValueError("classification is defined for feedback-architecture logs only")
    by_kind: dict[str, dict[int, EventRecord]] = {}  # kind -> sensor -> last record
    for r in log.records:
        if r.step == step:
            by_kind.setdefault(r.kind, {})[r.sensor] = r
    if "SAMPLE" not in by_kind:
        raise IndexError(f"no sampling step {step} in this log")
    collab = frozenset(by_kind["SAMPLE"][CENTRAL].targets)
    proto = scenario.protocol
    backoffs = by_kind.get("BACKOFF_SET", {})
    tx_starts = by_kind.get("TX_START", {})
    fb_starts = by_kind.get("FEEDBACK_START", {})

    out: list[SetClassification] = []
    for members in sorted(sets, key=lambda fs: (len(fs), tuple(sorted(fs)))):
        triggered = sorted(j for j in members if j in backoffs)
        if not triggered:
            continue

        def scheduled_delay(j: int) -> float:
            rec = backoffs[j]
            m = sum(1 for tid in rec.targets if tid in collab)
            return rec.size * proto.uplink_delay + m * proto.downlink_delay

        lead = min(triggered, key=lambda j: (backoffs[j].value + scheduled_delay(j), j))
        if lead in tx_starts:
            fb_size = fb_starts[lead].size if lead in fb_starts else 0
            lead_delay = tx_starts[lead].size * proto.uplink_delay + fb_size * proto.downlink_delay
        else:
            lead_delay = scheduled_delay(lead)
        cutoff = backoffs[lead].value + lead_delay
        informed = frozenset(j for j in triggered if j != lead and backoffs[j].value > cutoff)
        uninformed = frozenset(j for j in triggered if j != lead and j not in informed)
        out.append(
            SetClassification(
                members=members, lead=lead, informed=informed,
                uninformed=uninformed, lead_delay=lead_delay,
            )
        )
    return out


def fusion_count(state: EstimatorState, target_id: int) -> int:
    """How many measurements the current estimate of `target_id` averages."""
    return state._counts[state.row[target_id]]
