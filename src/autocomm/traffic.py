"""Signalized-intersection simulation on a kinematic queue model.

One four-approach intersection, twelve movement lanes (approach x
{left, straight, right}), four protected phases.  Vehicles travel at free
flow speed unless held by the stop line, a leader, or the per-lane
discharge clock that enforces saturation headway.  The model is built to
keep two invariants checkable at every step: no two vehicles in a lane are
closer than the safety headway, and every spawned vehicle is either still
on the road or recorded as crossed.  One pass over the lanes checks both.
Most vehicle-steps are a follower standing exactly one headway behind
where its leader ends the step; ``step`` writes only its clocks, which
gives the bits the full kinematic update would.

Signal controllers consume encoded observations (not raw state), which is
where the sensing gap lives: the connected-vehicle view reports exact
queues, the roadside top view saturates at a visible depth.  An observation
that exceeds its byte budget loses its farthest vehicle rows.  The encoder
writes the text ``json.dumps`` gives directly: the foreground once, then
the vehicle rows nearest first, each formatted only while the running
total still fits the budget, and the kept rows spliced into the
foreground text.  The rows come from a merge of the lanes' queues, which
spawn and step keep front to back (a lane out of that order is sorted
first), so an encode rounds and formats only the rows it keeps and one
more, not every visible vehicle.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from heapq import heapify, heappop, heapreplace
from operator import attrgetter
from typing import Optional, Protocol

from .configs import TrafficConfig
from .opro import ProposalEngine
from .rng import RngStream

APPROACHES = ("N", "S", "E", "W")
INTENTS = ("left", "straight", "right")
LANE_KEYS = tuple(f"{a}:{i}" for a in APPROACHES for i in INTENTS)
# The lanes in the order of their names, which is the order of a
# sort_keys=True JSON object, and each name's JSON text.
_SORTED_LANE_KEYS = tuple(sorted(LANE_KEYS))
_LANE_JSON = {key: json.dumps(key) for key in LANE_KEYS}
_POS = attrgetter("pos")

# Protected phases: no two simultaneously allowed movements conflict.  Each
# phase lists its lanes in LANE_KEYS order, so a sum over a phase adds its
# terms in the same order in every process, which a set's string-hash order
# would not.
PHASE_MOVEMENTS: dict[int, tuple[str, ...]] = {
    1: ("N:straight", "N:right", "S:straight", "S:right"),
    2: ("N:left", "S:left"),
    3: ("E:straight", "E:right", "W:straight", "W:right"),
    4: ("E:left", "W:left"),
}
PHASE_ORDER = (1, 2, 3, 4)

_STOPPED_SPEED = 0.1      # m/s, below this a step counts as waiting
_AT_LINE_POS = 0.5        # m, head closer than this is "at the line"


class CrashInvariantError(AssertionError):
    pass


class ConservationError(AssertionError):
    pass


class InsufficientBudgetError(ValueError):
    pass


@dataclass(slots=True)
class Vehicle:
    vid: int
    approach: str
    intent: str
    pos: float                 # meters from front bumper to stop line
    speed: float
    wait_s: float = 0.0
    distance_m: float = 0.0
    travel_time_s: float = 0.0
    crossed_t: Optional[float] = None

    @property
    def lane(self) -> str:
        return f"{self.approach}:{self.intent}"


@dataclass
class TrafficState:
    """The intersection at one instant.

    ``lanes`` holds exactly the keys of LANE_KEYS, as ``spawn_vehicles``
    makes it, so a pass over the lanes walks a fixed tuple of them.  Each
    lane lists its vehicles front to back: ``spawn_vehicles`` and ``step``
    leave no vehicle nearer the line than the one ahead of it, which lets
    the encoder merge the lanes without sorting them.
    """

    time_s: float
    phase: int
    phase_onset_s: float
    lanes: dict[str, list[Vehicle]]
    crossed: list[Vehicle]
    next_release: dict[str, float]
    spawned: int

    def check_invariants(self, cfg: TrafficConfig) -> None:
        """Raise if spacing or vehicle conservation is violated.

        One pass over the lanes checks spacing and counts the vehicles on
        the road; the first lane in sorted order with a short gap names it.
        """
        min_gap = cfg.headway_m - 1e-9
        active = 0
        for key in _SORTED_LANE_KEYS:
            q = self.lanes[key]
            active += len(q)
            lead = None
            for follow in q:
                if lead is not None:
                    gap = follow.pos - lead.pos
                    if gap < min_gap:
                        raise CrashInvariantError(
                            f"lane {key}: vehicles {lead.vid} and "
                            f"{follow.vid} separated by {gap:.3f} m "
                            f"at t={self.time_s:.1f}")
                lead = follow
        if active + len(self.crossed) != self.spawned:
            raise ConservationError(
                f"{self.spawned} spawned but {active} active + "
                f"{len(self.crossed)} crossed at t={self.time_s:.1f}")


def spawn_vehicles(cfg: TrafficConfig, rng: RngStream) -> TrafficState:
    """Place vehicles uniformly on the approaches with legal spacing.

    Approach and intent are uniform; initial distance to the stop line is
    uniform on [0, area]; vehicles in the same lane are pushed upstream as
    needed so consecutive spacing is at least the safety headway (so the
    initial state already satisfies the crash invariant).
    """
    lanes: dict[str, list[Vehicle]] = {k: [] for k in LANE_KEYS}
    for vid in range(1, cfg.num_vehicles + 1):
        approach = APPROACHES[rng.integers(0, len(APPROACHES))]
        intent = INTENTS[rng.integers(0, len(INTENTS))]
        pos = rng.uniform(0.0, cfg.area_m)
        v = Vehicle(vid=vid, approach=approach, intent=intent,
                    pos=float(pos), speed=cfg.free_flow_speed_mps)
        lanes[v.lane].append(v)
    for key in LANE_KEYS:
        q = sorted(lanes[key], key=lambda v: (v.pos, v.vid))
        for i in range(1, len(q)):
            q[i].pos = max(q[i].pos, q[i - 1].pos + cfg.headway_m)
        lanes[key] = q
    return TrafficState(
        time_s=0.0, phase=PHASE_ORDER[0], phase_onset_s=0.0, lanes=lanes,
        crossed=[], next_release={k: -math.inf for k in LANE_KEYS},
        spawned=cfg.num_vehicles)


def _apply_phase_request(state: TrafficState, request: int,
                         cfg: TrafficConfig) -> None:
    """Adopt a requested phase, honoring the minimum green time.

    The request at t=0 picks the opening phase unconditionally.  A switch
    restarts the discharge clock of newly green lanes whose head vehicle is
    stopped at the line (startup lost time).
    """
    if request not in PHASE_MOVEMENTS:
        return
    t = state.time_s
    if request == state.phase:
        return
    if t > 0.0 and (t - state.phase_onset_s) < cfg.min_green_s - 1e-9:
        return
    state.phase = request
    state.phase_onset_s = t
    for key in PHASE_MOVEMENTS[request]:
        q = state.lanes[key]
        if q and q[0].pos <= _AT_LINE_POS and q[0].speed < _STOPPED_SPEED:
            state.next_release[key] = max(
                state.next_release[key], t + cfg.startup_delay_s)


def step(state: TrafficState, cfg: TrafficConfig,
         phase_request: Optional[int] = None) -> TrafficState:
    """Advance the intersection by one dt.

    Per lane, front to back: the head may cross if its movement is allowed
    and the lane's discharge clock has elapsed (one crossing per saturation
    headway per lane); everyone else advances at free flow speed, clamped
    by the stop line and by the leader plus safety headway.  Only heads
    cross, so a lane loses a prefix of its queue.

    A follower already at its floor (exactly one headway behind where its
    leader ends the step; the floor is at least headway, above 0) stays
    put, so it gets speed 0.0 and travel_time_s and wait_s += dt and
    nothing else: the full update would move it by +0.0, and adding +0.0
    changes no bit of a distance, a sum of moves that starts at +0.0.
    """
    if phase_request is not None:
        _apply_phase_request(state, phase_request, cfg)
    t, dt = state.time_s, cfg.dt_s
    v_free = cfg.free_flow_speed_mps
    travel = v_free * dt
    t_end = t + dt - 1e-12
    headway = cfg.headway_m
    lanes, release, crossed = state.lanes, state.next_release, state.crossed
    green = PHASE_MOVEMENTS[state.phase]

    for key in _SORTED_LANE_KEYS:
        q = lanes[key]
        if not q:
            continue
        is_green = key in green
        front_pos: Optional[float] = None
        n_crossed = 0
        for veh in q:
            pos0 = veh.pos
            if front_pos is not None:
                floor = front_pos + headway
                if pos0 == floor:
                    veh.speed = 0.0
                    veh.travel_time_s += dt
                    veh.wait_s += dt
                    front_pos = floor
                    continue
                # max(desired, floor), ties to desired.
                desired = pos0 - travel
                new_pos = floor if floor > desired else desired
            elif pos0 < travel:
                # Head reaches the stop line inside this step.
                t_line = t + pos0 / v_free
                t_cross = max(t_line, release[key])
                if is_green and t_cross < t_end:
                    veh.distance_m += pos0
                    veh.travel_time_s += t_cross - t
                    veh.speed = v_free
                    veh.crossed_t = t_cross
                    crossed.append(veh)
                    release[key] = t_cross + cfg.discharge_headway_s
                    n_crossed += 1
                    continue
                new_pos = 0.0
            else:
                new_pos = pos0 - travel
            moved = pos0 - new_pos
            speed = moved / dt
            veh.speed = speed
            veh.distance_m += moved
            veh.travel_time_s += dt
            if speed < _STOPPED_SPEED:
                veh.wait_s += dt
            veh.pos = new_pos
            front_pos = new_pos
        if n_crossed:
            del q[:n_crossed]

    state.time_s = t + dt
    return state


# ---------------------------------------------------------------------------
# Observation encoding


class SignalController(Protocol):
    def decide(self, payload: str, t: float) -> int: ...


@dataclass(frozen=True)
class EncodedObservation:
    kind: str                  # "vue" or "rsu"
    payload: str               # JSON text, within the byte budget
    foreground_fraction: float
    dropped_vehicles: int


def encode_observation(state: TrafficState, kind: str,
                       cfg: TrafficConfig) -> EncodedObservation:
    """Serialize what a sensor of the given kind can see, within the budget.

    Foreground (always kept): time, current phase, per-lane queue summary.
    Background (dropped farthest-first under pressure): per-vehicle rows,
    by rounded position, then lane name, then order in the lane.  The
    lanes' visible queues are merged in that order; a lane whose raw
    positions decrease somewhere is first stably sorted by rounded
    position, so the rows are those one sort of every row would give.
    Raises InsufficientBudgetError when even the foreground alone does not
    fit the byte budget, before any row is looked at.
    """
    if kind not in ("vue", "rsu"):
        raise ValueError(f"unknown observation kind {kind!r}")
    # The text json.dumps(..., sort_keys=True, separators=(",", ":")) gives:
    # keys in sorted order, and numbers as their repr, which is how json
    # formats an int or a finite float (every number a state holds).
    depth = None if kind == "vue" else cfg.visible_depth
    summaries = []
    queues = []
    n_visible = 0
    for key in _SORTED_LANE_KEYS:
        q = state.lanes[key]
        # The roadside top view sees at most visible_depth vehicles per
        # lane and no waits.
        visible = q if depth is None else q[:depth]
        if depth is None and q:
            summaries.append(f'{_LANE_JSON[key]}:{{"q":{len(q)},'
                             f'"w":{round(q[0].wait_s, 1)!r}}}')
        else:
            summaries.append(f'{_LANE_JSON[key]}:{{"q":{len(visible)}}}')
        if visible:
            queues.append((key, visible))
            n_visible += len(visible)
    foreground = (f'{{"lanes":{{{",".join(summaries)}}},'
                  f'"phase":{state.phase!r},"t":{round(state.time_s, 1)!r}}}')
    # The output is ASCII (json escapes the rest), so characters are bytes.
    fg_bytes = len(foreground)
    if fg_bytes > cfg.byte_budget:
        raise InsufficientBudgetError(
            f"foreground needs {fg_bytes} bytes, budget is {cfg.byte_budget}")

    # round never decreases, so a lane whose raw positions never decrease
    # is already in row order; only another lane is sorted.  The heap holds
    # one entry per lane, so two entries differ in the lane name: the heap
    # never compares past it, and a rounded-position tie goes to the lower
    # name, as a stable sort of every row by (pos, lane) would.  -0.0 and
    # 0.0 compare equal in both.
    heap = []
    for key, visible in queues:
        if len(visible) > 1:
            positions = list(map(_POS, visible))
            if positions != sorted(positions):
                visible = sorted(visible, key=lambda v: round(v.pos, 1))
        heap.append((round(visible[0].pos, 1), key, 0, visible))
    heapify(heap)
    # "vehicles" sorts last, so k >= 1 rows cost the foreground without its
    # closing brace, ',"vehicles":[', the rows, k - 1 commas and ']}': that
    # is fg_bytes + 13 plus the sum of (row bytes + 1).  Every row costs at
    # least one byte, so the first row that does not fit ends the list.
    room = cfg.byte_budget - fg_bytes - 13
    texts = []
    while heap:
        pos, key, i, visible = heap[0]
        text = (f'{{"lane":{_LANE_JSON[key]},"pos":{pos!r},'
                f'"v":{round(visible[i].speed, 1)!r}}}')
        room -= len(text) + 1
        if room < 0:
            break
        texts.append(text)
        i += 1
        if i < len(visible):
            heapreplace(heap, (round(visible[i].pos, 1), key, i, visible))
        else:
            heappop(heap)
    payload = foreground
    if texts:
        payload = f'{foreground[:-1]},"vehicles":[{",".join(texts)}]}}'
    return EncodedObservation(
        kind=kind, payload=payload,
        foreground_fraction=fg_bytes / len(payload),
        dropped_vehicles=n_visible - len(texts))


# ---------------------------------------------------------------------------
# Controllers


GREEN_S = 10.0          # round-robin green time per phase
WAIT_WEIGHT = 0.5       # greedy pressure per second of head wait
SWITCH_MARGIN = 4.0     # greedy pressure lead needed to switch phase


class RoundRobinController:
    """Fixed cycle, GREEN_S of green per phase, observation-blind."""

    def decide(self, payload: str, t: float) -> int:
        idx = int(t // GREEN_S) % len(PHASE_ORDER)
        return PHASE_ORDER[idx]


class QueueGreedyController:
    """Serve the phase with the most pressure: queued vehicles plus aged
    head waits.

    Works from the encoded observation only, so its information quality is
    exactly the sensor's: the connected-vehicle view reports exact queues
    and head waits, the roadside view reports capped queues and no waits,
    and the missing terms simply contribute zero.  The wait term keeps
    low-volume movements (left turns) from starving behind the heavy
    straight phases.  Switching requires beating the current phase by
    SWITCH_MARGIN pressure units; without that hysteresis the controller
    flip-flops between near-tied phases and pays the startup lost time each
    time.
    """

    def decide(self, payload: str, t: float) -> int:
        doc = json.loads(payload)
        lanes = doc.get("lanes", {})
        current = int(doc.get("phase", PHASE_ORDER[0]))
        scores = {}
        for p in PHASE_ORDER:
            pressure = 0.0
            for k in PHASE_MOVEMENTS[p]:
                entry = lanes.get(k, {})
                pressure += int(entry.get("q", 0))
                pressure += WAIT_WEIGHT * float(entry.get("w", 0.0))
            scores[p] = pressure
        best = max(scores.values())
        if scores.get(current, 0.0) >= best - SWITCH_MARGIN:
            return current
        winners = [p for p in PHASE_ORDER if scores[p] == best]
        return winners[0]


_PHASE_RE = re.compile(r"phase\s*([1-4])", re.IGNORECASE)

TRAFFIC_PROMPT_TEMPLATE = (
    "You control the signal of a four-approach intersection.\n"
    "Phases: 1 = north-south straight and right turns, 2 = north-south left "
    "turns, 3 = east-west straight and right turns, 4 = east-west left "
    "turns.\n"
    "Pick the phase that clears the most queued vehicles soonest.\n"
    "Observation (JSON): {payload}\n"
    "Reply with the phase to serve as 'phase k' where k is 1, 2, 3 or 4.")


class EngineController:
    """Delegates the phase choice to a text engine; holds on bad output.

    The last 'phase k' token in the response wins.  Anything unparseable
    keeps the current phase rather than guessing; when the observation does
    not carry a phase from PHASE_ORDER either, the first phase is chosen.
    """

    def __init__(self, engine: ProposalEngine):
        self.engine = engine

    def decide(self, payload: str, t: float) -> int:
        raw = self.engine.propose(TRAFFIC_PROMPT_TEMPLATE.format(payload=payload))
        matches = _PHASE_RE.findall(raw)
        if not matches:
            try:
                current = json.loads(payload).get("phase")
            except (ValueError, AttributeError):
                current = None
            # An int from PHASE_ORDER only: not True, 2.0 or 9.
            if type(current) is int and current in PHASE_ORDER:
                return current
            return PHASE_ORDER[0]
        return int(matches[-1])


# ---------------------------------------------------------------------------
# Episode driver


@dataclass(frozen=True)
class EpisodeResult:
    metrics: dict[str, float]
    state: TrafficState


def run_episode(cfg: TrafficConfig, controller: SignalController,
                rng: RngStream, observation: str = "vue") -> EpisodeResult:
    """Simulate one episode under a controller and sensing mode.

    The controller is polled every decision interval with a freshly encoded
    observation; both invariants are checked after every step.  KPIs:
    time-mean speed (total distance over total travel time), vehicles
    crossed, and mean accumulated waiting time per vehicle.
    """
    state = spawn_vehicles(cfg, rng.substream("spawn"))
    n_steps = int(round(cfg.episode_s / cfg.dt_s))
    interval_steps = max(1, int(round(cfg.decision_interval_s / cfg.dt_s)))

    for k in range(n_steps):
        request: Optional[int] = None
        if k % interval_steps == 0:
            obs = encode_observation(state, observation, cfg)
            request = controller.decide(obs.payload, state.time_s)
        step(state, cfg, request)
        state.check_invariants(cfg)

    everyone = state.crossed + [v for key in _SORTED_LANE_KEYS
                                for v in state.lanes[key]]
    # Left folds in this order: builtin sum() compensates from Python 3.12
    # on, which would change the KPIs' last bits with the interpreter.
    total_dist = total_time = total_wait = 0.0
    for v in everyone:
        total_dist += v.distance_m
        total_time += v.travel_time_s
        total_wait += v.wait_s
    avg_speed = total_dist / total_time if total_time > 0 else 0.0
    # The config spawns at least one vehicle and conservation keeps them all.
    mean_wait = total_wait / len(everyone)
    metrics = {
        "avg_speed_mps": avg_speed,
        "throughput_veh": float(len(state.crossed)),
        "mean_wait_s": mean_wait,
        "episode_s": n_steps * cfg.dt_s,
        "num_vehicles": float(cfg.num_vehicles),
    }
    return EpisodeResult(metrics=metrics, state=state)
