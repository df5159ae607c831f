"""Intersection kinematics, invariants, observation encoding, controllers."""

import copy
import dataclasses
import json
import math
import struct
from pathlib import Path

import pytest
import scalar_oracle as oracle
from hypothesis import given, settings, strategies as st

from autocomm.configs import ConfigError, TrafficConfig, build_scenario
from autocomm.rng import stream
from autocomm.traffic import (
    LANE_KEYS,
    PHASE_MOVEMENTS,
    PHASE_ORDER,
    ConservationError,
    CrashInvariantError,
    EngineController,
    InsufficientBudgetError,
    QueueGreedyController,
    RoundRobinController,
    TrafficState,
    Vehicle,
    encode_observation,
    run_episode,
    spawn_vehicles,
    step,
)


REFERENCE = build_scenario(
    (Path(__file__).resolve().parent.parent / "docs" / "config-schema"
     / "traffic.json").read_text(encoding="utf-8"))


def empty_state(phase=1, time_s=0.0, onset=0.0, spawned=0):
    return TrafficState(
        time_s=time_s, phase=phase, phase_onset_s=onset,
        lanes={k: [] for k in LANE_KEYS}, crossed=[],
        next_release={k: -math.inf for k in LANE_KEYS}, spawned=spawned)


def put(state, vid, lane, pos, speed=14.0, wait_s=0.0):
    approach, intent = lane.split(":")
    veh = Vehicle(vid=vid, approach=approach, intent=intent, pos=pos,
                  speed=speed, wait_s=wait_s)
    state.lanes[lane].append(veh)
    state.spawned += 1
    return veh


# ---------------------------------------------------------------------------
# Spawning


def test_spawn_respects_spacing_and_conservation():
    cfg = TrafficConfig()
    state = spawn_vehicles(cfg, stream(1, "traffic/spawn"))
    state.check_invariants(cfg)
    assert state.spawned == 80
    vids = [v.vid for q in state.lanes.values() for v in q]
    assert sorted(vids) == list(range(1, 81))
    for q in state.lanes.values():
        for lead, follow in zip(q, q[1:]):
            assert follow.pos - lead.pos >= cfg.headway_m - 1e-12
        assert all(v.speed == cfg.free_flow_speed_mps for v in q)
        assert all(v.pos >= 0.0 for v in q)


def test_spawn_is_deterministic():
    cfg = TrafficConfig(num_vehicles=30)
    a = spawn_vehicles(cfg, stream(9, "traffic/spawn"))
    b = spawn_vehicles(cfg, stream(9, "traffic/spawn"))
    flat = lambda s: [(v.vid, v.lane, v.pos) for k in sorted(s.lanes)
                      for v in s.lanes[k]]
    assert flat(a) == flat(b)


def test_spawn_zero_vehicles_raises():
    # An episode with no vehicle is refused where the config is read, so
    # no spawn or run ever sees one.
    with pytest.raises(ConfigError) as err:
        TrafficConfig(num_vehicles=0)
    assert err.value.field == "traffic.num_vehicles"


# ---------------------------------------------------------------------------
# Kinematics


def test_free_flow_time_mean_speed_is_exact():
    cfg = TrafficConfig()
    state = empty_state()
    # Phase-1 lanes only, spaced beyond the discharge headway at free flow
    # (14 m/s * 2 s = 28 m), so nobody ever brakes.
    put(state, 1, "N:straight", 40.0)
    put(state, 2, "N:straight", 80.0)
    put(state, 3, "S:right", 60.0)
    for _ in range(20):
        step(state, cfg)
        state.check_invariants(cfg)
    assert len(state.crossed) == 3
    total_d = sum(v.distance_m for v in state.crossed)
    total_t = sum(v.travel_time_s for v in state.crossed)
    assert total_d / total_t == pytest.approx(14.0, rel=1e-9)
    assert all(v.wait_s == 0.0 for v in state.crossed)
    by_vid = {v.vid: v for v in state.crossed}
    assert by_vid[1].crossed_t == pytest.approx(40.0 / 14.0)
    assert by_vid[2].crossed_t == pytest.approx(80.0 / 14.0)


def test_discharge_headway_spaces_crossings():
    cfg = TrafficConfig()
    state = empty_state()
    put(state, 1, "N:straight", 5.0)
    put(state, 2, "N:straight", 10.0)
    while len(state.crossed) < 2 and state.time_s < 20:
        step(state, cfg)
        state.check_invariants(cfg)
    first, second = sorted(state.crossed, key=lambda v: v.crossed_t)
    assert first.crossed_t == pytest.approx(5.0 / 14.0)
    assert second.crossed_t - first.crossed_t == pytest.approx(
        cfg.discharge_headway_s)
    assert second.wait_s > 0.0


def test_startup_delay_after_switch():
    cfg = TrafficConfig()
    state = empty_state(phase=1, time_s=10.0, onset=0.0)
    put(state, 1, "E:straight", 0.0, speed=0.0)
    step(state, cfg, phase_request=3)
    assert state.phase == 3
    while not state.crossed and state.time_s < 20:
        step(state, cfg)
    assert state.crossed[0].crossed_t == pytest.approx(
        10.0 + cfg.startup_delay_s)


def test_min_green_blocks_early_switch():
    cfg = TrafficConfig()
    state = empty_state(phase=1, time_s=2.0, onset=0.0)
    step(state, cfg, phase_request=3)
    assert state.phase == 1
    # At t=0 the first request picks the opening phase unconditionally.
    fresh = empty_state(phase=1, time_s=0.0)
    step(fresh, cfg, phase_request=3)
    assert fresh.phase == 3


def test_invalid_phase_request_is_ignored():
    cfg = TrafficConfig()
    state = empty_state(phase=2, time_s=30.0, onset=0.0)
    step(state, cfg, phase_request=7)
    assert state.phase == 2


def test_moving_head_gets_no_startup_delay():
    cfg = TrafficConfig()
    state = empty_state(phase=1, time_s=10.0, onset=0.0)
    put(state, 1, "E:straight", 20.0, speed=14.0)
    step(state, cfg, phase_request=3)
    while not state.crossed and state.time_s < 20:
        step(state, cfg)
    assert state.crossed[0].crossed_t == pytest.approx(10.0 + 20.0 / 14.0)


# ---------------------------------------------------------------------------
# Invariants


def test_crash_invariant_detects_overlap():
    cfg = TrafficConfig()
    state = empty_state()
    put(state, 1, "N:left", 10.0)
    put(state, 2, "N:left", 12.0)
    with pytest.raises(CrashInvariantError, match="N:left"):
        state.check_invariants(cfg)


def test_conservation_detects_loss():
    cfg = TrafficConfig()
    state = empty_state()
    put(state, 1, "N:left", 10.0)
    state.spawned = 5
    with pytest.raises(ConservationError, match="5 spawned"):
        state.check_invariants(cfg)


# ---------------------------------------------------------------------------
# Observation encoding


def congested_state():
    state = empty_state(phase=2, time_s=33.26)
    for i in range(12):
        put(state, i + 1, "N:left", 5.0 * i, speed=0.0,
            wait_s=7.34 if i == 0 else 1.0)
    return state


def test_vue_sees_exact_queue_and_head_wait():
    cfg = TrafficConfig(byte_budget=100000)
    obs = encode_observation(congested_state(), "vue", cfg)
    doc = json.loads(obs.payload)
    assert doc["t"] == 33.3 and doc["phase"] == 2
    assert doc["lanes"]["N:left"] == {"q": 12, "w": 7.3}
    assert doc["lanes"]["S:left"] == {"q": 0}
    assert len(doc["vehicles"]) == 12
    assert obs.dropped_vehicles == 0


def test_rsu_saturates_and_hides_waits():
    cfg = TrafficConfig(byte_budget=100000)
    obs = encode_observation(congested_state(), "rsu", cfg)
    doc = json.loads(obs.payload)
    assert doc["lanes"]["N:left"] == {"q": 8}
    assert "w" not in doc["lanes"]["N:left"]
    assert len(doc["vehicles"]) == cfg.visible_depth


def test_encode_drops_farthest_rows_first():
    state = congested_state()
    cfg_full = TrafficConfig(byte_budget=100000)
    full = json.loads(encode_observation(state, "vue", cfg_full).payload)
    tight = TrafficConfig(
        byte_budget=len(json.dumps(full, sort_keys=True,
                                   separators=(",", ":"))) - 1)
    obs = encode_observation(state, "vue", tight)
    doc = json.loads(obs.payload)
    kept = doc.get("vehicles", [])
    assert obs.dropped_vehicles >= 1
    assert kept == full["vehicles"][:len(kept)]  # nearest rows survive
    assert doc["lanes"] == full["lanes"]         # foreground untouched


def test_encode_budget_too_small_for_foreground():
    cfg = TrafficConfig(byte_budget=10)
    with pytest.raises(InsufficientBudgetError):
        encode_observation(empty_state(), "vue", cfg)


def test_encode_unknown_kind():
    with pytest.raises(ValueError, match="unknown observation kind"):
        encode_observation(empty_state(), "lidar", TrafficConfig())


def test_payload_is_compact_sorted_json():
    obs = encode_observation(empty_state(), "vue",
                             TrafficConfig(byte_budget=100000))
    doc = json.loads(obs.payload)
    assert obs.payload == json.dumps(doc, sort_keys=True,
                                     separators=(",", ":"))


@st.composite
def sensed_states(draw):
    """Random queues on random lanes, from empty to congested."""
    state = empty_state(phase=draw(st.sampled_from(PHASE_ORDER)),
                        time_s=draw(st.floats(0.0, 3600.0)))
    speed = st.floats(0.0, 30.0)
    for lane in draw(st.lists(st.sampled_from(LANE_KEYS), max_size=12)):
        for pos in draw(st.lists(st.floats(-3.0, 400.0), max_size=15)):
            put(state, state.spawned + 1, lane, pos, speed=draw(speed),
                wait_s=draw(st.floats(0.0, 120.0)))
    return state


def _encode_or_error(encode, state, kind, cfg):
    try:
        return encode(state, kind, cfg)
    except InsufficientBudgetError as exc:
        return ("InsufficientBudgetError", str(exc))


@settings(max_examples=300, deadline=None)
@given(state=sensed_states(), kind=st.sampled_from(["vue", "rsu"]),
       depth=st.integers(1, 10), data=st.data())
def test_encoder_matches_reserializing_oracle(state, kind, depth, data):
    roomy = TrafficConfig(visible_depth=depth, byte_budget=10**7)
    doc = json.loads(oracle.encode_observation(state, kind, roomy).payload)
    full = len(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    doc.pop("vehicles", None)
    foreground = len(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    # Exactly at the full or foreground size, one byte either side, or
    # anywhere between (cutting rows mid-list).
    base = data.draw(st.sampled_from([full, foreground])
                     | st.integers(foreground - 40, full + 40))
    budget = base + data.draw(st.sampled_from([-1, 0, 1]))
    cfg = TrafficConfig(visible_depth=depth, byte_budget=budget)
    assert _encode_or_error(encode_observation, state, kind, cfg) == \
        _encode_or_error(oracle.encode_observation, state, kind, cfg)


def tied_state():
    """Rows whose rounded positions tie across lanes and within a lane
    (4.96, 5.0 and 5.04 all read 5.0), -0.04 and -0.0 positions that read
    -0.0 beside 0.0 and 0.04, and lanes listed out of position order."""
    state = empty_state(phase=3, time_s=12.34)
    for lane, rows in (("N:left", [(5.04, 3.3), (4.96, 0.0), (5.0, 13.96),
                                   (-0.04, -0.04)]),
                       ("E:left", [(5.0, 1.25), (-0.0, 0.0), (0.04, 7.0)]),
                       ("S:right", [(30.0, 14.0), (4.96, 2.5),
                                    (-0.04, 0.05)]),
                       ("W:straight", [(0.0, 9.99), (5.0, 0.15)])):
        for pos, speed in rows:
            put(state, state.spawned + 1, lane, pos, speed=speed,
                wait_s=0.1 * state.spawned)
    return state


@pytest.mark.parametrize("depth", [1, 2, 8])
@pytest.mark.parametrize("kind", ["vue", "rsu"])
def test_encoder_cut_matches_the_oracle_at_every_budget(kind, depth):
    state = tied_state()
    roomy = TrafficConfig(visible_depth=depth, byte_budget=10**7)
    full = oracle.encode_observation(state, kind, roomy).payload
    doc = json.loads(full)
    rows = doc.pop("vehicles")
    foreground = len(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    if kind == "vue":
        # Both rounded zeros and a three-way tie survive into the rows.
        assert ',"pos":-0.0,' in full and ',"pos":0.0,' in full
        assert [r["pos"] for r in rows].count(5.0) >= 3
    budgets = range(foreground - 1, len(full) + 2)
    seen = [_encode_or_error(encode_observation, state, kind,
                             TrafficConfig(visible_depth=depth,
                                           byte_budget=budget))
            for budget in budgets]
    assert seen == [_encode_or_error(oracle.encode_observation, state, kind,
                                     TrafficConfig(visible_depth=depth,
                                                   byte_budget=budget))
                    for budget in budgets]
    # Below the foreground, then every cut from no row to all of them.
    assert isinstance(seen[0], tuple)
    assert {obs.dropped_vehicles for obs in seen[1:]} == \
        set(range(len(rows) + 1))
    assert seen[-1].payload == full


def out_of_order_state():
    """Lanes not front to back: raw descending rows that tie after rounding
    (5.04 before 4.96), a truly reversed lane, and one in order to merge
    them with."""
    state = empty_state(phase=1, time_s=7.25)
    for lane, rows in (("N:left", [(5.04, 1.0), (4.96, 2.0), (5.0, 3.0),
                                   (0.5, 4.0)]),
                       ("N:right", [(40.0, 5.0), (30.0, 6.0), (20.0, 7.0),
                                    (10.0, 8.0)]),
                       ("S:left", [(2.0, 9.0), (40.0, 10.0), (30.0, 11.0),
                                   (20.0, 12.0)]),
                       ("E:straight", [(0.0, 13.0), (5.0, 14.0),
                                       (20.0, 15.0)])):
        for pos, speed in rows:
            put(state, state.spawned + 1, lane, pos, speed=speed,
                wait_s=0.5 * state.spawned)
    return state


@pytest.mark.parametrize("depth", [1, 2, 3, 8])
@pytest.mark.parametrize("kind", ["vue", "rsu"])
def test_out_of_order_lanes_are_cut_as_in_the_oracle(kind, depth):
    state = out_of_order_state()
    roomy = TrafficConfig(visible_depth=depth, byte_budget=10**7)
    full = oracle.encode_observation(state, kind, roomy).payload
    doc = json.loads(full)
    doc.pop("vehicles")
    foreground = len(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    cfgs = [TrafficConfig(visible_depth=depth, byte_budget=budget)
            for budget in range(foreground - 1, len(full) + 2)]
    seen = [_encode_or_error(encode_observation, state, kind, cfg)
            for cfg in cfgs]
    assert seen == [_encode_or_error(oracle.encode_observation, state, kind,
                                     cfg) for cfg in cfgs]
    assert seen[-1].payload == full
    rows = [(r["lane"], r["pos"]) for r in json.loads(full)["vehicles"]]
    if kind == "rsu" and depth == 2:
        # Only the visible slice is sorted: the roadside view of the
        # reversed lanes is 40 and 30 m (after 2 m on S:left), not the
        # lane's nearest two.
        assert sorted(p for lane, p in rows if lane == "N:right") == \
            [30.0, 40.0]
        assert sorted(p for lane, p in rows if lane == "S:left") == \
            [2.0, 40.0]
    if kind == "vue":
        # The raw-descending lane's three rows at 5.0 keep their lane order.
        speeds = [r["v"] for r in json.loads(full)["vehicles"]
                  if r["lane"] == "N:left" and r["pos"] == 5.0]
        assert speeds == [1.0, 2.0, 3.0]


def test_encode_rounds_only_the_rows_it_emits(monkeypatch):
    # One encode of a 160-vehicle connected-vehicle view at the default
    # 512-byte budget rounds each lane's head wait and first position, the
    # clock, the speed of each row it formats (the kept ones and the one
    # that does not fit) and the position of each next row it queues:
    # never every visible vehicle.
    cfg = dataclasses.replace(REFERENCE.traffic, num_vehicles=160)
    assert cfg.byte_budget == 512
    state = spawn_vehicles(cfg, stream(13, "traffic").substream("spawn"))
    for k in range(40):
        step(state, cfg, PHASE_ORDER[0] if k == 0 else None)
    expected = encode_observation(state, "vue", cfg)
    calls = []

    def counting(number, ndigits=None):
        calls.append(number)
        return round(number, ndigits)

    # A module global is found before the builtin.
    monkeypatch.setattr("autocomm.traffic.round", counting, raising=False)
    obs = encode_observation(state, "vue", cfg)
    assert obs == expected
    lanes = sum(1 for q in state.lanes.values() if q)
    visible = sum(len(q) for q in state.lanes.values())
    kept = visible - obs.dropped_vehicles
    assert obs.dropped_vehicles > visible // 2
    assert len(calls) <= 2 * lanes + 2 * kept + 2, (len(calls), visible)


# ---------------------------------------------------------------------------
# Differential: step, invariant check and encoder against the scalar oracle


@st.composite
def traffic_configs(draw):
    """Configs that crowd the stop line: short approaches, headways down to
    half a metre, discharge clocks shorter than a step (so several heads
    cross in one step), no minimum green, integer or float speeds."""
    dt = draw(st.sampled_from([0.1, 0.25, 0.5, 1.0]))
    return TrafficConfig(
        num_vehicles=draw(st.integers(1, 200)),
        area_m=draw(st.floats(1.0, 200.0)),
        free_flow_speed_mps=draw(st.floats(1.0, 30.0) | st.integers(1, 30)),
        headway_m=draw(st.floats(0.5, 10.0)),
        decision_interval_s=draw(st.floats(0.1, 10.0)),
        min_green_s=draw(st.just(0.0) | st.floats(0.0, 10.0)),
        episode_s=dt * draw(st.integers(1, 60)),
        dt_s=dt,
        startup_delay_s=draw(st.floats(0.0, 3.0)),
        discharge_headway_s=draw(st.floats(0.0, dt, exclude_max=True)
                                 | st.floats(0.0, 4.0)),
        visible_depth=draw(st.integers(1, 10)))


def _error_or_none(check, *args):
    try:
        check(*args)
    except (CrashInvariantError, ConservationError) as exc:
        return type(exc).__name__, str(exc)
    return None


@st.composite
def crowding_configs(draw):
    """Short episodes whose lanes pack tight: headways down to 1e-12 m, far
    below check_invariants' 1e-9 m slack (which then lets a gap just below
    zero pass), so a queue's rows tie after rounding; varied steps and
    speeds."""
    dt = draw(st.floats(0.05, 2.0))
    return TrafficConfig(
        num_vehicles=draw(st.integers(1, 60)),
        area_m=draw(st.floats(1.0, 200.0)),
        free_flow_speed_mps=draw(st.floats(0.5, 40.0) | st.integers(1, 40)),
        headway_m=draw(st.sampled_from([1e-12, 1e-9, 0.05])
                       | st.floats(1e-12, 10.0)),
        decision_interval_s=draw(st.floats(0.1, 5.0)),
        min_green_s=draw(st.just(0.0) | st.floats(0.0, 5.0)),
        episode_s=dt * draw(st.integers(1, 20)),
        dt_s=dt,
        startup_delay_s=draw(st.floats(0.0, 3.0)),
        discharge_headway_s=draw(st.floats(0.0, 4.0)),
        visible_depth=draw(st.integers(1, 10)))


def _front_to_back(state):
    return all(a.pos <= b.pos for q in state.lanes.values()
               for a, b in zip(q, q[1:]))


@settings(max_examples=100, deadline=None)
@given(cfg=crowding_configs(), seed=st.integers(0, 2 ** 64 - 1))
def test_lanes_stay_front_to_back_and_encode_as_in_the_oracle(cfg, seed):
    # The encoder's fast path takes a lane whose positions never decrease
    # as already in row order; spawn and every step must keep that.
    state = spawn_vehicles(cfg, stream(seed, "traffic/spawn"))
    assert _front_to_back(state)
    ctl = RoundRobinController()
    interval = max(1, int(round(cfg.decision_interval_s / cfg.dt_s)))
    for k in range(int(round(cfg.episode_s / cfg.dt_s))):
        request = None
        if k % interval == 0:
            for kind in ("vue", "rsu"):
                roomy = dataclasses.replace(cfg, byte_budget=10**7)
                full = oracle.encode_observation(state, kind, roomy).payload
                doc = json.loads(full)
                doc.pop("vehicles", None)
                foreground = len(json.dumps(doc, sort_keys=True,
                                            separators=(",", ":")))
                # Foreground only, all rows, and cuts between.
                span = len(full) - foreground
                for budget in {foreground + span * i // 4 for i in range(5)}:
                    tight = dataclasses.replace(cfg, byte_budget=budget)
                    assert encode_observation(state, kind, tight) == \
                        oracle.encode_observation(state, kind, tight)
            request = ctl.decide("", state.time_s)
        step(state, cfg, request)
        assert _front_to_back(state)


@settings(max_examples=200, deadline=None)
@given(cfg=traffic_configs(), seed=st.integers(0, 2 ** 64 - 1),
       kind=st.sampled_from(["vue", "rsu"]),
       controller=st.sampled_from([RoundRobinController,
                                   QueueGreedyController]),
       slack=st.integers(0, 300) | st.integers(0, 20000))
def test_episode_matches_scalar_oracle_step_by_step(cfg, seed, kind,
                                                    controller, slack):
    new = spawn_vehicles(cfg, stream(seed, "traffic/spawn"))
    old = copy.deepcopy(new)
    # The budget starts at the opening foreground's size; the foreground
    # grows with the clock and the waits, so a tight budget may later fail
    # on both sides alike.
    opening = json.loads(oracle.encode_observation(
        old, kind, dataclasses.replace(cfg, byte_budget=10**7)).payload)
    opening.pop("vehicles", None)
    cfg = dataclasses.replace(cfg, byte_budget=len(json.dumps(
        opening, sort_keys=True, separators=(",", ":"))) + slack)
    ctl = controller()
    interval = max(1, int(round(cfg.decision_interval_s / cfg.dt_s)))
    for k in range(int(round(cfg.episode_s / cfg.dt_s))):
        request = None
        if k % interval == 0:
            obs = _encode_or_error(encode_observation, new, kind, cfg)
            assert obs == _encode_or_error(oracle.encode_observation, old,
                                           kind, cfg)
            if isinstance(obs, tuple):
                return
            request = ctl.decide(obs.payload, new.time_s)
        step(new, cfg, request)
        oracle.step(old, cfg, request)
        # Every vehicle's fields, next_release, phase, clock, and crossed
        # in order.
        assert new == old
        failure = _error_or_none(new.check_invariants, cfg)
        assert failure == _error_or_none(oracle.check_invariants, old, cfg)
        if failure:
            return


def test_several_heads_cross_in_one_step_as_in_the_oracle():
    cfg = TrafficConfig(dt_s=1.0, discharge_headway_s=0.2, headway_m=1.0)
    new = empty_state()
    for vid, pos in enumerate((0.5, 1.5, 2.5, 3.5, 40.0), start=1):
        put(new, vid, "N:straight", pos)
    old = copy.deepcopy(new)
    step(new, cfg)
    oracle.step(old, cfg)
    assert new == old
    assert [v.vid for v in new.crossed] == [1, 2, 3, 4]
    assert [v.vid for v in new.lanes["N:straight"]] == [5]


@pytest.mark.parametrize("early_s", [0.0, 5e-13, 2e-12])
def test_head_due_at_the_step_end_crosses_as_in_the_oracle(early_s):
    # A discharge clock that runs out within 1e-12 s of the step's end
    # holds the head for the next step; one that runs out earlier does not.
    cfg = TrafficConfig(dt_s=0.1)
    new = empty_state(time_s=1.0)
    put(new, 1, "N:straight", 0.0, speed=0.0)
    new.next_release["N:straight"] = 1.0 + 0.1 - early_s
    old = copy.deepcopy(new)
    step(new, cfg)
    oracle.step(old, cfg)
    assert new == old
    assert len(new.crossed) == (early_s > 1e-12)


@pytest.mark.parametrize("fault", ["CrashInvariantError", "ConservationError"])
def test_invariant_error_texts_match_the_oracle(fault):
    cfg = TrafficConfig(num_vehicles=120)
    new = spawn_vehicles(cfg, stream(4, "traffic/spawn"))
    for _ in range(10):
        step(new, cfg)
    if fault == "CrashInvariantError":
        # A follower inside the headway in every lane that has one: both
        # checks must name the first lane in sorted order, the same pair
        # and the same gap.
        for q in new.lanes.values():
            if len(q) >= 2:
                q[1].pos = q[0].pos + cfg.headway_m / 3
    else:
        new.lanes[max(new.lanes, key=lambda k: len(new.lanes[k]))].pop()
    old = copy.deepcopy(new)
    got = _error_or_none(new.check_invariants, cfg)
    assert got is not None and got[0] == fault
    assert got == _error_or_none(oracle.check_invariants, old, cfg)


# ---------------------------------------------------------------------------
# Followers at their floor: step against the oracle, bit for bit


def _packed(*xs):
    return struct.pack(f"<{len(xs)}d", *xs)


def _hexes(*xs):
    return tuple(map(float.hex, xs))


def _vehicle_bits(v, bits):
    return (v.vid, v.approach, v.intent,
            bits(v.pos, v.speed, v.wait_s, v.distance_m, v.travel_time_s),
            None if v.crossed_t is None else bits(v.crossed_t))


def state_bits(state, bits=_packed):
    """Every field of a state with its floats as their IEEE 754 bytes (or
    float.hex texts), so that -0.0 and 0.0 differ, where dataclass ==
    takes them as equal."""
    return (bits(state.time_s, state.phase_onset_s), state.phase,
            state.spawned,
            [(key, [_vehicle_bits(v, bits) for v in state.lanes[key]])
             for key in sorted(state.lanes)],
            [_vehicle_bits(v, bits) for v in state.crossed],
            bits(*(state.next_release[key]
                   for key in sorted(state.next_release))))


def _step_both(new, old, cfg, request=None):
    step(new, cfg, request)
    oracle.step(old, cfg, request)
    # Bytes to compare, float.hex texts to read when they differ.
    assert state_bits(new) == state_bits(old), \
        (state_bits(new, _hexes), state_bits(old, _hexes))


def _followers_at_floor(q):
    """A head at the line with at least two vehicles behind it: a queue
    whose followers come to rest at their floor, one headway behind their
    leader."""
    return len(q) >= 3 and q[0].pos == 0.0


@pytest.mark.parametrize("num_vehicles", [80, 160])
@pytest.mark.parametrize("kind", ["vue", "rsu"])
@pytest.mark.parametrize("controller", [QueueGreedyController,
                                        RoundRobinController])
def test_reference_episodes_match_the_oracle_bit_for_bit(num_vehicles, kind,
                                                         controller):
    # The benchmark's traffic runs: the reference document at 80 and 160
    # vehicles, each for the full episode, on three seeds.
    cfg = dataclasses.replace(REFERENCE.traffic, num_vehicles=num_vehicles)
    n_steps = int(round(cfg.episode_s / cfg.dt_s))
    interval = max(1, int(round(cfg.decision_interval_s / cfg.dt_s)))
    for seed in (REFERENCE.seed, 13, 29):
        new = spawn_vehicles(cfg, stream(seed, "traffic").substream("spawn"))
        old = copy.deepcopy(new)
        ctl = controller()
        floor_steps = 0
        for k in range(n_steps):
            request = None
            if k % interval == 0:
                request = ctl.decide(
                    encode_observation(new, kind, cfg).payload, new.time_s)
            floor_steps += any(_followers_at_floor(q)
                               for q in new.lanes.values())
            _step_both(new, old, cfg, request)
        assert floor_steps > 0, seed


@pytest.mark.parametrize("speed", [14.0, 5e-324])
def test_a_negative_zero_head_on_red_steps_as_in_the_oracle(speed):
    # At 5e-324 m/s a step's travel underflows to 0.0 and the head never
    # reaches the line: the -0.0 stays.
    cfg = TrafficConfig(free_flow_speed_mps=speed)
    new = empty_state(phase=1, time_s=4.0)
    for vid, pos in enumerate((-0.0, 5.0, 10.0), start=1):
        put(new, vid, "E:straight", pos, speed=0.0)
    old = copy.deepcopy(new)
    _step_both(new, old, cfg)
    head = new.lanes["E:straight"][0]
    if speed == 14.0:
        # The line is +0.0, and moved / dt keeps the sign of -0.0 - 0.0.
        assert head.pos.hex() == "0x0.0p+0"
        assert head.speed.hex() == "-0x0.0p+0"
    else:
        assert head.pos.hex() == "-0x0.0p+0"
    _step_both(new, old, cfg)


@pytest.mark.parametrize("beyond", [False, True])
def test_a_follower_at_its_floor_stays_and_one_ulp_beyond_does_not(beyond):
    cfg = TrafficConfig()
    new = empty_state(phase=1)
    second = 2 * cfg.headway_m
    if beyond:
        second = math.nextafter(second, math.inf)
    for vid, pos in enumerate((0.0, cfg.headway_m, second, second + 5.0,
                               60.0), start=1):
        put(new, vid, "W:left", pos, speed=0.0)
    old = copy.deepcopy(new)
    for _ in range(3):
        _step_both(new, old, cfg)
    third = new.lanes["W:left"][2]
    assert third.pos == 2 * cfg.headway_m
    # Only a vehicle that closed up on its leader has moved at all.
    assert (third.distance_m > 0.0) == beyond
    assert third.wait_s == 3 * cfg.dt_s


def test_a_green_head_held_by_its_discharge_clock_as_in_the_oracle():
    cfg = TrafficConfig()
    new = empty_state(phase=1)
    for vid, pos in enumerate((0.0, 5.0, 10.0), start=1):
        put(new, vid, "N:straight", pos, speed=0.0)
    new.next_release["N:straight"] = 1.2
    old = copy.deepcopy(new)
    crossed = []
    for _ in range(4):
        _step_both(new, old, cfg)
        crossed.append(len(new.crossed))
    # Held through the steps ending at 0.5 and 1.0; the clock runs out
    # inside the step from 1.0.
    assert crossed == [0, 0, 1, 1]
    assert new.crossed[0].crossed_t == 1.2


def test_a_held_head_turned_green_waits_out_the_startup_delay():
    cfg = TrafficConfig()
    new = empty_state(phase=1, time_s=10.0, onset=0.0)
    for vid, pos in enumerate((0.0, 5.0, 10.0, 15.0), start=1):
        put(new, vid, "E:straight", pos, speed=0.0)
    old = copy.deepcopy(new)
    _step_both(new, old, cfg, 3)
    assert new.phase == 3
    assert new.next_release["E:straight"] == 10.0 + cfg.startup_delay_s
    while not new.crossed:
        _step_both(new, old, cfg)
    assert new.crossed[0].crossed_t == 10.0 + cfg.startup_delay_s
    _step_both(new, old, cfg)


def test_a_follower_inside_the_headway_steps_as_in_the_oracle():
    # As the invariant-text test builds it: in every lane with two or more
    # vehicles the second sits a third of a headway behind the head.
    cfg = TrafficConfig(num_vehicles=120)
    new = spawn_vehicles(cfg, stream(4, "traffic/spawn"))
    for _ in range(20):
        step(new, cfg)
    assert any(_followers_at_floor(q) for q in new.lanes.values())
    for q in new.lanes.values():
        if len(q) >= 2:
            q[1].pos = q[0].pos + cfg.headway_m / 3
    old = copy.deepcopy(new)
    _step_both(new, old, cfg)


def test_a_follower_one_headway_behind_a_moving_leader_as_in_the_oracle():
    # The leader travels 7.0 m this step and ends it at 3.0, exactly one
    # headway ahead of the follower, which stays put.  E:left is red.
    cfg = TrafficConfig()
    new = empty_state(phase=1)
    put(new, 1, "E:left", 10.0, speed=14.0)
    put(new, 2, "E:left", 8.0, speed=0.0)
    old = copy.deepcopy(new)
    _step_both(new, old, cfg)
    leader, follower = new.lanes["E:left"]
    assert leader.pos == 3.0 and follower.pos == 8.0
    assert follower.distance_m == 0.0 and follower.wait_s == cfg.dt_s
    for _ in range(3):
        _step_both(new, old, cfg)


def test_a_follower_at_its_floor_when_travel_underflows_as_in_the_oracle():
    # At 5e-324 m/s a step's travel underflows to 0.0: nobody moves, and
    # each follower stands exactly one headway behind its leader.
    cfg = TrafficConfig(free_flow_speed_mps=5e-324)
    new = empty_state(phase=1)
    for vid, pos in enumerate((3.0, 8.0, 13.0), start=1):
        put(new, vid, "S:straight", pos, speed=0.0)
    old = copy.deepcopy(new)
    for _ in range(3):
        _step_both(new, old, cfg)
    assert [v.pos for v in new.lanes["S:straight"]] == [3.0, 8.0, 13.0]
    assert [v.wait_s for v in new.lanes["S:straight"]] == [3 * cfg.dt_s] * 3


def test_run_episode_checks_the_invariants_after_every_step(monkeypatch):
    # The README's "checked every step": no lane, held or not, skips it.
    times = []
    check = TrafficState.check_invariants

    def counted(state, cfg):
        times.append(state.time_s)
        check(state, cfg)

    monkeypatch.setattr(TrafficState, "check_invariants", counted)
    cfg = REFERENCE.traffic
    res = run_episode(cfg, QueueGreedyController(),
                      stream(REFERENCE.seed, "traffic"))
    n_steps = int(round(cfg.episode_s / cfg.dt_s))
    assert len(times) == n_steps
    assert times == sorted(set(times)) and times[-1] == res.state.time_s


# ---------------------------------------------------------------------------
# Controllers


def test_round_robin_cycle():
    rr = RoundRobinController()
    assert [rr.decide("{}", t) for t in (0, 9.9, 10, 25, 35, 40)] == \
        [1, 1, 2, 3, 4, 1]


def payload(phase, lanes):
    return json.dumps({"phase": phase, "lanes": lanes})


def test_queue_greedy_switches_only_past_margin():
    ctl = QueueGreedyController()
    # Phase 3 leads by less than the margin: hold phase 1.
    near = payload(1, {"N:straight": {"q": 2}, "E:straight": {"q": 5}})
    assert ctl.decide(near, 0.0) == 1
    # Past the margin: switch.
    far = payload(1, {"N:straight": {"q": 2}, "E:straight": {"q": 7}})
    assert ctl.decide(far, 0.0) == 3


def test_queue_greedy_weighs_head_wait():
    ctl = QueueGreedyController()
    lanes = {"N:straight": {"q": 4}, "N:left": {"q": 2, "w": 14.0}}
    # Pressure: phase1 = 4, phase2 = 2 + 0.5*14 = 9 > 4 + margin.
    assert ctl.decide(payload(1, lanes), 0.0) == 2
    # The same queues without the wait field (roadside view) hold phase 1.
    blind = {"N:straight": {"q": 4}, "N:left": {"q": 2}}
    assert ctl.decide(payload(1, blind), 0.0) == 1


def test_queue_greedy_tie_prefers_lowest_phase():
    ctl = QueueGreedyController()
    # Phases 2 and 4 tie at 5, past the 4.0 margin over phase 1's 0.
    lanes = {"N:left": {"q": 5}, "E:left": {"q": 5}}
    assert ctl.decide(payload(1, lanes), 0.0) == 2


class Canned:
    """Engine that answers every prompt with one fixed text."""

    def __init__(self, text):
        self.text = text

    def propose(self, prompt):
        return self.text


def test_engine_controller_last_phase_token_wins():
    ctl = EngineController(Canned("phase 2 is tempting but phase 3"))
    assert ctl.decide(payload(1, {}), 0.0) == 3


def test_engine_controller_holds_on_unparseable():
    ctl = EngineController(Canned("hmm, not sure"))
    assert ctl.decide(payload(4, {}), 0.0) == 4
    assert ctl.decide("not json", 0.0) == PHASE_ORDER[0]


@pytest.mark.parametrize("observed", [
    '{"phase": 9}', "[1]", '{"phase": true}', '{"phase": 2.0}',
    '{"phase": [2]}', "null", '"phase 2"', "{}"])
def test_engine_controller_holds_only_a_valid_phase(observed):
    ctl = EngineController(Canned("no idea"))
    assert ctl.decide(observed, 0.0) == PHASE_ORDER[0]


def test_engine_controller_accepts_propose_objects():
    class Obj:
        def propose(self, prompt):
            assert "Observation (JSON):" in prompt
            return "Phase 2."
    assert EngineController(Obj()).decide(payload(1, {}), 0.0) == 2


# Replies mixing free text with near-miss and valid phase tokens.
_reply = st.lists(st.one_of(
    st.text(max_size=12),
    st.sampled_from(["phase", "Phase ", "PHASE\t", "phase 0", "phase 5",
                     "phase -1", "phase 4", "phase\n2", "phase 3.5",
                     "phase \u0663", "phase 99"])), max_size=8).map("".join)


@settings(max_examples=300, deadline=None)
@given(reply=_reply,
       observed=st.sampled_from(PHASE_ORDER).map(lambda p: payload(p, {}))
       | st.just("not json")
       | st.recursive(st.none() | st.booleans() | st.integers()
                      | st.floats() | st.text(max_size=5),
                      lambda inner: st.lists(inner, max_size=3)
                      | st.dictionaries(st.sampled_from(["phase", "t"]),
                                        inner, max_size=2),
                      max_leaves=5).map(json.dumps))
def test_engine_controller_always_returns_a_phase(reply, observed):
    assert EngineController(Canned(reply)).decide(observed, 0.0) in PHASE_ORDER


# ---------------------------------------------------------------------------
# Episodes


def test_run_episode_deterministic_with_expected_metrics():
    cfg = TrafficConfig(num_vehicles=20, episode_s=60.0)
    a = run_episode(cfg, RoundRobinController(), stream(7, "traffic"))
    b = run_episode(cfg, RoundRobinController(), stream(7, "traffic"))
    assert a.metrics == b.metrics
    assert set(a.metrics) == {"avg_speed_mps", "throughput_veh",
                              "mean_wait_s", "episode_s", "num_vehicles"}
    assert 0 < a.metrics["throughput_veh"] <= 20
    assert 0 < a.metrics["avg_speed_mps"] <= cfg.free_flow_speed_mps + 1e-9


def test_run_episode_phases_cover_all_movements():
    # A controller stuck on one phase strands the other movements; the
    # round robin eventually clears everything in a long-enough episode.
    cfg = TrafficConfig(num_vehicles=12, episode_s=300.0)
    res = run_episode(cfg, RoundRobinController(), stream(11, "traffic"))
    assert res.metrics["throughput_veh"] == 12.0
    assert all(PHASE_MOVEMENTS[p] for p in PHASE_ORDER)


@pytest.mark.parametrize("episode_s, dt_s, steps", [(1.0, 0.3, 3),
                                                    (1.0, 0.4, 2)])
def test_run_episode_reports_the_simulated_time(episode_s, dt_s, steps):
    # round(episode_s / dt_s) whole steps run; the record says how long.
    cfg = TrafficConfig(num_vehicles=4, episode_s=episode_s, dt_s=dt_s)
    res = run_episode(cfg, RoundRobinController(), stream(5, "traffic"))
    assert res.metrics["episode_s"] == steps * dt_s
    assert res.state.time_s == pytest.approx(steps * dt_s)


@pytest.mark.parametrize("num_vehicles", [80, 160])
@pytest.mark.parametrize("kind", ["vue", "rsu"])
def test_episode_kpis_are_left_folds_over_the_vehicles(num_vehicles, kind):
    """The KPIs add the vehicles' values one at a time, the crossed ones in
    crossing order, then each lane's in sorted lane order.  Builtin sum()
    compensates from Python 3.12 on, and on these episodes it gives other
    last bits than this fold."""
    cfg = TrafficConfig(num_vehicles=num_vehicles)
    for seed in (1, 2, 3):
        res = run_episode(cfg, QueueGreedyController(),
                          stream(seed, "traffic"), kind)
        everyone = res.state.crossed + [v for lane in sorted(res.state.lanes)
                                        for v in res.state.lanes[lane]]
        assert len(everyone) == num_vehicles
        dist = travel = wait = 0.0
        for v in everyone:
            dist += v.distance_m
            travel += v.travel_time_s
            wait += v.wait_s
        assert res.metrics["avg_speed_mps"] == dist / travel
        assert res.metrics["mean_wait_s"] == wait / num_vehicles
