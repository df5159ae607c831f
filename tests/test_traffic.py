"""Intersection kinematics, invariants, observation encoding, controllers."""

import json
import math

import pytest
import scalar_oracle as oracle
from hypothesis import given, settings, strategies as st

from autocomm.configs import TrafficConfig
from autocomm.rng import stream
from autocomm.traffic import (
    LANE_KEYS,
    PHASE_MOVEMENTS,
    PHASE_ORDER,
    ConservationError,
    CrashInvariantError,
    EmptyEpisodeError,
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
    cfg = TrafficConfig(num_vehicles=0)  # the config itself is legal
    with pytest.raises(EmptyEpisodeError):
        spawn_vehicles(cfg, stream(1, "traffic/spawn"))


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
