"""Config validation, defaults, and the JSON scenario round-trip."""

import dataclasses
import enum
import json
import math
import re
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from autocomm.configs import (
    Box,
    ChannelSceneConfig,
    MAX_BANDWIDTH_HZ,
    ConfigError,
    ObjectiveKind,
    ObjectiveSpec,
    ScenarioConfig,
    SchedulingConfig,
    Track,
    TrafficConfig,
    build_scenario,
    scenario_from_dict,
    scenario_to_dict,
    scenario_to_json,
    switch_from_dict,
)
from autocomm.geochannel import build_ckm, load_fixture_scene
from autocomm.report import ckm_grid_positions, default_user_positions

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "config-schema"


def test_scheduling_defaults():
    cfg = SchedulingConfig()
    assert cfg.num_robots == 10
    assert cfg.num_rbs == 9
    assert cfg.bandwidth_hz == 2e7
    assert cfg.min_rate_bps == 1e6
    assert cfg.cell_radius_m == 100.0
    assert cfg.buffer_occupancy_prob == 1.0
    assert cfg.max_rbs_per_robot is None
    assert cfg.rb_cap == cfg.num_rbs


def test_rb_cap_property():
    assert SchedulingConfig(max_rbs_per_robot=2).rb_cap == 2


def test_objective_defaults_and_qos_flag():
    pf = ObjectiveSpec(kind=ObjectiveKind.PF)
    assert pf.epsilon == 1.0
    assert not pf.is_qos
    for kind in (ObjectiveKind.QOS_SUM_RATE, ObjectiveKind.QOS_PF):
        assert ObjectiveSpec(kind=kind, min_rate_bps=1e6).is_qos


def test_traffic_defaults():
    cfg = TrafficConfig()
    assert cfg.num_vehicles == 80
    assert cfg.area_m == 100.0
    assert cfg.free_flow_speed_mps == 14.0
    assert cfg.headway_m == 5.0
    assert cfg.decision_interval_s == 5.0
    assert cfg.min_green_s == 5.0
    assert cfg.episode_s == 300.0
    assert cfg.visible_depth == 8
    assert cfg.byte_budget == 512


def test_channel_defaults():
    cfg = ChannelSceneConfig()
    assert cfg.carrier_hz == 3.5e9
    assert cfg.num_antennas == 16
    assert cfg.reflection_coeff == 0.6 + 0j
    assert cfg.lane_width_m == 2.0
    assert cfg.num_lanes == 4
    assert cfg.road_halfwidth_m == 4.0
    assert cfg.bs_pos == (-10.0, 6.0, 10.0)


@pytest.mark.parametrize("kwargs, field", [
    (dict(num_robots=0), "scheduling.num_robots"),
    (dict(num_rbs=0), "scheduling.num_rbs"),
    (dict(cell_radius_m=0), "scheduling.cell_radius_m"),
    (dict(bandwidth_hz=-1), "scheduling.bandwidth_hz"),
    (dict(buffer_occupancy_prob=1.5), "scheduling.buffer_occupancy_prob"),
    (dict(max_rbs_per_robot=0), "scheduling.max_rbs_per_robot"),
    (dict(bandwidth_hz=math.nextafter(MAX_BANDWIDTH_HZ, math.inf)),
     "scheduling.bandwidth_hz"),
    (dict(bandwidth_hz=1.5e308), "scheduling.bandwidth_hz"),
])
def test_scheduling_validation_names_field(kwargs, field):
    with pytest.raises(ConfigError) as err:
        SchedulingConfig(**kwargs)
    assert err.value.field == field


@pytest.mark.parametrize("kwargs, field", [
    (dict(num_vehicles=-1), "traffic.num_vehicles"),
    (dict(dt_s=0), "traffic.dt_s"),
    (dict(free_flow_speed_mps=0), "traffic.free_flow_speed_mps"),
    (dict(headway_m=0), "traffic.headway_m"),
    (dict(visible_depth=0), "traffic.visible_depth"),
    (dict(area_m=-50.0), "traffic.area_m"),
    (dict(area_m=0.0), "traffic.area_m"),
    (dict(decision_interval_s=0.0), "traffic.decision_interval_s"),
    (dict(decision_interval_s=-5.0), "traffic.decision_interval_s"),
    (dict(min_green_s=-1.0), "traffic.min_green_s"),
    (dict(episode_s=-10.0), "traffic.episode_s"),
    (dict(episode_s=0.0), "traffic.episode_s"),
    (dict(episode_s=0.4, dt_s=0.5), "traffic.episode_s"),
    (dict(dt_s=1000.0), "traffic.episode_s"),
    (dict(startup_delay_s=-2.0), "traffic.startup_delay_s"),
    (dict(discharge_headway_s=-2.0), "traffic.discharge_headway_s"),
    (dict(byte_budget=0), "traffic.byte_budget"),
    # Last, so the ids of the rows above stay as they were.
    (dict(num_vehicles=0), "traffic.num_vehicles"),
])
def test_traffic_validation_names_field(kwargs, field):
    with pytest.raises(ConfigError) as err:
        TrafficConfig(**kwargs)
    assert err.value.field == field


def test_traffic_accepts_the_range_ends():
    # One step per episode, no minimum green, no startup or discharge lag,
    # a one-byte budget (every encode then fails, but the scenario is legal).
    cfg = TrafficConfig(episode_s=0.5, dt_s=0.5, min_green_s=0.0,
                        startup_delay_s=0.0, discharge_headway_s=0.0,
                        byte_budget=1)
    assert cfg.episode_s == cfg.dt_s


_INT_FIELDS = [
    ("scheduling", "num_robots"), ("scheduling", "num_rbs"),
    ("scheduling", "max_rbs_per_robot"), ("traffic", "num_vehicles"),
    ("traffic", "visible_depth"), ("traffic", "byte_budget"),
    ("channel", "num_antennas"), ("channel", "num_lanes"),
]


@pytest.mark.parametrize("value", [2.5, 300.5, 4.0, True, False, "4", [4]])
@pytest.mark.parametrize("track, name", _INT_FIELDS)
def test_integer_fields_take_only_json_integers(track, name, value):
    with pytest.raises(ConfigError) as err:
        scenario_from_dict({"track": track, "seed": 1, track: {name: value}})
    assert err.value.field == f"{track}.{name}"


_FLOAT_FIELDS = [
    (track, f.name) for track, cls in (("scheduling", SchedulingConfig),
                                       ("traffic", TrafficConfig),
                                       ("channel", ChannelSceneConfig))
    for f in dataclasses.fields(cls) if f.type in ("float", "complex")]


@pytest.mark.parametrize("value", [
    True, False, "4", [4.0], pytest.param(10 ** 400, id="10**400"),
    pytest.param(Fraction(10 ** 400), id="Fraction(10**400)")])
@pytest.mark.parametrize("track, name", _FLOAT_FIELDS)
def test_number_fields_take_only_json_numbers(track, name, value):
    with pytest.raises(ConfigError) as err:
        scenario_from_dict({"track": track, "seed": 1, track: {name: value}})
    assert err.value.field == f"{track}.{name}"


@pytest.mark.parametrize("seed", [True, False, 2.5, 4.0, "4", [4], None])
def test_seed_takes_only_json_integers(seed):
    with pytest.raises(ConfigError) as err:
        scenario_from_dict({"track": "traffic", "seed": seed})
    assert err.value.field == "seed"


def test_integer_literal_in_float_field_is_stored_as_float():
    scn = scenario_from_dict({"track": "scheduling", "seed": 1,
                              "scheduling": {"cell_radius_m": 100}})
    assert type(scn.scheduling.cell_radius_m) is float
    assert scn == scenario_from_dict({"track": "scheduling", "seed": 1})


@pytest.mark.parametrize("section", ["abc", "", [], [{}], 3, 2.5, True, None])
@pytest.mark.parametrize("track", ["scheduling", "traffic", "channel"])
def test_section_that_is_not_an_object_names_the_section(track, section):
    with pytest.raises(ConfigError) as err:
        scenario_from_dict({"track": track, "seed": 1, track: section})
    assert err.value.field == track
    assert "JSON object" in str(err.value)


def test_box_validation_and_geometry():
    with pytest.raises(ConfigError):
        Box(x=(5.0, 1.0), y=(0.0, 2.0), height=3.0)
    with pytest.raises(ConfigError):
        Box(x=(0.0, 1.0), y=(0.0, 2.0), height=0.0)
    b = Box(x=(0.0, 10.0), y=(0.0, 6.0), height=5.0)
    assert b.contains((5.0, 3.0, 2.0))
    assert not b.contains((5.0, 3.0, 7.0))
    assert b.contains((0.0, 3.0, 2.0))           # the box is closed
    assert b.overlaps(Box(x=(9.0, 12.0), y=(1.0, 2.0), height=4.0))
    assert not b.overlaps(Box(x=(11.0, 12.0), y=(1.0, 2.0), height=4.0))


def test_channel_rejects_bad_scenes():
    box = dict(x=(0.0, 10.0), y=(-11.0, -5.0), height=10.0)
    with pytest.raises(ConfigError) as err:
        ChannelSceneConfig(buildings=tuple(Box(**box) for _ in range(5)))
    assert err.value.field == "channel.buildings"

    with pytest.raises(ConfigError) as err:
        ChannelSceneConfig(buildings=(
            Box(x=(0.0, 10.0), y=(-11.0, -5.0), height=10.0),
            Box(x=(5.0, 15.0), y=(-11.0, -5.0), height=10.0)))
    assert "overlap" in str(err.value)

    with pytest.raises(ConfigError) as err:
        ChannelSceneConfig(buildings=(Box(x=(-12.0, -8.0), y=(5.0, 7.0),
                                          height=15.0),))
    assert err.value.field == "channel.bs_pos"


@pytest.mark.parametrize("kwargs, field", [
    (dict(carrier_hz=1e-310), "channel.carrier_hz"),   # wavelength overflows
    (dict(carrier_hz=9.9e7), "channel.carrier_hz"),
    (dict(carrier_hz=3.1e11), "channel.carrier_hz"),
    (dict(num_lanes=0), "channel.num_lanes"),
    (dict(lane_width_m=0.0), "channel.lane_width_m"),
    (dict(lane_width_m=-2.0), "channel.lane_width_m"),
    (dict(num_lanes=4, lane_width_m=0.25), "channel.lane_width_m"),
    (dict(num_lanes=1, lane_width_m=1.0), "channel.lane_width_m"),
])
def test_channel_rejects_out_of_range_carrier_and_road(kwargs, field):
    with pytest.raises(ConfigError) as err:
        ChannelSceneConfig(**kwargs)
    assert err.value.field == field


def test_channel_accepts_the_range_ends():
    for carrier in (1e8, 3e11):
        assert ChannelSceneConfig(carrier_hz=carrier).carrier_hz == carrier
    assert ChannelSceneConfig(num_lanes=1, lane_width_m=1.01).num_lanes == 1


_BOX = dict(x=(0.0, 10.0), y=(-11.0, -5.0), height=10.0)


@pytest.mark.parametrize("make, field", [
    (lambda: ChannelSceneConfig(reflection_coeff=complex(math.nan, 0.0)),
     "channel.reflection_coeff"),
    (lambda: ChannelSceneConfig(reflection_coeff=complex(0.6, -math.inf)),
     "channel.reflection_coeff"),
    (lambda: ChannelSceneConfig(reflection_coeff=True),
     "channel.reflection_coeff"),
    (lambda: ChannelSceneConfig(bs_pos=(math.nan, 6.0, 10.0)),
     "channel.bs_pos"),
    (lambda: ChannelSceneConfig(bs_pos=(-10.0, 6.0, math.inf)),
     "channel.bs_pos"),
    (lambda: ChannelSceneConfig(bs_pos=(-10.0, 6.0)), "channel.bs_pos"),
    (lambda: Box(**{**_BOX, "x": (math.nan, 1.0)}), "channel.buildings"),
    (lambda: Box(**{**_BOX, "y": (-11.0, math.inf)}), "channel.buildings"),
    (lambda: Box(**{**_BOX, "height": math.nan}), "channel.buildings"),
    (lambda: Box(**{**_BOX, "x": (0.0, 10.0, 20.0)}), "channel.buildings"),
], ids=["coeff-nan-real", "coeff-inf-imag", "coeff-bool", "bs-nan",
        "bs-inf", "bs-two-coords", "box-nan-x", "box-inf-y", "box-nan-height",
        "box-three-x"])
def test_channel_scene_refuses_non_finite_coordinates_and_coefficient(
        make, field):
    # The Python-API path: a document never gets here with a NaN, as the
    # reader refuses it first, naming the element.
    with pytest.raises(ConfigError) as err:
        make()
    assert err.value.field == field


def test_channel_scene_takes_numpy_and_integer_coordinates():
    box = Box(x=(np.float64(0.0), 10), y=(-11, np.float32(-5.0)), height=10)
    cfg = ChannelSceneConfig(buildings=(box,), bs_pos=(-10, 6, np.int64(10)),
                             reflection_coeff=0.5)
    assert cfg.bs_pos[2] == 10 and cfg.reflection_coeff == 0.5


_SCHEDULING_DOC = {"track": "scheduling", "seed": 1, "scheduling": {}}


@pytest.mark.parametrize("make, field", [
    (lambda: SchedulingConfig(cell_radius_m=np.float32("inf")),
     "scheduling.cell_radius_m"),
    (lambda: scenario_from_dict({**_SCHEDULING_DOC, "scheduling": {
        "cell_radius_m": np.float32("inf")}}), "scheduling.cell_radius_m"),
    (lambda: ChannelSceneConfig(bs_pos=(np.float32("inf"), 6.0, 10.0)),
     "channel.bs_pos"),
    (lambda: ChannelSceneConfig(
        reflection_coeff=np.complex64(complex(np.inf, 0.0))),
     "channel.reflection_coeff"),
    (lambda: Box(**{**_BOX, "y": (-11.0, np.float32("inf"))}),
     "channel.buildings"),
    (lambda: Box(**{**_BOX, "height": np.float16("inf")}),
     "channel.buildings"),
], ids=["float32-field", "float32-document", "float32-bs", "complex64-coeff",
        "float32-box-y", "float16-box-height"])
def test_narrow_numpy_infinities_are_config_errors(make, field):
    """A float32 or float16 inf is refused like a float64 one: numpy casts
    a float64 bound to a narrow value's own width, where it overflows."""
    with pytest.raises(ConfigError) as err:
        make()
    assert err.value.field == field


def test_finite_narrow_numpy_floats_construct_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert SchedulingConfig(
            cell_radius_m=np.float32(50.0)).cell_radius_m == 50.0
        doc = {**_SCHEDULING_DOC, "scheduling": {
            "cell_radius_m": np.float32(50.0),
            "bandwidth_hz": np.float16(1000.0)}}
        sched = scenario_from_dict(doc).scheduling
        assert (sched.cell_radius_m, sched.bandwidth_hz) == (50.0, 1000.0)
        box = Box(x=(np.float16(0.0), np.float32(10.0)),
                  y=(np.float32(-11.0), np.float16(-5.0)),
                  height=np.float16(10.0))
        cfg = ChannelSceneConfig(
            buildings=(box,), bs_pos=(np.float32(-10.0), 6.0, 10.0),
            carrier_hz=np.float32(3.5e9), lane_width_m=np.float16(2.0),
            reflection_coeff=np.complex64(0.5))
        assert cfg.carrier_hz == 3.5e9 and cfg.reflection_coeff == 0.5


def test_scenario_requires_exactly_one_section():
    with pytest.raises(ConfigError):
        ScenarioConfig(track=Track.SCHEDULING, seed=1)
    with pytest.raises(ConfigError):
        ScenarioConfig(track=Track.SCHEDULING, seed=1,
                       scheduling=SchedulingConfig(),
                       traffic=TrafficConfig())
    with pytest.raises(ConfigError) as err:
        ScenarioConfig(track=Track.SCHEDULING, seed=-1,
                       scheduling=SchedulingConfig())
    assert err.value.field == "seed"


def test_scenario_from_dict_rejects_unknowns():
    with pytest.raises(ConfigError) as err:
        scenario_from_dict({"track": "scheduling", "seed": 1,
                            "scheduling": {"num_robots": 2, "bogus": 3}})
    assert err.value.field == "scheduling.bogus"

    with pytest.raises(ConfigError) as err:
        scenario_from_dict({"track": "scheduling", "seed": 1,
                            "scheduling": {}, "extra": {}})
    assert err.value.field == "extra"

    with pytest.raises(ConfigError) as err:
        scenario_from_dict({"track": "scheduling", "seed": 1,
                            "traffic": {}})
    assert err.value.field == "traffic"


def test_scenario_from_dict_requires_track_and_seed():
    with pytest.raises(ConfigError) as err:
        scenario_from_dict({"seed": 1, "scheduling": {}})
    assert err.value.field == "track"
    with pytest.raises(ConfigError) as err:
        scenario_from_dict({"track": "scheduling", "scheduling": {}})
    assert err.value.field == "seed"
    with pytest.raises(ConfigError):
        scenario_from_dict({"track": "warp", "seed": 1, "scheduling": {}})


def test_qos_objective_inherits_min_rate():
    scn = scenario_from_dict({
        "track": "scheduling", "seed": 1,
        "scheduling": {"min_rate_bps": 5e5,
                       "objective": {"kind": "qos_sum_rate"}}})
    assert scn.scheduling.objective.min_rate_bps == 5e5


def test_round_trip_is_identity():
    doc = {
        "track": "channel", "seed": 11,
        "channel": {
            "buildings": [{"x": [0.0, 20.0], "y": [-11.0, -5.0],
                           "height": 15.0}],
            "num_antennas": 8,
            "reflection_coeff": [0.5, 0.1],
        },
    }
    scn = scenario_from_dict(doc)
    assert scn.channel.reflection_coeff == 0.5 + 0.1j
    again = scenario_from_dict(scenario_to_dict(scn))
    assert again == scn


def test_json_form_is_stable():
    scn = scenario_from_dict({"track": "scheduling", "seed": 2,
                              "scheduling": {"num_robots": 2}})
    text = scenario_to_json(scn)
    assert text.endswith("\n")
    assert text == scenario_to_json(scn)
    doc = json.loads(text)
    assert list(doc) == sorted(doc)
    assert scenario_from_dict(doc) == scn


def _asdict_json(cfg) -> str:
    """scenario_to_json as it was written on dataclasses.asdict."""

    def jsonable(obj):
        if isinstance(obj, enum.Enum):
            return obj.value
        if isinstance(obj, complex):
            return [obj.real, obj.imag]
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            return {k: jsonable(v) for k, v in dataclasses.asdict(obj).items()
                    if v is not None}
        if isinstance(obj, dict):
            return {k: jsonable(v) for k, v in obj.items() if v is not None}
        if isinstance(obj, (list, tuple)):
            return [jsonable(v) for v in obj]
        return obj

    return json.dumps(jsonable(cfg), indent=2, sort_keys=True) + "\n"


def test_json_form_matches_the_asdict_form():
    scenarios = [scenario_from_dict(json.loads(path.read_text("utf-8")))
                 for path in sorted(SCHEMA_DIR.glob("*.json"))]
    scenarios += [load_fixture_scene(i) for i in (1, 2, 3, 4)]
    assert len(scenarios) == 7
    for scn in scenarios:
        assert scenario_to_json(scn) == _asdict_json(scn)


def test_build_scenario_parses_json_text():
    text = json.dumps({"track": "traffic", "seed": 4, "traffic": {}})
    scn = build_scenario(text)
    assert scn.track is Track.TRAFFIC
    with pytest.raises(ConfigError):
        build_scenario("[1, 2]")
    with pytest.raises(json.JSONDecodeError):
        build_scenario("{not json")


@settings(max_examples=40, deadline=None)
@given(
    num_robots=st.integers(1, 12),
    num_rbs=st.integers(1, 12),
    seed=st.integers(0, 2 ** 64 - 1),
    kind=st.sampled_from([k.value for k in ObjectiveKind]),
    min_rate=st.floats(0.0, 1e7, allow_nan=False),
    cap=st.one_of(st.none(), st.integers(1, 12)),
)
def test_round_trip_property(num_robots, num_rbs, seed, kind, min_rate, cap):
    doc = {
        "track": "scheduling", "seed": seed,
        "scheduling": {
            "num_robots": num_robots, "num_rbs": num_rbs,
            "max_rbs_per_robot": cap,
            "objective": {"kind": kind, "min_rate_bps": min_rate},
        },
    }
    scn = scenario_from_dict(doc)
    assert scenario_from_dict(scenario_to_dict(scn)) == scn
    assert scenario_from_dict(json.loads(scenario_to_json(scn))) == scn


_coord = st.floats(-60.0, 60.0, allow_nan=False)
# Ranges as start + extent, so that most boxes are valid and some are empty
# or reversed.
_extent = st.integers(-1, 40).map(lambda k: k / 2)
_range = st.builds(lambda a, w: [a, a + w], _coord, _extent)
_box_doc = st.fixed_dictionaries({
    "x": _range, "y": _range, "height": _extent,
})
_channel_doc = st.fixed_dictionaries({}, optional={
    "buildings": st.lists(_box_doc, max_size=6),
    "bs_pos": st.lists(_coord, min_size=3, max_size=3),
    "carrier_hz": st.floats(-1e9, 1e12, allow_nan=False)
    | st.sampled_from([5e-324, 1e-310, 1.0, 1e8, 3e11]),
    "num_antennas": st.integers(-2, 64),
    "reflection_coeff": st.one_of(
        st.floats(-1.0, 1.0, allow_nan=False),
        st.lists(st.floats(-1.0, 1.0, allow_nan=False),
                 min_size=2, max_size=2)),
    "lane_width_m": st.floats(-5.0, 5.0, allow_nan=False),
    "num_lanes": st.integers(-2, 8),
    "user_height_m": st.floats(-2.0, 30.0, allow_nan=False),
})


def _float_leaves(value, where):
    """(field name, container, key) of every float in a document."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, v in items:
        name = (f"{where}.{key}" if isinstance(value, dict)
                else f"{where}[{key}]")
        if isinstance(v, float):
            yield name, value, key
        else:
            yield from _float_leaves(v, name)


# Which float of a document to replace, and by which non-finite value.
_nonfinite = st.none() | st.tuples(
    st.integers(0, 100), st.sampled_from([math.nan, math.inf, -math.inf]))


@settings(max_examples=300, deadline=None)
@given(channel=_channel_doc, seed=st.integers(0, 2 ** 64 - 1),
       nonfinite=_nonfinite)
def test_channel_documents_fail_only_with_config_errors(channel, seed,
                                                        nonfinite):
    leaves = list(_float_leaves(channel, "channel"))
    if nonfinite and leaves:
        index, value = nonfinite
        name, container, key = leaves[index % len(leaves)]
        container[key] = value
        with pytest.raises(ConfigError) as err:
            scenario_from_dict({"track": "channel", "seed": seed,
                                "channel": channel})
        assert err.value.field == name
        return
    try:
        scn = scenario_from_dict({"track": "channel", "seed": seed,
                                  "channel": channel})
    except ConfigError:
        return
    cfg = scn.channel
    # Every accepted scene can be run: its users and map grid are drawn
    # and every channel is finite.
    evaluated = default_user_positions(scn)
    grid = ckm_grid_positions(cfg)
    assert evaluated.shape == (25, 3) and np.isfinite(evaluated).all()
    assert grid.shape == (cfg.num_lanes * 121, 3) and np.isfinite(grid).all()
    users = [(0.0, 0.0, cfg.user_height_m), (15.0, -3.0, 1.5),
             (25.0, 3.0, 1.5), (cfg.bs_pos[0], cfg.bs_pos[1], 0.0)]
    users += [tuple(u) for u in evaluated]
    # A user at the BS itself has a zero-length line of sight.
    users = [u for u in users if math.dist(u, cfg.bs_pos) > 1e-3]
    channels = build_ckm(cfg, users).channels
    assert channels.shape == (len(users), cfg.num_antennas)
    assert np.isfinite(channels).all()


# Any JSON value, including numbers past the float range and non-finite
# floats, for fields and sections that must reject it by name.
_json = st.recursive(
    st.none() | st.booleans() | st.integers(-10 ** 30, 10 ** 30)
    | st.sampled_from([10 ** 400, -10 ** 400]) | st.floats()
    | st.text(max_size=5),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=6)


def _section(fields: dict):
    """A section with any subset of its fields, each either a plausible
    value or any JSON value, sometimes an unknown field, or no object at
    all."""
    known = st.fixed_dictionaries(
        {}, optional={name: value | _json for name, value in fields.items()})
    extra = st.dictionaries(st.text(max_size=6), _json, max_size=1)
    return st.builds(lambda e, k: {**e, **k}, extra, known) | _json


_count = st.integers(-2, 16)
_size = st.floats(-10.0, 1e8, allow_nan=False)
_objective = _section({
    "kind": st.sampled_from([k.value for k in ObjectiveKind] + ["max_min"]),
    "min_rate_bps": _size,
    "epsilon": st.floats(-1.0, 5.0, allow_nan=False),
})
_scheduling_doc = _section({
    "num_robots": _count, "cell_radius_m": _size, "bandwidth_hz": _size,
    "num_rbs": _count, "min_rate_bps": _size, "objective": _objective,
    "buffer_occupancy_prob": st.floats(-0.5, 1.5, allow_nan=False),
    "max_rbs_per_robot": st.none() | _count,
})
_traffic_doc = _section({
    f.name: _count if f.type == "int" else _size
    for f in dataclasses.fields(TrafficConfig)})
# Coordinate lists of 0 to 4 entries, so of the right and the wrong length;
# boxes with missing, extra and ill-typed keys.
_coords = st.lists(_coord, max_size=4)
_any_channel_doc = _section({
    "buildings": st.lists(_section({"x": _range | _coords,
                                    "y": _range | _coords,
                                    "height": _extent}), max_size=5),
    "bs_pos": _coords, "carrier_hz": _size, "num_antennas": _count,
    "reflection_coeff": _coords, "lane_width_m": _size, "num_lanes": _count,
    "user_height_m": _size,
})


@settings(max_examples=400, deadline=None)
@given(doc=st.tuples(st.just("scheduling"), _scheduling_doc)
       | st.tuples(st.just("traffic"), _traffic_doc)
       | st.tuples(st.just("channel"), _any_channel_doc),
       seed=st.integers(0, 2 ** 64 - 1) | _json)
def test_scheduling_and_traffic_documents_fail_only_with_config_errors(
        doc, seed):
    track, section = doc
    try:
        scn = scenario_from_dict({"track": track, "seed": seed,
                                  track: section})
    except ConfigError:
        return
    assert scn.track is Track(track)


@pytest.mark.parametrize("objective, field", [
    ({"kind": "pf", "extra": 1}, "scheduling.objective.extra"),
    ("pf", "scheduling.objective"),
    (3, "scheduling.objective"),
    (None, "scheduling.objective"),
    ([{"kind": "pf"}], "scheduling.objective"),
    ({"epsilon": "x"}, "scheduling.objective.epsilon"),
    ({"epsilon": 0}, "scheduling.objective.epsilon"),
    ({"min_rate_bps": -1}, "scheduling.objective.min_rate_bps"),
    ({"epsilon": True}, "scheduling.objective.epsilon"),
    ({"min_rate_bps": [1]}, "scheduling.objective.min_rate_bps"),
    ({"min_rate_bps": 10 ** 400}, "scheduling.objective.min_rate_bps"),
    ({"kind": ["pf"]}, "scheduling.objective.kind"),
])
def test_bad_objective_names_the_field(objective, field):
    with pytest.raises(ConfigError) as err:
        scenario_from_dict({"track": "scheduling", "seed": 1,
                            "scheduling": {"objective": objective}})
    assert err.value.field == field


_BOX = {"x": [0.0, 20.0], "y": [-11.0, -5.0], "height": 15.0}


@pytest.mark.parametrize("track, section, field", [
    ("channel", {"buildings": [{"x": [0, 1]}]}, "channel.buildings[0].y"),
    ("channel", {"buildings": [{**_BOX, "height": "a"}]},
     "channel.buildings[0].height"),
    ("channel", {"buildings": [{**_BOX, "x": [0]}]}, "channel.buildings[0].x"),
    ("channel", {"buildings": [{**_BOX, "y": [0, 1, 2]}]},
     "channel.buildings[0].y"),
    ("channel", {"buildings": [{**_BOX, "x": [0, True]}]},
     "channel.buildings[0].x[1]"),
    ("channel", {"buildings": [{**_BOX, "z": 1}]}, "channel.buildings[0].z"),
    ("channel", {"buildings": [_BOX, 3]}, "channel.buildings[1]"),
    ("channel", {"buildings": _BOX}, "channel.buildings"),
    ("channel", {"bs_pos": [1, 2]}, "channel.bs_pos"),
    ("channel", {"bs_pos": [1, 2, 3, 4]}, "channel.bs_pos"),
    ("channel", {"bs_pos": [1, "2", 3]}, "channel.bs_pos[1]"),
    ("channel", {"bs_pos": 1.0}, "channel.bs_pos"),
    ("channel", {"reflection_coeff": True}, "channel.reflection_coeff"),
    ("channel", {"reflection_coeff": [1]}, "channel.reflection_coeff"),
    ("channel", {"reflection_coeff": "x"}, "channel.reflection_coeff"),
    ("channel", {"reflection_coeff": [0.5, None]},
     "channel.reflection_coeff[1]"),
    pytest.param("channel", {"num_lanes": 10 ** 400}, "channel.num_lanes",
                 id="num_lanes-10**400"),
    ("scheduling", {"cell_radius_m": True}, "scheduling.cell_radius_m"),
    ("scheduling", {"cell_radius_m": "100"}, "scheduling.cell_radius_m"),
    ("traffic", {"area_m": True, "episode_s": True}, "traffic.area_m"),
])
def test_ill_typed_fields_name_their_path(track, section, field):
    with pytest.raises(ConfigError) as err:
        scenario_from_dict({"track": track, "seed": 1, track: section})
    assert err.value.field == field


def test_switch_takes_the_section_min_rate_unless_given():
    cfg = SchedulingConfig(min_rate_bps=5e5)
    doc = {"at_iteration": 20, "objective": "qos_sum_rate"}
    assert switch_from_dict(doc, cfg, 200) == (
        20, ObjectiveSpec(ObjectiveKind.QOS_SUM_RATE, 5e5))
    assert switch_from_dict({**doc, "min_rate_bps": 0}, cfg, 200) == (
        20, ObjectiveSpec(ObjectiveKind.QOS_SUM_RATE, 0.0))
    assert switch_from_dict({**doc, "at_iteration": 199}, cfg, 200)[0] == 199


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400"])
@pytest.mark.parametrize("track,field", [
    ("channel", "carrier_hz"),
    ("scheduling", "bandwidth_hz"),
    ("scheduling", "min_rate_bps"),
    ("scheduling", "objective.epsilon"),
    ("traffic", "episode_s"),
    ("traffic", "num_vehicles"),
    ("channel", "reflection_coeff"),
])
def test_non_finite_floats_are_config_errors(track, field, token):
    # JSON's NaN and Infinity tokens, and literals past the float range,
    # parse to non-finite floats, which every comparison-based check passes.
    section = field.split(".")[0]
    value = f'{{"{field.split(".")[1]}": {token}}}' if "." in field else token
    text = (f'{{"track": "{track}", "seed": 1, '
            f'"{track}": {{"{section}": {value}}}}}')
    with pytest.raises(ConfigError) as err:
        build_scenario(text)
    assert err.value.field == f"{track}.{field}"


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_non_finite_seed_is_a_config_error(token):
    with pytest.raises(ConfigError) as err:
        build_scenario(f'{{"track": "traffic", "seed": {token}}}')
    assert err.value.field == "seed"


@pytest.mark.parametrize("track", ["scheduling", "traffic", "channel"])
def test_reference_documents_round_trip_text_identically(track):
    text = (SCHEMA_DIR / f"{track}.json").read_text(encoding="utf-8")
    assert scenario_to_json(build_scenario(text)) == text


@pytest.mark.parametrize("section, cls", [
    ("scheduling", SchedulingConfig),
    ("traffic", TrafficConfig),
    ("channel", ChannelSceneConfig),
])
def test_schema_tables_list_exactly_the_fields(section, cls):
    readme = (SCHEMA_DIR / "README.md").read_text(encoding="utf-8")
    body = readme.split(f"## `{section}` section", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \|", body, flags=re.MULTILINE)
    assert rows == [f.name for f in dataclasses.fields(cls)]
