"""Scenario configuration: types, validation, JSON round-trip.

A scenario is described by a single JSON document with a ``track`` selector
(``scheduling`` | ``channel`` | ``traffic``), a mandatory 64-bit ``seed``,
and exactly one track-specific section.  Unset fields take the documented
defaults (see ``docs/config-schema``).  All quantities are SI: meters,
seconds, Hz, bits/s.  dB appears only at presentation boundaries.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math
from dataclasses import dataclass, field
from typing import Optional


class ConfigError(ValueError):
    """Raised when a config document is malformed; names the offending field."""

    def __init__(self, field_name: str, message: str):
        self.field = field_name
        super().__init__(f"{field_name}: {message}")


class Track(str, enum.Enum):
    SCHEDULING = "scheduling"
    CHANNEL = "channel"
    TRAFFIC = "traffic"


class ObjectiveKind(str, enum.Enum):
    PF = "pf"
    QOS_SUM_RATE = "qos_sum_rate"
    QOS_PF = "qos_pf"


@dataclass(frozen=True)
class ObjectiveSpec:
    """Scheduling objective.

    ``pf`` maximizes the sum of log2 rates over buffer-nonempty robots,
    ``qos_sum_rate`` maximizes the sum-rate after robots below
    ``min_rate_bps`` are clamped to zero, and ``qos_pf`` is PF evaluated on
    the clamped rates.  ``epsilon`` floors rates inside logs so zero-rate
    robots stay finite.
    """

    kind: ObjectiveKind = ObjectiveKind.PF
    min_rate_bps: float = 0.0
    epsilon: float = 1.0

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ConfigError("scheduling.objective.epsilon", "must be > 0")
        if self.min_rate_bps < 0:
            raise ConfigError("scheduling.objective.min_rate_bps",
                              "must be >= 0")

    @property
    def is_qos(self) -> bool:
        return self.kind in (ObjectiveKind.QOS_SUM_RATE, ObjectiveKind.QOS_PF)


@dataclass(frozen=True)
class SchedulingConfig:
    """Robot-scheduling scenario: an uplink cell with ``num_rbs`` resource
    blocks over ``bandwidth_hz`` shared by ``num_robots`` robots uniformly
    placed in a disk of ``cell_radius_m``."""

    num_robots: int = 10
    cell_radius_m: float = 100.0
    bandwidth_hz: float = 2.0e7
    num_rbs: int = 9
    min_rate_bps: float = 1.0e6
    objective: ObjectiveSpec = field(default_factory=ObjectiveSpec)
    buffer_occupancy_prob: float = 1.0
    max_rbs_per_robot: Optional[int] = None  # None disables the cap

    def __post_init__(self):
        if self.num_robots < 1:
            raise ConfigError("scheduling.num_robots", "must be >= 1")
        if self.num_rbs < 1:
            raise ConfigError("scheduling.num_rbs", "must be >= 1")
        if self.cell_radius_m <= 0:
            raise ConfigError("scheduling.cell_radius_m", "must be > 0")
        if self.bandwidth_hz <= 0:
            raise ConfigError("scheduling.bandwidth_hz", "must be > 0")
        if not 0.0 <= self.buffer_occupancy_prob <= 1.0:
            raise ConfigError("scheduling.buffer_occupancy_prob", "must be in [0, 1]")
        if self.max_rbs_per_robot is not None and self.max_rbs_per_robot < 1:
            raise ConfigError("scheduling.max_rbs_per_robot", "must be >= 1 or null")

    @property
    def rb_cap(self) -> int:
        """Effective per-robot RB cap; defaults to num_rbs (no cap)."""
        return self.num_rbs if self.max_rbs_per_robot is None else self.max_rbs_per_robot


@dataclass(frozen=True)
class TrafficConfig:
    """Intersection scenario: a 100 m x 100 m area, two crossing roads,
    vehicles spawned on four approaches."""

    num_vehicles: int = 80
    area_m: float = 100.0
    free_flow_speed_mps: float = 14.0
    headway_m: float = 5.0
    decision_interval_s: float = 5.0
    min_green_s: float = 5.0
    episode_s: float = 300.0
    dt_s: float = 0.5
    startup_delay_s: float = 2.0
    discharge_headway_s: float = 2.0
    visible_depth: int = 8
    byte_budget: int = 512

    def __post_init__(self):
        if self.num_vehicles < 0:
            raise ConfigError("traffic.num_vehicles", "must be >= 0")
        if self.area_m <= 0:
            raise ConfigError("traffic.area_m", "must be > 0")
        if self.free_flow_speed_mps <= 0:
            raise ConfigError("traffic.free_flow_speed_mps", "must be > 0")
        if self.headway_m <= 0:
            raise ConfigError("traffic.headway_m", "must be > 0")
        if self.decision_interval_s <= 0:
            raise ConfigError("traffic.decision_interval_s", "must be > 0")
        if self.min_green_s < 0:
            raise ConfigError("traffic.min_green_s", "must be >= 0")
        if self.dt_s <= 0:
            raise ConfigError("traffic.dt_s", "must be > 0")
        # Shorter than one step, an episode runs no step at all.
        if self.episode_s < self.dt_s:
            raise ConfigError("traffic.episode_s",
                              f"must be >= dt_s ({self.dt_s})")
        if self.startup_delay_s < 0:
            raise ConfigError("traffic.startup_delay_s", "must be >= 0")
        if self.discharge_headway_s < 0:
            raise ConfigError("traffic.discharge_headway_s", "must be >= 0")
        if self.visible_depth < 1:
            raise ConfigError("traffic.visible_depth", "must be >= 1")
        if self.byte_budget < 1:
            raise ConfigError("traffic.byte_budget", "must be >= 1")


@dataclass(frozen=True)
class Box:
    """Axis-aligned building box: x/y ranges in meters plus a height."""

    x: tuple[float, float]
    y: tuple[float, float]
    height: float

    def __post_init__(self):
        if self.x[0] >= self.x[1] or self.y[0] >= self.y[1]:
            raise ConfigError("channel.buildings", "box ranges must be increasing")
        if self.height <= 0:
            raise ConfigError("channel.buildings", "box height must be > 0")

    def contains(self, p) -> bool:
        """True when p lies in the closed box, boundary included."""
        x, y, z = p[0], p[1], p[2]
        return (self.x[0] <= x <= self.x[1] and self.y[0] <= y <= self.y[1]
                and 0.0 <= z <= self.height)

    def overlaps(self, other: "Box") -> bool:
        return (self.x[0] < other.x[1] and other.x[0] < self.x[1]
                and self.y[0] < other.y[1] and other.y[0] < self.y[1])


# Evaluation users keep this distance from each road edge.
USER_EDGE_MARGIN_M = 0.5


@dataclass(frozen=True)
class ChannelSceneConfig:
    """Geometric channel scene: up to four buildings along a four-lane road
    parallel to the x-axis (lanes 2 m wide), a BS with a half-wavelength ULA
    along x, and users on the road."""

    buildings: tuple[Box, ...] = ()
    bs_pos: tuple[float, float, float] = (-10.0, 6.0, 10.0)
    carrier_hz: float = 3.5e9
    num_antennas: int = 16
    reflection_coeff: complex = 0.6 + 0.0j
    lane_width_m: float = 2.0
    num_lanes: int = 4
    user_height_m: float = 1.5

    def __post_init__(self):
        if len(self.buildings) > 4:
            raise ConfigError("channel.buildings", "at most 4 buildings")
        if self.num_antennas < 1:
            raise ConfigError("channel.num_antennas", "must be >= 1")
        # Far below this band the wavelength overflows and path gains turn
        # NaN; neither end is a channel this model describes.
        if not 1e8 <= self.carrier_hz <= 3e11:
            raise ConfigError("channel.carrier_hz",
                              "must be in [1e8, 3e11] (100 MHz to 300 GHz)")
        if self.num_lanes < 1:
            raise ConfigError("channel.num_lanes", "must be >= 1")
        if self.lane_width_m <= 0:
            raise ConfigError("channel.lane_width_m", "must be > 0")
        if self.road_halfwidth_m <= USER_EDGE_MARGIN_M:
            raise ConfigError("channel.lane_width_m",
                              "road half-width num_lanes * lane_width_m / 2 "
                              f"must exceed {USER_EDGE_MARGIN_M} m")
        for i, a in enumerate(self.buildings):
            for b in self.buildings[i + 1:]:
                if a.overlaps(b):
                    raise ConfigError("channel.buildings", "boxes must not overlap")
            if a.contains(self.bs_pos):
                raise ConfigError("channel.bs_pos", "BS must lie outside all buildings")

    @property
    def road_halfwidth_m(self) -> float:
        return 0.5 * self.num_lanes * self.lane_width_m


@dataclass(frozen=True)
class ScenarioConfig:
    """Top-level scenario: one track, one seed, one track-specific section."""

    track: Track
    seed: int
    scheduling: Optional[SchedulingConfig] = None
    channel: Optional[ChannelSceneConfig] = None
    traffic: Optional[TrafficConfig] = None

    def __post_init__(self):
        present = {
            Track.SCHEDULING: self.scheduling,
            Track.CHANNEL: self.channel,
            Track.TRAFFIC: self.traffic,
        }
        set_tracks = [t for t, sub in present.items() if sub is not None]
        if set_tracks != [self.track]:
            raise ConfigError(
                "track",
                f"exactly one sub-config matching track={self.track.value} required, "
                f"got sections for {[t.value for t in set_tracks]}",
            )
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError("seed", "must be an unsigned 64-bit integer")


# ---------------------------------------------------------------------------
# JSON round-trip


def _objective_from_dict(d) -> ObjectiveSpec:
    _check_section("scheduling.objective", d, ObjectiveSpec)
    try:
        kind = ObjectiveKind(d.get("kind", "pf"))
    except ValueError:
        raise ConfigError("scheduling.objective.kind",
                          f"unknown kind {d.get('kind')!r}")
    return ObjectiveSpec(kind=kind,
                         min_rate_bps=_objective_number(d, "min_rate_bps", 0.0),
                         epsilon=_objective_number(d, "epsilon", 1.0))


def _objective_number(d: dict, key: str, default: float) -> float:
    """d[key] (or the default) as a float; anything but a JSON number in
    float range is a ConfigError naming the field."""
    value = d.get(key, default)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ConfigError(f"scheduling.objective.{key}",
                      f"must be a number in float range, got {value!r}")


def _check_section(section: str, d, cls) -> None:
    """Raise ConfigError unless d is a JSON object holding only fields of
    cls, with a JSON integer (not a bool or a float) in every int field."""
    if not isinstance(d, dict):
        raise ConfigError(section, "must be a JSON object")
    # Field types are annotation strings (postponed evaluation).
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    for key, value in d.items():
        if key not in types:
            raise ConfigError(f"{section}.{key}", "unknown field")
        integer = types[key] == "int" or (
            types[key] == "Optional[int]" and value is not None)
        if integer and type(value) is not int:
            raise ConfigError(f"{section}.{key}",
                              f"must be an integer, got {value!r}")


def _scheduling_from_dict(d: dict) -> SchedulingConfig:
    _check_section("scheduling", d, SchedulingConfig)
    kwargs = dict(d)
    if "objective" in kwargs:
        kwargs["objective"] = _objective_from_dict(kwargs["objective"])
    cfg = SchedulingConfig(**kwargs)
    # A QoS objective without its own threshold inherits the scenario R_min.
    obj = cfg.objective
    if obj.is_qos and obj.min_rate_bps == 0.0:
        cfg = dataclasses.replace(
            cfg, objective=dataclasses.replace(obj, min_rate_bps=cfg.min_rate_bps))
    return cfg


def _traffic_from_dict(d: dict) -> TrafficConfig:
    _check_section("traffic", d, TrafficConfig)
    return TrafficConfig(**d)


def _box_from_dict(d: dict) -> Box:
    return Box(x=(float(d["x"][0]), float(d["x"][1])),
               y=(float(d["y"][0]), float(d["y"][1])),
               height=float(d["height"]))


def _channel_from_dict(d: dict) -> ChannelSceneConfig:
    _check_section("channel", d, ChannelSceneConfig)
    kwargs = dict(d)
    if "buildings" in kwargs:
        kwargs["buildings"] = tuple(_box_from_dict(b) for b in kwargs["buildings"])
    if "bs_pos" in kwargs:
        kwargs["bs_pos"] = tuple(float(v) for v in kwargs["bs_pos"])
    if "reflection_coeff" in kwargs:
        rc = kwargs["reflection_coeff"]
        kwargs["reflection_coeff"] = complex(rc[0], rc[1]) if isinstance(rc, (list, tuple)) else complex(rc)
    return ChannelSceneConfig(**kwargs)


def _check_finite(value, where: str) -> None:
    """Raise ConfigError naming the first NaN or infinite float in a parsed
    document (JSON's NaN and Infinity tokens, or an overflowing literal)."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(where, f"must be finite, got {value!r}")
    if isinstance(value, dict):
        for key, v in value.items():
            _check_finite(v, f"{where}.{key}" if where else str(key))
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            _check_finite(v, f"{where}[{i}]")


def scenario_from_dict(doc: dict) -> ScenarioConfig:
    """Validate a parsed JSON document into a ScenarioConfig with defaults."""
    _check_finite(doc, "")
    if "track" not in doc:
        raise ConfigError("track", "required field missing")
    if "seed" not in doc:
        raise ConfigError("seed", "required field missing")
    try:
        track = Track(doc["track"])
    except ValueError:
        raise ConfigError("track", f"unknown track {doc['track']!r}")
    seed = doc["seed"]
    if not isinstance(seed, int):
        raise ConfigError("seed", "must be an integer")

    known = {"track", "seed", "scheduling", "channel", "traffic"}
    for key in doc:
        if key not in known:
            raise ConfigError(key, "unknown field")

    sections = {"scheduling": None, "channel": None, "traffic": None}
    # The minimal document (track + seed only) gets the track's defaults.
    builders = {
        Track.SCHEDULING: ("scheduling", _scheduling_from_dict),
        Track.TRAFFIC: ("traffic", _traffic_from_dict),
        Track.CHANNEL: ("channel", _channel_from_dict),
    }
    name, build = builders[track]
    for other in sections:
        if other != name and other in doc:
            raise ConfigError(other, f"section does not match track={track.value}")
    try:
        sections[name] = build(doc.get(name, {}))
    except TypeError as exc:
        raise ConfigError(name, str(exc))
    return ScenarioConfig(track=track, seed=seed, **sections)


def build_scenario(raw_config: str) -> ScenarioConfig:
    """Parse and validate a JSON scenario document.

    Raises ConfigError naming the field on invariant violations and
    json.JSONDecodeError (with line/column) on parse errors.
    """
    doc = json.loads(raw_config)
    if not isinstance(doc, dict):
        raise ConfigError("document", "top level must be a JSON object")
    return scenario_from_dict(doc)


def _to_jsonable(obj):
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: _to_jsonable(v) for k, v in dataclasses.asdict(obj).items()
                if v is not None}
    if isinstance(obj, dict):
        return {k: _to_jsonable(v) for k, v in obj.items() if v is not None}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v) for v in obj]
    return obj


def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    return _to_jsonable(cfg)


def scenario_to_json(cfg: ScenarioConfig) -> str:
    """Canonical JSON serialization; build_scenario(scenario_to_json(c)) == c."""
    return json.dumps(scenario_to_dict(cfg), indent=2, sort_keys=True) + "\n"
