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
import functools
import json
import math
import numbers
import operator
import sys
from dataclasses import dataclass, field
from typing import Optional, get_args, get_origin, get_type_hints


class ConfigError(ValueError):
    """Raised when a setting, in a config document or a constructor call,
    is malformed; names the offending field."""

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


# The bounds a number field may declare, each with its comparison.
_BOUNDS = {"ge": (">=", operator.ge), "gt": (">", operator.gt),
           "le": ("<=", operator.le), "lt": ("<", operator.lt)}


def bounded(default=dataclasses.MISSING, **bounds):
    """A dataclass field whose number must meet each of bounds (ge, gt, le,
    lt); check_fields enforces them."""
    return field(default=default, metadata=bounds)


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
    min_rate_bps: float = bounded(0.0, ge=0)
    epsilon: float = bounded(1.0, gt=0)

    def __post_init__(self):
        check_fields(self, "scheduling.objective")

    @property
    def is_qos(self) -> bool:
        return self.kind in (ObjectiveKind.QOS_SUM_RATE, ObjectiveKind.QOS_PF)


# Keeps every per-RB rate, and so every score, far below the float maximum.
MAX_BANDWIDTH_HZ = 1.0e12


@dataclass(frozen=True)
class SchedulingConfig:
    """Robot-scheduling scenario: an uplink cell with ``num_rbs`` resource
    blocks over ``bandwidth_hz`` shared by ``num_robots`` robots uniformly
    placed in a disk of ``cell_radius_m``."""

    num_robots: int = bounded(10, ge=1)
    cell_radius_m: float = bounded(100.0, gt=0)
    bandwidth_hz: float = bounded(2.0e7, gt=0, le=MAX_BANDWIDTH_HZ)
    num_rbs: int = bounded(9, ge=1)
    min_rate_bps: float = bounded(1.0e6, ge=0)
    objective: ObjectiveSpec = field(default_factory=ObjectiveSpec)
    buffer_occupancy_prob: float = bounded(1.0, ge=0, le=1)
    # None disables the cap.
    max_rbs_per_robot: Optional[int] = bounded(None, ge=1)

    def __post_init__(self):
        check_fields(self, "scheduling")

    @property
    def rb_cap(self) -> int:
        """Effective per-robot RB cap; defaults to num_rbs (no cap)."""
        return self.num_rbs if self.max_rbs_per_robot is None else self.max_rbs_per_robot


@dataclass(frozen=True)
class TrafficConfig:
    """Intersection scenario: a 100 m x 100 m area, two crossing roads,
    at least one vehicle spawned on four approaches."""

    num_vehicles: int = bounded(80, ge=1)
    area_m: float = bounded(100.0, gt=0)
    free_flow_speed_mps: float = bounded(14.0, gt=0)
    headway_m: float = bounded(5.0, gt=0)
    decision_interval_s: float = bounded(5.0, gt=0)
    min_green_s: float = bounded(5.0, ge=0)
    episode_s: float = 300.0
    dt_s: float = bounded(0.5, gt=0)
    startup_delay_s: float = bounded(2.0, ge=0)
    discharge_headway_s: float = bounded(2.0, ge=0)
    visible_depth: int = bounded(8, ge=1)
    byte_budget: int = bounded(512, ge=1)

    def __post_init__(self):
        check_fields(self, "traffic")
        # Shorter than one step, an episode runs no step at all.
        if self.episode_s < self.dt_s:
            raise ConfigError("traffic.episode_s",
                              f"must be >= dt_s ({self.dt_s})")


@dataclass(frozen=True)
class Box:
    """Axis-aligned building box: x/y ranges in meters plus a height."""

    x: tuple[float, float]
    y: tuple[float, float]
    height: float

    def __post_init__(self):
        if not (_are_numbers(self.x, 2) and _are_numbers(self.y, 2)
                and _is_number(self.height, float)):
            raise ConfigError("channel.buildings",
                              "box ranges and height must be numbers in "
                              f"float range, got {self!r}")
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
    # 100 MHz to 300 GHz.  Far below this band the wavelength overflows and
    # path gains turn NaN; neither end is a channel this model describes.
    carrier_hz: float = bounded(3.5e9, ge=1e8, le=3e11)
    num_antennas: int = bounded(16, ge=1)
    reflection_coeff: complex = 0.6 + 0.0j
    lane_width_m: float = bounded(2.0, gt=0)
    num_lanes: int = bounded(4, ge=1)
    user_height_m: float = 1.5

    def __post_init__(self):
        if len(self.buildings) > 4:
            raise ConfigError("channel.buildings", "at most 4 buildings")
        check_fields(self, "channel")
        if not _are_numbers(self.bs_pos, 3):
            raise ConfigError("channel.bs_pos", "must be 3 numbers in float "
                              f"range, got {self.bs_pos!r}")
        c = self.reflection_coeff
        if not (isinstance(c, numbers.Complex) and type(c) is not bool
                and _are_numbers((c.real, c.imag), 2)):
            raise ConfigError("channel.reflection_coeff",
                              "must be a number with real and imaginary "
                              f"parts in float range, got {c!r}")
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
    seed: int = bounded(ge=0, lt=2 ** 64)
    scheduling: Optional[SchedulingConfig] = None
    channel: Optional[ChannelSceneConfig] = None
    traffic: Optional[TrafficConfig] = None

    def __post_init__(self):
        set_tracks = [t for t in Track if getattr(self, t.value) is not None]
        if set_tracks != [self.track]:
            raise ConfigError(
                "track",
                f"exactly one sub-config matching track={self.track.value} required, "
                f"got sections for {[t.value for t in set_tracks]}",
            )
        check_fields(self, "")


@dataclass(frozen=True)
class ObjectiveSwitch:
    """An OPRO run's ``--switch``: after ``at_iteration`` iterations the run
    optimizes ``objective`` with the QoS threshold ``min_rate_bps``."""

    at_iteration: int = bounded(ge=1)
    objective: ObjectiveKind
    min_rate_bps: float = bounded(ge=0)

    def __post_init__(self):
        check_fields(self, "switch")


# ---------------------------------------------------------------------------
# JSON round-trip


_SECTIONS = {"scheduling": SchedulingConfig, "traffic": TrafficConfig,
             "channel": ChannelSceneConfig}


@functools.cache
def _fields(cls) -> tuple[dict, tuple]:
    """cls's field readers, built once per class, and its required fields."""
    required = tuple(f.name for f in dataclasses.fields(cls)
                     if f.default is f.default_factory is dataclasses.MISSING)
    return ({name: _reader(tp) for name, tp in
             get_type_hints(cls).items()}, required)


def _section(where: str, d, cls):
    """Read the JSON object d into the dataclass cls, each field by its
    annotation; anything else is a ConfigError naming the field's path."""
    if not isinstance(d, dict):
        raise ConfigError(where, "must be a JSON object")
    readers, required = _fields(cls)
    for key in d:
        if key not in readers:
            raise ConfigError(f"{where}.{key}", "unknown field")
    for name in required:
        if name not in d:
            raise ConfigError(f"{where}.{name}", "required field missing")
    return cls(**{key: readers[key](f"{where}.{key}", value)
                  for key, value in d.items()})


# What each numeric annotation takes.  RFC 8259 leaves numbers past the
# float range to the reader; these refuse.
_NUMBERS = {int: "an integer", float: "a number",
            complex: "a number or [re, im]"}


def _is_number(value, tp) -> bool:
    """True when value is an integer, or for tp float any real number,
    within the float range; a bool is neither, and NaN and inf are out.
    Each type tuple puts the builtins first, as the common case."""
    if type(value) is bool:
        return False
    if isinstance(value, (int, numbers.Integral)):
        # Exactly: math.isfinite(10 ** 400) raises.
        return abs(int(value)) <= sys.float_info.max
    if tp is int or not isinstance(value, (float, numbers.Real)):
        return False
    # math.isfinite reads a numpy float at its own width; comparing it with
    # the float64 bound would cast the bound to that width and overflow.
    try:
        return math.isfinite(value)
    except OverflowError:       # a Fraction past the float range
        return False


def _are_numbers(values, n: int) -> bool:
    """True when the sequence values holds n reals in float range."""
    return len(values) == n and all(_is_number(v, float) for v in values)


def _not_a_number(where: str, tp, value) -> ConfigError:
    return ConfigError(where, f"must be {_NUMBERS[tp]} in float range, "
                       f"got {value!r}")


@functools.cache
def _checks(cls, where: str) -> tuple:
    """(name, path, type, optional, bounds, text) for each int or float
    field of cls, built once per class; bounds holds (symbol, comparison,
    bound) triples, and text says them all."""
    checks = []
    hints = get_type_hints(cls)
    for f in dataclasses.fields(cls):
        args = get_args(hints[f.name])
        optional = type(None) in args
        tp = args[0] if optional else hints[f.name]
        if tp in (int, float):
            bounds = tuple((*_BOUNDS[k], b) for k, b in f.metadata.items())
            text = " and ".join(f"{sym} {b if type(b) is int else f'{b:g}'}"
                                for sym, _, b in bounds)
            checks.append((f.name, f"{where}.{f.name}" if where else f.name,
                           tp, optional, bounds, text))
    return tuple(checks)


def check_fields(obj, where: str) -> None:
    """Raise a ConfigError naming <where>.<field> at the first int or float
    field of the dataclass obj that is not a number of its annotated type
    in float range (None passes only an Optional field) or breaks a bound
    its field declares."""
    for name, path, tp, optional, bounds, text in _checks(type(obj), where):
        value = getattr(obj, name)
        if value is None and optional:
            continue
        if not _is_number(value, tp):
            raise _not_a_number(path, tp, value)
        for _, op, bound in bounds:
            # As a Python number: a narrow numpy float would cast the bound.
            if not op(tp(value), bound):
                raise ConfigError(path, f"must be {text}, got {value!r}")


@functools.cache
def _reader(tp):
    """read(where, value): value as the annotated type tp."""
    if tp in _NUMBERS:
        pair = _reader(tuple[float, float]) if tp is complex else None

        def read(where, value):
            if _is_number(value, int if tp is int else float):
                return tp(value)
            if pair and type(value) is list:
                return complex(*pair(where, value))
            raise _not_a_number(where, tp, value)
    elif isinstance(tp, enum.EnumMeta):
        def read(where, value):
            try:
                return tp(value)
            except ValueError:
                raise ConfigError(where, f"must be one of "
                                  f"{[m.value for m in tp]}, got {value!r}")
    elif dataclasses.is_dataclass(tp):
        read = functools.partial(_section, cls=tp)
    elif get_origin(tp) is tuple:
        # Each tuple field holds one type: (float, float) or (Box, ...).
        args = get_args(tp)
        item = _reader(args[0])
        size = None if args[-1] is ... else len(args)

        def read(where, value):
            if type(value) is not list or size not in (None, len(value)):
                raise ConfigError(where, f"must be a list of "
                                  f"{size or 'any number of'} entries, "
                                  f"got {value!r}")
            return tuple([item(f"{where}[{i}]", v)
                          for i, v in enumerate(value)])
    else:  # Optional[X]
        inner = _reader(get_args(tp)[0])

        def read(where, value):
            return None if value is None else inner(where, value)
    return read


def _check_finite(doc, where: str) -> None:
    """Raise ConfigError naming the first NaN or infinite float in a parsed
    document (JSON's NaN and Infinity tokens, or an overflowing literal)."""
    is_dict = isinstance(doc, dict)
    for key, v in doc.items() if is_dict else enumerate(doc):
        bad = isinstance(v, float) and not math.isfinite(v)
        if bad or isinstance(v, (dict, list, tuple)):
            name = ((f"{where}.{key}" if where else str(key)) if is_dict
                    else f"{where}[{key}]")
            if bad:
                raise ConfigError(name, f"must be finite, got {v!r}")
            _check_finite(v, name)


def scenario_from_dict(doc: dict) -> ScenarioConfig:
    """Validate a parsed JSON document into a ScenarioConfig with defaults."""
    if not isinstance(doc, dict):
        raise ConfigError("document", "top level must be a JSON object")
    _check_finite(doc, "")
    for key in ("track", "seed"):
        if key not in doc:
            raise ConfigError(key, "required field missing")
    track = _reader(Track)("track", doc["track"])
    seed = _reader(int)("seed", doc["seed"])
    name = track.value
    for key in doc:
        if key not in ("track", "seed", name):
            raise ConfigError(key, f"section does not match track={name}"
                              if key in _SECTIONS else "unknown field")
    # The minimal document (track + seed only) gets the track's defaults.
    cfg = _section(name, doc.get(name, {}), _SECTIONS[name])
    # A QoS objective without its own threshold inherits the scenario R_min.
    if track is Track.SCHEDULING and cfg.objective.is_qos \
            and cfg.objective.min_rate_bps == 0.0:
        cfg = dataclasses.replace(cfg, objective=dataclasses.replace(
            cfg.objective, min_rate_bps=cfg.min_rate_bps))
    return ScenarioConfig(track=track, seed=seed, **{name: cfg})


def switch_from_dict(doc, cfg: SchedulingConfig,
                     max_iterations: int) -> tuple[int, ObjectiveSpec]:
    """(at_iteration, objective) of a switch document for a max_iterations
    run on cfg; min_rate_bps defaults to cfg's."""
    if isinstance(doc, dict):
        doc = {"min_rate_bps": cfg.min_rate_bps, **doc}
    switch = _section("switch", doc, ObjectiveSwitch)
    if switch.at_iteration >= max_iterations:
        raise ConfigError("switch.at_iteration",
                          f"must be in [1, {max_iterations - 1}]")
    return switch.at_iteration, ObjectiveSpec(switch.objective,
                                              switch.min_rate_bps)


def build_scenario(raw_config: str) -> ScenarioConfig:
    """Parse and validate a JSON scenario document.

    Raises ConfigError naming the field on invariant violations and
    json.JSONDecodeError (with line/column) on parse errors.
    """
    return scenario_from_dict(json.loads(raw_config))


def _to_jsonable(obj):
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        # Field by field: asdict would deep-copy the tree only to have it
        # walked again here.
        doc = {}
        for f in dataclasses.fields(obj):
            v = getattr(obj, f.name)
            if v is not None:
                doc[f.name] = _to_jsonable(v)
        return doc
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
