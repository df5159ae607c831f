"""Every int or float field of a parameter dataclass declares its bound,
and one check enforces type and bound on every construction.

A document goes through configs' field reader before its dataclass is
built; a Python caller builds the dataclass directly.  Both paths end in
configs.check_fields, so each table row below constructs the class
directly and expects a ConfigError naming the field's path.
"""

import dataclasses
import math
from typing import get_args, get_type_hints

import pytest

from autocomm.configs import (
    ChannelSceneConfig,
    ConfigError,
    ObjectiveKind,
    ObjectiveSpec,
    ObjectiveSwitch,
    ScenarioConfig,
    SchedulingConfig,
    Track,
    TrafficConfig,
)
from autocomm.gateway import EndpointConfig
from autocomm.opro import OproParams
from autocomm.scheduling import GaParams

# Class -> (the path its errors start with, the arguments it requires).
CLASSES = {
    ObjectiveSpec: ("scheduling.objective", {}),
    SchedulingConfig: ("scheduling", {}),
    TrafficConfig: ("traffic", {}),
    ChannelSceneConfig: ("channel", {}),
    ScenarioConfig: ("", {"track": Track.TRAFFIC, "seed": 1,
                          "traffic": TrafficConfig()}),
    ObjectiveSwitch: ("switch", {"at_iteration": 1,
                                 "objective": ObjectiveKind.PF,
                                 "min_rate_bps": 0.0}),
    GaParams: ("ga", {}),
    OproParams: ("opro_params", {}),
    EndpointConfig: ("endpoint", {"base_url": "http://x", "model": "m"}),
}

# "Class.field" -> why the field declares no bound.
UNBOUNDED = {
    "TrafficConfig.episode_s": "its rule is cross-field: >= dt_s",
    "ChannelSceneConfig.user_height_m": "any finite height is allowed",
    "EndpointConfig.temperature": "any finite temperature is allowed",
}


def _number_fields():
    """(cls, field, type, optional) for each int or float field."""
    rows = []
    for cls in CLASSES:
        hints = get_type_hints(cls)
        for f in dataclasses.fields(cls):
            args = get_args(hints[f.name])
            optional = type(None) in args
            tp = args[0] if optional else hints[f.name]
            if tp in (int, float):
                rows.append((cls, f, tp, optional))
    return rows


NUMBER_FIELDS = _number_fields()
CLOSED_FIELDS = [row for row in NUMBER_FIELDS
                 if set(row[1].metadata) & {"ge", "le"}]


def _ids(rows):
    return [f"{cls.__name__}.{f.name}" for cls, f, _, _ in rows]


def _unbounded():
    return set(_ids([row for row in NUMBER_FIELDS if not row[1].metadata]))


def _path(cls, name):
    where = CLASSES[cls][0]
    return f"{where}.{name}" if where else name


def _past(tp, op, bound):
    """The value just past bound on the side op refuses."""
    if op in ("gt", "lt"):
        return bound
    if tp is int:
        return bound - 1 if op == "ge" else bound + 1
    return math.nextafter(bound, -math.inf if op == "ge" else math.inf)


def _refused(f, tp, optional):
    """Values the field must refuse."""
    values = [True, False]
    values += [2.0, 2.5] if tp is int else [math.nan, math.inf, -math.inf,
                                            10 ** 400]
    if not optional:
        values.append(None)
    values += [_past(tp, op, b) for op, b in f.metadata.items()]
    return values


def test_every_number_field_declares_a_bound_or_a_reason():
    assert sorted(_unbounded() - set(UNBOUNDED)) == []


def test_the_reasons_name_no_bounded_or_missing_field():
    assert sorted(set(UNBOUNDED) - _unbounded()) == []


@pytest.mark.parametrize("cls, f, tp, optional", NUMBER_FIELDS,
                         ids=_ids(NUMBER_FIELDS))
def test_a_constructor_refuses_a_bad_number_naming_its_path(cls, f, tp,
                                                            optional):
    required = CLASSES[cls][1]
    for value in _refused(f, tp, optional):
        with pytest.raises(ConfigError) as err:
            cls(**{**required, f.name: value})
        assert err.value.field == _path(cls, f.name), value


@pytest.mark.parametrize("cls, f, tp, optional", CLOSED_FIELDS,
                         ids=_ids(CLOSED_FIELDS))
def test_a_constructor_keeps_a_closed_bound(cls, f, tp, optional):
    required = CLASSES[cls][1]
    for op, bound in f.metadata.items():
        if op in ("ge", "le"):
            obj = cls(**{**required, f.name: bound})
            assert getattr(obj, f.name) == bound


@pytest.mark.parametrize("seed", [1.5, True])
def test_a_seed_that_is_not_an_integer_is_refused(seed):
    # Both used to run: 1.5 drew from seed 1 while the record said 1.5.
    with pytest.raises(ConfigError) as err:
        ScenarioConfig(track=Track.TRAFFIC, seed=seed,
                       traffic=TrafficConfig())
    assert err.value.field == "seed"
