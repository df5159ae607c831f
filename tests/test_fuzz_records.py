"""Every valid document gives a strict-JSON record or a named error.

Small valid documents go through ``report.run_safe`` under every method.
An ok record must parse with non-finite numbers refused, and an error
record must name a cause the document explains; an exception that escapes
``run_safe``, or an error nobody expects, fails the test.  Traffic and
scheduling documents are covered here.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from autocomm.configs import ConfigError, ObjectiveKind, scenario_from_dict
from autocomm.report import (
    SEARCH_METHODS,
    TRAFFIC_METHODS,
    record_to_json,
    run_safe,
)


def _strict(rec):
    """The record's JSON text parsed with NaN and infinities refused."""
    parsed = json.loads(record_to_json(rec), parse_constant=pytest.fail)
    assert parsed["status"] == rec.status
    return parsed


@st.composite
def traffic_documents(draw):
    """Short episodes, from no vehicle to a crowd, under byte budgets from
    below the foreground (about 200-350 bytes) to room for every row."""
    dt = draw(st.sampled_from([0.1, 0.25, 0.5, 1.0]))
    return {
        "track": "traffic",
        "seed": draw(st.integers(0, 2 ** 32 - 1)),
        "traffic": {
            "num_vehicles": draw(st.integers(0, 40)),
            "byte_budget": draw(st.integers(150, 800)
                                | st.integers(1, 3000)),
            "visible_depth": draw(st.integers(1, 10)),
            "dt_s": dt,
            "decision_interval_s": draw(st.floats(0.05, 10.0)),
            "episode_s": dt * draw(st.integers(1, 40)),
        },
    }


# What a valid traffic document may still fail with, by the start of the
# error text.
TRAFFIC_CAUSES = ("InsufficientBudgetError: foreground needs ",)


@settings(max_examples=150, deadline=None)
@given(doc=traffic_documents())
def test_traffic_documents_give_a_strict_record_or_a_named_error(doc):
    if doc["traffic"]["num_vehicles"] == 0:
        # An episode with no vehicle can never run, so the reader refuses it.
        with pytest.raises(ConfigError) as err:
            scenario_from_dict(doc)
        assert err.value.field == "traffic.num_vehicles"
        return
    scenario = scenario_from_dict(doc)
    for method in TRAFFIC_METHODS:
        for observation in ("vue", "rsu"):
            rec = run_safe(scenario, method, {"observation": observation})
            parsed = _strict(rec)
            if rec.status == "ok":
                assert parsed["metrics"]["num_vehicles"] == \
                    doc["traffic"]["num_vehicles"]
                assert parsed["details"] == {"observation": observation}
            else:
                assert rec.error.startswith(TRAFFIC_CAUSES), rec.error


@st.composite
def scheduling_documents(draw):
    """A few robots on a few RBs: no cap, caps that just cover the RBs and
    caps too tight to, buffers from always empty to always full, and QoS
    thresholds from none to more than any robot gets."""
    num_rbs = draw(st.integers(1, 6))
    return {
        "track": "scheduling",
        "seed": draw(st.integers(0, 2 ** 32 - 1)),
        "scheduling": {
            "num_robots": draw(st.integers(1, 4)),
            "num_rbs": num_rbs,
            "max_rbs_per_robot": draw(st.none() | st.integers(1, num_rbs)),
            "buffer_occupancy_prob": draw(st.just(1.0)
                                          | st.floats(0.0, 1.0)),
            "min_rate_bps": draw(st.sampled_from([0.0, 1e6, 1e7, 1e8])
                                 | st.floats(0.0, 2e8)),
            "objective": {
                "kind": draw(st.sampled_from([k.value
                                              for k in ObjectiveKind])),
            },
        },
    }


# The methods of the scheduling track that run without an endpoint.
OFFLINE_SCHEDULING_METHODS = SEARCH_METHODS + ("opro_mock",)

# What a valid scheduling document may still fail with: every robot's
# buffer is empty, or the eligible robots cannot hold every RB under the
# cap.
SCHEDULING_CAUSES = ("ValueError: no eligible robots",
                     "ValueError: max_rbs_per_robot ")


@settings(max_examples=80, deadline=None)
@given(doc=scheduling_documents(), iterations=st.integers(1, 30))
def test_scheduling_documents_give_a_strict_record_or_a_named_error(
        doc, iterations):
    scenario = scenario_from_dict(doc)
    opts = {"opro_params": {"max_iterations": iterations}}
    for method in OFFLINE_SCHEDULING_METHODS:
        rec = run_safe(scenario, method, opts)
        parsed = _strict(rec)
        if rec.status == "ok":
            assert parsed["metrics"]["level"] in (1.0, 2.0)
            assert len(parsed["details"]["alloc"]) == doc["scheduling"][
                "num_rbs"]
            assert parsed["details"]["objective"] == \
                doc["scheduling"]["objective"]["kind"]
        else:
            assert rec.error.startswith(SCHEDULING_CAUSES), rec.error
