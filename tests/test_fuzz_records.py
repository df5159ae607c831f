"""Every valid document gives a strict-JSON record or a named error.

Small valid documents go through ``report.run_safe`` under every method.
An ok record must parse with non-finite numbers refused, and an error
record must name a cause the document explains; an exception that escapes
``run_safe``, or an error nobody expects, fails the test.  Traffic
documents are covered here.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from autocomm.configs import scenario_from_dict
from autocomm.report import TRAFFIC_METHODS, record_to_json, run_safe


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
TRAFFIC_CAUSES = ("InsufficientBudgetError: foreground needs ",
                  "EmptyEpisodeError: cannot spawn an episode with no "
                  "vehicles")


@settings(max_examples=150, deadline=None)
@given(doc=traffic_documents())
def test_traffic_documents_give_a_strict_record_or_a_named_error(doc):
    scenario = scenario_from_dict(doc)
    for method in TRAFFIC_METHODS:
        for observation in ("vue", "rsu"):
            rec = run_safe(scenario, method, {"observation": observation})
            parsed = json.loads(record_to_json(rec),
                                parse_constant=pytest.fail)
            assert parsed["status"] == rec.status
            if rec.status == "ok":
                assert parsed["metrics"]["num_vehicles"] == \
                    doc["traffic"]["num_vehicles"]
                assert parsed["details"] == {"observation": observation}
            else:
                assert rec.error.startswith(TRAFFIC_CAUSES), rec.error

