"""Prompt construction, response parsing, feedback wording, and the loop."""

import hashlib
import math

import numpy as np
import pytest

from autocomm.configs import ObjectiveKind, ObjectiveSpec, SchedulingConfig
from autocomm.opro import (
    PARSE_FEEDBACK,
    MockLocalSearchEngine,
    OproParams,
    ParseFailure,
    build_task_prompt,
    explore_hint,
    feedback_message,
    opro_optimize,
    opro_optimize_segments,
    parse_allocation,
    prompt_digest,
)
from autocomm.radio import RadioParams, SnrMap, generate_snr_map
from autocomm.rng import stream
from autocomm.scheduling import LEVEL_INVALID, LEVEL_OK, LEVEL_QOS_VIOLATED, validate

QOS = ObjectiveSpec(kind=ObjectiveKind.QOS_SUM_RATE, min_rate_bps=1e6)
PF = ObjectiveSpec(kind=ObjectiveKind.PF)


def flat_map(num_robots, num_rbs=9, snr=3.0):
    return SnrMap(values=np.full((num_robots, num_rbs), snr),
                  robot_positions=np.zeros((num_robots, 2)),
                  buffer_nonempty=np.ones(num_robots, dtype=bool))


class Scripted:
    """Engine that plays back canned responses and records its prompts."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.prompts = []

    def propose(self, prompt: str) -> str:
        self.prompts.append(prompt)
        if len(self.responses) > 1:
            return self.responses.pop(0)
        return self.responses[0]


# ---------------------------------------------------------------------------
# Prompt text


def test_prompt_is_deterministic_and_complete():
    cfg = SchedulingConfig(num_robots=3, objective=QOS)
    snr = flat_map(3)
    prompt = build_task_prompt(cfg, snr, QOS, [], 1.0)
    assert prompt == build_task_prompt(cfg, snr, QOS, [], 1.0)
    assert "Task: assign radio resource blocks to robots in a factory cell." in prompt
    assert "Number of resource blocks: 9" in prompt
    assert ("Total bandwidth: 20000000 Hz, split evenly across the resource "
            "blocks.") in prompt
    assert "Eligible robots (nonempty buffers): 1, 2, 3" in prompt
    assert "  robot 2: 3, 3, 3, 3, 3, 3, 3, 3, 3" in prompt
    assert "No allocations have been evaluated yet." in prompt
    assert ("Exploration hint: 1.0000 (1 = explore broadly, 0 = refine the "
            "best known allocation).") in prompt
    assert "minimum rate of 1000000 bits per second" in prompt
    assert "counts as zero rate" in prompt


def test_prompt_pf_objective_text():
    cfg = SchedulingConfig(num_robots=2, objective=PF)
    prompt = build_task_prompt(cfg, flat_map(2), PF, [], 0.5)
    assert "maximize proportional fairness" in prompt
    assert "log2(max(rate, 1))" in prompt


def test_prompt_history_worst_to_best():
    cfg = SchedulingConfig(num_robots=2, objective=PF)
    history = [((1,) * 9, 10.0), ((2,) * 9, 20.0)]
    prompt = build_task_prompt(cfg, flat_map(2), PF, history, 0.0)
    assert "worst to best" in prompt
    lo = prompt.index("score=10 allocation=[1, 1, 1, 1, 1, 1, 1, 1, 1]")
    hi = prompt.index("score=20 allocation=[2, 2, 2, 2, 2, 2, 2, 2, 2]")
    assert lo < hi


def test_prompt_cap_line_only_when_capped():
    cfg = SchedulingConfig(num_robots=2, objective=PF)
    assert "more than" not in build_task_prompt(cfg, flat_map(2), PF, [], 0.0)
    capped = SchedulingConfig(num_robots=2, max_rbs_per_robot=5, objective=PF)
    prompt = build_task_prompt(capped, flat_map(2), PF, [], 0.0)
    assert "No robot may own more than 5 resource blocks." in prompt


def test_prompt_feedback_line():
    cfg = SchedulingConfig(num_robots=2, objective=PF)
    prompt = build_task_prompt(cfg, flat_map(2), PF, [], 0.0,
                               last_feedback="Allocation achieved score 5.")
    assert ("Feedback on the most recent proposal: Allocation achieved "
            "score 5.") in prompt


def test_prompt_digest_is_sha256():
    assert prompt_digest("abc") == hashlib.sha256(b"abc").hexdigest()


# ---------------------------------------------------------------------------
# Parsing and feedback


@pytest.mark.parametrize("text, expect", [
    ("Proposed allocation: [1, 2, 3]", (1, 2, 3)),
    ("[4 5 6]", (4, 5, 6)),
    ("first [1,2] then final [7, 8, 9].", (7, 8, 9)),
    ("[1, 2, 3] (see the table [above])", (1, 2, 3)),
    ("[-1, 2]", (-1, 2)),
])
def test_parse_allocation_accepts(text, expect):
    alloc, failure = parse_allocation(text)
    assert failure is None
    assert alloc == expect


def test_parse_allocation_failures():
    assert parse_allocation("no vector here") == (None, ParseFailure.NO_VECTOR)
    assert parse_allocation("[]") == (None, ParseFailure.NO_VECTOR)
    assert parse_allocation("[a, b]") == (None, ParseFailure.NON_INTEGER_TOKEN)
    assert parse_allocation("[1.5, 2.5]") == (None,
                                              ParseFailure.NON_INTEGER_TOKEN)


def test_feedback_sentences_verbatim():
    cfg = SchedulingConfig(num_robots=8, max_rbs_per_robot=8, objective=QOS)
    snr = flat_map(8)

    ok = validate([1, 2, 3, 4, 5, 6, 7, 8, 1], snr, cfg, QOS)
    assert feedback_message(ok, 1234.5, None, 9) == \
        "Allocation achieved score 1234.5."

    report = validate([i % 6 + 1 for i in range(9)], snr, cfg, QOS)
    msg = feedback_message(report, None, None, 9)
    assert msg == ("RB allocation vector violates the QoS requirement of "
                   "robots 7 and 8.")

    wrong = validate([1, 2, 4, 5, 6, 8, 9, 10], flat_map(10),
                     SchedulingConfig(num_robots=10, objective=QOS), QOS)
    assert feedback_message(wrong, None, None, 9) == \
        ("RB allocation vector has the wrong length; exactly 9 entries are "
         "required.")

    unknown = validate([12, 2, 3, 4, 5, 6, 7, 8, 1], snr, cfg, QOS)
    assert feedback_message(unknown, None, None, 9) == \
        "RB allocation vector references robots that do not exist: 12."

    capped = validate([1] * 9, snr,
                      SchedulingConfig(num_robots=8, max_rbs_per_robot=4,
                                       objective=QOS), QOS)
    assert feedback_message(capped, None, None, 9) == \
        ("RB allocation vector gives robot 1 more resource blocks than the "
         "per-robot cap allows.")

    for failure, sentence in PARSE_FEEDBACK.items():
        assert feedback_message(None, None, failure, 9) == sentence


def test_feedback_empty_buffer_sentence():
    cfg = SchedulingConfig(num_robots=3, objective=QOS)
    snr = SnrMap(values=np.full((3, 9), 3.0),
                 robot_positions=np.zeros((3, 2)),
                 buffer_nonempty=np.array([True, False, True]))
    report = validate([1, 2, 3, 1, 3, 1, 3, 1, 3], snr, cfg, QOS)
    msg = feedback_message(report, None, None, 9)
    assert ("RB allocation vector assigns resource blocks to robots with "
            "empty buffers: 2.") in msg


def test_explore_hint_schedule():
    assert explore_hint(0, 200) == 1.0
    assert explore_hint(50, 200) == pytest.approx(0.5)
    assert explore_hint(100, 200) == 0.0
    assert explore_hint(180, 200) == 0.0


# ---------------------------------------------------------------------------
# Loop semantics


def test_loop_monotone_best_and_transcript_fields():
    cfg = SchedulingConfig(num_robots=3, objective=QOS)
    snr = flat_map(3)
    engine = Scripted([
        "[1, 1, 1, 1, 1, 1, 1, 1, 1]",          # QoS violated
        "garbage",                                # costs an iteration
        "[1, 2, 3, 1, 2, 3, 1, 2, 3]",          # feasible
        "[1, 2, 3, 1, 2, 3, 1, 2, 1]",          # feasible, lower
    ])
    result = opro_optimize(cfg, snr, QOS, engine,
                           OproParams(max_iterations=6, stop_patience=50))
    assert result.success
    keys = [(e.best_level, e.best_score) for e in result.transcript
            if e.best_score is not None]
    assert keys == sorted(keys)
    assert [e.iteration for e in result.transcript] == list(
        range(1, len(result.transcript) + 1))
    assert all(len(e.prompt_digest) == 64 for e in result.transcript)

    bad = result.transcript[1]
    assert bad.parse_failure is ParseFailure.NO_VECTOR
    assert bad.parsed is None and bad.report is None and bad.score is None
    assert bad.feedback == PARSE_FEEDBACK[ParseFailure.NO_VECTOR]
    # The corrective feedback reaches the next prompt.
    assert ("Feedback on the most recent proposal: "
            + PARSE_FEEDBACK[ParseFailure.NO_VECTOR]) in engine.prompts[2]


def test_loop_never_succeeds_with_qos_violation():
    cfg = SchedulingConfig(num_robots=3, objective=QOS)
    snr = flat_map(3)
    engine = Scripted(["[1, 1, 1, 1, 1, 1, 1, 1, 1]"])
    result = opro_optimize(cfg, snr, QOS, engine,
                           OproParams(max_iterations=10, stop_patience=50))
    assert not result.success
    assert result.final.best_level == LEVEL_QOS_VIOLATED
    assert result.best_alloc == (1,) * 9


def test_loop_ignores_structurally_invalid_proposals():
    cfg = SchedulingConfig(num_robots=3, objective=QOS)
    snr = flat_map(3)
    engine = Scripted(["[9, 9, 9, 9, 9, 9, 9, 9, 9]"])
    result = opro_optimize(cfg, snr, QOS, engine,
                           OproParams(max_iterations=5, stop_patience=50))
    assert not result.success
    assert result.best_alloc is None
    assert result.final.best_level == LEVEL_INVALID


def test_loop_stop_patience():
    cfg = SchedulingConfig(num_robots=3, objective=QOS)
    snr = flat_map(3)
    engine = Scripted(["[1, 2, 3, 1, 2, 3, 1, 2, 3]"])
    result = opro_optimize(cfg, snr, QOS, engine,
                           OproParams(max_iterations=100, stop_patience=5))
    # First proposal improves; the next 5 repeats exhaust the patience.
    assert result.final.iterations_run == 6
    assert len(result.transcript) == 6


def test_task_switch_reuses_incumbent():
    cfg = SchedulingConfig(num_robots=3, objective=PF)
    snr = generate_snr_map(cfg, RadioParams(fading="rayleigh"),
                           stream(61, "scheduling/snr"))
    engine = MockLocalSearchEngine(stream(61, "scheduling/engine"))
    result = opro_optimize_segments(cfg, snr, [(PF, 40), (QOS, 40)], engine,
                                    OproParams(max_iterations=40))
    assert len(result.segments) == 2
    assert sorted({e.segment for e in result.transcript}) == [0, 1]
    assert result.segments[0].success and result.segments[1].success
    # The carried allocation seeds the switch: the very first entry of the
    # second segment already has an incumbent.
    first_after = next(e for e in result.transcript if e.segment == 1)
    assert first_after.best_score is not None
    assert first_after.objective_kind == "qos_sum_rate"


# ---------------------------------------------------------------------------
# Mock engine contract


def test_mock_cold_start_is_valid():
    cfg = SchedulingConfig(num_robots=3, objective=QOS)
    snr = flat_map(3)
    prompt = build_task_prompt(cfg, snr, QOS, [], 1.0)
    engine = MockLocalSearchEngine(stream(5, "engine"))
    alloc, failure = parse_allocation(engine.propose(prompt))
    assert failure is None
    assert len(alloc) == 9
    assert validate(alloc, snr, cfg, PF).ok


def test_mock_is_deterministic():
    cfg = SchedulingConfig(num_robots=3, objective=QOS)
    snr = flat_map(3)
    prompt = build_task_prompt(cfg, snr, QOS,
                               [((1, 2, 3, 1, 2, 3, 1, 2, 3), 5.0)], 0.5)
    a = MockLocalSearchEngine(stream(6, "engine")).propose(prompt)
    b = MockLocalSearchEngine(stream(6, "engine")).propose(prompt)
    assert a == b


def test_mock_garbage_prob_one_never_parses():
    engine = MockLocalSearchEngine(stream(7, "engine"), garbage_prob=1.0)
    out = engine.propose("anything")
    assert parse_allocation(out)[0] is None


def test_mock_without_task_lines_degrades_gracefully():
    engine = MockLocalSearchEngine(stream(8, "engine"))
    out = engine.propose("not a task prompt at all")
    assert parse_allocation(out)[0] is None


def test_loop_with_mock_reaches_feasibility(small_instance):
    cfg, snr, obj = small_instance
    engine = MockLocalSearchEngine(stream(62, "scheduling/engine"))
    result = opro_optimize(cfg, snr, obj, engine, OproParams())
    assert result.success
    assert result.final.best_level == LEVEL_OK


def test_loop_tolerates_flaky_mock(small_instance):
    cfg, snr, obj = small_instance
    engine = MockLocalSearchEngine(stream(63, "scheduling/engine"),
                                   garbage_prob=0.3)
    result = opro_optimize(cfg, snr, obj, engine, OproParams())
    assert result.success
    failures = [e for e in result.transcript if e.parse_failure is not None]
    assert failures, "flaky engine should have produced at least one dud"
