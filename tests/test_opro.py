"""Prompt construction, response parsing, feedback wording, and the loop."""

import dataclasses
import hashlib
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scalar_oracle as oracle

from autocomm import opro, report
from autocomm.configs import (
    ConfigError,
    ObjectiveKind,
    ObjectiveSpec,
    SchedulingConfig,
    scenario_from_dict,
)
from autocomm.opro import (
    PARSE_FEEDBACK,
    MockLocalSearchEngine,
    OproParams,
    ParseFailure,
    build_task_prompt,
    explore_hint,
    feedback_message,
    opro_optimize_segments,
    parse_allocation,
    prompt_digest,
    task_prompt_head,
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
    head = task_prompt_head(cfg, snr, QOS)
    prompt = build_task_prompt(head, cfg, [], 1.0)
    assert head == task_prompt_head(cfg, snr, QOS)
    assert prompt == build_task_prompt(head, cfg, [], 1.0)
    assert prompt.startswith(head + "\n")
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
    prompt = build_task_prompt(task_prompt_head(cfg, flat_map(2), PF), cfg,
                               [], 0.5)
    assert "maximize proportional fairness" in prompt
    assert "log2(max(rate, 1))" in prompt


def test_prompt_history_worst_to_best():
    cfg = SchedulingConfig(num_robots=2, objective=PF)
    history = [opro._exemplar_line((1,) * 9, 10.0),
               opro._exemplar_line((2,) * 9, 20.0)]
    prompt = build_task_prompt(task_prompt_head(cfg, flat_map(2), PF), cfg,
                               history, 0.0)
    assert "worst to best" in prompt
    lo = prompt.index("score=10 allocation=[1, 1, 1, 1, 1, 1, 1, 1, 1]")
    hi = prompt.index("score=20 allocation=[2, 2, 2, 2, 2, 2, 2, 2, 2]")
    assert lo < hi


def test_prompt_cap_line_only_when_capped():
    cfg = SchedulingConfig(num_robots=2, objective=PF)
    head = task_prompt_head(cfg, flat_map(2), PF)
    assert "more than" not in head
    assert "more than" not in build_task_prompt(head, cfg, [], 0.0)
    capped = SchedulingConfig(num_robots=2, max_rbs_per_robot=5, objective=PF)
    prompt = build_task_prompt(task_prompt_head(capped, flat_map(2), PF),
                               capped, [], 0.0)
    assert "No robot may own more than 5 resource blocks." in prompt


def test_prompt_feedback_line():
    cfg = SchedulingConfig(num_robots=2, objective=PF)
    prompt = build_task_prompt(task_prompt_head(cfg, flat_map(2), PF), cfg,
                               [], 0.0,
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


# Vector-like text: brackets, separators and tokens that are integers,
# near-integers, over-long digit runs and non-ASCII digits.
_token = st.one_of(st.integers(-10, 10).map(str), st.text(max_size=4),
                   st.sampled_from(["1.5", "+3", "1_0", "1e3", "9" * 5000,
                                    "\u0663", "0x1", "--2", ""]))
_vector_text = st.lists(st.one_of(
    _token, st.sampled_from(["[", "]", ",", " ", "\n", "[]", "[[", "]]"])),
    max_size=30).map("".join)


@settings(max_examples=300, deadline=None)
@given(text=st.text() | _vector_text)
def test_parse_allocation_never_raises(text):
    alloc, failure = parse_allocation(text)
    if failure is None:
        assert isinstance(alloc, tuple) and alloc
        assert all(type(v) is int for v in alloc)
    else:
        assert alloc is None and isinstance(failure, ParseFailure)


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
    result = opro_optimize_segments(cfg, snr, [(QOS, 6)], engine,
                                    OproParams(stop_patience=50))
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
    result = opro_optimize_segments(cfg, snr, [(QOS, 10)], engine,
                                    OproParams(stop_patience=50))
    assert not result.success
    assert result.final.best_level == LEVEL_QOS_VIOLATED
    assert result.best_alloc == (1,) * 9


def test_loop_ignores_structurally_invalid_proposals():
    cfg = SchedulingConfig(num_robots=3, objective=QOS)
    snr = flat_map(3)
    engine = Scripted(["[9, 9, 9, 9, 9, 9, 9, 9, 9]"])
    result = opro_optimize_segments(cfg, snr, [(QOS, 5)], engine,
                                    OproParams(stop_patience=50))
    assert not result.success
    assert result.best_alloc is None
    assert result.final.best_level == LEVEL_INVALID


def test_loop_stop_patience():
    cfg = SchedulingConfig(num_robots=3, objective=QOS)
    snr = flat_map(3)
    engine = Scripted(["[1, 2, 3, 1, 2, 3, 1, 2, 3]"])
    result = opro_optimize_segments(cfg, snr, [(QOS, 100)], engine,
                                    OproParams(stop_patience=5))
    # First proposal improves; the next 5 repeats exhaust the patience.
    assert result.final.iterations_run == 6
    assert len(result.transcript) == 6


@pytest.mark.parametrize("field", ["max_iterations", "stop_patience",
                                   "history_window"])
def test_opro_params_refuse_values_below_one(field):
    # 0 would run no iteration (a -inf score), stop every segment after its
    # first iteration, or put every exemplar in the prompt (ranked[-0:]).
    for bad in (0, -1):
        with pytest.raises(ConfigError) as err:
            OproParams(**{field: bad})
        assert str(err.value) == f"opro_params.{field}: must be >= 1, got {bad}"
    assert getattr(OproParams(**{field: 1}), field) == 1


@pytest.mark.parametrize("field", ["max_iterations", "stop_patience",
                                   "history_window"])
def test_opro_params_refuse_a_count_that_is_not_an_integer(field):
    # True ran one iteration, 2.5 acted as 3, and a float max_iterations
    # failed inside the loop with a TypeError.
    for bad in (5.0, 2.5, True, "5", None):
        with pytest.raises(ConfigError) as err:
            OproParams(**{field: bad})
        assert str(err.value) == (f"opro_params.{field}: must be an integer "
                                  f"in float range, got {bad!r}")


def test_a_float_opro_iteration_count_is_an_error_record_naming_it():
    doc = {"track": "scheduling", "seed": 3,
           "scheduling": {"num_robots": 3, "num_rbs": 6}}
    rec = report.run_safe(scenario_from_dict(doc), "opro_mock",
                          {"opro_params": {"max_iterations": 5.0}})
    assert rec.status == "error"
    assert rec.error == ("ConfigError: opro_params.max_iterations: must be "
                         "an integer in float range, got 5.0")


@pytest.mark.parametrize("opro_params, error", [
    ({"bogus": 1}, "ConfigError: opro_params.bogus: unknown field"),
    ([5], "ConfigError: opro_params: must be a JSON object"),
], ids=["unknown-key", "not-an-object"])
def test_opro_params_are_read_as_a_section(opro_params, error):
    # Both used to end in a TypeError from OproParams(**opro_params).
    doc = {"track": "scheduling", "seed": 3,
           "scheduling": {"num_robots": 3, "num_rbs": 6}}
    rec = report.run_safe(scenario_from_dict(doc), "opro_mock",
                          {"opro_params": opro_params})
    assert rec.status == "error"
    assert rec.error == error


def test_a_run_with_no_opro_iterations_is_an_error_record():
    doc = {"track": "scheduling", "seed": 3,
           "scheduling": {"num_robots": 3, "num_rbs": 6}}
    rec = report.run_safe(scenario_from_dict(doc), "opro_mock",
                          {"opro_params": {"max_iterations": 0}})
    assert rec.status == "error"
    assert rec.error == ("ConfigError: opro_params.max_iterations: must be "
                         ">= 1, got 0")


def test_loop_formats_a_head_per_segment_and_validates_repeats_once(
        monkeypatch):
    cfg = SchedulingConfig(num_robots=3, objective=QOS)
    snr = flat_map(3)
    calls = {"head": 0, "validate": 0}

    def counting_head(*args):
        calls["head"] += 1
        return task_prompt_head(*args)

    def counting_validate(*args):
        calls["validate"] += 1
        return validate(*args)

    monkeypatch.setattr(opro, "task_prompt_head", counting_head)
    monkeypatch.setattr(opro, "validate", counting_validate)
    even, one = "[1, 2, 3, 1, 2, 3, 1, 2, 3]", "[1, 1, 1, 1, 1, 1, 1, 1, 1]"
    engine = Scripted([even, one, even, "nothing", one, even])
    result = opro_optimize_segments(cfg, snr, [(QOS, 4), (PF, 4)], engine,
                                    OproParams(stop_patience=50))
    assert len(result.transcript) == 8
    assert calls["head"] == 2
    # Two distinct allocations in each segment; the switch drops the reports.
    assert calls["validate"] == 4
    for entry in result.transcript:
        obj = QOS if entry.segment == 0 else PF
        if entry.parsed is not None:
            assert entry.report == validate(entry.parsed, snr, cfg, obj)
    # Every prompt is its segment's head followed by the iteration's tail.
    for prompt, entry in zip(engine.prompts, result.transcript):
        obj = QOS if entry.segment == 0 else PF
        assert prompt.startswith(task_prompt_head(cfg, snr, obj) + "\n")


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
    prompt = build_task_prompt(task_prompt_head(cfg, snr, QOS), cfg, [], 1.0)
    engine = MockLocalSearchEngine(stream(5, "engine"))
    alloc, failure = parse_allocation(engine.propose(prompt))
    assert failure is None
    assert len(alloc) == 9
    assert validate(alloc, snr, cfg, PF).ok


def test_mock_is_deterministic():
    cfg = SchedulingConfig(num_robots=3, objective=QOS)
    snr = flat_map(3)
    prompt = build_task_prompt(
        task_prompt_head(cfg, snr, QOS), cfg,
        [opro._exemplar_line((1, 2, 3, 1, 2, 3, 1, 2, 3), 5.0)], 0.5)
    a = MockLocalSearchEngine(stream(6, "engine")).propose(prompt)
    b = MockLocalSearchEngine(stream(6, "engine")).propose(prompt)
    assert a == b


def test_mock_reads_a_prompt_without_history_whole():
    cfg = SchedulingConfig(num_robots=3, objective=QOS)
    snr = generate_snr_map(cfg, RadioParams(fading="rayleigh"),
                           stream(9, "scheduling/snr"))
    head = task_prompt_head(cfg, snr, QOS)
    full = build_task_prompt(head, cfg, [], 1.0)
    # A cold start answers from the head alone, so both prompts get the
    # same greedy construction.
    a = MockLocalSearchEngine(stream(9, "engine")).propose(head)
    b = MockLocalSearchEngine(stream(9, "engine")).propose(full)
    assert a == b and parse_allocation(a)[1] is None


def _scene(seed, num_robots, objective):
    cfg = SchedulingConfig(num_robots=num_robots, objective=objective)
    return cfg, generate_snr_map(cfg, RadioParams(fading="rayleigh"),
                                 stream(seed, "scheduling/snr"))


class Recording:
    """Wraps an engine; keeps every (prompt, response) pair."""

    def __init__(self, engine):
        self.engine = engine
        self.calls = []

    def propose(self, prompt):
        raw = self.engine.propose(prompt)
        self.calls.append((prompt, raw))
        return raw


def test_mock_engines_sharing_the_head_cache_do_not_cross_talk():
    scenes = [(_scene(70, 4, QOS), QOS, 70), (_scene(71, 6, PF), PF, 71)]
    alone = []
    for (cfg, snr), obj, seed in scenes:
        engine = Recording(MockLocalSearchEngine(stream(seed, "engine")))
        opro_optimize_segments(cfg, snr, [(obj, 30)], engine,
                               OproParams(stop_patience=50))
        alone.append(engine.calls)
    assert alone[0][0][0] != alone[1][0][0]
    # Fresh engines take turns, proposal by proposal, on the same prompts;
    # each must answer as it did alone, from a cold and from a warm cache.
    for clear in (True, False):
        if clear:
            opro._read_head.cache_clear()
        engines = [MockLocalSearchEngine(stream(seed, "engine"))
                   for _, _, seed in scenes]
        for turn in zip(*alone):
            for engine, (prompt, raw) in zip(engines, turn):
                assert engine.propose(prompt) == raw


def test_a_proposal_cannot_change_a_cached_head():
    cfg, snr = _scene(72, 5, QOS)
    head = task_prompt_head(cfg, snr, QOS)
    opro._read_head.cache_clear()
    parsed = opro._read_head(head)
    with pytest.raises(dataclasses.FrozenInstanceError):
        parsed.m = 1
    with pytest.raises(TypeError):
        parsed.rates[1] = (0.0,) * 9
    with pytest.raises(TypeError):
        parsed.rates[1][0] = 0.0
    with pytest.raises(TypeError):
        parsed.alts[1] = ()
    assert isinstance(parsed.eligible, tuple)
    assert isinstance(parsed.alts[1], tuple)
    assert isinstance(parsed.start, tuple)
    engine = MockLocalSearchEngine(stream(72, "engine"))
    opro_optimize_segments(cfg, snr, [(QOS, 40)], engine,
                           OproParams(stop_patience=50))
    assert opro._read_head(head) is parsed
    assert opro._read_head.cache_info().hits >= 39
    opro._read_head.cache_clear()
    assert opro._read_head(head) == parsed


def test_mock_obeys_the_rb_cap(monkeypatch):
    # Three robots, nine RBs, at most three each: only an even split is
    # valid.  A mock that ignores the cap line proposes nothing valid.
    doc = {"track": "scheduling",
           "scheduling": {"num_robots": 3, "num_rbs": 9,
                          "max_rbs_per_robot": 3,
                          "objective": {"kind": "qos_sum_rate"}}}
    owned = Counter()

    class Counting(MockLocalSearchEngine):
        def propose(self, prompt):
            assert "No robot may own more than 3 resource blocks." in prompt
            raw = super().propose(prompt)
            alloc, failure = parse_allocation(raw)
            assert failure is None
            owned[max(Counter(alloc).values())] += 1
            return raw

    monkeypatch.setattr(report, "MockLocalSearchEngine", Counting)
    for seed in range(12):
        rec = report.run(scenario_from_dict(dict(doc, seed=seed)),
                         "opro_mock")
        assert rec.metrics["level"] > LEVEL_INVALID, seed
        assert math.isfinite(rec.metrics["score"])
    assert set(owned) == {3}


def test_mock_without_task_lines_degrades_gracefully():
    engine = MockLocalSearchEngine(stream(8, "engine"))
    out = engine.propose("not a task prompt at all")
    assert parse_allocation(out)[0] is None


def test_mock_reads_an_incomplete_snr_table_as_no_table():
    cfg = SchedulingConfig(num_robots=3, objective=QOS)
    snr = generate_snr_map(cfg, RadioParams(fading="rayleigh"),
                           stream(10, "scheduling/snr"))
    head = task_prompt_head(cfg, snr, QOS)
    row = next(line for line in head.splitlines()
               if line.startswith("  robot 3: "))
    no_row = head.replace(row + "\n", "")
    no_bandwidth = "\n".join(line for line in head.splitlines()
                             if not line.startswith("Total bandwidth:"))
    history = [opro._exemplar_line((1, 2, 3, 1, 2, 3, 1, 2, 3), 5.0)]
    for lines in ([], history):
        prompts = [build_task_prompt(h, cfg, lines, 0.5)
                   for h in (no_row, no_bandwidth)]
        # Without robot 3's row the mock answers as it does without the
        # bandwidth line: a random vector over the eligible robots.
        answers = [MockLocalSearchEngine(stream(11, "engine")).propose(p)
                   for p in prompts]
        assert answers[0] == answers[1]
        assert parse_allocation(answers[0])[1] is None


def test_mock_reads_values_printed_with_negative_exponents():
    objective = ObjectiveSpec(kind=ObjectiveKind.QOS_SUM_RATE,
                              min_rate_bps=5e-05)
    cfg = SchedulingConfig(num_robots=3, objective=objective,
                           bandwidth_hz=1e-05)
    snr = generate_snr_map(cfg, RadioParams(fading="rayleigh"),
                           stream(10, "scheduling/snr"))
    head = task_prompt_head(cfg, snr, objective)
    assert "Total bandwidth: 1e-05 Hz" in head
    assert "minimum rate of 5e-05 bits per second" in head
    task = opro._read_head(head)
    assert task.rates is not None
    assert task.min_rate == 5e-05


@st.composite
def mock_prompts(draw):
    """A head the loop could write and a few tails: histories of 0-10
    exemplars whose allocations may have the wrong length or name robots
    that are not eligible, hints in [0, 1], QoS feedback naming any
    robots.  A head may state a bandwidth of 1.5e308, which makes some
    rates infinite (a config refuses it, so it is written into the text)."""
    n = draw(st.integers(1, 10))
    m = draw(st.integers(1, 9))
    kind = draw(st.sampled_from(list(ObjectiveKind)))
    objective = ObjectiveSpec(kind, draw(st.sampled_from(
        [0.0, 1e5, 1e6, 4e6, 3e7])))
    bandwidth = draw(st.sampled_from([2e7, 1e6, 1.5e308]))
    cfg = SchedulingConfig(
        num_robots=n, num_rbs=m, objective=objective,
        bandwidth_hz=min(bandwidth, 2e7),
        max_rbs_per_robot=draw(st.none() | st.integers(1, m)))
    values = generate_snr_map(
        cfg, RadioParams(fading=draw(st.sampled_from(["none", "rayleigh"]))),
        stream(draw(st.integers(0, 2**16)), "scheduling/snr")).values
    buffers = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    snr = SnrMap(values=values, robot_positions=np.zeros((n, 2)),
                 buffer_nonempty=buffers)
    head = task_prompt_head(cfg, snr, objective).replace(
        f"Total bandwidth: {cfg.bandwidth_hz:.10g} Hz",
        f"Total bandwidth: {bandwidth:.10g} Hz")
    prompts = []
    for _ in range(draw(st.integers(1, 4))):
        history = [opro._exemplar_line(
            tuple(draw(st.lists(st.integers(-1, n + 1),
                                min_size=1, max_size=m + 1))),
            draw(st.floats(allow_nan=False)))
            for _ in range(draw(st.integers(0, 10)))]
        feedback = draw(st.none() | st.lists(
            st.integers(1, n + 1), min_size=1, max_size=4).map(
            lambda ids: "RB allocation vector violates the QoS requirement "
                        f"of robots {opro._robot_list(ids)}."))
        prompts.append(build_task_prompt(
            head, cfg, history, draw(st.floats(0.0, 1.0)), feedback))
    return prompts


@settings(max_examples=300, deadline=None)
@given(prompts=mock_prompts(), seed=st.integers(0, 2**16))
def test_mock_matches_its_scalar_oracle(prompts, seed):
    # Same replies and the same draws: after every proposal the two
    # generators are in the same state.  The reference draws through
    # numpy's own calls, not the package stream's scalar fast path.
    fast, slow = stream(seed, "engine"), oracle.NumpyStream(seed, "engine")
    engine = MockLocalSearchEngine(fast)
    reference = oracle.MockLocalSearchEngine(slow)
    for prompt in prompts:
        assert engine.propose(prompt) == reference.propose(prompt)
        assert fast._gen.bit_generator.state == slow.gen.bit_generator.state


def test_mock_repair_ranks_nan_costs_as_its_oracle_does():
    """Robot 2 is short and shares block 2's infinite rate with robot 1,
    so that move costs NaN; the cheaper block 3 comes after it.  The
    oracle's sorted() leaves the costs in block order, so the repair moves
    block 1 or 2, where a search for the two smallest finite costs would
    move block 3 or 1."""
    objective = ObjectiveSpec(ObjectiveKind.QOS_SUM_RATE, 1e6)
    cfg = SchedulingConfig(num_robots=2, num_rbs=3, objective=objective)
    snr = SnrMap(values=np.array([[5.0, 1e6, 1.0], [1e-9, 1e6, 1e-9]]),
                 robot_positions=np.zeros((2, 2)),
                 buffer_nonempty=np.array([True, True]))
    prompt = build_task_prompt(
        task_prompt_head(cfg, snr, objective).replace(
            "Total bandwidth: 20000000 Hz", "Total bandwidth: 1.5e+308 Hz"),
        cfg, [], 0.5)
    replies = set()
    for seed in range(8):
        fast, slow = stream(seed, "engine"), oracle.NumpyStream(seed, "engine")
        reply = MockLocalSearchEngine(fast).propose(prompt)
        assert reply == oracle.MockLocalSearchEngine(slow).propose(prompt)
        assert fast._gen.bit_generator.state == slow.gen.bit_generator.state
        replies.add(reply)
    assert replies == {"Proposed allocation: [2, 1, 1]",
                       "Proposed allocation: [1, 2, 1]"}


def test_loop_with_mock_reaches_feasibility(small_instance):
    cfg, snr, obj = small_instance
    engine = MockLocalSearchEngine(stream(62, "scheduling/engine"))
    result = opro_optimize_segments(cfg, snr, [(obj, 200)], engine)
    assert result.success
    assert result.final.best_level == LEVEL_OK


class Flaky:
    """Wraps an engine; every third reply is prose with no allocation."""

    def __init__(self, engine):
        self.engine = engine
        self.calls = 0

    def propose(self, prompt):
        self.calls += 1
        if self.calls % 3 == 0:
            return "I could not settle on an allocation this round."
        return self.engine.propose(prompt)


def test_loop_tolerates_flaky_mock(small_instance):
    cfg, snr, obj = small_instance
    engine = Flaky(MockLocalSearchEngine(stream(63, "scheduling/engine")))
    result = opro_optimize_segments(cfg, snr, [(obj, 200)], engine)
    assert result.success
    failures = [e for e in result.transcript if e.parse_failure is not None]
    assert failures, "flaky engine should have produced at least one dud"
