"""Allocation validation, the shared ranking key, and all three solvers."""

import itertools
import math

import numpy as np
import pytest
import scalar_oracle as oracle
from hypothesis import given, settings, strategies as st

from autocomm.configs import ObjectiveKind, ObjectiveSpec, SchedulingConfig
from autocomm.radio import RadioParams, SnrMap, generate_snr_map
from autocomm.rng import stream
from autocomm.scheduling import (
    LEVEL_INVALID,
    LEVEL_OK,
    LEVEL_QOS_VIOLATED,
    GaParams,
    ViolationKind,
    allocation_rank,
    brute_force_optimal,
    evaluate_batch,
    ga_schedule,
    round_robin_alloc,
    validate,
)

QOS = ObjectiveSpec(kind=ObjectiveKind.QOS_SUM_RATE, min_rate_bps=1e6)
PF = ObjectiveSpec(kind=ObjectiveKind.PF)


def flat_map(num_robots, num_rbs=9, snr=3.0, empty=()):
    buffers = np.ones(num_robots, dtype=bool)
    for rid in empty:
        buffers[rid - 1] = False
    return SnrMap(values=np.full((num_robots, num_rbs), snr),
                  robot_positions=np.zeros((num_robots, 2)),
                  buffer_nonempty=buffers)


def kinds(report):
    return {v.kind for v in report.violations}


def test_validate_ok():
    cfg = SchedulingConfig(num_robots=3, objective=QOS)
    report = validate([1, 2, 3, 1, 2, 3, 1, 2, 3], flat_map(3), cfg, QOS)
    assert report.ok
    assert report.violations == ()


def test_validate_wrong_length():
    # Eight entries cannot fill nine resource blocks.
    cfg = SchedulingConfig(num_robots=10, objective=QOS)
    report = validate([1, 2, 4, 5, 6, 8, 9, 10], flat_map(10), cfg, QOS)
    assert not report.ok
    assert ViolationKind.WRONG_LENGTH in kinds(report)


def test_validate_unknown_and_empty_buffer():
    cfg = SchedulingConfig(num_robots=3, objective=QOS)
    snr = flat_map(3, empty=(2,))
    report = validate([1, 7, 2, 1, 1, 1, 1, 1, 0], snr, cfg, QOS)
    found = kinds(report)
    assert ViolationKind.UNKNOWN_ROBOT in found
    assert ViolationKind.EMPTY_BUFFER_ROBOT in found
    unknown = [v for v in report.violations
               if v.kind is ViolationKind.UNKNOWN_ROBOT][0]
    assert set(unknown.robots) == {7, 0}
    empty = [v for v in report.violations
             if v.kind is ViolationKind.EMPTY_BUFFER_ROBOT][0]
    assert set(empty.robots) == {2}


def test_validate_rb_cap():
    cfg = SchedulingConfig(num_robots=3, max_rbs_per_robot=4, objective=QOS)
    report = validate([1] * 9, flat_map(3), cfg, QOS)
    assert ViolationKind.EXCESSIVE_RBS in kinds(report)


def test_validate_qos_needs_objective():
    cfg = SchedulingConfig(num_robots=3, objective=QOS)
    alloc = [1] * 9                      # robots 2 and 3 starve
    plain = validate(alloc, flat_map(3), cfg, PF)
    assert plain.ok and plain.level == LEVEL_OK
    qos = validate(alloc, flat_map(3), cfg, QOS)
    assert ViolationKind.QOS_VIOLATION in kinds(qos)
    assert qos.level == LEVEL_QOS_VIOLATED
    v = [x for x in qos.violations if x.kind is ViolationKind.QOS_VIOLATION][0]
    assert set(v.robots) == {2, 3}


def test_qos_check_suppressed_by_structural_failure():
    cfg = SchedulingConfig(num_robots=3, objective=QOS)
    report = validate([9] * 9, flat_map(3), cfg, QOS)
    assert kinds(report) == {ViolationKind.UNKNOWN_ROBOT}


def test_evaluate_and_rank_levels():
    cfg = SchedulingConfig(num_robots=3, objective=QOS)
    snr = flat_map(3)
    fair = [1, 2, 3, 1, 2, 3, 1, 2, 3]
    level, score = allocation_rank(fair, snr, cfg, QOS)
    rates = oracle.rate_vector(fair, snr, cfg)
    assert level == LEVEL_OK
    assert score == pytest.approx(rates.sum(), rel=1e-12)
    report = validate(fair, snr, cfg, QOS)
    assert report.ok and (report.level, report.score) == (level, score)

    starved = [1] * 9
    level, score = allocation_rank(starved, snr, cfg, QOS)
    assert level == LEVEL_QOS_VIOLATED
    # Starved robots count as zero rate.
    assert score == pytest.approx(oracle.rate_vector(starved, snr, cfg)[0],
                                  rel=1e-12)

    unknown = [1, 2, 3, 4, 1, 2, 3, 1, 2]
    assert allocation_rank(unknown, snr, cfg, QOS) == (LEVEL_INVALID, -math.inf)
    report = validate(unknown, snr, cfg, QOS)
    assert kinds(report) == {ViolationKind.UNKNOWN_ROBOT}
    assert (report.level, report.score) == (LEVEL_INVALID, -math.inf)


def test_allocation_rank_never_raises():
    cfg = SchedulingConfig(num_robots=3, objective=QOS)
    snr = flat_map(3)
    level, score = allocation_rank([1, 2], snr, cfg, QOS)
    assert level == LEVEL_INVALID and score == -math.inf
    level, score = allocation_rank([42] * 9, snr, cfg, QOS)
    assert level == LEVEL_INVALID and score == -math.inf
    # Ids past the int64 range are unknown robots, not an indexing error.
    huge = [10 ** 20] + [1] * 8
    assert allocation_rank(huge, snr, cfg, QOS) == (LEVEL_INVALID, -math.inf)
    assert validate(huge, snr, cfg, QOS).violations[0].robots == (10 ** 20,)
    assert allocation_rank([], snr, cfg, QOS) == (LEVEL_INVALID, -math.inf)


SNR_KINDS = ("uniform", "none", "rayleigh")


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_kernel_matches_scalar_oracle(data):
    """evaluate_batch and validate against the scalar oracle, row by row.

    Rates and scores must be bit-equal, levels and violations equal, over
    unknown ids, ragged widths, empty buffers, RB caps, all three
    objectives, and uniform, flat and Rayleigh SNR maps.
    """
    n = data.draw(st.integers(1, 10), label="num_robots")
    m = data.draw(st.integers(1, 9), label="num_rbs")
    cfg = SchedulingConfig(
        num_robots=n, num_rbs=m,
        max_rbs_per_robot=data.draw(st.none() | st.integers(1, m), label="cap"),
        buffer_occupancy_prob=data.draw(st.sampled_from([0.0, 0.6, 1.0]),
                                        label="occupancy"))
    snr_kind = data.draw(st.sampled_from(SNR_KINDS), label="snr")
    seed = data.draw(st.integers(0, 2 ** 32), label="seed")
    snr = generate_snr_map(
        cfg, RadioParams(fading="none" if snr_kind == "uniform" else snr_kind),
        stream(seed, "scheduling/snr"))
    if snr_kind == "uniform":
        snr = SnrMap(values=np.full((n, m), 3.0),
                     robot_positions=snr.robot_positions,
                     buffer_nonempty=snr.buffer_nonempty)
    width = data.draw(st.sampled_from([m, m, m, 0, m - 1, m + 1, m + 2]),
                      label="width")
    # Ids in [-1, n + 2], half of them drawn from the known robots so that
    # structurally valid rows are common.
    ids = st.integers(1, n) | st.integers(-1, n + 2)
    rows = data.draw(st.lists(st.lists(ids, min_size=width, max_size=width),
                              min_size=1, max_size=40), label="rows")

    # QoS thresholds at, between and beyond achieved rates, so the
    # boundary (rate == threshold counts as met) is exercised.
    achieved = sorted({float(r) for row in rows
                       for r in oracle.rate_vector(row, snr, cfg)})
    min_rate = data.draw(st.sampled_from(achieved + [0.0, 1e6, 3e7])
                         | st.floats(0.0, 3e7), label="min_rate")
    kind = data.draw(st.sampled_from(list(ObjectiveKind)), label="kind")
    objective = ObjectiveSpec(kind=kind, min_rate_bps=min_rate)

    assessed = evaluate_batch(np.asarray(rows, dtype=np.int64).reshape(
        len(rows), width), snr, cfg, objective)
    for i, row in enumerate(rows):
        want_rates = oracle.rate_vector(row, snr, cfg)
        want_level = oracle.level(row, snr, cfg, objective)
        want_score = (-math.inf if want_level == LEVEL_INVALID
                      else oracle.score(row, snr, cfg, objective))
        assert assessed.rates[i].tobytes() == want_rates.tobytes()
        assert assessed.levels[i] == want_level
        assert assessed.scores[i] == want_score

        report = validate(row, snr, cfg, objective)
        assert report.violations == oracle.violations(row, snr, cfg, objective)
        assert (report.level, report.score) == (want_level, want_score)
        assert allocation_rank(row, snr, cfg, objective) == (want_level,
                                                             want_score)


@pytest.mark.parametrize("kind", list(ObjectiveKind))
def test_row_scores_do_not_depend_on_the_batch(kind):
    # Ten robots: numpy's sum groups eight or more terms by memory layout,
    # and a row must score as the scalar oracle does in any batch.
    objective = ObjectiveSpec(kind=kind, min_rate_bps=2e6)
    cfg = SchedulingConfig(num_robots=10, objective=objective)
    snr = generate_snr_map(cfg, RadioParams(fading="rayleigh"),
                           stream(23, "scheduling/snr"))
    allocs = np.asarray(stream(24, "allocs").integers(1, 11, size=(200, 9)))
    assessed = evaluate_batch(allocs, snr, cfg, objective)
    for row, score in zip(allocs, assessed.scores):
        assert score == oracle.score(row, snr, cfg, objective)
        assert score == allocation_rank(row, snr, cfg, objective)[1]


def test_qos_pf_objective_scores_clamped_log():
    obj = ObjectiveSpec(kind=ObjectiveKind.QOS_PF, min_rate_bps=1e6)
    cfg = SchedulingConfig(num_robots=3, objective=obj)
    snr = flat_map(3)
    alloc = np.array([[1, 2, 3, 1, 2, 3, 1, 2, 3]])
    assessed = evaluate_batch(alloc, snr, cfg, obj)
    rates = oracle.rate_vector(alloc[0], snr, cfg)
    assert assessed.levels[0] == LEVEL_OK
    assert assessed.scores[0] == pytest.approx(
        sum(math.log2(r) for r in rates), rel=1e-12)


def test_round_robin_pattern():
    cfg = SchedulingConfig(num_robots=4, objective=PF)
    alloc = round_robin_alloc(cfg, flat_map(4))
    assert alloc == (1, 2, 3, 4, 1, 2, 3, 4, 1)
    # Skips robots with empty buffers.
    alloc = round_robin_alloc(cfg, flat_map(4, empty=(2,)))
    assert alloc == (1, 3, 4, 1, 3, 4, 1, 3, 4)


def test_brute_force_matches_exhaustive():
    obj = ObjectiveSpec(kind=ObjectiveKind.QOS_SUM_RATE, min_rate_bps=2e6)
    cfg = SchedulingConfig(num_robots=2, num_rbs=4, objective=obj)
    snr = generate_snr_map(cfg, RadioParams(fading="rayleigh"),
                           stream(30, "scheduling/snr"))
    best_alloc, best_score = brute_force_optimal(cfg, snr, obj)

    ranked = []
    for alloc in itertools.product([1, 2], repeat=4):
        level, score = allocation_rank(alloc, snr, cfg, obj)
        ranked.append((level, score, alloc))
    level_max = max(r[0] for r in ranked)
    score_max = max(r[1] for r in ranked if r[0] == level_max)
    winners = [r[2] for r in ranked
               if r[0] == level_max and r[1] == score_max]
    assert best_score == pytest.approx(score_max, rel=1e-12)
    assert tuple(best_alloc) == min(winners)     # lexicographic tie-break


def test_brute_force_tie_break_lexicographic():
    # Flat SNR, PF objective: every balanced assignment scores the same, so
    # the reported optimum must be the lexicographically smallest winner.
    cfg = SchedulingConfig(num_robots=2, num_rbs=4, objective=PF)
    snr = flat_map(2, num_rbs=4)
    best_alloc, best_score = brute_force_optimal(cfg, snr, PF)
    assert tuple(best_alloc) == (1, 1, 2, 2)


def test_brute_force_enumeration_cap():
    cfg = SchedulingConfig(num_robots=10, objective=PF)
    snr = flat_map(10)
    with pytest.raises(ValueError):
        brute_force_optimal(cfg, snr, PF, enumeration_cap=1 << 10)


def test_ga_deterministic_and_valid(small_instance):
    cfg, snr, obj = small_instance
    a1, s1, g1 = ga_schedule(cfg, snr, obj, GaParams(), stream(77, "ga"))
    a2, s2, g2 = ga_schedule(cfg, snr, obj, GaParams(), stream(77, "ga"))
    assert a1 == a2 and s1 == s2 and g1 == g2
    assert validate(a1, snr, cfg, obj).ok


def test_ga_beats_round_robin(small_instance):
    cfg, snr, obj = small_instance
    _, ga_score, _ = ga_schedule(cfg, snr, obj, GaParams(), stream(78, "ga"))
    rr_level, rr_score = allocation_rank(round_robin_alloc(cfg, snr), snr,
                                         cfg, obj)
    ga_rank = (LEVEL_OK, ga_score)
    assert ga_rank >= (rr_level, rr_score)


def test_ga_handles_odd_population(small_instance):
    cfg, snr, obj = small_instance
    params = GaParams(population=31, generations=20)
    alloc, score, _ = ga_schedule(cfg, snr, obj, params, stream(79, "ga"))
    assert len(alloc) == cfg.num_rbs


def test_ga_params_validation():
    with pytest.raises(ValueError):
        GaParams(population=1)
    with pytest.raises(ValueError):
        GaParams(crossover_prob=1.5)
    with pytest.raises(ValueError):
        GaParams(elitism=200, population=100)


def test_ga_matches_oracle_on_small_instance(small_instance):
    cfg, snr, obj = small_instance
    _, opt = brute_force_optimal(cfg, snr, obj)
    _, ga_score, _ = ga_schedule(cfg, snr, obj, GaParams(), stream(80, "ga"))
    assert ga_score >= 0.99 * opt


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=9, max_size=9))
def test_level_ok_implies_clean_report(alloc):
    cfg = SchedulingConfig(num_robots=4, objective=QOS)
    snr = flat_map(4)
    level, _ = allocation_rank(tuple(alloc), snr, cfg, QOS)
    report = validate(alloc, snr, cfg, QOS)
    if level == LEVEL_OK:
        assert report.ok
    else:
        assert not report.ok
    if kinds(report) - {ViolationKind.QOS_VIOLATION}:
        assert level == LEVEL_INVALID
