"""Allocation validation, the shared ranking key, and all three solvers."""

import itertools
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scalar_oracle as oracle
from hypothesis import assume, given, settings, strategies as st

from autocomm import report, scheduling
from autocomm.configs import (ConfigError, ObjectiveKind, ObjectiveSpec,
                              SchedulingConfig, scenario_from_dict)
from autocomm.opro import (MockLocalSearchEngine, OproParams,
                           opro_optimize_segments)
from autocomm.radio import (RadioParams, SnrMap, generate_snr_map,
                            rb_rate_matrix)
from autocomm.rng import RngStream, stream
from autocomm.scheduling import (
    _GA_BLOCK,
    ENUMERATION_CAP,
    LEVEL_INVALID,
    LEVEL_OK,
    LEVEL_QOS_VIOLATED,
    GaParams,
    ViolationKind,
    allocation_rank,
    assess,
    brute_force_optimal,
    evaluate_batch,
    ga_schedule,
    round_robin_alloc,
    scoring_table,
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
    # So is a NaN id, which no integer cast may turn into an index.
    assert allocation_rank([math.nan] + [1] * 8, snr, cfg,
                           QOS) == (LEVEL_INVALID, -math.inf)
    # A fractional id above the last robot names no robot, though an
    # integer cast would truncate it to that robot.
    for past_last in (3.2, 3.5):
        row = [1.5, 2.7, past_last, 1, 2, 3, 1, 2, 3]
        assert allocation_rank(row, snr, cfg, QOS) == (LEVEL_INVALID,
                                                       -math.inf)
        unknown = validate(row, snr, cfg, QOS).violations
        assert [(v.kind, v.robots) for v in unknown] == [
            (ViolationKind.UNKNOWN_ROBOT, (past_last,))]


SNR_KINDS = ("uniform", "none", "rayleigh")
# Unknown ids at the dtype's edges: a robot id is matched in int64.
INT64_EDGE_IDS = (2 ** 40, -2 ** 40, 2 ** 63 - 1, -(2 ** 63 - 1))


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
    # Ids in [-1, n + 2] or near int64's ends, half of them drawn from the
    # known robots so that structurally valid rows are common.
    ids = st.integers(1, n) | st.sampled_from([*range(-1, n + 3),
                                               *INT64_EDGE_IDS])
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


def _assessment_bytes(assessed):
    return [(a.dtype.str, a.shape, a.tobytes()) for a in assessed]


@pytest.mark.parametrize("kind", list(ObjectiveKind))
@pytest.mark.parametrize("cap", [None, 2])
def test_one_prepared_table_serves_every_batch(kind, cap):
    """A table built once gives, batch after batch, the bytes a fresh
    evaluate_batch gives: empty batches, other widths, ids at int64's
    ends and ids past int64 (an object array)."""
    objective = ObjectiveSpec(kind=kind, min_rate_bps=2e6)
    cfg = SchedulingConfig(num_robots=6, objective=objective,
                           max_rbs_per_robot=cap, buffer_occupancy_prob=0.6)
    snr = generate_snr_map(cfg, RadioParams(fading="rayleigh"),
                           stream(31, "scheduling/snr"))
    draws = stream(32, "allocs")
    batches = [np.zeros((0, 9), dtype=np.int64),
               draws.integers(1, 7, (40, 9)),
               draws.integers(-1, 9, (7, 8)),
               np.zeros((2, 0), dtype=np.int64),
               draws.integers(1, 7, (3, 11)),
               np.asarray([[1] * 8 + [edge] for edge in INT64_EDGE_IDS]),
               np.asarray([[2 ** 64, 1, 2, 3, 4, 5, 6, 1, 2],
                           [-2 ** 70] + [3] * 8]),
               draws.integers(1, 7, (1, 9)),
               np.zeros((0, 4), dtype=np.int64)]
    assert batches[6].dtype == object
    table = scoring_table(snr, cfg, objective)
    past = assess(batches[6], table)
    assert past.levels.tolist() == [LEVEL_INVALID] * 2
    assert past.counts[:, -1].tolist() == [1, 1]
    for batch in batches:
        assert (_assessment_bytes(assess(batch, table))
                == _assessment_bytes(evaluate_batch(batch, snr, cfg,
                                                    objective)))


@pytest.mark.parametrize("kind", list(ObjectiveKind))
@pytest.mark.parametrize("empty", [(), (1, 2, 3)])
def test_empty_batch_gives_an_empty_assessment(kind, empty):
    # With no eligible robot a PF row has no terms at all; an empty batch
    # must still get zero scores, not one.
    objective = ObjectiveSpec(kind=kind, min_rate_bps=1e6)
    cfg = SchedulingConfig(num_robots=3, objective=objective)
    assessed = evaluate_batch(np.zeros((0, 9), dtype=np.int64),
                              flat_map(3, empty=empty), cfg, objective)
    assert assessed.levels.shape == assessed.scores.shape == (0,)
    assert assessed.rates.shape == assessed.starved.shape == (0, 3)
    assert assessed.counts.shape == (0, 4)


@pytest.mark.parametrize("kind", list(ObjectiveKind))
@pytest.mark.parametrize("n", [8, 11, 16, 20])
def test_score_is_a_left_fold_in_robot_order(n, kind):
    """A row scores its per-robot terms added one at a time in robot order.

    Every robot here has the same rate on a given RB, and robots without
    RBs add zero (no rate, or log2 of the floor 1).  So two allocations
    that hand the same RB sets to different robots, kept in the same
    order, score the same bit for bit: in a left fold the zeros change
    nothing wherever they stand, while np.sum's pairwise blocks would
    group the terms by position.
    """
    objective = ObjectiveSpec(kind=kind)
    cfg = SchedulingConfig(num_robots=n, objective=objective)
    rng = np.random.default_rng(n)
    snr = SnrMap(values=np.tile(rng.uniform(0.5, 30.0, 9), (n, 1)),
                 robot_positions=np.zeros((n, 2)),
                 buffer_nonempty=np.ones(n, dtype=bool))
    for _ in range(50):
        holders = int(rng.integers(2, min(n, 9) + 1))
        slots = rng.integers(0, holders, 9)
        a, b = (np.sort(rng.permutation(n)[:holders]) + 1 for _ in range(2))
        assessed = evaluate_batch(np.stack([a[slots], b[slots]]), snr, cfg,
                                  objective)
        rates = oracle.rate_vector(a[slots], snr, cfg)
        terms = (rates if kind is ObjectiveKind.QOS_SUM_RATE
                 else np.log2(np.maximum(rates, objective.epsilon)))
        folded = 0.0
        for term in terms.tolist():
            folded += term
        assert assessed.scores.tolist() == [folded, folded]


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


def no_single_rb_change_improves(alloc, snr, cfg, objective):
    """No vector that moves one RB to another eligible robot outranks
    alloc, and none that ties it is lexicographically smaller."""
    key = allocation_rank(alloc, snr, cfg, objective)
    for b in range(len(alloc)):
        for rid in snr.eligible_ids():
            other = alloc[:b] + (rid,) + alloc[b + 1:]
            other_key = allocation_rank(other, snr, cfg, objective)
            if other_key > key or (other_key == key and other < alloc):
                return False
    return True


def test_brute_force_enumeration_cap():
    # The subset DP takes k * 3^m steps: 7 robots on 9 Rayleigh RBs (7^9
    # vectors) are 137,781 of them; 12 robots on 20 RBs are over the cap.
    assert ENUMERATION_CAP == 1 << 24
    cfg = SchedulingConfig(num_robots=7, objective=PF)
    snr = generate_snr_map(cfg, RadioParams(fading="rayleigh"),
                           stream(44, "scheduling/snr"))
    alloc, score = brute_force_optimal(cfg, snr, PF)
    assert allocation_rank(alloc, snr, cfg, PF) == (LEVEL_OK, score)
    assert no_single_rb_change_improves(alloc, snr, cfg, PF)
    _, ga_score, _ = ga_schedule(cfg, snr, PF, GaParams(), stream(44, "ga"))
    assert ga_score <= score
    big = SchedulingConfig(num_robots=12, num_rbs=20, objective=PF)
    with pytest.raises(ValueError, match=r"too large.*12 x 3\^20"):
        brute_force_optimal(big, flat_map(12, num_rbs=20), PF)
    # With equal rates for all robots, every sum-rate allocation ties
    # exactly, since robots without RBs add zeros to the same sum: robot 1
    # on every RB wins at any number of robots.
    rate = ObjectiveSpec(kind=ObjectiveKind.QOS_SUM_RATE)
    for n in (10, 20):
        cfg = SchedulingConfig(num_robots=n, objective=rate)
        alloc, score = brute_force_optimal(cfg, flat_map(n), rate)
        assert alloc == (1,) * 9
        assert allocation_rank(alloc, flat_map(n), cfg, rate) == (LEVEL_OK,
                                                                  score)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_oracle_matches_enumeration(data):
    """The subset DP must return the exhaustive search's allocation and
    score, bit for bit, over 1-4 robots, 1-9 RBs, uniform, flat and
    Rayleigh maps, empty buffers, every RB cap, all three objectives, and
    QoS thresholds and log floors on the rate boundaries."""
    n = data.draw(st.integers(1, 4), label="num_robots")
    m = data.draw(st.integers(1, 9), label="num_rbs")
    cfg = SchedulingConfig(
        num_robots=n, num_rbs=m,
        max_rbs_per_robot=data.draw(st.none() | st.integers(1, m), label="cap"),
        buffer_occupancy_prob=data.draw(st.sampled_from([0.6, 1.0]),
                                        label="occupancy"))
    shape = data.draw(st.sampled_from(["uniform", "flat", "rayleigh"]),
                      label="map")
    snr = generate_snr_map(
        cfg, RadioParams(fading="rayleigh" if shape == "rayleigh" else "none"),
        stream(data.draw(st.integers(0, 2 ** 32), label="seed"),
               "scheduling/snr"))
    if shape == "uniform":
        snr = flat_map(n, m, empty=[i + 1 for i in range(n)
                                    if not snr.buffer_nonempty[i]])
    if not snr.eligible_ids():
        return
    rb = rb_rate_matrix(snr, cfg)
    # Thresholds at one-, two- and three-RB rates put ties and starvation
    # on the boundary; robot 1 reaches the next only by holding every RB,
    # and only a lone robot reaches the last.
    min_rate = data.draw(st.sampled_from(
        [0.0, float(rb[0, 0]), float(rb[-1, 0] * 2), float(rb[0, 0] * 3),
         float(rb[0].sum()), float(rb.sum())]), label="min_rate")
    # A log floor above some rates ties every allocation that keeps those
    # robots below it.
    epsilon = data.draw(st.sampled_from([1.0, float(rb[0, 0] * 2),
                                         float(rb.sum())]), label="epsilon")
    objective = ObjectiveSpec(
        kind=data.draw(st.sampled_from(list(ObjectiveKind)), label="kind"),
        min_rate_bps=min_rate, epsilon=epsilon)

    alloc, score = brute_force_optimal(cfg, snr, objective)
    want_alloc, want_score = oracle.brute_force(cfg, snr, objective)
    assert alloc == want_alloc
    assert score == want_score


@pytest.mark.parametrize("shape", ["uniform", "flat", "rayleigh"])
@pytest.mark.parametrize("kind", list(ObjectiveKind))
def test_oracle_matches_enumeration_at_8_and_9_robots(shape, kind):
    """From eight robots np.sum would add a row's terms pairwise; the
    kernel and the DP both add them in robot order, so near-ties rank the
    same to the last bit.  A log floor below 1 gives robots without RBs
    negative terms that do not sum exactly."""
    objective = ObjectiveSpec(kind=kind, epsilon=1e-3)
    for n, m in ((8, 5), (9, 4)):
        cfg = SchedulingConfig(num_robots=n, num_rbs=m, objective=objective)
        fading = "rayleigh" if shape == "rayleigh" else "none"
        snr = (flat_map(n, m, snr=2.0) if shape == "uniform"
               else generate_snr_map(cfg, RadioParams(fading=fading),
                                     stream(n, "scheduling/snr")))
        assert (brute_force_optimal(cfg, snr, objective)
                == oracle.brute_force(cfg, snr, objective))


def test_flat_oracle_at_reference_scale():
    # 10 robots on 9 flat RBs: every robot but one gets an RB, in id order.
    cfg = SchedulingConfig(num_robots=10, objective=PF)
    alloc, _ = brute_force_optimal(cfg, flat_map(10), PF)
    assert alloc == (1, 2, 3, 4, 5, 6, 7, 8, 9)
    # With 12 robots, those left out add log2 of the floor 1, zero, wherever
    # they stand, so every choice of nine ties exactly and the first wins.
    cfg = SchedulingConfig(num_robots=12, objective=PF)
    alloc, score = brute_force_optimal(cfg, flat_map(12), PF)
    assert alloc == (1, 2, 3, 4, 5, 6, 7, 8, 9)
    assert allocation_rank(alloc, flat_map(12), cfg, PF) == (LEVEL_OK, score)
    # A map flat in all but one entry takes the same path as any other.
    snr = flat_map(7)
    snr.values[2, 4] = 5.0
    cfg = SchedulingConfig(num_robots=7, objective=PF)
    alloc, score = brute_force_optimal(cfg, snr, PF)
    assert allocation_rank(alloc, snr, cfg, PF) == (LEVEL_OK, score)
    assert alloc[4] == 3
    assert no_single_rb_change_improves(alloc, snr, cfg, PF)


@pytest.mark.parametrize("kind,floors", [
    (ObjectiveKind.QOS_SUM_RATE, {"min_rate_bps": 1e12}),
    (ObjectiveKind.QOS_PF, {"min_rate_bps": 1e12}),
    (ObjectiveKind.PF, {"epsilon": 1e12}),
])
def test_oracle_on_a_map_where_every_allocation_ties(kind, floors):
    # No robot reaches the floor, so all 10^9 vectors score the same and
    # the smallest, robot 1 on every RB, wins.
    objective = ObjectiveSpec(kind=kind, **floors)
    cfg = SchedulingConfig(num_robots=10, objective=objective)
    snr = generate_snr_map(cfg, RadioParams(fading="rayleigh"),
                           stream(45, "scheduling/snr"))
    alloc, score = brute_force_optimal(cfg, snr, objective)
    assert alloc == (1,) * 9
    assert (allocation_rank(alloc, snr, cfg, objective)
            == allocation_rank((2,) * 9, snr, cfg, objective)
            == allocation_rank(tuple(range(1, 10)), snr, cfg, objective))


@pytest.mark.parametrize("seed", range(3))
def test_oracle_when_a_log_floor_hides_starvation(seed):
    # With the floor above every rate all terms are equal, and only the
    # QoS level tells allocations apart.
    cfg = SchedulingConfig(num_robots=2, num_rbs=5)
    snr = generate_snr_map(cfg, RadioParams(), stream(seed, "scheduling/snr"))
    rb = rb_rate_matrix(snr, cfg)
    objective = ObjectiveSpec(kind=ObjectiveKind.QOS_PF,
                              min_rate_bps=float(rb[0, 0]),
                              epsilon=float(rb.sum()))
    assert (brute_force_optimal(cfg, snr, objective)
            == oracle.brute_force(cfg, snr, objective))


@pytest.mark.parametrize("empty", [(), (1,)])
def test_oracle_without_a_valid_allocation(empty):
    # Three eligible robots capped at two RBs each cannot fill nine RBs:
    # every vector is invalid and the first, all first eligible id, wins.
    n = 3 + len(empty)
    cfg = SchedulingConfig(num_robots=n, objective=PF, max_rbs_per_robot=2)
    snr = flat_map(n, empty=empty)
    first = snr.eligible_ids()[0]
    assert brute_force_optimal(cfg, snr, PF) == ((first,) * 9, -np.inf)
    assert allocation_rank((first,) * 9, snr, cfg, PF) == (LEVEL_INVALID,
                                                           -np.inf)
    small = SchedulingConfig(num_robots=n, num_rbs=7, objective=PF,
                             max_rbs_per_robot=2)
    assert (brute_force_optimal(small, snr, PF)
            == oracle.brute_force(small, snr, PF) == ((first,) * 7, -np.inf))


@pytest.mark.parametrize("kind", list(ObjectiveKind))
def test_search_methods_near_faded_reference_scale_optimum(kind):
    """GA within 1% and the mock engine within 2% of the exact optimum on
    10 robots and 9 Rayleigh RBs, at the optimum's level.  With full
    buffers the QoS objectives cannot serve every robot, so their optimum
    is level 1."""
    objective = ObjectiveSpec(kind=kind, min_rate_bps=1e6)
    cfg = SchedulingConfig(num_robots=10, objective=objective)
    for seed in range(1, 5):
        snr = generate_snr_map(cfg, RadioParams(fading="rayleigh"),
                               stream(seed, "scheduling/snr"))
        alloc, best = brute_force_optimal(cfg, snr, objective)
        level, _ = allocation_rank(alloc, snr, cfg, objective)
        assert level == (LEVEL_OK if kind is ObjectiveKind.PF
                         else LEVEL_QOS_VIOLATED)
        ga_alloc, _, _ = ga_schedule(cfg, snr, objective, GaParams(),
                                     stream(seed, "scheduling/ga"))
        result = opro_optimize_segments(
            cfg, snr, [(objective, 200)],
            MockLocalSearchEngine(stream(seed, "scheduling/engine")),
            OproParams())
        for got, ratio in ((ga_alloc, 0.99), (result.best_alloc, 0.98)):
            got_level, score = allocation_rank(got, snr, cfg, objective)
            assert got_level == level, (seed, got)
            assert best >= score >= ratio * best, (seed, got)


def test_brute_force_rayleigh_matches_reference(pf_instance):
    cfg, snr, obj = pf_instance
    assert brute_force_optimal(cfg, snr, obj) == oracle.brute_force(cfg, snr,
                                                                     obj)


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


GA_CASES = [
    # (fading, kind, cap, GaParams)
    ("none", ObjectiveKind.PF, None, GaParams(population=30, generations=25)),
    ("rayleigh", ObjectiveKind.QOS_SUM_RATE, None,
     GaParams(population=31, generations=25)),
    ("rayleigh", ObjectiveKind.QOS_PF, 3,
     GaParams(population=20, generations=20, restarts=1)),
    ("none", ObjectiveKind.QOS_SUM_RATE, 2,
     GaParams(population=9, generations=15, restarts=4, elitism=0)),
    ("rayleigh", ObjectiveKind.PF, None,
     GaParams(population=4, generations=10, elitism=4, tournament_size=1)),
]


@pytest.mark.parametrize("num_robots", [3, 10])
@pytest.mark.parametrize("fading,kind,cap,params", GA_CASES)
def test_lockstep_ga_matches_restart_by_restart(fading, kind, cap, params,
                                                num_robots):
    objective = ObjectiveSpec(kind=kind, min_rate_bps=2e6)
    cfg = SchedulingConfig(num_robots=num_robots, objective=objective,
                           max_rbs_per_robot=cap, buffer_occupancy_prob=0.8)
    snr = generate_snr_map(cfg, RadioParams(fading=fading),
                           stream(num_robots, "scheduling/snr"))
    got = ga_schedule(cfg, snr, objective, params, stream(81, "ga"))
    want = oracle.ga_schedule(cfg, snr, objective, params, stream(81, "ga"))
    assert got == want
    assert repr(got[1]) == repr(want[1])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_lockstep_ga_matches_restart_by_restart_on_drawn_params(data):
    """The lockstep GA against the scalar oracle's one restart at a time,
    over drawn GA settings, instances, caps, empty buffers and
    objectives."""
    population = data.draw(st.integers(2, 12), label="population")
    probs = st.sampled_from([0.0, 0.05, 0.5, 1.0])
    params = GaParams(
        population=population,
        generations=data.draw(st.integers(1, 6), label="generations"),
        tournament_size=data.draw(st.integers(1, 5), label="tournament"),
        crossover_prob=data.draw(probs, label="crossover"),
        mutation_prob=data.draw(probs, label="mutation"),
        elitism=data.draw(st.integers(0, population), label="elitism"),
        restarts=data.draw(st.integers(1, 4), label="restarts"))
    m = data.draw(st.integers(1, 7), label="num_rbs")
    objective = ObjectiveSpec(
        kind=data.draw(st.sampled_from(list(ObjectiveKind)), label="kind"),
        min_rate_bps=data.draw(st.sampled_from([0.0, 1e6, 4e6]),
                               label="min_rate"))
    cfg = SchedulingConfig(
        num_robots=data.draw(st.integers(1, 6), label="num_robots"),
        num_rbs=m, objective=objective,
        max_rbs_per_robot=data.draw(st.none() | st.integers(1, m),
                                    label="cap"),
        buffer_occupancy_prob=data.draw(st.sampled_from([0.3, 0.7, 0.95]),
                                        label="occupancy"))
    seed = data.draw(st.integers(0, 2 ** 32), label="seed")
    fading = data.draw(st.sampled_from(["none", "rayleigh"]), label="fading")
    snr = generate_snr_map(cfg, RadioParams(fading=fading),
                           stream(seed, "scheduling/snr"))
    if not snr.eligible_ids():
        for search in (ga_schedule, oracle.ga_schedule):
            with pytest.raises(ValueError):
                search(cfg, snr, objective, params, stream(seed, "ga"))
        return
    got = ga_schedule(cfg, snr, objective, params, stream(seed, "ga"))
    want = oracle.ga_schedule(cfg, snr, objective, params, stream(seed, "ga"))
    assert got == want
    assert repr(got[1]) == repr(want[1])


REFERENCE = (Path(__file__).resolve().parent.parent / "docs"
             / "config-schema" / "scheduling.json")


def _first_rejection(rng, ga, k, m):
    """(restart, generation) of the first GA generation whose draws, made
    by numpy's own calls, reject a bounded draw, or None.  From an empty
    cache, calls of even sizes leave a 32-bit half cached only after an odd
    number of rejections, and the cache then stays until one more."""
    P, T, half = ga.population, ga.tournament_size, ga.population // 2
    for r in range(ga.restarts):
        gen = rng.substream(f"restart{r}")._gen
        gen.integers(0, k, (P, m))
        for g in range(ga.generations):
            gen.integers(0, P, (P, T))
            gen.random(half + half * m + P * m)
            gen.integers(0, k, (P, m))
            if gen.bit_generator.state["has_uint32"]:
                return r, g
    return None


@pytest.mark.parametrize("fading", ["none", "rayleigh"])
def test_lockstep_ga_matches_restart_by_restart_through_a_rejection(fading):
    """On the reference scene, seed 68's restart 2 rejects one of its
    generation-56 redraws, so `rounds` makes that generation's draws, and
    the restart's later ones, by numpy's own calls.  Scanned with those
    calls, seeds 68, 78, 84 and 167 are the runs in 1-167 that reject a
    draw; of them only 68 on the faded map ends elsewhere if the rejection
    is missed, because the flat map's search has settled by then."""
    cfg = scenario_from_dict(json.loads(REFERENCE.read_text())).scheduling
    snr = generate_snr_map(cfg, RadioParams(fading=fading),
                           stream(68, "scheduling/snr"))
    ga = GaParams()
    assert _first_rejection(stream(68, "scheduling/ga"), ga,
                            len(snr.eligible_ids()), cfg.num_rbs) == (2, 56)
    got = ga_schedule(cfg, snr, cfg.objective, ga,
                      stream(68, "scheduling/ga"))
    want = oracle.ga_schedule(cfg, snr, cfg.objective, ga,
                              stream(68, "scheduling/ga"))
    assert got == want
    assert repr(got[1]) == repr(want[1])


def test_ga_draws_a_block_of_generations_per_call(monkeypatch,
                                                   small_instance):
    """The generation loop makes no draw call: a restart draws its first
    population, then one call per block of generations."""
    calls = Counter()

    def counted(method):
        def wrapper(self, *args, **kwargs):
            calls[self.label] += 1
            return method(self, *args, **kwargs)
        return wrapper

    for name in ("random", "uniform", "integers", "exponential", "shuffle",
                 "rounds"):
        monkeypatch.setattr(RngStream, name,
                            counted(getattr(RngStream, name)))
    cfg, snr, obj = small_instance
    ga = GaParams(generations=200)
    ga_schedule(cfg, snr, obj, ga, stream(5, "ga"))
    assert set(calls) == {f"ga/restart{r}" for r in range(ga.restarts)}
    assert max(calls.values()) <= math.ceil(200 / _GA_BLOCK) + 1


def test_reference_ga_runs_decode_every_round(monkeypatch):
    """The reference document's sched-search GA runs (pf and qos_sum_rate
    on 10 robots, pf on 4) reject no draw on seeds 1-20, so `rounds`
    decodes every block of generations from raw words: no round is made
    by numpy's own calls, which would cost a run about a fifth of its
    time."""
    calls = Counter()

    def counted(name):
        method = getattr(RngStream, name)

        def wrapper(self, *args):
            calls[name, self.label] += 1
            return method(self, *args)
        return wrapper

    for name in ("rounds", "_call"):
        monkeypatch.setattr(RngStream, name, counted(name))
    doc = json.loads(REFERENCE.read_text())
    ga = GaParams()
    per_restart = {("rounds", f"scheduling/ga/restart{r}"):
                   math.ceil(ga.generations / _GA_BLOCK)
                   for r in range(ga.restarts)}
    for changes in ({}, {"objective": {"kind": "qos_sum_rate"}},
                    {"num_robots": 4}):
        for seed in range(1, 21):
            calls.clear()
            report.run(scenario_from_dict({
                **doc, "seed": seed,
                "scheduling": {**doc["scheduling"], **changes}}), "ga")
            assert calls == per_restart


@pytest.mark.parametrize("cap", [None, 9, 2])
def test_ga_scores_eligible_positions_through_the_kernel(monkeypatch, cap):
    """A search scores each generation, and the final one, with one kernel
    call over every restart's rows, on positions 0..k-1 among the k
    eligible robots, on a table of those k robots alone.  It never calls
    assess, so it decodes no ids, and it counts RBs only when the cap can
    bind."""
    calls = []
    kernel = scheduling._score

    def counted(owner, prepared, count):
        calls.append((owner.shape, count, set(np.unique(owner).tolist()),
                      len(prepared.eligible), prepared.rb.shape[0]))
        return kernel(owner, prepared, count)

    def refused(*args, **kwargs):
        raise AssertionError("the GA decoded ids through assess")

    monkeypatch.setattr(scheduling, "_score", counted)
    monkeypatch.setattr(scheduling, "assess", refused)
    cfg = SchedulingConfig(num_robots=10, objective=PF, max_rbs_per_robot=cap,
                           buffer_occupancy_prob=0.7)
    snr = generate_snr_map(cfg, RadioParams(fading="rayleigh"),
                           stream(4, "scheduling/snr"))
    k = len(snr.eligible_ids())
    assert k < 10
    ga = GaParams(population=11, generations=7, restarts=2)
    alloc, _, _ = ga_schedule(cfg, snr, PF, ga, stream(9, "ga"))
    assert set(alloc) <= set(snr.eligible_ids())
    assert len(calls) == ga.generations + 1
    for shape, count, owners, rows, rb_rows in calls:
        assert shape == (ga.restarts * ga.population, cfg.num_rbs)
        assert count == (cap == 2)
        assert owners <= set(range(k))
        assert rows == rb_rows == k


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_eligible_instance_scores_as_the_full_map(data):
    """_score on positions among the eligible robots, over the table of
    _eligible_instance's sub-map, gives the levels, scores, rates, counts
    and QoS mask, bit for bit, that it gives the same robots' indices over
    the full map's table, with and without counting RBs."""
    num_rbs = 9
    objective = ObjectiveSpec(
        kind=data.draw(st.sampled_from(list(ObjectiveKind)), label="kind"),
        min_rate_bps=data.draw(st.sampled_from([0.0, 1e6, 4e6]),
                               label="min_rate"))
    cfg = SchedulingConfig(
        num_robots=data.draw(st.integers(1, 10), label="num_robots"),
        num_rbs=num_rbs, objective=objective,
        max_rbs_per_robot=data.draw(st.sampled_from([None, 1, 2]),
                                    label="cap"),
        buffer_occupancy_prob=data.draw(st.floats(0.0, 1.0),
                                        label="occupancy"))
    fading = data.draw(st.sampled_from(["none", "rayleigh"]), label="fading")
    seed = data.draw(st.integers(0, 2 ** 32), label="seed")
    snr = generate_snr_map(cfg, RadioParams(fading=fading),
                           stream(seed, "scheduling/snr"))
    assume(snr.eligible_ids())
    ids, sub = scheduling._eligible_instance(snr)
    assert ids.tolist() == snr.eligible_ids()
    robots = ids - 1
    pos = np.asarray(stream(seed, "positions").integers(
        0, len(ids), (data.draw(st.integers(0, 40), label="rows"), num_rbs)))
    full_table = scoring_table(snr, cfg, objective)
    sub_table = scoring_table(sub, cfg, objective)
    for count in (False, True):
        levels, scores, rates, counts, starved = scheduling._score(
            pos, sub_table, count)
        want = scheduling._score(robots[pos], full_table, count)
        # Rates and the QoS mask by robot; counts by robot, then unknown ids.
        assert (_assessment_bytes([levels, scores, rates, starved])
                == _assessment_bytes([want[0], want[1], want[2][robots],
                                      want[4][robots]]))
        if count:
            assert (_assessment_bytes([counts]) == _assessment_bytes(
                [want[3][np.append(robots, -1)]]))
        else:
            assert counts is want[3] is None


def test_ga_params_validation():
    with pytest.raises(ValueError):
        GaParams(population=1)
    with pytest.raises(ValueError):
        GaParams(crossover_prob=1.5)
    with pytest.raises(ValueError):
        GaParams(elitism=200, population=100)


@pytest.mark.parametrize("field", ["population", "generations",
                                   "tournament_size", "elitism", "restarts"])
def test_ga_params_refuse_a_count_that_is_not_an_integer(field):
    # population=10.0 used to be accepted and fail inside ga_schedule.
    for bad in (2.0, 2.5, True, "2", None):
        with pytest.raises(ConfigError) as err:
            GaParams(**{field: bad})
        assert str(err.value) == (f"ga.{field}: must be an integer in float "
                                  f"range, got {bad!r}")
    assert getattr(GaParams(**{field: np.int64(2)}), field) == 2


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
