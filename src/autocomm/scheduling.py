"""Resource-block allocation: representation, objectives, validity checks,
and the classical references (round-robin, genetic algorithm, brute force).

An allocation is a length-num_rbs vector of 1-based robot ids: entry b is
the owner of RB b.  All search methods share one ranking: structurally
valid allocations that satisfy every QoS constraint outrank those that do
not, and ties inside a class are broken by score, then by lexicographically
smallest vector.  That keeps the GA, the brute-force oracle, and the
prompting loop comparable on identical inputs.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .configs import ObjectiveKind, ObjectiveSpec, SchedulingConfig
from .radio import SnrMap, clamp_qos, rb_rate_matrix
from .rng import RngStream

Allocation = tuple[int, ...]

# Ranking levels: 0 = structurally invalid, 1 = valid but QoS-violating,
# 2 = fully feasible.  Lexicographic (level, score) ordering implements
# feasibility-first semantics.
LEVEL_INVALID = 0
LEVEL_QOS_VIOLATED = 1
LEVEL_OK = 2


class ViolationKind(str, enum.Enum):
    UNKNOWN_ROBOT = "UnknownRobot"
    EMPTY_BUFFER_ROBOT = "EmptyBufferRobot"
    WRONG_LENGTH = "WrongLength"
    QOS_VIOLATION = "QosViolation"
    EXCESSIVE_RBS = "ExcessiveRbs"


@dataclass(frozen=True)
class Violation:
    kind: ViolationKind
    robots: tuple[int, ...] = ()


@dataclass(frozen=True)
class ValidationReport:
    """Violations of one allocation plus its (level, score) ranking key."""

    violations: tuple[Violation, ...]
    level: int
    score: float

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class GaParams:
    """Genetic-algorithm settings; defaults reach the brute-force optimum on
    all <=4-robot instances in preliminary sizing."""

    population: int = 100
    generations: int = 200
    tournament_size: int = 3
    crossover_prob: float = 0.9
    mutation_prob: float = 0.05
    elitism: int = 2
    restarts: int = 3

    def __post_init__(self):
        if self.population < 2:
            raise ValueError("population must be >= 2")
        if self.generations < 1:
            raise ValueError("generations must be >= 1")
        if self.tournament_size < 1:
            raise ValueError("tournament_size must be >= 1")
        if not 0.0 <= self.crossover_prob <= 1.0:
            raise ValueError("crossover_prob must be in [0, 1]")
        if not 0.0 <= self.mutation_prob <= 1.0:
            raise ValueError("mutation_prob must be in [0, 1]")
        if not 0 <= self.elitism <= self.population:
            raise ValueError("elitism must be in [0, population]")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


# ---------------------------------------------------------------------------
# The assessment kernel and its readers


@dataclass(frozen=True)
class Assessment:
    """evaluate_batch's row-by-row verdict on P allocations over n robots."""

    levels: np.ndarray    # [P] int8: LEVEL_INVALID, LEVEL_QOS_VIOLATED or LEVEL_OK
    scores: np.ndarray    # [P] objective value; -inf on structurally invalid rows
    rates: np.ndarray     # [P, n] bits/s; 0 for empty-buffer robots
    counts: np.ndarray    # [P, n + 1] RBs per robot; last column: unknown ids
    starved: np.ndarray   # [P, n] eligible robots below the QoS minimum rate

    def key(self, row: int) -> tuple[int, float]:
        """(level, score) ranking key of one row."""
        return int(self.levels[row]), float(self.scores[row])


def evaluate_batch(allocs: np.ndarray, snr: SnrMap, cfg: SchedulingConfig,
                   objective: ObjectiveSpec) -> Assessment:
    """Assess a batch of allocation candidates in one pass.

    allocs: [P, width] robot ids, one candidate per row; a width other than
    cfg.num_rbs makes every row structurally invalid.  One bincount over
    (row, owner) slots, with column n standing for every id that names no
    robot, yields the per-robot RB counts and the per-robot rates summed in
    RB order.  Structural validity (unknown ids, empty-buffer robots, the
    RB cap, the width) comes from the counts; the QoS mask, levels and
    scores come from the rates.
    """
    allocs = np.asarray(allocs)
    P, width = allocs.shape
    n = snr.num_robots
    eligible = snr.buffer_nonempty

    # Owner column of each slot: robot id - 1, or n for an id no robot has.
    owner = np.where((allocs >= 1) & (allocs <= n), allocs - 1, n)
    owner = owner.astype(np.intp, copy=False)
    # Rate of each slot: zero for empty buffers, unknown owners and
    # positions past the last RB.
    rb = rb_rate_matrix(snr, cfg)
    m = min(width, rb.shape[1])
    slot_rate = np.zeros((n + 1, width))
    slot_rate[:n, :m] = np.where(eligible[:, None], rb[:, :m], 0.0)
    weights = slot_rate[owner, np.arange(width)].ravel()
    bins = (owner + (n + 1) * np.arange(P)[:, None]).ravel()
    size = P * (n + 1)
    counts = np.bincount(bins, minlength=size).reshape(P, n + 1)
    rates = np.bincount(bins, weights=weights,
                        minlength=size).reshape(P, n + 1)[:, :n]

    # RBs each robot may hold: the cap, or none at all with an empty buffer.
    allowed = np.where(eligible, cfg.rb_cap, 0)
    invalid = counts[:, n] > 0
    if width != cfg.num_rbs:
        invalid[:] = True
    elif (allowed < width).any():      # no count can exceed the width
        invalid |= (counts[:, :n] > allowed).any(axis=1)

    levels = np.full(P, LEVEL_OK, dtype=np.int8)
    if objective.is_qos:
        starved = (rates < objective.min_rate_bps) & eligible
        levels[starved.any(axis=1)] = LEVEL_QOS_VIOLATED
        scored = clamp_qos(rates, objective.min_rate_bps)
    else:
        starved = np.zeros(rates.shape, dtype=bool)
        scored = rates
    if objective.kind is ObjectiveKind.QOS_SUM_RATE:
        terms = scored
    else:  # PF and QOS_PF
        terms = np.log2(np.maximum(scored[:, eligible], objective.epsilon))
    # numpy sums a row in an order set by the memory layout; in C order
    # every row sums as it would alone, whatever the batch.
    scores = np.ascontiguousarray(terms).sum(axis=1)
    levels[invalid] = LEVEL_INVALID
    scores[invalid] = -np.inf
    return Assessment(levels, scores, rates, counts, starved)


def allocation_rank(alloc: Sequence[int], snr: SnrMap, cfg: SchedulingConfig,
                    objective: ObjectiveSpec) -> tuple[int, float]:
    """(level, score) ranking key for one allocation; never raises."""
    return evaluate_batch(np.asarray([alloc]), snr, cfg, objective).key(0)


def validate(alloc: Sequence[int], snr: SnrMap, cfg: SchedulingConfig,
             objective: ObjectiveSpec) -> ValidationReport:
    """Check an allocation against the scheduling description.

    Runs evaluate_batch on the one row and names what it found: wrong
    length, unknown ids, empty-buffer assignments, per-robot RB counts above
    the cap, and, for QoS objectives on structurally valid vectors, the
    robots whose achieved rate is below the threshold.  Validation never
    raises.
    """
    row = np.asarray([alloc])
    assessed = evaluate_batch(row, snr, cfg, objective)
    n = snr.num_robots
    counts = assessed.counts[0]
    violations: list[Violation] = []

    if row.shape[1] != cfg.num_rbs:
        violations.append(Violation(ViolationKind.WRONG_LENGTH))

    if counts[n]:
        unknown = np.unique(row[(row < 1) | (row > n)]).tolist()
        violations.append(Violation(ViolationKind.UNKNOWN_ROBOT,
                                    tuple(unknown)))

    empty = (np.flatnonzero((counts[:n] > 0) & ~snr.buffer_nonempty) + 1).tolist()
    if empty:
        violations.append(Violation(ViolationKind.EMPTY_BUFFER_ROBOT,
                                    tuple(empty)))

    for rid in (np.flatnonzero(counts[:n] > cfg.rb_cap) + 1).tolist():
        violations.append(Violation(ViolationKind.EXCESSIVE_RBS, (rid,)))

    level, score = assessed.key(0)
    if level == LEVEL_QOS_VIOLATED:
        bad = (np.flatnonzero(assessed.starved[0]) + 1).tolist()
        violations.append(Violation(ViolationKind.QOS_VIOLATION, tuple(bad)))

    return ValidationReport(tuple(violations), level, score)


# ---------------------------------------------------------------------------
# Reference schedulers


def round_robin_alloc(cfg: SchedulingConfig, snr: SnrMap) -> Allocation:
    """RB b goes to eligible robot (b mod n_eligible), ids ascending."""
    eligible = snr.eligible_ids()
    if not eligible:
        raise ValueError("no eligible robots to schedule")
    return tuple(eligible[b % len(eligible)] for b in range(cfg.num_rbs))


# evaluate_batch holds a few [rows x num_rbs] arrays at once; 2^13 rows keep
# that well under a megabyte per array.
_CHUNK_ROWS = 1 << 13
# brute_force_optimal refuses instances with more candidates than this.
ENUMERATION_CAP = 1 << 24


def _all_vectors(k: int, m: int) -> Iterator[np.ndarray]:
    """Every length-m vector over range(k), lexicographic, in row chunks."""
    total = k ** m
    weights = k ** np.arange(m - 1, -1, -1, dtype=np.int64)
    for start in range(0, total, _CHUNK_ROWS):
        idx = np.arange(start, min(start + _CHUNK_ROWS, total), dtype=np.int64)
        yield (idx[:, None] // weights[None, :]) % k


def _nondecreasing_vectors(k: int, m: int) -> Iterator[np.ndarray]:
    """Every non-decreasing length-m vector over range(k), lexicographic,
    in row chunks."""
    vectors = itertools.combinations_with_replacement(range(k), m)
    while True:
        chunk = itertools.islice(vectors, _CHUNK_ROWS)
        block = np.fromiter(itertools.chain.from_iterable(chunk),
                            dtype=np.intp).reshape(-1, m)
        if not len(block):
            return
        yield block


def brute_force_optimal(cfg: SchedulingConfig, snr: SnrMap,
                        objective: ObjectiveSpec) -> tuple[Allocation, float]:
    """Exact argmax over all RB-owner vectors of eligible robots.

    Ties break toward the lexicographically smallest vector.  Feasible
    (level 2) allocations outrank QoS-violating ones, mirroring the shared
    ranking.

    On a flat map, where every eligible robot has the same SNR on each RB,
    a robot's rate is the same per-RB rate summed once per RB it holds,
    which gives the same bits whichever RBs those are; so an allocation's
    rank depends only on its per-robot RB counts.  The search then scores
    one vector per count vector, the non-decreasing one, which is the
    lexicographically smallest vector with those counts: C(m + k - 1, m)
    candidates for k robots and m RBs, instead of the k^m that any other
    map needs.  Raises if the candidates exceed ENUMERATION_CAP.
    """
    eligible = snr.eligible_ids()
    if not eligible:
        raise ValueError("no eligible robots to schedule")
    ids = np.asarray(eligible)
    k, m = len(ids), cfg.num_rbs
    values = snr.values[ids - 1]
    if values.shape[1] >= m and (values[:, :m] == values[:, :1]).all():
        total, size = math.comb(m + k - 1, m), f"C({m + k - 1}, {m})"
        chunks = _nondecreasing_vectors(k, m)
    else:
        total, size = k ** m, f"{k}^{m}"
        chunks = _all_vectors(k, m)
    if total > ENUMERATION_CAP:
        raise ValueError(
            f"instance too large to enumerate: {size} > {ENUMERATION_CAP}")

    best: tuple[int, float, Optional[np.ndarray]] = (LEVEL_INVALID - 1, -np.inf, None)
    # Candidates arrive in lexicographic order, so the first occurrence of
    # the best (level, score) is the lexicographically smallest winner.
    for genes in chunks:
        allocs = ids[genes]
        assessed = evaluate_batch(allocs, snr, cfg, objective)
        order = np.lexsort((np.arange(len(allocs)), -assessed.scores,
                            -assessed.levels))
        p = order[0]
        if assessed.key(p) > best[:2]:
            best = (*assessed.key(p), allocs[p].copy())
    assert best[2] is not None
    return tuple(int(v) for v in best[2]), best[1]


def ga_schedule(cfg: SchedulingConfig, snr: SnrMap, objective: ObjectiveSpec,
                ga: GaParams, rng: RngStream) -> tuple[Allocation, float, int]:
    """Genetic search over RB-owner vectors.

    Tournament selection, uniform crossover, per-gene mutation, and elitism;
    candidates are built from eligible robots only, and the shared
    feasibility-first ranking orders the population, so the incumbent best
    never regresses and never violates validity.  The QoS clamp makes the
    landscape deceptive (dropping a robot below threshold zeroes its whole
    contribution), so the search runs `restarts` independent populations
    and keeps the best-ranked result; the first restart wins ties.

    The restarts evolve in lockstep: each generation scores all of them in
    one evaluate_batch call over [restarts x population] rows, which gives
    every row the bits it would get alone.  Restart r draws from its own
    `restart{r}` substream, in the order a run of that restart by itself
    would, and selection, crossover, mutation and elitism never mix
    restarts.

    Returns (best allocation, its score, total generations run).
    """
    eligible = snr.eligible_ids()
    if not eligible:
        raise ValueError("no eligible robots to schedule")
    ids = np.asarray(eligible)
    k, m = len(ids), cfg.num_rbs
    R, P, e = ga.restarts, ga.population, ga.elitism
    half = P // 2
    streams = [rng.substream(f"restart{r}") for r in range(R)]

    genes = np.stack([s.integers(0, k, (P, m)) for s in streams])   # [R, P, m]
    best_gene = np.zeros((R, m), dtype=genes.dtype)
    best_level = np.full(R, LEVEL_INVALID - 1)
    best_score = np.full(R, -np.inf)
    restart = np.arange(R)
    row = restart[:, None]
    position = np.arange(P)
    tiebreak = np.broadcast_to(position, (R, P))
    # Each generation's draws, restart by restart.
    contenders = np.empty((R, P, ga.tournament_size), dtype=np.int64)
    redraw = np.empty((R, P, m), dtype=np.int64)
    cross_u, swap_u, mut_u = (np.empty((R, half)), np.empty((R, half, m)),
                              np.empty((R, P, m)))

    def rank() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Score every population; promote each restart's improved top row."""
        assessed = evaluate_batch(ids[genes].reshape(R * P, m), snr, cfg,
                                  objective)
        levels = assessed.levels.reshape(R, P)
        scores = assessed.scores.reshape(R, P)
        order = np.lexsort((tiebreak, -scores, -levels), axis=-1)
        top = order[:, 0]
        level, score = levels[restart, top], scores[restart, top]
        better = (level > best_level) | ((level == best_level)
                                         & (score > best_score))
        best_level[better], best_score[better] = level[better], score[better]
        best_gene[better] = genes[restart[better], top[better]]
        return levels, scores, order

    for _ in range(ga.generations):
        levels, scores, order = rank()
        for r, s in enumerate(streams):
            contenders[r] = s.integers(0, P, (P, ga.tournament_size))
            cross_u[r] = s.random(half)
            swap_u[r] = s.random((half, m))
            mut_u[r] = s.random((P, m))
            redraw[r] = s.integers(0, k, (P, m))

        # Tournament selection over the feasibility-first key.
        keys = levels.astype(np.float64) * 1e18 + np.where(
            np.isfinite(scores), scores, -1e17)
        pick = keys[row[..., None], contenders].argmax(axis=2)
        children = genes[row, contenders[row, position, pick]]

        # Uniform crossover on consecutive pairs; a trailing unpaired parent
        # passes through unchanged.
        swap = (swap_u < 0.5) & (cross_u < ga.crossover_prob)[..., None]
        a, b = children[:, 0:2 * half:2], children[:, 1:2 * half:2]
        children[:, 0:2 * half:2], children[:, 1:2 * half:2] = (
            np.where(swap, b, a), np.where(swap, a, b))

        # Per-gene mutation redraws a uniform eligible robot.
        children = np.where(mut_u < ga.mutation_prob, redraw, children)

        # Elitism: the incumbent best, then this generation's runners-up,
        # replace the tail of the new population.
        if e:
            children[:, P - 1] = best_gene
            children[:, P - e:P - 1][:, ::-1] = genes[row, order[:, 1:e]]
        genes = children
    rank()

    r = max(restart, key=lambda r: (int(best_level[r]), float(best_score[r])))
    return (tuple(int(v) for v in ids[best_gene[r]]), float(best_score[r]),
            R * ga.generations)
