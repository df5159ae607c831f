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
from dataclasses import dataclass
from typing import Optional, Sequence

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
    detail: str
    robots: tuple[int, ...] = ()
    count: Optional[int] = None


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
        violations.append(Violation(
            ViolationKind.WRONG_LENGTH,
            f"expected {cfg.num_rbs} entries, got {row.shape[1]}"))

    if counts[n]:
        unknown = np.unique(row[(row < 1) | (row > n)]).tolist()
        violations.append(Violation(
            ViolationKind.UNKNOWN_ROBOT,
            f"ids not in this scenario: {unknown}", robots=tuple(unknown)))

    empty = (np.flatnonzero((counts[:n] > 0) & ~snr.buffer_nonempty) + 1).tolist()
    if empty:
        violations.append(Violation(
            ViolationKind.EMPTY_BUFFER_ROBOT,
            f"robots with empty buffers assigned: {empty}", robots=tuple(empty)))

    cap = cfg.rb_cap
    for rid in (np.flatnonzero(counts[:n] > cap) + 1).tolist():
        count = int(counts[rid - 1])
        violations.append(Violation(
            ViolationKind.EXCESSIVE_RBS,
            f"robot {rid} assigned {count} RBs, cap is {cap}",
            robots=(rid,), count=count))

    level, score = assessed.key(0)
    if level == LEVEL_QOS_VIOLATED:
        bad = (np.flatnonzero(assessed.starved[0]) + 1).tolist()
        violations.append(Violation(
            ViolationKind.QOS_VIOLATION,
            f"rate below threshold for robots: {bad}", robots=tuple(bad)))

    return ValidationReport(tuple(violations), level, score)


# ---------------------------------------------------------------------------
# Reference schedulers


def round_robin_alloc(cfg: SchedulingConfig, snr: SnrMap) -> Allocation:
    """RB b goes to eligible robot (b mod n_eligible), ids ascending."""
    eligible = snr.eligible_ids()
    if not eligible:
        raise ValueError("no eligible robots to schedule")
    return tuple(eligible[b % len(eligible)] for b in range(cfg.num_rbs))


def brute_force_optimal(cfg: SchedulingConfig, snr: SnrMap,
                        objective: ObjectiveSpec,
                        enumeration_cap: int = 1 << 24) -> tuple[Allocation, float]:
    """Exact argmax over all RB-owner vectors of eligible robots.

    Ties break toward the lexicographically smallest vector.  Feasible
    (level 2) allocations outrank QoS-violating ones, mirroring the shared
    ranking.  Raises if the instance exceeds the enumeration cap.
    """
    eligible = snr.eligible_ids()
    if not eligible:
        raise ValueError("no eligible robots to schedule")
    k, m = len(eligible), cfg.num_rbs
    total = k ** m
    if total > enumeration_cap:
        raise ValueError(
            f"instance too large to enumerate: {k}^{m} > {enumeration_cap}")

    ids = np.asarray(eligible)
    best: tuple[int, float, Optional[np.ndarray]] = (LEVEL_INVALID - 1, -np.inf, None)
    # evaluate_batch holds a few [chunk x num_rbs] arrays at once; 2^15 rows
    # keep that to a few MB.
    chunk = 1 << 15
    # Mixed-radix enumeration in lexicographic order; first occurrence of the
    # best (level, score) is therefore the lexicographically smallest winner.
    weights = k ** np.arange(m - 1, -1, -1, dtype=np.int64)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        genes = (idx[:, None] // weights[None, :]) % k
        allocs = ids[genes]
        assessed = evaluate_batch(allocs, snr, cfg, objective)
        order = np.lexsort((np.arange(len(idx)), -assessed.scores,
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

    Returns (best allocation, its score, total generations run).
    """
    best_alloc: Optional[Allocation] = None
    best_key = (LEVEL_INVALID - 1, -np.inf)
    total_gens = 0
    for r in range(ga.restarts):
        alloc, key, gens = _ga_run(cfg, snr, objective, ga,
                                   rng.substream(f"restart{r}"))
        total_gens += gens
        if key > best_key:
            best_key, best_alloc = key, alloc
    assert best_alloc is not None
    return best_alloc, best_key[1], total_gens


def _ga_run(cfg: SchedulingConfig, snr: SnrMap, objective: ObjectiveSpec,
            ga: GaParams, rng: RngStream
            ) -> tuple[Allocation, tuple[int, float], int]:
    eligible = snr.eligible_ids()
    if not eligible:
        raise ValueError("no eligible robots to schedule")
    ids = np.asarray(eligible)
    k, m = len(ids), cfg.num_rbs
    pop_n = ga.population

    genes = rng.integers(0, k, (pop_n, m))
    best_gene: Optional[np.ndarray] = None
    best_key = (LEVEL_INVALID - 1, -np.inf)

    def rank(gs: np.ndarray) -> Assessment:
        return evaluate_batch(ids[gs], snr, cfg, objective)

    generations_used = 0
    for _ in range(ga.generations):
        generations_used += 1
        assessed = rank(genes)
        levels, scores = assessed.levels, assessed.scores

        order = np.lexsort((np.arange(pop_n), -scores, -levels))
        top = order[0]
        if assessed.key(top) > best_key:
            best_key = assessed.key(top)
            best_gene = genes[top].copy()

        # Tournament selection over the feasibility-first key.
        contenders = rng.integers(0, pop_n, (pop_n, ga.tournament_size))
        keys = levels.astype(np.float64) * 1e18 + np.where(
            np.isfinite(scores), scores, -1e17)
        winners = contenders[np.arange(pop_n), np.argmax(keys[contenders], axis=1)]
        parents = genes[winners]

        # Uniform crossover on consecutive pairs; a trailing unpaired parent
        # passes through unchanged.
        children = parents.copy()
        half = pop_n // 2
        do_cross = rng.random(half) < ga.crossover_prob
        swap_mask = rng.random((half, m)) < 0.5
        swap_mask &= do_cross[:, None]
        a = children[0:2 * half:2]
        b = children[1:2 * half:2]
        a_sw = np.where(swap_mask, b, a)
        b_sw = np.where(swap_mask, a, b)
        children[0:2 * half:2] = a_sw
        children[1:2 * half:2] = b_sw

        # Per-gene mutation redraws a uniform eligible robot.
        mut = rng.random((pop_n, m)) < ga.mutation_prob
        redraw = rng.integers(0, k, (pop_n, m))
        children = np.where(mut, redraw, children)

        # Elitism: the incumbent best replaces the tail of the new population.
        elite = [best_gene] + [genes[order[i]] for i in range(1, ga.elitism)]
        for j, e in enumerate(elite[: ga.elitism]):
            children[pop_n - 1 - j] = e
        genes = children

    assessed = rank(genes)
    order = np.lexsort((np.arange(pop_n), -assessed.scores, -assessed.levels))
    top = order[0]
    if assessed.key(top) > best_key:
        best_key = assessed.key(top)
        best_gene = genes[top].copy()

    assert best_gene is not None
    alloc = tuple(int(v) for v in ids[best_gene])
    return alloc, best_key, generations_used
