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
import functools
from dataclasses import dataclass
from typing import Sequence

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
    """Genetic-algorithm settings.  Against the exact oracle, the defaults
    reach at least 0.997x the optimum, at its level, on 10 robots and 9
    Rayleigh-faded RBs (seeds 1-12, all three objectives), and the optimum
    itself to six digits on every 2-4-robot acceptance instance."""

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
    (owner, row) slots, with owner n standing for every id that names no
    robot, yields the per-robot RB counts and the per-robot rates summed in
    RB order.  Structural validity (unknown ids, empty-buffer robots, the
    RB cap, the width) comes from the counts; the QoS mask, levels and
    scores come from the rates.  A score adds its per-robot terms left to
    right in robot order, the order brute_force_optimal's DP adds them in.
    """
    allocs = np.asarray(allocs)
    P, width = allocs.shape
    n = snr.num_robots
    eligible = snr.buffer_nonempty

    # Owner of each slot: robot id - 1, or n for an id no robot has.
    owner = np.where((allocs >= 1) & (allocs <= n), allocs - 1, n)
    owner = owner.astype(np.intp, copy=False)
    # Rate of each slot, from a [width, n + 1] table: zero for empty
    # buffers, unknown owners and positions past the last RB.
    rb = rb_rate_matrix(snr, cfg)
    m = min(width, rb.shape[1])
    table = np.zeros((width, n + 1))
    table[:m, :n] = np.where(eligible, rb[:, :m].T, 0.0)
    weights = table.take(owner + (n + 1) * np.arange(width)).ravel()
    # Robot-major bins, so each robot's rates and terms are one contiguous
    # row of P values.
    bins = (owner * P + np.arange(P)[:, None]).ravel()
    size = (n + 1) * P
    counts = np.bincount(bins, minlength=size).reshape(n + 1, P)
    rates = np.bincount(bins, weights=weights,
                        minlength=size).reshape(n + 1, P)[:n]

    # RBs each robot may hold: the cap, or none at all with an empty buffer.
    allowed = np.where(eligible, cfg.rb_cap, 0)
    invalid = counts[n] > 0
    if width != cfg.num_rbs:
        invalid[:] = True
    elif (allowed < width).any():      # no count can exceed the width
        invalid |= (counts[:n] > allowed[:, None]).any(axis=0)

    levels = np.full(P, LEVEL_OK, dtype=np.int8)
    if objective.is_qos:
        starved = (rates < objective.min_rate_bps) & eligible[:, None]
        levels[starved.any(axis=0)] = LEVEL_QOS_VIOLATED
        scored = clamp_qos(rates, objective.min_rate_bps)
    else:
        starved = np.zeros(rates.shape, dtype=bool)
        scored = rates
    if objective.kind is ObjectiveKind.QOS_SUM_RATE:
        terms = scored
    else:  # PF and QOS_PF
        terms = np.log2(np.maximum(scored[eligible], objective.epsilon))
    # A strict left fold in robot order, whatever the batch: np.sum would
    # add eight or more terms pairwise, in blocks set by their positions.
    scores = (np.add.accumulate(terms, axis=0)[-1] if len(terms)
              else np.zeros(P))
    levels[invalid] = LEVEL_INVALID
    scores[invalid] = -np.inf
    return Assessment(levels, scores, rates.T, counts.T, starved.T)


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


# brute_force_optimal refuses instances whose subset DP would take more than
# this many (robot, RB subset, sub-subset) steps: k * 3^m for k eligible
# robots and m RBs.
ENUMERATION_CAP = 1 << 24
# The max-plus convolution works in blocks of at most 3^_BLOCK_BITS
# (subset, sub-subset) pairs per prefix and about _BLOCK_CELLS floats in
# all.
_BLOCK_BITS = 10
_BLOCK_CELLS = 1 << 18


@functools.lru_cache(maxsize=None)
def _submask_pairs(bits: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every pair T <= S of subsets of `bits` bits, ordered by S, then T:
    (S ^ T, T, the first pair of each S), 3^bits pairs."""
    digits = np.indices((3,) * bits).reshape(bits, 3 ** bits)
    weights = 1 << np.arange(bits)
    s, t = weights @ (digits > 0), weights @ (digits == 2)
    order = np.lexsort((t, s))
    s, t = s[order], t[order]
    return s ^ t, t, np.flatnonzero(np.diff(s, prepend=-1))


def _maxplus(a: np.ndarray, b: np.ndarray, bits: int) -> np.ndarray:
    """Subset max-plus convolution of two [N, 2^bits] tables:
    out[:, S] = max over T <= S of a[:, S ^ T] + b[:, T].

    The low bits go in one reduceat over their 3^low pairs; the pairs of
    the high bits, if any, loop in Python.
    """
    low = min(bits, _BLOCK_BITS)
    rest, t, starts = _submask_pairs(low)
    high = zip(*(x.tolist() for x in _submask_pairs(bits - low)[:2]))
    out = np.full(a.shape, -np.inf)
    for hi_rest, hi_t in high:
        vals = a[:, (hi_rest << low) + rest] + b[:, (hi_t << low) + t]
        s = hi_rest | hi_t
        block = out[:, s << low:(s + 1) << low]
        np.maximum(block, np.maximum.reduceat(vals, starts, axis=1), out=block)
    return out


def _completion_bounds(terms: np.ndarray, masks: np.ndarray,
                       p: int) -> np.ndarray:
    """Best sum over robots of terms[j, final RB set of j] for each prefix.

    terms: [k, 2^m] value of each RB set per robot (-inf where not allowed);
    masks: [N, k] RBs each robot holds among the first p.  Each of the
    other m - p RBs goes to some robot; the robots' terms add in robot
    order, the same order for every prefix and for the empty one.
    """
    k, m = terms.shape[0], terms.shape[1].bit_length() - 1
    r = m - p
    suffix = np.arange(1 << r) << p
    per_row = max(1, _BLOCK_CELLS // 3 ** min(r, _BLOCK_BITS))
    out = []
    for lo in range(0, len(masks), per_row):
        held = masks[lo:lo + per_row, :, None] | suffix     # [rows, k, 2^r]
        last = terms[k - 1, held[:, k - 1]]
        if k == 1:
            out.append(last[:, -1])
            continue
        best = terms[0, held[:, 0]]
        for j in range(1, k - 1):
            best = _maxplus(best, terms[j, held[:, j]], r)
        # The last robot takes whatever the others leave: T and full ^ T.
        out.append((best[:, ::-1] + last).max(axis=1))
    return np.concatenate(out)


def brute_force_optimal(cfg: SchedulingConfig, snr: SnrMap,
                        objective: ObjectiveSpec) -> tuple[Allocation, float]:
    """Exact argmax over all RB-owner vectors of eligible robots.

    Returns the best (level, score) under evaluate_batch and, at that key,
    the lexicographically smallest vector; feasible (level 2) allocations
    outrank QoS-violating ones, mirroring the shared ranking.  When no
    vector respects the RB cap, every one is invalid and the answer is the
    first eligible id on every RB, with score -inf.

    Every objective is a sum of per-robot terms, and a robot's term, its
    QoS state and its cap check depend only on the set of RBs it holds.  So
    one table per robot over its 2^m RB subsets, with -inf on sets over
    the cap (and, for level 2, on starved sets), and a max-plus dynamic
    programme over robots on subsets (Bjorklund, Husfeldt and Koivisto's
    k * 3^m set partitioning) give the optimum V.  Rates in the tables are
    summed in ascending RB order and terms are added in robot order, as
    evaluate_batch does, so V is the score of every optimal vector bit for
    bit.  The vector is rebuilt RB by RB: each goes to the first robot
    whose best completion under the DP still reaches V.  Raises if the DP
    would take more than ENUMERATION_CAP steps.
    """
    eligible = snr.eligible_ids()
    if not eligible:
        raise ValueError("no eligible robots to schedule")
    ids = np.asarray(eligible)
    k, m, cap = len(ids), cfg.num_rbs, cfg.rb_cap
    if k * 3 ** m > ENUMERATION_CAP:
        raise ValueError(f"instance too large for the subset DP: "
                         f"{k} x 3^{m} > {ENUMERATION_CAP}")

    # Rate and size of every RB subset; subset S | 2^b adds RB b last.
    rb = rb_rate_matrix(snr, cfg)[ids - 1]
    width = min(m, rb.shape[1])
    slot = np.zeros((k, m))
    slot[:, :width] = rb[:, :width]
    rate = np.zeros((k, 1 << m))
    size = np.zeros(1 << m, dtype=np.int64)
    for b in range(m):
        rate[:, 1 << b:2 << b] = rate[:, :1 << b] + slot[:, b:b + 1]
        size[1 << b:2 << b] = size[:1 << b] + 1

    scored, starved = rate, np.zeros(rate.shape, dtype=bool)
    if objective.is_qos:
        starved = rate < objective.min_rate_bps
        scored = clamp_qos(rate, objective.min_rate_bps)
    if objective.kind is not ObjectiveKind.QOS_SUM_RATE:
        scored = np.log2(np.maximum(scored, objective.epsilon))
    terms = np.where(size > cap, -np.inf, scored)
    feasible = np.where(starved, -np.inf, terms)
    mask = np.zeros((1, k), dtype=np.int64)   # RBs each robot holds so far
    v = _completion_bounds(feasible, mask, 0)[0]
    if v == -np.inf:                  # no level-2 vector: best at level 1
        feasible = terms
        v = _completion_bounds(feasible, mask, 0)[0]

    owners = []
    for p in range(m):
        child = mask | (np.eye(k, dtype=np.int64) << p)   # row j: RB p to j
        j = int(np.argmax(_completion_bounds(feasible, child, p + 1) >= v))
        mask = child[j:j + 1]
        owners.append(int(ids[j]))
    return tuple(owners), float(v)


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
    restarts.  Per generation a restart makes three draws: its tournament
    contenders, one block of doubles read as the crossover, swap and
    mutation uniforms, then the mutation redraws.  PCG64 makes each double
    from a whole 64-bit word, so the block holds the doubles that three
    calls would.  Contenders and redraws are bounded integers, made from
    32-bit halves of such words; with the block between them they can join
    neither it nor each other.

    Returns (best allocation, its score, total generations run).
    """
    eligible = snr.eligible_ids()
    if not eligible:
        raise ValueError("no eligible robots to schedule")
    ids = np.asarray(eligible)
    k, m = len(ids), cfg.num_rbs
    R, P, e, T = ga.restarts, ga.population, ga.elitism, ga.tournament_size
    half = P // 2
    streams = [rng.substream(f"restart{r}") for r in range(R)]

    # The populations as [R * P, m] eligible-robot indices, restart by
    # restart.
    genes = np.concatenate([s.integers(0, k, (P, m)) for s in streams])
    best_gene = np.zeros((R, m), dtype=genes.dtype)
    best_level = np.full(R, LEVEL_INVALID - 1)
    best_score = np.full(R, -np.inf)
    first = np.arange(R) * P          # flat row of each restart's first row
    rows = np.arange(R * P)
    # Each generation's draws, restart by restart; a uniform below its
    # limit means cross the pair, swap the gene, or mutate the gene.
    contenders = np.empty((R, P, T), dtype=np.int64)
    redraw = np.empty((R, P, m), dtype=np.int64)
    limits = np.concatenate([np.full(half, ga.crossover_prob),
                             np.full(half * m, 0.5),
                             np.full(P * m, ga.mutation_prob)])
    uniforms = np.empty((R, len(limits)))
    hits = np.empty(uniforms.shape, dtype=bool)
    cross, swap, mutate = (hits[:, :half],
                           hits[:, half:half + half * m].reshape(R, half, m),
                           hits[:, half + half * m:].reshape(R, P, m))

    def rank() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Score every population; promote each restart's improved top row.
        Returns levels and scores by flat row, and each restart's flat rows
        in ranked order."""
        assessed = evaluate_batch(ids[genes], snr, cfg, objective)
        levels, scores = assessed.levels, assessed.scores
        # lexsort is stable: equal keys stay in row order.
        order = np.lexsort((-scores.reshape(R, P), -levels.reshape(R, P)),
                           axis=-1) + first[:, None]
        top = order[:, 0]
        level, score = levels[top], scores[top]
        better = (level > best_level) | ((level == best_level)
                                         & (score > best_score))
        best_level[better], best_score[better] = level[better], score[better]
        best_gene[better] = genes[top[better]]
        return levels, scores, order

    for _ in range(ga.generations):
        levels, scores, order = rank()
        for r, s in enumerate(streams):
            contenders[r] = s.integers(0, P, (P, T))
            uniforms[r] = s.random(uniforms.shape[1])
            redraw[r] = s.integers(0, k, (P, m))
        np.less(uniforms, limits, out=hits)

        # Tournament selection over the feasibility-first key, contenders
        # as flat rows; finite scores lie far above -1e17, so the floor only
        # replaces -inf.
        keys = levels * 1e18 + np.maximum(scores, -1e17)
        drawn = (contenders + first[:, None, None]).reshape(R * P, T)
        winners = drawn[rows, keys[drawn].argmax(axis=1)]
        children = genes.take(winners, axis=0)
        brood = children.reshape(R, P, m)     # a view, restart by restart

        # Uniform crossover on consecutive pairs; a trailing unpaired parent
        # passes through unchanged.
        swap &= cross[..., None]
        pairs = brood[:, :2 * half].reshape(R, half, 2, m)
        pairs[...] = np.where(swap[:, :, None], pairs[:, :, ::-1], pairs)

        # Per-gene mutation redraws a uniform eligible robot.
        np.copyto(brood, redraw, where=mutate)

        # Elitism: the incumbent best, then this generation's runners-up,
        # replace the tail of the new population.
        if e:
            brood[:, P - 1] = best_gene
            brood[:, P - e:P - 1][:, ::-1] = genes[order[:, 1:e]]
        genes = children
    rank()

    r = max(range(R), key=lambda r: (int(best_level[r]), float(best_score[r])))
    return (tuple(int(v) for v in ids[best_gene[r]]), float(best_score[r]),
            R * ga.generations)
