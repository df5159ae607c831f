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
from typing import NamedTuple, Sequence

import numpy as np

from .configs import (ConfigError, ObjectiveKind, ObjectiveSpec,
                      SchedulingConfig, bounded, check_fields)
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

    population: int = bounded(100, ge=2)
    generations: int = bounded(200, ge=1)
    tournament_size: int = bounded(3, ge=1)
    crossover_prob: float = bounded(0.9, ge=0, le=1)
    mutation_prob: float = bounded(0.05, ge=0, le=1)
    elitism: int = bounded(2, ge=0)
    restarts: int = bounded(3, ge=1)

    def __post_init__(self):
        check_fields(self, "ga")
        if self.elitism > self.population:
            raise ConfigError("ga.elitism",
                              f"must be <= population ({self.population})")


# ---------------------------------------------------------------------------
# The assessment kernel and its readers


class Assessment(NamedTuple):
    """assess's row-by-row verdict on P allocations over n robots."""

    levels: np.ndarray    # [P] int8: LEVEL_INVALID, LEVEL_QOS_VIOLATED or LEVEL_OK
    scores: np.ndarray    # [P] objective value; -inf on structurally invalid rows
    rates: np.ndarray     # [P, n] bits/s; 0 for empty-buffer robots
    counts: np.ndarray    # [P, n + 1] RBs per robot; last column: unknown ids
    starved: np.ndarray   # [P, n] eligible robots below the QoS minimum rate

    def key(self, row: int) -> tuple[int, float]:
        """(level, score) ranking key of one row."""
        return int(self.levels[row]), float(self.scores[row])


class ScoringTable(NamedTuple):
    """What one (snr, cfg, objective) fixes for _score; see scoring_table."""

    objective: ObjectiveSpec
    num_rbs: int
    eligible: np.ndarray  # [n] bool: buffer non-empty, n the map's robot rows
    rows: list[int]       # the eligible rows' indices, ascending
    rb: np.ndarray        # [n, snr.num_rbs] per-(row, RB) rate
    table: np.ndarray     # flat [num_rbs, n + 1] slot rates, see _rate_table
    offsets: np.ndarray   # [num_rbs] flat offset of each RB's slots in table
    limits: np.ndarray    # [n, 1] RBs each row's robot may hold
    lookup: np.ndarray    # [n + 2] owner of each id clipped to [0, n + 1]


def _rate_table(rb: np.ndarray, eligible: np.ndarray,
                width: int) -> np.ndarray:
    """Rate of each (RB, owner) slot, flat over a [width, n + 1] table:
    zero for empty buffers, for owner n (unknown ids) and for positions
    past the last RB."""
    n, m = rb.shape[0], min(width, rb.shape[1])
    table = np.zeros((width, n + 1))
    np.copyto(table[:m, :n], rb[:, :m].T, where=eligible)
    return table.ravel()


def scoring_table(snr: SnrMap, cfg: SchedulingConfig,
                  objective: ObjectiveSpec) -> ScoringTable:
    """Build what _score needs that a batch does not change, so that a
    search scoring many batches on one instance builds it once."""
    n, m = snr.num_robots, cfg.num_rbs
    eligible = snr.buffer_nonempty
    rb = rb_rate_matrix(snr, cfg)
    rows = [j for j, ok in enumerate(eligible.tolist()) if ok]
    # RBs each robot may hold: the cap, or none at all with an empty buffer.
    limits = np.where(eligible, cfg.rb_cap, 0)[:, None]
    # Owner of each id clipped to [0, n + 1]: robot id - 1, or n for an id
    # no robot has.
    lookup = np.arange(-1, n + 1, dtype=np.intp)
    lookup[0] = n
    return ScoringTable(
        objective=objective, num_rbs=m, eligible=eligible, rows=rows, rb=rb,
        table=_rate_table(rb, eligible, m),
        offsets=np.arange(0, (n + 1) * m, n + 1), limits=limits,
        lookup=lookup)


def assess(allocs: np.ndarray, prepared: ScoringTable) -> Assessment:
    """Assess a batch of allocation candidates in one pass.

    allocs: [P, width] robot ids, one candidate per row; a width other than
    the config's num_rbs makes every row structurally invalid.  assess
    decodes the ids to owner indices, with owner n standing for every id
    that names no robot, and scores them with _score, counting RBs.
    """
    allocs = np.asarray(allocs)
    n = len(prepared.eligible)
    # Clipping to [0, n + 1] keeps every unknown id unknown, whatever its
    # size or dtype; fmax and fmin send a NaN to 0, another unknown id.
    clipped = np.fmin(np.fmax(allocs, 0), n + 1)
    owner = prepared.lookup[clipped.astype(np.intp, copy=False)]
    if allocs.dtype.kind not in "iu":
        # The cast truncates: a fractional id in (n, n + 1) names no robot.
        owner[clipped > n] = n
    levels, scores, rates, counts, starved = _score(owner, prepared, True)
    return Assessment(levels, scores, rates.T, counts.T, starved.T)


def _score(owner: np.ndarray, prepared: ScoringTable, count: bool):
    """The scoring kernel that assess and ga_schedule share.

    owner: [P, width] owner index of each RB, robot index 0..n-1 or n for
    an unknown id.  One weighted bincount over (owner, row) slots yields
    the per-robot rates summed in RB order; the QoS mask, levels and scores
    come from the rates.  A score adds its per-robot terms left to right in
    robot order, the order brute_force_optimal's DP adds them in.

    With `count`, a second bincount yields the per-robot RB counts, and
    structural validity (unknown ids, empty-buffer robots, the RB cap, the
    width) comes from them.  Without it every row is taken as structurally
    valid: owners name eligible robots only, the width is num_rbs and no
    robot can hold more RBs than its cap, as in the GA on a map whose cap
    cannot bind.

    Returns levels [P], scores [P], and robot-major rates [n, P], counts
    [n + 1, P] (None without `count`) and starved [n, P].
    """
    P, width = owner.shape
    objective, eligible = prepared.objective, prepared.eligible
    n = len(eligible)
    if width == prepared.num_rbs:
        table, offsets = prepared.table, prepared.offsets
    else:
        table = _rate_table(prepared.rb, eligible, width)
        offsets = np.arange(0, (n + 1) * width, n + 1)
    weights = table.take(owner + offsets).ravel()
    # Robot-major bins, so each robot's rates and terms are one contiguous
    # row of P values.
    bins = owner * P
    bins += np.arange(P)[:, None]
    bins = bins.ravel()
    size = (n + 1) * P
    rates = np.bincount(bins, weights=weights,
                        minlength=size).reshape(n + 1, P)[:n]

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
        terms = np.maximum(scored, objective.epsilon)
        np.log2(terms, out=terms)
    # A strict left fold over the eligible robots in robot order, whatever
    # the batch: np.sum would add eight or more terms pairwise, in blocks
    # set by their positions.  An empty-buffer robot's sum-rate term is 0,
    # so leaving it out changes no bit.
    rows = prepared.rows
    scores = terms[rows[0]].copy() if rows else np.zeros(P)
    for j in rows[1:]:
        scores += terms[j]

    counts = None
    if count:
        counts = np.bincount(bins, minlength=size).reshape(n + 1, P)
        invalid = counts[n] > 0
        if width != prepared.num_rbs:
            invalid[:] = True
        elif (prepared.limits < width).any():  # no count can exceed the width
            invalid |= (counts[:n] > prepared.limits).any(axis=0)
        levels[invalid] = LEVEL_INVALID
        scores[invalid] = -np.inf
    return levels, scores, rates, counts, starved


def evaluate_batch(allocs: np.ndarray, snr: SnrMap, cfg: SchedulingConfig,
                   objective: ObjectiveSpec) -> Assessment:
    """assess on a table prepared for this one batch."""
    return assess(allocs, scoring_table(snr, cfg, objective))


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
    held = assessed.counts[0].tolist()
    violations: list[Violation] = []

    if row.shape[1] != cfg.num_rbs:
        violations.append(Violation(ViolationKind.WRONG_LENGTH))

    if held[n]:
        unknown = np.unique(row[(row < 1) | (row > n)]).tolist()
        violations.append(Violation(ViolationKind.UNKNOWN_ROBOT,
                                    tuple(unknown)))

    empty = tuple(j + 1 for j, (c, ok) in enumerate(
        zip(held, snr.buffer_nonempty.tolist())) if c and not ok)
    if empty:
        violations.append(Violation(ViolationKind.EMPTY_BUFFER_ROBOT, empty))

    for j, c in enumerate(held[:n]):
        if c > cfg.rb_cap:
            violations.append(Violation(ViolationKind.EXCESSIVE_RBS, (j + 1,)))

    level, score = assessed.key(0)
    if level == LEVEL_QOS_VIOLATED:
        bad = (np.flatnonzero(assessed.starved[0]) + 1).tolist()
        violations.append(Violation(ViolationKind.QOS_VIOLATION, tuple(bad)))

    return ValidationReport(tuple(violations), level, score)


# ---------------------------------------------------------------------------
# Reference schedulers


def _eligible_instance(snr: SnrMap) -> tuple[np.ndarray, SnrMap]:
    """The eligible robots' ids, ascending, and the map of their rows alone.

    Row j of the sub-map is robot ids[j], with a non-empty buffer.  Its
    rates are the full map's rows bit for bit (rb_rate_matrix works
    elementwise), and its rows keep the full map's robot order, so a search
    on it ranks every allocation as the full map would.  Raises if no robot
    is eligible.
    """
    eligible = snr.eligible_ids()
    if not eligible:
        raise ValueError("no eligible robots to schedule")
    ids = np.asarray(eligible)
    rows = ids - 1
    return ids, SnrMap(values=snr.values[rows],
                       robot_positions=snr.robot_positions[rows],
                       buffer_nonempty=np.ones(len(ids), dtype=bool))


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
# ga_schedule decodes each restart's draws for this many generations at a
# time: fewer calls against larger arrays; on the reference scene 16 ran
# faster than 8 or 32.
_GA_BLOCK = 16


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
    ids, sub = _eligible_instance(snr)
    k, m, cap = len(ids), cfg.num_rbs, cfg.rb_cap
    if k * 3 ** m > ENUMERATION_CAP:
        raise ValueError(f"instance too large for the subset DP: "
                         f"{k} x 3^{m} > {ENUMERATION_CAP}")

    # Rate and size of every RB subset; subset S | 2^b adds RB b last.
    rb = rb_rate_matrix(sub, cfg)
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
    one call of _score, the kernel assess scores with, over [restarts x
    population] rows, on a scoring table built once per search over the
    eligible robots alone (_eligible_instance), which gives every row the
    bits assess would give its allocation on the full map.  A gene is a
    position 0..k-1 among the k eligible robots, exactly as drawn, so the
    search skips assess's id decoding and maps only the best vector to
    ids; it counts RBs only when the cap can bind (rb_cap < num_rbs).
    Restart r draws from its own `restart{r}` substream, in the order a
    run of that restart by itself would, and selection, crossover,
    mutation and elitism never mix restarts.  Per generation a restart
    draws its tournament contenders, one block of doubles read as the
    crossover, swap and mutation uniforms (PCG64 makes each double from a
    whole 64-bit word, so the block holds the doubles three calls would),
    then the mutation redraws.  `RngStream.rounds` decodes those draws for
    up to _GA_BLOCK generations at a time from the stream's raw words,
    exactly as the calls made one by one would return them, so the
    generation loop makes no draw call.

    Returns (best allocation, its score, total generations run).
    """
    ids, sub = _eligible_instance(snr)
    k, m = len(ids), cfg.num_rbs
    R, P, e, T = ga.restarts, ga.population, ga.elitism, ga.tournament_size
    half = P // 2
    table = scoring_table(sub, cfg, objective)
    count = cfg.rb_cap < m
    streams = [rng.substream(f"restart{r}") for r in range(R)]

    # The populations as [R * P, m] eligible positions, restart by restart.
    genes = np.concatenate([s.integers(0, k, (P, m)) for s in streams])
    best_gene = np.zeros((R, m), dtype=genes.dtype)
    # Each restart's best (level, score) so far; any real key outranks it.
    best = [(LEVEL_INVALID - 1, -np.inf)] * R
    first = np.arange(R) * P          # flat row of each restart's first row
    rows = np.arange(R * P)
    layout = ((P, P * T), (None, half + half * m + P * m), (k, P * m))

    def rank() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Score every population; promote each restart's improved top row.
        Returns levels and scores by flat row, and each restart's flat rows
        in ranked order."""
        levels, scores = _score(genes, table, count)[:2]
        # lexsort is stable: equal keys stay in row order.
        order = np.lexsort((-scores.reshape(R, P), -levels.reshape(R, P)),
                           axis=-1) + first[:, None]
        top = order[:, 0]
        for r, key in enumerate(zip(levels[top].tolist(),
                                    scores[top].tolist())):
            if key > best[r]:
                best[r] = key
                best_gene[r] = genes[top[r]]
        return levels, scores, order

    # A block of generations' draws, each [generation, restart, ...]:
    # contenders as flat rows, the crossover's swap mask (a pair's swaps
    # only where the pair crosses), the mutation mask and the redraws.
    block = min(_GA_BLOCK, ga.generations)
    block_drawn = np.empty((block, R * P, T), dtype=np.int64)
    block_swap = np.empty((block, R, half, m), dtype=bool)
    block_mutate = np.empty((block, R, P, m), dtype=bool)
    block_redraw = np.empty((block, R, P, m), dtype=genes.dtype)

    for g in range(ga.generations):
        i = g % block
        if i == 0:
            gens = min(block, ga.generations - g)
            for r, s in enumerate(streams):
                contenders, uniforms, redraw = s.rounds(gens, layout)
                np.add(contenders.reshape(gens, P, T), first[r],
                       out=block_drawn[:gens, first[r]:first[r] + P])
                # A uniform below its limit means cross the pair, swap the
                # gene, or mutate the gene.
                cross, swap, mutate = np.split(uniforms,
                                               (half, half + half * m), axis=1)
                np.logical_and(swap.reshape(gens, half, m) < 0.5,
                               (cross < ga.crossover_prob)[..., None],
                               out=block_swap[:gens, r])
                np.less(mutate.reshape(gens, P, m), ga.mutation_prob,
                        out=block_mutate[:gens, r])
                block_redraw[:gens, r] = redraw.reshape(gens, P, m)
        levels, scores, order = rank()

        # Tournament selection over the feasibility-first key, contenders
        # as flat rows; finite scores lie far above -1e17, so the floor only
        # replaces -inf.
        keys = levels * 1e18 + np.maximum(scores, -1e17)
        drawn = block_drawn[i]
        winners = drawn[rows, keys[drawn].argmax(axis=1)]
        children = genes.take(winners, axis=0)
        brood = children.reshape(R, P, m)     # a view, restart by restart

        # Uniform crossover on consecutive pairs; a trailing unpaired parent
        # passes through unchanged.
        pairs = brood[:, :2 * half].reshape(R, half, 2, m)
        pairs[...] = np.where(block_swap[i][:, :, None], pairs[:, :, ::-1],
                              pairs)

        # Per-gene mutation redraws a uniform eligible position.
        np.copyto(brood, block_redraw[i], where=block_mutate[i])

        # Elitism: the incumbent best, then this generation's runners-up,
        # replace the tail of the new population.
        if e:
            brood[:, P - 1] = best_gene
            brood[:, P - e:P - 1][:, ::-1] = genes[order[:, 1:e]]
        genes = children
    rank()

    r = max(range(R), key=best.__getitem__)
    return (tuple(ids[best_gene[r]].tolist()), best[r][1], R * ga.generations)
