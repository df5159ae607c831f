"""Iterative prompt-based scheduling: build a task description with scored
exemplars, ask a proposal engine for an allocation, validate, score, feed
back, repeat.

The loop is engine-agnostic: any object with propose(prompt) -> str works,
including the bundled local-search mock (used by tests and offline runs)
and the chat-model client in the gateway.  Validation is never skipped, a
malformed response costs one iteration and produces corrective feedback,
and the best-so-far allocation follows feasibility-first ranking: a vector
meeting every minimum-rate constraint outranks any vector that does not,
whatever its raw score.
"""

from __future__ import annotations

import enum
import functools
import hashlib
import math
import re
from collections import Counter
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Optional, Protocol, Sequence

from .configs import (ObjectiveKind, ObjectiveSpec, SchedulingConfig,
                      bounded, check_fields)
from .radio import SnrMap
from .rng import RngStream
from .scheduling import (
    LEVEL_INVALID,
    LEVEL_OK,
    Allocation,
    ValidationReport,
    ViolationKind,
    allocation_rank,
    validate,
)


class ParseFailure(str, enum.Enum):
    NO_VECTOR = "no_vector"
    NON_INTEGER_TOKEN = "non_integer_token"


class ProposalEngine(Protocol):
    def propose(self, prompt: str) -> str: ...


@dataclass(frozen=True)
class OproParams:
    max_iterations: int = bounded(200, ge=1)
    stop_patience: int = bounded(30, ge=1)
    history_window: int = bounded(10, ge=1)

    def __post_init__(self):
        check_fields(self, "opro_params")


@dataclass(frozen=True)
class TranscriptEntry:
    iteration: int                      # 1-based, global across segments
    segment: int                        # 0-based objective segment
    objective_kind: str
    prompt_digest: str
    raw_response: str
    parsed: Optional[Allocation]
    parse_failure: Optional[ParseFailure]
    report: Optional[ValidationReport]  # None when parsing failed
    score: Optional[float]              # None when not scoreable
    feedback: str
    best_score: Optional[float]
    best_level: int


@dataclass(frozen=True)
class SegmentResult:
    objective: ObjectiveSpec
    best_alloc: Optional[Allocation]
    best_score: float
    best_level: int
    iterations_run: int

    @property
    def success(self) -> bool:
        """True only when the incumbent satisfies every constraint."""
        return self.best_alloc is not None and self.best_level == LEVEL_OK


@dataclass(frozen=True)
class OproResult:
    segments: tuple[SegmentResult, ...]
    transcript: tuple[TranscriptEntry, ...]

    @property
    def final(self) -> SegmentResult:
        return self.segments[-1]

    @property
    def best_alloc(self) -> Optional[Allocation]:
        return self.final.best_alloc

    @property
    def best_score(self) -> float:
        return self.final.best_score

    @property
    def success(self) -> bool:
        return self.final.success


# ---------------------------------------------------------------------------
# Prompt construction


def explore_hint(iteration: int, max_iterations: int) -> float:
    """Exploration weight for a 0-based iteration index.

    Decays linearly from 1 to 0 over the first half of the budget and stays
    at 0 afterwards, an annealing-style schedule: broad moves early,
    refinement late.
    """
    if max_iterations <= 0:
        return 0.0
    return max(0.0, 1.0 - 2.0 * iteration / max_iterations)


def _objective_text(objective: ObjectiveSpec, cfg: SchedulingConfig) -> str:
    if objective.kind is ObjectiveKind.PF:
        return ("Objective: maximize proportional fairness, the sum over "
                "eligible robots of log2(max(rate, {eps:g})).".format(
                    eps=objective.epsilon))
    if objective.kind is ObjectiveKind.QOS_SUM_RATE:
        return ("Primary objective: satisfy each robot's QoS requirement, a "
                "minimum rate of {mr:.10g} bits per second; a robot below the "
                "minimum counts as zero rate. Among allocations that satisfy "
                "every requirement, maximize the total rate.".format(
                    mr=objective.min_rate_bps))
    return ("Primary objective: satisfy each robot's QoS requirement, a "
            "minimum rate of {mr:.10g} bits per second; a robot below the "
            "minimum counts as zero rate. Among allocations that satisfy "
            "every requirement, maximize the sum of log2(max(rate, {eps:g})) "
            "over eligible robots.".format(
                mr=objective.min_rate_bps, eps=objective.epsilon))


_HISTORY_LINE = ("Previously evaluated allocations, worst to best "
                 "(higher score is better):")
_NO_HISTORY_LINE = "No allocations have been evaluated yet."


def task_prompt_head(cfg: SchedulingConfig, snr: SnrMap,
                     objective: ObjectiveSpec) -> str:
    """The part of the task prompt an objective segment does not change:
    the task, the rate rule, the eligible robots, the RB cap, the SNR table
    and the objective.  The loop formats it once per segment."""
    eligible = snr.eligible_ids()
    lines = [
        "Task: assign radio resource blocks to robots in a factory cell.",
        f"Number of resource blocks: {cfg.num_rbs}",
        f"Total bandwidth: {cfg.bandwidth_hz:.10g} Hz, split evenly across "
        "the resource blocks.",
        "A robot's rate is the sum over its assigned blocks of "
        "(bandwidth / num_blocks) * log2(1 + SNR).",
        "Eligible robots (nonempty buffers): "
        + ", ".join(str(i) for i in eligible),
        "Robots not listed have empty buffers and must not be scheduled.",
    ]
    if cfg.rb_cap < cfg.num_rbs:
        lines.append(f"No robot may own more than {cfg.rb_cap} resource blocks.")
    lines.append("Per-robot SNR on each resource block (linear scale):")
    for rid in eligible:
        row = ", ".join(f"{v:.6g}" for v in snr.values[rid - 1])
        lines.append(f"  robot {rid}: {row}")
    lines.append(_objective_text(objective, cfg))
    return "\n".join(lines)


def _exemplar_line(alloc: Allocation, score: float) -> str:
    """The history line of one scored allocation."""
    vec = ", ".join(str(v) for v in alloc)
    return f"score={score:.10g} allocation=[{vec}]"


def build_task_prompt(head: str, cfg: SchedulingConfig,
                      history: Sequence[str],
                      hint: float,
                      last_feedback: Optional[str] = None) -> str:
    """Deterministic task prompt: the segment's head (task_prompt_head),
    then the scored history, the latest feedback, the hint and the reply
    line.

    history holds the exemplars' lines (_exemplar_line), worst to best so
    the strongest exemplar sits closest to the answer slot; they are
    assumed already ranked by the caller.
    """
    lines = [head]
    if history:
        lines.append(_HISTORY_LINE)
        lines.extend(history)
    else:
        lines.append(_NO_HISTORY_LINE)
    if last_feedback:
        lines.append(f"Feedback on the most recent proposal: {last_feedback}")
    lines.append(f"Exploration hint: {hint:.4f} (1 = explore broadly, "
                 "0 = refine the best known allocation).")
    lines.append("Reply with one line containing the new allocation as "
                 f"{cfg.num_rbs} integers in square brackets; entry b is the "
                 "robot id that owns resource block b.")
    return "\n".join(lines)


def prompt_digest(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Response parsing and feedback


_BRACKET_RE = re.compile(r"\[([^\[\]]*)\]")


def parse_allocation(text: str) -> tuple[Optional[Allocation], Optional[ParseFailure]]:
    """Extract the last bracketed integer vector from free-form text.

    Tolerates commas and arbitrary whitespace between entries.  Bracketed
    groups that are not integer vectors (prose asides, decimals) are
    skipped in favour of the last group that parses; if brackets exist but
    none parses, the failure distinguishes bad tokens from no vector at all.
    """
    groups = _BRACKET_RE.findall(text)
    if not groups:
        return None, ParseFailure.NO_VECTOR
    saw_tokens = False
    for body in reversed(groups):
        tokens = [t for t in re.split(r"[,\s]+", body.strip()) if t]
        if not tokens:
            continue
        saw_tokens = True
        try:
            return tuple(int(t, 10) for t in tokens), None
        except ValueError:
            continue
    return None, (ParseFailure.NON_INTEGER_TOKEN if saw_tokens
                  else ParseFailure.NO_VECTOR)


def _robot_list(ids: Sequence[int]) -> str:
    ids = list(ids)
    if len(ids) == 1:
        return str(ids[0])
    return ", ".join(str(i) for i in ids[:-1]) + f" and {ids[-1]}"


PARSE_FEEDBACK = {
    ParseFailure.NO_VECTOR:
        "The response did not contain an allocation vector in square brackets.",
    ParseFailure.NON_INTEGER_TOKEN:
        "The bracketed vector contains tokens that are not integers.",
}


def feedback_message(report: Optional[ValidationReport],
                     score: Optional[float],
                     parse_failure: Optional[ParseFailure],
                     num_rbs: int) -> str:
    """Natural-language feedback for one proposal; fixed sentence templates."""
    if parse_failure is not None:
        return PARSE_FEEDBACK[parse_failure]
    assert report is not None
    if report.ok:
        assert score is not None
        return f"Allocation achieved score {score:.10g}."
    parts = []
    for v in report.violations:
        if v.kind is ViolationKind.WRONG_LENGTH:
            parts.append("RB allocation vector has the wrong length; "
                         f"exactly {num_rbs} entries are required.")
        elif v.kind is ViolationKind.UNKNOWN_ROBOT:
            parts.append("RB allocation vector references robots that do not "
                         f"exist: {_robot_list(v.robots)}.")
        elif v.kind is ViolationKind.EMPTY_BUFFER_ROBOT:
            parts.append("RB allocation vector assigns resource blocks to "
                         f"robots with empty buffers: {_robot_list(v.robots)}.")
        elif v.kind is ViolationKind.EXCESSIVE_RBS:
            parts.append("RB allocation vector gives robot "
                         f"{_robot_list(v.robots)} more resource blocks than "
                         "the per-robot cap allows.")
        elif v.kind is ViolationKind.QOS_VIOLATION:
            parts.append("RB allocation vector violates the QoS requirement "
                         f"of robots {_robot_list(v.robots)}.")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# The optimization loop


def opro_optimize_segments(cfg: SchedulingConfig, snr: SnrMap,
                           segments: Sequence[tuple[ObjectiveSpec, int]],
                           engine: ProposalEngine,
                           params: OproParams = OproParams()) -> OproResult:
    """Run the prompting loop over consecutive objective segments.

    Each (objective, iteration_budget) segment keeps the same engine and a
    shared transcript; at a switch the incumbent allocation is re-scored
    under the new objective and seeds the new exemplar list, everything
    else restarts (scores across objectives are not comparable).  A segment
    stops early when the incumbent has not improved for stop_patience
    iterations.

    A segment formats its prompt head once, and each exemplar's history
    line once.  validate is a pure function of the allocation within a
    segment, so a repeated proposal reuses the report of its first
    validation.
    """
    transcript: list[TranscriptEntry] = []
    seg_results: list[SegmentResult] = []
    global_it = 0
    carry_alloc: Optional[Allocation] = None

    for seg_idx, (objective, budget) in enumerate(segments):
        # (alloc, level, score) exemplars, deduped, kept ranked ascending.
        exemplars: dict[Allocation, tuple[int, float]] = {}
        best_alloc: Optional[Allocation] = None
        best_key = (LEVEL_INVALID, float("-inf"))
        if carry_alloc is not None:
            lvl, sc = allocation_rank(carry_alloc, snr, cfg, objective)
            if lvl > LEVEL_INVALID:
                exemplars[carry_alloc] = (lvl, sc)
                best_alloc, best_key = carry_alloc, (lvl, sc)
        head = task_prompt_head(cfg, snr, objective)
        # At most one entry per iteration; dropped at a switch.
        reports: dict[Allocation, ValidationReport] = {}
        # Each exemplar's history line.  Keyed by allocation: a segment
        # fixes each allocation's score, and a key holding the score would
        # take -0.0 for 0.0.
        lines: dict[Allocation, str] = {}
        last_feedback: Optional[str] = None
        stale = 0
        it_in_seg = 0

        for it_in_seg in range(1, budget + 1):
            global_it += 1
            hint = explore_hint(it_in_seg - 1, budget)
            ranked = sorted(exemplars.items(), key=lambda kv: kv[1])
            history = []
            for a, (_, s) in ranked[-params.history_window:]:
                line = lines.get(a)
                if line is None:
                    line = lines[a] = _exemplar_line(a, s)
                history.append(line)
            prompt = build_task_prompt(head, cfg, history, hint, last_feedback)
            raw = engine.propose(prompt)
            parsed, failure = parse_allocation(raw)

            report: Optional[ValidationReport] = None
            score: Optional[float] = None
            improved = False
            if failure is None:
                assert parsed is not None
                report = reports.get(parsed)
                if report is None:
                    report = reports[parsed] = validate(parsed, snr, cfg,
                                                        objective)
                key = (report.level, report.score)
                if report.level > LEVEL_INVALID:
                    score = report.score
                    exemplars[parsed] = key
                    if key > best_key:
                        best_key = key
                        best_alloc = parsed
                        improved = True
            feedback = feedback_message(report, score, failure, cfg.num_rbs)
            transcript.append(TranscriptEntry(
                iteration=global_it,
                segment=seg_idx,
                objective_kind=objective.kind.value,
                prompt_digest=prompt_digest(prompt),
                raw_response=raw,
                parsed=parsed,
                parse_failure=failure,
                report=report,
                score=score,
                feedback=feedback,
                best_score=(best_key[1] if best_alloc is not None else None),
                best_level=(best_key[0] if best_alloc is not None else LEVEL_INVALID),
            ))
            last_feedback = feedback
            stale = 0 if improved else stale + 1
            if stale >= params.stop_patience:
                break

        seg_results.append(SegmentResult(
            objective=objective,
            best_alloc=best_alloc,
            best_score=best_key[1],
            best_level=best_key[0],
            iterations_run=it_in_seg,
        ))
        carry_alloc = best_alloc

    return OproResult(tuple(seg_results), tuple(transcript))


# ---------------------------------------------------------------------------
# Offline proposal engine


_NUM_RBS_RE = re.compile(r"Number of resource blocks: (\d+)")
_ELIGIBLE_RE = re.compile(r"Eligible robots \(nonempty buffers\): ([0-9, ]+)")
_CAP_RE = re.compile(r"No robot may own more than (\d+) resource blocks\.")
_EXEMPLAR_RE = re.compile(r"score=(\S+) allocation=\[([^\]]*)\]")
_HINT_RE = re.compile(r"Exploration hint: ([0-9.]+)")
_QOS_FEEDBACK_RE = re.compile(
    r"violates the QoS requirement of robots ([0-9, and]+)\.")
_BANDWIDTH_RE = re.compile(r"Total bandwidth: ([0-9.e+-]+) Hz")
_SNR_ROW_RE = re.compile(r"  robot (\d+): (.+)")
_MIN_RATE_RE = re.compile(r"minimum rate of ([0-9.e+-]+) bits per second")
# The line break before the history section ends a prompt's head.
_TAIL_RE = re.compile("\n(?=" + re.escape(_HISTORY_LINE) + "|"
                      + re.escape(_NO_HISTORY_LINE) + ")")


def _split_prompt(prompt: str) -> tuple[str, str]:
    """(head, tail) of a task prompt; a prompt with no history section is
    both, so it is read whole."""
    end = _TAIL_RE.search(prompt)
    if end is None:
        return prompt, prompt
    return prompt[:end.start()], prompt[end.end():]


@dataclass(frozen=True)
class _TaskHead:
    """What the mock reads from a prompt head, and what it prepares from
    that once.  Shared through the head cache by every engine and thread,
    so nothing in it can change."""

    m: int
    eligible: tuple[int, ...]
    rates: Optional[Mapping[int, tuple[float, ...]]]   # read-only, by robot id
    log: bool
    min_rate: float
    cap: Optional[int]                                 # None: no cap line
    # Each eligible robot's alternatives, the eligible robots but itself.
    alts: Mapping[int, tuple[int, ...]]
    # The min-rate greedy's start: each RB's best-rate owner, fitted to the
    # cap; None without a table or when the greedy takes the log-gain branch.
    start: Optional[tuple[int, ...]] = None


@functools.lru_cache(maxsize=16)
def _read_head(head: str) -> Optional[_TaskHead]:
    """Parse a prompt head once; None when it has no task lines.  A head is
    constant over a segment, so each proposal after the first is a hit.
    A head whose SNR table lacks a full row for some eligible robot reads
    as one with no table."""
    m_match = _NUM_RBS_RE.search(head)
    e_match = _ELIGIBLE_RE.search(head)
    if m_match is None or e_match is None:
        return None
    m = int(m_match.group(1))
    eligible = tuple(int(t) for t in e_match.group(1).split(","))
    rates: Optional[dict[int, tuple[float, ...]]] = None
    bw_match = _BANDWIDTH_RE.search(head)
    if bw_match is not None:
        bw = float(bw_match.group(1))
        rates = {}
        for line in head.splitlines():
            row = _SNR_ROW_RE.match(line)
            if row:
                vals = [float(t) for t in row.group(2).split(",")]
                if len(vals) == m:
                    rates[int(row.group(1))] = tuple(
                        (bw / m) * math.log2(1.0 + s) for s in vals)
        if not all(r in rates for r in eligible):
            rates = None
    log = "log2(max(rate" in head
    mr = _MIN_RATE_RE.search(head)
    min_rate = float(mr.group(1)) if mr else 0.0
    cap_match = _CAP_RE.search(head)
    cap = int(cap_match.group(1)) if cap_match else None
    alts = MappingProxyType({r: tuple(o for o in eligible if o != r)
                             for r in eligible})
    if not rates:
        return _TaskHead(m, eligible, None, log, min_rate, cap, alts)
    start = None
    if not log or min_rate:
        owners = [max(eligible, key=lambda r: rates[r][b]) for b in range(m)]
        _fit_cap(owners, eligible, rates, cap)
        start = tuple(owners)
    return _TaskHead(m, eligible, MappingProxyType(rates), log, min_rate, cap,
                     alts, start)


def _fit_cap(alloc: list[int], eligible: Sequence[int],
             rates: Mapping[int, Sequence[float]], cap: Optional[int]) -> None:
    """Move blocks off robots above the RB cap, if the prompt has one, in
    place: each move is the one that loses the least rate, to a robot with
    room."""
    if cap is None:
        return
    owned = Counter(alloc)
    for r in eligible:
        while owned[r] > cap:
            room = [o for o in eligible if owned[o] < cap]
            if not room:
                return
            _, b, o = min((rates[r][b] - rates[o][b], b, o)
                          for b in range(len(alloc)) if alloc[b] == r
                          for o in room)
            alloc[b] = o
            owned[r] -= 1
            owned[o] += 1


class MockLocalSearchEngine:
    """Prompt-driven local search standing in for a chat model.

    Everything it knows comes from the prompt text: block count, eligible
    ids, the RB cap, the SNR table and bandwidth (from which it rebuilds
    approximate per-block rates, as any numerate reader of the prompt
    could), scored exemplars, the exploration hint, and the latest feedback
    sentence.  It reads a prompt's head once (see _read_head) and each
    proposal's tail anew.  One head parse also prepares what every proposal
    on that head reuses: each robot's alternative robots for a reassignment
    and the min-rate greedy's starting allocation.
    Before any exemplar exists it proposes an objective-aware greedy
    construction with randomized repair order; afterwards it screens a
    small batch of perturbations of the best exemplar (single reassign,
    swap, double reassign, hint-scaled shotgun, a fresh greedy, and a
    repair of any robots called out in QoS feedback) against its own
    table-derived score and returns the winner.  Under an RB cap the greedy
    stays within it and any candidate over it ranks below every candidate
    within it.  Deterministic given its rng; the loop's exact scoring
    remains the arbiter of progress.
    """

    CANDIDATES = 12

    def __init__(self, rng: RngStream):
        self._rng = rng

    def propose(self, prompt: str) -> str:
        head, tail = _split_prompt(prompt)
        task = _read_head(head)
        if task is None:
            return "No task description found."
        m, eligible = task.m, task.eligible
        hint_match = _HINT_RE.search(tail)
        hint = float(hint_match.group(1)) if hint_match else 0.5

        exemplars = _EXEMPLAR_RE.findall(tail)
        if not exemplars or task.rates is None:
            if task.rates is None:
                vec = [eligible[self._rng.integers(0, len(eligible))]
                       for _ in range(m)]
            else:
                vec = self._greedy(task)
        else:
            _, body = exemplars[-1]
            base = [int(t) for t in body.split(",")]
            if len(base) != m:
                base = (base + [eligible[0]] * m)[:m]
            cands = [self._mutate(base, task, hint)
                     for _ in range(self.CANDIDATES)]
            cands.append(self._greedy(task))
            qos = _QOS_FEEDBACK_RE.search(tail)
            if qos is not None:
                hungry = [int(t) for t in
                          re.split(r",| and ", qos.group(1)) if t.strip()]
                rep = list(base)
                for rid in hungry:
                    if rid in eligible:
                        rep[self._rng.integers(0, m)] = rid
                cands.append(rep)
            vec = max(cands, key=lambda v: self._score(v, task))

        body = ", ".join(str(v) for v in vec)
        return f"Proposed allocation: [{body}]"

    def _score(self, vec: Sequence[int], task: _TaskHead) -> tuple[int, float]:
        """Feasibility first, then the sum of log2 of the rates clamped at 1
        (log objectives) or of the rates meeting the minimum (sum-rate).  A
        vector over the RB cap ranks below every vector within it."""
        rates, min_rate, log = task.rates, task.min_rate, task.log
        totals = dict.fromkeys(task.eligible, 0.0)
        for b, r in enumerate(vec):
            if r in totals:
                totals[r] += rates[r][b]
        rank = 1
        # A left fold: builtin sum() compensates from Python 3.12 on.
        total = 0.0
        for t in totals.values():
            meets = t >= min_rate
            if not meets:
                rank = 0
            if log:
                total += math.log2(1.0 if 1.0 > t else t)
            elif meets:
                total += t
        if task.cap is not None and max(Counter(vec).values()) > task.cap:
            rank -= 2
        return (rank, total)

    def _greedy(self, task: _TaskHead) -> list[int]:
        """Log-gain greedy without a minimum rate; otherwise best-rate
        blocks with a repair pass for the robots below the minimum.  Under
        an RB cap the construction is moved within it, and the repair gives
        a block to a robot at the cap only in exchange for its weakest."""
        rng = self._rng
        m, eligible, rates, cap = task.m, task.eligible, task.rates, task.cap
        if task.log and not task.min_rate:
            order = list(range(m))
            rng.shuffle(order)
            totals = dict.fromkeys(eligible, 0.0)
            # log2(max(total, 1)) of each robot's current total.
            logs = dict.fromkeys(eligible, 0.0)
            alloc = [eligible[0]] * m
            for b in order:
                best = None
                for rr in eligible:
                    t = totals[rr] + rates[rr][b]
                    gain = math.log2(1.0 if 1.0 > t else t) - logs[rr]
                    # First maximum wins, as with max().
                    if best is None or gain > best_gain:
                        best, best_gain, best_total = rr, gain, t
                alloc[b] = best
                totals[best] = best_total
                logs[best] = math.log2(1.0 if 1.0 > best_total else best_total)
            _fit_cap(alloc, eligible, rates, cap)
            return alloc
        alloc = list(task.start)
        min_rate = task.min_rate
        totals = dict.fromkeys(eligible, 0.0)
        for b, r in enumerate(alloc):
            totals[r] += rates[r][b]
        for _ in range(2 * len(eligible) + 2):
            short = [r for r in eligible if totals[r] < min_rate]
            if not short:
                break
            r = short[rng.integers(0, len(short))]
            row = rates[r]
            full = cap is not None and alloc.count(r) >= cap
            if full:
                weakest = min((b for b in range(m) if alloc[b] == r),
                              key=row.__getitem__)
                floor = row[weakest]
            costs = sorted((rates[o][b] - row[b], b)
                           for b, o in enumerate(alloc)
                           if o != r and (not full or row[b] > floor))
            if not costs:
                break
            pick = 1 if len(costs) > 1 and rng.random() < 0.3 else 0
            b = costs[pick][1]
            o = alloc[b]
            if full:
                alloc[weakest] = o
            alloc[b] = r
            # Only r and o changed blocks: fold their totals again, in
            # block order, so every bit matches a full recount.
            for x in (r, o):
                t = 0.0
                for bb, owner in enumerate(alloc):
                    if owner == x:
                        t += rates[x][bb]
                totals[x] = t
        return alloc

    def _mutate(self, base: Sequence[int], task: _TaskHead,
                hint: float) -> list[int]:
        rng = self._rng
        m, eligible, alts = task.m, task.eligible, task.alts
        vec = list(base)
        u = rng.random()
        if u < 0.4 and len(eligible) > 1:
            b = rng.integers(0, m)
            others = alts.get(vec[b], eligible)
            vec[b] = others[rng.integers(0, len(others))]
        elif u < 0.6 and m > 1:
            b1, b2 = rng.integers(0, m), rng.integers(0, m)
            vec[b1], vec[b2] = vec[b2], vec[b1]
        elif u < 0.85 and len(eligible) > 1:
            for _ in range(2):
                b = rng.integers(0, m)
                others = alts.get(vec[b], eligible)
                vec[b] = others[rng.integers(0, len(others))]
        else:
            p = max(0.5 * hint, 2.0 / m)
            for b in range(m):
                if rng.random() < p and len(eligible) > 1:
                    others = alts.get(vec[b], eligible)
                    vec[b] = others[rng.integers(0, len(others))]
        return vec
