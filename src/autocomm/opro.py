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
import hashlib
import math
import re
from dataclasses import dataclass
from typing import Optional, Protocol, Sequence

from .configs import ObjectiveKind, ObjectiveSpec, SchedulingConfig
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
    max_iterations: int = 200
    stop_patience: int = 30
    history_window: int = 10


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


def build_task_prompt(cfg: SchedulingConfig, snr: SnrMap,
                      objective: ObjectiveSpec,
                      history: Sequence[tuple[Allocation, float]],
                      hint: float,
                      last_feedback: Optional[str] = None) -> str:
    """Deterministic task prompt.

    history is presented worst-to-best so the strongest exemplar sits
    closest to the answer slot; entries are (allocation, score) and are
    assumed already ranked by the caller.
    """
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
    if history:
        lines.append("Previously evaluated allocations, worst to best "
                     "(higher score is better):")
        for alloc, score in history:
            vec = ", ".join(str(v) for v in alloc)
            lines.append(f"score={score:.10g} allocation=[{vec}]")
    else:
        lines.append("No allocations have been evaluated yet.")
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
        last_feedback: Optional[str] = None
        stale = 0
        it_in_seg = 0

        for it_in_seg in range(1, budget + 1):
            global_it += 1
            hint = explore_hint(it_in_seg - 1, budget)
            ranked = sorted(exemplars.items(), key=lambda kv: kv[1])
            history = [(a, s) for a, (_, s) in ranked][-params.history_window:]
            prompt = build_task_prompt(cfg, snr, objective, history, hint,
                                       last_feedback)
            raw = engine.propose(prompt)
            parsed, failure = parse_allocation(raw)

            report: Optional[ValidationReport] = None
            score: Optional[float] = None
            improved = False
            if failure is None:
                assert parsed is not None
                report = validate(parsed, snr, cfg, objective)
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
_EXEMPLAR_RE = re.compile(r"score=(\S+) allocation=\[([^\]]*)\]")
_HINT_RE = re.compile(r"Exploration hint: ([0-9.]+)")
_QOS_FEEDBACK_RE = re.compile(
    r"violates the QoS requirement of robots ([0-9, and]+)\.")
_BANDWIDTH_RE = re.compile(r"Total bandwidth: ([0-9.e+]+) Hz")
_SNR_ROW_RE = re.compile(r"  robot (\d+): (.+)")
_MIN_RATE_RE = re.compile(r"minimum rate of ([0-9.e+]+) bits per second")


class MockLocalSearchEngine:
    """Prompt-driven local search standing in for a chat model.

    Everything it knows comes from the prompt text: block count, eligible
    ids, the SNR table and bandwidth (from which it rebuilds approximate
    per-block rates, as any numerate reader of the prompt could), scored
    exemplars, the exploration hint, and the latest feedback sentence.
    Before any exemplar exists it proposes an objective-aware greedy
    construction with randomized repair order; afterwards it screens a
    small batch of perturbations of the best exemplar (single reassign,
    swap, double reassign, hint-scaled shotgun, a fresh greedy, and a
    repair of any robots called out in QoS feedback) against its own
    table-derived score and returns the winner.  Deterministic given its
    rng; the loop's exact scoring remains the arbiter of progress.
    """

    CANDIDATES = 12

    def __init__(self, rng: RngStream):
        self._rng = rng

    def propose(self, prompt: str) -> str:
        m_match = _NUM_RBS_RE.search(prompt)
        e_match = _ELIGIBLE_RE.search(prompt)
        if m_match is None or e_match is None:
            return "No task description found."
        m = int(m_match.group(1))
        eligible = [int(t) for t in e_match.group(1).split(",")]
        hint_match = _HINT_RE.search(prompt)
        hint = float(hint_match.group(1)) if hint_match else 0.5

        rates = self._parse_rates(prompt, m)
        log = "log2(max(rate" in prompt
        mr = _MIN_RATE_RE.search(prompt)
        min_rate = float(mr.group(1)) if mr else 0.0

        exemplars = _EXEMPLAR_RE.findall(prompt)
        if not exemplars or rates is None:
            if rates is None:
                vec = [eligible[self._rng.integers(0, len(eligible))]
                       for _ in range(m)]
            else:
                vec = self._greedy(m, eligible, rates, log, min_rate)
        else:
            _, body = exemplars[-1]
            base = [int(t) for t in body.split(",")]
            if len(base) != m:
                base = (base + [eligible[0]] * m)[:m]
            cands = [self._mutate(base, m, eligible, hint)
                     for _ in range(self.CANDIDATES)]
            cands.append(self._greedy(m, eligible, rates, log, min_rate))
            qos = _QOS_FEEDBACK_RE.search(prompt)
            if qos is not None:
                hungry = [int(t) for t in
                          re.split(r",| and ", qos.group(1)) if t.strip()]
                rep = list(base)
                for rid in hungry:
                    if rid in eligible:
                        rep[self._rng.integers(0, m)] = rid
                cands.append(rep)
            vec = max(cands,
                      key=lambda v: self._score(v, eligible, rates, log, min_rate))

        body = ", ".join(str(v) for v in vec)
        return f"Proposed allocation: [{body}]"

    def _parse_rates(self, prompt: str, m: int) -> Optional[dict[int, list[float]]]:
        bw_match = _BANDWIDTH_RE.search(prompt)
        if bw_match is None:
            return None
        bw = float(bw_match.group(1))
        rates: dict[int, list[float]] = {}
        for line in prompt.splitlines():
            row = _SNR_ROW_RE.match(line)
            if row:
                vals = [float(t) for t in row.group(2).split(",")]
                if len(vals) == m:
                    rates[int(row.group(1))] = [
                        (bw / m) * math.log2(1.0 + s) for s in vals]
        return rates or None

    def _score(self, vec: Sequence[int], eligible: Sequence[int],
               rates: dict[int, list[float]], log: bool,
               min_rate: float) -> tuple[int, float]:
        """Feasibility first, then the sum of log2 of the rates clamped at 1
        (log objectives) or of the rates meeting the minimum (sum-rate)."""
        totals = {r: 0.0 for r in eligible}
        for b, r in enumerate(vec):
            if r in totals:
                totals[r] += rates[r][b]
        feasible = 1 if all(t >= min_rate for t in totals.values()) else 0
        if log:
            return (feasible,
                    sum(math.log2(max(t, 1.0)) for t in totals.values()))
        return (feasible, sum(t for t in totals.values() if t >= min_rate))

    def _greedy(self, m: int, eligible: Sequence[int],
                rates: dict[int, list[float]], log: bool,
                min_rate: float) -> list[int]:
        """Log-gain greedy without a minimum rate; otherwise best-rate
        blocks with a repair pass for the robots below the minimum."""
        rng = self._rng
        if log and not min_rate:
            order = list(range(m))
            rng.shuffle(order)
            totals = {r: 0.0 for r in eligible}
            alloc = [eligible[0]] * m
            for b in order:
                r = max(eligible,
                        key=lambda rr: (math.log2(max(totals[rr] + rates[rr][b], 1.0))
                                        - math.log2(max(totals[rr], 1.0))))
                alloc[b] = r
                totals[r] += rates[r][b]
            return alloc
        alloc = [max(eligible, key=lambda r: rates[r][b]) for b in range(m)]
        for _ in range(2 * len(eligible) + 2):
            totals = {r: 0.0 for r in eligible}
            for b, r in enumerate(alloc):
                totals[r] += rates[r][b]
            short = [r for r in eligible if totals[r] < min_rate]
            if not short:
                break
            r = short[rng.integers(0, len(short))]
            costs = sorted((rates[alloc[b]][b] - rates[r][b], b)
                           for b in range(m) if alloc[b] != r)
            if not costs:
                break
            pick = 1 if len(costs) > 1 and rng.random() < 0.3 else 0
            alloc[costs[pick][1]] = r
        return alloc

    def _mutate(self, base: Sequence[int], m: int, eligible: Sequence[int],
                hint: float) -> list[int]:
        rng = self._rng
        vec = list(base)
        u = rng.random()
        if u < 0.4 and len(eligible) > 1:
            b = rng.integers(0, m)
            alts = [r for r in eligible if r != vec[b]]
            vec[b] = alts[rng.integers(0, len(alts))]
        elif u < 0.6 and m > 1:
            b1, b2 = rng.integers(0, m), rng.integers(0, m)
            vec[b1], vec[b2] = vec[b2], vec[b1]
        elif u < 0.85 and len(eligible) > 1:
            for _ in range(2):
                b = rng.integers(0, m)
                alts = [r for r in eligible if r != vec[b]]
                vec[b] = alts[rng.integers(0, len(alts))]
        else:
            p = max(0.5 * hint, 2.0 / m)
            for b in range(m):
                if rng.random() < p and len(eligible) > 1:
                    alts = [r for r in eligible if r != vec[b]]
                    vec[b] = alts[rng.integers(0, len(alts))]
        return vec
