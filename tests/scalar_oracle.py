"""Scalar reference for the allocation-assessment kernel.

``scheduling.evaluate_batch`` assesses whole batches of allocations with one
bincount; this module assesses one allocation at a time with plain loops and
Python sets, independently of that kernel: per-robot rates summed RB by RB,
the QoS clamp written out, and the structural rules as set comprehensions.
Tests compare the kernel and ``validate`` against it.
"""

import numpy as np

from autocomm.configs import ObjectiveKind
from autocomm.radio import rb_rate_matrix
from autocomm.scheduling import (
    LEVEL_INVALID,
    LEVEL_OK,
    LEVEL_QOS_VIOLATED,
    Violation,
    ViolationKind,
)


def rate_vector(alloc, snr, cfg) -> np.ndarray:
    """Per-robot rates (bits/s) under an allocation; empty buffers give 0.

    Entries past the last RB own nothing, as do ids that name no robot.
    """
    rates = rb_rate_matrix(snr, cfg)
    out = np.zeros(snr.num_robots)
    for b, owner in enumerate(alloc[:rates.shape[1]]):
        if 1 <= owner <= snr.num_robots:
            out[owner - 1] += rates[owner - 1, b]
    out[~snr.buffer_nonempty] = 0.0
    return out


def clamp(rates, min_rate_bps) -> np.ndarray:
    """Zero every rate below the QoS threshold."""
    rates = np.asarray(rates, dtype=float)
    return np.where(rates < min_rate_bps, 0.0, rates)


def score(alloc, snr, cfg, objective) -> float:
    """Objective value of one allocation, structure aside."""
    rates = rate_vector(alloc, snr, cfg)
    if objective.is_qos:
        rates = clamp(rates, objective.min_rate_bps)
    if objective.kind is ObjectiveKind.QOS_SUM_RATE:
        return float(rates.sum())
    return float(np.log2(np.maximum(rates[snr.buffer_nonempty],
                                    objective.epsilon)).sum())


def violations(alloc, snr, cfg, objective) -> tuple[Violation, ...]:
    """The violations validate must report, in its order."""
    found: list[Violation] = []
    n = snr.num_robots
    alloc = tuple(int(a) for a in alloc)

    if len(alloc) != cfg.num_rbs:
        found.append(Violation(
            ViolationKind.WRONG_LENGTH,
            f"expected {cfg.num_rbs} entries, got {len(alloc)}"))

    unknown = sorted({a for a in alloc if not 1 <= a <= n})
    if unknown:
        found.append(Violation(
            ViolationKind.UNKNOWN_ROBOT,
            f"ids not in this scenario: {unknown}", robots=tuple(unknown)))

    empty = sorted({a for a in alloc
                    if 1 <= a <= n and not snr.buffer_nonempty[a - 1]})
    if empty:
        found.append(Violation(
            ViolationKind.EMPTY_BUFFER_ROBOT,
            f"robots with empty buffers assigned: {empty}", robots=tuple(empty)))

    cap = cfg.rb_cap
    for rid in sorted({a for a in alloc if 1 <= a <= n}):
        count = alloc.count(rid)
        if count > cap:
            found.append(Violation(
                ViolationKind.EXCESSIVE_RBS,
                f"robot {rid} assigned {count} RBs, cap is {cap}",
                robots=(rid,), count=count))

    if objective.is_qos and not found:
        rates = rate_vector(alloc, snr, cfg)
        bad = [i + 1 for i in range(n)
               if snr.buffer_nonempty[i] and rates[i] < objective.min_rate_bps]
        if bad:
            found.append(Violation(
                ViolationKind.QOS_VIOLATION,
                f"rate below threshold for robots: {bad}", robots=tuple(bad)))
    return tuple(found)


def level(alloc, snr, cfg, objective) -> int:
    """Feasibility-first ranking level of one allocation."""
    kinds = {v.kind for v in violations(alloc, snr, cfg, objective)}
    if kinds - {ViolationKind.QOS_VIOLATION}:
        return LEVEL_INVALID
    return LEVEL_QOS_VIOLATED if kinds else LEVEL_OK
