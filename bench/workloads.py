"""The four benchmark workloads: scenario documents, cells and output checks.

A cell is one derived seed times a workload's fixed list of runs, executed
in order through ``autocomm.report.run``; every cell of a workload has the
same mix, so cell percentiles never straddle two kinds of run.  The
documents come from ``docs/config-schema`` and the bundled fixture scenes,
with the cell seed written into each; the program sees only the documents.

The module groups the workloads load do not overlap (radio+scheduling,
opro+gateway, traffic, geochannel), so a change to one group shows on its
own workload and is predicted to leave the other three unchanged.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from autocomm import report
from autocomm.configs import (build_scenario, scenario_from_dict,
                              scenario_to_dict)
from autocomm.geochannel import NMSE_FLOOR_DB, load_fixture_scene

ROOT = Path(__file__).resolve().parent.parent
SCHEMA_DIR = ROOT / "docs" / "config-schema"

# Discrete output fields compared exactly against the stored reference;
# every other metric must match to REL_TOL.
DISCRETE = ("level", "iterations", "success", "generations",
            "throughput_veh", "num_users")
REL_TOL = 1e-9

OPRO_SWITCH = {"at_iteration": 60, "objective": "qos_sum_rate"}


@dataclass(frozen=True)
class RunSpec:
    label: str
    doc: dict
    method: str
    opts: dict = field(default_factory=dict)
    cassette: Optional[str] = None   # "record" | "replay" for opro_chat


@dataclass(frozen=True)
class Workload:
    name: str
    runs: tuple[RunSpec, ...]
    # Span names the traced pass must see called on this workload.
    expected_spans: tuple[str, ...]
    untimed: tuple[RunSpec, ...] = ()


@dataclass
class Outcome:
    spec: RunSpec
    record: Optional[report.RunRecord]
    error: Optional[str]
    text: Optional[str] = None        # record_to_json of the record
    failure: Optional[str] = None     # why the run counts as failed
    known: bool = False               # the failure is a listed known defect


def cell_seed(workload: str, seed: int, index: int) -> int:
    """64-bit scenario seed of cell `index` for a workload seed."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _load(name: str) -> dict:
    """Parse and validate a reference document; return its canonical dict."""
    text = (SCHEMA_DIR / name).read_text(encoding="utf-8")
    return scenario_to_dict(build_scenario(text))


def _variant(doc: dict, section: str, **changes) -> dict:
    """A validated copy of `doc` with fields of `section` replaced."""
    out = copy.deepcopy(doc)
    out[section].update(changes)
    return scenario_to_dict(scenario_from_dict(out))


COMMON_SPANS = ("configs.scenario_from_dict", "report.config_digest",
                "report.run", "report.record_to_json")


def build(name: str) -> Workload:
    """Parse the documents of workload `name` and return its definition."""
    if name == "sched-search":
        # evaluate_batch on 100-row GA populations and 65,536-row oracle
        # chunks.  The README's 10-robot brute_force is refused ("instance
        # too large"); it is attempted once per pass, untimed.
        sched = _load("scheduling.json")
        qos = _variant(sched, "scheduling",
                       objective={"kind": "qos_sum_rate"})
        four = _variant(sched, "scheduling", num_robots=4)
        return Workload(
            name=name,
            runs=(RunSpec("ga/pf/10", sched, "ga"),
                  RunSpec("ga/qos_sum_rate/10", qos, "ga"),
                  RunSpec("brute_force/pf/4", four, "brute_force"),
                  RunSpec("ga/pf/4", four, "ga")),
            untimed=(RunSpec("brute_force/pf/10", sched, "brute_force"),),
            expected_spans=COMMON_SPANS + (
                "rng.RngStream", "radio.generate_snr_map",
                "radio.rb_rate_matrix", "scheduling.evaluate_batch",
                "scheduling.ga_schedule", "scheduling.brute_force_optimal",
                "scheduling.allocation_rank"))
    if name == "opro-gateway":
        # The OPRO loop three ways: engine in-process, over HTTP while
        # recording a cassette (gateway writes) and from that cassette
        # (gateway reads).  Scoring here is many single-row evaluate_batch
        # calls through validate and allocation_rank.
        sched = _load("scheduling.json")
        qos = _variant(sched, "scheduling",
                       objective={"kind": "qos_sum_rate"})
        runs = []
        for tag, doc, opts in (("pf", sched, {}), ("qos_sum_rate", qos, {}),
                               ("switch", sched, {"switch": OPRO_SWITCH})):
            runs += [RunSpec(f"opro_mock/{tag}", doc, "opro_mock", opts),
                     RunSpec(f"record/{tag}", doc, "opro_chat", opts,
                             "record"),
                     RunSpec(f"replay/{tag}", doc, "opro_chat", opts,
                             "replay")]
        return Workload(
            name=name,
            runs=tuple(runs),
            expected_spans=COMMON_SPANS + (
                "rng.RngStream", "radio.generate_snr_map",
                "radio.rb_rate_matrix", "scheduling.evaluate_batch",
                "scheduling.validate", "scheduling.allocation_rank",
                "opro.opro_optimize_segments", "opro.build_task_prompt",
                "opro.parse_allocation", "opro.MockLocalSearchEngine.propose",
                "gateway.chat_complete", "gateway.request_digest",
                "gateway.Cassette.open", "gateway.Cassette.record",
                "gateway.Cassette.load", "gateway.Cassette.replay"))
    if name == "traffic-episodes":
        # 160-vehicle vue episodes cost several times an 80-vehicle one
        # (encode_observation re-serializes per dropped row), rsu episodes
        # are depth-capped: the same layers lightly and heavily loaded.
        traffic = _load("traffic.json")
        big = _variant(traffic, "traffic", num_vehicles=160)
        runs = [RunSpec(f"{m}/{obs}/80", traffic, m, {"observation": obs})
                for m in ("greedy", "round_robin") for obs in ("vue", "rsu")]
        runs += [RunSpec(f"greedy/{obs}/160", big, "greedy",
                         {"observation": obs}) for obs in ("vue", "rsu")]
        return Workload(
            name=name,
            runs=tuple(runs),
            expected_spans=COMMON_SPANS + (
                "rng.RngStream", "traffic.run_episode", "traffic.step",
                "traffic.check_invariants", "traffic.encode_observation",
                "traffic.decide", "traffic.spawn_vehicles"))
    if name == "channel-maps":
        # trace_paths dominates, mostly inside build_ckm over the 484-point
        # grid, which nn_ckm and linear_gcp each build.
        scenes = [("ref", _load("channel.json"))]
        scenes += [(f"scene{i}", scenario_to_dict(load_fixture_scene(i)))
                   for i in (1, 2, 3, 4)]
        runs = [RunSpec(f"{m}/{tag}", doc, m) for tag, doc in scenes
                for m in report.CHANNEL_METHODS]
        return Workload(
            name=name,
            runs=tuple(runs),
            expected_spans=COMMON_SPANS + (
                # Not mirror_reflection_point or is_blocked: a batched
                # tracer may rightly stop calling these scalar kernels.
                "rng.RngStream", "geochannel.trace_paths",
                "geochannel.build_ckm", "geochannel.synthesize_channel",
                "geochannel.geometry_predictor", "geochannel.fit_linear_gcp",
                "geochannel.nn_ckm_predict", "geochannel.linear_gcp_predict",
                "geochannel.nmse_db"))
    raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")


NAMES = ("sched-search", "opro-gateway", "traffic-episodes", "channel-maps")


# ---------------------------------------------------------------------------
# Output checks


def _is_known_defect(outcome: Outcome) -> bool:
    """Non-finite NMSE on the shadowed fixture scenes.

    Scenes 3 and 4 put some users in full shadow; their true channel is
    zero, ``nmse_db`` returns inf and ``record_to_json`` writes Infinity.
    ``linear_gcp`` hits it on most seeds and ``nn_ckm`` on some.  Such runs
    are counted apart from ``failed`` and lower ``ok_frac``; they do not make
    a pass incorrect.
    """
    label = outcome.spec.label
    return (outcome.record is not None
            and label.split("/")[0] in ("nn_ckm", "linear_gcp")
            and label.endswith(("/scene3", "/scene4"))
            and outcome.failure is not None
            and outcome.failure.startswith("non-finite"))


def _strict_json(text: str) -> None:
    def refuse(token):
        raise ValueError(f"{token} is not JSON")
    json.loads(text, parse_constant=refuse)


def _fail(outcome: Outcome, reason: str) -> None:
    if outcome.failure is None:
        outcome.failure = reason


def check_cell(workload: Workload, outcomes: list[Outcome]) -> None:
    """Set `failure` (and `known`) on every outcome that fails a check."""
    for o in outcomes:
        if o.record is None:
            _fail(o, f"raised {o.error}")
            continue
        if o.record.status != "ok":
            _fail(o, f"status {o.record.status}")
        bad = sorted(k for k, v in o.record.metrics.items()
                     if not math.isfinite(v))
        if bad:
            _fail(o, f"non-finite {', '.join(bad)}")
        o.text = report.record_to_json(o.record)
        try:
            _strict_json(o.text)
        except ValueError as exc:
            _fail(o, f"record is not strict JSON: {exc}")

    by_label = {o.spec.label: o for o in outcomes}
    if workload.name == "sched-search":
        ga, bf = by_label["ga/pf/4"], by_label["brute_force/pf/4"]
        if ga.record and bf.record:
            g, b = ga.record.metrics, bf.record.metrics
            tol = 1e-12 * abs(b["score"])
            if (g["level"], g["score"]) > (b["level"], b["score"] + tol):
                _fail(ga, "4-robot GA outranks the exact oracle")
    elif workload.name == "opro-gateway":
        for tag in ("pf", "qos_sum_rate", "switch"):
            mock = by_label[f"opro_mock/{tag}"]
            for o in (by_label[f"record/{tag}"], by_label[f"replay/{tag}"]):
                if mock.record and o.record and (
                        o.record.metrics != mock.record.metrics
                        or o.record.details.get("alloc")
                        != mock.record.details.get("alloc")):
                    _fail(o, "differs from opro_mock")
            rec, rep = by_label[f"record/{tag}"], by_label[f"replay/{tag}"]
            if rec.record and rep.record and rec.text != rep.text:
                _fail(rep, "replay record bytes differ from record")
    elif workload.name == "traffic-episodes":
        for o in outcomes:
            m = o.record.metrics if o.record else {}
            if m and m["throughput_veh"] > m["num_vehicles"]:
                _fail(o, "more vehicles crossed than spawned")
    elif workload.name == "channel-maps":
        for o in outcomes:
            if o.spec.method == "geometry" and o.record and any(
                    o.record.metrics[k] != NMSE_FLOOR_DB
                    for k in ("nmse_db_mean", "nmse_db_max")):
                _fail(o, "geometry NMSE above the -150 dB floor")
    for o in outcomes:
        o.known = _is_known_defect(o)


# ---------------------------------------------------------------------------
# Stored reference outputs (cell 0 of the default workload seed)


def _encode(v: float):
    return v if math.isfinite(v) else repr(v)


def reference_entry(o: Outcome) -> dict:
    if o.record is None:
        return {"label": o.spec.label, "error": o.error}
    return {"label": o.spec.label,
            "metrics": {k: _encode(v) for k, v in o.record.metrics.items()},
            "alloc": o.record.details.get("alloc")}


def _same_float(a: float, b: float) -> bool:
    if not (math.isfinite(a) and math.isfinite(b)):
        return repr(a) == repr(b)
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def compare_reference(outcomes: list[Outcome], expected: list[dict]
                      ) -> list[str]:
    """Mismatches between a cell's outputs and the stored reference."""
    problems = []
    if [o.spec.label for o in outcomes] != [e["label"] for e in expected]:
        return ["run list differs from the stored reference"]
    for o, e in zip(outcomes, expected):
        got = reference_entry(o)
        where = o.spec.label
        if ("error" in e) != ("error" in got):
            problems.append(f"{where}: error {got.get('error')!r}, "
                            f"reference {e.get('error')!r}")
            continue
        if "error" in e:
            continue
        if got["alloc"] != e["alloc"]:
            problems.append(f"{where}: alloc {got['alloc']} != {e['alloc']}")
        if sorted(got["metrics"]) != sorted(e["metrics"]):
            problems.append(f"{where}: metric names differ")
            continue
        # A reference run with a non-finite metric shows a known defect;
        # fixing it may change every float of that run, so only its
        # discrete fields are pinned.
        pinned = (DISCRETE if any(isinstance(v, str)
                                  for v in e["metrics"].values())
                  else e["metrics"])
        for k, want in e["metrics"].items():
            if k not in pinned:
                continue
            have = o.record.metrics[k]
            want = float(want)
            same = (have == want if k in DISCRETE
                    else _same_float(have, want))
            if not same:
                problems.append(f"{where}: {k} = {have!r}, "
                                f"reference {want!r}")
    return problems
