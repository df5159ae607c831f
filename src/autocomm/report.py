"""Run orchestration and reporting.

One scenario + one method = one RunRecord with a flat float metric dict; a
sweep is the cross product of an axis, seeds, and methods, with per-cell
failures recorded rather than aborting the grid.  Serialized records and
CSVs are canonical (sorted keys, repr floats) and carry no timestamps, so
re-running the same scenario yields byte-identical files.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import hashlib
import io
import json
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .configs import (
    USER_EDGE_MARGIN_M,
    ChannelSceneConfig,
    ConfigError,
    ScenarioConfig,
    Track,
    _section,
    scenario_from_dict,
    scenario_to_dict,
    scenario_to_json,
    switch_from_dict,
)
from .geochannel import (
    CkmDataset,
    build_ckm,
    fit_linear_gcp,
    geometry_predictor,
    linear_gcp_predict,
    nn_ckm_predict,
    nmse_db,
)
from .opro import MockLocalSearchEngine, OproParams, opro_optimize_segments
from .radio import RadioParams, generate_snr_map
from .rng import stream
from .scheduling import (
    GaParams,
    allocation_rank,
    brute_force_optimal,
    ga_schedule,
    round_robin_alloc,
)
from .traffic import QueueGreedyController, RoundRobinController, run_episode

SEARCH_METHODS = ("round_robin", "ga", "brute_force")
OPRO_METHODS = ("opro_mock", "opro_chat")
SCHEDULING_METHODS = SEARCH_METHODS + OPRO_METHODS
TRAFFIC_METHODS = ("round_robin", "greedy")
CHANNEL_METHODS = ("geometry", "nn_ckm", "linear_gcp")


@dataclass
class RunRecord:
    track: str
    method: str
    seed: int
    config_digest: str
    package_version: str
    status: str                          # "ok" | "error"
    metrics: dict[str, float]
    details: dict
    error: Optional[str] = None


def config_digest(scenario: ScenarioConfig) -> str:
    return hashlib.sha256(
        scenario_to_json(scenario).encode("utf-8")).hexdigest()


def record_to_dict(rec: RunRecord) -> dict:
    doc = dataclasses.asdict(rec)
    if doc.get("error") is None:
        doc.pop("error", None)
    return doc


def record_from_dict(doc: dict) -> RunRecord:
    """Inverse of record_to_dict; a document that is not a run record (not
    an object, a field missing or unknown, metrics that are not numbers)
    is a ValueError."""
    try:
        rec = RunRecord(**doc)
    except TypeError as exc:
        raise ValueError(exc) from None
    if not (isinstance(rec.metrics, dict)
            and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                    for v in rec.metrics.values())):
        raise ValueError("metrics is not an object of numbers")
    return rec


def record_to_json(rec: RunRecord) -> str:
    return json.dumps(record_to_dict(rec), indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Track runners


def _run_scheduling(scenario: ScenarioConfig, method: str,
                    opts: dict) -> tuple[dict, dict]:
    cfg = scenario.scheduling
    assert cfg is not None
    seed = scenario.seed
    snr = generate_snr_map(cfg, RadioParams(), stream(seed, "scheduling/snr"))
    objective = cfg.objective
    # Every vector would be invalid, so no method has anything to rank.
    k = len(snr.eligible_ids())
    if not k:
        raise ValueError("no eligible robots to schedule")
    if k * cfg.rb_cap < cfg.num_rbs:
        raise ValueError(f"max_rbs_per_robot {cfg.max_rbs_per_robot} lets "
                         f"{k} eligible robots hold at most {k * cfg.rb_cap} "
                         f"of {cfg.num_rbs} RBs")

    if method in OPRO_METHODS:
        params = _section("opro_params", opts.get("opro_params", {}),
                          OproParams)
        segments = [(objective, params.max_iterations)]
        if opts.get("switch") is not None:
            at, second = switch_from_dict(opts["switch"], cfg,
                                          params.max_iterations)
            segments = [(objective, at), (second, params.max_iterations - at)]
        if method == "opro_mock":
            engine = nullcontext(
                MockLocalSearchEngine(stream(seed, "scheduling/engine")))
        else:
            from .gateway import Cassette, ChatProposalEngine, EndpointConfig
            endpoint = EndpointConfig(
                base_url=opts.get("endpoint_url", ""),
                model=opts.get("model", ""))
            cassette = (Cassette(opts["cassette"],
                                 opts.get("cassette_mode", "replay"))
                        if opts.get("cassette") else None)
            engine = ChatProposalEngine(endpoint, cassette)
        with engine as proposer:
            result = opro_optimize_segments(cfg, snr, segments, proposer,
                                            params)
        metrics = {
            "score": result.best_score,
            "level": float(result.final.best_level),
            "iterations": float(sum(s.iterations_run for s in result.segments)),
            "success": 1.0 if result.success else 0.0,
        }
        details = {
            "alloc": list(result.best_alloc) if result.best_alloc else None,
            "objective": result.final.objective.kind.value,
            "segments": [s.objective.kind.value for s in result.segments],
        }
        return metrics, details

    metrics = {}
    if method == "round_robin":
        alloc = round_robin_alloc(cfg, snr)
    elif method == "ga":
        alloc, _, gens = ga_schedule(
            cfg, snr, objective, GaParams(), stream(seed, "scheduling/ga"))
        metrics["generations"] = float(gens)
    elif method == "brute_force":
        alloc, _ = brute_force_optimal(cfg, snr, objective)
    else:
        raise ValueError(f"unknown scheduling method {method!r}; "
                         f"expected one of {SCHEDULING_METHODS}")
    level, score = allocation_rank(alloc, snr, cfg, objective)
    metrics.update(score=score, level=float(level))
    return metrics, {"alloc": list(alloc), "objective": objective.kind.value}


def _run_traffic(scenario: ScenarioConfig, method: str,
                 opts: dict) -> tuple[dict, dict]:
    cfg = scenario.traffic
    assert cfg is not None
    observation = opts.get("observation", "vue")
    if method == "round_robin":
        controller = RoundRobinController()
    elif method == "greedy":
        controller = QueueGreedyController()
    else:
        raise ValueError(f"unknown traffic method {method!r}; "
                         f"expected one of {TRAFFIC_METHODS}")
    result = run_episode(cfg, controller, stream(scenario.seed, "traffic"),
                         observation)
    return dict(result.metrics), {"observation": observation}


# Channel runs evaluate users on, and build maps over, x in [0, 30] m.
ROAD_X_M = (0.0, 30.0)


def default_user_positions(scenario: ScenarioConfig,
                           num_users: int = 25) -> np.ndarray:
    """Deterministic random users on the road for channel evaluation."""
    cfg = scenario.channel
    assert cfg is not None
    rng = stream(scenario.seed, "channel/users")
    half = cfg.road_halfwidth_m
    xs = rng.uniform(ROAD_X_M[0], ROAD_X_M[1], num_users)
    ys = rng.uniform(-half + USER_EDGE_MARGIN_M, half - USER_EDGE_MARGIN_M,
                     num_users)
    return np.column_stack([xs, ys, np.full(num_users, cfg.user_height_m)])


def ckm_grid_positions(cfg: ChannelSceneConfig) -> np.ndarray:
    """Lane-center sampling grid, every 0.25 m, for building a channel map."""
    half = cfg.road_halfwidth_m
    centers = [-half + (k + 0.5) * cfg.lane_width_m
               for k in range(cfg.num_lanes)]
    step = 0.25
    xs = np.arange(ROAD_X_M[0], ROAD_X_M[1] + step / 2, step)
    rows = [(x, y, cfg.user_height_m) for y in centers for x in xs]
    return np.asarray(rows)


def _grid_ckm(cfg: ChannelSceneConfig) -> CkmDataset:
    """The channel map over cfg's lane grid, built once per scene config.

    The map depends on the scene alone, not on the seed, so every map
    baseline run on the scene reads one map.  The cache key is cfg's repr,
    which tells 0.0 from -0.0, so a hit is bit-equal to a fresh build.
    """
    return _grid_ckm_cached(repr(cfg), cfg)


@functools.lru_cache(maxsize=8)     # a map is at most about 0.35 MB
def _grid_ckm_cached(key: str, cfg: ChannelSceneConfig) -> CkmDataset:
    """_grid_ckm's store; key, not cfg's ==, tells configs apart.  The
    map's arrays are read-only, so no run can change a map others read."""
    ckm = build_ckm(cfg, ckm_grid_positions(cfg))
    for f in dataclasses.fields(ckm):
        value = getattr(ckm, f.name)
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    return ckm


def _run_channel(scenario: ScenarioConfig, method: str,
                 opts: dict) -> tuple[dict, dict]:
    cfg = scenario.channel
    assert cfg is not None
    users = default_user_positions(scenario)
    ckm = _grid_ckm(cfg) if method in ("nn_ckm", "linear_gcp") else None
    if method == "geometry":
        predictions = (geometry_predictor(cfg, u) for u in users)
    elif method == "nn_ckm":
        predictions = nn_ckm_predict(ckm, users)
    elif method == "linear_gcp":
        predictions = linear_gcp_predict(fit_linear_gcp(cfg, ckm), users)
    else:
        raise ValueError(f"unknown channel method {method!r}; "
                         f"expected one of {CHANNEL_METHODS}")

    truth = build_ckm(cfg, users)
    values = [nmse_db(h, p) for h, p in zip(truth.channels, predictions)]
    arr = np.asarray(values)
    metrics = {
        "nmse_db_mean": float(arr.mean()),
        "nmse_db_median": float(np.median(arr)),
        "nmse_db_max": float(arr.max()),
        "num_users": float(len(arr)),
    }
    # Slot 0 is the line of sight.  Shadowed users (no path at all) have a
    # zero true channel, which is what makes the NMSE non-finite on the
    # blockage-rich scenes.
    present = truth.present
    counters = {
        "los_users": int(present[:, 0].sum()),
        "reflection_paths": int(present[:, 1:].sum()),
        "shadowed_users": int((~present.any(axis=1)).sum()),
        "ckm_points": 0 if ckm is None else len(ckm.positions),
    }
    return metrics, {"counters": counters}


def run(scenario: ScenarioConfig, method: str,
        opts: Optional[dict] = None) -> RunRecord:
    """Execute one method on one scenario; raises on failure."""
    opts = dict(opts or {})
    runners = {
        Track.SCHEDULING: _run_scheduling,
        Track.TRAFFIC: _run_traffic,
        Track.CHANNEL: _run_channel,
    }
    metrics, details = runners[scenario.track](scenario, method, opts)
    return RunRecord(
        track=scenario.track.value, method=method, seed=scenario.seed,
        config_digest=config_digest(scenario),
        package_version=__version__, status="ok",
        metrics={k: float(v) for k, v in sorted(metrics.items())},
        details=details)


def _error_record(track: Track, method: str, seed: int, digest: str,
                  exc: Exception) -> RunRecord:
    """The status="error" record of a run that raised exc."""
    return RunRecord(
        track=track.value, method=method, seed=seed, config_digest=digest,
        package_version=__version__, status="error", metrics={}, details={},
        error=f"{type(exc).__name__}: {exc}")


def run_safe(scenario: ScenarioConfig, method: str,
             opts: Optional[dict] = None) -> RunRecord:
    """Like run(), but failures become status="error" records."""
    try:
        return run(scenario, method, opts)
    except Exception as exc:
        return _error_record(scenario.track, method, scenario.seed,
                             config_digest(scenario), exc)


# ---------------------------------------------------------------------------
# Sweeps


@dataclass(frozen=True)
class SweepCell:
    axis_value: object
    axis_index: int                      # position of axis_value in the sweep
    seed: int
    method: str
    record: RunRecord


@dataclass
class SweepResult:
    axis_name: Optional[str]
    cells: list[SweepCell] = field(default_factory=list)

    @property
    def all_ok(self) -> bool:
        return all(c.record.status == "ok" for c in self.cells)


def _set_dotted(doc: dict, dotted: str, value) -> None:
    keys = dotted.split(".")
    node = doc
    for i, k in enumerate(keys[:-1]):
        node = node.setdefault(k, {})
        if not isinstance(node, dict):
            raise ConfigError(".".join(keys[:i + 1]), "is not an object")
    node[keys[-1]] = value


def sweep(base: ScenarioConfig, methods: Sequence[str], seeds: Sequence[int],
          axis_name: Optional[str] = None,
          axis_values: Sequence = (None,),
          opts: Optional[dict] = None) -> SweepResult:
    """Cross product of axis values, seeds, and methods.

    The axis is a dotted path into the scenario document (for example
    "scheduling.num_robots"); each cell revalidates the patched document.
    A failing cell is recorded with its error and the sweep continues.
    A cassette in opts serves at most one opro_chat cell: every cell would
    open the same file, so recording would keep only the last cell's
    exchanges and replay would serve every cell the first cell's.
    The seed is not an axis: seeds come from the seeds argument alone, so
    every cell reports the seed it ran with.
    """
    if axis_name == "seed":
        raise ValueError("the seed is not a sweep axis; list seeds in seeds")
    result = SweepResult(axis_name=axis_name)
    if axis_name is None:
        axis_values = (None,)
    chat_cells = (list(methods).count("opro_chat") * len(seeds)
                  * len(axis_values))
    if (opts or {}).get("cassette") and chat_cells > 1:
        raise ValueError(f"one cassette cannot serve {chat_cells} opro_chat "
                         "cells; run them one at a time")
    for index, value in enumerate(axis_values):
        for seed in seeds:
            doc = scenario_to_dict(base)
            doc["seed"] = int(seed)
            try:
                if axis_name is not None:
                    _set_dotted(doc, axis_name, value)
                scenario = scenario_from_dict(doc)
            except Exception as exc:
                for method in methods:
                    rec = _error_record(base.track, method, int(seed), "", exc)
                    result.cells.append(
                        SweepCell(value, index, int(seed), method, rec))
                continue
            for method in methods:
                rec = run_safe(scenario, method, opts)
                result.cells.append(
                    SweepCell(value, index, int(seed), method, rec))
    return result


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (list, dict)):
        return json.dumps(v, sort_keys=True)
    return "" if v is None else str(v)


def cells_csv(sw: SweepResult) -> str:
    """One row per cell, wide over the union of metric names."""
    metric_keys = sorted({k for c in sw.cells for k in c.record.metrics})
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["axis", "axis_value", "seed", "method", "status", "error"]
               + metric_keys)
    for c in sw.cells:
        row = [sw.axis_name or "", _fmt(c.axis_value), c.seed, c.method,
               c.record.status, c.record.error or ""]
        row += [_fmt(c.record.metrics.get(k)) for k in metric_keys]
        w.writerow(row)
    return buf.getvalue()


def _metric_groups(keyed: Sequence[tuple[object, RunRecord]]
                   ) -> dict[object, dict[str, list[float]]]:
    """Metric values per key and metric name over the ok records."""
    groups: dict[object, dict[str, list[float]]] = {}
    for key, rec in keyed:
        if rec.status != "ok":
            continue
        g = groups.setdefault(key, {})
        for k, v in rec.metrics.items():
            g.setdefault(k, []).append(v)
    return groups


def summary_csv(sw: SweepResult) -> str:
    """Mean/min/max per (axis value, method, metric) over seeds; ok cells
    only.  Axis values come in the order the sweep visited them."""
    groups = _metric_groups([((c.axis_index, c.method), c.record)
                             for c in sw.cells])
    values = {c.axis_index: c.axis_value for c in sw.cells}
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["axis", "axis_value", "method", "metric",
                "mean", "min", "max", "n"])
    for (index, method) in sorted(groups):
        for metric in sorted(groups[(index, method)]):
            vals = groups[(index, method)][metric]
            w.writerow([sw.axis_name or "", _fmt(values[index]), method,
                        metric, repr(float(np.mean(vals))),
                        repr(float(min(vals))), repr(float(max(vals))),
                        len(vals)])
    return buf.getvalue()


def format_report(records: Sequence[RunRecord]) -> str:
    """Plain-text table: methods as rows, mean metrics over matching records."""
    groups = _metric_groups([(f"{r.track}/{r.method}", r) for r in records])
    lines = []
    errors = [r for r in records if r.status != "ok"]
    for name in sorted(groups):
        lines.append(name)
        for metric in sorted(groups[name]):
            vals = groups[name][metric]
            lines.append(f"  {metric}: mean={np.mean(vals):.6g} "
                         f"min={min(vals):.6g} max={max(vals):.6g} "
                         f"n={len(vals)}")
    if errors:
        lines.append(f"errors: {len(errors)}")
        for r in errors:
            lines.append(f"  {r.track}/{r.method} seed={r.seed}: {r.error}")
    return "\n".join(lines) + "\n"
