"""Span tracing of autocomm from outside the package.

``Tracer.instrument()`` replaces every public module-level function of the
autocomm modules with a timing wrapper at every module that binds it (its
defining module and each ``from .x import f`` site), plus the handful of
methods named in ``METHODS``.  Each call records a span (name, start, end,
parent) in flat in-memory arrays; hooks add counts measured at the same
boundary (rows scored, bytes emitted, parse failures, ...).  Nothing under
``src/`` is changed: ``restore()`` puts every original binding back.

Only calls on the thread that created the tracer are recorded, so the
loopback chat stub's server thread never interleaves with the span stack.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import threading
import time
from array import array
from collections import defaultdict
from typing import Callable

import numpy as np

MODULES = ("configs", "rng", "radio", "scheduling", "opro", "gateway",
           "geochannel", "traffic", "report")

# (module, class, method, span name) for methods worth a span of their own.
METHODS = (
    ("rng", "RngStream", "__init__", "rng.RngStream"),
    ("opro", "MockLocalSearchEngine", "propose",
     "opro.MockLocalSearchEngine.propose"),
    ("gateway", "Cassette", "__init__", "gateway.Cassette.open"),
    ("gateway", "Cassette", "record", "gateway.Cassette.record"),
    ("gateway", "Cassette", "replay", "gateway.Cassette.replay"),
    ("traffic", "TrafficState", "check_invariants",
     "traffic.check_invariants"),
    ("traffic", "QueueGreedyController", "decide", "traffic.decide"),
    ("traffic", "RoundRobinController", "decide", "traffic.decide"),
    ("traffic", "EngineController", "decide", "traffic.decide"),
)


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


# ---------------------------------------------------------------------------
# Count hooks: hook(counts, args, kwargs, result) after a successful call.


def _evaluate_batch(c, args, kw, res):
    c["scheduling.evaluate_batch.rows"] += len(_arg(args, kw, 0, "allocs"))


def _ga_schedule(c, args, kw, res):
    c["scheduling.ga_schedule.generations"] += res[2]


def _brute_force(c, args, kw, res):
    cfg, snr = _arg(args, kw, 0, "cfg"), _arg(args, kw, 1, "snr")
    c["scheduling.brute_force_optimal.candidates"] += (
        len(snr.eligible_ids()) ** cfg.num_rbs)


def _opro_segments(c, args, kw, res):
    c["opro.opro_optimize_segments.iterations"] += len(res.transcript)
    prev = None
    for entry in res.transcript:
        key = (entry.segment, entry.best_level, entry.best_score)
        if (entry.score is not None and entry.best_score == entry.score
                and key != prev):
            c["opro.improved_iterations"] += 1
        prev = key


def _build_task_prompt(c, args, kw, res):
    c["opro.build_task_prompt.bytes"] += len(res.encode("utf-8"))


def _parse_allocation(c, args, kw, res):
    if res[1] is not None:
        c["opro.parse_allocation.failures"] += 1


def _cassette_open(c, args, kw, res):
    # Every cassette this benchmark records is replayed once, so the bytes
    # recorded are the sizes of the files replay loads.
    if _arg(args, kw, 2, "mode") == "replay":
        c["gateway.Cassette.record.bytes"] += os.path.getsize(
            _arg(args, kw, 1, "path"))


def _encode_observation(c, args, kw, res):
    state, kind, cfg = (_arg(args, kw, 0, "state"), _arg(args, kw, 1, "kind"),
                        _arg(args, kw, 2, "cfg"))
    depth = None if kind == "vue" else cfg.visible_depth
    visible = sum(len(q[:depth]) for q in state.lanes.values())
    c["traffic.encode_observation.bytes"] += len(res.payload.encode("utf-8"))
    c["traffic.encode_observation.rows_visible"] += visible
    c["traffic.encode_observation.rows_dropped"] += res.dropped_vehicles


def _trace_paths(c, args, kw, res):
    cfg = _arg(args, kw, 0, "cfg")
    c["geochannel.trace_paths.paths"] += len(res)
    c["geochannel.trace_paths.reflections"] += sum(
        1 for p in res if p.kind == "reflection")
    c["geochannel.trace_paths.user_facades"] += 4 * len(cfg.buildings)


def _build_ckm(c, args, kw, res):
    c["geochannel.build_ckm.points"] += len(res.positions)


def _nmse_db(c, args, kw, res):
    if not math.isfinite(res):
        c["geochannel.nmse_db.nonfinite"] += 1


def _record_to_json(c, args, kw, res):
    c["report.record_to_json.bytes"] += len(res.encode("utf-8"))


HOOKS: dict[str, Callable] = {
    "scheduling.evaluate_batch": _evaluate_batch,
    "scheduling.ga_schedule": _ga_schedule,
    "scheduling.brute_force_optimal": _brute_force,
    "opro.opro_optimize_segments": _opro_segments,
    "opro.build_task_prompt": _build_task_prompt,
    "opro.parse_allocation": _parse_allocation,
    "gateway.Cassette.open": _cassette_open,
    "traffic.encode_observation": _encode_observation,
    "geochannel.trace_paths": _trace_paths,
    "geochannel.build_ckm": _build_ckm,
    "geochannel.nmse_db": _nmse_db,
    "report.record_to_json": _record_to_json,
}


def _cassette_span_name(args, kwargs) -> str:
    if _arg(args, kwargs, 2, "mode") == "replay":
        return "gateway.Cassette.load"
    return "gateway.Cassette.open"


DYNAMIC_NAMES: dict[str, Callable] = {
    "gateway.Cassette.open": _cassette_span_name,
}


class Tracer:
    """Flat span store plus boundary counters; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("I")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._thread = threading.get_ident()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, fn, name: str):
        tracer = self
        hook = HOOKS.get(name)
        namer = DYNAMIC_NAMES.get(name)
        static_id = self._name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != tracer._thread:
                return fn(*args, **kwargs)
            nid = (tracer._name_id(namer(args, kwargs)) if namer
                   else static_id)
            idx = len(tracer.start)
            stack = tracer._stack
            tracer.name_id.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.end.append(math.nan)
            stack.append(idx)
            tracer.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(tracer.counts, args, kwargs, result)
            return result

        return wrapper

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def instrument(self) -> list[str]:
        """Wrap every public autocomm function at every binding site.

        Returns the sorted "<module>.<attr>" sites that were patched.
        """
        package = importlib.import_module("autocomm")
        mods = {m: importlib.import_module(f"autocomm.{m}") for m in MODULES}
        targets: dict[int, tuple[object, str]] = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    targets[id(obj)] = (obj, f"{short}.{attr}")
        wrappers: dict[str, object] = {}
        sites = []
        for site_name, site in [("autocomm", package)] + list(mods.items()):
            for attr, obj in list(vars(site).items()):
                hit = targets.get(id(obj))
                if hit is None or hit[0] is not obj:
                    continue
                fn, name = hit
                if name not in wrappers:
                    wrappers[name] = self._wrap(fn, name)
                self._patch(site, attr, wrappers[name])
                sites.append(f"{site_name}.{attr}")
        for mod, cls_name, meth, name in METHODS:
            cls = getattr(mods[mod], cls_name)
            self._patch(cls, meth, self._wrap(vars(cls)[meth], name))
            sites.append(f"{mod}.{cls_name}.{meth}")
        return sorted(sites)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- aggregation -------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total ms, self ms) over the recorded spans."""
        n = len(self.start)
        if n == 0:
            return {}
        nid = np.frombuffer(self.name_id, dtype=np.uint32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = (np.frombuffer(self.end, dtype=np.float64)
               - np.frombuffer(self.start, dtype=np.float64)) * 1e3
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        total = np.bincount(nid, weights=dur, minlength=k)
        own = np.bincount(nid, weights=dur - child, minlength=k)
        return {self.names[i]: (int(calls[i]), float(total[i]), float(own[i]))
                for i in range(k) if calls[i]}

    def write(self, path: str) -> None:
        """Write every span as parallel arrays (names index name_id)."""
        np.savez(path,
                 names=np.asarray(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.uint32),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64))
        with open(path + ".counts.json", "w", encoding="utf-8") as fh:
            json.dump(dict(self.counts), fh, indent=1, sort_keys=True)


# ---------------------------------------------------------------------------
# Per-layer metrics


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Names and units of every per-layer metric, in report order.  Values per
# traced cell unless the unit says otherwise.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("configs.scenario_from_dict.calls", "calls/cell"),
    ("configs.scenario_from_dict.ms", "ms/cell"),
    ("report.config_digest.ms", "ms/cell"),
    ("rng.stream.calls", "calls/cell"),
    ("rng.stream.ms", "ms/cell"),
    ("radio.generate_snr_map.calls", "calls/cell"),
    ("radio.generate_snr_map.ms", "ms/cell"),
    ("radio.rb_rate_matrix.calls", "calls/cell"),
    ("radio.rb_rate_matrix.ms", "ms/cell"),
    ("scheduling.evaluate_batch.calls", "calls/cell"),
    ("scheduling.evaluate_batch.rows", "rows/cell"),
    ("scheduling.evaluate_batch.ms", "ms/cell"),
    ("scheduling.evaluate_batch.self_ms", "ms/cell"),
    ("scheduling.evaluate_batch.rows_per_s", "rows/s"),
    ("scheduling.ga_schedule.calls", "calls/cell"),
    ("scheduling.ga_schedule.ms", "ms/cell"),
    ("scheduling.ga_schedule.generations", "gens/cell"),
    ("scheduling.brute_force_optimal.calls", "calls/cell"),
    ("scheduling.brute_force_optimal.ms", "ms/cell"),
    ("scheduling.brute_force_optimal.candidates", "cands/cell"),
    ("scheduling.brute_force_optimal.candidates_per_s", "cands/s"),
    ("scheduling.brute_force_optimal.refused", "count"),
    ("scheduling.validate.calls", "calls/cell"),
    ("scheduling.validate.ms", "ms/cell"),
    ("scheduling.allocation_rank.calls", "calls/cell"),
    ("scheduling.allocation_rank.ms", "ms/cell"),
    ("opro.opro_optimize_segments.calls", "calls/cell"),
    ("opro.opro_optimize_segments.ms", "ms/cell"),
    ("opro.opro_optimize_segments.self_ms", "ms/cell"),
    ("opro.opro_optimize_segments.iterations", "iters/cell"),
    ("opro.iterations_per_s", "iters/s"),
    ("opro.build_task_prompt.calls", "calls/cell"),
    ("opro.build_task_prompt.ms", "ms/cell"),
    ("opro.build_task_prompt.bytes", "bytes/cell"),
    ("opro.parse_allocation.calls", "calls/cell"),
    ("opro.parse_allocation.ms", "ms/cell"),
    ("opro.parse_allocation.failures", "count/cell"),
    ("opro.parse_ok_ratio", "ratio"),
    ("opro.MockLocalSearchEngine.propose.calls", "calls/cell"),
    ("opro.MockLocalSearchEngine.propose.ms", "ms/cell"),
    ("opro.improved_ratio", "ratio"),
    ("gateway.chat_complete.calls", "calls/cell"),
    ("gateway.chat_complete.ms", "ms/cell"),
    ("gateway.http.requests", "reqs/cell"),
    ("gateway.retries", "count/cell"),
    ("gateway.stub.ms", "ms/cell"),
    ("gateway.transport_wait_ms", "ms/cell"),
    ("gateway.request_digest.calls", "calls/cell"),
    ("gateway.request_digest.ms", "ms/cell"),
    ("gateway.Cassette.record.calls", "calls/cell"),
    ("gateway.Cassette.record.ms", "ms/cell"),
    ("gateway.Cassette.record.bytes", "bytes/cell"),
    ("gateway.Cassette.replay.calls", "calls/cell"),
    ("gateway.Cassette.replay.ms", "ms/cell"),
    ("gateway.Cassette.load_ms", "ms/cell"),
    ("traffic.run_episode.calls", "calls/cell"),
    ("traffic.run_episode.ms", "ms/cell"),
    ("traffic.step.calls", "calls/cell"),
    ("traffic.step.ms", "ms/cell"),
    ("traffic.steps_per_s", "steps/s"),
    ("traffic.check_invariants.calls", "calls/cell"),
    ("traffic.check_invariants.ms", "ms/cell"),
    ("traffic.encode_observation.calls", "calls/cell"),
    ("traffic.encode_observation.ms", "ms/cell"),
    ("traffic.encode_observation.bytes", "bytes/cell"),
    ("traffic.encode_observation.rows_visible", "rows/cell"),
    ("traffic.encode_observation.rows_dropped", "rows/cell"),
    ("traffic.encode.kept_ratio", "ratio"),
    ("traffic.decide.calls", "calls/cell"),
    ("traffic.decide.ms", "ms/cell"),
    ("traffic.spawn_vehicles.ms", "ms/cell"),
    ("geochannel.trace_paths.calls", "calls/cell"),
    ("geochannel.trace_paths.ms", "ms/cell"),
    ("geochannel.trace_paths.paths", "paths/cell"),
    ("geochannel.trace_paths.user_facades_per_s", "1/s"),
    ("geochannel.active_path_ratio", "ratio"),
    ("geochannel.build_ckm.calls", "calls/cell"),
    ("geochannel.build_ckm.ms", "ms/cell"),
    ("geochannel.build_ckm.points", "points/cell"),
    ("geochannel.mirror_reflection_point.calls", "calls/cell"),
    ("geochannel.mirror_reflection_point.ms", "ms/cell"),
    ("geochannel.is_blocked.calls", "calls/cell"),
    ("geochannel.is_blocked.ms", "ms/cell"),
    ("geochannel.synthesize_channel.calls", "calls/cell"),
    ("geochannel.synthesize_channel.ms", "ms/cell"),
    ("geochannel.geometry_predictor.calls", "calls/cell"),
    ("geochannel.geometry_predictor.ms", "ms/cell"),
    ("geochannel.fit_linear_gcp.ms", "ms/cell"),
    ("geochannel.nn_ckm_predict.calls", "calls/cell"),
    ("geochannel.nn_ckm_predict.ms", "ms/cell"),
    ("geochannel.linear_gcp_predict.calls", "calls/cell"),
    ("geochannel.linear_gcp_predict.ms", "ms/cell"),
    ("geochannel.nmse_db.calls", "calls/cell"),
    ("geochannel.nmse_db.nonfinite", "count/cell"),
    ("report.run.calls", "calls/cell"),
    ("report.run.ms", "ms/cell"),
    ("report.run.self_ms", "ms/cell"),
    ("report.record_to_json.calls", "calls/cell"),
    ("report.record_to_json.ms", "ms/cell"),
    ("report.record_to_json.bytes", "bytes/cell"),
    ("trace.cells", "count"),
    ("trace.untraced_cells_per_s", "cells/s"),
    ("trace.traced_cells_per_s", "cells/s"),
    ("trace.overhead_ratio", "ratio"),
)

# Span name behind each "<span>.calls|ms|self_ms" metric whose name differs.
_SPAN_FOR = {
    "rng.stream": "rng.RngStream",
}


def layer_metrics(tracer: Tracer, cells: int, refused: int,
                  stub_requests: int, stub_ms: float,
                  untraced_s: float, traced_s: float) -> dict[str, float]:
    """Every PER_LAYER metric from one traced pass over `cells` cells."""
    totals = tracer.totals()
    c = tracer.counts

    def span(name: str) -> tuple[int, float, float]:
        return totals.get(_SPAN_FOR.get(name, name), (0, 0.0, 0.0))

    def calls(name: str) -> int:
        return span(name)[0]

    def ms(name: str) -> float:
        return span(name)[1]

    special = {
        "gateway.http.requests": stub_requests,
        "gateway.retries": stub_requests - calls("gateway.chat_complete"),
        "gateway.stub.ms": stub_ms,
        "gateway.transport_wait_ms": ms("gateway.chat_complete") - stub_ms,
        "gateway.Cassette.load_ms": ms("gateway.Cassette.load"),
        "scheduling.evaluate_batch.rows_per_s": _ratio(
            c["scheduling.evaluate_batch.rows"],
            ms("scheduling.evaluate_batch") / 1e3),
        "scheduling.brute_force_optimal.candidates_per_s": _ratio(
            c["scheduling.brute_force_optimal.candidates"],
            ms("scheduling.brute_force_optimal") / 1e3),
        "scheduling.brute_force_optimal.refused": refused,
        "opro.iterations_per_s": _ratio(
            c["opro.opro_optimize_segments.iterations"],
            ms("opro.opro_optimize_segments") / 1e3),
        "opro.parse_ok_ratio": _ratio(
            calls("opro.parse_allocation")
            - c["opro.parse_allocation.failures"],
            calls("opro.parse_allocation")),
        "opro.improved_ratio": _ratio(
            c["opro.improved_iterations"],
            c["opro.opro_optimize_segments.iterations"]),
        "traffic.steps_per_s": _ratio(calls("traffic.step"),
                                      ms("traffic.step") / 1e3),
        "traffic.encode.kept_ratio": _ratio(
            c["traffic.encode_observation.rows_visible"]
            - c["traffic.encode_observation.rows_dropped"],
            c["traffic.encode_observation.rows_visible"]),
        "geochannel.trace_paths.user_facades_per_s": _ratio(
            c["geochannel.trace_paths.user_facades"],
            ms("geochannel.trace_paths") / 1e3),
        "geochannel.active_path_ratio": _ratio(
            c["geochannel.trace_paths.reflections"],
            c["geochannel.trace_paths.user_facades"]),
        "trace.cells": cells,
        "trace.untraced_cells_per_s": _ratio(cells, untraced_s),
        "trace.traced_cells_per_s": _ratio(cells, traced_s),
        "trace.overhead_ratio": _ratio(traced_s, untraced_s) - 1.0,
    }
    out: dict[str, float] = {}
    for name, unit in PER_LAYER:
        prefix, _, field = name.rpartition(".")
        if name in special:
            value = special[name]
        elif field in ("calls", "ms", "self_ms"):
            value = span(prefix)[("calls", "ms", "self_ms").index(field)]
        else:
            value = c[name]
        out[name] = float(value / cells if unit.endswith("/cell") else value)
    return out


def missing_spans(tracer: Tracer, expected: tuple[str, ...]) -> list[str]:
    """Expected span names that recorded no call in the traced pass."""
    totals = tracer.totals()
    return [name for name in expected if name not in totals]
