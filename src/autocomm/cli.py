"""Command-line interface.

Subcommands mirror the three tracks plus sweep/report plumbing:

  autocomm schedule --config cfg.json --method ga --out runs/
  autocomm opro     --config cfg.json --engine mock --out runs/
  autocomm traffic  --config cfg.json --controller greedy --observation rsu
  autocomm channel  --config cfg.json --method nn_ckm
  autocomm sweep    --config cfg.json --methods ga,round_robin --seeds 1,2,3 \
                    --axis scheduling.num_robots=10,20,30 --out runs/
  autocomm report   --runs runs/

Every run prints its record as JSON; --out also writes it to a file named
by method and config digest.  Exit status is 0 only when everything ran.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from . import __version__
from .configs import ScenarioConfig, scenario_from_dict
from .report import (
    RunRecord,
    cells_csv,
    config_digest,
    format_report,
    record_from_dict,
    record_to_json,
    run_safe,
    summary_csv,
    sweep,
)


def _load_scenario(path: str, seed: Optional[int]) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if seed is not None:
        doc["seed"] = seed
    return scenario_from_dict(doc)


def _emit_record(rec: RunRecord, out_dir: Optional[str], tag: str = "") -> None:
    text = record_to_json(rec)
    sys.stdout.write(text)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        name = f"run-{rec.track}-{rec.method}{tag}-{rec.config_digest[:12]}.json"
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            fh.write(text)


def _csv_list(text: str) -> list[str]:
    return [t.strip() for t in text.split(",") if t.strip()]


def _parse_axis(text: str) -> tuple[str, list]:
    if "=" not in text:
        raise argparse.ArgumentTypeError(
            "--axis expects path=value1,value2,...")
    name, _, values = text.partition("=")
    parsed = []
    for v in _csv_list(values):
        try:
            parsed.append(json.loads(v))
        except ValueError:
            parsed.append(v)
    return name.strip(), parsed


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="autocomm",
        description="Scheduling, channel, and traffic experiment runner.")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True,
                        help="scenario JSON document")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the scenario seed")
        sp.add_argument("--out", default=None,
                        help="directory for result files")

    sp = sub.add_parser("schedule", help="classical scheduling methods")
    common(sp)
    sp.add_argument("--method", default="ga",
                    choices=["round_robin", "ga", "brute_force"])

    sp = sub.add_parser("opro", help="prompt-optimization scheduling loop")
    common(sp)
    sp.add_argument("--engine", default="mock", choices=["mock", "chat"])
    sp.add_argument("--switch", default=None,
                    help='objective switch as JSON, e.g. '
                         '\'{"at_iteration": 100, "objective": "qos_sum_rate"}\'')
    sp.add_argument("--endpoint-url", default="")
    sp.add_argument("--model", default="")
    sp.add_argument("--cassette", default=None)
    sp.add_argument("--cassette-mode", default="replay",
                    choices=["record", "replay"])

    sp = sub.add_parser("traffic", help="intersection signal simulation")
    common(sp)
    sp.add_argument("--controller", default="greedy",
                    choices=["greedy", "round_robin"])
    sp.add_argument("--observation", default="vue", choices=["vue", "rsu"])

    sp = sub.add_parser("channel", help="environment-aware channel predictors")
    common(sp)
    sp.add_argument("--method", default="geometry",
                    choices=["geometry", "nn_ckm", "linear_gcp"])

    sp = sub.add_parser("sweep", help="axis x seeds x methods grid")
    common(sp)
    sp.add_argument("--methods", required=True,
                    help="comma-separated method names")
    sp.add_argument("--seeds", required=True,
                    help="comma-separated integer seeds")
    sp.add_argument("--axis", default=None,
                    help="dotted.path=v1,v2,... applied per cell")
    sp.add_argument("--observation", default=None, choices=["vue", "rsu"])
    sp.add_argument("--switch", default=None,
                    help="objective switch JSON for opro methods")

    sp = sub.add_parser("report", help="summarize saved run records")
    sp.add_argument("--runs", required=True,
                    help="directory containing run-*.json files")
    sp.add_argument("--out", default=None)
    return p


def _single_run(args, method: str, opts: dict, tag: str = "") -> int:
    scenario = _load_scenario(args.config, args.seed)
    rec = run_safe(scenario, method, opts)
    _emit_record(rec, args.out, tag)
    return 0 if rec.status == "ok" else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "schedule":
        return _single_run(args, args.method, {})

    if args.command == "opro":
        opts: dict = {}
        if args.switch:
            opts["switch"] = json.loads(args.switch)
        if args.engine == "chat":
            method = "opro_chat"
            opts.update({"endpoint_url": args.endpoint_url,
                         "model": args.model})
            if args.cassette:
                opts["cassette"] = args.cassette
                opts["cassette_mode"] = args.cassette_mode
        else:
            method = "opro_mock"
        return _single_run(args, method, opts,
                           tag="-switch" if args.switch else "")

    if args.command == "traffic":
        return _single_run(args, args.controller,
                           {"observation": args.observation},
                           tag=f"-{args.observation}")

    if args.command == "channel":
        return _single_run(args, args.method, {})

    if args.command == "sweep":
        scenario = _load_scenario(args.config, args.seed)
        opts = {}
        if args.observation:
            opts["observation"] = args.observation
        if args.switch:
            opts["switch"] = json.loads(args.switch)
        axis_name, axis_values = (None, (None,))
        if args.axis:
            axis_name, axis_values = _parse_axis(args.axis)
        sw = sweep(scenario, _csv_list(args.methods),
                   [int(s) for s in _csv_list(args.seeds)],
                   axis_name, axis_values, opts)
        cells = cells_csv(sw)
        summary = summary_csv(sw)
        sys.stdout.write(summary)
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            digest = config_digest(scenario)[:12]
            with open(os.path.join(args.out, f"sweep-cells-{digest}.csv"),
                      "w", encoding="utf-8") as fh:
                fh.write(cells)
            with open(os.path.join(args.out, f"sweep-summary-{digest}.csv"),
                      "w", encoding="utf-8") as fh:
                fh.write(summary)
        return 0 if sw.all_ok else 1

    if args.command == "report":
        records = []
        for name in sorted(os.listdir(args.runs)):
            if name.startswith("run-") and name.endswith(".json"):
                with open(os.path.join(args.runs, name), encoding="utf-8") as fh:
                    doc = json.load(fh)
                records.append(record_from_dict(doc))
        text = format_report(records)
        sys.stdout.write(text)
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            with open(os.path.join(args.out, "report.txt"), "w",
                      encoding="utf-8") as fh:
                fh.write(text)
        return 0

    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
