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
by method and config digest.  Exit status is 0 only when everything ran,
and 2 on a usage error, which includes a config, switch or run record
that cannot be read.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import Optional, Sequence

from . import __version__
from .configs import ConfigError, ScenarioConfig, scenario_from_dict
from .report import (
    CHANNEL_METHODS,
    OPRO_METHODS,
    SEARCH_METHODS,
    TRAFFIC_METHODS,
    cells_csv,
    config_digest,
    format_report,
    record_from_dict,
    record_to_json,
    run_safe,
    summary_csv,
    sweep,
)


def _read_json(parser: argparse.ArgumentParser, flag: str, path: str):
    """The JSON document at path; a file that cannot be read or is not JSON
    is a usage error naming flag and path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        parser.error(f"argument {flag}: cannot read {path}: {exc.strerror}")
    except ValueError as exc:
        parser.error(f"argument {flag}: {path} is not JSON: {exc}")


def _load_scenario(parser: argparse.ArgumentParser, path: str,
                   seed: Optional[int]) -> ScenarioConfig:
    doc = _read_json(parser, "--config", path)
    if seed is not None and isinstance(doc, dict):
        doc["seed"] = seed
    try:
        return scenario_from_dict(doc)
    except ConfigError as exc:
        parser.error(f"argument --config: {path}: {exc}")


def _save(text: str, out_dir: Optional[str], name: str) -> None:
    """With --out, write text to out_dir/name."""
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit(text: str, out_dir: Optional[str], name: str) -> None:
    """Print text and, with --out, also write it to out_dir/name."""
    sys.stdout.write(text)
    _save(text, out_dir, name)


# A JSON string (closed or not), a bracket or comma, or a run of the rest;
# a comma is top-level outside strings, [] and {}.
_TOKENS = re.compile(r'"(?:[^"\\]|\\.)*"?|[][{},]|[^][{},"]+')


def _csv_list(text: str) -> list[str]:
    """Stripped, non-empty pieces of text between top-level commas."""
    pieces, depth = [""], 0
    for token in _TOKENS.findall(text):
        if token == "," and depth == 0:
            pieces.append("")
            continue
        depth = max(depth + (token in ("[", "{")) - (token in ("]", "}")), 0)
        pieces[-1] += token
    return [p.strip() for p in pieces if p.strip()]


def _parse_methods(text: str) -> list[str]:
    methods = _csv_list(text)
    if not methods:
        raise argparse.ArgumentTypeError("--methods expects at least one "
                                         "method name")
    return methods


def _parse_seeds(text: str) -> list[int]:
    seeds = []
    for t in _csv_list(text):
        try:
            seeds.append(int(t))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"--seeds expects integers, got {t!r}") from None
    if not seeds:
        raise argparse.ArgumentTypeError("--seeds expects at least one seed")
    return seeds


def _parse_axis(text: str) -> tuple[str, list]:
    if "=" not in text:
        raise argparse.ArgumentTypeError(
            "--axis expects path=value1,value2,...")
    name, _, values = text.partition("=")
    if name.strip() == "seed":
        raise argparse.ArgumentTypeError(
            "--axis cannot sweep the seed; list seeds with --seeds")
    parsed = []
    for v in _csv_list(values):
        try:
            parsed.append(json.loads(v))
        except ValueError:
            parsed.append(v)
    if not parsed:
        raise argparse.ArgumentTypeError("--axis expects at least one value")
    return name.strip(), parsed


def _parse_switch(text: str):
    try:
        return json.loads(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"--switch expects a JSON document, got {text!r}: {exc}") from None


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
    sp.add_argument("--method", default="ga", choices=SEARCH_METHODS)

    sp = sub.add_parser("opro", help="prompt-optimization scheduling loop")
    common(sp)
    sp.add_argument("--engine", default="mock",
                    choices=[m.removeprefix("opro_") for m in OPRO_METHODS])
    sp.add_argument("--switch", default=None, type=_parse_switch,
                    help='objective switch as JSON, e.g. '
                         '\'{"at_iteration": 100, "objective": "qos_sum_rate"}\'')
    sp.add_argument("--endpoint-url", default="")
    sp.add_argument("--model", default="")
    sp.add_argument("--cassette", default=None)
    sp.add_argument("--cassette-mode", default="replay",
                    choices=["record", "replay"])

    sp = sub.add_parser("traffic", help="intersection signal simulation")
    common(sp)
    sp.add_argument("--controller", default="greedy", choices=TRAFFIC_METHODS)
    sp.add_argument("--observation", default="vue", choices=["vue", "rsu"])

    sp = sub.add_parser("channel", help="environment-aware channel predictors")
    common(sp)
    sp.add_argument("--method", default="geometry", choices=CHANNEL_METHODS)

    sp = sub.add_parser("sweep", help="axis x seeds x methods grid")
    common(sp)
    sp.add_argument("--methods", required=True, type=_parse_methods,
                    help="comma-separated method names")
    sp.add_argument("--seeds", required=True, type=_parse_seeds,
                    help="comma-separated integer seeds")
    sp.add_argument("--axis", default=None, type=_parse_axis,
                    help="dotted.path=v1,v2,... applied per cell")
    sp.add_argument("--observation", default=None, choices=["vue", "rsu"])
    sp.add_argument("--switch", default=None, type=_parse_switch,
                    help="objective switch JSON for opro methods")

    sp = sub.add_parser("report", help="summarize saved run records")
    sp.add_argument("--runs", required=True,
                    help="directory containing run-*.json files")
    sp.add_argument("--out", default=None)
    return p


def _single_run(args, scenario: ScenarioConfig, method: str, opts: dict,
                tag: str = "") -> int:
    rec = run_safe(scenario, method, opts)
    _emit(record_to_json(rec), args.out,
          f"run-{rec.track}-{rec.method}{tag}-{rec.config_digest[:12]}.json")
    return 0 if rec.status == "ok" else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "report":
        try:
            names = sorted(os.listdir(args.runs))
        except OSError as exc:
            parser.error(f"argument --runs: cannot read {args.runs}: "
                         f"{exc.strerror}")
        records = []
        for name in names:
            if name.startswith("run-") and name.endswith(".json"):
                path = os.path.join(args.runs, name)
                try:
                    records.append(record_from_dict(
                        _read_json(parser, "--runs", path)))
                except ValueError as exc:
                    parser.error(f"argument --runs: {path} is not a run "
                                 f"record: {exc}")
        _emit(format_report(records), args.out, "report.txt")
        return 0

    scenario = _load_scenario(parser, args.config, args.seed)

    if args.command == "schedule":
        return _single_run(args, scenario, args.method, {})

    if args.command == "opro":
        opts: dict = {}
        if args.switch is not None:
            opts["switch"] = args.switch
        if args.engine == "chat":
            opts.update({"endpoint_url": args.endpoint_url,
                         "model": args.model})
            if args.cassette:
                opts["cassette"] = args.cassette
                opts["cassette_mode"] = args.cassette_mode
        return _single_run(args, scenario, f"opro_{args.engine}", opts,
                           tag="-switch" if args.switch is not None else "")

    if args.command == "traffic":
        return _single_run(args, scenario, args.controller,
                           {"observation": args.observation},
                           tag=f"-{args.observation}")

    if args.command == "channel":
        return _single_run(args, scenario, args.method, {})

    if args.command == "sweep":
        opts = {}
        if args.observation:
            opts["observation"] = args.observation
        if args.switch is not None:
            opts["switch"] = args.switch
        axis_name, axis_values = args.axis or (None, (None,))
        sw = sweep(scenario, args.methods, args.seeds,
                   axis_name, axis_values, opts)
        digest = config_digest(scenario)[:12]
        _save(cells_csv(sw), args.out, f"sweep-cells-{digest}.csv")
        _emit(summary_csv(sw), args.out, f"sweep-summary-{digest}.csv")
        return 0 if sw.all_ok else 1

    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
