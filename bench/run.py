"""Sweep benchmark of autocomm: cell throughput and latency per workload.

Usage (from the repository root):

    python3 bench/run.py --workload sched-search --seed 3 --trace 0
    python3 bench/run.py --write-reference

The loop is closed: one process, one client, and the next cell starts only
after the previous one finished.  A run first sets up the workload (import,
parse and validate its documents, load fixture scenes, start the loopback
chat stub), then checks one warm-up cell against ``reference.json``, then:

* ``--trace 0`` times cells for ``--seconds`` and reports every end-to-end
  metric.  ``setup_s`` is the median over fresh processes, each timed from
  spawn until its first cell could start.
* ``--trace 1`` runs cells for a quarter of ``--seconds``, then the same
  cells again with every public autocomm function wrapped (see
  ``spans.py``), and reports the per-layer metrics and the tracing overhead.

The 2-core host this was built on shares its cores with other tenants; its
speed drifts by 20-50% over minutes, so raw medians of 25-second runs
spread by 15-40% from run to run.  Cell times are therefore scaled to a
reference speed: ``host_probe()``, a fixed mix of interpreter, small-array
and small-matrix work like the workloads' own, runs before and after each
cell, and the cell's wall and CPU times are multiplied by ``PROBE_REF_S``
over the mean of the two probes.  A change to autocomm moves the scaled
times as much as the raw ones.  ``setup_s`` (mostly imports, which the
probe does not resemble) and memory are reported as measured; the raw cell
figures and the probe time are in the detail line.

Every run is checked (see ``workloads.check_cell``); a failing run is
counted, never fatal.  ``failed`` counts runs that fail a check for any
reason but the listed known defect (``workloads._is_known_defect``); runs
that hit the known defect are counted apart, as ``known_defect_runs`` in the
detail line and ``geochannel.nmse_db.nonfinite`` in the traced pass, and
``ok_frac`` is the share of runs that pass every check, so the defect still
shows end to end.  A timed pass makes as many runs as the host's speed
allows, so a count of defective runs would differ between two passes of the
same code; ``failed`` stays 0 unless something new breaks.  The last stdout
line is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the environment and the details behind the numbers.  Spans and results go
to ``.bench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
sys.path.insert(0, str(ROOT / "src"))
# One BLAS thread: with the chat stub's server thread the process then runs
# at most two threads, one per core of the 2-core reference host, and
# figures do not depend on how BLAS splits small matrix products.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import autocomm  # noqa: E402

if not Path(autocomm.__file__).resolve().is_relative_to(ROOT / "src"):
    raise SystemExit(f"autocomm imported from {autocomm.__file__}, "
                     f"not from {ROOT / 'src'}")

import numpy  # noqa: E402
import requests  # noqa: E402
from autocomm import configs, report  # noqa: E402
from autocomm.opro import MockLocalSearchEngine  # noqa: E402
from autocomm.rng import stream  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
from stub import ChatStub  # noqa: E402

DEFAULT_SEED = 1
PROBE_REF_S = 0.010  # host_probe() on the 2-core reference host when quiet
SETUP_PROBES = 7
TAIL_BEYOND = 10     # cells beyond the reported tail percentile

END_TO_END = (
    ("cells_per_s", "cells/s"),
    ("cell_ms.p50", "ms"),
    ("cell_ms.tail", "ms"),
    ("cell_cpu_ms.p50", "ms"),
    ("ok_frac", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class Context:
    """One workload's documents, its chat stub and its cassette files."""

    def __init__(self, name: str):
        self.workload = workloads.build(name)
        self.stub = (ChatStub() if any(r.cassette for r in self.workload.runs)
                     else None)
        self.cassette_dir = OUT_DIR / f"cassettes-{os.getpid()}"
        self._recorded = 0
        self._cassette = ""

    def opts(self, spec: workloads.RunSpec, seed: int) -> dict:
        opts = dict(spec.opts)
        if spec.cassette == "record":
            # Cassette(..., "record") appends, so every record run gets a
            # file of its own; the replay run that follows reads it back.
            self._recorded += 1
            self.cassette_dir.mkdir(parents=True, exist_ok=True)
            self._cassette = str(self.cassette_dir / f"{self._recorded}.jsonl")
            self.stub.use(lambda: MockLocalSearchEngine(
                stream(seed, "scheduling/engine")))
            opts.update(endpoint_url=self.stub.url, model="stub")
        if spec.cassette:
            opts.update(cassette=self._cassette, cassette_mode=spec.cassette)
        return opts

    def discard_cassettes(self) -> None:
        shutil.rmtree(self.cassette_dir, ignore_errors=True)

    def close(self) -> None:
        if self.stub is not None:
            self.stub.close()
        self.discard_cassettes()


@dataclass
class Cell:
    wall_s: float
    cpu_s: float
    outcomes: list
    scale: float = 1.0    # PROBE_REF_S / host_probe() around the cell


def host_probe() -> float:
    """Seconds for a fixed amount of interpreter and NumPy work."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(100_000):
        acc += i * 0.5
    v = numpy.array([1.0, 2.0, 3.0])
    for _ in range(2000):
        v = numpy.sqrt(v * v + 1.0)
    a, w = numpy.arange(900.0).reshape(100, 9), numpy.ones(9)
    for _ in range(200):
        (a @ w).sum()
    return time.perf_counter() - t0


def run_cell(ctx: Context, seed: int) -> Cell:
    """Run the workload's runs in order on one cell seed, then check them."""
    outcomes = []
    wall = cpu = 0.0
    for spec in ctx.workload.runs:
        doc = dict(spec.doc, seed=seed)
        opts = ctx.opts(spec, seed)
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            rec, err = report.run(configs.scenario_from_dict(doc),
                                  spec.method, opts), None
        except Exception as exc:
            rec, err = None, f"{type(exc).__name__}: {exc}"
        cpu += time.process_time() - c0
        wall += time.perf_counter() - w0
        outcomes.append(workloads.Outcome(spec, rec, err))
    workloads.check_cell(ctx.workload, outcomes)
    ctx.discard_cassettes()
    return Cell(wall, cpu, outcomes)


def run_pass(ctx: Context, seed: int, seconds: float = 0.0,
             cells: int = 0) -> list[Cell]:
    """`cells` cells if given, else cells until `seconds` have passed."""
    out: list[Cell] = []
    t0 = time.perf_counter()
    before = host_probe()
    while (len(out) < cells if cells
           else not out or time.perf_counter() - t0 < seconds):
        cell = run_cell(ctx, workloads.cell_seed(ctx.workload.name,
                                                 seed, len(out)))
        after = host_probe()
        cell.scale = 2 * PROBE_REF_S / (before + after)
        before = after
        out.append(cell)
    return out


def attempt_untimed(ctx: Context, seed: int) -> tuple[int, list[str]]:
    """Untimed runs that document a refusal: (refusals, other problems)."""
    refused, problems = 0, []
    for spec in ctx.workload.untimed:
        doc = dict(spec.doc, seed=workloads.cell_seed(ctx.workload.name,
                                                      seed, 0))
        try:
            report.run(configs.scenario_from_dict(doc), spec.method, spec.opts)
        except ValueError as exc:
            if "too large" in str(exc):
                refused += 1
            else:
                problems.append(f"{spec.label}: {exc}")
    return refused, problems


def reference_cell(ctx: Context) -> Cell:
    return run_cell(ctx, workloads.cell_seed(ctx.workload.name,
                                             DEFAULT_SEED, 0))


def check_reference(ctx: Context) -> list[str]:
    stored = (json.loads(REFERENCE.read_text(encoding="utf-8"))
              if REFERENCE.exists() else {})
    expected = stored.get(ctx.workload.name)
    if expected is None:
        return [f"no stored reference for {ctx.workload.name}"]
    return workloads.compare_reference(reference_cell(ctx).outcomes, expected)


def write_reference() -> None:
    stored = {}
    for name in workloads.NAMES:
        ctx = Context(name)
        try:
            stored[name] = [workloads.reference_entry(o)
                            for o in reference_cell(ctx).outcomes]
        finally:
            ctx.close()
    REFERENCE.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")


# ---------------------------------------------------------------------------
# Measurement


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Spawn-to-ready time of SETUP_PROBES fresh set-up processes."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, __file__, "--setup-only", "--workload", workload,
             "--seed", str(seed)],
            capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(proc.stdout.split()[-1]) - t0)
    return samples


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    samples beyond it; the maximum when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def tally(cells: list[Cell]) -> tuple[int, int, list[str], int]:
    """(attempted, failed, failure reasons, known-defect runs).

    `failed` leaves out the runs that hit the known defect; they are the
    fourth item."""
    outcomes = [o for c in cells for o in c.outcomes]
    failed = [o for o in outcomes if o.failure and not o.known]
    unexpected = sorted({f"{o.spec.label}: {o.failure}" for o in failed})
    return (len(outcomes), len(failed), unexpected,
            sum(1 for o in outcomes if o.known))


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "requests": requests.__version__,
            "git_sha": git_sha(), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "traced": bool(args.trace)}


def measure_end_to_end(ctx: Context, args, detail: dict):
    cells = run_pass(ctx, args.seed, seconds=args.seconds)
    walls = [c.wall_s * c.scale for c in cells]
    tail_s, tail_pct = tail(walls)
    attempted, failed, unexpected, known = tally(cells)
    setups = setup_seconds(args.workload, args.seed)
    metrics = {
        "cells_per_s": len(cells) / sum(walls),
        "cell_ms.p50": statistics.median(walls) * 1e3,
        "cell_ms.tail": tail_s * 1e3,
        "cell_cpu_ms.p50": statistics.median(c.cpu_s * c.scale
                                             for c in cells) * 1e3,
        "ok_frac": 1.0 - (failed + known) / attempted,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    raw = [c.wall_s for c in cells]
    detail.update(
        cells=len(cells), tail_percentile=tail_pct,
        fail_frac=failed / attempted, known_defect_runs=known,
        known_defect_frac=known / attempted,
        raw={"cells_per_s": len(cells) / sum(raw),
             "cell_ms.p50": statistics.median(raw) * 1e3,
             "cell_ms.tail": tail(raw)[0] * 1e3,
             "cell_cpu_ms.p50": statistics.median(c.cpu_s for c in cells)
             * 1e3},
        setup_samples_s=setups,
        probe_ms_p50=PROBE_REF_S / statistics.median(c.scale for c in cells)
        * 1e3)
    units = dict(END_TO_END)
    return attempted, failed, unexpected, {k: (metrics[k], units[k])
                                           for k, _ in END_TO_END}


def measure_per_layer(ctx: Context, args, detail: dict, refused: int):
    untraced = run_pass(ctx, args.seed, seconds=args.seconds / 4)
    tracer = spans.Tracer()
    detail["wrapped_sites"] = len(tracer.instrument())
    req0, stub0 = ctx.stub.snapshot() if ctx.stub else (0, 0.0)
    try:
        traced = run_pass(ctx, args.seed, cells=len(untraced))
    finally:
        tracer.restore()
    req1, stub1 = ctx.stub.snapshot() if ctx.stub else (0, 0.0)
    metrics = spans.layer_metrics(
        tracer, len(traced), refused, req1 - req0, (stub1 - stub0) * 1e3,
        sum(c.wall_s * c.scale for c in untraced),
        sum(c.wall_s * c.scale for c in traced))
    missing = spans.missing_spans(tracer, ctx.workload.expected_spans)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(str(OUT_DIR / f"spans-{args.workload}.npz"))
    attempted, failed, unexpected, known = tally(untraced + traced)
    unexpected += [f"no calls recorded for {name}" for name in missing]
    detail.update(cells=len(traced), known_defect_runs=known)
    units = dict(spans.PER_LAYER)
    return attempted, failed, unexpected, {k: (metrics[k], units[k])
                                           for k, _ in spans.PER_LAYER}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the monotonic clock, exit (used to "
                         "time set-up in a fresh process)")
    ap.add_argument("--write-reference", action="store_true",
                    help="rewrite reference.json from the default seed")
    args = ap.parse_args(argv)
    if args.write_reference:
        write_reference()
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"
    ctx = Context(args.workload)
    try:
        if args.setup_only:
            print(time.monotonic(), flush=True)
            return 0
        detail = {"env": environment(args)}
        problems = check_reference(ctx)
        refused, untimed_problems = attempt_untimed(ctx, args.seed)
        problems += untimed_problems
        detail["brute_force_refused"] = refused
        if args.trace:
            attempted, failed, unexpected, metrics = measure_per_layer(
                ctx, args, detail, refused)
        else:
            attempted, failed, unexpected, metrics = measure_end_to_end(
                ctx, args, detail)
    finally:
        ctx.close()
    problems += unexpected
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    detail["problems"] = problems
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"detail": detail, "result": result}, indent=1) + "\n",
        encoding="utf-8")
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
