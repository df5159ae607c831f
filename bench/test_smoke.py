"""Smoke test of the benchmark itself: every workload at a tiny size.

Each workload runs one timed cell (``--seconds 0.01``) untraced and traced;
the result line must carry exactly the metric names and units that
``BENCHMARK.json`` declares, every output check must pass, no run may fail
(runs that hit the known defect are counted apart), and the environment
must be recorded.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "2",
         "--seconds", "0.01", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_declared_metrics(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    detail, result = (json.loads(line)
                      for line in proc.stdout.splitlines()[-2:])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"], detail["problems"]
    assert result["attempted"] >= 1
    # Known-defect runs are counted apart, so nothing else may fail.
    assert result["failed"] == 0, detail["problems"]
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert ({name: m["unit"] for name, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in declared})
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    env = detail["env"]
    assert env["workload"] == workload and env["seed"] == 2
    assert env["traced"] is bool(trace)
    for key in ("nproc", "python", "numpy", "requests", "git_sha"):
        assert env[key]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "sched-search", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
