"""Byte identity across processes: the same inputs give the same bytes in
fresh interpreters with different string-hash seeds, and a fresh process
gives what a process with warm caches gives.

Every other determinism test reruns inside one process, where set and
dict-of-str orders never change; these run the code under
PYTHONHASHSEED 0 and 1 and compare what comes out.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from test_report_cli import readme_commands

REPO = Path(__file__).resolve().parent.parent
HASH_SEEDS = ("0", "1")


def run_python(code: str, hash_seed: str, *args: str) -> bytes:
    """stdout of `python -c code args` in a fresh interpreter, run from the
    repository root with autocomm from src/."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", code, *args], cwd=REPO,
                          env=env, capture_output=True, timeout=300)
    assert done.returncode == 0, done.stderr.decode("utf-8", "replace")
    return done.stdout


README_RUN = """
import contextlib, io, json, sys
from autocomm.cli import main
for cmd in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(cmd[1:]) == 0, cmd
"""


def test_readme_commands_give_the_same_bytes_under_any_hash_seed(tmp_path):
    files = []
    for seed in HASH_SEEDS:
        # The same path in both runs, so no file can differ by naming it.
        runs = tmp_path / "runs"
        run_python(README_RUN, seed, json.dumps(readme_commands(runs)))
        files.append({p.name: p.read_bytes() for p in runs.iterdir()})
        for p in runs.iterdir():
            p.unlink()
    assert "report.txt" in files[0]
    assert files[0] == files[1]


# Phases 1 and 3 see the same four (queue, wait) lane values, in reverse
# order.  Summed in different orders the two pressures can differ in the
# last bit, so a set's hash order picked the winning phase.
TIE_PAYLOAD = json.dumps({"phase": 2, "lanes": {
    "N:straight": {"q": 3, "w": 23.3}, "N:right": {"q": 1, "w": 19.5},
    "S:straight": {"q": 1, "w": 3.4}, "S:right": {"q": 3, "w": 26.1},
    "E:straight": {"q": 3, "w": 26.1}, "E:right": {"q": 1, "w": 3.4},
    "W:straight": {"q": 1, "w": 19.5}, "W:right": {"q": 3, "w": 23.3},
}}, sort_keys=True)

DECIDE_RUN = """
import sys
from autocomm.traffic import QueueGreedyController
print(QueueGreedyController().decide(sys.argv[1], 10.0))
"""


def test_greedy_decide_on_a_tie_is_the_same_under_any_hash_seed():
    answers = {run_python(DECIDE_RUN, seed, TIE_PAYLOAD)
               for seed in HASH_SEEDS}
    assert len(answers) == 1


CHANNEL_RUN = """
import sys
from autocomm.configs import build_scenario
from autocomm.geochannel import load_fixture_scene
from autocomm.report import record_to_json, run
with open("docs/config-schema/channel.json", encoding="utf-8") as f:
    scenario = build_scenario(f.read())
if sys.argv[1] == "warm":
    # Fill the grid-map cache with this scene's map and others' first.
    for other in (load_fixture_scene(1), load_fixture_scene(2), scenario):
        run(other, "nn_ckm")
sys.stdout.write("".join(record_to_json(run(scenario, method))
                         for method in ("nn_ckm", "linear_gcp")))
"""


def test_a_fresh_channel_run_matches_one_against_a_warm_grid_map():
    cold = run_python(CHANNEL_RUN, HASH_SEEDS[0], "cold")
    warm = run_python(CHANNEL_RUN, HASH_SEEDS[1], "warm")
    assert cold.count(b'"status": "ok"') == 2
    assert cold == warm
