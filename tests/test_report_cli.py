"""Run records, sweeps, CSV emission, and the command-line interface."""

import hashlib
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from autocomm.cli import main
from autocomm.configs import (
    ObjectiveKind,
    ObjectiveSpec,
    ScenarioConfig,
    SchedulingConfig,
    Track,
    TrafficConfig,
    build_scenario,
    scenario_from_dict,
    scenario_to_dict,
    scenario_to_json,
)
from autocomm.geochannel import load_fixture_scene
from autocomm.report import (
    CHANNEL_METHODS,
    cells_csv,
    ckm_grid_positions,
    config_digest,
    default_user_positions,
    record_from_dict,
    record_to_json,
    run,
    run_safe,
    summary_csv,
    sweep,
)

REPO = Path(__file__).resolve().parent.parent
QOS = ObjectiveSpec(kind=ObjectiveKind.QOS_SUM_RATE, min_rate_bps=1e6)


def sched_scenario(seed=5, num_robots=3):
    return ScenarioConfig(
        track=Track.SCHEDULING, seed=seed,
        scheduling=SchedulingConfig(num_robots=num_robots, objective=QOS))


def traffic_scenario(seed=3):
    return ScenarioConfig(
        track=Track.TRAFFIC, seed=seed,
        traffic=TrafficConfig(num_vehicles=10, episode_s=30.0))


# ---------------------------------------------------------------------------
# Records


def test_record_json_is_deterministic_and_timeless():
    scenario = sched_scenario()
    a = run(scenario, "round_robin")
    b = run(scenario, "round_robin")
    assert record_to_json(a) == record_to_json(b)
    doc = json.loads(record_to_json(a))
    assert set(doc) == {"track", "method", "seed", "config_digest",
                        "package_version", "status", "metrics", "details"}
    assert "wall_time_s" not in doc and "error" not in doc
    assert record_to_json(a).endswith("\n")


def test_record_from_dict_round_trips_json():
    ok = run(sched_scenario(), "round_robin")
    failed = run_safe(sched_scenario(), "no_such_method")
    for rec in (ok, failed):
        back = record_from_dict(json.loads(record_to_json(rec)))
        assert back == rec
        assert record_to_json(back) == record_to_json(rec)


def test_config_digest_tracks_content():
    assert config_digest(sched_scenario(5)) == config_digest(sched_scenario(5))
    assert config_digest(sched_scenario(5)) != config_digest(sched_scenario(6))
    assert len(config_digest(sched_scenario())) == 64


def test_scheduling_methods_rank_as_expected():
    scenario = sched_scenario()
    rr = run(scenario, "round_robin")
    ga = run(scenario, "ga")
    bf = run(scenario, "brute_force")
    key = lambda r: (r.metrics["level"], r.metrics["score"])
    assert key(rr) <= key(ga) <= key(bf)
    assert set(ga.metrics) == {"score", "level", "generations"}
    assert ga.details["alloc"] and len(ga.details["alloc"]) == 9


def test_opro_mock_run_metrics():
    rec = run(sched_scenario(), "opro_mock")
    assert rec.status == "ok"
    assert rec.metrics["success"] == 1.0
    assert rec.metrics["iterations"] >= 1.0
    assert rec.details["segments"] == ["qos_sum_rate"]


def test_traffic_run_metrics():
    rec = run(traffic_scenario(), "greedy", {"observation": "rsu"})
    assert rec.status == "ok"
    assert set(rec.metrics) == {"avg_speed_mps", "throughput_veh",
                                "mean_wait_s", "episode_s", "num_vehicles"}
    assert rec.details == {"observation": "rsu"}


def test_channel_geometry_run_hits_the_floor():
    scenario = load_fixture_scene(1)
    rec = run(scenario, "geometry")
    assert rec.status == "ok"
    assert rec.metrics["nmse_db_max"] == -150.0
    assert rec.metrics["num_users"] == 25.0


def test_channel_run_counters_on_shadowed_scene():
    # Fixture scene 3 puts three of its 25 default users in full shadow:
    # no path reaches them, which is what makes its map NMSE non-finite.
    scenario = load_fixture_scene(3)
    counters = {m: run(scenario, m).details["counters"]
                for m in ("geometry", "nn_ckm")}
    assert counters["geometry"] == {"los_users": 4, "reflection_paths": 22,
                                    "shadowed_users": 3, "ckm_points": 0}
    assert counters["nn_ckm"] == dict(counters["geometry"], ckm_points=484)


# sha256 over record_to_json of every (seed, scene, method) run below, in
# that order.  Computed before the channel-map path became array-native;
# change it only with a deliberate change to the channel metrics or
# counters, and say so.
CHANNEL_RECORDS_SHA256 = (
    "a3c34b240961b79c55b7e06a3096bad9f63423cf15d63daf5f9fe37cfc56874d")


def test_channel_records_are_pinned():
    # The reference scene and the four fixture scenes under every channel
    # method; scenes 3 and 4 have shadowed users and an infinite mean NMSE
    # on these seeds.
    text = (REPO / "docs" / "config-schema" / "channel.json").read_text(
        encoding="utf-8")
    docs = [scenario_to_dict(build_scenario(text))]
    docs += [scenario_to_dict(load_fixture_scene(i)) for i in (1, 2, 3, 4)]
    digest = hashlib.sha256()
    for seed in (1, 2):
        for doc in docs:
            for method in CHANNEL_METHODS:
                rec = run(scenario_from_dict(dict(doc, seed=seed)), method)
                digest.update(record_to_json(rec).encode("utf-8"))
    assert digest.hexdigest() == CHANNEL_RECORDS_SHA256


def test_run_safe_captures_failures_as_records():
    rec = run_safe(sched_scenario(), "no_such_method")
    assert rec.status == "error"
    assert rec.error.startswith("ValueError")
    assert rec.metrics == {}
    doc = json.loads(record_to_json(rec))
    assert doc["error"].startswith("ValueError")


def test_user_position_helpers():
    scenario = load_fixture_scene(2)
    users = default_user_positions(scenario, num_users=7)
    assert users.shape == (7, 3)
    half = scenario.channel.road_halfwidth_m
    assert np.all(np.abs(users[:, 1]) <= half - 0.5)
    np.testing.assert_array_equal(
        users, default_user_positions(scenario, num_users=7))
    grid = ckm_grid_positions(scenario)
    assert grid.shape == (scenario.channel.num_lanes * 121, 3)
    assert (grid[:, 0].min(), grid[:, 0].max()) == (0.0, 30.0)
    assert set(grid[:, 2]) == {scenario.channel.user_height_m}


# ---------------------------------------------------------------------------
# Sweeps


def test_sweep_cross_product_and_csvs():
    sw = sweep(sched_scenario(), ["round_robin", "ga"], [1, 2],
               axis_name="scheduling.num_robots", axis_values=[2, 3])
    assert len(sw.cells) == 8
    assert sw.all_ok
    assert {c.record.seed for c in sw.cells} == {1, 2}

    cells = cells_csv(sw).splitlines()
    assert cells[0] == ("axis,axis_value,seed,method,status,error,"
                        "generations,level,score")
    assert len(cells) == 9
    some_score = sw.cells[0].record.metrics["score"]
    assert repr(some_score) in cells_csv(sw)  # repr floats round-trip

    summary = summary_csv(sw).splitlines()
    assert summary[0] == "axis,axis_value,method,metric,mean,min,max,n"
    # 2 axis values x (2 metrics for rr + 3 for ga)
    assert len(summary) == 1 + 2 * (2 + 3)
    assert all(row.endswith(",2") for row in summary[1:])  # n == len(seeds)


def test_sweep_records_invalid_cells_and_continues():
    sw = sweep(sched_scenario(), ["round_robin"], [1],
               axis_name="scheduling.num_robots", axis_values=[0, 3])
    assert len(sw.cells) == 2
    assert not sw.all_ok
    bad, good = sw.cells
    assert bad.record.status == "error" and "num_robots" in bad.record.error
    assert good.record.status == "ok"
    assert "error" in cells_csv(sw)
    # Summary covers only the ok cells.
    assert "round_robin,score" in summary_csv(sw).replace('"', "")


# ---------------------------------------------------------------------------
# CLI


def write_config(tmp_path, scenario, name="cfg.json"):
    path = tmp_path / name
    path.write_text(scenario_to_json(scenario), encoding="utf-8")
    return str(path)


def test_cli_schedule_emits_and_saves_record(tmp_path, capsys):
    cfg = write_config(tmp_path, sched_scenario())
    out = tmp_path / "runs"
    code = main(["schedule", "--config", cfg, "--method", "round_robin",
                 "--out", str(out)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["method"] == "round_robin" and doc["status"] == "ok"
    name = f"run-scheduling-round_robin-{doc['config_digest'][:12]}.json"
    assert (out / name).read_text(encoding="utf-8") == \
        record_to_json(run(sched_scenario(), "round_robin"))


REFERENCE_SCHEDULING = REPO / "docs" / "config-schema" / "scheduling.json"


def readme_commands(runs: Path) -> list[list[str]]:
    """The README's `autocomm` command block as argument lists: backslash
    continuations joined, `#` comments dropped, `runs/` pointed at runs."""
    text = (REPO / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```sh\n(autocomm .*?)```", text, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [[str(runs) if a == "runs/" else a
             for a in shlex.split(line, comments=True)]
            for line in lines if line.strip()]


def test_readme_commands_run_and_rerun_byte_identically(
        tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(REPO)
    runs = tmp_path / "runs"
    commands = readme_commands(runs)
    assert [c[:2] for c in commands][-2:] == [["autocomm", "sweep"],
                                              ["autocomm", "report"]]
    for cmd in commands:
        assert main(cmd[1:]) == 0, cmd
    first = {p.name: p.read_bytes() for p in runs.iterdir()}
    assert "report.txt" in first
    assert sum(n.startswith("sweep-") and n.endswith(".csv")
               for n in first) == 2
    for cmd in commands[-2:]:
        assert main(cmd[1:]) == 0, cmd
    capsys.readouterr()
    assert {p.name: p.read_bytes() for p in runs.iterdir()} == first


def test_cli_reference_brute_force(tmp_path, capsys):
    # The README's exact-oracle command on the 10-robot reference scene.
    code = main(["schedule", "--config", str(REFERENCE_SCHEDULING),
                 "--method", "brute_force", "--seed", "9",
                 "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "ok" and doc["metrics"]["level"] == 2.0
    assert len(doc["details"]["alloc"]) == 9


@pytest.mark.parametrize("kind", ["pf", "qos_sum_rate", "qos_pf"])
def test_search_methods_near_reference_scale_optimum(kind):
    """GA within 1% and the mock engine within 2% of the exact 10-robot
    optimum of the reference scene, at the optimum's level."""
    doc = json.loads(REFERENCE_SCHEDULING.read_text(encoding="utf-8"))
    doc["scheduling"]["objective"] = {"kind": kind}
    for seed in range(1, 11):
        scenario = scenario_from_dict(dict(doc, seed=seed))
        exact, ga, mock = (run(scenario, method) for method in
                           ("brute_force", "ga", "opro_mock"))
        best = exact.metrics
        for rec, ratio in ((ga, 0.99), (mock, 0.98)):
            assert rec.metrics["level"] == best["level"], (seed, rec.method)
            assert (best["score"] >= rec.metrics["score"]
                    >= ratio * best["score"]), (seed, rec.method)


def test_cli_seed_override(tmp_path, capsys):
    cfg = write_config(tmp_path, sched_scenario(seed=5))
    assert main(["schedule", "--config", cfg, "--seed", "9",
                 "--method", "round_robin"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 9


def test_cli_opro_mock_with_switch(tmp_path, capsys):
    cfg = write_config(tmp_path, sched_scenario())
    out = tmp_path / "runs"
    code = main(["opro", "--config", cfg, "--engine", "mock",
                 "--switch",
                 '{"at_iteration": 10, "objective": "pf"}',
                 "--out", str(out)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["details"]["segments"] == ["qos_sum_rate", "pf"]
    files = list(out.glob("run-scheduling-opro_mock-switch-*.json"))
    assert len(files) == 1


def test_cli_traffic_rsu(tmp_path, capsys):
    cfg = write_config(tmp_path, traffic_scenario())
    out = tmp_path / "runs"
    code = main(["traffic", "--config", cfg, "--controller", "round_robin",
                 "--observation", "rsu", "--out", str(out)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["details"] == {"observation": "rsu"}
    assert list(out.glob("run-traffic-round_robin-rsu-*.json"))


def test_cli_channel(tmp_path, capsys):
    cfg = write_config(tmp_path, load_fixture_scene(1))
    assert main(["channel", "--config", cfg, "--method", "geometry"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["metrics"]["nmse_db_max"] == -150.0


def test_cli_mismatched_track_fails_cleanly(tmp_path, capsys):
    cfg = write_config(tmp_path, traffic_scenario())
    assert main(["schedule", "--config", cfg, "--method", "ga"]) == 1
    assert json.loads(capsys.readouterr().out)["status"] == "error"


def test_cli_sweep_writes_csvs(tmp_path, capsys):
    cfg = write_config(tmp_path, sched_scenario())
    out = tmp_path / "runs"
    code = main(["sweep", "--config", cfg, "--methods", "round_robin",
                 "--seeds", "1,2", "--axis", "scheduling.num_robots=2,3",
                 "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("axis,axis_value,method,metric,")
    digest = config_digest(sched_scenario())[:12]
    cells = (out / f"sweep-cells-{digest}.csv").read_text(encoding="utf-8")
    assert (out / f"sweep-summary-{digest}.csv").read_text(
        encoding="utf-8") == stdout
    assert cells.count("\n") == 5  # header + 2 axis values x 2 seeds


def test_cli_sweep_bad_axis_value_exits_nonzero(tmp_path, capsys):
    cfg = write_config(tmp_path, sched_scenario())
    code = main(["sweep", "--config", cfg, "--methods", "round_robin",
                 "--seeds", "1", "--axis", "scheduling.num_robots=0"])
    assert code == 1
    capsys.readouterr()


def test_cli_report_roundtrip(tmp_path, capsys):
    cfg = write_config(tmp_path, sched_scenario())
    runs = tmp_path / "runs"
    main(["schedule", "--config", cfg, "--method", "round_robin",
          "--out", str(runs)])
    main(["schedule", "--config", cfg, "--seed", "6",
          "--method", "round_robin", "--out", str(runs)])
    capsys.readouterr()
    rep = tmp_path / "rep"
    assert main(["report", "--runs", str(runs), "--out", str(rep)]) == 0
    text = capsys.readouterr().out
    assert "scheduling/round_robin" in text
    assert "score: mean=" in text
    assert "n=2" in text
    assert (rep / "report.txt").read_text(encoding="utf-8") == text


def test_cli_version_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
