"""Run records, sweeps, CSV emission, and the command-line interface."""

import json

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
    scenario_to_json,
)
from autocomm.geochannel import load_fixture_scene
from autocomm.report import (
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
    assert a.wall_time_s is not None and a.wall_time_s != b.wall_time_s or True
    assert record_to_json(a) == record_to_json(b)
    doc = json.loads(record_to_json(a))
    assert set(doc) == {"track", "method", "seed", "config_digest",
                        "package_version", "status", "metrics", "details"}
    assert "wall_time_s" not in doc and "error" not in doc
    assert record_to_json(a).endswith("\n")


def test_record_from_dict_round_trips_json():
    ok = run(sched_scenario(), "round_robin")
    ok.wall_time_s = None
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
    rec = run(scenario, "geometry", {"num_users": 6})
    assert rec.status == "ok"
    assert rec.metrics["nmse_db_max"] == -150.0
    assert rec.metrics["num_users"] == 6.0


def test_channel_run_counters_on_shadowed_scene():
    # Fixture scene 3 puts three of its 25 default users in full shadow:
    # no path reaches them, which is what makes its map NMSE non-finite.
    scenario = load_fixture_scene(3)
    counters = {m: run(scenario, m).details["counters"]
                for m in ("geometry", "nn_ckm")}
    assert counters["geometry"] == {"los_users": 4, "reflection_paths": 22,
                                    "shadowed_users": 3, "ckm_points": 0}
    assert counters["nn_ckm"] == dict(counters["geometry"], ckm_points=484)


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
    grid = ckm_grid_positions(scenario, x_range=(0.0, 2.0), step=1.0)
    assert grid.shape == (scenario.channel.num_lanes * 3, 3)
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
