"""Run records, sweeps, CSV emission, and the command-line interface."""

import csv
import dataclasses
import hashlib
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from autocomm import geochannel, report, traffic
from autocomm.cli import _parse_axis, main
from autocomm.configs import (
    ConfigError,
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
from autocomm.geochannel import (
    build_ckm,
    fit_linear_gcp,
    geometry_predictor,
    load_fixture_scene,
)
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


CKM_ARRAYS = ("positions", "channels", "present", "gains", "sin_aod")


def assert_same_map(a, b):
    """a and b hold the same slots and, array by array, the same bits."""
    assert a.slots == b.slots
    for name in CKM_ARRAYS:
        x, y = getattr(a, name), getattr(b, name)
        assert (x.dtype, x.shape) == (y.dtype, y.shape), name
        assert x.tobytes() == y.tobytes(), name


def fresh_grid_map(cfg):
    return build_ckm(cfg, ckm_grid_positions(cfg))


def test_grid_map_hit_is_a_read_only_copy_of_a_fresh_build():
    report._grid_ckm_cached.cache_clear()
    first = report._grid_ckm(load_fixture_scene(2).channel)
    # An equal config from another document is a hit.
    cfg = load_fixture_scene(2).channel
    hit = report._grid_ckm(cfg)
    assert hit is first
    assert report._grid_ckm_cached.cache_info().hits == 1
    assert_same_map(hit, fresh_grid_map(cfg))
    for name in CKM_ARRAYS:
        with pytest.raises(ValueError, match="read-only"):
            getattr(hit, name)[0] = 0


def test_grid_map_cache_tells_configs_apart():
    report._grid_ckm_cached.cache_clear()
    cfg = load_fixture_scene(1).channel
    fewer = dataclasses.replace(cfg, num_antennas=8)
    # Equal under == and hash, but not the same document.
    signed = dataclasses.replace(cfg, reflection_coeff=complex(0.6, -0.0))
    assert cfg.reflection_coeff == complex(0.6, 0.0) and signed == cfg
    maps = [report._grid_ckm(c) for c in (cfg, fewer, signed)]
    assert report._grid_ckm_cached.cache_info().currsize == 3
    assert len({id(m) for m in maps}) == 3
    assert maps[1].channels.shape == (484, 8)
    for c, m in zip((cfg, fewer, signed), maps):
        assert_same_map(m, fresh_grid_map(c))


def test_grid_map_cache_stays_at_its_bound():
    report._grid_ckm_cached.cache_clear()
    bound = report._grid_ckm_cached.cache_info().maxsize
    cfg = load_fixture_scene(1).channel
    for n in range(1, bound + 3):
        report._grid_ckm(dataclasses.replace(cfg, num_antennas=n))
        assert report._grid_ckm_cached.cache_info().currsize == min(n, bound)


@pytest.mark.parametrize("coeff", [[0.0, 0.0], [5e-324, 0.0]])
@pytest.mark.parametrize("method", CHANNEL_METHODS)
def test_a_zero_gain_reflection_is_absent(coeff, method):
    # A zero coefficient, and one whose gains underflow to zero, leave the
    # reflections geometry allows with nothing to carry: they are absent
    # from the map, so linear_gcp never fits the log of a zero amplitude.
    doc = json.loads((REPO / "docs" / "config-schema" / "channel.json")
                     .read_text(encoding="utf-8"))
    doc["channel"]["reflection_coeff"] = coeff
    rec = run_safe(scenario_from_dict(doc), method)
    assert rec.status == "ok", rec.error
    assert all(np.isfinite(v) for v in rec.metrics.values())
    assert rec.details["counters"]["reflection_paths"] == 0
    assert rec.details["counters"]["los_users"] == 25


def test_sweep_builds_the_grid_map_once(monkeypatch):
    calls = {"grid": 0, "truth": 0, "fit": 0}

    def counting_build(cfg, positions):
        calls["grid" if len(positions) == 484 else "truth"] += 1
        return build_ckm(cfg, positions)

    def counting_fit(cfg, ckm):
        calls["fit"] += 1
        return fit_linear_gcp(cfg, ckm)

    monkeypatch.setattr(report, "build_ckm", counting_build)
    monkeypatch.setattr(report, "fit_linear_gcp", counting_fit)
    report._grid_ckm_cached.cache_clear()
    sw = sweep(load_fixture_scene(1), ["nn_ckm", "linear_gcp"], [1, 2, 3])
    assert sw.all_ok and len(sw.cells) == 6
    assert calls == {"grid": 1, "truth": 6, "fit": 3}
    assert {c.record.details["counters"]["ckm_points"]
            for c in sw.cells} == {484}


def test_a_geometry_run_prepares_its_scene_once(monkeypatch):
    calls = {"prepare": 0, "predict": 0, "truth": 0}
    prepare = geochannel._prepare

    def counting_prepare(*args):
        calls["prepare"] += 1
        return prepare(*args)

    def counting_predict(cfg, user):
        calls["predict"] += 1
        return geometry_predictor(cfg, user)

    def counting_build(cfg, positions):
        calls["truth"] += 1
        return build_ckm(cfg, positions)

    monkeypatch.setattr(geochannel, "_prepare", counting_prepare)
    monkeypatch.setattr(report, "geometry_predictor", counting_predict)
    monkeypatch.setattr(report, "build_ckm", counting_build)
    geochannel._scene_of.cache_clear()
    assert run(load_fixture_scene(2), "geometry").status == "ok"
    assert calls == {"prepare": 1, "predict": 25, "truth": 1}


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


# sha256 over the bytes of every channel below: per scene, the geometry
# predictor's channel of each default user, in order, then the truth map's
# channels of the same users.  The records see only NMSE values, and on
# these scenes the geometry predictor sits at the -150 dB floor, so they
# cannot see a predicted or true channel move.  Computed before the scene
# geometry was prepared once per config; change it only with a deliberate
# change to the channel model, and say so.
CHANNEL_BITS_SHA256 = (
    "3b350c84d182ae63d4453a65e14deb07a185fb92275e1c506ae15ec4206242e5")


def test_channel_bits_are_pinned():
    text = (REPO / "docs" / "config-schema" / "channel.json").read_text(
        encoding="utf-8")
    scenarios = [build_scenario(text)]
    scenarios += [load_fixture_scene(i) for i in (1, 2, 3, 4)]
    digest = hashlib.sha256()
    for scenario in scenarios:
        cfg = scenario.channel
        users = default_user_positions(scenario)
        for u in users:
            digest.update(geometry_predictor(cfg, u).tobytes())
        digest.update(build_ckm(cfg, users).channels.tobytes())
    assert digest.hexdigest() == CHANNEL_BITS_SHA256


# sha256 over record_to_json of every (seed, vehicles, method, observation)
# run below, in that order.  Computed before the traffic step loop, the
# invariant check and the observation encoder were rewritten for speed;
# change it only with a deliberate change to the traffic model or metrics,
# and say so.
TRAFFIC_RECORDS_SHA256 = (
    "7371064d1a62906fd54d83b00f5a565191f16ed4c50bfaab109a249cf90bb39b")


def pinned_traffic_runs():
    """(scenario, method, opts) of every run the traffic pins cover.

    The reference document under both controllers and both sensors at 80
    vehicles, and under the greedy controller with both sensors at 160,
    where the connected-vehicle view drops rows to fit its byte budget.
    """
    text = (REPO / "docs" / "config-schema" / "traffic.json").read_text(
        encoding="utf-8")
    doc = scenario_to_dict(build_scenario(text))
    big = dict(doc, traffic=dict(doc["traffic"], num_vehicles=160))
    kinds = [(doc, m, obs) for m in ("greedy", "round_robin")
             for obs in ("vue", "rsu")]
    kinds += [(big, "greedy", obs) for obs in ("vue", "rsu")]
    for seed in (1, 2):
        for base, method, obs in kinds:
            yield (scenario_from_dict(dict(base, seed=seed)), method,
                   {"observation": obs})


def test_traffic_records_are_pinned():
    digest = hashlib.sha256()
    for scenario, method, opts in pinned_traffic_runs():
        rec = run(scenario, method, opts)
        digest.update(record_to_json(rec).encode("utf-8"))
    assert digest.hexdigest() == TRAFFIC_RECORDS_SHA256


# sha256 over repr((payload, dropped_vehicles, repr(foreground_fraction)))
# of every observation the pinned traffic runs encode, in call order.  The
# greedy controller reads only the lane summaries and the phase, and round
# robin reads nothing, so the records alone cannot see a vehicle row.
# Computed before the encoder stopped formatting the rows it drops; change
# it only with a deliberate change to the observation format, and say so.
OBSERVATION_PAYLOADS_SHA256 = (
    "55225dca80e1bee676eafd616e6627820bebc8a548f04920ea1df19a8ee82fbf")


def test_observation_payloads_are_pinned(monkeypatch):
    digest = hashlib.sha256()
    encode = traffic.encode_observation

    def recording(state, kind, cfg):
        obs = encode(state, kind, cfg)
        digest.update(repr((obs.payload, obs.dropped_vehicles,
                            repr(obs.foreground_fraction))).encode("utf-8"))
        return obs

    monkeypatch.setattr(traffic, "encode_observation", recording)
    for scenario, method, opts in pinned_traffic_runs():
        assert run(scenario, method, opts).status == "ok"
    assert digest.hexdigest() == OBSERVATION_PAYLOADS_SHA256


# sha256 over record_to_json of every (seed, robots, objective, method) run
# below, in that order, then of the switched opro_mock runs.  Computed
# before the GA generation loop and the scoring kernel were rewritten for
# speed; change it only with a deliberate change to a scheduling method's
# draws, ranking or scores, and say so.
SCHEDULING_RECORDS_SHA256 = (
    "1e47f8e2ce2cb7d3513d852df2b1da13360f8b38396667828b8519198b9a9dbf")


def test_scheduling_records_are_pinned():
    # The 10-robot reference document and its 4-robot variant under every
    # objective and every offline method, then the mock engine with the
    # README's pf -> qos_sum_rate switch.
    doc = json.loads(REFERENCE_SCHEDULING.read_text(encoding="utf-8"))
    small = dict(doc, scheduling=dict(doc["scheduling"], num_robots=4))
    switch = {"at_iteration": 60, "objective": "qos_sum_rate"}
    digest = hashlib.sha256()
    for seed in (1, 2):
        for base in (doc, small):
            for kind in ("pf", "qos_sum_rate", "qos_pf"):
                section = dict(base["scheduling"], objective={"kind": kind})
                scenario = scenario_from_dict(
                    dict(base, seed=seed, scheduling=section))
                for method in ("ga", "brute_force", "round_robin",
                               "opro_mock"):
                    digest.update(record_to_json(
                        run(scenario, method)).encode("utf-8"))
    for seed in (1, 2):
        for base in (doc, small):
            rec = run(scenario_from_dict(dict(base, seed=seed)), "opro_mock",
                      {"switch": switch})
            digest.update(record_to_json(rec).encode("utf-8"))
    assert digest.hexdigest() == SCHEDULING_RECORDS_SHA256


# sha256 over every prompt and raw response the mock engine sees and gives in
# the runs below, in call order.  Computed before the loop formatted the
# segment-constant prompt head once per segment and the mock parsed it once;
# change it only with a deliberate change to the prompt text or the mock's
# draws, and say so.
OPRO_TRANSCRIPT_SHA256 = (
    "0d62e858c53228ccd9561f011de881c22924c7e32229ff174e9c341ea3d3d218")


def test_opro_transcripts_are_pinned(monkeypatch):
    # opro_mock on the 10-robot reference document for pf, qos_sum_rate and
    # the README's pf -> qos_sum_rate switch.
    digest = hashlib.sha256()

    class Recording(report.MockLocalSearchEngine):
        def propose(self, prompt):
            raw = super().propose(prompt)
            digest.update(prompt.encode("utf-8"))
            digest.update(raw.encode("utf-8"))
            return raw

    monkeypatch.setattr(report, "MockLocalSearchEngine", Recording)
    doc = json.loads(REFERENCE_SCHEDULING.read_text(encoding="utf-8"))
    switch = {"at_iteration": 60, "objective": "qos_sum_rate"}
    for seed in (1, 2):
        for kind, opts in (("pf", {}), ("qos_sum_rate", {}),
                           ("pf", {"switch": switch})):
            section = dict(doc["scheduling"], objective={"kind": kind})
            rec = run(scenario_from_dict(dict(doc, seed=seed,
                                              scheduling=section)),
                      "opro_mock", opts)
            assert rec.status == "ok"
    assert digest.hexdigest() == OPRO_TRANSCRIPT_SHA256


# sha256 over every prompt and raw response the mock engine sees and gives in
# the runs below, in call order.  Computed before the mock prepared its
# greedy start and alternative robots once per head and the loop formatted
# each exemplar line once per segment; change it only with a deliberate
# change to the prompt text or the mock's draws, and say so.
OPRO_CAPPED_QOS_PF_TRANSCRIPT_SHA256 = (
    "99f79bcd1a4f0dad25640f950606f2a584d596b1a81c66b659fbf7661c23f7f9")


def test_opro_capped_and_qos_pf_transcripts_are_pinned(monkeypatch):
    # opro_mock on the 10-robot reference document under qos_pf, and under
    # RB caps of 1 and 2 (with a qos_pf -> qos_sum_rate switch): the prompt
    # heads the pin above never shows.
    digest = hashlib.sha256()

    class Recording(report.MockLocalSearchEngine):
        def propose(self, prompt):
            raw = super().propose(prompt)
            digest.update(prompt.encode("utf-8"))
            digest.update(raw.encode("utf-8"))
            return raw

    monkeypatch.setattr(report, "MockLocalSearchEngine", Recording)
    doc = json.loads(REFERENCE_SCHEDULING.read_text(encoding="utf-8"))
    switch = {"at_iteration": 60, "objective": "qos_sum_rate"}
    for seed in (1, 2):
        for kind, cap, opts in (("qos_pf", None, {}), ("pf", 2, {}),
                                ("qos_sum_rate", 2, {}), ("qos_pf", 1, {}),
                                ("qos_pf", 2, {"switch": switch})):
            section = dict(doc["scheduling"], objective={"kind": kind},
                           max_rbs_per_robot=cap)
            rec = run(scenario_from_dict(dict(doc, seed=seed,
                                              scheduling=section)),
                      "opro_mock", opts)
            assert rec.status == "ok"
    assert digest.hexdigest() == OPRO_CAPPED_QOS_PF_TRANSCRIPT_SHA256


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
    grid = ckm_grid_positions(scenario.channel)
    assert grid.shape == (scenario.channel.num_lanes * 121, 3)
    assert (grid[:, 0].min(), grid[:, 0].max()) == (0.0, 30.0)
    assert set(grid[:, 2]) == {scenario.channel.user_height_m}


# ---------------------------------------------------------------------------
# Sweeps


def test_sweep_refuses_the_seed_as_an_axis():
    # Each cell would run with the axis value as its seed while the cells
    # CSV reported the seeds argument.
    with pytest.raises(ValueError, match="seed is not a sweep axis"):
        sweep(sched_scenario(), ["round_robin"], [5], axis_name="seed",
              axis_values=[1, 2])


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


def test_summary_lists_axis_values_in_sweep_order():
    # As strings "10" < "2"; the summary keeps the order the sweep visited.
    sw = sweep(sched_scenario(), ["round_robin"], [1, 2],
               axis_name="scheduling.num_robots", axis_values=[2, 10, 3])
    rows = summary_csv(sw).splitlines()[1:]
    values = [row.split(",")[1] for row in rows]
    assert values == ["2", "2", "10", "10", "3", "3"]    # level, score each


def test_summary_groups_object_axis_values():
    sw = sweep(sched_scenario(), ["round_robin"], [1, 2],
               axis_name="scheduling.objective",
               axis_values=[{"kind": "qos_sum_rate"}, {"kind": "pf"}])
    assert sw.all_ok
    rows = summary_csv(sw).splitlines()[1:]
    assert len(rows) == 2 * 2            # 2 values x (level, score)
    assert all(row.endswith(",2") for row in rows)
    # JSON text, in the order the sweep visited the values.
    texts = ['"{""kind"": ""qos_sum_rate""}"', '"{""kind"": ""pf""}"']
    assert [row.split(",round_robin,")[0] for row in rows] == [
        f"scheduling.objective,{t}" for t in texts for _ in range(2)]
    cells = cells_csv(sw)
    assert all(f",{t}," in cells for t in texts)


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


@pytest.mark.parametrize("section, error", [
    # Three robots capped at two RBs each cannot fill nine RBs.
    ({"num_robots": 3, "max_rbs_per_robot": 2},
     "max_rbs_per_robot 2 lets 3 eligible robots hold at most 6 of 9 RBs"),
    ({"num_robots": 3, "buffer_occupancy_prob": 0.0},
     "no eligible robots to schedule"),
])
@pytest.mark.parametrize("command", [
    ["schedule", "--method", "brute_force"],
    ["schedule", "--method", "ga"],
    ["schedule", "--method", "round_robin"],
    ["opro", "--engine", "mock"],
])
def test_cli_run_without_a_valid_allocation_is_an_error(tmp_path, capsys,
                                                        command, section,
                                                        error):
    # No vector is valid, so the run fails with strict JSON instead of
    # reporting a score of -inf.
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"track": "scheduling", "seed": 3,
                                "scheduling": section}), encoding="utf-8")
    assert main(command + ["--config", str(path)]) == 1
    doc = json.loads(capsys.readouterr().out, parse_constant=pytest.fail)
    assert doc["status"] == "error" and doc["metrics"] == {}
    assert doc["error"] == f"ValueError: {error}"


def test_cli_seed_override(tmp_path, capsys):
    cfg = write_config(tmp_path, sched_scenario(seed=5))
    assert main(["schedule", "--config", cfg, "--seed", "9",
                 "--method", "round_robin"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 9


@pytest.mark.parametrize("text", ["[1, 2]", '"abc"', "3"])
def test_cli_config_that_is_not_an_object_is_a_config_error(tmp_path, capsys,
                                                            text):
    # The document-level ConfigError, reported as a usage error.
    path = tmp_path / "scenario.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["schedule", "--config", str(path), "--seed", "3"])
    assert exc.value.code == 2
    assert f"argument --config: {path}: document: " in capsys.readouterr().err


SCHED_JSON = scenario_to_json(sched_scenario())


@pytest.mark.parametrize("files, argv, named", [
    ({}, ["schedule", "--config", "missing.json"],
     "argument --config: cannot read missing.json"),
    ({"cfg.json": "{"}, ["schedule", "--config", "cfg.json"],
     "argument --config: cfg.json is not JSON"),
    ({"cfg.json": '{"track": "scheduling", "seed": 1, '
                  '"scheduling": {"num_robots": "x"}}'},
     ["schedule", "--config", "cfg.json"],
     "argument --config: cfg.json: scheduling.num_robots: "),
    ({"cfg.json": '{"track": "traffic", "seed": 1, '
                  '"traffic": {"num_vehicles": 0}}'},
     ["traffic", "--config", "cfg.json"],
     "argument --config: cfg.json: traffic.num_vehicles: must be >= 1"),
    ({"cfg.json": SCHED_JSON},
     ["opro", "--config", "cfg.json", "--switch", "notjson"],
     "argument --switch: --switch expects a JSON document, got 'notjson'"),
    ({"cfg.json": SCHED_JSON},
     ["sweep", "--config", "cfg.json", "--methods", "opro_mock",
      "--seeds", "1", "--switch", "notjson"],
     "argument --switch: --switch expects a JSON document, got 'notjson'"),
    ({"cfg.json": SCHED_JSON},
     ["sweep", "--config", "cfg.json", "--methods", " , ", "--seeds", "1"],
     "argument --methods: --methods expects at least one method name"),
    ({"cfg.json": SCHED_JSON},
     ["sweep", "--config", "cfg.json", "--methods", "ga", "--seeds", ""],
     "argument --seeds: --seeds expects at least one seed"),
    ({"cfg.json": SCHED_JSON},
     ["sweep", "--config", "cfg.json", "--methods", "ga", "--seeds", "1",
      "--axis", "scheduling.num_robots="],
     "argument --axis: --axis expects at least one value"),
    ({"runs/run-a.json": "[1, 2]"}, ["report", "--runs", "runs"],
     "argument --runs: runs/run-a.json is not a run record"),
    ({"runs/run-a.json": '{"track": "scheduling"}'},
     ["report", "--runs", "runs"],
     "argument --runs: runs/run-a.json is not a run record"),
    ({"runs/run-a.json": json.dumps({
        "track": "scheduling", "method": "ga", "seed": 1,
        "config_digest": "0" * 64, "package_version": "0.1.0",
        "status": "ok", "metrics": {"score": "high"}, "details": {}})},
     ["report", "--runs", "runs"],
     "argument --runs: runs/run-a.json is not a run record: metrics"),
    ({"runs/run-a.json": "{"}, ["report", "--runs", "runs"],
     "argument --runs: runs/run-a.json is not JSON"),
    ({}, ["report", "--runs", "runs"], "argument --runs: cannot read runs"),
], ids=["config-missing", "config-not-json", "config-ill-typed",
        "config-no-vehicles", "opro-switch-not-json", "sweep-switch-not-json", "sweep-no-methods",
        "sweep-no-seeds", "sweep-no-axis-values", "runs-not-object",
        "runs-fields-missing", "runs-metrics-not-numbers", "runs-not-json",
        "runs-missing"])
def test_cli_bad_input_is_a_usage_error(tmp_path, monkeypatch, capsys, files,
                                        argv, named):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(text, encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert named in capsys.readouterr().err


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


@pytest.mark.parametrize("switch, field", [
    ({"at_iteration": 500, "objective": "qos_sum_rate"}, "switch.at_iteration"),
    ({"at_iteration": 200, "objective": "qos_sum_rate"}, "switch.at_iteration"),
    ({"at_iteration": 0, "objective": "qos_sum_rate"}, "switch.at_iteration"),
    ({"at_iteration": -5, "objective": "qos_sum_rate"}, "switch.at_iteration"),
    ({"at_iteration": 60.7, "objective": "qos_sum_rate"}, "switch.at_iteration"),
    ({"at_iteration": True, "objective": "qos_sum_rate"}, "switch.at_iteration"),
    ({"at_iteration": "60", "objective": "qos_sum_rate"}, "switch.at_iteration"),
    ({"objective": "qos_sum_rate"}, "switch.at_iteration"),
    ({"at_iteration": 60}, "switch.objective"),
    ({"at_iteration": 60, "objective": "max_min"}, "switch.objective"),
    ({"at_iteration": 60, "objective": "pf", "min_rate_bps": -1},
     "switch.min_rate_bps"),
    ({"at_iteration": 60, "objective": "pf", "min_rate_bps": True},
     "switch.min_rate_bps"),
    ({"at_iteration": 60, "objective": "pf", "min_rate_bps": None},
     "switch.min_rate_bps"),
    ({"at_iteration": 60, "objective": "pf", "min_rate_bps": float("nan")},
     "switch.min_rate_bps"),
    ({"at_iteration": 60, "objective": "pf", "bogus": 1}, "switch.bogus"),
    ({}, "switch.at_iteration"),
    ([60, "pf"], "switch"),
    ("pf", "switch"),
])
def test_bad_switch_names_the_field(switch, field):
    with pytest.raises(ConfigError) as err:
        run(sched_scenario(), "opro_mock", {"switch": switch})
    assert err.value.field == field


@pytest.mark.parametrize("kind, argv", [
    ("pf", ["schedule", "--method", "round_robin"]),
    ("qos_sum_rate", ["schedule", "--method", "round_robin"]),
    ("pf", ["opro", "--switch",
            '{"at_iteration": 2, "objective": "qos_sum_rate"}']),
], ids=["pf", "qos-inherits", "switch-defaults"])
def test_a_negative_section_min_rate_is_named_as_the_document_sets_it(
        tmp_path, monkeypatch, capsys, kind, argv):
    # With no bound on the section field, a pf run took -5, and a QoS
    # objective or a switch that inherits it named its own min_rate_bps,
    # which the document never set.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(
        {"track": "scheduling", "seed": 1,
         "scheduling": {"num_robots": 3, "min_rate_bps": -5,
                        "objective": {"kind": kind}}}), encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--config", "cfg.json"])
    assert exc.value.code == 2
    assert ("argument --config: cfg.json: scheduling.min_rate_bps: "
            "must be >= 0, got -5.0") in capsys.readouterr().err


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


def test_cli_sweep_over_a_list_axis(tmp_path, capsys):
    cfg = write_config(tmp_path, load_fixture_scene(1))
    code = main(["sweep", "--config", cfg, "--methods", "geometry",
                 "--seeds", "1", "--axis", "channel.buildings=[]"])
    assert code == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == "axis,axis_value,method,metric,mean,min,max,n"
    assert rows[1].startswith("channel.buildings,[],geometry,nmse_db_max,")


def test_cli_sweep_bad_axis_value_exits_nonzero(tmp_path, capsys):
    cfg = write_config(tmp_path, sched_scenario())
    code = main(["sweep", "--config", cfg, "--methods", "round_robin",
                 "--seeds", "1", "--axis", "scheduling.num_robots=0"])
    assert code == 1
    capsys.readouterr()


def test_cli_sweep_axis_through_a_number_records_every_cell(tmp_path,
                                                            capsys):
    cfg = write_config(tmp_path, sched_scenario())
    out = tmp_path / "runs"
    code = main(["sweep", "--config", cfg, "--methods", "round_robin,ga",
                 "--seeds", "1,2", "--axis", "scheduling.num_robots.x=1,2",
                 "--out", str(out)])
    assert code == 1
    capsys.readouterr()
    digest = config_digest(sched_scenario())[:12]
    rows = (out / f"sweep-cells-{digest}.csv").read_text(
        encoding="utf-8").splitlines()[1:]
    assert len(rows) == 8      # 2 axis values x 2 seeds x 2 methods
    assert all(row.endswith(",error,ConfigError: scheduling.num_robots: "
                            "is not an object") for row in rows)


@pytest.mark.parametrize("text, values", [
    ("channel.bs_pos=[-10,6,10]", [[-10, 6, 10]]),
    ('scheduling.objective={"kind":"qos_sum_rate","min_rate_bps":1e6}',
     [{"kind": "qos_sum_rate", "min_rate_bps": 1e6}]),
    ("scheduling.num_robots=2,10,3", [2, 10, 3]),
    ("observation=vue,rsu", ["vue", "rsu"]),
    ("channel.bs_pos=[-10,6,10], [0,8,10]", [[-10, 6, 10], [0, 8, 10]]),
    ('tag="a,b]",c', ["a,b]", "c"]),
    (r'tag=["x\\",{"y":"]"}],2', [["x\\", {"y": "]"}], 2]),
    ("tag=[1,2", ["[1,2"]),
])
def test_axis_values_split_at_top_level_commas(text, values):
    assert _parse_axis(text) == (text.partition("=")[0], values)


def test_cli_sweep_over_two_list_values(tmp_path, capsys):
    cfg = write_config(tmp_path, load_fixture_scene(1))
    out = tmp_path / "runs"
    code = main(["sweep", "--config", cfg, "--methods", "geometry",
                 "--seeds", "1", "--axis",
                 "channel.bs_pos=[-10,6,10],[0,8,10]", "--out", str(out)])
    assert code == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))[1:]
    assert {row[1] for row in rows} == {"[-10, 6, 10]", "[0, 8, 10]"}
    digest = config_digest(load_fixture_scene(1))[:12]
    cells = (out / f"sweep-cells-{digest}.csv").read_text(
        encoding="utf-8").splitlines()[1:]
    assert len(cells) == 2 and all(",ok," in row for row in cells)


@pytest.mark.parametrize("scenario, flag, value, opts", [
    (traffic_scenario(), "--observation", "rsu", {"observation": "rsu"}),
    (sched_scenario(), "--switch", '{"at_iteration": 10, "objective": "pf"}',
     {"switch": {"at_iteration": 10, "objective": "pf"}}),
])
def test_cli_sweep_passes_run_options(tmp_path, capsys, scenario, flag,
                                      value, opts):
    method = "greedy" if flag == "--observation" else "opro_mock"
    cfg = write_config(tmp_path, scenario)
    assert main(["sweep", "--config", cfg, "--methods", method,
                 "--seeds", "1", flag, value]) == 0
    got = capsys.readouterr().out
    assert got == summary_csv(sweep(scenario, [method], [1], opts=opts))
    assert got != summary_csv(sweep(scenario, [method], [1]))


@pytest.mark.parametrize("flag,value,named", [
    ("--seeds", "1,a", "got 'a'"),
    ("--seeds", "1,2.5", "got '2.5'"),
    ("--axis", "scheduling.num_robots", "path=value1,value2"),
    ("--axis", "seed=1,2", "cannot sweep the seed"),
])
def test_cli_sweep_bad_flag_is_a_usage_error(tmp_path, capsys, flag, value,
                                             named):
    cfg = write_config(tmp_path, sched_scenario())
    argv = ["sweep", "--config", cfg, "--methods", "round_robin",
            "--seeds", "1", flag, value]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}:" in err and named in err


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


def test_cli_report_lists_failed_runs(tmp_path, capsys):
    runs = tmp_path / "runs"
    traffic = write_config(tmp_path, traffic_scenario(), "traffic.json")
    assert main(["schedule", "--config", traffic, "--method", "ga",
                 "--out", str(runs)]) == 1
    sched = write_config(tmp_path, sched_scenario())
    assert main(["schedule", "--config", sched, "--method", "round_robin",
                 "--out", str(runs)]) == 0
    capsys.readouterr()
    assert main(["report", "--runs", str(runs)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "scheduling/round_robin"
    at = lines.index("errors: 1")
    assert lines[at + 1].startswith("  traffic/ga seed=3: ValueError: ")
    assert lines[at + 2:] == []


def test_cli_version_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
