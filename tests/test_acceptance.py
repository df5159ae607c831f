"""End-to-end acceptance gate.

One test per shipped criterion, each printing an ACCEPTANCE k: PASS/FAIL
line with the measured margin.  Tolerances and instance counts are part of
the contract; do not loosen them to make a failing criterion pass.
"""

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest
from conftest import record_criterion
from scalar_oracle import (
    facade_coords,
    facade_point,
    grid_search_reflection_oracle,
    point_on_plane,
    rate_vector,
    reflection_residual,
)

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
from autocomm.geochannel import (
    Facade,
    build_ckm,
    fit_linear_gcp,
    geometry_predictor,
    linear_gcp_predict,
    load_fixture_scene,
    nmse_db,
    nn_ckm_predict,
    _ACTIVE,
    _image_stage,
    _prepare,
)
from autocomm.opro import MockLocalSearchEngine, OproParams, opro_optimize_segments
from autocomm.radio import RadioParams, clamp_qos, generate_snr_map
from autocomm.report import default_user_positions, run
from autocomm.rng import stream
from autocomm.scheduling import (
    LEVEL_OK,
    GaParams,
    allocation_rank,
    brute_force_optimal,
    ga_schedule,
)
from autocomm.traffic import QueueGreedyController, RoundRobinController, run_episode

QOS = ObjectiveSpec(kind=ObjectiveKind.QOS_SUM_RATE, min_rate_bps=1e6)
PF = ObjectiveSpec(kind=ObjectiveKind.PF)


def make_instance(seed: int):
    """Frozen acceptance instance family: 2-4 robots, 9 RBs, per-RB fading,
    objectives alternating between QoS sum rate and proportional fairness."""
    num_robots = 2 + seed % 3
    objective = QOS if seed % 2 == 0 else PF
    cfg = SchedulingConfig(num_robots=num_robots, objective=objective)
    snr = generate_snr_map(cfg, RadioParams(fading="rayleigh"),
                           stream(seed, "scheduling/snr"))
    return cfg, snr, objective


# ---------------------------------------------------------------------------
# 1. GA tracks the brute-force optimum


def test_criterion_1_ga_matches_brute_force():
    t0 = time.perf_counter()
    worst = np.inf
    for i in range(100):
        cfg, snr, objective = make_instance(2000 + i)
        bf_alloc, bf_score = brute_force_optimal(cfg, snr, objective)
        ga_alloc, ga_score, _ = ga_schedule(cfg, snr, objective, GaParams(),
                                            stream(2000 + i, "scheduling/ga"))
        assert ga_score >= 0.99 * bf_score - 1e-9, \
            f"instance {i}: GA {ga_score} < 0.99 x {bf_score}"
        if bf_score > 0:
            worst = min(worst, ga_score / bf_score)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    record_criterion(1, True,
                     f"GA >= 0.99x oracle on 100/100 instances "
                     f"(worst ratio {worst:.6f}) in {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 2. Mock-engine loop reaches near-optimal, honestly


def test_criterion_2_mock_opro_near_optimal():
    t0 = time.perf_counter()
    hits = 0
    worst = np.inf
    for i in range(100):
        cfg, snr, objective = make_instance(1000 + i)
        _, bf_score = brute_force_optimal(cfg, snr, objective)
        engine = MockLocalSearchEngine(stream(1000 + i, "scheduling/engine"))
        result = opro_optimize_segments(
            cfg, snr, [(objective, 200)], engine, OproParams())
        seg = result.final
        assert seg.iterations_run <= 200

        # Success is never reported while a QoS violation is outstanding.
        assert not (result.success and seg.best_level != LEVEL_OK)

        # Best-so-far in the transcript is monotone in (level, score).
        keys = [(e.best_level, e.best_score) for e in result.transcript
                if e.best_score is not None]
        assert keys == sorted(keys)

        if (result.best_score is not None
                and result.best_score >= 0.98 * bf_score - 1e-9):
            hits += 1
            if bf_score > 0:
                worst = min(worst, result.best_score / bf_score)
    elapsed = time.perf_counter() - t0
    assert hits >= 95, f"only {hits}/100 instances reached 0.98x oracle"
    record_criterion(2, True,
                     f"{hits}/100 instances >= 0.98x oracle within 200 "
                     f"iterations (worst kept ratio {worst:.4f}); no success "
                     f"with outstanding QoS violation; transcripts monotone; "
                     f"{elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 3. Objective switch mid-sweep, same engine, no restart


def test_criterion_3_objective_switch_mid_sweep():
    worst = np.inf
    for s in range(10):
        seed = 3000 + s
        cfg = SchedulingConfig(num_robots=2 + s % 3, objective=PF)
        snr = generate_snr_map(cfg, RadioParams(fading="rayleigh"),
                               stream(seed, "scheduling/snr"))
        engine = MockLocalSearchEngine(stream(seed, "scheduling/engine"))
        result = opro_optimize_segments(
            cfg, snr, [(PF, 100), (QOS, 100)], engine, OproParams())

        # Both objectives live in one transcript of one engine run.
        assert sorted({e.segment for e in result.transcript}) == [0, 1]
        assert [seg.objective.kind for seg in result.segments] == \
            [ObjectiveKind.PF, ObjectiveKind.QOS_SUM_RATE]
        assert result.segments[0].success and result.segments[1].success

        _, ga_score, _ = ga_schedule(cfg, snr, QOS, GaParams(),
                                     stream(seed, "scheduling/ga"))
        post = result.segments[1].best_score
        assert post >= 0.95 * ga_score - 1e-9, \
            f"seed {seed}: post-switch {post} < 0.95 x GA {ga_score}"
        if ga_score > 0:
            worst = min(worst, post / ga_score)
    record_criterion(3, True,
                     f"objective switch kept one engine and one transcript; "
                     f"post-switch >= 0.95x fresh GA on 10/10 seeds "
                     f"(worst ratio {worst:.4f})")


# ---------------------------------------------------------------------------
# 4. QoS objective is exactly the clamped sum


def test_criterion_4_qos_evaluation_is_clamped_sum(rate_rng):
    for k in range(1000):
        n = int(rate_rng.integers(1, 13))
        rates = rate_rng.uniform(0.0, 2e7, n)
        min_rate = float(rate_rng.uniform(0.0, 1.5e7))
        if k % 3 == 0:
            rates[0] = min_rate  # boundary entries count, exactly
        zeroed = np.where(rates >= min_rate, rates, 0.0)
        np.testing.assert_array_equal(clamp_qos(rates, min_rate), zeroed)
        assert float(clamp_qos(rates, min_rate).sum()) == float(zeroed.sum())

    # And end to end through the evaluator on a real instance.
    cfg, snr, objective = make_instance(4000)
    for _ in range(50):
        alloc = [int(rate_rng.integers(1, cfg.num_robots + 1))
                 for _ in range(9)]
        _, score = allocation_rank(alloc, snr, cfg, objective)
        rates = rate_vector(alloc, snr, cfg)
        manual = float(np.where(rates >= objective.min_rate_bps,
                                rates, 0.0).sum())
        assert score == manual
    record_criterion(4, True,
                     "QoS score equals the sub-threshold-zeroed rate sum "
                     "exactly on 1000 random vectors and 50 evaluated "
                     "allocations")


# ---------------------------------------------------------------------------
# 5. Image-method reflection points vs centimeter grid search


def _random_mirror_case(rng, margin=0.05):
    """Random facade plus two endpoints in front of it; cases whose
    unconstrained specular point falls within `margin` of the facade
    boundary are resampled, since there the 1 cm grid legitimately
    disagrees about bare existence."""
    while True:
        axis = "x" if rng.random() < 0.5 else "y"
        sign = 1.0 if rng.random() < 0.5 else -1.0
        offset = rng.uniform(-20.0, 20.0)
        u0 = rng.uniform(-20.0, 10.0)
        extent = rng.uniform(2.0, 25.0)
        height = rng.uniform(3.0, 18.0)
        normal = (sign, 0.0, 0.0) if axis == "x" else (0.0, sign, 0.0)
        facade = Facade("f", axis, offset, normal,
                        (u0, u0 + extent), height)
        n = np.asarray(normal)

        def endpoint():
            d = rng.uniform(0.5, 25.0)
            u = rng.uniform(u0 - 10.0, u0 + extent + 10.0)
            z = rng.uniform(0.2, height + 8.0)
            return facade_point(facade, u, z) + d * n

        bs, user = endpoint(), endpoint()
        d_bs = float((bs - point_on_plane(facade)) @ n)
        d_user = float((user - point_on_plane(facade)) @ n)
        mirrored = bs - 2.0 * d_bs * n
        t = d_bs / (d_bs + d_user)
        q = mirrored + t * (user - mirrored)
        u, z = facade_coords(facade, q)
        if min(abs(u - u0), abs(u - (u0 + extent)),
               abs(z), abs(z - height)) < margin:
            continue
        return facade, bs, user


def test_criterion_5_mirror_agrees_with_grid_oracle():
    rng = stream(505, "acceptance/mirror")
    t0 = time.perf_counter()
    n_exist = 0
    max_dist = 0.0
    max_res = 0.0
    for i in range(1000):
        facade, bs, user = _random_mirror_case(rng)
        # The image stage every trace runs: status and via point.
        status, via = _image_stage(_prepare(bs, (facade,), ()),
                                   user[None, :])
        q = via[0, 0] if status[0, 0] == _ACTIVE else None
        g = grid_search_reflection_oracle(bs, user, facade)
        assert (q is None) == (g is None), f"existence mismatch on scene {i}"
        if q is None:
            continue
        n_exist += 1
        dist = float(np.linalg.norm(q - g))
        res = reflection_residual(bs, user, q, facade)
        assert dist <= 0.02, f"scene {i}: mirror vs grid {dist:.4f} m"
        assert res < 1e-9, f"scene {i}: reflection residual {res:.2e}"
        max_dist = max(max_dist, dist)
        max_res = max(max_res, res)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    record_criterion(5, True,
                     f"1000 scenes: existence identical, {n_exist} with a "
                     f"path, max |mirror-grid| {max_dist * 100:.2f} cm, max "
                     f"residual {max_res:.1e}, {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 6. Channel predictors: floor, map baselines, stage-2 sensitivity


def test_criterion_6_channel_predictor_quality():
    # Truth is the channel map's rows, the route runs take, not the
    # one-user tracer the geometry predictor reads.
    # (a) Geometry predictor reproduces the tracer on every fixture scene.
    for i in (1, 2, 3, 4):
        scenario = load_fixture_scene(i)
        cfg = scenario.channel
        users = default_user_positions(scenario, num_users=8)
        for user, truth in zip(users, build_ckm(cfg, users).channels):
            assert nmse_db(truth, geometry_predictor(cfg, user)) == -150.0

    # (b) On blockage-rich scenes a dense stored map beats the affine fit.
    margins = []
    for i in (3, 4):
        cfg = load_fixture_scene(i).channel
        for lane_y in (-3.0, 3.0):
            train = [(x, lane_y, 1.5) for x in np.arange(0.0, 30.0001, 0.02)]
            ckm = build_ckm(cfg, train)
            model = fit_linear_gcp(cfg, ckm)
            nn_vals, lin_vals = [], []
            queries = [(x + 0.011, lane_y, 1.5)
                       for x in np.arange(0.0, 29.6, 0.5)]
            for q, truth in zip(queries, build_ckm(cfg, queries).channels):
                if not np.any(truth):
                    continue
                nn_vals.append(nmse_db(truth, nn_ckm_predict(ckm, q)))
                lin_vals.append(nmse_db(truth, linear_gcp_predict(model, q)))
            assert nn_vals
            assert np.mean(nn_vals) <= np.mean(lin_vals), \
                f"scene {i} lane {lane_y}: nn {np.mean(nn_vals):.2f} dB > " \
                f"linear {np.mean(lin_vals):.2f} dB"
            margins.append(np.mean(lin_vals) - np.mean(nn_vals))

    # (c) Sliding the stage-2 reflection point degrades NMSE monotonically.
    cfg = load_fixture_scene(1).channel
    user = (24.0, -3.0, 1.5)
    truth = build_ckm(cfg, [user]).channels[0]
    offsets = np.arange(0.0, 2.0001, 0.1)
    curve = [nmse_db(truth, geometry_predictor(cfg, user, stage2_offset=d))
             for d in offsets]
    assert curve[0] == -150.0
    assert curve[-1] > -150.0
    for a, b in zip(curve, curve[1:]):
        assert b >= a - 1e-9, f"stage-2 curve dips: {a:.3f} -> {b:.3f}"
    record_criterion(6, True,
                     f"geometry predictor at the -150 dB floor on 4 scenes; "
                     f"nn map beats linear fit by {min(margins):.1f}-"
                     f"{max(margins):.1f} dB on blockage-rich lanes; stage-2 "
                     f"NMSE monotone over [0, 2] m")


# ---------------------------------------------------------------------------
# 7. Queue-aware control beats the fixed cycle; sensing quality matters


def test_criterion_7_traffic_controller_ordering():
    cfg = TrafficConfig()  # 80 vehicles
    greedy_vs_rr = 0
    vue_vs_rsu = 0
    n_seeds = 50
    for s in range(n_seeds):
        rr = run_episode(cfg, RoundRobinController(),
                         stream(s, "traffic")).metrics["avg_speed_mps"]
        vue = run_episode(cfg, QueueGreedyController(),
                          stream(s, "traffic"), "vue").metrics["avg_speed_mps"]
        rsu = run_episode(cfg, QueueGreedyController(),
                          stream(s, "traffic"), "rsu").metrics["avg_speed_mps"]
        greedy_vs_rr += vue >= rr
        vue_vs_rsu += vue >= rsu  # ties count
    assert greedy_vs_rr >= int(0.9 * n_seeds), \
        f"greedy >= round robin on only {greedy_vs_rr}/{n_seeds} seeds"
    assert vue_vs_rsu >= int(0.8 * n_seeds), \
        f"vue >= rsu on only {vue_vs_rsu}/{n_seeds} seeds"
    record_criterion(7, True,
                     f"queue greedy >= round robin on {greedy_vs_rr}/"
                     f"{n_seeds} paired seeds, connected-vehicle sensing >= "
                     f"roadside on {vue_vs_rsu}/{n_seeds}; crash and "
                     f"conservation invariants checked every step")


# ---------------------------------------------------------------------------
# 8. Deterministic replay, no live network


class _LocalModelHandler(BaseHTTPRequestHandler):
    """Loopback chat endpoint backed by the deterministic local engine."""

    engine = None

    def do_POST(self):
        n = int(self.headers.get("Content-Length", 0))
        doc = json.loads(self.rfile.read(n))
        prompt = doc["messages"][-1]["content"]
        text = type(self).engine.propose(prompt)
        body = json.dumps({"choices": [{"message": {"content": text}}]})
        self.send_response(200)
        self.end_headers()
        self.wfile.write(body.encode("utf-8"))

    def log_message(self, *args):
        pass


def test_criterion_8_reruns_are_byte_identical_offline(tmp_path, monkeypatch,
                                                       capsys):
    scenarios = {
        "sched": ScenarioConfig(
            track=Track.SCHEDULING, seed=5,
            scheduling=SchedulingConfig(num_robots=3, objective=QOS)),
        "traffic": ScenarioConfig(
            track=Track.TRAFFIC, seed=3,
            traffic=TrafficConfig(num_vehicles=20, episode_s=60.0)),
        "channel": load_fixture_scene(1),
    }
    commands = {
        "sched": ["schedule", "--method", "ga"],
        "traffic": ["traffic", "--controller", "greedy"],
        "channel": ["channel", "--method", "geometry"],
    }

    # (a) Re-running from the persisted config reproduces every byte.
    for name, scenario in scenarios.items():
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(scenario_to_json(scenario), encoding="utf-8")
        outputs = []
        for attempt in ("first", "second"):
            out = tmp_path / f"{name}-{attempt}"
            code = main(commands[name] + ["--config", str(cfg_path),
                                          "--out", str(out)])
            assert code == 0
            capsys.readouterr()
            files = sorted(out.glob("run-*.json"))
            assert len(files) == 1
            outputs.append(files[0].read_bytes())
        assert outputs[0] == outputs[1], f"{name} rerun differs"

    # (b) A chat-engine run recorded against a loopback endpoint replays
    # byte-identically with the network stack disabled outright.
    _LocalModelHandler.engine = MockLocalSearchEngine(
        stream(8080, "scheduling/engine"))
    server = ThreadingHTTPServer(("127.0.0.1", 0), _LocalModelHandler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        url = f"http://127.0.0.1:{server.server_address[1]}/v1/chat"
        cassette = tmp_path / "chat.jsonl"
        opts = {"endpoint_url": url, "model": "local",
                "cassette": str(cassette), "cassette_mode": "record",
                "opro_params": {"max_iterations": 40}}
        recorded = run(scenarios["sched"], "opro_chat", opts)
        assert recorded.status == "ok"
    finally:
        server.shutdown()
        server.server_close()

    def forbidden(*args, **kwargs):
        raise AssertionError("live network call during replay")

    # No socket may connect anywhere, whatever transport would try.
    monkeypatch.setattr(socket.socket, "connect", forbidden)
    monkeypatch.setattr(socket.socket, "connect_ex", forbidden)
    monkeypatch.setattr(socket, "create_connection", forbidden)
    replay_opts = dict(opts, cassette_mode="replay")
    replayed = run(scenarios["sched"], "opro_chat", replay_opts)
    from autocomm.report import record_to_json
    assert record_to_json(replayed) == record_to_json(recorded)
    record_criterion(8, True,
                     "scheduling, traffic, and channel reruns byte-identical "
                     "from persisted configs; chat transcript replays "
                     "byte-identically with every socket connect disabled")
