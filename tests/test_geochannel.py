"""Mirror geometry, ray tracing, channel synthesis, and CKM baselines."""

import dataclasses
import math
import pathlib

import numpy as np
import pytest
import scalar_oracle as oracle
from hypothesis import assume, given, settings, strategies as st

from autocomm.configs import Box, ChannelSceneConfig, Track, build_scenario
from autocomm.geochannel import (
    CkmDataset,
    DegenerateGeometry,
    Facade,
    LinearGcp,
    Path,
    build_ckm,
    enumerate_facades,
    fit_linear_gcp,
    geometry_predictor,
    linear_gcp_predict,
    load_fixture_scene,
    nmse_db,
    nn_ckm_predict,
    synthesize_channel,
    trace_paths,
    _ACTIVE,
    _BEHIND,
    _BLOCKED,
    _ON_PLANE,
    _OUTSIDE,
    _blocked,
    _box_bounds,
    _image_stage,
    _prepare,
    _scene,
    _scene_of,
    _synthesize,
    _trace,
)
from autocomm.report import default_user_positions

WALL = Facade("wall", "y", 0.0, (0.0, 1.0, 0.0), (0.0, 30.0), 20.0)
BS = (0.0, 8.0, 10.0)
USER = (30.0, 6.0, 1.5)


# ---------------------------------------------------------------------------
# Mirror reflection: the image stage on one user and one facade


def image_point(bs, user, facade) -> tuple[int, np.ndarray]:
    """_image_stage's status and point q for one user and one facade."""
    status, q = _image_stage(_prepare(bs, (facade,), ()),
                             np.asarray(user, dtype=float).reshape(1, 3))
    return int(status[0, 0]), q[0, 0]


def test_mirror_matches_hand_computed_image_point():
    # Image of the BS across y=0 is (0, -8, 10); the segment to the user
    # crosses the plane at t = 8/14, giving (120/7, 0, 36/7).
    status, q = image_point(BS, USER, WALL)
    assert status == _ACTIVE
    assert q == pytest.approx([120.0 / 7.0, 0.0, 36.0 / 7.0])
    assert oracle.reflection_residual(BS, USER, q, WALL) < 1e-12


def test_residual_positive_off_the_specular_point():
    _, q = image_point(BS, USER, WALL)
    off = q + np.array([0.5, 0.0, 0.0])
    assert oracle.reflection_residual(BS, USER, off, WALL) > 1e-3


def test_mirror_none_when_endpoint_behind_plane():
    assert image_point(BS, (30.0, -6.0, 1.5), WALL)[0] == _BEHIND
    assert image_point((0.0, -8.0, 10.0), USER, WALL)[0] == _BEHIND


def test_mirror_degenerate_on_plane():
    assert image_point(BS, (30.0, 0.0, 1.5), WALL)[0] == _ON_PLANE
    assert image_point((0.0, 0.0, 10.0), USER, WALL)[0] == _ON_PLANE


def test_mirror_none_outside_extent():
    short = Facade("s", "y", 0.0, (0.0, 1.0, 0.0), (0.0, 10.0), 20.0)
    assert image_point(BS, USER, short)[0] == _OUTSIDE
    low = Facade("l", "y", 0.0, (0.0, 1.0, 0.0), (0.0, 30.0), 4.0)
    assert image_point(BS, USER, low)[0] == _OUTSIDE


def test_grid_oracle_agrees_with_mirror():
    _, q = image_point(BS, USER, WALL)
    g = oracle.grid_search_reflection_oracle(BS, USER, WALL)
    assert np.linalg.norm(q - g) < 0.02
    short = Facade("s", "y", 0.0, (0.0, 1.0, 0.0), (0.0, 10.0), 20.0)
    assert oracle.grid_search_reflection_oracle(BS, USER, short) is None


def test_enumerate_facades_fixed_order():
    cfg = ChannelSceneConfig(buildings=(Box((0.0, 20.0), (-11.0, -5.0), 15.0),))
    facades = enumerate_facades(cfg)
    assert [f.facade_id for f in facades] == \
        ["b0:xmin", "b0:xmax", "b0:ymin", "b0:ymax"]
    assert [f.normal for f in facades] == \
        [(-1.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 1.0, 0.0)]
    assert facades[3].urange == (0.0, 20.0) and facades[3].offset == -5.0


# ---------------------------------------------------------------------------
# Occlusion


BOX = Box((0.0, 20.0), (0.0, 6.0), 10.0)


def is_blocked(p, q, buildings) -> bool:
    """_blocked on the one segment p->q."""
    return bool(_blocked(np.asarray(p, dtype=float).reshape(1, 3),
                         np.asarray(q, dtype=float).reshape(1, 3),
                         *_box_bounds(buildings))[0])


def test_segment_through_box_is_blocked():
    assert is_blocked((-5.0, 3.0, 2.0), (25.0, 3.0, 2.0), [BOX])


def test_touching_a_face_does_not_block():
    assert not is_blocked((0.0, 3.0, 2.0), (-5.0, 3.0, 2.0), [BOX])
    assert not is_blocked((-5.0, 0.0, 2.0), (25.0, 0.0, 2.0), [BOX])


def test_passing_above_the_roof_is_clear():
    assert not is_blocked((-5.0, 3.0, 12.0), (25.0, 3.0, 12.0), [BOX])
    assert not is_blocked((-5.0, 3.0, 2.0), (25.0, 3.0, 2.0), [])


def test_grazing_an_edge_does_not_block():
    # Enters and leaves the box at the same instant, through its x=0, y=0
    # edge: a zero-length interval.
    assert not is_blocked((-5.0, 5.0, 2.0), (5.0, -5.0, 2.0), [BOX])
    assert not oracle.is_blocked((-5.0, 5.0, 2.0), (5.0, -5.0, 2.0), [BOX])


def test_nearly_parallel_leg_uses_the_slab_interval():
    # Starts on the y=0 face and drifts 1e-10 m into the box: above the
    # 1e-15 parallel threshold, so the slab interval decides, and it is long.
    p, q = (-5.0, 0.0, 2.0), (25.0, 1e-10, 2.0)
    assert is_blocked(p, q, [BOX])
    assert oracle.is_blocked(p, q, [BOX])


# ---------------------------------------------------------------------------
# Scene tracing


# The scalar oracle's name for each of _trace's facade status codes.
STATUS_NAMES = {_ON_PLANE: "behind_plane", _BEHIND: "behind_plane",
                _OUTSIDE: "outside_extent", _BLOCKED: "blocked",
                _ACTIVE: "active"}


def statuses(cfg, users):
    """Facade statuses of every user from one _trace call, by name."""
    facades = enumerate_facades(cfg)
    _, status, _ = _trace(_scene(cfg),
                          np.asarray(users, dtype=float).reshape(-1, 3))
    return [{f.facade_id: STATUS_NAMES[s] for f, s in zip(facades, row)}
            for row in status.tolist()]


def test_scene1_paths_and_statuses():
    cfg = load_fixture_scene(1).channel
    slots = [p.slot for p in trace_paths(cfg, (5.0, -3.0, 1.5))]
    assert slots == ["los", "b0:ymax"]
    assert statuses(cfg, [(5.0, -3.0, 1.5)]) == [
        {"b0:xmin": "behind_plane", "b0:xmax": "behind_plane",
         "b0:ymin": "behind_plane", "b0:ymax": "active"}]


def test_classify_covers_blocked_and_outside():
    cfg3 = load_fixture_scene(3).channel
    assert statuses(cfg3, [(45.0, 3.0, 1.5)])[0]["b2:ymax"] == "blocked"
    cfg1 = load_fixture_scene(1).channel
    assert statuses(cfg1, [(40.0, -3.0, 1.5)])[0]["b0:ymax"] == \
        "outside_extent"


def test_nlos_user_keeps_only_the_reflection():
    cfg = load_fixture_scene(3).channel
    assert [p.slot for p in trace_paths(cfg, (30.0, 3.0, 1.5))] == ["b2:ymax"]


def test_user_on_extended_facade_plane_does_not_crash():
    # x=20 is the extension of scene1's east wall; grazing incidence must be
    # skipped, not raised, by the tracer and the predictor.
    cfg = load_fixture_scene(1).channel
    user = (20.0, 1.0, 1.5)
    slots = [p.slot for p in trace_paths(cfg, user)]
    assert "b0:xmax" not in slots
    h = geometry_predictor(cfg, user)
    assert np.any(h)


def test_user_at_the_bs_is_degenerate():
    cfg = load_fixture_scene(1).channel
    with pytest.raises(DegenerateGeometry):
        trace_paths(cfg, cfg.bs_pos)


NONFINITE = pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                                    ids=["nan", "inf", "-inf"])


def nonfinite_entry_points():
    """Every public entry that takes a position, as name -> call(position)."""
    cfg = load_fixture_scene(1).channel
    ok = (5.0, -3.0, 1.5)
    ckm = build_ckm(cfg, [ok, (0.0, 3.0, 1.5), (10.0, -1.0, 1.5),
                          (20.0, 1.0, 1.5)])
    model = fit_linear_gcp(cfg, ckm)
    return {
        "trace_paths": lambda p: trace_paths(cfg, p),
        "build_ckm": lambda p: build_ckm(cfg, [ok, p]),
        "geometry_predictor": lambda p: geometry_predictor(cfg, p),
        "geometry_predictor/stage1": lambda p: geometry_predictor(
            cfg, p, ["los"]),
        "nn_ckm_predict": lambda p: nn_ckm_predict(ckm, p),
        "nn_ckm_predict/batch": lambda p: nn_ckm_predict(ckm, [ok, p]),
        "linear_gcp_predict": lambda p: linear_gcp_predict(model, p),
        "linear_gcp_predict/batch": lambda p: linear_gcp_predict(model,
                                                                 [ok, p]),
    }


@NONFINITE
@pytest.mark.parametrize("axis", [0, 1, 2])
@pytest.mark.parametrize("entry", sorted(nonfinite_entry_points()))
def test_a_nonfinite_position_is_a_value_error_naming_it(entry, axis, bad):
    # Checked before any arithmetic: no RuntimeWarning (an error under the
    # test filters), no zero-length-path error, no map row, no NaN channel.
    position = [5.0, -3.0, 1.5]
    position[axis] = bad
    with pytest.raises(ValueError, match="position must be finite") as err:
        nonfinite_entry_points()[entry](position)
    assert type(err.value) is ValueError
    assert repr(bad) in str(err.value)


@NONFINITE
def test_a_nonfinite_stage2_offset_is_a_value_error_naming_it(bad):
    cfg = load_fixture_scene(1).channel
    with pytest.raises(ValueError, match="stage2_offset must be finite"):
        geometry_predictor(cfg, (5.0, -3.0, 1.5), stage2_offset=bad)


def test_reflection_path_geometry_is_consistent():
    cfg = load_fixture_scene(1).channel
    refl = [p for p in trace_paths(cfg, (5.0, -3.0, 1.5))
            if p.kind == "reflection"][0]
    bs, q, user = (np.array(p) for p in refl.points)
    assert refl.length_m == pytest.approx(
        np.linalg.norm(q - bs) + np.linalg.norm(user - q))
    assert q[1] == pytest.approx(-5.0)  # on the north face of the building


# ---------------------------------------------------------------------------
# Channel synthesis and NMSE


def test_single_path_steering_vector():
    cfg = ChannelSceneConfig(num_antennas=4)
    p = Path(kind="los", facade_id=None, length_m=10.0,
             gain=0.5 + 0.25j, aod_rad=math.asin(0.3), points=())
    h = synthesize_channel(cfg, [p])
    n = np.arange(4)
    expected = (0.5 + 0.25j) * np.exp(-1j * math.pi * n * 0.3)
    np.testing.assert_allclose(h, expected, rtol=1e-12)


def test_no_paths_gives_zero_channel():
    cfg = ChannelSceneConfig(num_antennas=8)
    assert not np.any(synthesize_channel(cfg, []))


def test_nmse_floor_and_edge_cases():
    h = np.array([1.0 + 1j, 2.0, 0.5j])
    assert nmse_db(h, h.copy()) == -150.0
    assert nmse_db(np.zeros(3), np.zeros(3)) == -150.0
    assert nmse_db(np.zeros(3), h) == math.inf
    assert nmse_db(h, np.zeros(3)) == pytest.approx(0.0)
    assert nmse_db(h, 2 * h) == pytest.approx(0.0)  # |h - 2h|^2 == |h|^2


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
def test_nmse_rejects_non_finite_channels(bad):
    # NaN compares false, so a NaN error used to read as the -150 dB floor.
    h = np.array([1.0 + 1j, 2.0, 0.5j])
    broken = h.copy()
    broken[1] = bad
    for pair in ((broken, h), (h, broken), (broken, broken)):
        with pytest.raises(ValueError, match="finite"):
            nmse_db(*pair)


# ---------------------------------------------------------------------------
# Geometry predictor stages


def test_predictor_default_reproduces_tracer():
    cfg = load_fixture_scene(2).channel
    for user in [(5.0, -3.0, 1.5), (16.0, 1.0, 1.5), (25.0, -1.0, 1.5)]:
        truth = synthesize_channel(cfg, trace_paths(cfg, user))
        assert nmse_db(truth, geometry_predictor(cfg, user)) == -150.0


def test_predictor_stage1_label_sensitivity():
    cfg = load_fixture_scene(1).channel
    user = (5.0, -3.0, 1.5)
    truth = synthesize_channel(cfg, trace_paths(cfg, user))
    wrong = geometry_predictor(cfg, user, stage1_labels=["los"])
    assert nmse_db(truth, wrong) > -150.0


def test_predictor_rejects_unknown_stage1_labels_by_name():
    cfg = load_fixture_scene(1).channel
    with pytest.raises(ValueError) as err:
        geometry_predictor(cfg, (5.0, -3.0, 1.5),
                           stage1_labels=["los", "b7:xmin"])
    assert str(err.value) == (
        "unknown stage1 labels ['b7:xmin']; slots: "
        "['los', 'b0:xmin', 'b0:xmax', 'b0:ymin', 'b0:ymax']")


def test_predictor_stage2_offset_sensitivity():
    cfg = load_fixture_scene(1).channel
    user = (5.0, -3.0, 1.5)
    truth = synthesize_channel(cfg, trace_paths(cfg, user))
    assert nmse_db(truth, geometry_predictor(cfg, user,
                                             stage2_offset=0.0)) == -150.0
    assert nmse_db(truth, geometry_predictor(cfg, user,
                                             stage2_offset=0.5)) > -60.0


# ---------------------------------------------------------------------------
# CKM baselines


def test_nn_ckm_exact_at_training_points():
    cfg = load_fixture_scene(1).channel
    positions = [(5.0, -3.0, 1.5), (12.0, -1.0, 1.5), (22.0, 3.0, 1.5)]
    ckm = build_ckm(cfg, positions)
    for i, p in enumerate(positions):
        np.testing.assert_array_equal(nn_ckm_predict(ckm, p),
                                      ckm.channels[i])


def test_nn_ckm_tie_goes_to_lower_index():
    cfg = load_fixture_scene(1).channel
    ckm = build_ckm(cfg, [(4.0, -3.0, 1.5), (6.0, -3.0, 1.5)])
    np.testing.assert_array_equal(nn_ckm_predict(ckm, (5.0, -3.0, 1.5)),
                                  ckm.channels[0])


def test_nn_ckm_empty_map_raises():
    empty = build_ckm(load_fixture_scene(1).channel, [])
    with pytest.raises(ValueError, match="empty channel map"):
        nn_ckm_predict(empty, (0.0, 0.0, 1.5))
    with pytest.raises(ValueError, match="empty channel map"):
        nn_ckm_predict(empty, [(0.0, 0.0, 1.5)])


def test_nn_ckm_batch_has_one_row_per_query():
    cfg = load_fixture_scene(1).channel
    ckm = build_ckm(cfg, [(4.0, -3.0, 1.5), (6.0, -3.0, 1.5)])
    queries = [(5.0, -3.0, 1.5), (6.5, -3.0, 1.5), (0.0, 0.0, 1.5)]
    got = nn_ckm_predict(ckm, queries)
    assert got.shape == (3, cfg.num_antennas)
    np.testing.assert_array_equal(got, ckm.channels[[0, 1, 0]])
    # A copy, never a view of the map.
    got[0] = 0.0
    single = nn_ckm_predict(ckm, queries[1])
    single[:] = 0.0
    assert np.all(ckm.channels[0] != 0.0) and np.all(ckm.channels[1] != 0.0)


def test_linear_gcp_recovers_constant_map():
    cfg = load_fixture_scene(1).channel
    pos = (5.0, -3.0, 1.5)
    ckm = build_ckm(cfg, [pos, pos, pos])
    model = fit_linear_gcp(cfg, ckm)
    truth = ckm.channels[0]
    assert nmse_db(truth, linear_gcp_predict(model, pos)) < -100.0


def test_linear_gcp_sparse_slot_never_invents_a_path():
    cfg = ChannelSceneConfig(num_antennas=4)
    ckm = CkmDataset(
        positions=np.array([[0.0, 0.0, 1.5], [1.0, 0.0, 1.5],
                            [2.0, 0.0, 1.5], [3.0, 0.0, 1.5]]),
        channels=np.zeros((4, 4), dtype=complex),
        slots=("los", "b0:ymin", "b0:ymax"),
        present=np.array([[True, False, False]] * 3 + [[True, False, True]]),
        gains=np.array([[0.1, 0.0, 0.0]] * 3 + [[0.1, 0.0, 0.05j]]),
        sin_aod=np.array([[0.2, 0.0, 0.0]] * 3 + [[0.2, 0.0, -0.1]]))
    model = fit_linear_gcp(cfg, ckm)
    assert model.slots == ("b0:ymax", "los")  # only slots seen somewhere
    assert model.weights.shape == (2, 5, 3)
    assert not np.any(model.weights[0])  # b0:ymax, under 3 samples: zeroed


def test_linear_gcp_caps_an_extrapolated_amplitude():
    # Samples 0.1 um apart in x make the affine log-amplitude fit's slope
    # about 1.6e6 per metre, so a query 1 m away extrapolates past the
    # float range; the prediction stays finite, at amplitude 1 at most.
    cfg = ChannelSceneConfig(bs_pos=(0.0, 1.0, 0.0))
    ckm = build_ckm(cfg, [(0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 1.5),
                          (-1.192092896e-07, 0.0, 0.0)])
    model = fit_linear_gcp(cfg, ckm)
    query = (-1.0, 0.0, 0.0)
    assert model.weights[0, 2] @ (query[0], query[1], 1.0) > 1e6
    got = linear_gcp_predict(model, query)
    assert np.array_equal(got, oracle.linear_gcp_predict(model, query))
    assert np.all(np.abs(got) <= 1.0 + 1e-12)


def test_nn_beats_linear_on_blockage_rich_lane():
    cfg = load_fixture_scene(3).channel
    train = [(x, -3.0, 1.5) for x in np.arange(0.0, 30.01, 0.5)]
    ckm = build_ckm(cfg, train)
    model = fit_linear_gcp(cfg, ckm)
    nn_vals, lin_vals = [], []
    for x in np.arange(5.0, 25.01, 2.0):
        q = (x + 0.3, -3.0, 1.5)
        truth = synthesize_channel(cfg, trace_paths(cfg, q))
        if not np.any(truth):
            continue
        nn_vals.append(nmse_db(truth, nn_ckm_predict(ckm, q)))
        lin_vals.append(nmse_db(truth, linear_gcp_predict(model, q)))
    assert nn_vals
    assert np.mean(nn_vals) <= np.mean(lin_vals)


# ---------------------------------------------------------------------------
# Fixtures


def test_fixture_scenes_scale_in_clutter():
    counts = [len(load_fixture_scene(i).channel.buildings)
              for i in (1, 2, 3, 4)]
    assert counts == [1, 2, 3, 4]
    for i in (1, 2, 3, 4):
        scenario = load_fixture_scene(i)
        assert scenario.track is Track.CHANNEL
        assert scenario.channel is not None


@pytest.mark.parametrize("bad", [0, 5, -1])
def test_fixture_scene_index_out_of_range(bad):
    with pytest.raises(ValueError):
        load_fixture_scene(bad)


# ---------------------------------------------------------------------------
# Batched tracer against the scalar oracle (bit-equal, no tolerance)


@st.composite
def scenes(draw):
    """0-4 disjoint boxes on integer coordinates, BS outside all of them."""
    boxes = []
    for i in range(draw(st.integers(0, 4))):
        x0 = 12.0 * i + draw(st.integers(0, 4))
        y0 = float(draw(st.integers(-12, 6)))
        boxes.append(Box((x0, x0 + draw(st.integers(1, 7))),
                         (y0, y0 + draw(st.integers(1, 8))),
                         draw(st.sampled_from([2.0, 7.5, 10.0, 25.0]))))
    cfg_axes = _special_coordinates(boxes)
    bs = tuple(draw(_coordinate(vals, lo, hi))
               for vals, (lo, hi) in zip(cfg_axes, _RANGES))
    assume(not any(b.contains(bs) for b in boxes))
    gamma = draw(st.sampled_from([0.6 + 0.0j, -0.45 + 0.3j]))
    return ChannelSceneConfig(buildings=tuple(boxes), bs_pos=bs,
                              reflection_coeff=gamma)


_RANGES = ((-15.0, 60.0), (-15.0, 15.0), (0.0, 30.0))


def _special_coordinates(boxes):
    """Facade planes, edges and roof heights, per axis."""
    xs = {v for b in boxes for v in b.x}
    ys = {v for b in boxes for v in b.y}
    zs = {0.0, 1.5} | {b.height for b in boxes}
    return sorted(xs or {0.0}), sorted(ys or {0.0}), sorted(zs)


def _coordinate(special, lo, hi):
    return st.one_of(st.sampled_from(special),
                     st.floats(lo, hi, allow_nan=False))


def _users(cfg, count):
    axes = _special_coordinates(cfg.buildings)
    axes = [a + [c] for a, c in zip(axes, cfg.bs_pos)]
    # A user at the BS itself has a zero-length line of sight.
    point = st.tuples(*(_coordinate(vals, lo, hi)
                        for vals, (lo, hi) in zip(axes, _RANGES))
                      ).filter(lambda u: math.dist(u, cfg.bs_pos) > 1e-3)
    return st.lists(point, min_size=1, max_size=count)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(data=st.data(), cfg=scenes())
def test_batch_matches_scalar_oracle(data, cfg):
    users = data.draw(_users(cfg, 12))
    rows = statuses(cfg, users)
    assert len(rows) == len(users)
    for user, row in zip(users, rows):
        assert trace_paths(cfg, user) == oracle.trace_paths(cfg, user)
        assert row == oracle.classify_scatterers(cfg, user)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(data=st.data(), cfg=scenes())
def test_mirror_and_blockage_match_scalar_oracle(data, cfg):
    p, q = data.draw(_users(cfg, 2).filter(lambda u: len(u) == 2))
    got = _blocked(np.array([p, cfg.bs_pos]), np.array([q, p]),
                   *_box_bounds(cfg.buildings))
    assert got.tolist() == [oracle.is_blocked(p, q, cfg.buildings),
                            oracle.is_blocked(cfg.bs_pos, p, cfg.buildings)]
    # An on-plane status stands for the oracle's DegenerateGeometry, and
    # behind-plane and outside-extent statuses for its None.
    facades = enumerate_facades(cfg)
    status, points = _image_stage(_scene(cfg), np.array([p]))
    for facade, code, point in zip(facades, status[0], points[0]):
        try:
            want = oracle.mirror_reflection_point(cfg.bs_pos, p, facade)
        except DegenerateGeometry:
            assert code == _ON_PLANE
            continue
        if want is None:
            assert code in (_BEHIND, _OUTSIDE)
        else:
            assert code == _ACTIVE
            assert np.array_equal(point, want)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), cfg=scenes())
def test_predictor_overrides_match_scalar_oracle(data, cfg):
    user = data.draw(_users(cfg, 1))[0]
    ids = ["los"] + [f.facade_id for f in enumerate_facades(cfg)]
    labels = data.draw(st.none() | st.lists(st.sampled_from(ids)))
    offset = data.draw(st.sampled_from([0.0, 0.5, -1.25, 40.0]))
    want = synthesize_channel(
        cfg, oracle.predictor_paths(cfg, user, labels, offset))
    got = geometry_predictor(cfg, user, labels, offset)
    assert np.array_equal(got, want)


def _random_linear_model(seed, num_slots, num_antennas):
    """A LinearGcp with weights in [-1, 1]: slots come and go over a scene
    and amplitudes stay finite."""
    rng = np.random.default_rng(seed)
    return LinearGcp(num_antennas=num_antennas,
                     slots=tuple(f"s{i}" for i in range(num_slots)),
                     weights=rng.uniform(-1.0, 1.0, (num_slots, 5, 3)))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), cfg=scenes())
def test_linear_gcp_batch_matches_scalar_oracle(data, cfg):
    positions = data.draw(_users(cfg, 12))
    fitted = fit_linear_gcp(cfg, build_ckm(cfg, positions))
    absent = fitted.weights.copy()
    absent[:, 0] = 0.0          # presence 0 everywhere: every slot absent
    models = [fitted, dataclasses.replace(fitted, weights=absent),
              fit_linear_gcp(cfg, build_ckm(cfg, [])),
              _random_linear_model(data.draw(st.integers(0, 2**32 - 1)),
                                   data.draw(st.integers(0, 6)),
                                   data.draw(st.integers(1, 32)))]
    assert models[2].slots == () and models[2].weights.shape == (0, 5, 3)
    queries = data.draw(_users(cfg, 8)) + positions
    for model in models:
        batch = linear_gcp_predict(model, queries)
        assert batch.shape == (len(queries), model.num_antennas)
        for q, row in zip(queries, batch):
            assert np.array_equal(row, oracle.linear_gcp_predict(model, q))
            assert np.array_equal(row, linear_gcp_predict(model, q))
        empty = linear_gcp_predict(model, np.zeros((0, 3)))
        assert empty.shape == (0, model.num_antennas)
    assert not np.any(linear_gcp_predict(models[1], queries))
    assert not np.any(linear_gcp_predict(models[2], queries))


def test_on_plane_users_match_the_oracle_without_warnings():
    # Scene 1's building spans x in [0, 20], y in [-11, -5], 10 m tall:
    # users on its faces, its edges, its roof line and the planes' extensions.
    cfg = load_fixture_scene(1).channel
    users = [(20.0, 1.0, 1.5), (0.0, -5.0, 1.5), (10.0, -5.0, 10.0),
             (20.0, -8.0, 1.5), (10.0, -11.0, 0.0), (-3.0, -5.0, 10.0)]
    with np.errstate(all="raise"):
        rows = [trace_paths(cfg, u) for u in users]
        channels = build_ckm(cfg, users).channels
    assert rows == [oracle.trace_paths(cfg, u) for u in users]
    assert np.array_equal(channels, oracle.build_ckm(cfg, users)[0])


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.lists(st.tuples(
           st.complex_numbers(max_magnitude=1.0, allow_nan=False,
                              allow_infinity=False),
           st.floats(-math.pi / 2, math.pi / 2)), max_size=6), max_size=6),
       antennas=st.integers(1, 32))
def test_synthesis_matches_scalar_oracle(rows, antennas):
    cfg = ChannelSceneConfig(num_antennas=antennas)
    paths = [[Path(kind="reflection", facade_id=f"f{i}", length_m=1.0,
                   gain=g, aod_rad=a, points=())
              for i, (g, a) in enumerate(row)] for row in rows]
    owner = np.repeat(np.arange(len(rows)), [len(row) for row in rows])
    gains = np.array([g for row in rows for g, _ in row], dtype=complex)
    sin_aod = np.array([math.sin(a) for row in rows for _, a in row],
                       dtype=float)
    batch = _synthesize(antennas, len(rows), owner, gains, sin_aod)
    assert batch.shape == (len(rows), antennas)
    for row, h in zip(paths, batch):
        want = oracle.synthesize_channel(cfg, row)
        assert np.array_equal(h, want)
        assert np.array_equal(synthesize_channel(cfg, row), want)


def test_trace_row_does_not_depend_on_the_batch():
    cfg = load_fixture_scene(4).channel
    rng = np.random.default_rng(7)
    users = np.column_stack([rng.uniform(-5.0, 35.0, 500),
                             rng.uniform(-4.0, 4.0, 500),
                             np.full(500, 1.5)])
    batch = build_ckm(cfg, users)
    for i in range(0, 500, 7):
        row = trace_paths(cfg, users[i])
        on = batch.present[i]
        assert [p.slot for p in row] == np.array(batch.slots)[on].tolist()
        assert [p.gain for p in row] == batch.gains[i, on].tolist()
        assert [math.sin(p.aod_rad) for p in row] == \
            batch.sin_aod[i, on].tolist()
        assert np.array_equal(synthesize_channel(cfg, row), batch.channels[i])
    flipped = build_ckm(cfg, users[::-1])
    for name in ("channels", "present", "gains", "sin_aod"):
        assert np.array_equal(getattr(flipped, name)[::-1],
                              getattr(batch, name)), name


# ---------------------------------------------------------------------------
# The prepared scene


def scene_arrays(scene):
    return {f.name: getattr(scene, f.name) for f in dataclasses.fields(scene)
            if isinstance(getattr(scene, f.name), np.ndarray)}


def test_prepared_scene_arrays_are_read_only():
    scene = _scene(load_fixture_scene(4).channel)
    arrays = scene_arrays(scene)
    assert sorted(arrays) == sorted(
        ["bs", "normal", "origin", "urange", "height", "u_is_y", "d_bs",
         "mirrored", "lo", "hi"])
    for name, value in arrays.items():
        with pytest.raises(ValueError, match="read-only"):
            value[...] = 0
        assert not value.flags.writeable, name


def test_scene_cache_is_keyed_by_identity_and_bounded():
    # An integer maxsize is what tests/test_bounded_caches.py accepts.
    bound = _scene_of.cache_info().maxsize
    assert type(bound) is int
    _scene_of.cache_clear()
    cfg = load_fixture_scene(1).channel
    assert _scene(cfg) is _scene(cfg)
    # An equal config that is another object gets its own scene.
    twin = load_fixture_scene(1).channel
    assert twin == cfg and _scene(twin) is not _scene(cfg)
    _scene_of.cache_clear()
    for n in range(1, bound + 3):
        _scene(dataclasses.replace(cfg, num_antennas=n))
        assert _scene_of.cache_info().currsize == min(n, bound)


def test_a_signed_zero_edge_gets_its_own_facades():
    plus = ChannelSceneConfig(buildings=(Box((0.0, 20.0), (-11.0, -5.0), 15.0),))
    minus = ChannelSceneConfig(
        buildings=(Box((-0.0, 20.0), (-11.0, -5.0), 15.0),))
    # One config for == and hash, but not the same document.
    assert plus == minus and hash(plus) == hash(minus)
    users = [(5.0, -3.0, 1.5), (-6.0, -8.0, 1.5), (25.0, 1.0, 1.5)]

    def outputs(cfg):
        """Everything the prepared scene feeds, as bits."""
        scene = _scene(cfg)
        ckm = build_ckm(cfg, users)
        offsets = np.where(scene.u_is_y, scene.origin[:, 0],
                           scene.origin[:, 1])
        return (np.copysign(1.0, offsets).tolist(),
                {k: v.tobytes() for k, v in scene_arrays(scene).items()},
                ckm.channels.tobytes(), ckm.gains.tobytes(),
                repr([trace_paths(cfg, u) for u in users]),
                [geometry_predictor(cfg, u, ["los", "b0:xmin"], 0.5).tobytes()
                 for u in users])

    fresh = {}
    for cfg in (plus, minus):
        _scene_of.cache_clear()
        fresh[id(cfg)] = outputs(cfg)
    assert fresh[id(plus)][0] == [1.0, 1.0, -1.0, -1.0]
    assert fresh[id(minus)][0] == [-1.0, 1.0, -1.0, -1.0]
    for cfg, other in ((plus, minus), (minus, plus)):
        _scene_of.cache_clear()
        outputs(other)
        assert outputs(cfg) == fresh[id(cfg)]


REFERENCE_CHANNEL = (pathlib.Path(__file__).resolve().parent.parent / "docs"
                     / "config-schema" / "channel.json")


@pytest.mark.parametrize("scene", ["reference", 1, 2, 3, 4])
def test_map_rows_equal_single_user_channels(scene):
    # A run's true channels are build_ckm rows; the geometry predictor and
    # anything that traces one user must give the same bits for that user.
    scenario = (build_scenario(REFERENCE_CHANNEL.read_text(encoding="utf-8"))
                if scene == "reference" else load_fixture_scene(scene))
    cfg = scenario.channel
    rng = np.random.default_rng(11)
    half = cfg.road_halfwidth_m
    users = [tuple(u) for u in default_user_positions(scenario)]
    users += zip(rng.uniform(-5.0, 35.0, 100), rng.uniform(-half, half, 100),
                 np.full(100, cfg.user_height_m))
    # Users on facade planes, edges and corners, on the ground, at user
    # height and on the roof lines.
    xs, ys, zs = _special_coordinates(cfg.buildings)
    users += [(x, y, z) for x in xs for y in ys for z in zs]
    users = [u for u in users if math.dist(u, cfg.bs_pos) > 1e-3]
    assert len(users) >= 125    # over 500 users across the five scenes
    channels = build_ckm(cfg, users).channels
    for user, h in zip(users, channels):
        assert np.array_equal(h, synthesize_channel(cfg,
                                                    trace_paths(cfg, user)))
        assert np.array_equal(h, geometry_predictor(cfg, user))


def test_empty_batch_and_empty_map():
    cfg = load_fixture_scene(2).channel
    assert statuses(cfg, np.zeros((0, 3))) == []
    ckm = build_ckm(cfg, [])
    assert ckm.slots == ("los",) + tuple(f.facade_id
                                         for f in enumerate_facades(cfg))
    assert ckm.positions.shape == (0, 3)
    assert ckm.channels.shape == (0, cfg.num_antennas)
    for table in (ckm.present, ckm.gains, ckm.sin_aod):
        assert table.shape == (0, len(ckm.slots))
    assert fit_linear_gcp(cfg, ckm).slots == ()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=100, deadline=None)
@given(data=st.data(), cfg=scenes())
def test_ckm_matches_path_oracle(data, cfg):
    positions = data.draw(_users(cfg, 12))
    ckm = build_ckm(cfg, positions)
    channels, paths = oracle.build_ckm(cfg, positions)
    assert ckm.slots == ("los",) + tuple(f.facade_id
                                         for f in enumerate_facades(cfg))
    assert np.array_equal(ckm.positions, np.asarray(positions, dtype=float))
    assert np.array_equal(ckm.channels, channels)
    present = np.array([[s in row for s in ckm.slots] for row in paths])
    gains = np.array([[row[s].gain if s in row else 0.0 for s in ckm.slots]
                      for row in paths])
    sin_aod = np.array([[math.sin(row[s].aod_rad) if s in row else 0.0
                         for s in ckm.slots] for row in paths])
    assert np.array_equal(ckm.present, present)
    assert np.array_equal(ckm.gains, gains)
    assert np.array_equal(ckm.sin_aod, sin_aod)

    model = fit_linear_gcp(cfg, ckm)
    want = oracle.fit_linear_gcp(positions, paths)
    assert model.slots == tuple(want)
    assert model.weights.shape == (len(want), 5, 3)
    for got, (slot, w) in zip(model.weights, want.items()):
        assert np.array_equal(got, w), slot

    # Map points themselves and midpoints of pairs of them put exact ties
    # in the batch.
    queries = data.draw(_users(cfg, 6)) + positions
    queries += [tuple((a + b) / 2 for a, b in zip(p, r))
                for p, r in zip(positions, positions[1:])]
    batch = nn_ckm_predict(ckm, queries)
    assert batch.shape == (len(queries), cfg.num_antennas)
    for q, row in zip(queries, batch):
        assert np.array_equal(row, nn_ckm_predict(ckm, q))
