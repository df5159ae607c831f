"""Link-budget arithmetic, SNR map generation, and per-RB rates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from autocomm.configs import ObjectiveKind, ObjectiveSpec, SchedulingConfig
from autocomm.radio import (
    RadioParams,
    SnrMap,
    clamp_qos,
    generate_snr_map,
    path_loss_db,
    rb_rate_matrix,
)
from autocomm.rng import stream
from autocomm.scheduling import evaluate_batch


def uniform_map(num_robots: int, num_rbs: int, snr: float = 3.0) -> SnrMap:
    return SnrMap(values=np.full((num_robots, num_rbs), snr),
                  robot_positions=np.zeros((num_robots, 2)),
                  buffer_nonempty=np.ones(num_robots, dtype=bool))


def test_path_loss_reference_distance():
    # 40 dB at 1 m with exponent 3: 40 + 30*log10(10) = 70 dB at 10 m.
    p = RadioParams()
    assert path_loss_db(1.0, p) == pytest.approx(40.0)
    assert path_loss_db(10.0, p) == pytest.approx(70.0)
    assert path_loss_db([1.0, 10.0, 100.0], p) == pytest.approx([40.0, 70.0, 100.0])


def test_path_loss_rejects_nonpositive_distance():
    with pytest.raises(ValueError):
        path_loss_db(0.0, RadioParams())
    with pytest.raises(ValueError):
        path_loss_db(-2.0, RadioParams())
    with pytest.raises(ValueError):
        path_loss_db([5.0, 0.0], RadioParams())


def test_rb_rate_at_snr_three():
    # B/m * log2(1 + 3) = (2e7 / 9) * 2 bits/s on every RB.
    cfg = SchedulingConfig(num_robots=2)
    rates = rb_rate_matrix(uniform_map(2, cfg.num_rbs), cfg)
    assert rates.shape == (2, 9)
    assert rates == pytest.approx(np.full((2, 9), (2e7 / 9) * 2.0), rel=1e-12)


def test_robot_rate_sums_assigned_rbs():
    cfg = SchedulingConfig(num_robots=2)
    snr = uniform_map(2, cfg.num_rbs)
    alloc = np.array([[1, 1, 2, 2, 2, 1, 1, 1, 1]])
    per_rb = (2e7 / 9) * 2.0
    rates = evaluate_batch(alloc, snr, cfg, cfg.objective).rates[0]
    assert rates == pytest.approx([6 * per_rb, 3 * per_rb], rel=1e-12)


def test_pf_objective_value_example(pf_instance):
    # Two robots at 4e6 bits/s each: PF = 2 * log2(4e6).
    cfg = SchedulingConfig(
        num_robots=2, objective=ObjectiveSpec(kind=ObjectiveKind.PF))
    per_rb = 4e6 / 4.0
    lin = 2.0 ** (per_rb / (cfg.bandwidth_hz / cfg.num_rbs)) - 1.0
    snr = uniform_map(2, cfg.num_rbs, snr=lin)
    alloc = np.array([[1, 1, 1, 1, 2, 2, 2, 2, 1]])
    # Robot 1 gets 5 RBs, robot 2 gets 4: tune so robot 2 has exactly 4e6.
    assessed = evaluate_batch(alloc, snr, cfg, cfg.objective)
    rates = assessed.rates[0]
    assert rates[1] == pytest.approx(4e6, rel=1e-12)
    expected = math.log2(rates[0]) + math.log2(4e6)
    assert assessed.scores[0] == pytest.approx(expected, rel=1e-12)
    assert math.log2(4e6) == pytest.approx(21.931568569324174, rel=1e-15)


def test_clamp_qos_zeroes_subthreshold():
    rates = np.array([0.0, 999999.0, 1e6, 1.5e6])
    out = clamp_qos(rates, 1e6)
    assert np.array_equal(out, [0.0, 0.0, 1e6, 1.5e6])
    assert np.array_equal(clamp_qos(rates, 0.0), rates)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0, 1e8, allow_nan=False), min_size=1, max_size=30),
       st.floats(0, 1e7, allow_nan=False))
def test_clamp_qos_property(rates, min_rate):
    rates = np.asarray(rates)
    out = clamp_qos(rates, min_rate)
    manual = np.where(rates >= min_rate, rates, 0.0)
    assert np.array_equal(out, manual)


def test_generate_snr_map_shapes_and_ids():
    cfg = SchedulingConfig(num_robots=5)
    snr = generate_snr_map(cfg, RadioParams(), stream(3, "scheduling/snr"))
    assert snr.values.shape == (5, 9)
    assert snr.robot_positions.shape == (5, 2)
    assert snr.num_robots == 5 and snr.num_rbs == 9
    assert snr.eligible_ids() == list(range(1, 6))
    assert np.all(np.hypot(*snr.robot_positions.T) <= cfg.cell_radius_m)


def test_generate_snr_map_deterministic():
    cfg = SchedulingConfig(num_robots=4)
    a = generate_snr_map(cfg, RadioParams(), stream(9, "scheduling/snr"))
    b = generate_snr_map(cfg, RadioParams(), stream(9, "scheduling/snr"))
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.robot_positions, b.robot_positions)
    assert np.array_equal(a.buffer_nonempty, b.buffer_nonempty)


def test_fading_modes():
    cfg = SchedulingConfig(num_robots=6)
    flat = generate_snr_map(cfg, RadioParams(fading="none"),
                            stream(5, "scheduling/snr"))
    # Without fading all RBs of a robot are identical.
    assert np.all(flat.values == flat.values[:, :1])
    faded = generate_snr_map(cfg, RadioParams(fading="rayleigh"),
                             stream(5, "scheduling/snr"))
    assert np.any(faded.values != faded.values[:, :1])
    with pytest.raises(ValueError):
        RadioParams(fading="rician")


def test_buffer_occupancy_extremes():
    cfg = SchedulingConfig(num_robots=8, buffer_occupancy_prob=0.0)
    snr = generate_snr_map(cfg, RadioParams(), stream(6, "scheduling/snr"))
    assert snr.eligible_ids() == []
    cfg = SchedulingConfig(num_robots=8, buffer_occupancy_prob=1.0)
    snr = generate_snr_map(cfg, RadioParams(), stream(6, "scheduling/snr"))
    assert len(snr.eligible_ids()) == 8
