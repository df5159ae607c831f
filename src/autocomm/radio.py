"""Link budget, SNR map generation, per-RB rates, and QoS clamping.

Every scheduler consumes the same SnrMap: a [num_robots x num_rbs] matrix of
linear SNR values derived from uniformly placed robots, a log-distance path
loss, and an optional per-RB Rayleigh fading term.  Rates use the Shannon
capacity of each RB at equal bandwidth B / num_rbs; summing them per robot
under an allocation is scheduling.evaluate_batch's job.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .configs import SchedulingConfig
from .rng import RngStream


@dataclass(frozen=True)
class RadioParams:
    """Link budget defaults sized so SNRs span roughly 0-40 dB over a 100 m
    cell, keeping scheduling instances non-degenerate."""

    tx_power_dbm: float = 23.0
    noise_dbm_per_rb: float = -101.0
    pathloss_ref_db: float = 40.0
    pathloss_exponent: float = 3.0
    fading: str = "none"  # "none" | "rayleigh"

    def __post_init__(self):
        if self.pathloss_exponent < 2:
            raise ValueError("pathloss_exponent must be >= 2")
        if not math.isfinite(self.noise_dbm_per_rb):
            raise ValueError("noise_dbm_per_rb must be finite")
        if self.fading not in ("none", "rayleigh"):
            raise ValueError("fading must be 'none' or 'rayleigh'")


@dataclass(frozen=True)
class SnrMap:
    """Per-robot, per-RB linear SNR plus placement and buffer state.

    Robot ids are 1-based; row ``i`` holds robot ``i + 1``.
    """

    values: np.ndarray                # [num_robots, num_rbs], linear SNR
    robot_positions: np.ndarray       # [num_robots, 2], meters
    buffer_nonempty: np.ndarray       # [num_robots], bool

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)) or np.any(self.values <= 0):
            raise ValueError("SNR values must be positive and finite")
        if self.values.shape[0] != len(self.robot_positions) or \
                self.values.shape[0] != len(self.buffer_nonempty):
            raise ValueError("SnrMap dimensions disagree")

    @property
    def num_robots(self) -> int:
        return self.values.shape[0]

    @property
    def num_rbs(self) -> int:
        return self.values.shape[1]

    def eligible_ids(self) -> list[int]:
        """1-based ids of robots with a non-empty buffer, ascending."""
        return [i + 1 for i in range(self.num_robots) if self.buffer_nonempty[i]]


def path_loss_db(distance_m, params: RadioParams) -> np.ndarray:
    """Log-distance path loss, elementwise: ref loss at 1 m plus 10*n*log10(d)."""
    distance_m = np.asarray(distance_m, dtype=float)
    if np.any(distance_m <= 0):
        raise ValueError("distance_m must be > 0")
    return params.pathloss_ref_db + 10.0 * params.pathloss_exponent * np.log10(distance_m)


def generate_snr_map(cfg: SchedulingConfig, params: RadioParams, rng: RngStream) -> SnrMap:
    """Draw robot placement, buffers, and the per-RB linear SNR matrix.

    Positions are uniform over the disk of cfg.cell_radius_m; with
    fading="rayleigh" each (robot, RB) gets an i.i.d. unit-mean power fade.
    """
    n, m = cfg.num_robots, cfg.num_rbs
    radii = cfg.cell_radius_m * np.sqrt(rng.random(n))
    angles = rng.uniform(0.0, 2.0 * math.pi, n)
    positions = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])

    # Robots at the exact center would have an undefined path loss; the
    # draw is measure-zero but clamp to 1 m anyway.
    distances = np.maximum(np.hypot(positions[:, 0], positions[:, 1]), 1.0)
    snr_db = params.tx_power_dbm - path_loss_db(distances, params) - params.noise_dbm_per_rb
    snr = np.power(10.0, snr_db / 10.0)[:, None] * np.ones((1, m))
    if params.fading == "rayleigh":
        snr = snr * rng.exponential(1.0, (n, m))

    buffers = rng.random(n) < cfg.buffer_occupancy_prob
    return SnrMap(values=snr, robot_positions=positions, buffer_nonempty=buffers)


def rb_rate_matrix(snr: SnrMap, cfg: SchedulingConfig) -> np.ndarray:
    """Per-(robot, RB) Shannon rate in bits/s at bandwidth B / num_rbs."""
    rb_bw = cfg.bandwidth_hz / cfg.num_rbs
    return rb_bw * np.log2(1.0 + snr.values)


def clamp_qos(rates_bps: np.ndarray, min_rate_bps: float) -> np.ndarray:
    """Zero every rate below the QoS threshold; others pass through."""
    rates = np.asarray(rates_bps, dtype=float)
    return np.where(rates < min_rate_bps, 0.0, rates)
