"""Environment-aware channel construction from scene geometry.

Paths are the line of sight plus single specular reflections off vertical
building facades.  Reflection points come from the image method: mirror
the BS across the facade plane, intersect the mirror-to-user segment with
the plane, and accept the point only when it lies inside the facade
rectangle; Fermat's principle makes that the unique stationary path, which
an independent grid search over the facade (no mirror math, in the tests)
can confirm.

One array kernel traces a whole batch of users (trace_paths_batch): the
image method over [users x facades], then a slab test of every LoS and
reflection leg against every box (only in-rectangle pairs get legs), then
lengths, delays, gains and angles as arrays and one path builder.  The
single-user functions (trace_paths, classify_scatterers,
mirror_reflection_point, is_blocked) read one row of the same kernel, and
every row is bit-equal to tracing that user alone.

Channels are narrowband over a half-wavelength ULA aligned with the x
axis: h[n] = sum_l g_l * exp(-j*pi*n*sin(aod_l)), with per-path complex
gain (lambda / (4*pi*len)) * Gamma^bounces * exp(-j*2*pi*len/lambda).

Two data-driven baselines share the interface: nearest-neighbor lookup in
a channel-knowledge map and an affine per-scatterer regression.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from typing import Optional, Sequence

import numpy as np

from .configs import Box, ChannelSceneConfig, ScenarioConfig, scenario_from_dict

SPEED_OF_LIGHT = 299792458.0


class DegenerateGeometry(ValueError):
    """Endpoint on the reflecting plane: the image method is undefined."""


@dataclass(frozen=True)
class Facade:
    """One vertical rectangle of a building, with its outward normal.

    axis is the coordinate the plane fixes ("x" or "y"); u is the other
    horizontal coordinate, spanning urange; z spans [0, height].
    """

    facade_id: str
    building: int
    axis: str
    offset: float
    normal: tuple[float, float, float]
    urange: tuple[float, float]
    height: float

    def point_on_plane(self) -> np.ndarray:
        if self.axis == "x":
            return np.array([self.offset, self.urange[0], 0.0])
        return np.array([self.urange[0], self.offset, 0.0])

    def embed(self, u: float, z: float) -> np.ndarray:
        """Map facade coordinates (u, z) to a 3D point."""
        if self.axis == "x":
            return np.array([self.offset, u, z])
        return np.array([u, self.offset, z])

    def coords(self, p: Sequence[float]) -> tuple[float, float]:
        """(u, z) facade coordinates of a 3D point assumed on the plane."""
        if self.axis == "x":
            return float(p[1]), float(p[2])
        return float(p[0]), float(p[2])


def enumerate_facades(cfg: ChannelSceneConfig) -> tuple[Facade, ...]:
    """All side facades, building by building, in a fixed face order."""
    out = []
    for i, b in enumerate(cfg.buildings):
        out.append(Facade(f"b{i}:xmin", i, "x", b.x[0], (-1.0, 0.0, 0.0),
                          b.y, b.height))
        out.append(Facade(f"b{i}:xmax", i, "x", b.x[1], (1.0, 0.0, 0.0),
                          b.y, b.height))
        out.append(Facade(f"b{i}:ymin", i, "y", b.y[0], (0.0, -1.0, 0.0),
                          b.x, b.height))
        out.append(Facade(f"b{i}:ymax", i, "y", b.y[1], (0.0, 1.0, 0.0),
                          b.x, b.height))
    return tuple(out)


_ON_PLANE_TOL = 1e-12

# Facade status codes.  The image stage sets the first three and leaves
# in-rectangle pairs ACTIVE; the slab stage demotes occluded ones to BLOCKED.
_ON_PLANE, _BEHIND, _OUTSIDE, _BLOCKED, _ACTIVE = range(5)
_STATUS_NAMES = ("behind_plane", "behind_plane", "outside_extent", "blocked",
                 "active")


def _norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis.

    A stacked row-by-column matmul runs the same BLAS dot as np.linalg.norm
    on one vector, so each row's norm is bit-equal to the one-vector norm.
    """
    return np.sqrt((v[..., None, :] @ v[..., :, None])[..., 0, 0])


def _image_stage(bs: np.ndarray, users: np.ndarray,
                 facades: Sequence[Facade]) -> tuple[np.ndarray, np.ndarray]:
    """Image method over [users x facades]: status codes and points q.

    q is the crossing of the mirrored-BS-to-user segment with the facade
    plane; it is meaningful only where the status is _ACTIVE.
    """
    geom = np.array([(*f.normal, f.offset, *f.urange, f.height, f.axis == "x")
                     for f in facades], dtype=float).reshape(-1, 8)
    normal, urange, height = geom[:, :3], geom[:, 4:6], geom[:, 6]
    # Only the fixed coordinate of the plane point matters: the others are
    # multiplied by a zero normal component.
    origin = np.abs(normal) * geom[:, 3:4]
    d_bs = ((bs - origin) * normal).sum(axis=-1)                      # [F]
    d_user = ((users[:, None, :] - origin) * normal).sum(axis=-1)    # [U, F]
    mirrored = bs - 2.0 * d_bs[:, None] * normal                      # [F, 3]
    # Pairs with an endpoint on or behind the plane divide by zero or
    # mirror away from the facade; their q is never read.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = d_bs / (d_bs + d_user)
        q = mirrored + t[..., None] * (users[:, None, :] - mirrored)
        u = np.where(geom[:, 7] == 1.0, q[..., 1], q[..., 0])
        z = q[..., 2]
        inside = ((urange[:, 0] <= u) & (u <= urange[:, 1])
                  & (0.0 <= z) & (z <= height))
    status = np.where(
        (np.abs(d_bs) < _ON_PLANE_TOL) | (np.abs(d_user) < _ON_PLANE_TOL),
        _ON_PLANE,
        np.where((d_bs < 0.0) | (d_user < 0.0), _BEHIND,
                 np.where(inside, _ACTIVE, _OUTSIDE)))
    return status, q


def _blocked(p: np.ndarray, q: np.ndarray,
             buildings: Sequence[Box]) -> np.ndarray:
    """Slab test over [segments x boxes]: open segment p->q hits an interior.

    A leg parallel to an axis (|d| < 1e-15) must lie strictly between that
    axis's slabs; the entry/exit interval must be longer than 1e-12 and
    overlap the open unit interval by more than 1e-12.
    """
    if not buildings:
        return np.zeros(len(p), dtype=bool)
    lo = np.array([(b.x[0], b.y[0], 0.0) for b in buildings])        # [B, 3]
    hi = np.array([(b.x[1], b.y[1], b.height) for b in buildings])
    d = (q - p)[:, None, :]                                           # [S, 1, 3]
    p = p[:, None, :]
    parallel = np.abs(d) < 1e-15
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ta = (lo - p) / d                                             # [S, B, 3]
        tb = (hi - p) / d
    t0 = np.where(parallel, 0.0, np.minimum(ta, tb)).max(axis=-1, initial=0.0)
    t1 = np.where(parallel, 1.0, np.maximum(ta, tb)).min(axis=-1, initial=1.0)
    slabs_ok = (~parallel | ((lo < p) & (p < hi))).all(axis=-1)
    hit = (slabs_ok & (t1 - t0 > 1e-12) & (t1 > 1e-12)
           & (t0 < 1.0 - 1e-12))
    return hit.any(axis=-1)


def _trace(cfg: ChannelSceneConfig, users: np.ndarray,
           facades: Sequence[Facade]
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """LoS mask [U], facade status [U, F] and reflection points [U, F, 3]."""
    bs = np.asarray(cfg.bs_pos, dtype=float)
    status, q = _image_stage(bs, users, facades)
    # Legs to test: every user's line of sight, then BS -> q and q -> user
    # for the in-rectangle pairs only.
    ui, fi = np.nonzero(status == _ACTIVE)
    qk = q[ui, fi]
    starts = np.concatenate([np.repeat(bs[None, :], len(users) + len(ui), 0),
                             qk])
    ends = np.concatenate([users, qk, users[ui]])
    blocked = _blocked(starts, ends, cfg.buildings)
    n, k = len(users), len(ui)
    legs = blocked[n:n + k] | blocked[n + k:]
    status[ui[legs], fi[legs]] = _BLOCKED
    return ~blocked[:n], status, q


def mirror_reflection_point(bs: Sequence[float], user: Sequence[float],
                            facade: Facade) -> Optional[np.ndarray]:
    """Specular reflection point on a facade by the image method.

    Returns None when no single-bounce path off this facade exists: either
    endpoint strictly behind the plane, or the stationary point outside the
    facade rectangle.  An endpoint lying on the plane itself is degenerate
    and raises instead of guessing.
    """
    status, q = _image_stage(np.asarray(bs, dtype=float),
                             np.asarray(user, dtype=float).reshape(1, 3),
                             (facade,))
    if status[0, 0] == _ON_PLANE:
        raise DegenerateGeometry(
            f"endpoint on facade plane {facade.facade_id}")
    return q[0, 0] if status[0, 0] == _ACTIVE else None


def is_blocked(p: Sequence[float], q: Sequence[float],
               buildings: Sequence[Box]) -> bool:
    """True when the open segment p->q passes through any box interior.

    Touching a face, edge, or vertex does not block; the test is strict, so
    a reflection leg ending on its own facade is never self-blocked.
    """
    return bool(_blocked(np.asarray(p, dtype=float).reshape(1, 3),
                         np.asarray(q, dtype=float).reshape(1, 3),
                         buildings)[0])


# ---------------------------------------------------------------------------
# Path tracing


@dataclass(frozen=True)
class Path:
    """One propagation path from BS to user."""

    kind: str                      # "los" or "reflection"
    facade_id: Optional[str]
    length_m: float
    delay_s: float
    gain: complex
    aod_rad: float                 # departure azimuth, arcsin of x-component
    aoa_rad: float                 # arrival azimuth at the user, same convention
    points: tuple[tuple[float, float, float], ...]

    @property
    def slot(self) -> str:
        return self.facade_id if self.facade_id is not None else "los"


def classify_scatterers(cfg: ChannelSceneConfig,
                        user: Sequence[float]) -> dict[str, str]:
    """Status of every facade for a given user.

    "active"          single-bounce specular path exists and is clear
    "behind_plane"    BS or user on (or behind) the facade plane
    "outside_extent"  stationary point misses the facade rectangle
    "blocked"         a leg of the path is occluded by some building
    """
    facades = enumerate_facades(cfg)
    _, status, _ = _trace(cfg, np.asarray(user, dtype=float).reshape(1, 3),
                          facades)
    return {f.facade_id: _STATUS_NAMES[s] for f, s in zip(facades, status[0])}


def _build_paths(cfg: ChannelSceneConfig, users: np.ndarray,
                 via: np.ndarray, facade_ids: Sequence[Optional[str]]
                 ) -> list[Path]:
    """One Path per row: BS -> via -> user, or the line of sight where the
    facade id is None (via is then the user itself).

    Lengths, delays, gains and angles are computed as arrays; the Path
    objects get Python floats.
    """
    bs = np.asarray(cfg.bs_pos, dtype=float)
    los = np.array([f is None for f in facade_ids], dtype=bool)
    lam = SPEED_OF_LIGHT / cfg.carrier_hz
    out_leg = via - bs
    back = np.where(los[:, None], bs, via) - users    # user -> last point
    length = _norm(out_leg) + _norm(users - via)
    if not np.all(length > 0.0):
        raise DegenerateGeometry("user at the BS: zero-length path")
    # The complex product is written out in real arithmetic: numpy's SIMD
    # complex multiply fuses multiply-adds and would move gains by an ulp
    # from the unfused scalar arithmetic of one path at a time.
    gamma = complex(cfg.reflection_coeff)
    amp = lam / (4.0 * math.pi * length)
    amp_re = amp * np.where(los, 1.0, gamma.real)
    amp_im = amp * np.where(los, 0.0, gamma.imag)
    rot = np.exp(1j * (-2.0 * math.pi * length / lam))
    gain_re = amp_re * rot.real - amp_im * rot.imag
    gain_im = amp_re * rot.imag + amp_im * rot.real
    aod = np.arcsin(np.clip(out_leg[:, 0] / _norm(out_leg), -1.0, 1.0))
    aoa = np.arcsin(np.clip(back[:, 0] / _norm(back), -1.0, 1.0))
    start = tuple(bs.tolist())
    return [Path(kind="los" if fid is None else "reflection", facade_id=fid,
                 length_m=l_m, delay_s=l_m / SPEED_OF_LIGHT,
                 gain=complex(g_re, g_im), aod_rad=a_d, aoa_rad=a_a,
                 points=(start, u) if fid is None else (start, v, u))
            for fid, l_m, g_re, g_im, a_d, a_a, u, v in zip(
                facade_ids, length.tolist(), gain_re.tolist(),
                gain_im.tolist(), aod.tolist(), aoa.tolist(),
                zip(*users.T.tolist()), zip(*via.T.tolist()))]


def trace_paths_batch(cfg: ChannelSceneConfig,
                      users: Sequence[Sequence[float]]) -> list[list[Path]]:
    """trace_paths for many users at once, one array pass for the batch.

    Each user's row is bit-equal to tracing that user alone.
    """
    users = np.asarray(users, dtype=float).reshape(-1, 3)
    facades = enumerate_facades(cfg)
    los, status, q = _trace(cfg, users, facades)
    ids = [None] + [f.facade_id for f in facades]
    # Rows in (user, slot) order; slot 0 is LoS (via the user itself),
    # slot f + 1 is facade f (via its reflection point).
    user_idx, slot = np.nonzero(np.column_stack([los, status == _ACTIVE]))
    via = np.concatenate([users[:, None, :], q], axis=1)[user_idx, slot]
    paths = _build_paths(cfg, users[user_idx], via, [ids[s] for s in slot])
    out: list[list[Path]] = [[] for _ in range(len(users))]
    for u, path in zip(user_idx.tolist(), paths):
        out[u].append(path)
    return out


def trace_paths(cfg: ChannelSceneConfig, user: Sequence[float]) -> list[Path]:
    """LoS plus all clear single-reflection paths, in facade order."""
    return trace_paths_batch(cfg, [user])[0]


def _synthesize_rows(cfg: ChannelSceneConfig,
                     rows: Sequence[Sequence[Path]]) -> np.ndarray:
    """Channels of many path lists at once, [rows, num_antennas].

    np.add.at accumulates in path order, so each row sums its paths in the
    order given, exactly as a loop over that row alone would.
    """
    flat = [p for row in rows for p in row]
    owner = np.repeat(np.arange(len(rows)), [len(row) for row in rows])
    gains = np.array([p.gain for p in flat], dtype=complex)
    sin_aod = np.array([math.sin(p.aod_rad) for p in flat], dtype=float)
    n = np.arange(cfg.num_antennas)
    # One [paths, antennas] buffer, updated in place.
    terms = -1j * math.pi * n * sin_aod[:, None]
    np.exp(terms, out=terms)
    np.multiply(gains[:, None], terms, out=terms)
    h = np.zeros((len(rows), cfg.num_antennas), dtype=complex)
    np.add.at(h, owner, terms)
    return h


def synthesize_channel(cfg: ChannelSceneConfig,
                       paths: Sequence[Path]) -> np.ndarray:
    """Narrowband ULA response: h[n] = sum_l g_l exp(-j pi n sin(aod_l))."""
    return _synthesize_rows(cfg, [paths])[0]


NMSE_FLOOR_DB = -150.0


def nmse_db(h_true: np.ndarray, h_pred: np.ndarray) -> float:
    """10 log10(||h_t - h_p||^2 / ||h_t||^2), floored at -150 dB.

    Raises ValueError on a NaN or infinite entry, whose error would
    otherwise compare as no error at all and read as the floor.
    """
    h_true = np.asarray(h_true)
    h_pred = np.asarray(h_pred)
    if not (np.isfinite(h_true).all() and np.isfinite(h_pred).all()):
        raise ValueError("nmse_db: channels must be finite")
    num = float(np.sum(np.abs(h_true - h_pred) ** 2))
    den = float(np.sum(np.abs(h_true) ** 2))
    if num == 0.0:
        return NMSE_FLOOR_DB
    if den == 0.0:
        return math.inf
    return max(NMSE_FLOOR_DB, 10.0 * math.log10(num / den))


# ---------------------------------------------------------------------------
# Geometry-driven predictor (two stages, both overridable for diagnostics)


def geometry_predictor(cfg: ChannelSceneConfig, user: Sequence[float],
                       stage1_labels: Optional[Sequence[str]] = None,
                       stage2_offset: float = 0.0) -> np.ndarray:
    """Predict the channel from scene geometry alone.

    Stage 1 decides which facades scatter (and whether LoS exists); stage 2
    places each reflection point and synthesizes the channel.  The
    diagnostic knobs expose each stage's sensitivity: stage1_labels
    overrides the active-path list with slot names ("los" or facade ids),
    and stage2_offset slides every reflection point along the facade's
    horizontal tangent by that many meters (clamped to the facade), leaving
    stage 1 intact.  Defaults reproduce trace_paths exactly.
    """
    if stage1_labels is None and stage2_offset == 0.0:
        return synthesize_channel(cfg, trace_paths(cfg, user))
    if stage1_labels is None:
        slots = [p.slot for p in trace_paths(cfg, user)]
    else:
        slots = list(stage1_labels)

    user = np.asarray(user, dtype=float)
    facades = enumerate_facades(cfg)
    column = {f.facade_id: i for i, f in enumerate(facades)}
    status, q = _image_stage(np.asarray(cfg.bs_pos, dtype=float),
                             user.reshape(1, 3), facades)
    ids: list[Optional[str]] = []
    via: list[np.ndarray] = []
    for slot in slots:
        if slot == "los":
            ids.append(None)
            via.append(user)
            continue
        f = column[slot]
        if status[0, f] != _ACTIVE:    # on, behind, or off the facade
            continue
        point = q[0, f]
        if stage2_offset != 0.0:
            facade = facades[f]
            u, z = facade.coords(point)
            u = float(np.clip(u + stage2_offset,
                              facade.urange[0], facade.urange[1]))
            point = facade.embed(u, z)
        ids.append(slot)
        via.append(point)
    via_arr = np.array(via, dtype=float).reshape(-1, 3)
    paths = _build_paths(cfg, np.broadcast_to(user, via_arr.shape),
                         via_arr, ids)
    return synthesize_channel(cfg, paths)


# ---------------------------------------------------------------------------
# Channel-knowledge-map baselines


@dataclass(frozen=True)
class CkmDataset:
    """Sampled channel knowledge: user positions, true channels, and the
    per-sample path decomposition keyed by slot."""

    positions: np.ndarray            # [N, 3]
    channels: np.ndarray             # [N, num_antennas] complex
    paths: tuple[dict[str, Path], ...]


def build_ckm(cfg: ChannelSceneConfig,
              positions: Sequence[Sequence[float]]) -> CkmDataset:
    pos = np.asarray(positions, dtype=float)
    rows = trace_paths_batch(cfg, pos)
    return CkmDataset(positions=pos, channels=_synthesize_rows(cfg, rows),
                      paths=tuple({p.slot: p for p in r} for r in rows))


def nn_ckm_predict(ckm: CkmDataset, query: Sequence[float]) -> np.ndarray:
    """Channel of the nearest stored position; ties go to the lower index."""
    if len(ckm.positions) == 0:
        raise ValueError("empty channel map")
    q = np.asarray(query, dtype=float)
    d2 = np.sum((ckm.positions - q) ** 2, axis=1)
    return ckm.channels[int(np.argmin(d2))].copy()


@dataclass(frozen=True)
class LinearGcp:
    """Affine-in-position regression of per-slot path parameters.

    For each slot the presence indicator, sin(aod), log amplitude, and the
    cosine/sine of the gain phase are each fit as w . [x, y, 1] by least
    squares.  Slots predicted absent contribute nothing.
    """

    num_antennas: int
    slots: tuple[str, ...]
    weights: dict[str, np.ndarray]   # [5 targets, 3] per slot


def fit_linear_gcp(cfg: ChannelSceneConfig, ckm: CkmDataset) -> LinearGcp:
    slots = sorted({s for row in ckm.paths for s in row})
    design = np.column_stack([ckm.positions[:, 0], ckm.positions[:, 1],
                              np.ones(len(ckm.positions))])
    weights: dict[str, np.ndarray] = {}
    for slot in slots:
        present = np.array([slot in row for row in ckm.paths])
        w = np.zeros((5, 3))
        # Under 3 samples the affine fits are rank-deficient; leave the slot
        # all-zero so prediction never invents a path from it.
        if present.sum() >= 3:
            w[0] = np.linalg.lstsq(design, present.astype(float), rcond=None)[0]
            sub = design[present]
            gains = np.array([row[slot].gain for row, keep
                              in zip(ckm.paths, present) if keep])
            sin_aod = np.array([math.sin(row[slot].aod_rad) for row, keep
                                in zip(ckm.paths, present) if keep])
            targets = [sin_aod,
                       np.log(np.abs(gains)),
                       np.cos(np.angle(gains)),
                       np.sin(np.angle(gains))]
            for k, tgt in enumerate(targets, start=1):
                w[k] = np.linalg.lstsq(sub, tgt, rcond=None)[0]
        weights[slot] = w
    return LinearGcp(num_antennas=cfg.num_antennas, slots=tuple(slots),
                     weights=weights)


def linear_gcp_predict(model: LinearGcp, query: Sequence[float]) -> np.ndarray:
    x = np.array([float(query[0]), float(query[1]), 1.0])
    h = np.zeros(model.num_antennas, dtype=complex)
    n = np.arange(model.num_antennas)
    for slot in model.slots:
        w = model.weights[slot]
        presence = float(w[0] @ x)
        if presence < 0.5:
            continue
        sin_aod = float(np.clip(w[1] @ x, -1.0, 1.0))
        amp = math.exp(float(w[2] @ x))
        phase = math.atan2(float(w[4] @ x), float(w[3] @ x))
        h += amp * np.exp(1j * phase) * np.exp(-1j * math.pi * n * sin_aod)
    return h


# ---------------------------------------------------------------------------
# Bundled scenes


def load_fixture_scene(index: int) -> ScenarioConfig:
    """One of the four bundled channel scenes (1-based index)."""
    if index not in (1, 2, 3, 4):
        raise ValueError("fixture scenes are numbered 1 to 4")
    text = (resources.files("autocomm.data.scenes")
            .joinpath(f"scene{index}.json").read_text(encoding="utf-8"))
    return scenario_from_dict(json.loads(text))
