"""Environment-aware channel construction from scene geometry.

Paths are the line of sight plus single specular reflections off vertical
building facades.  Reflection points come from the image method: mirror
the BS across the facade plane, intersect the mirror-to-user segment with
the plane, and accept the point only when it lies inside the facade
rectangle; Fermat's principle makes that the unique stationary path, which
an independent grid search over the facade (no mirror math, in the tests)
can confirm.

One array kernel traces a whole batch of users (_trace): the image method
over [users x facades] (_image_stage), then a slab test of every LoS and
reflection leg against every box (only in-rectangle pairs get legs), then
lengths, gains and departure angles as arrays (_path_arrays).  build_ckm
reads those arrays into dense per-slot tables and synthesizes every
channel in one call; it is also where a run's true channels come from.
trace_paths and the geometry predictor's stage overrides read one row of
the same kernel, and every row is bit-equal to tracing that user alone.

What a scene config fixes is prepared once (_scene) and read by every
kernel: the slot ids, the image stage's per-facade arrays (normal,
plane origin, extent, height, axis, the BS's distance to each plane and
the mirrored BS), the slab test's box corners and the BS.
The store is keyed by the config object, not its value: == takes configs
that differ by a signed zero for one, and a repr costs more than a
one-user trace saves.  It holds at most 8 configs, each key holding its
config so no other object can take its id, and every array is read-only.
Every entry that takes a position refuses a NaN or infinite coordinate
with a ValueError naming it.

Channels are narrowband over a half-wavelength ULA aligned with the x
axis: h[n] = sum_l g_l * exp(-j*pi*n*sin(aod_l)), with per-path complex
gain (lambda / (4*pi*len)) * Gamma^bounces * exp(-j*2*pi*len/lambda).
One kernel, _synthesize, sums paths into channels for every caller.

Two data-driven baselines share the interface: nearest-neighbor lookup in
a channel-knowledge map and an affine per-scatterer regression; both
predict one query or a batch.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, fields
from importlib import resources
from typing import Optional, Sequence

import numpy as np

from .configs import Box, ChannelSceneConfig, ScenarioConfig, scenario_from_dict

SPEED_OF_LIGHT = 299792458.0


class DegenerateGeometry(ValueError):
    """A zero-length path: the user stands at the BS."""


@dataclass(frozen=True)
class Facade:
    """One vertical rectangle of a building, with its outward normal.

    axis is the coordinate the plane fixes ("x" or "y"); u is the other
    horizontal coordinate, spanning urange; z spans [0, height].
    """

    facade_id: str
    axis: str
    offset: float
    normal: tuple[float, float, float]
    urange: tuple[float, float]
    height: float


def enumerate_facades(cfg: ChannelSceneConfig) -> tuple[Facade, ...]:
    """All side facades, building by building, in a fixed face order.

    Each call builds them anew; a trace reads the ones its prepared scene
    holds (_scene).
    """
    out = []
    for i, b in enumerate(cfg.buildings):
        out.append(Facade(f"b{i}:xmin", "x", b.x[0], (-1.0, 0.0, 0.0),
                          b.y, b.height))
        out.append(Facade(f"b{i}:xmax", "x", b.x[1], (1.0, 0.0, 0.0),
                          b.y, b.height))
        out.append(Facade(f"b{i}:ymin", "y", b.y[0], (0.0, -1.0, 0.0),
                          b.x, b.height))
        out.append(Facade(f"b{i}:ymax", "y", b.y[1], (0.0, 1.0, 0.0),
                          b.x, b.height))
    return tuple(out)


@dataclass(frozen=True, eq=False)
class _Scene:
    """What a ChannelSceneConfig fixes, prepared once for every trace.

    Per facade [F, ...]: the image stage's plane normal, plane origin (only
    the fixed coordinate is non-zero), urange, height, whether u is the y
    coordinate (the plane fixes x), the BS's signed distance to the plane
    and the mirrored BS.  Per box [B, 3]: the slab test's lower and upper
    corners.  Every array is read-only.
    """

    slots: tuple[str, ...]           # "los", then the facade ids
    bs: np.ndarray                   # [3]
    normal: np.ndarray
    origin: np.ndarray
    urange: np.ndarray
    height: np.ndarray
    u_is_y: np.ndarray
    d_bs: np.ndarray
    mirrored: np.ndarray
    lo: np.ndarray
    hi: np.ndarray


def _box_bounds(buildings: Sequence[Box]) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper corners [B, 3] of the boxes, for the slab test."""
    lo = np.array([(b.x[0], b.y[0], 0.0) for b in buildings],
                  dtype=float).reshape(-1, 3)
    hi = np.array([(b.x[1], b.y[1], b.height) for b in buildings],
                  dtype=float).reshape(-1, 3)
    return lo, hi


def _prepare(bs_pos: Sequence[float], facades: Sequence[Facade],
             buildings: Sequence[Box]) -> _Scene:
    """The _Scene of a BS, its facades and the boxes that can block."""
    bs = np.asarray(bs_pos, dtype=float)
    geom = np.array([(*f.normal, f.offset, *f.urange, f.height)
                     for f in facades], dtype=float).reshape(-1, 7)
    normal = geom[:, :3]
    # Only the fixed coordinate of the plane point matters: the others are
    # multiplied by a zero normal component.
    origin = np.abs(normal) * geom[:, 3:4]
    d_bs = ((bs - origin) * normal).sum(axis=-1)
    lo, hi = _box_bounds(buildings)
    scene = _Scene(
        slots=("los",) + tuple(f.facade_id for f in facades),
        bs=bs, normal=normal, origin=origin, urange=geom[:, 4:6],
        height=geom[:, 6], u_is_y=np.array([f.axis == "x" for f in facades],
                                           dtype=bool),
        d_bs=d_bs, mirrored=bs - 2.0 * d_bs[:, None] * normal, lo=lo, hi=hi)
    for f in fields(scene):
        value = getattr(scene, f.name)
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    return scene


class _Identity:
    """A cache key equal only to the very object it holds, which it keeps
    alive, so no other object takes that id while the key is cached."""

    __slots__ = ("obj",)

    def __init__(self, obj):
        self.obj = obj

    def __hash__(self) -> int:
        return id(self.obj)

    def __eq__(self, other) -> bool:
        return self.obj is other.obj


def _scene(cfg: ChannelSceneConfig) -> _Scene:
    """cfg's prepared scene, built on its first trace."""
    return _scene_of(_Identity(cfg))


@functools.lru_cache(maxsize=8)     # a scene is a few kB
def _scene_of(key: _Identity) -> _Scene:
    """_scene's store, at most 8 configs, each keyed by its identity."""
    cfg = key.obj
    return _prepare(cfg.bs_pos, enumerate_facades(cfg), cfg.buildings)


def _finite(positions, name: str) -> np.ndarray:
    """positions as a float array; a ValueError naming a non-finite one.

    A NaN or infinite coordinate would otherwise run through the kernels
    with RuntimeWarnings and surface as some other error, or none.
    """
    arr = np.asarray(positions, dtype=float)
    if not np.isfinite(arr).all():
        rows = np.atleast_2d(arr)
        bad = rows[~np.isfinite(rows).all(axis=-1)][0]
        raise ValueError(f"{name} must be finite, got {bad.tolist()}")
    return arr


_ON_PLANE_TOL = 1e-12

# Facade status codes.  The image stage sets the first three and leaves
# in-rectangle pairs ACTIVE; the slab stage demotes occluded ones to BLOCKED.
_ON_PLANE, _BEHIND, _OUTSIDE, _BLOCKED, _ACTIVE = range(5)


def _norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis.

    A stacked row-by-column matmul runs the same BLAS dot as np.linalg.norm
    on one vector, so each row's norm is bit-equal to the one-vector norm.
    """
    return np.sqrt((v[..., None, :] @ v[..., :, None])[..., 0, 0])


def _image_stage(scene: _Scene,
                 users: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Image method over [users x facades]: status codes and points q.

    q is the crossing of the mirrored-BS-to-user segment with the facade
    plane; it is meaningful only where the status is _ACTIVE.
    """
    d_bs, mirrored = scene.d_bs, scene.mirrored                 # [F], [F, 3]
    d_user = ((users[:, None, :] - scene.origin)
              * scene.normal).sum(axis=-1)                      # [U, F]
    # Pairs with an endpoint on or behind the plane divide by zero or
    # mirror away from the facade; their q is never read.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = d_bs / (d_bs + d_user)
        q = mirrored + t[..., None] * (users[:, None, :] - mirrored)
        u = np.where(scene.u_is_y, q[..., 1], q[..., 0])
        z = q[..., 2]
        inside = ((scene.urange[:, 0] <= u) & (u <= scene.urange[:, 1])
                  & (0.0 <= z) & (z <= scene.height))
    status = np.where(
        (np.abs(d_bs) < _ON_PLANE_TOL) | (np.abs(d_user) < _ON_PLANE_TOL),
        _ON_PLANE,
        np.where((d_bs < 0.0) | (d_user < 0.0), _BEHIND,
                 np.where(inside, _ACTIVE, _OUTSIDE)))
    return status, q


def _blocked(p: np.ndarray, q: np.ndarray,
             lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Slab test over [segments x boxes]: open segment p->q hits an interior
    of a box with corners lo and hi [B, 3].

    A leg parallel to an axis (|d| < 1e-15) must lie strictly between that
    axis's slabs; the entry/exit interval must be longer than 1e-12 and
    overlap the open unit interval by more than 1e-12.
    """
    if not len(lo):
        return np.zeros(len(p), dtype=bool)
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


def _trace(scene: _Scene, users: np.ndarray
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """LoS mask [U], facade status [U, F] and reflection points [U, F, 3]."""
    bs = scene.bs
    status, q = _image_stage(scene, users)
    # Legs to test: every user's line of sight, then BS -> q and q -> user
    # for the in-rectangle pairs only.
    ui, fi = np.nonzero(status == _ACTIVE)
    qk = q[ui, fi]
    starts = np.concatenate([np.repeat(bs[None, :], len(users) + len(ui), 0),
                             qk])
    ends = np.concatenate([users, qk, users[ui]])
    blocked = _blocked(starts, ends, scene.lo, scene.hi)
    n, k = len(users), len(ui)
    legs = blocked[n:n + k] | blocked[n + k:]
    status[ui[legs], fi[legs]] = _BLOCKED
    return ~blocked[:n], status, q


# ---------------------------------------------------------------------------
# Path tracing


@dataclass(frozen=True)
class Path:
    """One propagation path from BS to user."""

    kind: str                      # "los" or "reflection"
    facade_id: Optional[str]
    length_m: float
    gain: complex
    aod_rad: float                 # departure azimuth, arcsin of x-component
    points: tuple[tuple[float, float, float], ...]

    @property
    def slot(self) -> str:
        return self.facade_id if self.facade_id is not None else "los"


def _path_arrays(cfg: ChannelSceneConfig, bs: np.ndarray, users: np.ndarray,
                 via: np.ndarray, los: np.ndarray
                 ) -> tuple[np.ndarray, ...]:
    """Length, complex gain and AoD of each row BS -> via -> user, or of
    the line of sight where los is set (via is then the user itself)."""
    lam = SPEED_OF_LIGHT / cfg.carrier_hz
    out_leg = via - bs
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
    gain = (amp_re * rot.real - amp_im * rot.imag).astype(complex)
    gain.imag = amp_re * rot.imag + amp_im * rot.real
    aod = np.arcsin(np.clip(out_leg[:, 0] / _norm(out_leg), -1.0, 1.0))
    return length, gain, aod


def _trace_rows(scene: _Scene, users: np.ndarray):
    """The [users, 1 + facades] path-presence mask, and the present
    (user, slot) rows in that order: user index, slot index and via point.
    Slot 0 is LoS (via the user itself), slot f + 1 is facade f (via its
    reflection point)."""
    los, status, q = _trace(scene, users)
    present = np.column_stack([los, status == _ACTIVE])
    user_idx, slot = np.nonzero(present)
    via = np.concatenate([users[:, None, :], q], axis=1)[user_idx, slot]
    return present, user_idx, slot, via


def _sines(aod: np.ndarray) -> np.ndarray:
    """math.sin of each AoD, as synthesize_channel takes it from each Path."""
    return np.array([math.sin(a) for a in aod.tolist()], dtype=float)


def trace_paths(cfg: ChannelSceneConfig, user: Sequence[float]) -> list[Path]:
    """LoS plus all clear single-reflection paths, in facade order.

    A NaN or infinite coordinate is a ValueError naming the user position.
    """
    users = _finite(user, "user position").reshape(1, 3)
    scene = _scene(cfg)
    _, _, slot, via = _trace_rows(scene, users)
    length, gain, aod = _path_arrays(cfg, scene.bs, users, via, slot == 0)
    start = tuple(scene.bs.tolist())
    end = tuple(users[0].tolist())
    return [Path(kind="los" if s == 0 else "reflection",
                 facade_id=None if s == 0 else scene.slots[s],
                 length_m=l_m, gain=g, aod_rad=a_d,
                 points=(start, end) if s == 0 else (start, tuple(v), end))
            for s, l_m, g, a_d, v in zip(
                slot.tolist(), length.tolist(), gain.tolist(), aod.tolist(),
                via.tolist())]


def _synthesize(num_antennas: int, num_rows: int, owner: np.ndarray,
                gains: np.ndarray, sin_aod: np.ndarray) -> np.ndarray:
    """Channels [num_rows, num_antennas] of paths given as arrays: path k
    (gain, sin of its AoD) belongs to row owner[k].

    np.add.at accumulates in path order, so each row sums its paths in the
    order given, exactly as a loop over that row alone would.
    """
    n = np.arange(num_antennas)
    # One [paths, antennas] buffer, updated in place.
    terms = -1j * math.pi * n * sin_aod[:, None]
    np.exp(terms, out=terms)
    np.multiply(gains[:, None], terms, out=terms)
    h = np.zeros((num_rows, num_antennas), dtype=complex)
    np.add.at(h, owner, terms)
    return h


def synthesize_channel(cfg: ChannelSceneConfig,
                       paths: Sequence[Path]) -> np.ndarray:
    """Narrowband ULA response: h[n] = sum_l g_l exp(-j pi n sin(aod_l))."""
    gains = np.array([p.gain for p in paths], dtype=complex)
    sin_aod = np.array([math.sin(p.aod_rad) for p in paths], dtype=float)
    return _synthesize(cfg.num_antennas, 1, np.zeros(len(paths), dtype=int),
                       gains, sin_aod)[0]


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
    stage 1 intact.  Defaults reproduce trace_paths exactly.  A NaN or
    infinite user coordinate or stage2_offset is a ValueError naming it.
    """
    if not math.isfinite(stage2_offset):
        raise ValueError(f"stage2_offset must be finite, got {stage2_offset}")
    if stage1_labels is None and stage2_offset == 0.0:
        return synthesize_channel(cfg, trace_paths(cfg, user))
    scene = _scene(cfg)
    user = _finite(user, "user position").reshape(1, 3)
    los, status, q = _trace(scene, user)
    if stage1_labels is None:
        slot = np.nonzero(np.append(los, status[0] == _ACTIVE))[0]
    else:
        ids = list(scene.slots)
        labels = list(stage1_labels)
        unknown = [s for s in labels if s not in ids]
        if unknown:
            raise ValueError(f"unknown stage1 labels {unknown}; slots: {ids}")
        # Labels keep their order and repeats.  The LoS slot always stays;
        # a facade stays when its reflection point lies on it, blocked or
        # not, and drops out with an endpoint on or behind its plane.
        slot = np.array([ids.index(s) for s in labels], dtype=int)
        on_facade = np.isin(status[0], (_ACTIVE, _BLOCKED))
        slot = slot[np.append(True, on_facade)[slot]]
    # Slot 0 runs via the user, slot f + 1 via facade f's reflection point.
    # Stage 2 moves a point along its facade (coordinate u) and pins the
    # other horizontal coordinate to the plane, signed zero included.
    via = np.concatenate([user, q[0]])[slot]
    if stage2_offset != 0.0:
        k = np.nonzero(slot)[0]
        f = slot[k] - 1
        u = scene.u_is_y[f].astype(int)
        via[k, 1 - u] = scene.origin[f, 1 - u]
        via[k, u] = np.clip(via[k, u] + stage2_offset, scene.urange[f, 0],
                            scene.urange[f, 1])
    _, gain, aod = _path_arrays(cfg, scene.bs, user, via, slot == 0)
    return _synthesize(cfg.num_antennas, 1, np.zeros(len(slot), dtype=int),
                       gain, _sines(aod))[0]


# ---------------------------------------------------------------------------
# Channel-knowledge-map baselines


@dataclass(frozen=True)
class CkmDataset:
    """Sampled channel knowledge: user positions, true channels, and the
    per-sample path decomposition as dense [N, slots] arrays.

    slots are "los" then the facade ids in trace order; gains and sin_aod
    are zero where a path is absent.
    """

    positions: np.ndarray            # [N, 3]
    channels: np.ndarray             # [N, num_antennas] complex
    slots: tuple[str, ...]
    present: np.ndarray              # [N, S] bool
    gains: np.ndarray                # [N, S] complex
    sin_aod: np.ndarray              # [N, S], math.sin of each path's AoD


def build_ckm(cfg: ChannelSceneConfig,
              positions: Sequence[Sequence[float]]) -> CkmDataset:
    """Trace every position [N, 3] in one call: its true channel and its
    paths as dense per-slot arrays.

    Row n is bit-equal to synthesize_channel(cfg, trace_paths(cfg, p_n)).
    A run's true channels, and the channel map the baselines read, are
    built here.  A NaN or infinite coordinate is a ValueError naming the
    position.
    """
    pos = _finite(positions, "position").reshape(-1, 3)
    scene = _scene(cfg)
    present, user_idx, slot, via = _trace_rows(scene, pos)
    _, gain, aod = _path_arrays(cfg, scene.bs, pos[user_idx], via, slot == 0)
    # A path whose gain is exactly zero (a zero reflection coefficient, or
    # one so small that the gain underflows) carries nothing: it is absent,
    # so no map reader sees it and the fit never takes log(0).  Dropping
    # its zero terms leaves every channel sum bit for bit the same.
    dead = gain == 0
    present[user_idx[dead], slot[dead]] = False
    user_idx, slot, gain, aod = (a[~dead] for a in (user_idx, slot, gain, aod))
    sin_aod = _sines(aod)
    gains = np.zeros(present.shape, dtype=complex)
    gains[user_idx, slot] = gain
    sins = np.zeros(present.shape)
    sins[user_idx, slot] = sin_aod
    return CkmDataset(
        positions=pos,
        channels=_synthesize(cfg.num_antennas, len(pos), user_idx, gain,
                             sin_aod),
        slots=scene.slots,
        present=present, gains=gains, sin_aod=sins)


def nn_ckm_predict(ckm: CkmDataset, query: Sequence[float]) -> np.ndarray:
    """Channel of the nearest stored position; ties go to the lower index.

    One query [3] gives one channel [A]; a batch [U, 3] gives [U, A].  A
    NaN or infinite coordinate is a ValueError naming the query.
    """
    if len(ckm.positions) == 0:
        raise ValueError("empty channel map")
    q = _finite(query, "query position")
    d2 = np.sum((ckm.positions - q[..., None, :]) ** 2, axis=-1)
    return np.take(ckm.channels, np.argmin(d2, axis=-1), axis=0)


@dataclass(frozen=True)
class LinearGcp:
    """Affine-in-position regression of per-slot path parameters.

    For each slot the presence indicator, sin(aod), log amplitude, and the
    cosine/sine of the gain phase are each fit as w . [x, y, 1] by least
    squares.  Slots predicted absent contribute nothing.  A predicted
    amplitude is capped at 1: an affine fit over nearly coincident samples
    can extrapolate a log amplitude past the float range.  With
    |reflection_coeff| <= 1 (a passive surface) no path of a metre or more
    reaches amplitude 1; a larger coefficient can give a true amplitude
    above 1, and its prediction is then clipped to 1.
    """

    num_antennas: int
    slots: tuple[str, ...]
    weights: np.ndarray              # [slots, 5 targets, 3], in slot order


def fit_linear_gcp(cfg: ChannelSceneConfig, ckm: CkmDataset) -> LinearGcp:
    # Slots present in some sample, by name.
    columns = sorted((s, j) for j, s in enumerate(ckm.slots)
                     if ckm.present[:, j].any())
    design = np.column_stack([ckm.positions[:, 0], ckm.positions[:, 1],
                              np.ones(len(ckm.positions))])
    weights = np.zeros((len(columns), 5, 3))
    for w, (_, j) in zip(weights, columns):
        present = ckm.present[:, j]
        # Under 3 samples the affine fits are rank-deficient; leave the slot
        # all-zero so prediction never invents a path from it.
        if present.sum() >= 3:
            w[0] = np.linalg.lstsq(design, present.astype(float), rcond=None)[0]
            sub = design[present]
            gains = ckm.gains[present, j]
            targets = [ckm.sin_aod[present, j],
                       np.log(np.abs(gains)),
                       np.cos(np.angle(gains)),
                       np.sin(np.angle(gains))]
            for k, tgt in enumerate(targets, start=1):
                w[k] = np.linalg.lstsq(sub, tgt, rcond=None)[0]
    return LinearGcp(num_antennas=cfg.num_antennas,
                     slots=tuple(s for s, _ in columns), weights=weights)


def linear_gcp_predict(model: LinearGcp, query: Sequence[float]) -> np.ndarray:
    """Sum of the slots predicted present at each query's (x, y).

    One query [3] gives one channel [A]; a batch [U, 3] gives [U, A].  A
    NaN or infinite coordinate is a ValueError naming the query.
    """
    x = _finite(query, "query position").reshape(-1, 3).copy()
    x[:, 2] = 1.0                   # each fit is w . [x, y, 1]
    # As in _norm, a stacked row-by-column matmul makes each w . x the same
    # BLAS dot that one query alone gets: fits is [U, slots, 5 targets].
    fits = (model.weights[:, :, None, :] @ x[:, None, None, :, None])[..., 0, 0]
    user_idx, slot = np.nonzero(~(fits[..., 0] < 0.5))
    fits = fits[user_idx, slot]
    amp = np.array([math.exp(min(v, 0.0)) for v in fits[:, 2].tolist()])
    phase = np.array([math.atan2(s, c) for c, s in fits[:, 3:].tolist()])
    h = _synthesize(model.num_antennas, len(x), user_idx,
                    amp * np.exp(1j * phase), np.clip(fits[:, 1], -1.0, 1.0))
    return h.reshape(np.shape(query)[:-1] + (model.num_antennas,))


# ---------------------------------------------------------------------------
# Bundled scenes


def load_fixture_scene(index: int) -> ScenarioConfig:
    """One of the four bundled channel scenes (1-based index)."""
    if index not in (1, 2, 3, 4):
        raise ValueError("fixture scenes are numbered 1 to 4")
    text = (resources.files("autocomm.data.scenes")
            .joinpath(f"scene{index}.json").read_text(encoding="utf-8"))
    return scenario_from_dict(json.loads(text))
