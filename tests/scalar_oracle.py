"""Scalar references for the array kernels.

``scheduling.evaluate_batch`` assesses whole batches of allocations with one
bincount; this module assesses one allocation at a time with plain loops and
Python sets, independently of that kernel: per-robot rates summed RB by RB,
the QoS clamp written out, and the structural rules as set comprehensions.
Tests compare the kernel and ``validate`` against it.  The genetic search
here runs its restarts one after another, each scoring its own population,
as the reference for ``scheduling.ga_schedule``, which runs them in
lockstep.

The geochannel section traces one user at a time, facade by facade, in
numpy scalars: the image method, the slab test, the facade statuses by
name and the hand-written ``Path`` constructions that the array stage of
``geochannel`` (``_trace``, ``_path_arrays``) replaces, the
channel-knowledge map and its affine fit kept as per-sample dicts of
``Path`` objects (``geochannel.build_ckm`` keeps dense arrays), the affine
model's prediction one query and one slot at a time
(``geochannel.linear_gcp_predict`` predicts a batch), plus two
checks of a specular point that use no image method at all: the
law-of-reflection residual and a path-length grid search over the facade
(ACCEPTANCE 5 runs the image method against both).  The traffic
section is the encoder that builds the observation as dicts and
re-serializes it once per dropped row, and the step and invariant check
that ``traffic.step`` and ``TrafficState.check_invariants`` replace:
attributes re-read and every lane list rebuilt per vehicle-step, spacing
and vehicle count checked in separate passes.
"""

import itertools
import json
import math

import numpy as np

from autocomm.configs import ObjectiveKind
from autocomm.radio import rb_rate_matrix
from autocomm.geochannel import (
    SPEED_OF_LIGHT,
    DegenerateGeometry,
    Path,
    enumerate_facades,
)
from autocomm.scheduling import (
    LEVEL_INVALID,
    LEVEL_OK,
    LEVEL_QOS_VIOLATED,
    Violation,
    ViolationKind,
    evaluate_batch,
)
from autocomm.traffic import (
    _STOPPED_SPEED,
    LANE_KEYS,
    PHASE_MOVEMENTS,
    ConservationError,
    CrashInvariantError,
    EncodedObservation,
    InsufficientBudgetError,
    _apply_phase_request,
)


def rate_vector(alloc, snr, cfg) -> np.ndarray:
    """Per-robot rates (bits/s) under an allocation; empty buffers give 0.

    Entries past the last RB own nothing, as do ids that name no robot.
    """
    rates = rb_rate_matrix(snr, cfg)
    out = np.zeros(snr.num_robots)
    for b, owner in enumerate(alloc[:rates.shape[1]]):
        if 1 <= owner <= snr.num_robots:
            out[owner - 1] += rates[owner - 1, b]
    out[~snr.buffer_nonempty] = 0.0
    return out


def clamp(rates, min_rate_bps) -> np.ndarray:
    """Zero every rate below the QoS threshold."""
    rates = np.asarray(rates, dtype=float)
    return np.where(rates < min_rate_bps, 0.0, rates)


def score(alloc, snr, cfg, objective) -> float:
    """Objective value of one allocation, structure aside: the per-robot
    terms added one at a time in robot order (np.sum adds eight or more
    pairwise, and Python's sum compensates from 3.12 on)."""
    rates = rate_vector(alloc, snr, cfg)
    if objective.is_qos:
        rates = clamp(rates, objective.min_rate_bps)
    if objective.kind is ObjectiveKind.QOS_SUM_RATE:
        terms = rates
    else:
        terms = np.log2(np.maximum(rates[snr.buffer_nonempty],
                                   objective.epsilon))
    total = 0.0
    for term in terms.tolist():
        total += term
    return total


def violations(alloc, snr, cfg, objective) -> tuple[Violation, ...]:
    """The violations validate must report, in its order."""
    found: list[Violation] = []
    n = snr.num_robots
    alloc = tuple(int(a) for a in alloc)

    if len(alloc) != cfg.num_rbs:
        found.append(Violation(ViolationKind.WRONG_LENGTH))

    unknown = sorted({a for a in alloc if not 1 <= a <= n})
    if unknown:
        found.append(Violation(ViolationKind.UNKNOWN_ROBOT, tuple(unknown)))

    empty = sorted({a for a in alloc
                    if 1 <= a <= n and not snr.buffer_nonempty[a - 1]})
    if empty:
        found.append(Violation(ViolationKind.EMPTY_BUFFER_ROBOT, tuple(empty)))

    cap = cfg.rb_cap
    for rid in sorted({a for a in alloc if 1 <= a <= n}):
        if alloc.count(rid) > cap:
            found.append(Violation(ViolationKind.EXCESSIVE_RBS, (rid,)))

    if objective.is_qos and not found:
        rates = rate_vector(alloc, snr, cfg)
        bad = [i + 1 for i in range(n)
               if snr.buffer_nonempty[i] and rates[i] < objective.min_rate_bps]
        if bad:
            found.append(Violation(ViolationKind.QOS_VIOLATION, tuple(bad)))
    return tuple(found)


def level(alloc, snr, cfg, objective) -> int:
    """Feasibility-first ranking level of one allocation."""
    kinds = {v.kind for v in violations(alloc, snr, cfg, objective)}
    if kinds - {ViolationKind.QOS_VIOLATION}:
        return LEVEL_INVALID
    return LEVEL_QOS_VIOLATED if kinds else LEVEL_OK


def brute_force(cfg, snr, objective, chunk=1 << 14):
    """Exact search over every vector of eligible ids, in itertools.product
    order: the best (level, score) key, and at that key the first, so
    lexicographically smallest, vector."""
    ids = snr.eligible_ids()
    vectors = itertools.product(ids, repeat=cfg.num_rbs)
    best_key, best_alloc = None, None
    while True:
        block = np.fromiter(itertools.chain.from_iterable(
            itertools.islice(vectors, chunk)), dtype=np.int64)
        if not len(block):
            return best_alloc, best_key[1]
        block = block.reshape(-1, cfg.num_rbs)
        assessed = evaluate_batch(block, snr, cfg, objective)
        for i in range(len(block)):
            if best_key is None or assessed.key(i) > best_key:
                best_key = assessed.key(i)
                best_alloc = tuple(int(v) for v in block[i])


# ---------------------------------------------------------------------------
# Genetic search: one restart at a time


def ga_schedule(cfg, snr, objective, ga, rng):
    """The restarts of scheduling.ga_schedule run one after another, each a
    separate population scored by its own evaluate_batch calls."""
    best_alloc = None
    best_key = (LEVEL_INVALID - 1, -np.inf)
    total_gens = 0
    for r in range(ga.restarts):
        alloc, key, gens = ga_run(cfg, snr, objective, ga,
                                  rng.substream(f"restart{r}"))
        total_gens += gens
        if key > best_key:
            best_key, best_alloc = key, alloc
    assert best_alloc is not None
    return best_alloc, best_key[1], total_gens


def ga_run(cfg, snr, objective, ga, rng):
    """One restart: (best allocation, its (level, score) key, generations)."""
    eligible = snr.eligible_ids()
    if not eligible:
        raise ValueError("no eligible robots to schedule")
    ids = np.asarray(eligible)
    k, m = len(ids), cfg.num_rbs
    pop_n = ga.population

    genes = rng.integers(0, k, (pop_n, m))
    best_gene = None
    best_key = (LEVEL_INVALID - 1, -np.inf)

    def rank(gs):
        return evaluate_batch(ids[gs], snr, cfg, objective)

    generations_used = 0
    for _ in range(ga.generations):
        generations_used += 1
        assessed = rank(genes)
        levels, scores = assessed.levels, assessed.scores

        order = np.lexsort((np.arange(pop_n), -scores, -levels))
        top = order[0]
        if assessed.key(top) > best_key:
            best_key = assessed.key(top)
            best_gene = genes[top].copy()

        # Tournament selection over the feasibility-first key.
        contenders = rng.integers(0, pop_n, (pop_n, ga.tournament_size))
        keys = levels.astype(np.float64) * 1e18 + np.where(
            np.isfinite(scores), scores, -1e17)
        winners = contenders[np.arange(pop_n), np.argmax(keys[contenders], axis=1)]
        parents = genes[winners]

        # Uniform crossover on consecutive pairs; a trailing unpaired parent
        # passes through unchanged.
        children = parents.copy()
        half = pop_n // 2
        do_cross = rng.random(half) < ga.crossover_prob
        swap_mask = rng.random((half, m)) < 0.5
        swap_mask &= do_cross[:, None]
        a = children[0:2 * half:2]
        b = children[1:2 * half:2]
        a_sw = np.where(swap_mask, b, a)
        b_sw = np.where(swap_mask, a, b)
        children[0:2 * half:2] = a_sw
        children[1:2 * half:2] = b_sw

        # Per-gene mutation redraws a uniform eligible robot.
        mut = rng.random((pop_n, m)) < ga.mutation_prob
        redraw = rng.integers(0, k, (pop_n, m))
        children = np.where(mut, redraw, children)

        # Elitism: the incumbent best replaces the tail of the new population.
        elite = [best_gene] + [genes[order[i]] for i in range(1, ga.elitism)]
        for j, e in enumerate(elite[: ga.elitism]):
            children[pop_n - 1 - j] = e
        genes = children

    assessed = rank(genes)
    order = np.lexsort((np.arange(pop_n), -assessed.scores, -assessed.levels))
    top = order[0]
    if assessed.key(top) > best_key:
        best_key = assessed.key(top)
        best_gene = genes[top].copy()

    assert best_gene is not None
    alloc = tuple(int(v) for v in ids[best_gene])
    return alloc, best_key, generations_used


# ---------------------------------------------------------------------------
# Geochannel: one user, one facade, one box at a time


def point_on_plane(facade) -> np.ndarray:
    """The facade corner at u = urange[0] on the ground."""
    if facade.axis == "x":
        return np.array([facade.offset, facade.urange[0], 0.0])
    return np.array([facade.urange[0], facade.offset, 0.0])


def _signed_distance(p, facade) -> float:
    n = np.asarray(facade.normal)
    return float(np.dot(np.asarray(p, dtype=float) - point_on_plane(facade), n))


def mirror_reflection_point(bs, user, facade):
    """Image-method reflection point, None, or DegenerateGeometry."""
    bs = np.asarray(bs, dtype=float)
    user = np.asarray(user, dtype=float)
    d_bs = _signed_distance(bs, facade)
    d_user = _signed_distance(user, facade)
    if abs(d_bs) < 1e-12 or abs(d_user) < 1e-12:
        raise DegenerateGeometry(
            f"endpoint on facade plane {facade.facade_id}")
    if d_bs < 0.0 or d_user < 0.0:
        return None
    n = np.asarray(facade.normal)
    mirrored = bs - 2.0 * d_bs * n
    t = d_bs / (d_bs + d_user)
    q = mirrored + t * (user - mirrored)
    u, z = facade.coords(q)
    if not (facade.urange[0] <= u <= facade.urange[1]):
        return None
    if not (0.0 <= z <= facade.height):
        return None
    return q


def reflection_residual(bs, user, q, facade) -> float:
    """Law-of-reflection defect at q: ||reflect(incoming) - outgoing||.

    Zero (to rounding) exactly when incidence and departure angles match
    about the facade normal, i.e. when q is a true specular point.
    """
    bs = np.asarray(bs, dtype=float)
    user = np.asarray(user, dtype=float)
    q = np.asarray(q, dtype=float)
    n = np.asarray(facade.normal)
    d_in = q - bs
    d_out = user - q
    d_in = d_in / np.linalg.norm(d_in)
    d_out = d_out / np.linalg.norm(d_out)
    reflected = d_in - 2.0 * np.dot(d_in, n) * n
    return float(np.linalg.norm(reflected - d_out))


def is_blocked(p, q, buildings) -> bool:
    """Slab test of the open segment p->q against every box, box by box."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    d = q - p
    for b in buildings:
        lo = np.array([b.x[0], b.y[0], 0.0])
        hi = np.array([b.x[1], b.y[1], b.height])
        t0, t1 = 0.0, 1.0
        hit = True
        for ax in range(3):
            if abs(d[ax]) < 1e-15:
                if not (lo[ax] < p[ax] < hi[ax]):
                    hit = False
                    break
                continue
            ta = (lo[ax] - p[ax]) / d[ax]
            tb = (hi[ax] - p[ax]) / d[ax]
            if ta > tb:
                ta, tb = tb, ta
            t0 = max(t0, ta)
            t1 = min(t1, tb)
            if t0 >= t1:
                hit = False
                break
        if hit and t1 - t0 > 1e-12 and t1 > 1e-12 and t0 < 1.0 - 1e-12:
            return True
    return False


def classify_scatterers(cfg, user) -> dict[str, str]:
    """Status of every facade for one user."""
    out: dict[str, str] = {}
    for facade in enumerate_facades(cfg):
        try:
            q = mirror_reflection_point(cfg.bs_pos, user, facade)
        except DegenerateGeometry:
            out[facade.facade_id] = "behind_plane"
            continue
        if q is None:
            d_bs = _signed_distance(cfg.bs_pos, facade)
            d_user = _signed_distance(user, facade)
            out[facade.facade_id] = ("behind_plane"
                                     if d_bs < 0 or d_user < 0
                                     else "outside_extent")
        elif (is_blocked(cfg.bs_pos, q, cfg.buildings)
              or is_blocked(q, user, cfg.buildings)):
            out[facade.facade_id] = "blocked"
        else:
            out[facade.facade_id] = "active"
    return out


def _direction_angles(a, b) -> float:
    d = b - a
    d = d / np.linalg.norm(d)
    return float(np.arcsin(np.clip(d[0], -1.0, 1.0)))


def _path_gain(cfg, length: float, bounces: int) -> complex:
    lam = SPEED_OF_LIGHT / cfg.carrier_hz
    amp = (lam / (4.0 * math.pi * length)) * (cfg.reflection_coeff ** bounces)
    return amp * np.exp(-2j * math.pi * length / lam)


def _los_path(cfg, bs, user) -> Path:
    length = float(np.linalg.norm(user - bs))
    return Path(kind="los", facade_id=None, length_m=length,
                gain=_path_gain(cfg, length, 0),
                aod_rad=_direction_angles(bs, user),
                points=(tuple(bs), tuple(user)))


def _reflection_path(cfg, bs, q, user, facade_id) -> Path:
    length = float(np.linalg.norm(q - bs) + np.linalg.norm(user - q))
    return Path(kind="reflection", facade_id=facade_id, length_m=length,
                gain=_path_gain(cfg, length, 1),
                aod_rad=_direction_angles(bs, q),
                points=(tuple(bs), tuple(float(v) for v in q), tuple(user)))


def trace_paths(cfg, user) -> list[Path]:
    """LoS plus all clear single-reflection paths, in facade order."""
    bs = np.asarray(cfg.bs_pos, dtype=float)
    user = np.asarray(user, dtype=float)
    paths: list[Path] = []
    if not is_blocked(bs, user, cfg.buildings):
        paths.append(_los_path(cfg, bs, user))
    for facade in enumerate_facades(cfg):
        try:
            q = mirror_reflection_point(bs, user, facade)
        except DegenerateGeometry:
            continue
        if q is None:
            continue
        if is_blocked(bs, q, cfg.buildings) or is_blocked(q, user, cfg.buildings):
            continue
        paths.append(_reflection_path(cfg, bs, q, user, facade.facade_id))
    return paths


def synthesize_channel(cfg, paths) -> np.ndarray:
    """ULA response summed path by path."""
    h = np.zeros(cfg.num_antennas, dtype=complex)
    n = np.arange(cfg.num_antennas)
    for p in paths:
        h += p.gain * np.exp(-1j * math.pi * n * math.sin(p.aod_rad))
    return h


def predictor_paths(cfg, user, stage1_labels=None,
                    stage2_offset: float = 0.0) -> list[Path]:
    """The paths the two-stage geometry predictor synthesizes."""
    bs = np.asarray(cfg.bs_pos, dtype=float)
    user = np.asarray(user, dtype=float)
    facades = {f.facade_id: f for f in enumerate_facades(cfg)}
    if stage1_labels is None:
        slots = [p.slot for p in trace_paths(cfg, user)]
    else:
        slots = list(stage1_labels)
    paths: list[Path] = []
    for slot in slots:
        if slot == "los":
            paths.append(_los_path(cfg, bs, user))
            continue
        facade = facades[slot]
        try:
            q = mirror_reflection_point(bs, user, facade)
        except DegenerateGeometry:
            continue
        if q is None:
            continue
        if stage2_offset != 0.0:
            u, z = facade.coords(q)
            u = float(np.clip(u + stage2_offset,
                              facade.urange[0], facade.urange[1]))
            q = facade.embed(u, z)
        paths.append(_reflection_path(cfg, bs, q, user, slot))
    return paths


def build_ckm(cfg, positions):
    """Channel-knowledge map from Path objects, one sample at a time.

    Returns the true channels [N, num_antennas] and each sample's paths
    keyed by slot ("los" or a facade id), the layout ``geochannel.build_ckm``
    replaces with dense per-slot arrays.
    """
    rows = [trace_paths(cfg, p) for p in positions]
    channels = np.zeros((len(rows), cfg.num_antennas), dtype=complex)
    for i, row in enumerate(rows):
        channels[i] = synthesize_channel(cfg, row)
    return channels, tuple({p.slot: p for p in row} for row in rows)


def fit_linear_gcp(positions, paths) -> dict:
    """Per-slot affine weights, reading every sample's paths row by row."""
    positions = np.asarray(positions, dtype=float).reshape(-1, 3)
    slots = sorted({s for row in paths for s in row})
    design = np.column_stack([positions[:, 0], positions[:, 1],
                              np.ones(len(positions))])
    weights = {}
    for slot in slots:
        present = np.array([slot in row for row in paths])
        w = np.zeros((5, 3))
        if present.sum() >= 3:
            w[0] = np.linalg.lstsq(design, present.astype(float), rcond=None)[0]
            sub = design[present]
            gains = np.array([row[slot].gain for row, keep
                              in zip(paths, present) if keep])
            sin_aod = np.array([math.sin(row[slot].aod_rad) for row, keep
                                in zip(paths, present) if keep])
            targets = [sin_aod,
                       np.log(np.abs(gains)),
                       np.cos(np.angle(gains)),
                       np.sin(np.angle(gains))]
            for k, tgt in enumerate(targets, start=1):
                w[k] = np.linalg.lstsq(sub, tgt, rcond=None)[0]
        weights[slot] = w
    return weights


def linear_gcp_predict(model, query) -> np.ndarray:
    """One query's channel from a LinearGcp, slot by slot: each w . x a
    one-vector dot, each present slot's ULA response added in turn."""
    x = np.array([float(query[0]), float(query[1]), 1.0])
    h = np.zeros(model.num_antennas, dtype=complex)
    n = np.arange(model.num_antennas)
    for w in model.weights:
        presence = float(w[0] @ x)
        if presence < 0.5:
            continue
        sin_aod = float(np.clip(w[1] @ x, -1.0, 1.0))
        amp = math.exp(min(float(w[2] @ x), 0.0))    # capped at 1
        phase = math.atan2(float(w[4] @ x), float(w[3] @ x))
        h += amp * np.exp(1j * phase) * np.exp(-1j * math.pi * n * sin_aod)
    return h


# ---------------------------------------------------------------------------
# Geochannel: specular points checked without the image method


def grid_search_reflection_oracle(bs, user, facade, resolution: float = 0.01):
    """Minimize |bs-q| + |q-user| over a facade grid.

    Pure path-length search at the given resolution (a coarse sweep plus a
    fine window around its argmin; the objective is convex on the plane, so
    the refinement cannot change basins).  Returns the minimizing grid
    point, or None when the minimum sits on the facade boundary (no
    interior stationary point) or an endpoint is not strictly in front.
    """
    bs = np.asarray(bs, dtype=float)
    user = np.asarray(user, dtype=float)
    if _signed_distance(bs, facade) <= 0 or _signed_distance(user, facade) <= 0:
        return None

    u0, u1 = facade.urange
    z0, z1 = 0.0, facade.height

    def total_length(us: np.ndarray, zs: np.ndarray) -> np.ndarray:
        if facade.axis == "x":
            pts = np.stack([np.full(us.size, facade.offset),
                            us, zs], axis=1)
        else:
            pts = np.stack([us, np.full(us.size, facade.offset),
                            zs], axis=1)
        return (np.linalg.norm(pts - bs, axis=1)
                + np.linalg.norm(pts - user, axis=1))

    def sweep(ulo, uhi, zlo, zhi, step):
        us = np.arange(ulo, uhi + step / 2, step)
        zs = np.arange(zlo, zhi + step / 2, step)
        uu, zz = np.meshgrid(us, zs, indexing="ij")
        lengths = total_length(uu.ravel(), zz.ravel()).reshape(uu.shape)
        i, j = np.unravel_index(np.argmin(lengths), lengths.shape)
        return float(us[i]), float(zs[j])

    coarse = max(resolution, min(u1 - u0, z1 - z0, 1.0) / 4)
    ub, zb = sweep(u0, u1, z0, z1, coarse)
    ub, zb = sweep(max(u0, ub - 2 * coarse), min(u1, ub + 2 * coarse),
                   max(z0, zb - 2 * coarse), min(z1, zb + 2 * coarse),
                   resolution)

    if (ub - u0 < resolution / 2 or u1 - ub < resolution / 2
            or zb - z0 < resolution / 2 or z1 - zb < resolution / 2):
        return None
    return facade.embed(ub, zb)


# ---------------------------------------------------------------------------
# Traffic: one vehicle, one check and one dropped row at a time


def step(state, cfg, phase_request=None):
    """Advance the intersection by one dt, vehicle by vehicle."""
    if phase_request is not None:
        _apply_phase_request(state, phase_request, cfg)
    t, dt = state.time_s, cfg.dt_s
    v_free = cfg.free_flow_speed_mps
    green = PHASE_MOVEMENTS[state.phase]

    for key in sorted(state.lanes):
        q = state.lanes[key]
        if not q:
            continue
        is_green = key in green
        new_q = []
        front_pos = None
        for veh in q:
            pos0 = veh.pos
            desired = pos0 - v_free * dt
            if front_pos is None and desired < 0.0:
                # Head reaches the stop line inside this step.
                t_line = t + pos0 / v_free
                t_cross = max(t_line, state.next_release[key])
                if is_green and t_cross < t + dt - 1e-12:
                    veh.distance_m += pos0
                    veh.travel_time_s += t_cross - t
                    veh.speed = v_free
                    veh.crossed_t = t_cross
                    state.crossed.append(veh)
                    state.next_release[key] = t_cross + cfg.discharge_headway_s
                    continue
                new_pos = 0.0
            elif front_pos is None:
                new_pos = desired
            else:
                new_pos = max(desired, front_pos + cfg.headway_m)
            moved = pos0 - new_pos
            veh.speed = moved / dt
            veh.distance_m += moved
            veh.travel_time_s += dt
            if veh.speed < _STOPPED_SPEED:
                veh.wait_s += dt
            veh.pos = new_pos
            front_pos = new_pos
            new_q.append(veh)
        state.lanes[key] = new_q

    state.time_s = t + dt
    return state


def active_count(state) -> int:
    return sum(len(q) for q in state.lanes.values())


def check_invariants(state, cfg) -> None:
    """Spacing lane by lane, then conservation through a second count."""
    for key in sorted(state.lanes):
        q = state.lanes[key]
        for lead, follow in zip(q, q[1:]):
            gap = follow.pos - lead.pos
            if gap < cfg.headway_m - 1e-9:
                raise CrashInvariantError(
                    f"lane {key}: vehicles {lead.vid} and {follow.vid} "
                    f"separated by {gap:.3f} m at t={state.time_s:.1f}")
    if active_count(state) + len(state.crossed) != state.spawned:
        raise ConservationError(
            f"{state.spawned} spawned but {active_count(state)} active + "
            f"{len(state.crossed)} crossed at t={state.time_s:.1f}")


def _lane_summaries(state, kind, cfg) -> dict[str, dict]:
    lanes: dict[str, dict] = {}
    for key in LANE_KEYS:
        q = state.lanes[key]
        if kind == "vue":
            entry: dict = {"q": len(q)}
            if q:
                entry["w"] = round(q[0].wait_s, 1)
        else:
            # Roadside top view: counts saturate at the visible depth and
            # per-vehicle history (waits) is not observable.
            entry = {"q": min(len(q), cfg.visible_depth)}
        lanes[key] = entry
    return lanes


def encode_observation(state, kind, cfg) -> EncodedObservation:
    """Drop the farthest vehicle row and re-serialize until it fits."""
    if kind not in ("vue", "rsu"):
        raise ValueError(f"unknown observation kind {kind!r}")
    foreground = {
        "t": round(state.time_s, 1),
        "phase": state.phase,
        "lanes": _lane_summaries(state, kind, cfg),
    }
    vehicles: list[dict] = []
    for key in sorted(state.lanes):
        q = state.lanes[key]
        visible = q if kind == "vue" else q[: cfg.visible_depth]
        for veh in visible:
            vehicles.append({"lane": key, "pos": round(veh.pos, 1),
                             "v": round(veh.speed, 1)})
    vehicles.sort(key=lambda r: (r["pos"], r["lane"]))

    def emit(rows):
        doc = dict(foreground)
        if rows:
            doc["vehicles"] = rows
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    fg_bytes = len(emit([]).encode("utf-8"))
    if fg_bytes > cfg.byte_budget:
        raise InsufficientBudgetError(
            f"foreground needs {fg_bytes} bytes, budget is {cfg.byte_budget}")
    kept = len(vehicles)
    payload = emit(vehicles)
    while kept > 0 and len(payload.encode("utf-8")) > cfg.byte_budget:
        kept -= 1
        payload = emit(vehicles[:kept])
    return EncodedObservation(
        kind=kind, payload=payload,
        foreground_fraction=fg_bytes / len(payload.encode("utf-8")),
        dropped_vehicles=len(vehicles) - kept)
