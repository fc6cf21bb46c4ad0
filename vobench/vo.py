"""The benchmark's own VO loop over rigvo's public functions.

Per frame t (closed loop: frame t starts when frame t-1 has ended):

  update_track_table
  until initialized, on the window [t-10, t]:
    check_initialization_ready -> run_window_sfm -> estimate_window_scales
    -> initialize_state
  afterwards:
    window full -> keyframe_decision(parallax, tracked ratio)
                -> marginalize_oldest | discard_second_newest
    pnp_refine(extrinsics=...) from the newest window pose
    triangulate_rays for tracks seen at t that never had a landmark
    optimize_window -> prune_landmarks -> correct_scale

Keyframe inputs: the mean over cameras of FeatureTrackTable.window_parallax
between the two newest window frames, and the share of the second-newest
frame's tracks (all cameras) still observed in the newest.
"""

from __future__ import annotations

import collections
import math
import time
from dataclasses import dataclass, field

import numpy as np

from rigvo.backend import (
    Landmark,
    correct_scale,
    discard_second_newest,
    keyframe_decision,
    marginalize_oldest,
    optimize_window,
    prune_landmarks,
)
from rigvo.frontend import FeatureTrackTable, update_track_table
from rigvo.initialization import (
    INIT_WINDOW_SPAN,
    check_initialization_ready,
    estimate_window_scales,
    initialize_state,
    run_window_sfm,
)
from rigvo.scale import DegenerateMotionError
from rigvo.sfm import SfmFailure, pnp_refine, triangulate_rays

from hostspeed import HostSpeed
from evaluate import (
    anchored_camera_translations,
    ate_rmse,
    fit_scale,
    prior_is_psd,
    rpe_rmse,
    sim3_scale,
)

# new landmarks need 5 pixels of parallax at the pinhole focal length,
# the map-point floor monocular_sfm_window uses by default
MIN_TRIANGULATION_ANGLE = 5.0 / 320.0
PNP_HUBER = 2.0 / 320.0
GATE_REFUSAL = "parallax gate"
# a replay must end within 2 % of its path length of the truth after SE(3)
# alignment, at metric scale within 10 %
ATE_MAX_SHARE = 0.02
SIM3_SCALE_TOL = 0.10
RPE_SEGMENT = 10  # frames
# pnp_refine's default step_tol (1e-10) sits at the round-off floor of its
# cost on 0.5 px data: the last steps are rejected and a converged pose is
# reported as "diverged" or "did not converge". With the default, some
# seeds of this loop lose a frame or two to it (a 140-frame slow_dropout2
# replay, seed 2: frames 82 and 83); 1e-8 makes that rarer, not gone
PNP_STEP_TOL = 1e-8


@dataclass
class InitResult:
    """Outcome of one initialization attempt on a window."""

    state: object = None  # SlidingWindowState when accepted
    refused: str = ""  # reason when gated out or unobservable
    frames: list = field(default_factory=list)  # the window's frames
    trajectories: dict = field(default_factory=dict)
    estimate: object = None
    sfm_failures: int = 0


def try_initialize(run, table, end_frame, tracer):
    """Gate, window SfM, scale solve and state assembly on [end-10, end].

    RANSAC draws from (run.seed, end_frame), so an attempt repeats exactly.
    """
    rig = run.rig
    with tracer.span("frontend.gate", end_frame):
        ready, principal, _ = check_initialization_ready(table, end_frame=end_frame)
    if not ready:
        return InitResult(refused=GATE_REFUSAL)
    frames = list(range(end_frame - INIT_WINDOW_SPAN, end_frame + 1))
    with tracer.span("initialization.window_sfm", end_frame):
        trajectories, _, failures = run_window_sfm(
            table, rig, frames, rng=np.random.default_rng([run.seed, end_frame]))
    result = InitResult(frames=frames, trajectories=trajectories,
                        sfm_failures=len(failures))
    try:
        with tracer.span("scale.solve", end_frame):
            _, estimate = estimate_window_scales(trajectories, rig)
    except DegenerateMotionError as err:
        result.refused = f"scale: {err}"
        return result
    result.estimate = estimate
    if not estimate.observable:
        result.refused = f"scale: {estimate.reason}"
        return result
    with tracer.span("initialization.init_state", end_frame):
        result.state = initialize_state(
            trajectories, estimate, table, rig, principal, frames)
    return result


class Stats:
    """What one run measures, accumulated over its rounds."""

    def __init__(self):
        self.frame_ms = []  # per timed frame
        self.init_ms = []  # per initialization attempt past the gate
        self.counts = collections.Counter()  # per-layer counters
        self.samples = collections.defaultdict(list)  # per-layer values
        self.errors = []  # failed property checks, as text
        self.attempted = 0
        self.failed = 0
        self.host = HostSpeed()  # sampled after every timed operation


def timed_initialize(run, table, end_frame, tracer, stats):
    """try_initialize, timed into stats.init_ms when it passes the gate."""
    start = time.perf_counter()
    result = try_initialize(run, table, end_frame, tracer)
    elapsed = 1e3 * (time.perf_counter() - start)
    if result.refused == GATE_REFUSAL:
        return result
    stats.init_ms.append(elapsed)
    stats.host.sample()
    stats.counts["sfm_failures"] += result.sfm_failures
    stats.counts["scale_refused"] += int(result.refused.startswith("scale"))
    return result


def replay(run, tracer, stats, after_frame=None):
    """Run the VO loop over every frame of a simulated run.

    Returns (frame -> latest world_T_body estimate, accepted InitResult or
    None). Post-initialization frames are the operations: each is timed
    into stats.frame_ms and counted as attempted. A frame whose PnP fails
    keeps the newest window pose as its estimate, for BA to refine, and is
    counted in pnp_failures, not as failed: pnp_refine fails on a few
    frames of some seeds and none of others, so a failed share would
    differ between seeds. after_frame(t), if given, runs untimed after
    each frame.
    """
    rig = run.rig
    table = FeatureTrackTable(rig.n_cameras)
    state = None
    accepted = None
    poses = {}

    for t in range(len(run.gt)):
        start = time.perf_counter()
        tracked = False
        with tracer.span("bench.frame", t):
            with tracer.span("frontend.update", t):
                update_track_table(table, t, run.pixels[t])
            if state is not None:
                prior, ok = track_frame(run, table, state, mapped, t, tracer, stats)
                tracked = True
            elif t >= INIT_WINDOW_SPAN:
                result = timed_initialize(run, table, t, tracer, stats)
                if result.state is not None:
                    accepted, state = result, result.state
                    mapped = set(state.landmarks)
        if tracked:
            stats.frame_ms.append(1e3 * (time.perf_counter() - start))
            stats.host.sample()
            stats.attempted += 1
            stats.counts["pnp_failures"] += int(not ok)
            check_frame(state, t, prior, stats.errors)
        if state is not None:
            poses.update((f, state.poses[f].copy()) for f in state.frames)
        if after_frame is not None:
            after_frame(t)

    stats.samples["tracks"].append(sum(len(tracks) for tracks in table.tracks))
    return poses, accepted


def _window_obs(run, state):
    return [
        o for f in state.frames for o in run.obs[f]
        if (o.camera, o.track_id) in state.landmarks
    ]


def track_frame(run, table, state, mapped, t, tracer, stats):
    """One post-initialization frame. Returns (new prior or None, pnp ok).

    mapped holds every (camera, track id) that has had a landmark; it
    grows with the landmarks this frame triangulates.
    """
    rig = run.rig
    exts = [rig.extrinsic(c).cam_in_body for c in range(rig.n_cameras)]
    prior = None
    if len(state.frames) >= state.capacity:
        f_new, f_prev = state.frames[-1], state.frames[-2]
        with tracer.span("frontend.parallax", t):
            parallax = float(np.mean([
                table.window_parallax(c, f_new - f_prev, f_new)
                for c in range(rig.n_cameras)
            ]))
        prev_ids = [set(cam_rays) for cam_rays in run.rays[f_prev]]
        seen = sum(len(ids) for ids in prev_ids)
        kept = sum(len(ids & set(run.rays[f_new][c])) for c, ids in enumerate(prev_ids))
        decision = keyframe_decision(parallax, kept / seen if seen else 0.0)
        window_obs = _window_obs(run, state)
        if decision == "marginalize_oldest":
            with tracer.span("backend.marginalize", t):
                prior = marginalize_oldest(state, window_obs, rig)
            stats.counts["marginalize_calls"] += 1
        else:
            with tracer.span("backend.discard", t):
                discard_second_newest(state, window_obs, rig)
            stats.counts["discard_calls"] += 1

    # multi-camera PnP for frame t from the newest window pose
    points, rays, ext_list = [], [], []
    anchors = {}
    for c in range(rig.n_cameras):
        for tid, ray in run.rays[t][c].items():
            lm = state.landmarks.get((c, tid))
            if lm is None:
                continue
            key = (lm.anchor_frame, c)
            if key not in anchors:
                anchors[key] = state.poses[lm.anchor_frame].compose(exts[c])
            points.append(anchors[key].apply(lm.anchor_ray / lm.inv_depth))
            rays.append(ray)
            ext_list.append(exts[c])
    initial = state.poses[state.frames[-1]]
    pnp_ok = True
    stats.counts["pnp_calls"] += 1
    try:
        with tracer.span("sfm.pnp", t):
            pose = pnp_refine(np.array(points), np.array(rays), initial,
                              step_tol=PNP_STEP_TOL, extrinsics=ext_list,
                              huber_delta=PNP_HUBER)
    except SfmFailure:
        pose = initial.copy()
        pnp_ok = False
    state.add_frame(t, pose)

    # triangulate tracks seen at t that never had a landmark: a track whose
    # landmark was marginalized has its information in the prior already
    window = set(state.frames)
    for c in range(rig.n_cameras):
        cam_poses = {}
        for tid in run.rays[t][c]:
            if (c, tid) in mapped:
                continue
            in_window = [f for f, _ in table.tracks[c][tid] if f in window]
            if len(in_window) < 2:
                continue
            for f in in_window:
                if f not in cam_poses:
                    cam_poses[f] = state.poses[f].compose(exts[c])
            views = [cam_poses[f] for f in in_window]
            view_rays = [run.rays[f][c][tid] for f in in_window]
            stats.counts["triangulate_calls"] += 1
            try:
                with tracer.span("sfm.triangulate", t):
                    point, depths = triangulate_rays(
                        views, view_rays, min_angle=MIN_TRIANGULATION_ANGLE)
            except SfmFailure:
                continue
            if np.any(depths <= 0):
                continue
            distance = float(np.linalg.norm(point - views[0].t))
            state.landmarks[(c, tid)] = Landmark(
                c, tid, in_window[0], view_rays[0], 1.0 / distance)
            mapped.add((c, tid))

    window_obs = _window_obs(run, state)
    with tracer.span("backend.ba", t):
        info = optimize_window(state, window_obs, rig)
    stats.counts["ba_iters"] += len(info["cost_trace"]) - 1
    stats.counts["ba_stalled"] += int(info["status"] == "stalled")
    stats.samples["ba_obs"].append(info["n_obs"])
    with tracer.span("backend.prune", t):
        prune_landmarks(state, window_obs)
    stats.samples["landmarks"].append(len(state.landmarks))
    with tracer.span("backend.correct_scale", t):
        correct_scale(state, window_obs, rig)
    return prior, pnp_ok


def check_frame(state, t, prior, errors):
    """Properties the method must keep after every frame."""
    pose = state.poses.get(t)
    if pose is None or not (np.all(np.isfinite(pose.t)) and np.all(np.isfinite(pose.q))):
        errors.append(f"frame {t}: pose missing or not finite")
    bad = [k for k, lm in state.landmarks.items()
           if not (math.isfinite(lm.inv_depth) and lm.inv_depth > 0)]
    if bad:
        errors.append(f"frame {t}: {len(bad)} inverse depths not finite and positive")
    if prior is not None and not prior_is_psd(prior.h):
        errors.append(f"frame {t}: marginalization prior not symmetric PSD")


def pose_arrays(poses):
    """(rotations (N,3,3), positions (N,3)) of a list of rigvo Poses."""
    return np.array([p.rotation for p in poses]), np.array([p.t for p in poses])


def window_scale_error(result, rig, gt):
    """max over cameras of |s_hat / s_gt - 1| for an accepted window, with
    s_gt the least-squares factor between the camera's SfM translations
    and its true ones."""
    body_rot, body_pos = pose_arrays([gt[f] for f in result.frames])
    errors = []
    for i, cam in enumerate(sorted(result.trajectories)):
        ext = rig.extrinsic(cam).cam_in_body
        true_t = anchored_camera_translations(body_rot, body_pos, ext.rotation, ext.t)
        s_gt = fit_scale(result.trajectories[cam].translations, true_t)
        errors.append(abs(float(result.estimate.scales[i]) / s_gt - 1.0))
    return max(errors)


def replay_round(run, tracer, stats, after_frame=None):
    """One replay, then its trajectory checked against ground truth."""
    poses, accepted = replay(run, tracer, stats, after_frame)
    if accepted is None:
        stats.errors.append("the run never initialized")
        return
    frames = list(range(accepted.frames[0], len(run.gt)))
    missing = [f for f in frames if f not in poses]
    if missing:
        stats.errors.append(f"{len(missing)} frames without a pose, first {missing[0]}")
        return
    est_rot, est_pos = pose_arrays([poses[f] for f in frames])
    gt_rot, gt_pos = pose_arrays([run.gt[f] for f in frames])
    ate = ate_rmse(est_pos, gt_pos)
    scale = sim3_scale(est_pos, gt_pos)
    path = float(np.sum(np.linalg.norm(np.diff(gt_pos, axis=0), axis=1)))
    if not ate <= ATE_MAX_SHARE * path:
        stats.errors.append(f"ATE {ate:.4f} m over {ATE_MAX_SHARE:.0%} of the {path:.2f} m path")
    if not abs(scale - 1.0) <= SIM3_SCALE_TOL:
        stats.errors.append(f"Sim(3) scale {scale:.4f} not within {SIM3_SCALE_TOL} of 1")
    stats.samples["ate_m"].append(ate)
    stats.samples["rpe_m"].append(rpe_rmse(est_rot, est_pos, gt_rot, gt_pos, RPE_SEGMENT))
    stats.samples["init_scale_err"].append(window_scale_error(accepted, run.rig, run.gt))
