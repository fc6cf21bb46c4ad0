"""Initialization gating, per-camera SfM orchestration, and assembly of the
first sliding-window state at metric scale.

The window becomes eligible once every camera stream accumulates more than
30 px of parallax across the 10-frame span; the camera with the highest
tracking stability anchors the world frame.
"""

from __future__ import annotations

import numpy as np

from .backend import WINDOW_CAPACITY, Landmark, SlidingWindowState
from .frontend import FeatureTrackTable, track_stability
from .geometry import RigConfig, unproject_many
from .scale import (
    DegenerateMotionError,
    ScaleEstimate,
    body_hypothesis,
    build_scale_system,
    solve_scales,
)
from .sfm import SfmFailure, monocular_sfm_window, triangulate_many

INIT_WINDOW_SPAN = WINDOW_CAPACITY - 1  # frames of motion; the window holds span+1 poses
PARALLAX_THRESHOLD_PX = 30.0


def check_initialization_ready(table: FeatureTrackTable, end_frame=None):
    """Window gating: every camera must clear the parallax threshold.

    Returns (ready, principal_camera, per-camera window parallax). The
    principal camera maximizes mean in-window track lifespan; not-ready is
    a normal outcome (principal is None then).
    """
    end = table.last_frame if end_frame is None else end_frame
    first = table.first_frame  # None only for an empty table
    if first is None or end - INIT_WINDOW_SPAN < first:
        return False, None, [0.0] * table.n_cameras
    parallax = [
        table.window_parallax(cam, INIT_WINDOW_SPAN, end) for cam in range(table.n_cameras)
    ]
    ready = all(p > PARALLAX_THRESHOLD_PX for p in parallax)
    principal = None
    if ready:
        stabilities = [
            track_stability(table, cam, (end - INIT_WINDOW_SPAN, end))
            for cam in range(table.n_cameras)
        ]
        principal = int(np.argmax(stabilities))
    return ready, principal, parallax


def _window_rays(table: FeatureTrackTable, cam, intr, frames):
    """One camera's rays over the window frames, from the table's frame
    index and one unprojection. Returns (track ids ascending, rays (T,F,3),
    seen (T,F)) over the tracks seen at least once among frames.
    """
    column = {f: k for k, f in enumerate(frames)}
    hits = [(tid, k, pix) for f, k in column.items()
            for tid, pix in table.frame_obs[cam].get(f, {}).items()]
    tids = sorted({tid for tid, _, _ in hits})
    row_of = {tid: r for r, tid in enumerate(tids)}
    rows = [row_of[tid] for tid, _, _ in hits]
    cols = [k for _, k, _ in hits]
    pixels = [pix for _, _, pix in hits]
    rays = np.zeros((len(tids), len(frames), 3))
    seen = np.zeros((len(tids), len(frames)), dtype=bool)
    rays[rows, cols] = unproject_many(np.reshape(pixels, (-1, 2)), intr)
    seen[rows, cols] = True
    return tids, rays, seen


def run_window_sfm(table: FeatureTrackTable, rig: RigConfig, frames, rng=None):
    """Monocular SfM per camera over the window frames, on each camera's
    _window_rays table as it comes.

    Returns (trajectories: cam -> CameraSfmTrajectory, observations: cam ->
    count of the camera's window observations (seen cells of its table, not
    RANSAC inliers), failures: cam -> SfmFailure message). Cameras whose
    SfM fails are absent from the first two.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    trajectories = {}
    observations = {}
    failures = {}
    for cam in range(rig.n_cameras):
        intr = rig.intrinsic(cam)
        _, rays, seen = _window_rays(table, cam, intr, frames)
        try:
            trajectories[cam] = monocular_sfm_window(
                rays, seen, inlier_threshold=1.0 / float(intr.fx), rng=rng
            )
        except SfmFailure as err:
            failures[cam] = str(err)
            continue
        observations[cam] = int(seen.sum())
    return trajectories, observations, failures


def estimate_window_scales(trajectories, rig: RigConfig):
    """Build and solve the multi-camera scale system.

    Requires at least two successful SfM reconstructions.
    """
    cams = sorted(trajectories)
    if len(cams) < 2:
        raise DegenerateMotionError(
            "fewer than two cameras completed SfM", {"cameras": cams}
        )
    system = build_scale_system(
        [trajectories[c] for c in cams], [rig.extrinsic(c) for c in cams]
    )
    estimate = solve_scales(system)
    return system, estimate


def initialize_state(trajectories, estimate: ScaleEstimate, table: FeatureTrackTable,
                     rig: RigConfig, principal, frames) -> SlidingWindowState:
    """Assemble the first sliding-window state.

    Body poses come from the principal camera's hypothesis at its solved
    scale (identity at the window start). Landmarks are triangulated per
    camera from the metrically scaled camera poses, in one triangulate_many
    call per camera, and stored as inverse depths on their first-observation
    ray.

    Raises DegenerateMotionError when the estimate is unobservable.
    """
    if not estimate.observable:
        raise DegenerateMotionError(
            f"scale estimate unobservable: {estimate.reason}",
            {
                "condition_number": estimate.condition_number,
                "scales": estimate.scales.tolist(),
                "residual_rms": estimate.residual_rms,
            },
        )
    cams = sorted(trajectories)
    scale_of = {c: float(estimate.scales[i]) for i, c in enumerate(cams)}
    if principal not in trajectories:
        principal = cams[0]

    body_poses = body_hypothesis(
        trajectories[principal], rig.extrinsic(principal), scale_of[principal]
    )
    state = SlidingWindowState(capacity=max(WINDOW_CAPACITY, len(frames)))
    for f, pose in zip(frames, body_poses):
        state.add_frame(f, pose)

    for cam in cams:
        ext = rig.extrinsic(cam).cam_in_body
        cam_poses = [state.poses[f].compose(ext) for f in frames]
        tids, rays, seen = _window_rays(table, cam, rig.intrinsic(cam), frames)
        points, _, ok = triangulate_many(
            np.array([p.rotation for p in cam_poses]), np.array([p.t for p in cam_poses]),
            rays, seen,
        )
        for r in np.flatnonzero(ok):
            k = int(seen[r].argmax())  # first in-window observation
            anchor_pose = cam_poses[k]
            p_cam = anchor_pose.rotation.T @ (points[r] - anchor_pose.t)
            rng = float(np.linalg.norm(p_cam))
            if rng < 1e-9:
                continue
            state.landmarks[(cam, tids[r])] = Landmark(
                camera=cam,
                track_id=tids[r],
                anchor_frame=frames[k],
                anchor_ray=rays[r, k],
                inv_depth=1.0 / rng,
            )
    return state
