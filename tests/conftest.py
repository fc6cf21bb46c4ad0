import math
import os
import tempfile

import numpy as np
import pytest

from rigvo.geometry import CameraExtrinsic, CameraIntrinsic, CameraModel, Pose, RigConfig
from rigvo.sfm import CameraSfmTrajectory

# Hypothesis caches the constants it mines from local modules under its
# storage directory, ./.hypothesis by default; keep it out of the checkout
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY",
                      os.path.join(tempfile.gettempdir(), "rigvo-hypothesis"))


def rotation_angle(rot) -> float:
    """Rotation angle in radians: atan2(|vee(R - R^T)|, tr R - 1), which
    keeps its relative precision near 0, where acos of the trace reads 0."""
    m = np.asarray(rot, dtype=float)
    sin2 = math.hypot(m[2, 1] - m[1, 2], m[0, 2] - m[2, 0], m[1, 0] - m[0, 1])
    return math.atan2(sin2, m[0, 0] + m[1, 1] + m[2, 2] - 1.0)


def _axes_to_rot(x_axis, y_axis, z_axis):
    return np.array([x_axis, y_axis, z_axis]).T


def make_test_rig(n_cameras=4):
    """Heterogeneous rig: forward/backward pinholes, left/right fisheyes.

    Camera z is the optical axis; body x is forward, z up. Baselines are
    deliberately asymmetric and nonzero.
    """
    pinhole = dict(fx=320.0, fy=320.0, cx=320.0, cy=240.0,
                   fov_limit=0.85, image_width=640, image_height=480)
    fisheye = dict(fx=228.0, fy=228.0, cx=320.0, cy=240.0,
                   fov_limit=1.35, image_width=640, image_height=480)

    forward = _axes_to_rot([0, -1, 0], [0, 0, -1], [1, 0, 0])
    backward = _axes_to_rot([0, 1, 0], [0, 0, -1], [-1, 0, 0])
    left = _axes_to_rot([1, 0, 0], [0, 0, -1], [0, 1, 0])
    right = _axes_to_rot([-1, 0, 0], [0, 0, -1], [0, -1, 0])

    cams = [
        (CameraIntrinsic(CameraModel.PINHOLE, **pinhole),
         CameraExtrinsic(Pose.from_rt(forward, [0.25, 0.10, 0.0]))),
        (CameraIntrinsic(CameraModel.PINHOLE, **pinhole),
         CameraExtrinsic(Pose.from_rt(backward, [-0.30, -0.10, 0.05]))),
        (CameraIntrinsic(CameraModel.EQUIDISTANT, **fisheye),
         CameraExtrinsic(Pose.from_rt(left, [0.05, 0.28, -0.05]))),
        (CameraIntrinsic(CameraModel.EQUIDISTANT, **fisheye),
         CameraExtrinsic(Pose.from_rt(right, [0.10, -0.28, 0.02]))),
    ]
    return RigConfig(cams[:n_cameras])


def make_zero_baseline_rig():
    """All extrinsic translations zero: metric scale unobservable."""
    rig = make_test_rig(4)
    cams = []
    for intr, ext in rig.cameras:
        cams.append((intr, CameraExtrinsic(Pose.from_rt(ext.cam_in_body.rotation, np.zeros(3)))))
    return RigConfig(cams)


@pytest.fixture
def rig4():
    return make_test_rig(4)


@pytest.fixture
def rig2():
    return make_test_rig(2)


def make_scale_ambiguous_sfm(rig: RigConfig, trajectory, s_true):
    """Exact camera trajectories re-anchored at frame 0, translations
    divided by the per-camera true scales (monocular SfM emulation)."""
    s_true = np.asarray(s_true, dtype=float)
    if len(s_true) != rig.n_cameras:
        raise ValueError("one scale per camera required")
    if np.any(s_true <= 0):
        raise ValueError("scales must be positive")
    if len(trajectory) < 2:
        raise ValueError("trajectory must have at least 2 poses")

    out = []
    for c in range(rig.n_cameras):
        ext = rig.extrinsic(c).cam_in_body
        cam_poses = [body.compose(ext) for body in trajectory]
        anchor_inv = cam_poses[0].inverse()
        anchored = [anchor_inv.compose(p) for p in cam_poses]
        rotations = [p.rotation for p in anchored]
        translations = [p.t / s_true[c] for p in anchored]
        rotations[0] = np.eye(3)
        translations[0] = np.zeros(3)
        out.append(CameraSfmTrajectory(rotations, translations))
    return out


def build_gt_window(rig, traj, sim, frames, sigma_px=1.5):
    """Ground-truth sliding-window state + observation list from a sim.

    Landmark depths are exact (from the simulated geometry); anchor rays
    come from the first in-window observation, so the state is consistent
    with the observations up to the injected pixel noise.
    """
    from rigvo.backend import Landmark, ReprojObservation, SlidingWindowState
    from rigvo.geometry import unproject

    frames = list(frames)
    frame_set = set(frames)
    state = SlidingWindowState(capacity=max(11, len(frames)))
    for f in frames:
        state.add_frame(f, traj[f].copy())

    observations = []
    for cam in range(rig.n_cameras):
        intr = rig.intrinsic(cam)
        ext = rig.extrinsic(cam).cam_in_body
        sigma = sigma_px / intr.fx
        for tid, obs in sim.tracks.tracks[cam].items():
            in_window = [(f, pix) for f, pix in obs if f in frame_set]
            if len(in_window) < 2:
                continue
            anchor_frame, anchor_pix = in_window[0]
            anchor_ray = unproject(anchor_pix, intr)
            # exact range from the simulated landmark
            lm_id = sim.track_landmark[cam][tid]
            cam_pose = traj[anchor_frame].compose(ext)
            p_cam = cam_pose.rotation.T @ (
                _landmark_point(sim, cam, tid) - cam_pose.t
            )
            rng = np.linalg.norm(p_cam)
            state.landmarks[(cam, tid)] = Landmark(
                camera=cam, track_id=tid, anchor_frame=anchor_frame,
                anchor_ray=anchor_ray, inv_depth=1.0 / rng,
            )
            for f, pix in in_window:
                ray = unproject(pix, intr)
                if ray[2] <= 1e-6:
                    continue
                observations.append(
                    ReprojObservation(
                        camera=cam, track_id=tid, frame=f,
                        coords=ray[:2] / ray[2], sigma=sigma,
                    )
                )
    return state, observations


def _landmark_point(sim, cam, tid):
    return sim._cloud_points[sim.track_landmark[cam][tid]]


def attach_cloud(sim, cloud):
    """Give build_gt_window access to the true landmark positions."""
    sim._cloud_points = cloud.points
    return sim
