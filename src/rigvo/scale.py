"""Metric-scale recovery from rigid multi-camera motion consistency.

Each camera's scale-ambiguous window trajectory implies a body trajectory
once its extrinsic and a scale factor are applied. Re-anchoring every
implied body trajectory to identity at the window start makes the pairwise
translation mismatch linear in the unknown scales:

    e_t(i, j) = s_i * (r_i T_t^i) - s_j * (r_j T_t^j) + theta_t(i, j)

with theta depending only on the per-camera rotations and the extrinsics,
never on the scales. Stacking all frames and camera pairs gives the sparse
block system F s + theta whose least-squares minimizer is the scale vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import CameraExtrinsic, body_pose_from_camera
from .sfm import CameraSfmTrajectory

CONDITION_LIMIT = 1e8
MIN_SCALE = 1e-3


class DegenerateMotionError(Exception):
    """Motion or rig geometry leaves the metric scale unobservable."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


@dataclass
class ScaleSystem:
    """Stacked observation matrix F and scale-independent offsets theta."""

    f_matrix: np.ndarray  # (3*K, N)
    theta: np.ndarray  # (3*K,)

    @property
    def n_cameras(self):
        return self.f_matrix.shape[1]

    @property
    def rows(self):
        return self.f_matrix.shape[0]


@dataclass
class ScaleEstimate:
    scales: np.ndarray  # per camera, positive when observable
    residual_rms: float  # meters
    condition_number: float
    observable: bool
    reason: str = ""

    def __post_init__(self):
        if self.observable and np.any(self.scales <= 0):
            raise ValueError("observable estimate requires positive scales")


def body_hypothesis(sfm: CameraSfmTrajectory, ext: CameraExtrinsic, s: float):
    """Body poses implied by one camera, a list with one Pose per frame:
    apply the extrinsic at scale s, then re-anchor to identity at t=0.

    The rotation parts are independent of s by construction.
    """
    if s <= 0:
        raise ValueError("scale must be positive")
    raw = [
        body_pose_from_camera(sfm.pose(t), ext, s) for t in range(len(sfm))
    ]
    anchor = raw[0].inverse()
    return [anchor.compose(p) for p in raw]


def _anchored_terms(sfm: CameraSfmTrajectory, ext: CameraExtrinsic):
    """Per-frame (scale coefficient, scale-free offset) of the re-anchored
    body translation: trans_t = s * coeff_t + offset_t."""
    r_ext = ext.cam_in_body.rotation
    t_ext = ext.cam_in_body.t
    coeffs, offsets = [], []
    for t in range(len(sfm)):
        rot_t = sfm.rotations[t]
        coeffs.append(r_ext @ sfm.translations[t])
        offsets.append(t_ext - r_ext @ rot_t @ r_ext.T @ t_ext)
    return np.array(coeffs), np.array(offsets)


def build_scale_system(sfm_trajectories, extrinsics):
    """Stack the pairwise consistency constraints into F s + theta.

    sfm_trajectories: list of CameraSfmTrajectory (one per camera with a
    successful reconstruction, all the same length).
    extrinsics: matching list of CameraExtrinsic.

    Rows come in 3-blocks for every frame t >= 1 and camera pair i < j.
    """
    n = len(sfm_trajectories)
    if n < 2:
        raise ValueError("need at least 2 cameras")
    length = len(sfm_trajectories[0])
    if any(len(s) != length for s in sfm_trajectories):
        raise ValueError("trajectories must share the window length")

    terms = [
        _anchored_terms(sfm, ext) for sfm, ext in zip(sfm_trajectories, extrinsics)
    ]

    rows = []
    thetas = []
    for t in range(1, length):
        for i in range(n):
            for j in range(i + 1, n):
                block = np.zeros((3, n))
                block[:, i] = terms[i][0][t]
                block[:, j] = -terms[j][0][t]
                rows.append(block)
                thetas.append(terms[i][1][t] - terms[j][1][t])
    f_matrix = np.vstack(rows) if rows else np.zeros((0, n))
    theta = np.concatenate(thetas) if thetas else np.zeros(0)
    return ScaleSystem(f_matrix=f_matrix, theta=theta)


def solve_scales(system: ScaleSystem) -> ScaleEstimate:
    """Least-squares scale vector minimizing ||F s + theta||^2.

    The problem is exactly linear, so the closed-form solve is the answer.
    The estimate is flagged unobservable when the system is ill-conditioned
    (> 1e8, by the singular values lstsq returns), any scale is
    non-positive or below 1e-3, or the offsets vanish (the homogeneous
    system determines scale only up to a common factor).
    """
    n = system.n_cameras
    if system.rows < n:
        raise ValueError(f"system has {system.rows} rows for {n} unknowns")

    s, _, _, sv = np.linalg.lstsq(system.f_matrix, -system.theta, rcond=None)
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf

    residual = system.f_matrix @ s + system.theta
    rms = float(np.sqrt(np.mean(residual**2))) if len(residual) else 0.0

    theta_scale = float(np.max(np.abs(system.theta))) if len(system.theta) else 0.0
    observable = True
    reason = ""
    if cond > CONDITION_LIMIT:
        observable = False
        reason = f"condition number {cond:.3g} exceeds {CONDITION_LIMIT:.0e}"
    elif theta_scale < 1e-12:
        observable = False
        reason = "offsets vanish: scale determined only up to a common factor"
    elif np.any(s < MIN_SCALE):
        observable = False
        reason = f"non-positive or near-zero scale in {np.round(s, 6).tolist()}"

    return ScaleEstimate(
        scales=s,
        residual_rms=rms,
        condition_number=cond,
        observable=observable,
        reason=reason,
    )

