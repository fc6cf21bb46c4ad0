"""Rigid-body transforms, rotation parameterizations, and camera models.

Conventions used throughout the package:
  - A Pose (R, t) maps points from its local frame into the parent frame:
    p_parent = R @ p_local + t.
  - A Pose stores its rotation as a 3x3 matrix; quaternions, laid out
    [x, y, z, w], enter only through Pose(q, t) and leave through Pose.q.
  - Camera extrinsics are the camera pose expressed in the body frame, so
    world_T_cam = world_T_body * ext.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np


class ProjectionError(Exception):
    """Point cannot be represented by the camera model (behind / out of FoV)."""


def _quat_normalize(q):
    n = math.sqrt(q[0] * q[0] + q[1] * q[1] + q[2] * q[2] + q[3] * q[3])
    if n == 0.0:
        raise ValueError("zero-norm quaternion")
    return q / n


def quat_to_matrix(q):
    x, y, z, w = q
    xx, yy, zz = x * x, y * y, z * z
    xy, xz, yz = x * y, x * z, y * z
    wx, wy, wz = w * x, w * y, w * z
    return np.array(
        [
            [1.0 - 2.0 * (yy + zz), 2.0 * (xy - wz), 2.0 * (xz + wy)],
            [2.0 * (xy + wz), 1.0 - 2.0 * (xx + zz), 2.0 * (yz - wx)],
            [2.0 * (xz - wy), 2.0 * (yz + wx), 1.0 - 2.0 * (xx + yy)],
        ]
    )


def matrix_to_quat(rot):
    """Rotation matrix to unit quaternion [x, y, z, w], w >= 0."""
    m = np.asarray(rot, dtype=float)
    tr = m[0, 0] + m[1, 1] + m[2, 2]
    if tr > 0.0:
        s = math.sqrt(tr + 1.0) * 2.0
        q = np.array(
            [(m[2, 1] - m[1, 2]) / s, (m[0, 2] - m[2, 0]) / s, (m[1, 0] - m[0, 1]) / s, 0.25 * s]
        )
    elif m[0, 0] >= m[1, 1] and m[0, 0] >= m[2, 2]:
        s = math.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
        q = np.array(
            [0.25 * s, (m[0, 1] + m[1, 0]) / s, (m[0, 2] + m[2, 0]) / s, (m[2, 1] - m[1, 2]) / s]
        )
    elif m[1, 1] >= m[2, 2]:
        s = math.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2.0
        q = np.array(
            [(m[0, 1] + m[1, 0]) / s, 0.25 * s, (m[1, 2] + m[2, 1]) / s, (m[0, 2] - m[2, 0]) / s]
        )
    else:
        s = math.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2.0
        q = np.array(
            [(m[0, 2] + m[2, 0]) / s, (m[1, 2] + m[2, 1]) / s, 0.25 * s, (m[1, 0] - m[0, 1]) / s]
        )
    if q[3] < 0.0:
        q = -q
    return _quat_normalize(q)


class Pose:
    """Rigid transform: 3x3 rotation matrix plus translation (m); the
    quaternion q is derived on read."""

    __slots__ = ("rotation", "t")

    def __init__(self, q=None, t=None):
        self.rotation = np.eye(3) if q is None else quat_to_matrix(
            _quat_normalize(np.asarray(q, dtype=float)))
        self.t = np.zeros(3) if t is None else np.array(t, dtype=float)
        if self.t.shape != (3,):
            raise ValueError("translation must be a 3-vector")

    @staticmethod
    def identity():
        return Pose()

    @staticmethod
    def from_rt(rot, t):
        """Pose of rotation matrix rot and translation t, both copied."""
        pose = Pose.__new__(Pose)
        pose.rotation = np.array(rot, dtype=float, order="C")
        pose.t = np.array(t, dtype=float)
        if pose.rotation.shape != (3, 3) or pose.t.shape != (3,):
            raise ValueError("a pose needs a 3x3 rotation and a 3-vector translation")
        return pose

    @property
    def q(self):
        """Unit quaternion [x, y, z, w] of the rotation, w >= 0."""
        return matrix_to_quat(self.rotation)

    def compose(self, other: "Pose") -> "Pose":
        """self then other applied in self's frame: T_ac = T_ab * T_bc."""
        return Pose.from_rt(self.rotation @ other.rotation, self.rotation @ other.t + self.t)

    def inverse(self) -> "Pose":
        rot_inv = self.rotation.T
        return Pose.from_rt(rot_inv, -(rot_inv @ self.t))

    def apply(self, points):
        """Map local-frame point(s) into the parent frame."""
        pts = np.asarray(points, dtype=float)
        return pts @ self.rotation.T + self.t

    def matrix(self):
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.t
        return m

    def copy(self):
        return Pose.from_rt(self.rotation, self.t)

    def __repr__(self):
        return f"Pose(rotation={self.rotation.tolist()}, t={self.t.tolist()})"


def so3_exp(vec):
    """Axis-angle 3-vector to rotation matrix."""
    v = np.asarray(vec, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"so3_exp expects an axis-angle vector of shape (3,), got {v.shape}")
    angle = math.sqrt(float(v @ v))
    k = skew(v)
    if angle < 1e-8:
        # 2nd-order series; keeps exp smooth through zero
        return np.eye(3) + k + 0.5 * (k @ k)
    k = k / angle
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


def so3_log(rot):
    """Rotation matrix to axis-angle 3-vector, |result| <= pi.

    At angle pi the axis sign is ambiguous; the component of largest
    magnitude is made positive (ties resolved toward the lower index).
    """
    m = np.asarray(rot, dtype=float)
    cos_angle = min(1.0, max(-1.0, 0.5 * (m[0, 0] + m[1, 1] + m[2, 2] - 1.0)))
    angle = math.acos(cos_angle)
    v = np.array([m[2, 1] - m[1, 2], m[0, 2] - m[2, 0], m[1, 0] - m[0, 1]])  # 2 sin(angle) axis
    if angle < 1e-8:
        return 0.5 * v
    if math.pi - angle < 1e-6:
        # R ~ I + 2*K^2 at pi: extract axis from the symmetric part
        sym = 0.5 * (m + np.eye(3))
        axis = np.sqrt(np.maximum(np.diag(sym), 0.0))
        idx = int(np.argmax(np.abs(axis)))
        # off-diagonals fix relative signs against the dominant component
        if axis[idx] > 0.0:
            for j in range(3):
                if j != idx:
                    axis[j] = sym[idx, j] / axis[idx]
        axis = axis / np.linalg.norm(axis)
        dominant = int(np.argmax(np.abs(axis)))
        if axis[dominant] < 0.0:
            axis = -axis
        return axis * angle
    if angle > 0.5 * math.pi:
        # sin of the acos angle has a relative error of about eps / (pi - angle)^2
        # here; the direction of v, good to eps / (pi - angle), gives the axis
        return angle * (v / np.linalg.norm(v))
    return angle / (2.0 * math.sin(angle)) * v


# row i is [e_i]^ flattened, so v @ _SKEW_BASIS is [v]^ flattened; the
# product only adds zeros to +-v_k, so every entry is exact
_SKEW_BASIS = np.array(
    [
        [0.0, 0.0, 0.0, 0.0, 0.0, -1.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0],
        [0.0, -1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    ]
)


def skew(v):
    """Cross-product matrix [v]^ of a 3-vector, or one per row of (..., 3).

    skew(v) @ w = v x w; a (..., 3) input gives (..., 3, 3).
    """
    v = np.asarray(v, dtype=float)
    return np.dot(v, _SKEW_BASIS).reshape(v.shape[:-1] + (3, 3))


class CameraModel(Enum):
    PINHOLE = "pinhole"
    EQUIDISTANT = "equidistant"


@dataclass
class CameraIntrinsic:
    """Pinhole or equidistant-fisheye camera.

    fov_limit is the max half-angle from the optical axis (radians); it must
    stay below pi/2 for pinhole and at or below pi for equidistant.
    """

    model: CameraModel
    fx: float
    fy: float
    cx: float
    cy: float
    fov_limit: float
    image_width: int
    image_height: int

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        if self.model is CameraModel.PINHOLE and not 0.0 < self.fov_limit < math.pi / 2:
            raise ValueError("pinhole fov_limit must be in (0, pi/2)")
        if self.model is CameraModel.EQUIDISTANT and not 0.0 < self.fov_limit <= math.pi:
            raise ValueError("equidistant fov_limit must be in (0, pi]")


@dataclass
class CameraExtrinsic:
    """Camera pose expressed in the body frame; fixed for a run."""

    cam_in_body: Pose


@dataclass
class RigConfig:
    cameras: list = field(default_factory=list)  # [(CameraIntrinsic, CameraExtrinsic)]

    def __post_init__(self):
        if len(self.cameras) < 2:
            raise ValueError("a rig needs at least 2 cameras")

    @property
    def n_cameras(self):
        return len(self.cameras)

    def intrinsic(self, idx) -> CameraIntrinsic:
        return self.cameras[idx][0]

    def extrinsic(self, idx) -> CameraExtrinsic:
        return self.cameras[idx][1]


def project(point, intr: CameraIntrinsic):
    """Camera-frame point (m) to pixel, or None when unrepresentable: one
    row of project_many."""
    pix, valid = project_many(point, intr)
    return pix[0] if valid[0] else None


def project_many(points, intr: CameraIntrinsic):
    """Camera-frame points (N,3) (m) to pixels (N,2) and valid (N,).

    A row is valid unless it lies behind the camera or at or past
    fov_limit; invalid rows have NaN pixels. rho and theta are taken with
    math.hypot and math.atan2 row by row (their numpy versions can differ
    in the last bit), so each row rounds as the scalar formula does.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    rho = np.array(list(map(math.hypot, x.tolist(), y.tolist())), dtype=float)
    theta = np.array(list(map(math.atan2, rho.tolist(), z.tolist())), dtype=float)
    valid = theta < intr.fov_limit
    pix = np.empty((len(pts), 2))
    if intr.model is CameraModel.PINHOLE:
        valid &= z > 0.0
        zs = np.where(valid, z, 1.0)
        pix[:, 0] = intr.fx * x / zs + intr.cx
        pix[:, 1] = intr.fy * y / zs + intr.cy
    else:
        # equidistant: radial distance f*theta along the azimuth direction
        on_axis = rho < 1e-12
        valid &= ~on_axis | (z > 0.0)
        rs = np.where(on_axis, 1.0, rho)
        pix[:, 0] = np.where(on_axis, intr.cx, intr.fx * theta * x / rs + intr.cx)
        pix[:, 1] = np.where(on_axis, intr.cy, intr.fy * theta * y / rs + intr.cy)
    pix[~valid] = np.nan
    return pix, valid


def unproject(pixel, intr: CameraIntrinsic):
    """Pixel to unit ray in the camera frame."""
    u, v = float(pixel[0]), float(pixel[1])
    mx = (u - intr.cx) / intr.fx
    my = (v - intr.cy) / intr.fy
    if intr.model is CameraModel.PINHOLE:
        ray = np.array([mx, my, 1.0])
        return ray / np.linalg.norm(ray)
    theta = math.hypot(mx, my)
    if theta >= intr.fov_limit:
        raise ProjectionError(
            f"pixel ({u:.2f}, {v:.2f}) implies angle {theta:.4f} rad outside fov"
        )
    if theta < 1e-12:
        return np.array([0.0, 0.0, 1.0])
    s = math.sin(theta) / theta
    return np.array([s * mx, s * my, math.cos(theta)])


def unproject_many(pixels, intr: CameraIntrinsic):
    """Vectorized unprojection to unit rays; raises if any fisheye pixel is out of model."""
    pix = np.asarray(pixels, dtype=float).reshape(-1, 2)
    mx = (pix[:, 0] - intr.cx) / intr.fx
    my = (pix[:, 1] - intr.cy) / intr.fy
    if intr.model is CameraModel.PINHOLE:
        rays = np.stack([mx, my, np.ones(len(pix))], axis=1)
        return rays / np.linalg.norm(rays, axis=1, keepdims=True)
    theta = np.hypot(mx, my)
    if np.any(theta >= intr.fov_limit):
        raise ProjectionError("pixel outside equidistant model range")
    small = theta < 1e-12
    safe = np.where(small, 1.0, theta)
    s = np.where(small, 1.0, np.sin(safe) / safe)
    return np.stack([s * mx, s * my, np.cos(theta)], axis=1)


def body_pose_from_camera(cam_pose: Pose, ext: CameraExtrinsic, s: float) -> Pose:
    """Body pose implied by a camera pose whose translation carries scale s.

    Follows the block product [R_c, s*T_c; 0 1] * [r^T, -r^T t; 0 1]:
    the rotation part is independent of s.
    """
    if s <= 0:
        raise ValueError("scale must be positive")
    r_ext = ext.cam_in_body.rotation
    t_ext = ext.cam_in_body.t
    rot_c = cam_pose.rotation
    rot_b = rot_c @ r_ext.T
    t_b = -rot_b @ t_ext + s * cam_pose.t
    return Pose.from_rt(rot_b, t_b)
