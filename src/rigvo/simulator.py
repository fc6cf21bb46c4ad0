"""Deterministic synthetic multi-camera rig.

Generates smooth body trajectories, landmark clouds with binary
descriptors, and noisy per-camera feature tracks with ground truth. This
is the oracle the rest of the system is validated against: everything is
reproducible bit-for-bit from the seeds. Each camera has its own noise
stream, which draws in ascending landmark id over the landmarks visible
to the camera at each frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .frontend import FeatureTrackTable, update_track_table
from .geometry import CameraModel, Pose, RigConfig, project_many

TRAJECTORY_KINDS = ("circle", "lemniscate", "straight_line", "smooth_random")
DESCRIPTOR_BYTES = 32  # 256-bit binary descriptors


@dataclass
class TrajectorySpec:
    kind: str
    duration_frames: int
    frame_rate: float = 10.0
    speed: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in TRAJECTORY_KINDS:
            raise ValueError(f"unknown trajectory kind {self.kind!r}")
        if self.duration_frames < 11:
            raise ValueError("duration_frames must cover one init window (>= 11)")
        if self.frame_rate <= 0 or self.speed <= 0:
            raise ValueError("frame_rate and speed must be positive")


@dataclass
class NoiseSpec:
    pixel_sigma: float = 0.0
    dropout_prob: float = 0.0
    descriptor_flip_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.dropout_prob < 1.0 + 1e-12:
            raise ValueError("dropout_prob must be in [0, 1]")
        if not 0.0 <= self.descriptor_flip_rate < 1.0:
            raise ValueError("descriptor_flip_rate must be in [0, 1)")
        if self.pixel_sigma < 0:
            raise ValueError("pixel_sigma must be non-negative")


@dataclass
class LandmarkCloud:
    points: np.ndarray  # (N, 3) world frame, meters
    descriptors: np.ndarray  # (N, 32) uint8
    depth_range: tuple

    def __len__(self):
        return len(self.points)


@dataclass
class SimOutput:
    gt_body_trajectory: list
    tracks: FeatureTrackTable
    descriptors: list  # per camera: {(frame, track_id): (32,) uint8}
    track_landmark: list  # per camera: {track_id: landmark_id}


def _yaw_pose(position, tangent):
    yaw = math.atan2(tangent[1], tangent[0])
    half = 0.5 * yaw
    q = np.array([0.0, 0.0, math.sin(half), math.cos(half)])
    return Pose(q, position)


def generate_trajectory(spec: TrajectorySpec):
    """Sampled body poses; curved paths look along the path tangent."""
    n = spec.duration_frames
    dt = 1.0 / spec.frame_rate
    path_len = spec.speed * n * dt

    poses = []
    if spec.kind == "circle":
        radius = path_len / (2.0 * math.pi)
        for i in range(n):
            a = 2.0 * math.pi * i / n
            pos = np.array([radius * math.cos(a), radius * math.sin(a), 0.0])
            tangent = np.array([-math.sin(a), math.cos(a)])
            poses.append(_yaw_pose(pos, tangent))
    elif spec.kind == "lemniscate":
        # Gerono figure-eight; arc length of the unit curve is ~6.097
        scale = path_len / 6.0971
        for i in range(n):
            a = 2.0 * math.pi * i / n
            pos = np.array(
                [scale * math.sin(a), scale * math.sin(a) * math.cos(a), 0.0]
            )
            tangent = np.array([math.cos(a), math.cos(2.0 * a)])
            if np.linalg.norm(tangent) < 1e-9:
                tangent = np.array([1.0, 0.0])
            poses.append(_yaw_pose(pos, tangent))
    elif spec.kind == "straight_line":
        for i in range(n):
            pos = np.array([spec.speed * i * dt, 0.0, 0.0])
            poses.append(Pose(t=pos))
    else:  # smooth_random
        # a smooth random heading walked at a constant horizontal step, so
        # the turn between frames is at most sum(turn) * 2 pi / n
        rng = np.random.default_rng(spec.seed)
        n_harmonics = 4
        turn = rng.uniform(0.1, 0.5, size=n_harmonics)  # heading rate per harmonic
        heave = rng.uniform(0.005, 0.02, size=n_harmonics) * path_len  # mild height
        phase = rng.uniform(0.0, 2.0 * math.pi, size=(2, n_harmonics, 1))
        freq = np.arange(1, n_harmonics + 1)[:, None]
        a = 2.0 * math.pi * np.arange(n) / n
        heading = rng.uniform(-math.pi, math.pi) + turn @ (np.sin(freq * a + phase[0]) / freq)
        height = heave @ (np.sin(freq * a + phase[1]) / freq)
        steps = spec.speed * dt * np.stack([np.cos(heading), np.sin(heading)], axis=1)
        planar = np.concatenate([np.zeros((1, 2)), np.cumsum(steps[:-1], axis=0)])
        for xy, z, h in zip(planar, height, heading):
            poses.append(_yaw_pose(np.array([xy[0], xy[1], z]), (math.cos(h), math.sin(h))))
    return poses


def sample_landmarks(count, trajectory, depth_range, seed):
    """Landmarks within depth_range of at least one (and no closer to any)
    trajectory position, with fixed random 256-bit descriptors."""
    if count <= 0:
        raise ValueError("count must be positive")
    rmin, rmax = depth_range
    if not 0 < rmin < rmax:
        raise ValueError("need 0 < min < max depth")
    rng = np.random.default_rng(seed)
    centers = np.array([p.t for p in trajectory])

    points = np.zeros((count, 3))
    placed = 0
    while placed < count:
        anchor = centers[rng.integers(0, len(centers))]
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        dist = rng.uniform(rmin, rmax)
        candidate = anchor + direction * dist
        nearest = np.min(np.linalg.norm(centers - candidate, axis=1))
        if nearest >= rmin:
            points[placed] = candidate
            placed += 1

    descriptors = rng.integers(0, 256, size=(count, DESCRIPTOR_BYTES), dtype=np.uint8)
    return LandmarkCloud(points, descriptors, (rmin, rmax))


def _flip_descriptor(desc, flip_rate, rng):
    flips = rng.random(DESCRIPTOR_BYTES * 8) < flip_rate
    return desc ^ np.packbits(flips)


def _pixel_in_model(pix, intr):
    if not (0 <= pix[0] < intr.image_width and 0 <= pix[1] < intr.image_height):
        return False
    if intr.model is CameraModel.EQUIDISTANT:
        mx = (pix[0] - intr.cx) / intr.fx
        my = (pix[1] - intr.cy) / intr.fy
        return math.hypot(mx, my) < intr.fov_limit
    return True


def render_observations(rig: RigConfig, trajectory, cloud: LandmarkCloud, noise: NoiseSpec):
    """Project the cloud through every camera at every frame.

    Tracks carry the landmark identity until a dropout event or a
    visibility gap breaks them; re-detection opens a fresh track id. Each
    (frame, camera) maps the whole cloud into the camera and projects the
    landmarks within depth range with project_many, so every pixel rounds
    as project rounds it. Landmarks that land on the sensor then take
    their draws in ascending id from the camera's own stream: pixel noise
    (capped at 3 sigma), dropout, descriptor bit flips.
    """
    n_cams = rig.n_cameras
    rmin, rmax = cloud.depth_range

    streams = np.random.SeedSequence(noise.seed).spawn(n_cams)
    rngs = [np.random.default_rng(s) for s in streams]

    table = FeatureTrackTable(n_cams)
    descriptors = [dict() for _ in range(n_cams)]
    track_landmark = [dict() for _ in range(n_cams)]
    active = [dict() for _ in range(n_cams)]  # landmark id -> open track id
    next_tid = [0] * n_cams

    for t, body in enumerate(trajectory):
        per_cam_obs = []
        for c in range(n_cams):
            intr = rig.intrinsic(c)
            cam_pose = body.compose(rig.extrinsic(c).cam_in_body)
            # a stacked matmul rounds as the per-point rot_t @ v, and
            # sqrt(vecdot) as np.linalg.norm
            p_cam = np.matmul(cam_pose.rotation.T, (cloud.points - cam_pose.t)[:, :, None])[..., 0]
            if intr.model is CameraModel.PINHOLE:
                depth = p_cam[:, 2]
            else:
                depth = np.sqrt(np.vecdot(p_cam, p_cam))
            in_range = np.flatnonzero((rmin <= depth) & (depth <= rmax))
            pixels, valid = project_many(p_cam[in_range], intr)
            u, v = pixels[:, 0], pixels[:, 1]
            valid &= (0 <= u) & (u < intr.image_width) & (0 <= v) & (v < intr.image_height)
            rng = rngs[c]
            obs = []
            new_active = {}
            for lm, pix in zip(in_range[valid].tolist(), pixels[valid]):
                if noise.pixel_sigma > 0:
                    delta = rng.normal(0.0, noise.pixel_sigma, size=2)
                    # cap at 3 sigma so every observation stays within the
                    # documented bound of its exact projection; the norm is
                    # np.linalg.norm's own sqrt(dot), without its overhead
                    norm = math.sqrt(delta.dot(delta))
                    if norm > 3.0 * noise.pixel_sigma:
                        delta *= 3.0 * noise.pixel_sigma / norm
                    pix = pix + delta
                    if not _pixel_in_model(pix, intr):
                        continue  # noise pushed it off the sensor or model

                if lm in active[c]:
                    tid = active[c][lm]
                    if noise.dropout_prob > 0 and rng.random() < noise.dropout_prob:
                        tid = next_tid[c]
                        next_tid[c] += 1
                else:
                    tid = next_tid[c]
                    next_tid[c] += 1
                new_active[lm] = tid
                track_landmark[c][tid] = lm

                desc = cloud.descriptors[lm]
                if noise.descriptor_flip_rate > 0:
                    desc = _flip_descriptor(desc, noise.descriptor_flip_rate, rng)
                obs.append((tid, pix))
                descriptors[c][(t, tid)] = desc.copy()
            active[c] = new_active
            per_cam_obs.append(obs)
        update_track_table(table, t, per_cam_obs)

    return SimOutput(
        gt_body_trajectory=list(trajectory),
        tracks=table,
        descriptors=descriptors,
        track_landmark=track_landmark,
    )
