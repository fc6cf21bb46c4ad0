"""The workloads: their inputs (rigs, simulated runs, per-frame input
lists) and their rounds.

A workload's setup() runs before the timed loop; its median wall time over
several repetitions is the `setup_s` metric. round() is one round of
operations over those inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from rigvo.backend import ReprojObservation
from rigvo.geometry import (
    CameraExtrinsic,
    CameraIntrinsic,
    CameraModel,
    Pose,
    RigConfig,
    unproject,
)
from rigvo.simulator import (
    NoiseSpec,
    TrajectorySpec,
    generate_trajectory,
    render_observations,
    sample_landmarks,
)

import sweep
import vo
from spans import Tracer

DEPTH_RANGE = (3.0, 25.0)  # m, as in the package's own tests
OBS_SIGMA_PX = 1.5  # BA whitening sigma, as in the package's own tests


def _axes_to_rot(x_axis, y_axis, z_axis):
    return np.array([x_axis, y_axis, z_axis]).T


def make_rig(n_cameras):
    """The heterogeneous rig of the package's tests: front and back
    pinholes, left and right equidistant fisheyes, asymmetric baselines."""
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


@dataclass(frozen=True)
class SimSpec:
    n_cameras: int
    kind: str
    frames: int
    speed: float  # m/s at 10 frames/s
    landmarks: int
    pixel_sigma: float
    dropout: float


@dataclass
class Run:
    """One simulated run and the per-frame lists the loop consumes."""

    rig: RigConfig
    gt: list  # world_T_body per frame
    pixels: list  # [frame][camera] -> [(track_id, pixel)], ascending ids
    rays: list  # [frame][camera] -> {track_id: unit ray}
    obs: list  # [frame] -> [ReprojObservation]
    seed: int  # RANSAC seed of the run's initialization attempts


def sub_seeds(seed, tag):
    """Independent landmark and noise seeds for one simulated run."""
    child = np.random.SeedSequence([seed, tag]).generate_state(2)
    return int(child[0]), int(child[1])


def build_run(spec: SimSpec, lm_seed, noise_seed, tracer, first=0, stop=None):
    """Render one simulated run into loop inputs.

    first/stop cut a slice out of the spec's trajectory before landmarks
    are placed and observations rendered.
    """
    rig = make_rig(spec.n_cameras)
    traj = generate_trajectory(TrajectorySpec(spec.kind, spec.frames, speed=spec.speed))
    traj = traj[first:stop]
    cloud = sample_landmarks(spec.landmarks, traj, DEPTH_RANGE, seed=lm_seed)
    noise = NoiseSpec(pixel_sigma=spec.pixel_sigma, dropout_prob=spec.dropout, seed=noise_seed)
    with tracer.span("simulator.render"):
        sim = render_observations(rig, traj, cloud, noise)

    n_cams = rig.n_cameras
    pixels = [[[] for _ in range(n_cams)] for _ in range(len(traj))]
    for cam in range(n_cams):
        for tid, track in sim.tracks.tracks[cam].items():
            for f, pix in track:
                pixels[f][cam].append((tid, pix))
    rays, obs = [], []
    for f in range(len(traj)):
        frame_rays, frame_obs = [], []
        for cam in range(n_cams):
            pixels[f][cam].sort(key=lambda item: item[0])
            intr = rig.intrinsic(cam)
            sigma = OBS_SIGMA_PX / intr.fx
            cam_rays = {}
            for tid, pix in pixels[f][cam]:
                ray = unproject(pix, intr)
                cam_rays[tid] = ray
                frame_obs.append(ReprojObservation(cam, tid, f, ray[:2] / ray[2], sigma))
            frame_rays.append(cam_rays)
        rays.append(frame_rays)
        obs.append(frame_obs)
    return Run(rig, list(traj), pixels, rays, obs, noise_seed)


# slow_dropout2: 2-camera VO on a slow figure-eight with 5 % dropout. One
# replay initializes once or twice, so initialization is also timed on
# every 11th window of a noise-free rendering of the same run: noise-free,
# because at 0.5 px solve_scales accepts noise-dominated scales on some
# windows of some seeds, which would make the failed share seed-dependent
VO_SPEC = SimSpec(2, "lemniscate", 130, 1.0, 500, 0.5, 0.05)
VO_CLEAN_SPEC = SimSpec(2, "lemniscate", 130, 1.0, 500, 0.0, 0.05)
VO_INIT_WINDOWS = frozenset(range(10, 130, 11))

# init_sweep4: seeded noise-free windows on a 4-camera figure-eight and a
# straight line, plus fixed 0.5 px windows on which solve_scales accepts a
# scale more than 10 % off (seed-independent, so they fail in every run)
SWEEP_SPEC = SimSpec(4, "lemniscate", 120, 3.0, 500, 0.0, 0.05)
SWEEP_WINDOWS = frozenset(range(10, 120, 10))
STRAIGHT_SPEC = SimSpec(4, "straight_line", 12, 3.0, 500, 0.0, 0.05)
FAULT_SPEC = SimSpec(4, "lemniscate", 160, 3.0, 800, 0.5, 0.05)
FAULT_SEED = 5
FAULT_WINDOW_ENDS = (82, 88)  # 4.9 degrees of yaw per window


class VoWorkload:
    @staticmethod
    def setup(seed, tracer):
        run = build_run(VO_SPEC, *sub_seeds(seed, 0), tracer)
        clean = build_run(VO_CLEAN_SPEC, *sub_seeds(seed, 0), tracer)
        # untraced: the frontend.update spans belong to the replay
        return run, clean, sweep.ingest(clean, Tracer(False))

    @staticmethod
    def round(inputs, tracer, stats):
        run, clean, table = inputs

        # spread the attempts through the replay, so that they sample the
        # host's speed over the whole round, not over a few seconds of it
        def after_frame(t):
            if t in VO_INIT_WINDOWS:
                sweep.attempt_window(clean, table, t, tracer, stats)

        vo.replay_round(run, tracer, stats, after_frame)


class SweepWorkload:
    @staticmethod
    def setup(seed, tracer):
        runs = [
            (build_run(SWEEP_SPEC, *sub_seeds(seed, 0), tracer), SWEEP_WINDOWS, False),
            (build_run(STRAIGHT_SPEC, *sub_seeds(seed, 1), tracer), {10}, True),
        ]
        for end in FAULT_WINDOW_ENDS:
            runs.append((build_run(FAULT_SPEC, FAULT_SEED, FAULT_SEED, tracer, end - 10, end + 1),
                         {10}, False))
        return runs

    @staticmethod
    def round(runs, tracer, stats):
        for run, windows, must_refuse in runs:
            sweep.sweep(run, windows, tracer, stats, must_refuse)


WORKLOADS = {"slow_dropout2": VoWorkload, "init_sweep4": SweepWorkload}
