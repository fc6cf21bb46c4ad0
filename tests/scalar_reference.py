"""Scalar reference versions of the projection and the renderer.

These are the per-point formulas the vectorized geometry.project_many and
simulator.render_observations must reproduce bit for bit: one camera-frame
point at a time, and a loop over landmark x camera x frame that draws
each camera's noise stream in ascending landmark id.
"""

import math

import numpy as np

from rigvo.frontend import FeatureTrackTable, update_track_table
from rigvo.geometry import CameraModel
from rigvo.simulator import SimOutput, _flip_descriptor, _pixel_in_model


def scalar_project(point, intr):
    """Camera-frame point (m) to pixel, or None when unrepresentable."""
    x, y, z = np.asarray(point, dtype=float)
    rho = math.hypot(x, y)
    theta = math.atan2(rho, z)
    if theta >= intr.fov_limit:
        return None
    if intr.model is CameraModel.PINHOLE:
        if z <= 0.0:
            return None
        return np.array([intr.fx * x / z + intr.cx, intr.fy * y / z + intr.cy])
    if rho < 1e-12:
        if z <= 0.0:
            return None
        return np.array([intr.cx, intr.cy])
    return np.array(
        [intr.fx * theta * x / rho + intr.cx, intr.fy * theta * y / rho + intr.cy]
    )


def scalar_render(rig, trajectory, cloud, noise):
    """render_observations as a loop over landmark x camera x frame."""
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
            pinhole = intr.model is CameraModel.PINHOLE
            cam_pose = body.compose(rig.extrinsic(c).cam_in_body)
            rot_t = cam_pose.rotation.T
            rng = rngs[c]
            obs = []
            new_active = {}
            for lm in range(len(cloud)):
                p_cam = rot_t @ (cloud.points[lm] - cam_pose.t)
                depth = p_cam[2] if pinhole else np.linalg.norm(p_cam)
                if not rmin <= depth <= rmax:
                    continue
                pix = scalar_project(p_cam, intr)
                if pix is None:
                    continue
                if not (0 <= pix[0] < intr.image_width and 0 <= pix[1] < intr.image_height):
                    continue

                if noise.pixel_sigma > 0:
                    delta = rng.normal(0.0, noise.pixel_sigma, size=2)
                    norm = np.linalg.norm(delta)
                    if norm > 3.0 * noise.pixel_sigma:
                        delta *= 3.0 * noise.pixel_sigma / norm
                    pix = pix + delta
                    if not _pixel_in_model(pix, intr):
                        continue

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

    return SimOutput(list(trajectory), table, descriptors, track_landmark)
