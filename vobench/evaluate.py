"""Ground-truth checkers and summary statistics, in plain numpy.

Nothing here imports rigvo: the benchmark judges the program's outputs
with its own code. Trajectory metrics follow Zhang & Scaramuzza 2018,
"A Tutorial on Quantitative Trajectory Evaluation for Visual(-Inertial)
Odometry": ATE after an SE(3) Umeyama alignment (no scale, because metric
scale is what the rig claims), the Sim(3) scale factor, and RPE over
fixed-length segments.
"""

from __future__ import annotations

import math

import numpy as np

TAIL_SAMPLES = 10  # a tail percentile needs this many samples beyond it


def umeyama(est, gt, with_scale=False):
    """Least-squares (s, R, t) with gt ~ s R est + t.

    est, gt: (N, 3) matched positions, N >= 3. Returns (s, R (3,3), t (3,)).
    """
    est = np.asarray(est, dtype=float)
    gt = np.asarray(gt, dtype=float)
    if est.shape != gt.shape or est.ndim != 2 or est.shape[1] != 3 or len(est) < 3:
        raise ValueError("need two matching (N, 3) position arrays with N >= 3")
    mu_e = est.mean(axis=0)
    mu_g = gt.mean(axis=0)
    de = est - mu_e
    dg = gt - mu_g
    cov = dg.T @ de / len(est)
    u, d, vt = np.linalg.svd(cov)
    sign = np.eye(3)
    if np.linalg.det(u) * np.linalg.det(vt) < 0:
        sign[2, 2] = -1.0
    rot = u @ sign @ vt
    scale = 1.0
    if with_scale:
        var_e = float((de**2).sum() / len(est))
        scale = float(np.trace(np.diag(d) @ sign) / var_e)
    t = mu_g - scale * rot @ mu_e
    return scale, rot, t


def ate_rmse(est, gt):
    """RMSE of positions after SE(3) alignment of est onto gt (m)."""
    _, rot, t = umeyama(est, gt)
    err = np.asarray(gt) - (np.asarray(est) @ rot.T + t)
    return float(np.sqrt(np.mean(np.sum(err**2, axis=1))))


def sim3_scale(est, gt):
    """Scale factor of the Sim(3) alignment of est onto gt; 1 is metric."""
    return umeyama(est, gt, with_scale=True)[0]


def rpe_rmse(est_rot, est_pos, gt_rot, gt_pos, segment=10):
    """RMSE of the relative translation error over every segment of
    `segment` frames (m).

    Rotations (N, 3, 3) and positions (N, 3) are world_T_body per frame,
    consecutive in time. Each segment compares est_i^-1 est_{i+segment}
    with the same relative motion in gt.
    """
    est_rot, est_pos = np.asarray(est_rot), np.asarray(est_pos)
    gt_rot, gt_pos = np.asarray(gt_rot), np.asarray(gt_pos)
    n = len(est_pos)
    if n <= segment:
        raise ValueError(f"need more than {segment} poses, got {n}")
    errs = []
    for i in range(n - segment):
        j = i + segment
        rel_e_t = est_rot[i].T @ (est_pos[j] - est_pos[i])
        rel_g_t = gt_rot[i].T @ (gt_pos[j] - gt_pos[i])
        # |translation of rel_g^-1 rel_e| = |rel_e_t - rel_g_t|
        errs.append(float(np.sum((rel_e_t - rel_g_t) ** 2)))
    return math.sqrt(sum(errs) / len(errs))


def anchored_camera_translations(body_rot, body_pos, ext_rot, ext_t):
    """True camera translations in the camera frame of the first pose.

    body_rot (N,3,3), body_pos (N,3): world_T_body per frame; ext_rot,
    ext_t: the camera's pose in the body. Returns R_c0^T (p_c - p_c0) per
    frame, the quantity a monocular reconstruction anchored at frame 0
    recovers up to scale.
    """
    body_rot = np.asarray(body_rot, dtype=float)
    body_pos = np.asarray(body_pos, dtype=float)
    cam_rot = body_rot @ np.asarray(ext_rot, dtype=float)
    cam_pos = body_pos + body_rot @ np.asarray(ext_t, dtype=float)
    return (cam_pos - cam_pos[0]) @ cam_rot[0]


def fit_scale(est_t, gt_t):
    """Factor s minimising sum |s est_t - gt_t|^2 (the ground-truth scale
    of a scale-ambiguous trajectory)."""
    est_t = np.asarray(est_t, dtype=float)
    gt_t = np.asarray(gt_t, dtype=float)
    denom = float(np.sum(est_t * est_t))
    if denom <= 0:
        raise ValueError("estimate has no translation")
    return float(np.sum(est_t * gt_t) / denom)


def prior_is_psd(h):
    """Symmetric, and eigenvalues >= -n * eps * lambda_max."""
    h = np.asarray(h, dtype=float)
    if h.size == 0:
        return True
    if not np.all(np.isfinite(h)):
        return False
    scale = max(float(np.max(np.abs(h))), 1e-300)
    if not np.allclose(h, h.T, rtol=0.0, atol=1e-12 * scale):
        return False
    vals = np.linalg.eigvalsh(h)
    return bool(vals[0] >= -len(h) * np.finfo(float).eps * max(vals[-1], 0.0))


def percentile(samples, q):
    """Nearest-rank percentile (q in [0, 100]) of a non-empty sample."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(samples, q=90):
    """The q-th percentile, or None unless at least TAIL_SAMPLES samples
    lie beyond it."""
    if not samples:
        return None
    value = percentile(samples, q)
    beyond = sum(1 for s in samples if s > value)
    return value if beyond >= TAIL_SAMPLES else None


def median(samples):
    if not samples:
        raise ValueError("no samples")
    return float(np.median(np.asarray(samples, dtype=float)))
