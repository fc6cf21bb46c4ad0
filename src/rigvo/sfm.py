"""Two-view geometry and windowed monocular structure-from-motion.

All camera poses here are world_T_cam with the "world" being whatever
frame anchors the reconstruction (frame 0 of a window for SfM output).
Image measurements enter as unit rays in the camera frame, which keeps
wide-angle fisheye cameras on the same code path as pinholes. Window SfM
takes them as one camera's (track x frame) table, rows in ascending id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import Pose, skew, so3_exp

RANSAC_ITERS = 200
MIN_EPIPOLAR_MATCHES = 8
LOW_PARALLAX_ANGLE = 1e-4  # rad, rays closer than this are untriangulable
MAP_PARALLAX_THRESHOLDS = 5.0  # inlier thresholds; below, triangulation is noise
REFINE_PASSES = 2  # retriangulate-and-resolve passes of monocular_sfm_window


class SfmFailure(Exception):
    """A stage of the SfM chain could not produce a usable result."""


@dataclass
class CameraSfmTrajectory:
    """Scale-ambiguous per-camera window poses, frame 0 at identity."""

    rotations: list = field(default_factory=list)  # world_T_cam rotations
    translations: list = field(default_factory=list)

    def __post_init__(self):
        if self.rotations:
            if not np.allclose(self.rotations[0], np.eye(3), atol=1e-9):
                raise ValueError("frame-0 rotation must be identity")
            if not np.allclose(self.translations[0], 0.0, atol=1e-9):
                raise ValueError("frame-0 translation must be zero")

    def __len__(self):
        return len(self.rotations)

    def pose(self, t) -> Pose:
        return Pose.from_rt(self.rotations[t], self.translations[t])


def _eight_point(rays_a, rays_b):
    """Essential matrices from ray correspondences (direct linear solve).

    rays_a, rays_b (..., N, 3): leading axes stack hypotheses, each fit on
    its own N >= 8 ray pairs; returns (..., 3, 3). Stacked linalg solves
    each matrix as a one-matrix call does, so a stack's members are bit for
    bit the E those calls give.
    """
    a = np.einsum("...ni,...nj->...nij", rays_b, rays_a).reshape(*rays_a.shape[:-1], 9)
    _, _, vt = np.linalg.svd(a)
    e = vt[..., -1, :].reshape(*a.shape[:-2], 3, 3)
    # enforce the (s, s, 0) singular structure
    u, s, vt = np.linalg.svd(e)
    u[..., :, -1] *= np.where(np.linalg.det(u) < 0, -1.0, 1.0)[..., None]
    vt[..., -1, :] *= np.where(np.linalg.det(vt) < 0, -1.0, 1.0)[..., None]
    diag = np.zeros_like(e)
    diag[..., 0, 0] = diag[..., 1, 1] = 0.5 * (s[..., 0] + s[..., 1])
    return u @ diag @ vt


def _epipolar_angles(e_mat, rays_a, rays_b):
    """Angular distance of each ray pair from its epipolar plane (rad).

    e_mat (..., 3, 3): leading axes stack hypotheses, each scored on the
    same (N, 3) rays; returns (..., N).
    """
    n = rays_a @ np.swapaxes(e_mat, -1, -2)  # plane normals in frame b
    norms = np.linalg.norm(n, axis=-1)
    norms = np.where(norms < 1e-15, 1.0, norms)
    sines = np.abs(np.einsum("...ni,...ni->...n", rays_b, n)) / norms
    return np.arcsin(np.clip(sines, 0.0, 1.0))


def _decompose_essential(e_mat):
    u, _, vt = np.linalg.svd(e_mat)
    if np.linalg.det(u) < 0:
        u[:, -1] *= -1
    if np.linalg.det(vt) < 0:
        vt[-1, :] *= -1
    w = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    r1, r2 = u @ w @ vt, u @ w.T @ vt
    t = u[:, 2]
    return [(r1, t), (r1, -t), (r2, t), (r2, -t)]


def triangulate_many(rotations, centers, rays, seen, min_angle=LOW_PARALLAX_ANGLE):
    """Batched N-view midpoint triangulation of many tracks over V views.

    rotations (V,3,3) and centers (V,3): world_T_cam of the views; rays
    (N,V,3): unit rays in camera frames; seen (N,V): which views observe
    each track (rays of unseen views are ignored). A track is ok when two of
    its views subtend at least min_angle, i.e. acos of the smallest
    |d_i . d_j| over its seen pairs, and its point has positive range along
    every view that sees it (cheirality). Returns (points (N,3), depths
    (N,V) range along each ray, ok (N,)); rows that are not ok have NaN
    points, and depths are 0 there and in unseen views.
    """
    rays = np.asarray(rays, dtype=float)
    seen = np.asarray(seen, dtype=bool)
    n, v = seen.shape
    # matmul and the sequential sums over views below round exactly as a
    # per-track loop over its views does
    dirs = np.matmul(rotations, rays[..., None])[..., 0] * seen[:, :, None]
    pairs = seen[:, :, None] & seen[:, None, :] & ~np.eye(v, dtype=bool)
    dots = np.abs(np.einsum("nvi,nwi->nvw", dirs, dirs))
    min_dot = np.where(pairs, dots, np.inf).min(axis=(1, 2))
    ok = pairs.any(axis=(1, 2)) & (np.arccos(np.clip(min_dot, 0.0, 1.0)) >= min_angle)
    points = np.full((n, 3), np.nan)
    depths = np.zeros((n, v))
    if not ok.any():
        return points, depths, ok

    # sum over seen views of (I - d d^T) x = (I - d d^T) c
    d = dirs[ok]
    m = (np.eye(3) - d[..., :, None] * d[..., None, :]) * seen[ok][:, :, None, None]
    pts = np.linalg.solve(m.sum(axis=1), np.matmul(m, centers[:, :, None]).sum(axis=1))[..., 0]
    dep = np.einsum("nvi,nvi->nv", pts[:, None, :] - centers, d)
    front = np.all((dep > 0) | ~seen[ok], axis=1)
    ok[ok] = front
    points[ok], depths[ok] = pts[front], dep[front]
    return points, depths, ok


def triangulate_rays(poses, rays, min_angle=LOW_PARALLAX_ANGLE):
    """N-view midpoint triangulation of one track: triangulate_many on one row.

    poses: list of world_T_cam Pose; rays: (N,3) unit rays, one per view.
    Returns (point (3,), depths (N,) range along each ray, all positive) or
    raises SfmFailure when no ray pair subtends at least min_angle or the
    point lies behind one of the views.
    """
    rays = np.asarray(rays, dtype=float)
    points, depths, ok = triangulate_many(
        np.array([p.rotation for p in poses]), np.array([p.t for p in poses]),
        rays[None], np.ones((1, len(rays)), dtype=bool), min_angle,
    )
    if not ok[0]:
        raise SfmFailure("rays near parallel or point behind a view")
    return points[0], depths[0]


def _ransac_inliers(rays_a, rays_b, inlier_threshold, rng):
    """Inlier mask of the best of RANSAC_ITERS 8-point hypotheses.

    Samples are drawn one rng.choice call per hypothesis, as a loop over
    hypotheses draws them, then fit and scored as one stack. A sample with a
    non-finite ray has no hypothesis. The best is the first of the largest
    inlier counts. Raises SfmFailure when it has too few inliers.
    """
    idx = np.array([rng.choice(len(rays_a), size=MIN_EPIPOLAR_MATCHES, replace=False)
                    for _ in range(RANSAC_ITERS)])
    sample_a, sample_b = rays_a[idx], rays_b[idx]
    finite = np.isfinite(sample_a).all(axis=(1, 2)) & np.isfinite(sample_b).all(axis=(1, 2))
    e_mats = _eight_point(sample_a[finite], sample_b[finite])
    masks = _epipolar_angles(e_mats, rays_a, rays_b) < inlier_threshold
    counts = masks.sum(axis=1)
    if counts.max(initial=0) < MIN_EPIPOLAR_MATCHES:
        raise SfmFailure(f"only {counts.max(initial=0)} epipolar inliers")
    return masks[np.argmax(counts)]


def estimate_relative_pose(rays_a, rays_b, inlier_threshold=0.002, rng=None):
    """Relative pose of view b in view a's frame from matched unit rays.

    Random-sample 8-point fitting with angular epipolar residuals, followed
    by an all-inlier refit and cheirality disambiguation. The returned
    translation has unit norm. inlier_threshold is in radians (one pixel at
    focal length f is roughly 1/f). The RANSAC_ITERS hypotheses are fit and
    scored as one stack (_ransac_inliers); rng makes the same draws, in the
    same order, as a loop fitting one hypothesis per draw.

    Returns (rotation, unit translation, inlier mask).
    Raises SfmFailure for < 8 matches, too few inliers, a failed refit,
    degenerate cheirality, or near-zero parallax (pure rotation).
    """
    rays_a = np.asarray(rays_a, dtype=float)
    rays_b = np.asarray(rays_b, dtype=float)
    n = len(rays_a)
    if n < MIN_EPIPOLAR_MATCHES:
        raise SfmFailure(f"need at least {MIN_EPIPOLAR_MATCHES} matches, got {n}")
    rng = np.random.default_rng(0) if rng is None else rng
    best_mask = _ransac_inliers(rays_a, rays_b, inlier_threshold, rng)

    # refit on all inliers, then recollect the support set
    try:
        e_mat = _eight_point(rays_a[best_mask], rays_b[best_mask])
        mask = _epipolar_angles(e_mat, rays_a, rays_b) < inlier_threshold
        if int(mask.sum()) < MIN_EPIPOLAR_MATCHES:
            mask = best_mask
        e_mat = _eight_point(rays_a[mask], rays_b[mask])
    except np.linalg.LinAlgError as exc:
        raise SfmFailure(f"essential refit failed: {exc}") from exc

    # a single rotation explaining the rays means the baseline is
    # unobservable (pure rotation); the essential fit is meaningless there
    if _compensated_parallax(rays_a[mask], rays_b[mask]) < max(LOW_PARALLAX_ANGLE,
                                                               inlier_threshold):
        raise SfmFailure("low parallax: translation unobservable")

    pair_rays = np.stack([rays_a[mask], rays_b[mask]], axis=1)
    best = None
    for rot_ba, t_ba in _decompose_essential(e_mat):
        # decomposition yields the a->b point transform; invert to the pose
        # of view b in view a's frame
        rot = rot_ba.T
        t = -rot_ba.T @ t_ba
        _, _, ok = triangulate_many(np.array([np.eye(3), rot]), np.array([np.zeros(3), t]),
                                    pair_rays, np.ones(pair_rays.shape[:2], dtype=bool))
        front = int(ok.sum())
        if best is None or front > best[0]:
            best = (front, rot, t)
    front, rot, t = best
    if front < max(2, 0.5 * mask.sum()):
        raise SfmFailure("cheirality check failed for all decompositions")

    return rot, t / np.linalg.norm(t), mask


def _compensated_parallax(rays_a, rays_b):
    """Median angle between a-rays and b-rays once the best-fit rotation
    (orthogonal Procrustes) carries b onto a: ~0 under pure rotation, it is
    the parallax that triangulation actually sees."""
    u, _, vt = np.linalg.svd(rays_a.T @ rays_b)
    d = np.sign(np.linalg.det(u @ vt))
    aligned = rays_b @ (u @ np.diag([1.0, 1.0, d]) @ vt).T
    dots = np.clip(np.einsum("ni,ni->n", aligned, rays_a), -1.0, 1.0)
    return float(np.median(np.arccos(np.abs(dots))))


def huber_weights(res, delta):
    """Per-row square-root IRLS weights and robust cost of residual rows.

    res (N,k): one residual vector per row, of norm e. The cost is the sum
    of rho(e) = e^2 for e <= delta and 2 delta e - delta^2 beyond, whose
    IRLS weight sqrt(delta / e) scales the row's residual and Jacobian.
    delta = inf gives unit weights and the least-squares cost. Returns
    (weights (N,), cost).
    """
    e = np.linalg.norm(res, axis=1)
    w = np.ones_like(e)
    if not np.isfinite(delta):
        return w, float((e**2).sum())
    far = e > delta
    w[far] = np.sqrt(delta / e[far])
    return w, float(np.where(far, 2.0 * delta * e - delta**2, e**2).sum())


def _unit_ray_residuals(rot, t, points, rays, ext=None):
    """Residuals r = normalize(X_cam) - ray, and the terms their Jacobian reuses.

    (rot, t) is world_T_cam, or world_T_body when ext (the camera's Pose
    in the body) is given; X_cam = R_c^T (X - t_c) with world_T_cam =
    world_T_body * ext. Returns (residuals (N,3), terms for
    _unit_ray_jacobian).
    """
    if ext is None:
        rot_wc, t_wc = rot, t
    else:
        rot_wc = rot @ ext.rotation
        t_wc = rot @ ext.t + t
    x_cam = (points - t_wc) @ rot_wc
    norms = np.linalg.norm(x_cam, axis=1, keepdims=True)
    unit = x_cam / norms
    return unit - rays, (rot, t, points, ext, rot_wc, x_cam, norms, unit)


def _unit_ray_jacobian(terms):
    """Jacobians (N,3,6) of _unit_ray_residuals wrt (dp, dtheta), from its terms.

    The perturbation acts on (rot, t): t <- t + dp, R <- R @ exp(dtheta^).
    """
    rot, t, points, ext, rot_wc, x_cam, norms, unit = terms
    # d unit / d x_cam = (I - uu^T)/|x|
    proj = (np.eye(3) - unit[:, :, None] * unit[:, None, :]) / norms[:, :, None]
    # d x_cam/dp = -R_c^T; d x_cam/dtheta = [x_cam]^ for a camera pose and
    # ext.R^T [R^T (X - t)]^ for a body pose (right perturbation)
    d_dp = -np.broadcast_to(rot_wc.T, (len(points), 3, 3))
    if ext is None:
        d_dth = skew(x_cam)
    else:
        d_dth = np.einsum("ab,nbc->nac", ext.rotation.T, skew((points - t) @ rot))
    return np.concatenate([proj @ d_dp, proj @ d_dth], axis=2)


def pnp_refine(points, rays, initial: Pose, max_iters=100, step_tol=1e-10, extrinsics=None,
               huber_delta=math.inf):
    """Pose-only refinement of world_T_cam against 3D points and unit rays.

    Minimizes the Huber cost (huber_weights) of unit-ray direction residuals
    by damped least squares. When extrinsics (list of Pose, cam-in-body per
    observation) is given the optimized pose is world_T_body and each ray is
    taken in its own camera; this covers multi-camera pose verification with
    one code path. huber_delta (residual-norm units, roughly radians) bounds
    the influence of stray correspondences; inf is plain least squares. A
    trial step is judged, and its Huber weights taken, from residuals alone;
    the Jacobian is built only at the poses that start an iteration.

    Raises SfmFailure on fewer than 4 correspondences, on a point that is
    not finite or lies at the initial camera centre (its ray residual is
    0/0), when no damped step lowers the cost ("pnp diverged"), and when
    max_iters iterations end without a step below step_tol ("did not
    converge in iteration budget").
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    rays = np.asarray(rays, dtype=float).reshape(-1, 3)
    if len(points) < 4:
        raise SfmFailure(f"pnp needs >= 4 correspondences, got {len(points)}")
    if not np.isfinite(points).all():
        raise SfmFailure("pnp: a correspondence's point is not finite")

    rot = initial.rotation
    t = initial.t.copy()
    lam = 1e-6

    # one kernel call per distinct extrinsic object, or one for all rows
    if extrinsics is None:
        groups = [(None, slice(None))]
    else:
        groups = {}
        for i, ext in enumerate(extrinsics):
            groups.setdefault(id(ext), (ext, []))[1].append(i)
        groups = [(ext, np.array(idxs)) for ext, idxs in groups.values()]
    groups = [(ext, idxs, points[idxs], rays[idxs]) for ext, idxs in groups]
    for ext, _, pts, _ in groups:
        centre = t if ext is None else rot @ ext.t + t
        if (pts == centre).all(axis=1).any():
            raise SfmFailure("pnp: a correspondence's point lies at the initial camera centre")

    def evaluate(rot_wb, t_wb):
        # Huber-weighted residuals, their weights, the cost and the kernel
        # terms of each group
        res = np.zeros((len(points), 3))
        terms = []
        for ext, idxs, pts, obs in groups:
            res[idxs], group_terms = _unit_ray_residuals(rot_wb, t_wb, pts, obs, ext)
            terms.append(group_terms)
        w, cost = huber_weights(res, huber_delta)
        return res * w[:, None], w, cost, terms

    def weighted_jacobian(w, terms):
        jac = np.zeros((len(points), 3, 6))
        for (_, idxs, _, _), group_terms in zip(groups, terms):
            jac[idxs] = _unit_ray_jacobian(group_terms)
        return jac * w[:, None, None]

    res, w, cost, terms = evaluate(rot, t)
    for _ in range(max_iters):
        j_flat = weighted_jacobian(w, terms).reshape(-1, 6)
        r_flat = res.reshape(-1)
        h = j_flat.T @ j_flat
        g = j_flat.T @ r_flat
        step = None
        for _ in range(20):
            try:
                step = np.linalg.solve(h + lam * np.eye(6), -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            new_t = t + step[:3]
            new_rot = rot @ so3_exp(step[3:])
            trial = evaluate(new_rot, new_t)
            if trial[2] <= cost:
                break
            lam *= 10.0
        else:
            raise SfmFailure("pnp diverged")
        t, rot = new_t, new_rot
        res, w, cost, terms = trial
        lam = max(lam * 0.3, 1e-12)
        if np.linalg.norm(step) < step_tol:
            break
    else:
        raise SfmFailure("pnp did not converge in iteration budget")
    return Pose.from_rt(rot, t)


def monocular_sfm_window(rays, seen, inlier_threshold=0.002, rng=None):
    """Windowed monocular SfM from one camera's (track x frame) ray table.

    rays (T,F,3): unit rays, one row per track in ascending track id (each
    frame's PnP correspondence order), one column per window frame; seen
    (T,F): which frames observe each track (rays of unseen cells are
    ignored). Picks the frame pair with the widest rotation-compensated
    parallax, estimates a relative pose, triangulates, solves remaining
    frames by robust pose refinement, and re-anchors frame 0 at identity
    with unit-norm init baseline. Each growth of the map and each refine
    pass is one triangulate_many call over its candidate tracks.

    Map points must subtend at least MAP_PARALLAX_THRESHOLDS times the
    inlier threshold; REFINE_PASSES passes retriangulate and re-solve.

    Returns a CameraSfmTrajectory; raises SfmFailure when any stage fails.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    n_tracks, n_frames = seen.shape
    if n_frames < 2:
        raise SfmFailure("window too short")
    min_map_parallax = MAP_PARALLAX_THRESHOLDS * inlier_threshold
    huber = 2.0 * inlier_threshold

    # rank frame pairs by rotation-compensated parallax: the residual ray
    # angle after the best-fit rotation is what triangulation actually sees
    pair_stats = []
    max_shared = 0
    for i in range(n_frames):
        for j in range(i + 1, n_frames):
            shared = seen[:, i] & seen[:, j]
            n_shared = int(shared.sum())
            if n_shared < MIN_EPIPOLAR_MATCHES:
                continue
            parallax = _compensated_parallax(rays[shared, i], rays[shared, j])
            pair_stats.append((i, j, n_shared, parallax))
            max_shared = max(max_shared, n_shared)
    if not pair_stats:
        raise SfmFailure("no frame pair shares enough tracks")
    support_floor = max(MIN_EPIPOLAR_MATCHES, max_shared // 2)
    eligible = [p for p in pair_stats if p[2] >= support_floor]
    ia, ib, _, _ = max(eligible, key=lambda p: p[3])

    shared = np.flatnonzero(seen[:, ia] & seen[:, ib])
    rot, t_unit, mask = estimate_relative_pose(rays[shared, ia], rays[shared, ib],
                                               inlier_threshold, rng)

    poses = [None] * n_frames
    poses[ia] = Pose.identity()
    poses[ib] = Pose.from_rt(rot, t_unit)

    # the map: points[k] is valid where mapped[k]
    points = np.full((n_tracks, 3), np.nan)
    mapped = np.zeros(n_tracks, dtype=bool)

    def solve_frame(f, init_pose):
        use = mapped & seen[:, f]
        if use.sum() < 4:
            raise SfmFailure(f"frame {f}: too few 2D-3D correspondences")
        return pnp_refine(points[use], rays[use, f], init_pose, huber_delta=huber)

    def map_tracks(rows, frames):
        # map those of the given tracks that triangulate from the given
        # solved frames
        pts, _, ok = triangulate_many(
            np.array([poses[f].rotation for f in frames]),
            np.array([poses[f].t for f in frames]),
            rays[np.ix_(rows, frames)], seen[np.ix_(rows, frames)], min_map_parallax,
        )
        points[rows[ok]] = pts[ok]
        mapped[rows[ok]] = True

    map_tracks(shared[mask], [ia, ib])
    if mapped.sum() < 4:
        raise SfmFailure("too few triangulated landmarks")

    # sweep outward from the solved pair so each frame has a nearby initial
    solved = {ia, ib}
    order = sorted(range(n_frames), key=lambda f: min(abs(f - ia), abs(f - ib)))
    for f in order:
        if poses[f] is not None:
            continue
        neighbor = min(solved, key=lambda g: abs(g - f))
        poses[f] = solve_frame(f, poses[neighbor])
        solved.add(f)
        # map the tracks that two or more solved frames now cover
        map_tracks(np.flatnonzero(~mapped), sorted(solved))

    all_frames = list(range(n_frames))
    for _ in range(REFINE_PASSES):
        # retriangulate every track from all observing frames, then re-solve
        mapped[:] = False
        map_tracks(np.arange(n_tracks), all_frames)
        if mapped.sum() < 4:
            raise SfmFailure("retriangulation lost the map")
        for f in all_frames:
            poses[f] = solve_frame(f, poses[f])

    anchor = poses[0].inverse()
    anchored = [anchor.compose(p) for p in poses]
    baseline = np.linalg.norm(anchored[ib].t - anchored[ia].t)
    if baseline < 1e-12:
        raise SfmFailure("degenerate baseline after anchoring")
    rotations = [p.rotation for p in anchored]
    translations = [p.t / baseline for p in anchored]
    translations[0] = np.zeros(3)
    return CameraSfmTrajectory(rotations, translations)
