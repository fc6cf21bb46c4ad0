"""Sliding-window bundle adjustment over body poses and inverse-depth
landmarks, with a marginalization prior, Huber robustification, and
per-camera online scale correction.

State layout: body poses for up to 11 frames plus landmarks parameterized
as an inverse range along a unit anchor ray in their first observing
camera. In every window problem slot i owns pose columns 6i to 6i+5;
optimize_window holds the oldest pose as the gauge by deleting its rows and
columns. Residuals are normalized-plane reprojection errors whitened by an
isotropic observation covariance; points that land behind a camera are
gated out per iteration.

Online scale correction reuses the same cost: with the body poses fixed,
each camera's inverse depths are rescaled by a Gauss-Newton step in its
log scale, taken only when a landmark-clustered evidence gate says the
window's residuals call for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import Pose, skew, so3_exp, so3_log
from .sfm import huber_weights

WINDOW_CAPACITY = 11
HUBER_DELTA = 1.0  # in observation standard deviations
Z_GATE = 1e-6
DEPTH_STEP_FLOOR = 0.1  # an update may shrink an inverse depth at most 10x
EIG_FLOOR = 1e-10
KEYFRAME_PARALLAX_PX = 10.0
KEYFRAME_TRACKED_RATIO = 0.5
SCALE_FIXED_POINT_TOL = 1e-4
SCALE_EVIDENCE_K = 3.0  # correct a camera only when its log-scale gradient > k spreads
SCALE_MAX_PASSES = 10
BA_STEP_TOL = 1e-8  # optimize_window converges below this accepted step norm
MIN_LANDMARK_OBS = 2  # prune_landmarks drops landmarks with fewer in-window observations


@dataclass
class Landmark:
    camera: int
    track_id: int
    anchor_frame: int
    anchor_ray: np.ndarray  # unit 3-vector in the anchor camera frame
    inv_depth: float  # 1 / range along anchor_ray


@dataclass
class ReprojObservation:
    camera: int
    track_id: int
    frame: int
    coords: np.ndarray  # normalized image coordinates (x/z, y/z)
    sigma: float  # isotropic std on the normalized plane

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=float)
        if self.coords.shape != (2,):
            raise ValueError("observation coordinates must have shape (2,)")
        if not (math.isfinite(self.coords[0]) and math.isfinite(self.coords[1])):
            raise ValueError("observation coordinates must be finite")
        if self.sigma <= 0:
            raise ValueError("observation sigma must be positive")


@dataclass
class MarginalizationPrior:
    """Gaussian prior on retained poses from Schur-complemented states.

    Linearization points are first estimates: they stay fixed for the
    prior's lifetime. h is symmetric with 6 rows per covered frame and PSD
    to working precision: its eigenvalues are >= -n * eps * max eigenvalue.
    The marginalized factors are evaluated with every pose free, so h
    carries the window's 6-DoF rigid-motion gauge as a null space.
    """

    frames: list
    lin_rot: dict  # frame -> (3,3)
    lin_pos: dict  # frame -> (3,)
    h: np.ndarray
    b: np.ndarray
    dropped_eigenvalues: int = 0  # Schur eigenvalues at or below EIG_FLOOR

    def delta(self, poses):
        """Stacked [dp, dtheta] w.r.t. the lin points of poses, which maps
        each covered frame to a (rotation matrix, position) pair."""
        parts = []
        for f in self.frames:
            rot, pos = poses[f]
            parts.append(pos - self.lin_pos[f])
            parts.append(so3_log(self.lin_rot[f].T @ rot))
        return np.concatenate(parts)

    def cost(self, poses):
        d = self.delta(poses)
        return float(0.5 * d @ self.h @ d + self.b @ d)


class SlidingWindowState:
    def __init__(self, capacity=WINDOW_CAPACITY):
        self.capacity = capacity
        self.frames = []  # global frame indices, ascending
        self.poses = {}  # frame -> Pose, body in world
        self.landmarks = {}  # (camera, track_id) -> Landmark
        self.prior = None

    def add_frame(self, frame, pose):
        if self.frames and frame <= self.frames[-1]:
            raise ValueError("frames must be added in increasing order")
        if len(self.frames) >= self.capacity:
            raise ValueError("window at capacity; marginalize or discard first")
        self.frames.append(frame)
        self.poses[frame] = pose

    def remove_frame(self, frame):
        self.frames.remove(frame)
        del self.poses[frame]


class _Problem:
    """Batched evaluation over a window's observations, indexed once at
    construction: residuals() for costs, evaluate() adding the Jacobian.
    Slot i (state.frames[i]) owns pose columns 6i to 6i+5, [dp, dtheta]
    applied as t <- t + dp, R <- R exp(dtheta^); the caller fixes the gauge.
    """

    def __init__(self, state, observations, rig):
        self.state = state
        self.rig = rig
        frames = state.frames
        self.frame_slot = {f: i for i, f in enumerate(frames)}

        # an observation is usable when its landmark exists and both its own
        # and its anchor frame are in the window; an anchor self-observation
        # (same slot) has a residual identically zero and is left out
        ids = np.array([(o.camera, o.track_id, o.frame) for o in observations],
                       dtype=int).reshape(-1, 3)
        # (camera, track_id) as one integer that sorts the same way
        lo = ids[:, 1].min(initial=0)
        span = ids[:, 1].max(initial=0) - lo + 1
        flat, lm_of = np.unique(ids[:, 0] * span + ids[:, 1] - lo, return_inverse=True)
        keys = np.stack([flat // span, flat % span + lo], axis=1)
        landmarks = [state.landmarks.get(key) for key in map(tuple, keys.tolist())]
        anchor_slot = np.array(
            [-1 if lm is None else self.frame_slot.get(lm.anchor_frame, -1) for lm in landmarks],
            dtype=int)
        window = np.array(frames, dtype=int)  # ascending
        b_slot = np.searchsorted(window, ids[:, 2])
        a_slot = anchor_slot[lm_of]
        usable = np.isin(ids[:, 2], window) & (a_slot >= 0) & (a_slot != b_slot)

        used = np.unique(lm_of[usable])  # sorted, as the keys are
        self.lm_order = [tuple(key) for key in keys[used].tolist()]
        self.a_slot, self.b_slot = a_slot[usable], b_slot[usable]
        self.cam = ids[usable, 0]
        self.lm_idx = np.searchsorted(used, lm_of[usable])
        self.coords = np.array([o.coords for o in observations]).reshape(-1, 2)[usable]
        self.weight = 1.0 / np.array([o.sigma for o in observations], dtype=float)[usable]

        n_cams = rig.n_cameras
        self.ext_rot = np.stack(
            [rig.extrinsic(c).cam_in_body.rotation for c in range(n_cams)]
        )
        self.ext_t = np.stack([rig.extrinsic(c).cam_in_body.t for c in range(n_cams)])
        self.anchor_rays = np.array(
            [landmarks[i].anchor_ray for i in used.tolist()], dtype=float).reshape(-1, 3)

    @cached_property
    def scatter(self):
        """_assemble's bincount targets, built on its first call: for each
        block it scatters, the flat indices (rows * width + cols) that the
        observations' entries add to."""
        n_p, n_lm = self.n_pose_params, self.n_landmarks
        ra, rb = (6 * slots[:, None] + np.arange(6) for slots in (self.a_slot, self.b_slot))

        def pose_pose(rows_i, rows_j):
            return (rows_i[:, :, None] * n_p + rows_j[:, None, :]).reshape(-1)

        return [
            pose_pose(ra, ra), pose_pose(ra, rb), pose_pose(rb, ra), pose_pose(rb, rb),
            (ra * n_lm + self.lm_idx[:, None]).reshape(-1),
            (rb * n_lm + self.lm_idx[:, None]).reshape(-1),
            ra.reshape(-1), rb.reshape(-1),
        ]

    @property
    def n_pose_params(self):
        return 6 * len(self.state.frames)

    @property
    def n_landmarks(self):
        return len(self.lm_order)

    def current_values(self):
        rots = np.stack([self.state.poses[f].rotation for f in self.state.frames])
        pos = np.stack([self.state.poses[f].t for f in self.state.frames])
        lam = np.array(
            [self.state.landmarks[key].inv_depth for key in self.lm_order]
        )
        return rots, pos, lam

    def residuals(self, rots, pos, lam):
        """evaluate's whitened residuals and mask, bit for bit, sans Jacobian."""
        res, valid, _ = self._project(rots, pos, lam)
        return res * self.weight[:, None], valid

    def _project(self, rots, pos, lam):
        """The residual chain: unwhitened residuals (gated rows zero), the
        validity mask, and the intermediates the Jacobian reuses."""
        rays = self.anchor_rays[self.lm_idx]
        lam_k = lam[self.lm_idx]
        r_e = self.ext_rot[self.cam]
        t_e = self.ext_t[self.cam]
        r_a = rots[self.a_slot]
        r_b = rots[self.b_slot]

        p_ac = rays / lam_k[:, None]
        p_ab = np.einsum("kij,kj->ki", r_e, p_ac) + t_e
        p_w = np.einsum("kij,kj->ki", r_a, p_ab) + pos[self.a_slot]
        p_bb = np.einsum("kji,kj->ki", r_b, p_w - pos[self.b_slot])
        p_c = np.einsum("kji,kj->ki", r_e, p_bb - t_e)

        z = p_c[:, 2]
        valid = z > Z_GATE
        z_safe = np.where(valid, z, 1.0)
        res = p_c[:, :2] / z_safe[:, None] - self.coords
        res[~valid] = 0.0
        return res, valid, (rays, lam_k, r_e, r_a, r_b, p_ab, p_bb, p_c, z_safe)

    def evaluate(self, rots, pos, lam):
        """Whitened residuals, stacked Jacobians (K,2,13), validity mask;
        Jacobian columns 0:6 anchor pose, 6:12 target pose, 12 inverse depth."""
        k = len(self.cam)
        if k == 0:
            return np.zeros((0, 2)), np.zeros((0, 2, 13)), np.zeros(0, dtype=bool)
        res, valid, chain = self._project(rots, pos, lam)
        rays, lam_k, r_e, r_a, r_b, p_ab, p_bb, p_c, z_safe = chain

        inv_z = 1.0 / z_safe
        dproj = np.zeros((k, 2, 3))
        dproj[:, 0, 0] = inv_z
        dproj[:, 1, 1] = inv_z
        dproj[:, 0, 2] = -p_c[:, 0] * inv_z**2
        dproj[:, 1, 2] = -p_c[:, 1] * inv_z**2

        # dP_c/dP_w = (R_b R_e)^T
        d_pw = dproj @ (r_b @ r_e).transpose(0, 2, 1)  # (k,2,3)

        jac = np.zeros((k, 2, 13))
        # anchor pose: dP_w/dp = I, dP_w/dtheta = -R_a [P_ab]^
        jac[:, :, 0:3] = d_pw
        jac[:, :, 3:6] = -((d_pw @ r_a) @ skew(p_ab))
        # target pose: dP_c/dp_b = -(R_b R_e)^T, dP_c/dtheta_b = R_e^T [P_bb]^
        jac[:, :, 6:9] = -d_pw
        jac[:, :, 9:12] = (dproj @ r_e.transpose(0, 2, 1)) @ skew(p_bb)
        # inverse depth: dP_ac/dlambda = -ray/lambda^2
        d_ray = -rays / (lam_k**2)[:, None]
        jac[:, :, 12] = (d_pw @ (r_a @ (r_e @ d_ray[..., None])))[..., 0]

        jac[~valid] = 0.0
        w = self.weight[:, None]
        return res * w, jac * w[:, :, None], valid


def _assemble(prob, res, jac, valid, hw):
    """Normal-equation blocks with landmarks kept separable, in prob's layout.

    Returns (h_pp, h_pl, h_ll diag, g_p, g_l).
    """
    np_params = prob.n_pose_params
    n_lm = prob.n_landmarks
    h_pp = np.zeros((np_params, np_params))
    h_pl = np.zeros((np_params, n_lm))
    h_ll = np.zeros(n_lm)
    g_p = np.zeros(np_params)
    g_l = np.zeros(n_lm)
    if len(res) == 0:
        return h_pp, h_pl, h_ll, g_p, g_l

    r = res * hw[:, None]
    j = jac * hw[:, None, None]
    blocks = np.einsum("kri,krj->kij", j, j)  # (K,13,13)
    grads = np.einsum("kri,kr->ki", j, r)  # (K,13)

    pieces = (blocks[:, 0:6, 0:6], blocks[:, 0:6, 6:12], blocks[:, 6:12, 0:6],
              blocks[:, 6:12, 6:12], blocks[:, 0:6, 12], blocks[:, 6:12, 12],
              grads[:, 0:6], grads[:, 6:12])
    targets = (h_pp,) * 4 + (h_pl,) * 2 + (g_p,) * 2
    for target, flat, piece in zip(targets, prob.scatter, pieces):
        target.reshape(-1)[:] += np.bincount(
            flat, weights=piece.reshape(-1), minlength=target.size
        )
    h_ll[:] = np.bincount(prob.lm_idx, weights=blocks[:, 12, 12], minlength=n_lm)
    g_l[:] = np.bincount(prob.lm_idx, weights=grads[:, 12], minlength=n_lm)
    return h_pp, h_pl, h_ll, g_p, g_l


def _add_prior(prior, poses, block_of, h, g):
    """Add a prior's Hessian, and its gradient at poses, into h and g.

    poses is as for MarginalizationPrior.delta. block_of maps a frame to
    its 6-parameter block in h and g; prior frames it lacks are left out.
    Distinct frames have distinct blocks, so each target entry receives one
    term.
    """
    grad = prior.h @ prior.delta(poses) + prior.b
    src = np.array([6 * i for i, f in enumerate(prior.frames) if f in block_of], dtype=int)
    dst = np.array([6 * block_of[f] for f in prior.frames if f in block_of], dtype=int)
    src = (src[:, None] + np.arange(6)).ravel()
    dst = (dst[:, None] + np.arange(6)).ravel()
    g[dst] += grad[src]
    h[np.ix_(dst, dst)] += prior.h[np.ix_(src, src)]


def _schur(h, b, removed):
    """Schur-complement the parameters `removed` out of the system (h, b).

    H_rr is inverted through its eigendecomposition; eigenvalues at or
    below EIG_FLOOR are dropped (pseudo-inverse). With gain = H_kr H_rr^+,
    returns (symmetrized H_kk - gain H_rk, b_k - gain b_r, number of
    eigenvalues dropped), k being the retained parameters in order.
    """
    keep = np.ones(len(b), dtype=bool)
    keep[removed] = False
    retained = np.flatnonzero(keep)
    h_rr = h[np.ix_(removed, removed)]
    h_rk = h[np.ix_(removed, retained)]
    vals, vecs = np.linalg.eigh(0.5 * (h_rr + h_rr.T))
    floored = vals > EIG_FLOOR
    inv_vals = np.where(floored, 1.0 / np.where(floored, vals, 1.0), 0.0)
    gain = h_rk.T @ ((vecs * inv_vals[None, :]) @ vecs.T)
    h_new = h[np.ix_(retained, retained)] - gain @ h_rk
    return 0.5 * (h_new + h_new.T), b[retained] - gain @ b[removed], int((~floored).sum())


def optimize_window(state: SlidingWindowState, observations, rig, max_iters=10, robust=True):
    """Trust-region damped Gauss-Newton over the window.

    Landmarks are eliminated per iteration through their diagonal block.
    The oldest pose is the gauge: its rows and columns are sliced off the
    normal equations after the prior (laid out once per call) is added.
    Inverse depths are kept positive per landmark: each update is clamped
    to at least DEPTH_STEP_FLOOR times the current value, so one landmark
    near the camera cannot veto the step of the whole window. Steps that
    raise the cost are rejected and the damping increased. robust=False
    drops the Huber loss (plain least squares), for paired robustness
    comparisons.
    The Jacobian is formed once per accepted linearization; trial steps
    evaluate residuals only, which is all their cost needs.

    Returns an info dict with the accepted-cost trace, the observation
    count and a status saying why the loop stopped:
    "converged" (the accepted step fell below BA_STEP_TOL), "max_iters" (the
    iteration budget ran out first) or "stalled" (no damped step lowered
    the cost).
    """
    prob = _Problem(state, observations, rig)
    rots, pos, lam = prob.current_values()

    delta_huber = HUBER_DELTA if robust else np.inf
    if state.prior is not None:
        # gradient at the starting poses; adding 0.0 where the prior has no
        # term leaves every sum bit for bit
        n_p = prob.n_pose_params
        prior_h, prior_g = np.zeros((n_p, n_p)), np.zeros(n_p)
        _add_prior(state.prior, dict(zip(state.frames, zip(rots, pos))), prob.frame_slot,
                   prior_h, prior_g)

    def total_cost(rots_c, pos_c, lam_c):
        res, valid = prob.residuals(rots_c, pos_c, lam_c)
        _, obs_cost = huber_weights(res[valid], delta_huber)
        prior_cost = 0.0
        if state.prior is not None:
            prior_cost = state.prior.cost(dict(zip(state.frames, zip(rots_c, pos_c))))
        return obs_cost + prior_cost

    cost = total_cost(rots, pos, lam)
    trace = [cost]
    lam_damp = 1e-4
    status = "max_iters"
    consecutive_rejects = 0

    for _ in range(max_iters):
        res, jac, valid = prob.evaluate(rots, pos, lam)
        hw, _ = huber_weights(res, delta_huber)
        hw[~valid] = 0.0
        h_pp, h_pl, h_ll, g_p, g_l = _assemble(prob, res, jac, valid, hw)
        if state.prior is not None:
            h_pp += prior_h
            g_p += prior_g
        h_pp, h_pl, g_p = h_pp[6:, 6:], h_pl[6:], g_p[6:]  # hold the oldest pose

        accepted = False
        for _ in range(8):
            d_pp = h_pp + lam_damp * np.diag(np.maximum(np.diag(h_pp), 1e-12))
            d_ll = h_ll * (1.0 + lam_damp) + 1e-12
            # Schur-complement the landmark block
            hpl_dinv = h_pl / d_ll[None, :]
            s_mat = d_pp - hpl_dinv @ h_pl.T
            rhs = -g_p + hpl_dinv @ g_l
            try:
                step_p = np.linalg.solve(s_mat, rhs)
            except np.linalg.LinAlgError:
                lam_damp *= 10.0
                continue
            step_l = -(g_l + h_pl.T @ step_p) / d_ll
            new_lam = np.maximum(lam + step_l, DEPTH_STEP_FLOOR * lam)
            new_rots = rots.copy()
            new_pos = pos.copy()
            for slot in range(1, len(state.frames)):
                dp = step_p[6 * slot - 6 : 6 * slot - 3]
                dth = step_p[6 * slot - 3 : 6 * slot]
                new_pos[slot] = pos[slot] + dp
                new_rots[slot] = rots[slot] @ so3_exp(dth)
            new_cost = total_cost(new_rots, new_pos, new_lam)
            if new_cost <= cost + 1e-15:
                accepted = True
                break
            lam_damp *= 10.0
            consecutive_rejects += 1
            if consecutive_rejects >= 5:
                break

        if not accepted:
            status = "stalled"
            break
        consecutive_rejects = 0
        step_norm = np.linalg.norm(np.concatenate([step_p, new_lam - lam]))
        rots, pos, lam = new_rots, new_pos, new_lam
        cost = new_cost
        trace.append(cost)
        lam_damp = max(lam_damp * 0.3, 1e-8)
        if step_norm < BA_STEP_TOL:
            status = "converged"
            break

    for f, slot in prob.frame_slot.items():
        state.poses[f] = Pose.from_rt(rots[slot], pos[slot])
    for key, col in zip(prob.lm_order, range(prob.n_landmarks)):
        state.landmarks[key].inv_depth = float(lam[col])
    return {"cost_trace": trace, "status": status, "n_obs": len(prob.cam)}


def marginalize_oldest(state: SlidingWindowState, observations, rig):
    """Schur-complement the oldest pose and its anchored landmarks into a
    Gaussian prior on the retained poses (first-estimate Jacobians).

    Mutates the state (drops the pose and those landmarks) and installs the
    new prior. Returns the prior.
    """
    if not state.frames:
        raise ValueError("empty window")
    f0 = state.frames[0]
    marg_keys = {
        key for key, lm in state.landmarks.items() if lm.anchor_frame == f0
    }
    factors = [
        o
        for o in observations
        if (o.camera, o.track_id) in marg_keys and o.frame in state.poses
    ]

    # evaluate those factors with every pose free (no gauge here)
    prob = _Problem(state, factors, rig)
    rots, pos, lam = prob.current_values()
    res, jac, valid = prob.evaluate(rots, pos, lam)
    hw, _ = huber_weights(res, HUBER_DELTA)
    hw[~valid] = 0.0
    h_pp, h_pl, h_ll, g_p, g_l = _assemble(prob, res, jac, valid, hw)

    n_poses = len(state.frames)
    n_lm = prob.n_landmarks
    dim = 6 * n_poses + n_lm
    h = np.zeros((dim, dim))
    b = np.zeros(dim)
    h[: 6 * n_poses, : 6 * n_poses] = h_pp
    h[: 6 * n_poses, 6 * n_poses :] = h_pl
    h[6 * n_poses :, : 6 * n_poses] = h_pl.T
    h[6 * n_poses :, 6 * n_poses :] = np.diag(h_ll)
    b[: 6 * n_poses] = g_p
    b[6 * n_poses :] = g_l

    # fold in the previous prior about the current estimates
    if state.prior is not None:
        _add_prior(state.prior, dict(zip(state.frames, zip(rots, pos))), prob.frame_slot, h, b)

    removed = np.r_[0:6, 6 * n_poses : dim]
    h_new, b_new, n_dropped = _schur(h, b, removed)

    retained_frames = state.frames[1:]
    prior = MarginalizationPrior(
        frames=list(retained_frames),
        lin_rot={f: state.poses[f].rotation.copy() for f in retained_frames},
        lin_pos={f: state.poses[f].t.copy() for f in retained_frames},
        h=h_new,
        b=b_new,
        dropped_eigenvalues=n_dropped,
    )

    for key in marg_keys:
        del state.landmarks[key]
    state.remove_frame(f0)
    state.prior = prior
    return prior


def discard_second_newest(state: SlidingWindowState, observations, rig):
    """Drop the second-newest pose; its observations never enter the prior.

    Landmarks anchored there are re-anchored to their next observation. If
    an existing prior covers the dropped pose, that block is marginalized
    out of the prior itself (the pose carried no new observation info).
    """
    if len(state.frames) < 2:
        raise ValueError("need at least two frames")
    f_drop = state.frames[-2]

    obs_by_lm = {}
    for o in observations:
        obs_by_lm.setdefault((o.camera, o.track_id), []).append(o)

    dropped = []
    for key, lm in list(state.landmarks.items()):
        if lm.anchor_frame != f_drop:
            continue
        ext = rig.extrinsic(lm.camera).cam_in_body
        future = sorted(
            (o for o in obs_by_lm.get(key, []) if o.frame > f_drop and o.frame in state.poses),
            key=lambda o: o.frame,
        )
        re_anchored = False
        for nxt in future:
            old_cam_pose = state.poses[f_drop].compose(ext)
            point_w = old_cam_pose.apply(lm.anchor_ray / lm.inv_depth)
            new_cam_pose = state.poses[nxt.frame].compose(ext)
            p_cam = new_cam_pose.rotation.T @ (point_w - new_cam_pose.t)
            rng = np.linalg.norm(p_cam)
            if rng < 1e-9 or p_cam[2] <= Z_GATE:
                continue
            lm.anchor_ray = _coords_to_ray(nxt.coords)
            lm.anchor_frame = nxt.frame
            lm.inv_depth = 1.0 / rng
            re_anchored = True
            break
        if not re_anchored:
            dropped.append(key)
    for key in dropped:
        del state.landmarks[key]

    if state.prior is not None and f_drop in state.prior.frames:
        state.prior = _prior_without_frame(state.prior, f_drop)
    state.remove_frame(f_drop)


def _prior_without_frame(prior: MarginalizationPrior, frame):
    """Schur-complement one pose block out of a prior."""
    idx = prior.frames.index(frame)
    h_new, b_new, n_dropped = _schur(prior.h, prior.b, np.arange(6 * idx, 6 * idx + 6))
    frames = [f for f in prior.frames if f != frame]
    return MarginalizationPrior(
        frames=frames,
        lin_rot={f: prior.lin_rot[f] for f in frames},
        lin_pos={f: prior.lin_pos[f] for f in frames},
        h=h_new,
        b=b_new,
        dropped_eigenvalues=n_dropped,
    )


def keyframe_decision(window_parallax_px, tracked_ratio):
    """Windowing policy: absorb the oldest frame or drop the second newest."""
    if window_parallax_px > KEYFRAME_PARALLAX_PX or tracked_ratio < KEYFRAME_TRACKED_RATIO:
        return "marginalize_oldest"
    return "discard_second_newest"


def prune_landmarks(state: SlidingWindowState, observations):
    """Drop landmarks with fewer than MIN_LANDMARK_OBS in-window observations."""
    counts = {}
    for o in observations:
        if o.frame in state.poses:
            counts[(o.camera, o.track_id)] = counts.get((o.camera, o.track_id), 0) + 1
    for key in list(state.landmarks):
        if counts.get(key, 0) < MIN_LANDMARK_OBS:
            del state.landmarks[key]


def correct_scale(state: SlidingWindowState, observations, rig):
    """Per-camera online scale correction: Gauss-Newton steps in log scale
    on the window's own robust BA cost.

    Body poses are held fixed. Camera c gets one scalar phi_c = log s_c, and
    the inverse depths of its landmarks with a usable observation become
    lambda * exp(-phi_c), a move that stays inside BA's own parameters.
    Each pass evaluates the window once and takes the Huber weights hw
    exactly as optimize_window does. With j = -lambda * hw * dr/dlambda per
    residual row, camera c's information is sum |j|^2, its gradient
    sum j^T (hw r), and its step phi_c -= gradient / information.

    On the first pass a camera is corrected only if |gradient| exceeds
    SCALE_EVIDENCE_K times a landmark-clustered spread: the root of the sum,
    over the camera's landmarks, of each landmark's squared gradient sum.
    A landmark's residuals share its noisy anchor ray, so 1/sqrt(information)
    would be over-confident; and since |sum of n terms| <= sqrt(n) times the
    root of their squares, a camera needs more than SCALE_EVIDENCE_K^2
    landmarks to be corrected at all. Where the gate holds the camera's
    inverse depths stay exactly as they are. A corrected camera repeats its
    step until it falls below SCALE_FIXED_POINT_TOL or SCALE_MAX_PASSES is
    reached.

    Returns {camera: s_c = exp(phi_c)}, 1.0 where the gate held; a camera
    without a valid residual in the window is absent, and a window of fewer
    than three frames gives {}.
    """
    if len(state.frames) < 3:
        return {}
    prob = _Problem(state, observations, rig)
    rots, pos, lam = prob.current_values()
    cam_of_lm = np.array([c for c, _ in prob.lm_order], dtype=int)
    n_cams = rig.n_cameras
    log_s = np.zeros(n_cams)
    for n_pass in range(SCALE_MAX_PASSES):
        lam_s = lam * np.exp(-log_s[cam_of_lm])
        res, jac, valid = prob.evaluate(rots, pos, lam_s)
        hw, _ = huber_weights(res, HUBER_DELTA)
        hw[~valid] = 0.0
        j = -(lam_s[prob.lm_idx] * hw)[:, None] * jac[:, :, 12]
        g_lm = np.bincount(prob.lm_idx, weights=np.vecdot(j, res * hw[:, None]),
                           minlength=prob.n_landmarks)
        grad = np.bincount(cam_of_lm, weights=g_lm, minlength=n_cams)
        info = np.bincount(prob.cam, weights=np.vecdot(j, j), minlength=n_cams)
        if n_pass == 0:
            observed = info > 0
            spread = np.sqrt(np.bincount(cam_of_lm, weights=g_lm**2, minlength=n_cams))
            active = observed & (np.abs(grad) > SCALE_EVIDENCE_K * spread)
        step = np.where(active, -grad / np.where(active, info, 1.0), 0.0)
        log_s += step
        active &= np.abs(step) >= SCALE_FIXED_POINT_TOL
        if not active.any():
            break

    lam_s = lam * np.exp(-log_s[cam_of_lm])  # exactly lam where log_s is 0
    for key, inv_depth in zip(prob.lm_order, lam_s.tolist()):
        state.landmarks[key].inv_depth = inv_depth
    return {int(c): float(np.exp(log_s[c])) for c in np.flatnonzero(observed)}


def _coords_to_ray(coords):
    """Unit rays (..., 3) through normalized coordinates (..., 2); sqrt(vecdot)
    matches a per-row np.linalg.norm bit for bit, norm(axis=-1) does not."""
    ray = np.concatenate([coords, np.ones(np.shape(coords)[:-1] + (1,))], axis=-1)
    return ray / np.sqrt(np.vecdot(ray, ray))[..., None]
