import copy
import math

import numpy as np
import pytest

from rigvo import backend
from rigvo.backend import (
    Landmark,
    MarginalizationPrior,
    ReprojObservation,
    SlidingWindowState,
    correct_scale,
    discard_second_newest,
    keyframe_decision,
    marginalize_oldest,
    optimize_window,
    prune_landmarks,
)
from rigvo.geometry import Pose, skew, so3_exp
from rigvo.simulator import (
    NoiseSpec,
    TrajectorySpec,
    generate_trajectory,
    render_observations,
    sample_landmarks,
)

from conftest import attach_cloud, build_gt_window, make_test_rig, rotation_angle


def make_sim(noise=None, n_frames=60, n_landmarks=700, seed=60, speed=3.0):
    rig = make_test_rig(4)
    traj = generate_trajectory(TrajectorySpec("circle", n_frames, speed=speed, seed=seed))
    cloud = sample_landmarks(n_landmarks, traj, (3.0, 25.0), seed=seed)
    sim = render_observations(rig, traj, cloud, noise or NoiseSpec())
    attach_cloud(sim, cloud)
    return rig, traj, cloud, sim


def perturb_state(state, rng, rot_mag=0.05, trans_mag=0.1, skip_oldest=True):
    frames = state.frames[1:] if skip_oldest else state.frames
    for f in frames:
        p = state.poses[f]
        dth = rng.normal(size=3)
        dth = dth / np.linalg.norm(dth) * rot_mag
        state.poses[f] = Pose.from_rt(
            p.rotation @ so3_exp(dth), p.t + rng.normal(scale=trans_mag, size=3)
        )


def unwhitened(prob, rots, pos, lam):
    """_Problem.evaluate's residuals and Jacobian without the whitening."""
    res, jac, valid = prob.evaluate(rots, pos, lam)
    return res / prob.weight[:, None], jac / prob.weight[:, None, None], valid


class TestReprojectionResidual:
    """_Problem's residual kernel, one observation or a window at a time."""

    def test_anchor_frame_zero(self):
        # an observation at its landmark's anchor frame is identically zero
        # for any depth, so the problem leaves it out
        rig, traj, cloud, sim = make_sim()
        state, observations = build_gt_window(rig, traj, sim, range(11))
        key = next(iter(state.landmarks))
        lm = state.landmarks[key]
        obs = ReprojObservation(key[0], key[1], lm.anchor_frame, np.zeros(2), 0.01)
        for scale in (1.0, 5.0):
            lm.inv_depth *= scale
            prob = backend._Problem(state, [obs], rig)
            assert len(prob.cam) == 0
            res, jac, valid = prob.evaluate(*prob.current_values())
            assert res.shape == (0, 2) and jac.shape == (0, 2, 13) and not valid.any()

    def test_ground_truth_residuals_tiny(self):
        rig, traj, cloud, sim = make_sim()
        state, observations = build_gt_window(rig, traj, sim, range(11))
        prob = backend._Problem(state, observations[:400], rig)
        res, _, valid = unwhitened(prob, *prob.current_values())
        assert valid.all()
        assert np.linalg.norm(res, axis=1).max() < 1e-10
        assert len(res) > 100

    def test_behind_camera_gated(self):
        rig, traj, cloud, sim = make_sim()
        state, observations = build_gt_window(rig, traj, sim, range(11))
        key = next(iter(state.landmarks))
        lm = state.landmarks[key]
        target = None
        for obs in observations:
            if (obs.camera, obs.track_id) == key and obs.frame != lm.anchor_frame:
                target = obs
                break
        lm.inv_depth = -abs(lm.inv_depth)  # flips the point behind
        prob = backend._Problem(state, [target], rig)
        res, jac, valid = prob.evaluate(*prob.current_values())
        assert valid.tolist() == [False]
        np.testing.assert_array_equal(res, 0.0)
        np.testing.assert_array_equal(jac, 0.0)

    def test_jacobians_match_finite_differences(self):
        # 1000 random configurations, central differences, 1e-5 relative
        rng = np.random.default_rng(61)
        rig = make_test_rig(4)
        eps = 1e-6
        worst = 0.0
        for trial in range(1000):
            cam = int(rng.integers(0, 4))
            ext = rig.extrinsic(cam).cam_in_body
            state = SlidingWindowState()
            pose_a = Pose.from_rt(
                so3_exp(rng.normal(scale=0.5, size=3)), rng.normal(scale=2.0, size=3)
            )
            pose_b = Pose.from_rt(
                so3_exp(rng.normal(scale=0.5, size=3)), rng.normal(scale=2.0, size=3)
            )
            state.add_frame(0, pose_a)
            state.add_frame(1, pose_b)
            ray = rng.normal(size=3)
            ray[2] = abs(ray[2]) + 1.0
            ray /= np.linalg.norm(ray)
            lam = float(rng.uniform(0.05, 0.5))
            state.landmarks[(cam, 0)] = Landmark(cam, 0, 0, ray, lam)

            # observation coords: project the point into frame 1 and offset
            point_w = pose_a.compose(ext).apply(ray / lam)
            cam_b = pose_b.compose(ext)
            p_c = cam_b.rotation.T @ (point_w - cam_b.t)
            if p_c[2] < 0.1:
                continue
            coords = p_c[:2] / p_c[2] + rng.normal(scale=0.01, size=2)
            # sigma 1: whitening multiplies by 1.0, so these are the raw values
            prob = backend._Problem(state, [ReprojObservation(cam, 0, 1, coords, 1.0)], rig)
            _, jac, valid = prob.evaluate(*prob.current_values())
            if not valid[0]:
                continue
            j_a, j_b, j_l = jac[0, :, 0:6], jac[0, :, 6:12], jac[0, :, 12:13]

            def residual_at(dpa, dta, dpb, dtb, dlam):
                rots = np.stack([pose_a.rotation @ so3_exp(dta), pose_b.rotation @ so3_exp(dtb)])
                pos = np.stack([pose_a.t + dpa, pose_b.t + dpb])
                res, _ = prob.residuals(rots, pos, np.array([lam + dlam]))
                return res[0]

            def central_diff(arg, step):
                # perturb one argument of residual_at; the rest stay zero
                plus, minus = list(ZERO_ARGS), list(ZERO_ARGS)
                plus[arg], minus[arg] = step, -step
                return (residual_at(*plus) - residual_at(*minus)) / (2 * eps)

            fd_a = np.zeros((2, 6))
            fd_b = np.zeros((2, 6))
            for k in range(3):
                dp = np.zeros(3)
                dp[k] = eps
                fd_a[:, k] = central_diff(0, dp)
                fd_a[:, 3 + k] = central_diff(1, dp)
                fd_b[:, k] = central_diff(2, dp)
                fd_b[:, 3 + k] = central_diff(3, dp)
            fd_l = central_diff(4, eps)

            scale = max(
                np.abs(fd_a).max(), np.abs(fd_b).max(), np.abs(fd_l).max(), 1.0
            )
            err = max(
                np.abs(j_a - fd_a).max(), np.abs(j_b - fd_b).max(),
                np.abs(j_l[:, 0] - fd_l).max(),
            ) / scale
            worst = max(worst, err)
        assert worst < 1e-5


ZERO_ARGS = (np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(3), 0.0)


def jacobian_reference(prob, rots, pos, lam):
    """The unwhitened (K,2,13) Jacobian as einsum chains, term by term."""
    rays = prob.anchor_rays[prob.lm_idx]
    lam_k = lam[prob.lm_idx]
    r_e = prob.ext_rot[prob.cam]
    t_e = prob.ext_t[prob.cam]
    r_a = rots[prob.a_slot]
    r_b = rots[prob.b_slot]
    p_ab = np.einsum("kij,kj->ki", r_e, rays / lam_k[:, None]) + t_e
    p_w = np.einsum("kij,kj->ki", r_a, p_ab) + pos[prob.a_slot]
    p_bb = np.einsum("kji,kj->ki", r_b, p_w - pos[prob.b_slot])
    p_c = np.einsum("kji,kj->ki", r_e, p_bb - t_e)
    valid = p_c[:, 2] > backend.Z_GATE
    inv_z = 1.0 / np.where(valid, p_c[:, 2], 1.0)
    dproj = np.zeros((len(rays), 2, 3))
    dproj[:, 0, 0] = inv_z
    dproj[:, 1, 1] = inv_z
    dproj[:, 0, 2] = -p_c[:, 0] * inv_z**2
    dproj[:, 1, 2] = -p_c[:, 1] * inv_z**2
    m = np.einsum("kij,kjl->kil", r_b, r_e).transpose(0, 2, 1)
    d_pw = np.einsum("kij,kjl->kil", dproj, m)
    jac = np.zeros((len(rays), 2, 13))
    jac[:, :, 0:3] = d_pw
    jac[:, :, 3:6] = -np.einsum("kij,kjl,klm->kim", d_pw, r_a, skew(p_ab))
    jac[:, :, 6:9] = -d_pw
    jac[:, :, 9:12] = np.einsum(
        "kij,kjl,klm->kim", dproj, r_e.transpose(0, 2, 1), skew(p_bb)
    )
    r_total = np.einsum("kij,kjl->kil", m, np.einsum("kij,kjl->kil", r_a, r_e))
    d_ray = -rays / (lam_k**2)[:, None]
    jac[:, :, 12] = np.einsum("kij,kjl,kl->ki", dproj, r_total, d_ray)
    jac[~valid] = 0.0
    return jac


def gated_window_problem():
    """A perturbed 4-camera window with every 7th landmark behind its
    anchor camera, so some observations are gated out."""
    rig, traj, cloud, sim = make_sim(NoiseSpec(pixel_sigma=0.5, seed=72))
    state, observations = build_gt_window(rig, traj, sim, range(11))
    perturb_state(state, np.random.default_rng(72), rot_mag=0.02, trans_mag=0.05)
    for lm in list(state.landmarks.values())[::7]:
        lm.inv_depth = -lm.inv_depth
    prob = backend._Problem(state, observations, rig)
    return prob, prob.current_values()


def problem_index_reference(state, observations):
    """_Problem's per-observation arrays, filled one observation at a time."""
    frame_slot = {f: i for i, f in enumerate(state.frames)}
    usable, lm_keys = [], []
    for o in observations:
        key = (o.camera, o.track_id)
        lm = state.landmarks.get(key)
        if lm is None or o.frame not in frame_slot:
            continue
        if lm.anchor_frame not in frame_slot:
            continue
        if o.frame == lm.anchor_frame:
            continue
        usable.append(o)
        lm_keys.append(key)
    lm_order = sorted(set(lm_keys))
    lm_col = {k: i for i, k in enumerate(lm_order)}
    k = len(usable)
    out = {name: np.zeros(k, dtype=int) for name in ("a_slot", "b_slot", "cam", "lm_idx")}
    out["coords"], out["weight"] = np.zeros((k, 2)), np.zeros(k)
    for i, o in enumerate(usable):
        lm = state.landmarks[(o.camera, o.track_id)]
        out["a_slot"][i] = frame_slot[lm.anchor_frame]
        out["b_slot"][i] = frame_slot[o.frame]
        out["cam"][i] = o.camera
        out["lm_idx"][i] = lm_col[(o.camera, o.track_id)]
        out["coords"][i] = o.coords
        out["weight"][i] = 1.0 / o.sigma
    out["anchor_rays"] = (
        np.stack([state.landmarks[key].anchor_ray for key in lm_order])
        if lm_order else np.zeros((0, 3))
    )
    return lm_order, out


def test_problem_index_matches_per_observation_loop():
    # every skip rule of the index: unknown landmarks, frames and anchors
    # outside the window, anchor self-observations; shuffled input order
    rng = np.random.default_rng(74)
    rig, traj, cloud, sim = make_sim(NoiseSpec(pixel_sigma=0.5, seed=74))
    state, observations = build_gt_window(rig, traj, sim, range(5, 16))
    _, outside = build_gt_window(rig, traj, sim, range(20, 31))
    observations = observations + outside[::5]
    keys = list(state.landmarks)
    for key in keys[::11]:
        del state.landmarks[key]
    for key in keys[3::13]:
        if key in state.landmarks:
            state.landmarks[key].anchor_frame = 40
    observations = [observations[i] for i in rng.permutation(len(observations))]
    for obs in (observations, observations[:1], []):
        prob = backend._Problem(state, obs, rig)
        lm_order, ref = problem_index_reference(state, obs)
        assert prob.lm_order == lm_order
        for name, expected in ref.items():
            got = getattr(prob, name)
            assert (got.dtype, got.shape) == (expected.dtype, expected.shape), name
            assert got.tobytes() == expected.tobytes(), name
    assert 0 < len(backend._Problem(state, observations, rig).cam) < len(observations)


class TestSplitKernel:
    def test_residuals_match_evaluate_bitwise(self):
        prob, (rots, pos, lam) = gated_window_problem()
        res, _, valid = prob.evaluate(rots, pos, lam)
        res_only, valid_only = prob.residuals(rots, pos, lam)
        assert 0 < valid.sum() < len(valid)
        np.testing.assert_array_equal(valid_only, valid)
        np.testing.assert_array_equal(res_only, res)

    def test_jacobian_matches_einsum_reference(self):
        prob, (rots, pos, lam) = gated_window_problem()
        _, jac, valid = unwhitened(prob, rots, pos, lam)
        assert 0 < valid.sum() < len(valid)
        np.testing.assert_allclose(
            jac, jacobian_reference(prob, rots, pos, lam), rtol=1e-12, atol=1e-12
        )


class TestOptimizeWindow:
    def test_ground_truth_already_optimal(self):
        rig, traj, cloud, sim = make_sim()
        state, observations = build_gt_window(rig, traj, sim, range(11))
        info = optimize_window(state, observations, rig)
        assert info["cost_trace"][0] < 1e-18
        assert len(info["cost_trace"]) <= 2

    def test_recovers_from_perturbation(self):
        rig, traj, cloud, sim = make_sim()
        state, observations = build_gt_window(rig, traj, sim, range(11))
        rng = np.random.default_rng(62)
        perturb_state(state, rng, rot_mag=0.05, trans_mag=0.1)
        info = optimize_window(state, observations, rig, max_iters=25)
        for f in state.frames:
            assert np.linalg.norm(state.poses[f].t - traj[f].t) < 1e-6
            assert rotation_angle(state.poses[f].rotation.T @ traj[f].rotation) < 1e-6

    def test_cost_monotone_over_accepted_steps(self):
        rng = np.random.default_rng(63)
        rig, traj, cloud, sim = make_sim(NoiseSpec(pixel_sigma=0.7, seed=63))
        state, observations = build_gt_window(rig, traj, sim, range(11))
        perturb_state(state, rng, rot_mag=0.03, trans_mag=0.08)
        info = optimize_window(state, observations, rig, max_iters=15)
        trace = info["cost_trace"]
        assert all(trace[i + 1] <= trace[i] + 1e-12 for i in range(len(trace) - 1))

    def test_inverse_depths_stay_positive(self):
        rng = np.random.default_rng(64)
        rig, traj, cloud, sim = make_sim(NoiseSpec(pixel_sigma=0.7, seed=64))
        state, observations = build_gt_window(rig, traj, sim, range(11))
        perturb_state(state, rng)
        optimize_window(state, observations, rig, max_iters=15)
        for lm in state.landmarks.values():
            assert lm.inv_depth > 0

    def test_jacobian_once_per_outer_iteration(self, monkeypatch):
        # trial steps read residuals only; the Jacobian is built once at
        # each accepted linearization point, the start included
        calls = {"evaluate": 0, "residuals": 0}
        evaluate, residuals = backend._Problem.evaluate, backend._Problem.residuals

        def counted_evaluate(self, *args):
            calls["evaluate"] += 1
            return evaluate(self, *args)

        def counted_residuals(self, *args):
            calls["residuals"] += 1
            return residuals(self, *args)

        monkeypatch.setattr(backend._Problem, "evaluate", counted_evaluate)
        monkeypatch.setattr(backend._Problem, "residuals", counted_residuals)
        rig, traj, cloud, sim = make_sim(NoiseSpec(pixel_sigma=0.7, seed=63))
        state, observations = build_gt_window(rig, traj, sim, range(11))
        perturb_state(state, np.random.default_rng(63), rot_mag=0.03, trans_mag=0.08)
        info = optimize_window(state, observations, rig, max_iters=15)
        accepted = len(info["cost_trace"]) - 1
        outer = accepted + int(info["status"] == "stalled")
        assert accepted >= 2
        assert calls["evaluate"] == outer
        # the starting cost plus at least one trial step per outer iteration
        assert calls["residuals"] >= 1 + outer

    def test_prior_terms_laid_out_once_per_call(self, monkeypatch):
        # the prior's Hessian and gradient are the same at every outer
        # iteration, so optimize_window lays them out once
        rig, traj, cloud, sim = make_sim(NoiseSpec(pixel_sigma=0.7, seed=63))
        state, observations = build_gt_window(rig, traj, sim, range(12))
        marginalize_oldest(state, observations, rig)
        observations = [o for o in observations if o.frame in state.poses]
        perturb_state(state, np.random.default_rng(63), rot_mag=0.03, trans_mag=0.08)
        calls = []
        add_prior = backend._add_prior

        def counted(*args):
            calls.append(1)
            return add_prior(*args)

        monkeypatch.setattr(backend, "_add_prior", counted)
        info = optimize_window(state, observations, rig, max_iters=15)
        outer = len(info["cost_trace"]) - 1 + int(info["status"] == "stalled")
        assert outer >= 2
        assert len(calls) == 1

    def test_gauge_fixed_oldest(self):
        rig, traj, cloud, sim = make_sim()
        state, observations = build_gt_window(rig, traj, sim, range(11))
        rng = np.random.default_rng(65)
        perturb_state(state, rng)
        f0 = state.frames[0]
        rot0, t0 = state.poses[f0].rotation.copy(), state.poses[f0].t.copy()
        optimize_window(state, observations, rig, max_iters=10)
        np.testing.assert_array_equal(state.poses[f0].rotation, rot0)
        np.testing.assert_array_equal(state.poses[f0].t, t0)

    def test_huber_contains_outliers(self, monkeypatch):
        rig, traj, cloud, sim = make_sim(NoiseSpec(pixel_sigma=0.5, seed=66))
        state_clean, observations = build_gt_window(rig, traj, sim, range(11))

        rng = np.random.default_rng(66)
        corrupted = []
        n_out = 0
        for obs in observations:
            o = ReprojObservation(obs.camera, obs.track_id, obs.frame,
                                  obs.coords.copy(), obs.sigma)
            if rng.random() < 0.2:
                o.coords = o.coords + rng.choice([-1, 1], size=2) * 50.0 / 320.0
                n_out += 1
            corrupted.append(o)
        assert n_out > 50

        def run(obs_list):
            st, _ = build_gt_window(rig, traj, sim, range(11))
            perturb_state(st, np.random.default_rng(67), rot_mag=0.02, trans_mag=0.05)
            optimize_window(st, obs_list, rig, max_iters=20)
            return max(np.linalg.norm(st.poses[f].t - traj[f].t) for f in st.frames)

        err_clean = run(observations)
        err_huber = run(corrupted)
        monkeypatch.setattr(backend, "HUBER_DELTA", math.inf)  # plain least squares
        err_plain = run(corrupted)
        assert err_huber <= 2.0 * max(err_clean, 0.01)
        assert err_plain > 10.0 * max(err_clean, 1e-9) or err_plain > err_huber * 3


class TestMarginalization:
    def test_disconnected_prior_zero(self):
        rig = make_test_rig(4)
        state = SlidingWindowState()
        rng = np.random.default_rng(68)
        for f in range(3):
            state.add_frame(f, Pose(t=rng.normal(size=3)))
        # single landmark seen only at the oldest frame
        ray = np.array([0.1, 0.0, 1.0])
        ray /= np.linalg.norm(ray)
        state.landmarks[(0, 0)] = Landmark(0, 0, 0, ray, 0.2)
        prior = marginalize_oldest(state, [], rig)
        np.testing.assert_allclose(prior.h, 0.0, atol=1e-15)
        np.testing.assert_allclose(prior.b, 0.0, atol=1e-15)
        assert (0, 0) not in state.landmarks
        assert state.frames == [1, 2]

    def test_prior_symmetric_psd(self):
        rig, traj, cloud, sim = make_sim(NoiseSpec(pixel_sigma=0.5, seed=69))
        state, observations = build_gt_window(rig, traj, sim, range(11))
        prior = marginalize_oldest(state, observations, rig)
        assert 6 * len(prior.frames) == prior.h.shape[0] == 6 * 10
        np.testing.assert_allclose(prior.h, prior.h.T, atol=1e-12)
        # PSD to working precision: eigvalsh cannot resolve eigenvalues
        # (the 6-DoF gauge null space included) finer than n * eps * max
        vals = np.linalg.eigvalsh(prior.h)
        assert vals.min() >= -prior.h.shape[0] * np.finfo(float).eps * vals.max()

    def test_dropped_eigenvalues_counted(self):
        rig = make_test_rig(4)

        def window(seen_in_frame_1):
            # three frames, one landmark anchored at the oldest frame
            state = SlidingWindowState()
            rng = np.random.default_rng(68)
            for f in range(3):
                state.add_frame(f, Pose(t=rng.normal(size=3)))
            ray = np.array([0.1, 0.0, 1.0]) / np.linalg.norm([0.1, 0.0, 1.0])
            state.landmarks[(0, 0)] = Landmark(0, 0, 0, ray, 0.2)
            ext = rig.extrinsic(0).cam_in_body
            point = state.poses[0].compose(ext).apply(ray / 0.2)
            cam1 = state.poses[1].compose(ext)
            p_cam = cam1.rotation.T @ (point - cam1.t)
            obs = [ReprojObservation(0, 0, 1, p_cam[:2] / p_cam[2], 0.01)]
            return state, obs if seen_in_frame_1 else []

        # unobserved: no factor at all, so the whole oldest pose block drops
        state, obs = window(False)
        assert marginalize_oldest(state, obs, rig).dropped_eigenvalues == 6
        # a prior of zeros loses a whole pose block again in _prior_without_frame
        discard_second_newest(state, obs, rig)
        assert state.prior.frames == [2]
        assert state.prior.dropped_eigenvalues == 6
        # one 2-D observation gives the 7 removed parameters rank 2
        state, obs = window(True)
        assert marginalize_oldest(state, obs, rig).dropped_eigenvalues == 5
        rig4, traj, cloud, sim = make_sim(NoiseSpec(pixel_sigma=0.5, seed=69))
        state, observations = build_gt_window(rig4, traj, sim, range(11))
        assert marginalize_oldest(state, observations, rig4).dropped_eigenvalues == 0

    def test_marginalization_matches_full_batch(self):
        # 12 noiseless frames: optimize full batch; separately marginalize
        # the oldest and optimize the shrunk window with the prior; retained
        # poses must agree within 1e-4 m.
        rig, traj, cloud, sim = make_sim(n_frames=60, seed=70)
        frames = list(range(12))
        rng_seed = 71

        full, obs_full = build_gt_window(rig, traj, sim, frames)
        perturb_state(full, np.random.default_rng(rng_seed), rot_mag=0.01, trans_mag=0.02)
        optimize_window(full, obs_full, rig, max_iters=30)

        marg, obs_all = build_gt_window(rig, traj, sim, frames)
        perturb_state(marg, np.random.default_rng(rng_seed), rot_mag=0.01, trans_mag=0.02)
        # solve the window once before marginalizing (linearization point)
        optimize_window(marg, obs_all, rig, max_iters=30)
        marginalize_oldest(marg, obs_all, rig)
        obs_rest = [o for o in obs_all if o.frame in marg.poses]
        optimize_window(marg, obs_rest, rig, max_iters=30)

        for f in marg.frames:
            assert np.linalg.norm(marg.poses[f].t - full.poses[f].t) < 1e-4

    def test_discard_second_newest_reanchors(self):
        rig, traj, cloud, sim = make_sim()
        state, observations = build_gt_window(rig, traj, sim, range(11))
        f_drop = state.frames[-2]
        anchored_there = [
            k for k, lm in state.landmarks.items() if lm.anchor_frame == f_drop
        ]
        n_before = len(state.landmarks)
        discard_second_newest(state, observations, rig)
        assert f_drop not in state.poses
        for key in anchored_there:
            if key in state.landmarks:
                lm = state.landmarks[key]
                assert lm.anchor_frame != f_drop
                assert lm.inv_depth > 0


def test_schur_removes_blocks_in_any_grouping():
    # eliminating two 6-blocks one after the other equals eliminating both
    # at once (quotient property of the Schur complement)
    rng = np.random.default_rng(72)
    m = rng.normal(size=(24, 24))
    h = m @ m.T + 24.0 * np.eye(24)
    b = rng.normal(size=24)
    first, second = np.arange(6, 12), np.arange(12, 18)
    h_both, b_both, dropped = backend._schur(h, b, np.r_[first, second])
    h_one, b_one, _ = backend._schur(h, b, first)
    h_two, b_two, _ = backend._schur(h_one, b_one, second - 6)
    assert dropped == 0
    np.testing.assert_allclose(h_two, h_both, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(b_two, b_both, rtol=1e-12, atol=1e-12)


class TestKeyframeDecision:
    def test_static(self):
        assert keyframe_decision(0.5, 0.9) == "discard_second_newest"

    def test_fast_motion(self):
        assert keyframe_decision(20.0, 0.9) == "marginalize_oldest"

    def test_track_loss(self):
        assert keyframe_decision(2.0, 0.3) == "marginalize_oldest"

    def test_deterministic(self):
        for _ in range(3):
            assert keyframe_decision(11.0, 0.6) == "marginalize_oldest"


class TestCorrectScale:
    def test_consistent_state_fixed_point(self):
        rig, traj, cloud, sim = make_sim()
        state, observations = build_gt_window(rig, traj, sim, range(11))
        before = {k: lm.inv_depth for k, lm in state.landmarks.items()}
        applied = correct_scale(state, observations, rig)
        assert applied
        for c, s in applied.items():
            assert abs(s - 1.0) < 1e-6
        for k, lm in state.landmarks.items():
            assert abs(lm.inv_depth - before[k]) / before[k] < 1e-6

    def test_injected_bias_recovered(self):
        rig, traj, cloud, sim = make_sim()
        state, observations = build_gt_window(rig, traj, sim, range(11))
        target_cam = 2
        true_depths = {
            k: 1.0 / lm.inv_depth
            for k, lm in state.landmarks.items()
            if lm.camera == target_cam
        }
        for k, lm in state.landmarks.items():
            if lm.camera == target_cam:
                lm.inv_depth *= 1.1  # bias the inverse depths 10% up
        applied = correct_scale(state, observations, rig)
        assert target_cam in applied
        assert abs(applied[target_cam] - 1.1) < 0.02
        for k, lm in state.landmarks.items():
            if lm.camera == target_cam:
                restored = 1.0 / lm.inv_depth
                assert abs(restored - true_depths[k]) / true_depths[k] < 0.01

    def test_correction_plus_optimize_reduces_scale_error(self):
        rig, traj, cloud, sim = make_sim(NoiseSpec(pixel_sigma=0.3, seed=72))
        state, observations = build_gt_window(rig, traj, sim, range(11))
        true_inv = {k: lm.inv_depth for k, lm in state.landmarks.items() if lm.camera == 1}
        for k, lm in state.landmarks.items():
            if lm.camera == 1:
                lm.inv_depth *= 1.1

        def scale_error(st):
            # similarity scale of estimated vs true window translations
            est = np.array([st.poses[f].t for f in st.frames])
            gt = np.array([traj[f].t for f in st.frames])
            est = est - est.mean(axis=0)
            gt = gt - gt.mean(axis=0)
            s = float(np.sum(est * gt) / np.sum(est * est))
            return abs(s - 1.0)

        def depth_scale_error(st):
            # median |estimated / true depth - 1| over camera 1's landmarks
            ratios = [true_inv[k] / st.landmarks[k].inv_depth for k in true_inv]
            return float(np.median(np.abs(np.array(ratios) - 1.0)))

        assert depth_scale_error(state) > 0.09
        corrected = copy.deepcopy(state)
        correct_scale(corrected, observations, rig)
        assert depth_scale_error(corrected) < 0.01

        # Poses start at ground truth and correct_scale leaves them alone, so
        # inside one window BA removes the depth bias from either start and
        # both runs reach the same minimum. A strict gain from correction
        # needs evidence already marginalized out of the window.
        biased = copy.deepcopy(state)
        info_biased = optimize_window(biased, observations, rig, max_iters=30)
        info_corr = optimize_window(corrected, observations, rig, max_iters=30)
        cost_biased = info_biased["cost_trace"][-1]
        cost_corr = info_corr["cost_trace"][-1]
        assert abs(cost_corr - cost_biased) <= 1e-6 * cost_biased
        assert abs(scale_error(corrected) - scale_error(biased)) < 1e-5

    def test_unbiased_noisy_window_left_alone(self, monkeypatch):
        # at 0.5 px no camera's log-scale gradient stands out of its
        # landmark-clustered spread, so the gate stops after one evaluation
        # and touches no depth
        calls = []
        evaluate = backend._Problem.evaluate

        def counted(self, *args):
            calls.append(1)
            return evaluate(self, *args)

        monkeypatch.setattr(backend._Problem, "evaluate", counted)
        for seed in range(4):
            rig, traj, cloud, sim = make_sim(NoiseSpec(pixel_sigma=0.5, seed=seed))
            state, observations = build_gt_window(rig, traj, sim, range(11))
            before = {k: lm.inv_depth for k, lm in state.landmarks.items()}
            calls.clear()
            applied = correct_scale(state, observations, rig)
            assert len(calls) == 1, seed
            assert applied == {c: 1.0 for c in range(rig.n_cameras)}, seed
            assert {k: lm.inv_depth for k, lm in state.landmarks.items()} == before, seed

    def test_never_raises_huber_cost(self):
        rig, traj, cloud, sim = make_sim(NoiseSpec(pixel_sigma=0.3, seed=72))
        state, observations = build_gt_window(rig, traj, sim, range(11))
        for lm in state.landmarks.values():
            if lm.camera == 1:
                lm.inv_depth *= 1.1

        def huber_cost(st):
            prob = backend._Problem(st, observations, rig)
            res, valid = prob.residuals(*prob.current_values())
            return backend.huber_weights(res[valid], backend.HUBER_DELTA)[1]

        cost_before = huber_cost(state)
        applied = correct_scale(state, observations, rig)
        assert applied[1] != 1.0
        assert huber_cost(state) <= cost_before

    def test_camera_without_landmarks_absent(self):
        rig, traj, cloud, sim = make_sim()
        state, observations = build_gt_window(rig, traj, sim, range(11))
        for key in [k for k in state.landmarks if k[0] == 3]:
            del state.landmarks[key]
        applied = correct_scale(state, observations, rig)
        assert sorted(applied) == [0, 1, 2]


def test_coords_to_ray_batched_matches_per_row():
    rng = np.random.default_rng(73)
    pinhole = rng.uniform(-1.2, 1.2, size=(5000, 2))  # up to 59 deg off-axis
    wide = rng.uniform(-20.0, 20.0, size=(5000, 2))  # up to 88 deg off-axis
    for coords in (pinhole, wide):
        rows = [np.array([x, y, 1.0]) for x, y in coords]
        per_row = np.array([ray / np.linalg.norm(ray) for ray in rows])
        np.testing.assert_array_equal(backend._coords_to_ray(coords), per_row)
        np.testing.assert_array_equal(backend._coords_to_ray(coords[0]), per_row[0])


@pytest.mark.parametrize("coords, sigma", [
    ([np.nan, 0.0], 0.01),
    ([0.0, np.inf], 0.01),
    ([-np.inf, 0.0], 0.01),
    ([0.0, 0.0, 1.0], 0.01),
    ([[0.0, 0.0]], 0.01),
    ([0.0, 0.0], 0.0),
    ([0.0, 0.0], -0.01),
], ids=["nan", "inf", "-inf", "shape3", "shape1x2", "sigma0", "sigma-"])
def test_observation_rejects_bad_input(coords, sigma):
    with pytest.raises(ValueError):
        ReprojObservation(0, 0, 0, coords, sigma)


def test_prune_landmarks():
    rig = make_test_rig(2)
    state = SlidingWindowState()
    state.add_frame(0, Pose())
    state.add_frame(1, Pose(t=[1, 0, 0]))
    ray = np.array([0.0, 0.0, 1.0])
    state.landmarks[(0, 0)] = Landmark(0, 0, 0, ray, 0.1)
    state.landmarks[(0, 1)] = Landmark(0, 1, 0, ray, 0.1)
    obs = [
        ReprojObservation(0, 0, 0, np.zeros(2), 0.01),
        ReprojObservation(0, 0, 1, np.zeros(2), 0.01),
        ReprojObservation(0, 1, 0, np.zeros(2), 0.01),
    ]
    prune_landmarks(state, obs)
    assert (0, 0) in state.landmarks
    assert (0, 1) not in state.landmarks
