import math

import numpy as np
import pytest

from rigvo.geometry import Pose, RigConfig, CameraExtrinsic
from rigvo.initialization import (
    _window_rays,
    check_initialization_ready,
    estimate_window_scales,
    initialize_state,
    run_window_sfm,
)
from rigvo.frontend import FeatureTrackTable, update_track_table
from rigvo.scale import (
    DegenerateMotionError,
    body_hypothesis,
    build_scale_system,
    solve_scales,
)
from rigvo.simulator import (
    NoiseSpec,
    TrajectorySpec,
    generate_trajectory,
    render_observations,
    sample_landmarks,
)

from conftest import (
    make_scale_ambiguous_sfm,
    make_test_rig,
    make_zero_baseline_rig,
    rotation_angle,
)

S_TRUE = np.array([1.0, 2.0, 0.5, 3.0])


def circle_traj(n=11, speed=3.0, seed=0):
    return generate_trajectory(TrajectorySpec("circle", n, speed=speed, seed=seed))


class TestBodyHypothesis:
    def test_identity_extrinsic(self, rig4):
        traj = circle_traj()
        sfms = make_scale_ambiguous_sfm(rig4, traj, np.ones(4))
        ext = CameraExtrinsic(Pose.identity())
        s = 2.5
        hyp = body_hypothesis(sfms[0], ext, s)
        for t in range(len(traj)):
            np.testing.assert_allclose(
                hyp[t].rotation, sfms[0].rotations[t], atol=1e-12
            )
            np.testing.assert_allclose(
                hyp[t].t, s * sfms[0].translations[t], atol=1e-12
            )

    def test_starts_at_identity(self, rig4):
        traj = circle_traj()
        sfms = make_scale_ambiguous_sfm(rig4, traj, S_TRUE)
        for c in range(4):
            first = body_hypothesis(sfms[c], rig4.extrinsic(c), S_TRUE[c])[0]
            np.testing.assert_allclose(first.t, 0.0, atol=1e-9)
            np.testing.assert_allclose(first.rotation, np.eye(3), atol=1e-9)

    def test_rotation_independent_of_scale(self, rig4):
        traj = circle_traj()
        sfms = make_scale_ambiguous_sfm(rig4, traj, S_TRUE)
        h1 = body_hypothesis(sfms[2], rig4.extrinsic(2), 1.0)
        h7 = body_hypothesis(sfms[2], rig4.extrinsic(2), 7.0)
        for p1, p7 in zip(h1, h7):
            np.testing.assert_array_equal(p1.rotation, p7.rotation)

    def test_pairwise_agreement_at_true_scales(self, rig4):
        traj = circle_traj()
        sfms = make_scale_ambiguous_sfm(rig4, traj, S_TRUE)
        hyps = [
            body_hypothesis(sfms[c], rig4.extrinsic(c), S_TRUE[c]) for c in range(4)
        ]
        for i in range(4):
            for j in range(i + 1, 4):
                for t in range(len(traj)):
                    np.testing.assert_allclose(
                        hyps[i][t].t, hyps[j][t].t, atol=1e-9
                    )


class TestScaleSystem:
    def test_row_and_column_count(self, rig2):
        traj = circle_traj(11)
        sfms = make_scale_ambiguous_sfm(rig2, traj, np.ones(2))
        system = build_scale_system(sfms, [rig2.extrinsic(c) for c in range(2)])
        assert system.f_matrix.shape == (30, 2)  # 10 frames after the first

    def test_zero_extrinsic_translation_zero_theta(self):
        rig = make_zero_baseline_rig()
        traj = circle_traj()
        sfms = make_scale_ambiguous_sfm(rig, traj, np.ones(4))
        system = build_scale_system(sfms, [rig.extrinsic(c) for c in range(4)])
        np.testing.assert_allclose(system.theta, 0.0, atol=1e-15)

    def test_theta_invariant_under_rescaling(self, rig4):
        traj = circle_traj()
        sfms = make_scale_ambiguous_sfm(rig4, traj, S_TRUE)
        sys_a = build_scale_system(sfms, [rig4.extrinsic(c) for c in range(4)])
        k = 3.7
        sfms_scaled = make_scale_ambiguous_sfm(rig4, traj, S_TRUE * [1, 1, k, 1])
        sys_b = build_scale_system(sfms_scaled, [rig4.extrinsic(c) for c in range(4)])
        np.testing.assert_array_equal(sys_a.theta, sys_b.theta)
        # only column 2 changed, scaled by 1/k
        np.testing.assert_allclose(
            sys_b.f_matrix[:, 2] * k, sys_a.f_matrix[:, 2], atol=1e-12
        )
        for col in (0, 1, 3):
            np.testing.assert_array_equal(sys_b.f_matrix[:, col], sys_a.f_matrix[:, col])


class TestSolveScales:
    def test_recovers_true_scales(self, rig4):
        traj = circle_traj()
        sfms = make_scale_ambiguous_sfm(rig4, traj, S_TRUE)
        system = build_scale_system(sfms, [rig4.extrinsic(c) for c in range(4)])
        est = solve_scales(system)
        assert est.observable
        np.testing.assert_allclose(est.scales, S_TRUE, rtol=1e-9)
        assert est.residual_rms < 1e-12

    def test_scale_equivariance(self, rig4):
        traj = circle_traj()
        k = 2.5
        base = solve_scales(
            build_scale_system(
                make_scale_ambiguous_sfm(rig4, traj, S_TRUE),
                [rig4.extrinsic(c) for c in range(4)],
            )
        )
        scaled = solve_scales(
            build_scale_system(
                make_scale_ambiguous_sfm(rig4, traj, S_TRUE * [1, k, 1, 1]),
                [rig4.extrinsic(c) for c in range(4)],
            )
        )
        np.testing.assert_allclose(scaled.scales[1], base.scales[1] * k, rtol=1e-9)
        np.testing.assert_allclose(scaled.scales[[0, 2, 3]], base.scales[[0, 2, 3]], rtol=1e-9)

    def test_zero_baseline_unobservable(self):
        rig = make_zero_baseline_rig()
        traj = circle_traj()
        sfms = make_scale_ambiguous_sfm(rig, traj, S_TRUE)
        system = build_scale_system(sfms, [rig.extrinsic(c) for c in range(4)])
        est = solve_scales(system)
        assert not est.observable
        assert est.reason

    def test_straight_line_unobservable(self, rig4):
        traj = generate_trajectory(TrajectorySpec("straight_line", 11, speed=3.0))
        sfms = make_scale_ambiguous_sfm(rig4, traj, S_TRUE)
        system = build_scale_system(sfms, [rig4.extrinsic(c) for c in range(4)])
        est = solve_scales(system)
        assert not est.observable
        assert est.condition_number > 1e8

    def test_too_few_rows(self, rig4):
        traj = circle_traj()
        sfms = make_scale_ambiguous_sfm(rig4, traj, S_TRUE)
        system = build_scale_system(sfms, [rig4.extrinsic(c) for c in range(4)])
        system.f_matrix = system.f_matrix[:3]
        system.theta = system.theta[:3]
        with pytest.raises(ValueError):
            solve_scales(system)


class TestReadyCheck:
    def make_table(self, per_frame_motion, n_frames=11, n_cams=2):
        table = FeatureTrackTable(n_cams)
        for f in range(n_frames):
            obs = []
            for cam in range(n_cams):
                dx, dy = per_frame_motion[cam]
                obs.append(
                    [(i, np.array([100.0 + i * 30 + dx * f, 100.0 + dy * f]))
                     for i in range(5)]
                )
            update_track_table(table, f, obs)
        return table

    def test_static_not_ready(self):
        table = self.make_table([(0.0, 0.0), (0.0, 0.0)])
        ready, principal, _ = check_initialization_ready(table)
        assert not ready
        assert principal is None

    def test_threshold_just_above(self):
        table = self.make_table([(3.1, 0.0), (3.1, 0.0)])  # 31 px over the span
        ready, principal, parallax = check_initialization_ready(table)
        assert all(p > 30.0 for p in parallax)
        assert ready
        assert principal in (0, 1)

    def test_one_slow_camera_blocks(self):
        table = self.make_table([(5.0, 0.0), (0.5, 0.0)])
        ready, principal, _ = check_initialization_ready(table)
        assert not ready

    def test_principal_has_best_stability(self):
        table = FeatureTrackTable(2)
        for f in range(11):
            cam0 = [(i, np.array([100.0 + 30 * i + 4.0 * f, 100.0])) for i in range(5)]
            # camera 1: two long tracks carry the parallax, the rest churn
            cam1 = [(i, np.array([100.0 + 30 * i + 4.0 * f, 100.0])) for i in range(2)]
            cam1 += [(1000 + 10 * f + i, np.array([400.0 + 5 * i, 300.0]))
                     for i in range(8)]
            update_track_table(table, f, [cam0, cam1])
        ready, principal, _ = check_initialization_ready(table)
        assert ready
        assert principal == 0


class TestWholeRunTable:
    """The gate and the window rays read only the window's frames: a table
    holding a whole 120-frame run gives what the window's own table gives."""

    WINDOW_ENDS = (10, 60, 119)

    @pytest.fixture(scope="class")
    def tables(self):
        rig = make_test_rig(4)
        traj = generate_trajectory(TrajectorySpec("lemniscate", 120, speed=3.0))
        cloud = sample_landmarks(500, traj, (3.0, 25.0), seed=7)
        whole = render_observations(rig, traj, cloud, NoiseSpec(dropout_prob=0.05, seed=8)).tracks
        windows = {}
        for end in self.WINDOW_ENDS:
            table = FeatureTrackTable(rig.n_cameras)
            for f in range(end - 10, end + 1):
                update_track_table(
                    table, f, [whole.observations_at(cam, f) for cam in range(rig.n_cameras)]
                )
            windows[end] = table
        return rig, whole, windows

    def test_gate_matches_window_table(self, tables):
        _, whole, windows = tables
        ready = []
        for end, window in windows.items():
            got = check_initialization_ready(whole, end_frame=end)
            assert got == check_initialization_ready(window)
            ready.append(got[0])
        assert any(ready)  # so that the principal camera is compared too

    def test_window_rays_match_window_table(self, tables):
        rig, whole, windows = tables
        for end, window in windows.items():
            frames = list(range(end - 10, end + 1))
            for cam in range(rig.n_cameras):
                tids, rays, seen = _window_rays(whole, cam, rig.intrinsic(cam), frames)
                w_tids, w_rays, w_seen = _window_rays(window, cam, rig.intrinsic(cam), frames)
                assert tids == w_tids
                np.testing.assert_array_equal(rays, w_rays)
                np.testing.assert_array_equal(seen, w_seen)


class TestEndToEndInit:
    def window_sim(self, noise=None, rig=None, kind="circle", seed=50):
        # an 11-frame window out of a longer, gently curving run
        rig = rig or make_test_rig(4)
        traj = generate_trajectory(TrajectorySpec(kind, 60, speed=3.0, seed=seed))
        cloud = sample_landmarks(800, traj, (3.0, 25.0), seed=seed)
        sim = render_observations(rig, traj, cloud, noise or NoiseSpec())
        return rig, traj, sim

    def gt_scale(self, sfm, rig, traj, cam):
        ext = rig.extrinsic(cam).cam_in_body
        cam_poses = [traj[t].compose(ext) for t in range(len(sfm))]
        anchor = cam_poses[0].inverse()
        gt_t = np.array([anchor.compose(p).t for p in cam_poses])
        est_t = np.array(sfm.translations)
        return float(np.sum(est_t * gt_t) / np.sum(est_t * est_t))

    def test_noiseless_full_path(self):
        rig, traj, sim = self.window_sim()
        trajectories, inliers, failures = run_window_sfm(
            sim.tracks, rig, range(11), rng=np.random.default_rng(51)
        )
        assert not failures
        system, est = estimate_window_scales(trajectories, rig)
        assert est.observable
        for i, cam in enumerate(sorted(trajectories)):
            s_gt = self.gt_scale(trajectories[cam], rig, traj, cam)
            assert abs(est.scales[i] - s_gt) / s_gt < 1e-5

    def test_initialize_state_noiseless(self):
        rig, traj, sim = self.window_sim()
        trajectories, _, _ = run_window_sfm(
            sim.tracks, rig, range(11), rng=np.random.default_rng(52)
        )
        _, est = estimate_window_scales(trajectories, rig)
        ready, principal, _ = check_initialization_ready(sim.tracks, end_frame=10)
        state = initialize_state(
            trajectories, est, sim.tracks, rig, principal, list(range(11))
        )
        anchor = traj[0].inverse()
        for k, f in enumerate(state.frames):
            gt = anchor.compose(traj[f])
            assert np.linalg.norm(state.poses[f].t - gt.t) < 1e-6
            assert rotation_angle(state.poses[f].rotation.T @ gt.rotation) < 1e-6
        assert state.landmarks
        for lm in state.landmarks.values():
            assert lm.inv_depth > 0

    def test_initialize_state_noisy_rmse(self):
        rig, traj, sim = self.window_sim(NoiseSpec(pixel_sigma=0.5, seed=53))
        trajectories, _, failures = run_window_sfm(
            sim.tracks, rig, range(11), rng=np.random.default_rng(54)
        )
        _, est = estimate_window_scales(trajectories, rig)
        assert est.observable
        state = initialize_state(trajectories, est, sim.tracks, rig, 0, list(range(11)))
        anchor = traj[0].inverse()
        errs = []
        path_len = sum(
            np.linalg.norm(traj[t + 1].t - traj[t].t) for t in range(10)
        )
        for f in state.frames:
            gt = anchor.compose(traj[f])
            errs.append(np.sum((state.poses[f].t - gt.t) ** 2))
        rmse = math.sqrt(np.mean(errs))
        assert rmse < 0.02 * path_len

    def test_degenerate_straight_line_aborts(self):
        rig, traj, sim = self.window_sim(kind="straight_line")
        trajectories, _, failures = run_window_sfm(
            sim.tracks, rig, range(11), rng=np.random.default_rng(55)
        )
        if len(trajectories) < 2:
            return  # SfM itself flagged the degeneracy; equally acceptable
        _, est = estimate_window_scales(trajectories, rig)
        assert not est.observable
        with pytest.raises(DegenerateMotionError) as exc:
            initialize_state(trajectories, est, sim.tracks, rig, 0, list(range(11)))
        assert "condition_number" in exc.value.diagnostics
