import math

import numpy as np
import pytest

from rigvo.geometry import Pose, unproject
from rigvo.sfm import triangulate_rays
from rigvo.simulator import (
    LandmarkCloud,
    NoiseSpec,
    TrajectorySpec,
    generate_trajectory,
    render_observations,
    sample_landmarks,
)

from conftest import make_scale_ambiguous_sfm, make_test_rig, rotation_angle
from scalar_reference import scalar_render


def hamming(a, b):
    return int(np.unpackbits(a ^ b).sum())


class TestTrajectory:
    def test_circle_closes(self):
        # radius 10 m: path length 2*pi*10 over 100 frames at 10 Hz
        speed = 2.0 * math.pi * 10.0 / 10.0
        spec = TrajectorySpec("circle", 100, frame_rate=10.0, speed=speed, seed=0)
        poses = generate_trajectory(spec)
        radius = np.linalg.norm(poses[0].t)
        assert radius == pytest.approx(10.0, rel=1e-9)
        step = speed / 10.0
        assert np.linalg.norm(poses[-1].t - poses[0].t) <= step

    def test_straight_line_constant_rotation(self):
        spec = TrajectorySpec("straight_line", 50, speed=2.0)
        poses = generate_trajectory(spec)
        for p in poses:
            np.testing.assert_array_equal(p.rotation, poses[0].rotation)

    def test_curved_orientation_varies(self):
        for kind in ("circle", "lemniscate", "smooth_random"):
            poses = generate_trajectory(TrajectorySpec(kind, 60, speed=3.0, seed=7))
            angles = [
                rotation_angle(poses[i].rotation.T @ poses[i + 1].rotation)
                for i in range(len(poses) - 1)
            ]
            assert max(angles) > 1e-4, kind

    def test_smooth_random_turns_smoothly(self):
        # the heading is walked at a constant horizontal step, so no seed
        # turns sharply between two frames or stalls in place
        for seed in range(31):
            spec = TrajectorySpec("smooth_random", 120, speed=3.0, seed=seed)
            poses = generate_trajectory(spec)
            turns = [
                rotation_angle(poses[i].rotation.T @ poses[i + 1].rotation)
                for i in range(len(poses) - 1)
            ]
            steps = np.linalg.norm(np.diff([p.t[:2] for p in poses], axis=0), axis=1)
            assert max(turns) < math.radians(10.0), seed
            np.testing.assert_allclose(steps, 0.3, rtol=1e-12)

    def test_determinism(self):
        spec = TrajectorySpec("smooth_random", 40, speed=1.5, seed=123)
        a = generate_trajectory(spec)
        b = generate_trajectory(spec)
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa.rotation, pb.rotation)
            np.testing.assert_array_equal(pa.t, pb.t)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            TrajectorySpec("circle", 10)


class TestLandmarks:
    def test_count_and_unique_ids(self):
        traj = generate_trajectory(TrajectorySpec("circle", 30, speed=5.0))
        cloud = sample_landmarks(1000, traj, (2.0, 30.0), seed=1)
        assert len(cloud) == 1000
        assert cloud.descriptors.shape == (1000, 32)

    def test_depth_range_respected(self):
        traj = generate_trajectory(TrajectorySpec("circle", 30, speed=5.0))
        cloud = sample_landmarks(300, traj, (2.0, 30.0), seed=2)
        centers = np.array([p.t for p in traj])
        for p in cloud.points:
            nearest = np.min(np.linalg.norm(centers - p, axis=1))
            assert 2.0 <= nearest <= 30.0

    def test_seeds_differ(self):
        traj = generate_trajectory(TrajectorySpec("circle", 30, speed=5.0))
        a = sample_landmarks(50, traj, (2.0, 30.0), seed=3)
        b = sample_landmarks(50, traj, (2.0, 30.0), seed=4)
        assert not np.allclose(a.points, b.points)


def small_sim(noise=None, n_frames=30, n_landmarks=400, kind="circle", seed=5):
    rig = make_test_rig(4)
    traj = generate_trajectory(TrajectorySpec(kind, n_frames, speed=3.0, seed=seed))
    cloud = sample_landmarks(n_landmarks, traj, (3.0, 25.0), seed=seed)
    noise = noise or NoiseSpec()
    return rig, traj, cloud, render_observations(rig, traj, cloud, noise)


class TestRender:
    def test_zero_noise_exact_projection(self):
        rig, traj, cloud, sim = small_sim()
        checked = 0
        for cam in range(rig.n_cameras):
            intr = rig.intrinsic(cam)
            ext = rig.extrinsic(cam).cam_in_body
            for f in range(len(traj)):
                cam_pose = traj[f].compose(ext)
                for tid, pix in sim.tracks.observations_at(cam, f)[:5]:
                    lm = sim.track_landmark[cam][tid]
                    p_cam = cam_pose.rotation.T @ (cloud.points[lm] - cam_pose.t)
                    from rigvo.geometry import project

                    expected = project(p_cam, intr)
                    np.testing.assert_allclose(pix, expected, atol=1e-9)
                    checked += 1
        assert checked > 100

    def test_dropout_one_breaks_all_tracks(self):
        _, _, _, sim = small_sim(NoiseSpec(dropout_prob=1.0, seed=9))
        for cam_tracks in sim.tracks.tracks:
            for obs in cam_tracks.values():
                assert len(obs) == 1

    def test_pixel_noise_std(self):
        rig, traj, cloud, sim = small_sim(NoiseSpec(pixel_sigma=0.5, seed=11))
        _, _, _, clean = small_sim(NoiseSpec())
        deltas = []
        for cam in range(rig.n_cameras):
            intr = rig.intrinsic(cam)
            ext = rig.extrinsic(cam).cam_in_body
            for f in range(len(traj)):
                cam_pose = traj[f].compose(ext)
                for tid, pix in sim.tracks.observations_at(cam, f):
                    lm = sim.track_landmark[cam][tid]
                    p_cam = cam_pose.rotation.T @ (cloud.points[lm] - cam_pose.t)
                    from rigvo.geometry import project

                    exact = project(p_cam, intr)
                    deltas.extend((pix - exact).tolist())
        deltas = np.array(deltas)
        assert len(deltas) > 10_000
        assert abs(deltas.std() - 0.5) < 0.05

    def test_observation_within_3_sigma(self):
        rig, traj, cloud, sim = small_sim(NoiseSpec(pixel_sigma=0.5, seed=12))
        for cam in range(rig.n_cameras):
            intr = rig.intrinsic(cam)
            ext = rig.extrinsic(cam).cam_in_body
            for f in range(0, len(traj), 7):
                cam_pose = traj[f].compose(ext)
                for tid, pix in sim.tracks.observations_at(cam, f):
                    lm = sim.track_landmark[cam][tid]
                    p_cam = cam_pose.rotation.T @ (cloud.points[lm] - cam_pose.t)
                    from rigvo.geometry import project

                    exact = project(p_cam, intr)
                    assert np.linalg.norm(pix - exact) <= 3.0 * 0.5 + 1e-9

    def test_determinism_bitwise(self):
        _, _, _, a = small_sim(NoiseSpec(pixel_sigma=0.5, dropout_prob=0.05,
                                         descriptor_flip_rate=0.03, seed=13))
        _, _, _, b = small_sim(NoiseSpec(pixel_sigma=0.5, dropout_prob=0.05,
                                         descriptor_flip_rate=0.03, seed=13))
        assert a.tracks.tracks[0].keys() == b.tracks.tracks[0].keys()
        for cam in range(4):
            for tid in a.tracks.tracks[cam]:
                oa = a.tracks.tracks[cam][tid]
                ob = b.tracks.tracks[cam][tid]
                assert len(oa) == len(ob)
                for (fa, pa), (fb, pb) in zip(oa, ob):
                    assert fa == fb
                    np.testing.assert_array_equal(pa, pb)
            for key in a.descriptors[cam]:
                np.testing.assert_array_equal(a.descriptors[cam][key], b.descriptors[cam][key])

    @pytest.mark.parametrize("noise", [
        NoiseSpec(),
        NoiseSpec(pixel_sigma=2.0, seed=3),
        NoiseSpec(dropout_prob=0.1, seed=4),
        NoiseSpec(descriptor_flip_rate=0.05, seed=5),
        NoiseSpec(pixel_sigma=0.5, dropout_prob=0.05, descriptor_flip_rate=0.03, seed=13),
    ], ids=["clean", "pixel", "dropout", "flips", "all"])
    def test_matches_scalar_reference_bitwise(self, noise):
        rig = make_test_rig(4)
        traj = generate_trajectory(TrajectorySpec("lemniscate", 15, speed=3.0))
        cloud = sample_landmarks(300, traj, (3.0, 25.0), seed=21)
        sim = render_observations(rig, traj, cloud, noise)
        ref = scalar_render(rig, traj, cloud, noise)
        for cam in range(rig.n_cameras):
            assert sim.track_landmark[cam] == ref.track_landmark[cam]
            tracks, ref_tracks = sim.tracks.tracks[cam], ref.tracks.tracks[cam]
            assert list(tracks) == list(ref_tracks)
            for tid, track in tracks.items():
                assert [f for f, _ in track] == [f for f, _ in ref_tracks[tid]]
                for (_, pix), (_, ref_pix) in zip(track, ref_tracks[tid]):
                    assert pix.tobytes() == ref_pix.tobytes()
            assert list(sim.descriptors[cam]) == list(ref.descriptors[cam])
            for key, desc in sim.descriptors[cam].items():
                np.testing.assert_array_equal(desc, ref.descriptors[cam][key])
        assert sum(len(t) for t in sim.tracks.tracks) > 0

    def test_triangulation_consistency(self):
        # zero noise: every track triangulates back to its landmark
        rig, traj, cloud, sim = small_sim()
        cam = 0
        intr = rig.intrinsic(cam)
        ext = rig.extrinsic(cam).cam_in_body
        tested = 0
        for tid, obs in sim.tracks.tracks[cam].items():
            if len(obs) < 3:
                continue
            poses = [traj[f].compose(ext) for f, _ in obs]
            rays = [unproject(pix, intr) for _, pix in obs]
            point, depths = triangulate_rays(poses, rays)
            lm = sim.track_landmark[cam][tid]
            assert np.linalg.norm(point - cloud.points[lm]) < 1e-6
            tested += 1
            if tested >= 50:
                break
        assert tested >= 20

    def test_descriptor_hamming_expectation(self):
        rate = 0.05
        rig, traj, cloud, sim = small_sim(NoiseSpec(descriptor_flip_rate=rate, seed=14))
        rng = np.random.default_rng(0)
        dists = []
        cam = 0
        by_lm = {}
        for (f, tid), desc in sim.descriptors[cam].items():
            by_lm.setdefault(sim.track_landmark[cam][tid], []).append(desc)
        pairs = [(lm, d) for lm, d in by_lm.items() if len(d) >= 2]
        while len(dists) < 10_000:
            lm, descs = pairs[rng.integers(len(pairs))]
            i, j = rng.choice(len(descs), 2, replace=False)
            dists.append(hamming(descs[i], descs[j]))
        expected = 2 * 256 * rate * (1 - rate)
        assert abs(np.mean(dists) - expected) / expected < 0.15


class TestScaleAmbiguousSfm:
    def test_unit_scales_exact(self, rig4):
        traj = generate_trajectory(TrajectorySpec("circle", 20, speed=3.0))
        sfms = make_scale_ambiguous_sfm(rig4, traj, [1.0, 1.0, 1.0, 1.0])
        for c, sfm in enumerate(sfms):
            ext = rig4.extrinsic(c).cam_in_body
            cam0 = traj[0].compose(ext)
            for t in range(len(traj)):
                expected = cam0.inverse().compose(traj[t].compose(ext))
                np.testing.assert_allclose(sfm.rotations[t], expected.rotation, atol=1e-9)
                np.testing.assert_allclose(sfm.translations[t], expected.t, atol=1e-9)

    def test_scale_halves_translations(self, rig4):
        traj = generate_trajectory(TrajectorySpec("circle", 20, speed=3.0))
        base = make_scale_ambiguous_sfm(rig4, traj, [1.0, 1.0, 1.0, 1.0])
        scaled = make_scale_ambiguous_sfm(rig4, traj, [1.0, 2.0, 1.0, 1.0])
        for t in range(len(traj)):
            np.testing.assert_allclose(
                scaled[1].translations[t], base[1].translations[t] / 2.0, atol=1e-12
            )
            np.testing.assert_array_equal(scaled[1].rotations[t], base[1].rotations[t])

    def test_frame0_identity(self, rig4):
        traj = generate_trajectory(TrajectorySpec("lemniscate", 15, speed=2.0))
        sfms = make_scale_ambiguous_sfm(rig4, traj, [0.5, 1.0, 2.0, 3.0])
        for sfm in sfms:
            np.testing.assert_allclose(sfm.rotations[0], np.eye(3), atol=1e-12)
            np.testing.assert_allclose(sfm.translations[0], 0.0, atol=1e-12)
