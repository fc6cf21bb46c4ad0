import math

import numpy as np
import pytest

import rigvo.sfm
from rigvo.geometry import Pose, so3_exp, unproject
from rigvo.initialization import _window_rays
from rigvo.sfm import (
    LOW_PARALLAX_ANGLE,
    MIN_EPIPOLAR_MATCHES,
    RANSAC_ITERS,
    CameraSfmTrajectory,
    SfmFailure,
    _unit_ray_jacobian,
    _unit_ray_residuals,
    _eight_point,
    _epipolar_angles,
    _ransac_inliers,
    estimate_relative_pose,
    huber_weights,
    monocular_sfm_window,
    pnp_refine,
    triangulate_many,
    triangulate_rays,
)
from rigvo.simulator import (
    NoiseSpec,
    TrajectorySpec,
    generate_trajectory,
    render_observations,
    sample_landmarks,
)

from conftest import make_test_rig, rotation_angle


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def unit_rows(v):
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def two_view_scene(n_points=100, seed=0, rot_vec=(0.05, 0.3, -0.1), baseline=(1.0, 0.2, 0.1)):
    """Random points in front of two cameras; returns rays and the truth."""
    rng = np.random.default_rng(seed)
    points = rng.uniform([-4, -4, 4], [4, 4, 12], size=(n_points, 3))
    pose_a = Pose.identity()
    pose_b = Pose.from_rt(so3_exp(rot_vec), baseline)
    rays_a = np.array([unit(p) for p in points])
    rays_b = np.array([unit(pose_b.rotation.T @ (p - pose_b.t)) for p in points])
    return rays_a, rays_b, pose_b, points


class TestRelativePose:
    def test_noiseless_exact(self):
        rays_a, rays_b, pose_b, _ = two_view_scene()
        rot, t, mask = estimate_relative_pose(rays_a, rays_b, rng=np.random.default_rng(1))
        assert mask.sum() >= 95
        assert rotation_angle(rot.T @ pose_b.rotation) < 1e-6
        t_true = unit(pose_b.t)
        assert math.acos(np.clip(abs(t @ t_true), 0, 1)) < 1e-6

    def test_pure_rotation_flagged(self):
        rng = np.random.default_rng(2)
        points = rng.uniform([-4, -4, 4], [4, 4, 12], size=(60, 3))
        rot = so3_exp([0.0, 0.2, 0.1])
        rays_a = np.array([unit(p) for p in points])
        rays_b = np.array([unit(rot.T @ p) for p in points])
        with pytest.raises(SfmFailure, match="parallax"):
            estimate_relative_pose(rays_a, rays_b, rng=np.random.default_rng(3))

    def test_outlier_rejection(self):
        rays_a, rays_b, pose_b, _ = two_view_scene(n_points=100, seed=4)
        rng = np.random.default_rng(5)
        n_out = 30
        bad = rng.choice(100, size=n_out, replace=False)
        rays_b = rays_b.copy()
        for i in bad:
            rays_b[i] = unit(rng.normal(size=3))
        rot, t, mask = estimate_relative_pose(rays_a, rays_b, rng=np.random.default_rng(6))
        excluded = np.sum(~mask[bad])
        assert excluded >= 0.95 * n_out
        assert rotation_angle(rot.T @ pose_b.rotation) < 1e-3

    def test_too_few_matches(self):
        rays = np.tile(unit([0, 0, 1.0]), (5, 1))
        with pytest.raises(SfmFailure):
            estimate_relative_pose(rays, rays)


def eight_point_reference(rays_a, rays_b):
    """The one-hypothesis 8-point kernel that the stacked one replaced."""
    a = np.einsum("ni,nj->nij", rays_b, rays_a).reshape(len(rays_a), 9)
    _, _, vt = np.linalg.svd(a)
    e = vt[-1].reshape(3, 3)
    u, s, vt = np.linalg.svd(e)
    if np.linalg.det(u) < 0:
        u[:, -1] *= -1
    if np.linalg.det(vt) < 0:
        vt[-1, :] *= -1
    sigma = 0.5 * (s[0] + s[1])
    return u @ np.diag([sigma, sigma, 0.0]) @ vt


def epipolar_angles_reference(e_mat, rays_a, rays_b):
    """The one-hypothesis epipolar scoring that the stacked one replaced."""
    n = rays_a @ e_mat.T
    norms = np.linalg.norm(n, axis=1)
    norms = np.where(norms < 1e-15, 1.0, norms)
    sines = np.abs(np.einsum("ni,ni->n", rays_b, n)) / norms
    return np.arcsin(np.clip(sines, 0.0, 1.0))


def ransac_reference(rays_a, rays_b, inlier_threshold, rng):
    """The one-hypothesis RANSAC loop: best mask and each fitted hypothesis
    as (sample, E, mask); a sample whose fit raises is skipped."""
    hypotheses = []
    best_mask, best_count = None, -1
    for _ in range(RANSAC_ITERS):
        idx = rng.choice(len(rays_a), size=MIN_EPIPOLAR_MATCHES, replace=False)
        try:
            e_mat = eight_point_reference(rays_a[idx], rays_b[idx])
        except np.linalg.LinAlgError:
            continue
        mask = epipolar_angles_reference(e_mat, rays_a, rays_b) < inlier_threshold
        hypotheses.append((idx, e_mat, mask))
        if int(mask.sum()) > best_count:
            best_mask, best_count = mask, int(mask.sum())
    if best_mask is None or best_count < MIN_EPIPOLAR_MATCHES:
        raise SfmFailure(f"only {max(best_count, 0)} epipolar inliers")
    return best_mask, hypotheses


def noisy_ray_pair(rig, cam):
    """Matched rays of frames 0 and 5 of one camera in a 0.5 px render."""
    traj = generate_trajectory(TrajectorySpec("circle", 60, speed=3.0, seed=11))
    cloud = sample_landmarks(500, traj, (3.0, 25.0), seed=11)
    sim = render_observations(rig, traj, cloud, NoiseSpec(pixel_sigma=0.5, seed=12))
    _, rays, seen = _window_rays(sim.tracks, cam, rig.intrinsic(cam), [0, 5])
    shared = seen[:, 0] & seen[:, 1]
    return rays[shared, 0], rays[shared, 1]


class TestStackedRansac:
    """The stacked hypotheses against the one-hypothesis loop, bit for bit."""

    @pytest.mark.parametrize("cam", [0, 2], ids=["pinhole", "fisheye"])
    def test_matches_one_hypothesis_loop(self, rig4, cam, monkeypatch):
        rays_a, rays_b = noisy_ray_pair(rig4, cam)
        threshold = 1.0 / 320.0
        best_ref, hyps = ransac_reference(rays_a, rays_b, threshold, np.random.default_rng(5))
        assert len(hyps) == RANSAC_ITERS

        idx = np.array([h[0] for h in hyps])
        e_mats = _eight_point(rays_a[idx], rays_b[idx])
        masks = _epipolar_angles(e_mats, rays_a, rays_b) < threshold
        assert np.array_equal(e_mats, np.array([h[1] for h in hyps]))
        assert np.array_equal(masks, np.array([h[2] for h in hyps]))
        counts = masks.sum(axis=1)
        assert np.array_equal(counts, [h[2].sum() for h in hyps])
        assert len(np.unique(counts)) > 10  # the hypotheses really differ
        best = _ransac_inliers(rays_a, rays_b, threshold, np.random.default_rng(5))
        assert np.array_equal(best, best_ref)

        out = estimate_relative_pose(rays_a, rays_b, threshold, np.random.default_rng(5))
        monkeypatch.setattr(rigvo.sfm, "_ransac_inliers",
                            lambda *args: ransac_reference(*args)[0])
        ref = estimate_relative_pose(rays_a, rays_b, threshold, np.random.default_rng(5))
        for got, want in zip(out, ref):
            assert np.array_equal(got, want)

    def test_ties_keep_the_first_best(self):
        # unrelated random rays: hypotheses fit noise, and two of them tie
        # for the most inliers with different masks; the loop kept the first
        rng = np.random.default_rng(0)
        rays_a, rays_b = (unit_rows(rng.normal(size=(100, 3))) for _ in range(2))
        best_ref, hyps = ransac_reference(rays_a, rays_b, 0.15, np.random.default_rng(5))
        counts = np.array([h[2].sum() for h in hyps])
        tied = {hyps[i][2].tobytes() for i in np.flatnonzero(counts == counts.max())}
        assert len(tied) >= 2
        best = _ransac_inliers(rays_a, rays_b, 0.15, np.random.default_rng(5))
        assert np.array_equal(best, best_ref)

    def test_draws_as_many_samples_as_the_loop(self, rig4):
        rays_a, rays_b = noisy_ray_pair(rig4, 0)
        rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
        estimate_relative_pose(rays_a, rays_b, rng=rng)
        for _ in range(RANSAC_ITERS):
            ref_rng.choice(len(rays_a), size=MIN_EPIPOLAR_MATCHES, replace=False)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_nan_ray_skips_its_samples_like_the_loop(self, monkeypatch):
        rays_a, rays_b, _, _ = two_view_scene(n_points=60, seed=13)
        rays_b[17] = np.nan
        out = estimate_relative_pose(rays_a, rays_b, rng=np.random.default_rng(14))
        _, hyps = ransac_reference(rays_a, rays_b, 0.002, np.random.default_rng(14))
        assert len(hyps) < RANSAC_ITERS  # some samples held the NaN ray
        monkeypatch.setattr(rigvo.sfm, "_ransac_inliers",
                            lambda *args: ransac_reference(*args)[0])
        ref = estimate_relative_pose(rays_a, rays_b, rng=np.random.default_rng(14))
        for got, want in zip(out, ref):
            assert np.array_equal(got, want)
        assert not out[2][17]

    def test_all_nan_rays_raise_sfm_failure(self):
        rays = np.full((20, 3), np.nan)
        with pytest.raises(SfmFailure, match="epipolar inliers"):
            estimate_relative_pose(rays, rays)


def two_views(center_b=(1.0, 0.0, 0.0)):
    """triangulate_many's (rotations, centers) of an identity camera and an
    unrotated one at center_b."""
    return np.tile(np.eye(3), (2, 1, 1)), np.array([np.zeros(3), center_b])


class TestTriangulate:
    POINT = np.array([0.3, -0.2, 5.0])

    def test_exact_recovery(self):
        rotations, centers = two_views()
        rays = np.array([[unit(self.POINT), unit(self.POINT - centers[1])]])
        pts, depths, ok = triangulate_many(rotations, centers, rays, np.ones((1, 2), dtype=bool))
        assert ok[0]
        assert np.linalg.norm(pts[0] - self.POINT) < 1e-9
        np.testing.assert_allclose(depths[0], np.linalg.norm(self.POINT - centers, axis=1))
        point, _ = triangulate_rays([Pose.identity(), Pose(t=centers[1])], rays[0])
        np.testing.assert_array_equal(point, pts[0])

    def test_zero_baseline_rejected(self):
        # a point seen from one centre has no parallax
        rotations, centers = two_views(center_b=np.zeros(3))
        rays = np.tile(unit([0.1, 0.2, 1.0]), (1, 2, 1))
        pts, depths, ok = triangulate_many(rotations, centers, rays, np.ones((1, 2), dtype=bool))
        assert not ok.any() and np.isnan(pts).all() and not depths.any()
        with pytest.raises(SfmFailure):
            triangulate_rays([Pose.identity(), Pose.identity()], rays[0])

    def test_parallel_rays_rejected(self):
        pose_a = Pose.identity()
        pose_b = Pose(t=[1.0, 0.0, 0.0])
        ray = unit([0.0, 0.0, 1.0])
        with pytest.raises(SfmFailure):
            triangulate_rays([pose_a, pose_b], [ray, ray])

    def test_negative_depth_rejected(self):
        rotations, centers = two_views()
        # flip one ray: intersection lands behind a camera
        rays = np.array([[unit(self.POINT), -unit(self.POINT - centers[1])]])
        pts, depths, ok = triangulate_many(rotations, centers, rays, np.ones((1, 2), dtype=bool))
        assert not ok.any() and np.isnan(pts).all() and not depths.any()

    def test_track_behind_one_view_raises(self):
        # four views of a point with the third looking away from it: the
        # midpoint is the point itself, at negative range along that ray
        rng = np.random.default_rng(3)
        poses = [Pose.from_rt(so3_exp(rng.normal(scale=0.2, size=3)), rng.uniform(-1, 1, size=3))
                 for _ in range(4)]
        rays = np.array([unit(p.rotation.T @ (self.POINT - p.t)) for p in poses])
        triangulate_rays(poses, rays)
        rays[2] *= -1.0
        with pytest.raises(SfmFailure, match="behind"):
            triangulate_rays(poses, rays)

    def test_simulator_window_up_to_scale(self, rig4):
        traj = generate_trajectory(TrajectorySpec("circle", 12, speed=3.0))
        cloud = sample_landmarks(300, traj, (3.0, 25.0), seed=30)
        sim = render_observations(rig4, traj, cloud, NoiseSpec())
        cam = 0
        ext = rig4.extrinsic(cam).cam_in_body
        checked = 0
        for tid, obs in sim.tracks.tracks[cam].items():
            if len(obs) < 2:
                continue
            frames = [f for f, _ in obs]
            poses = [traj[f].compose(ext) for f in frames]
            rays = [unproject(pix, rig4.intrinsic(cam)) for _, pix in obs]
            try:
                point, depths = triangulate_rays(poses, rays)
            except SfmFailure:
                continue
            lm = sim.track_landmark[cam][tid]
            assert np.linalg.norm(point - cloud.points[lm]) < 1e-6
            checked += 1
        assert checked >= 30


def midpoint_reference(poses, rays, min_angle=LOW_PARALLAX_ANGLE):
    """Per-track midpoint triangulation, one loop over the track's views."""
    rays = np.asarray(rays, dtype=float)
    dirs = np.array([p.rotation @ r for p, r in zip(poses, rays)])
    centers = np.array([p.t for p in poses])

    max_angle = 0.0
    for i in range(len(dirs)):
        for j in range(i + 1, len(dirs)):
            dot = np.clip(abs(float(dirs[i] @ dirs[j])), 0.0, 1.0)
            max_angle = max(max_angle, math.acos(dot))
    if max_angle < min_angle:
        raise SfmFailure("rays near parallel")

    a = np.zeros((3, 3))
    b = np.zeros(3)
    for d, c in zip(dirs, centers):
        m = np.eye(3) - np.outer(d, d)
        a += m
        b += m @ c
    point = np.linalg.solve(a, b)
    depths = np.einsum("ni,ni->n", point[None, :] - centers, dirs)
    return point, depths


class TestTriangulateMany:
    VIEWS = 11
    RANDOM, POINT, PARALLEL, FLIPPED = range(4)

    def batch(self, n=240, seed=21):
        """Tracks over 11 random views, each seen by 2-11 of them.

        Row kinds cycle: random rays, rays of a point, near-parallel rays,
        rays of a point with one ray flipped behind its camera. Unseen
        views hold random rays, which the kernel must ignore.
        """
        rng = np.random.default_rng(seed)
        poses = [
            Pose.from_rt(so3_exp(rng.normal(scale=0.5, size=3)), rng.uniform(-2, 2, size=3))
            for _ in range(self.VIEWS)
        ]
        rotations = np.array([p.rotation for p in poses])
        centers = np.array([p.t for p in poses])
        rays = rng.normal(size=(n, self.VIEWS, 3))
        seen = np.zeros((n, self.VIEWS), dtype=bool)
        truth = rng.uniform([-5, -5, 5], [5, 5, 15], size=(n, 3))
        kind = np.arange(n) % 4
        for k in range(n):
            views = rng.choice(self.VIEWS, size=rng.integers(2, self.VIEWS + 1), replace=False)
            seen[k, views] = True
            if kind[k] == self.PARALLEL:
                world = rng.normal(size=3) + rng.normal(scale=1e-7, size=(len(views), 3))
            elif kind[k] != self.RANDOM:
                world = truth[k] - centers[views]
            else:
                continue
            rays[k, views] = np.einsum("vji,vj->vi", rotations[views], world)
            if kind[k] == self.FLIPPED:
                rays[k, views[0]] *= -1.0
        rays /= np.linalg.norm(rays, axis=2, keepdims=True)
        return poses, rotations, centers, rays, seen, truth, kind

    def test_matches_per_track_reference(self):
        poses, rotations, centers, rays, seen, truth, kind = self.batch()
        points, depths, ok = triangulate_many(rotations, centers, rays, seen)
        ref_ok = np.zeros(len(rays), dtype=bool)
        for k in range(len(rays)):
            views = np.flatnonzero(seen[k])
            try:
                point, ref_depths = midpoint_reference([poses[v] for v in views], rays[k, views])
            except SfmFailure:
                continue
            if kind[k] == self.FLIPPED:
                # a midpoint sees lines, not rays: it recovers the point, at
                # negative range along the flipped ray
                np.testing.assert_allclose(point, truth[k], atol=1e-9)
                assert (ref_depths < 0).sum() == 1
            ref_ok[k] = np.all(ref_depths > 0)  # cheirality
            if ref_ok[k]:
                np.testing.assert_allclose(points[k], point, rtol=1e-9, atol=1e-9)
                np.testing.assert_allclose(depths[k, views], ref_depths, rtol=1e-9, atol=1e-9)
        np.testing.assert_array_equal(ok, ref_ok)
        assert not ok[kind == self.PARALLEL].any()
        assert not ok[kind == self.FLIPPED].any()
        assert np.all(np.isnan(points[~ok]))
        assert np.all(depths[~ok] == 0.0)
        assert np.all(depths[~seen] == 0.0)
        assert ok[kind == self.POINT].all()
        np.testing.assert_allclose(points[kind == self.POINT], truth[kind == self.POINT], atol=1e-9)
        assert np.all(depths[kind == self.POINT][seen[kind == self.POINT]] > 0)

    def test_no_track_passes_parallax(self):
        rotations = np.tile(np.eye(3), (2, 1, 1))
        centers = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        rays = np.tile([0.0, 0.0, 1.0], (4, 2, 1))
        seen = np.array([[True, True], [True, True], [True, False], [False, False]])
        points, depths, ok = triangulate_many(rotations, centers, rays, seen)
        assert np.isnan(points).all() and points.shape == (4, 3)
        np.testing.assert_array_equal(depths, np.zeros((4, 2)))
        np.testing.assert_array_equal(ok, np.zeros(4, dtype=bool))

    def test_empty_batch(self):
        rotations = np.tile(np.eye(3), (3, 1, 1))
        points, depths, ok = triangulate_many(
            rotations, np.zeros((3, 3)), np.zeros((0, 3, 3)), np.zeros((0, 3), dtype=bool)
        )
        assert points.shape == (0, 3)
        assert depths.shape == (0, 3)
        assert ok.shape == (0,)


class TestPnp:
    def scene(self, seed=7):
        rng = np.random.default_rng(seed)
        points = rng.uniform([-4, -4, 3], [4, 4, 15], size=(40, 3))
        pose = Pose.from_rt(so3_exp([0.1, -0.2, 0.3]), [0.5, 1.0, -0.3])
        rays = np.array([unit(pose.rotation.T @ (p - pose.t)) for p in points])
        return points, rays, pose

    def test_ground_truth_fixed_point(self):
        points, rays, pose = self.scene()
        out = pnp_refine(points, rays, pose)
        assert np.linalg.norm(out.t - pose.t) < 1e-10
        assert rotation_angle(out.rotation.T @ pose.rotation) < 1e-10

    def test_recovers_from_perturbation(self):
        points, rays, pose = self.scene()
        init = Pose.from_rt(pose.rotation @ so3_exp([0.05, -0.08, 0.02]), pose.t + [0.2, -0.1, 0.1])
        out = pnp_refine(points, rays, init)
        assert np.linalg.norm(out.t - pose.t) < 1e-8
        assert rotation_angle(out.rotation.T @ pose.rotation) < 1e-8

    def test_three_points_rejected(self):
        points, rays, pose = self.scene()
        with pytest.raises(SfmFailure):
            pnp_refine(points[:3], rays[:3], pose)

    def test_non_finite_point_refused(self):
        # a NaN point made the first evaluation 0/0, then a false "diverged"
        points, rays, pose = self.scene()
        points, rays = points[:10].copy(), rays[:10]
        for bad in (np.nan, np.inf):
            points[4] = bad
            with pytest.raises(SfmFailure, match="not finite"):
                pnp_refine(points, rays, pose)

    def test_point_at_initial_centre_refused(self, rig4):
        # its ray residual is 0/0 at the initial pose, for a camera pose
        # and for a body pose seen through an extrinsic
        points, rays, pose = self.scene()
        points, rays = points[:10].copy(), rays[:10]
        points[4] = pose.t
        with pytest.raises(SfmFailure, match="camera centre"):
            pnp_refine(points, rays, pose)
        exts = [rig4.extrinsic(c % 4).cam_in_body for c in range(10)]
        points[4] = pose.compose(exts[4]).t
        with pytest.raises(SfmFailure, match="camera centre"):
            pnp_refine(points, rays, pose, extrinsics=exts)

    def test_rig_body_pose_recovered(self, rig4):
        # 15 points per camera of the 4-camera rig, up to 1.2 rad off each
        # optical axis (the fisheyes see to 1.35 rad); PnP on the body pose
        rng = np.random.default_rng(8)
        body = Pose.from_rt(so3_exp([0.2, -0.1, 0.4]), [1.0, -0.5, 0.3])
        points, rays, exts = [], [], []
        for c in range(4):
            ext = rig4.extrinsic(c).cam_in_body
            cam = body.compose(ext)
            for _ in range(15):
                angle, azimuth = rng.uniform(0.0, 1.2), rng.uniform(0.0, 2 * math.pi)
                ray = np.array([math.sin(angle) * math.cos(azimuth),
                                math.sin(angle) * math.sin(azimuth), math.cos(angle)])
                points.append(cam.apply(ray * rng.uniform(3.0, 15.0)))
                rays.append(ray)
                exts.append(ext)
        init = Pose.from_rt(body.rotation @ so3_exp([0.04, 0.06, -0.05]),
                            body.t + [0.15, -0.1, 0.2])
        out = pnp_refine(np.array(points), np.array(rays), init, extrinsics=exts)
        assert np.linalg.norm(out.t - body.t) < 1e-8
        assert rotation_angle(out.rotation.T @ body.rotation) < 1e-8


def pnp_reference(points, rays, initial, extrinsics=None, huber_delta=math.inf):
    """pnp_refine's loop building the Jacobian at every evaluation, trial
    steps included. Returns (pose, accepted steps, rejected trials)."""
    groups = {}
    for i, ext in enumerate([None] * len(points) if extrinsics is None else extrinsics):
        groups.setdefault(id(ext), (ext, []))[1].append(i)

    def evaluate(rot, t):
        res, jac = np.zeros((len(points), 3)), np.zeros((len(points), 3, 6))
        for ext, idxs in groups.values():
            res[idxs], terms = _unit_ray_residuals(rot, t, points[idxs], rays[idxs], ext)
            jac[idxs] = _unit_ray_jacobian(terms)
        w, cost = huber_weights(res, huber_delta)
        return res * w[:, None], jac * w[:, None, None], cost

    rot, t, lam = initial.rotation, initial.t.copy(), 1e-6
    res, jac, cost = evaluate(rot, t)
    accepted = rejected = 0
    for _ in range(100):
        j_flat = jac.reshape(-1, 6)
        h, g = j_flat.T @ j_flat, j_flat.T @ res.reshape(-1)
        while True:
            step = np.linalg.solve(h + lam * np.eye(6), -g)
            new_rot, new_t = rot @ so3_exp(step[3:]), t + step[:3]
            trial = evaluate(new_rot, new_t)
            if trial[2] <= cost:
                break
            rejected += 1
            lam *= 10.0
        rot, t = new_rot, new_t
        res, jac, cost = trial
        accepted += 1
        lam = max(lam * 0.3, 1e-12)
        if np.linalg.norm(step) < 1e-10:
            return Pose.from_rt(rot, t), accepted, rejected
    raise AssertionError("reference did not converge")


class TestPnpTrialSteps:
    """Residual-only trial steps: same pose as the reference, bit for bit,
    with one Jacobian per iteration that is started."""

    def scene(self, rig4, multi):
        # 15 points per camera (camera 0 alone without extrinsics), 3 of
        # them stray, and an initial pose far enough off that LM rejects
        # trial steps in every parametrization (11 to 44 of them)
        rng = np.random.default_rng(21)
        body = Pose.from_rt(so3_exp([0.2, -0.1, 0.4]), [1.0, -0.5, 0.3])
        points, rays, exts = [], [], []
        for c in range(4 if multi else 1):
            ext = rig4.extrinsic(c).cam_in_body if multi else Pose.identity()
            cam = body.compose(ext)
            for _ in range(15):
                ray = unit(rng.normal(size=3) * [0.5, 0.5, 0.1] + [0.0, 0.0, 1.0])
                points.append(cam.apply(ray * rng.uniform(3.0, 15.0)))
                rays.append(ray)
                exts.append(ext)
        rays = np.array(rays)
        rays[[3, 20, 41] if multi else [3, 7, 11]] = [unit(rng.normal(size=3)) for _ in range(3)]
        init = Pose.from_rt(body.rotation @ so3_exp([1.4, -1.6, 1.1]), body.t + [8.0, -6.0, 4.0])
        return np.array(points), rays, init, (exts if multi else None)

    @pytest.mark.parametrize("huber_delta", [math.inf, 0.01])
    @pytest.mark.parametrize("multi", [False, True], ids=["camera", "extrinsics"])
    def test_same_pose_and_one_jacobian_per_iteration(self, rig4, multi, huber_delta,
                                                      monkeypatch):
        points, rays, init, exts = self.scene(rig4, multi)
        want, accepted, rejected = pnp_reference(points, rays, init, exts, huber_delta)
        assert rejected > 0

        calls = {"res": 0, "jac": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(rigvo.sfm, "_unit_ray_residuals",
                            counted("res", _unit_ray_residuals))
        monkeypatch.setattr(rigvo.sfm, "_unit_ray_jacobian", counted("jac", _unit_ray_jacobian))
        got = pnp_refine(points, rays, init, extrinsics=exts, huber_delta=huber_delta)
        assert np.array_equal(got.rotation, want.rotation)
        assert np.array_equal(got.t, want.t)
        groups = 4 if multi else 1
        # the initial pose and each accepted step but the converged last one
        assert calls["jac"] == groups * accepted
        assert calls["res"] == groups * (1 + accepted + rejected)


class TestRayJacobian:
    @pytest.mark.parametrize("camera", [None, 0, 2])
    def test_matches_central_differences(self, rig4, camera):
        # rays up to 1.3 rad off the optical axis; camera None perturbs a
        # camera pose, otherwise a body pose seen through that extrinsic
        rng = np.random.default_rng(9)
        ext = None if camera is None else rig4.extrinsic(camera).cam_in_body
        rot = so3_exp([0.3, -0.2, 0.5])
        t = np.array([0.4, -1.0, 0.7])
        cam = Pose.from_rt(rot, t) if ext is None else Pose.from_rt(rot, t).compose(ext)
        angle = rng.uniform(0.0, 1.3, size=30)
        azimuth = rng.uniform(0.0, 2 * math.pi, size=30)
        dirs = np.stack([np.sin(angle) * np.cos(azimuth), np.sin(angle) * np.sin(azimuth),
                         np.cos(angle)], axis=1)
        points = cam.apply(dirs * rng.uniform(2.0, 10.0, size=(30, 1)))
        rays = np.array([unit(d + rng.normal(scale=0.01, size=3)) for d in dirs])

        jac = _unit_ray_jacobian(_unit_ray_residuals(rot, t, points, rays, ext)[1])
        step = 1e-6
        for k in range(6):
            d = np.zeros(6)
            d[k] = step
            res_plus, _ = _unit_ray_residuals(rot @ so3_exp(d[3:]), t + d[:3], points, rays, ext)
            res_minus, _ = _unit_ray_residuals(rot @ so3_exp(-d[3:]), t - d[:3], points, rays, ext)
            numeric = (res_plus - res_minus) / (2 * step)
            np.testing.assert_allclose(jac[:, :, k], numeric, atol=1e-8)


class TestMonocularSfmWindow:
    def window_rays(self, rig, cam, noise=None, kind="circle", frames=11, seed=40):
        # a window sliced out of a longer run: gentle curvature, real baselines
        traj = generate_trajectory(TrajectorySpec(kind, 60, speed=3.0, seed=seed))
        cloud = sample_landmarks(500, traj, (3.0, 25.0), seed=seed)
        sim = render_observations(rig, traj, cloud, noise or NoiseSpec())
        _, rays, seen = _window_rays(sim.tracks, cam, rig.intrinsic(cam), range(frames))
        ext = rig.extrinsic(cam).cam_in_body
        gt_cam = [traj[t].compose(ext) for t in range(frames)]
        anchor = gt_cam[0].inverse()
        gt_anchored = [anchor.compose(p) for p in gt_cam]
        return rays, seen, gt_anchored

    def test_noiseless_matches_ground_truth(self, rig4):
        for cam in range(2):
            rays, seen, gt = self.window_rays(rig4, cam)
            sfm = monocular_sfm_window(rays, seen, rng=np.random.default_rng(41))
            # Procrustes-style: single positive scale aligns all translations
            num = sum(float(sfm.translations[t] @ gt[t].t) for t in range(len(gt)))
            den = sum(float(sfm.translations[t] @ sfm.translations[t]) for t in range(len(gt)))
            scale = num / den
            assert scale > 0
            for t in range(len(gt)):
                assert rotation_angle(sfm.rotations[t].T @ gt[t].rotation) < 1e-6
                assert np.linalg.norm(scale * sfm.translations[t] - gt[t].t) < 1e-6

    def test_straight_line_with_parallax_succeeds(self, rig4):
        rays, seen, gt = self.window_rays(rig4, 0, kind="straight_line")
        sfm = monocular_sfm_window(rays, seen, rng=np.random.default_rng(42))
        assert len(sfm) == len(gt)
        for t in range(len(gt)):
            assert rotation_angle(sfm.rotations[t].T @ gt[t].rotation) < 1e-5

    def test_insufficient_tracks_fail(self):
        rays = np.repeat([[unit([0.01 * i, 0.0, 1.0])] for i in range(5)], 11, axis=1)
        with pytest.raises(SfmFailure):
            monocular_sfm_window(rays, np.ones((5, 11), dtype=bool))


def test_sfm_trajectory_invariants():
    with pytest.raises(ValueError):
        CameraSfmTrajectory([np.eye(3) * 2.0], [np.zeros(3)])
    with pytest.raises(ValueError):
        CameraSfmTrajectory([np.eye(3)], [np.ones(3)])
