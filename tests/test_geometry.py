import math

import numpy as np
import pytest

from rigvo.geometry import (
    CameraExtrinsic,
    CameraIntrinsic,
    CameraModel,
    Pose,
    ProjectionError,
    RigConfig,
    body_pose_from_camera,
    matrix_to_quat,
    project,
    project_many,
    skew,
    so3_exp,
    so3_log,
    unproject,
    unproject_many,
)

from conftest import rotation_angle
from scalar_reference import scalar_project


def rot_z(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rot_x(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def random_pose(rng):
    v = rng.normal(size=3)
    angle = rng.uniform(0, math.pi * 0.95)
    rot = so3_exp(v / np.linalg.norm(v) * angle)
    return Pose.from_rt(rot, rng.normal(size=3) * 5.0)


PINHOLE = CameraIntrinsic(CameraModel.PINHOLE, 100.0, 100.0, 50.0, 50.0, 1.2, 640, 480)
FISHEYE = CameraIntrinsic(CameraModel.EQUIDISTANT, 100.0, 100.0, 0.0, 0.0, math.pi * 0.9, 640, 480)


class TestCompose:
    def test_identity(self):
        rng = np.random.default_rng(0)
        p = random_pose(rng)
        out = Pose.identity().compose(p)
        np.testing.assert_allclose(out.matrix(), p.matrix(), atol=1e-14)

    def test_rz90_twice(self):
        p = Pose.from_rt(rot_z(math.pi / 2), np.zeros(3))
        out = p.compose(p)
        np.testing.assert_allclose(out.rotation, rot_z(math.pi), atol=1e-12)
        np.testing.assert_allclose(out.t, np.zeros(3), atol=1e-12)

    def test_inverse_law(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = random_pose(rng)
            out = p.compose(p.inverse())
            np.testing.assert_allclose(out.matrix(), np.eye(4), atol=1e-12)

    def test_associativity(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a, b, c = random_pose(rng), random_pose(rng), random_pose(rng)
            left = a.compose(b).compose(c)
            right = a.compose(b.compose(c))
            np.testing.assert_allclose(left.matrix(), right.matrix(), atol=1e-10)

    def test_inverse_of_compose(self):
        rng = np.random.default_rng(3)
        a, b = random_pose(rng), random_pose(rng)
        lhs = a.compose(b).inverse()
        rhs = b.inverse().compose(a.inverse())
        np.testing.assert_allclose(lhs.matrix(), rhs.matrix(), atol=1e-12)

    def test_rotation_stays_orthonormal(self):
        # nothing re-orthonormalizes a stored rotation, so round-off from a
        # long chain of products must stay small
        rng = np.random.default_rng(4)
        p = random_pose(rng)
        for _ in range(500):
            p = p.compose(random_pose(rng))
        assert np.abs(p.rotation.T @ p.rotation - np.eye(3)).max() < 1e-12


class TestPoseStorage:
    """A Pose holds a rotation matrix: its operations are the 4x4
    homogeneous products, and it owns its arrays."""

    def test_matches_homogeneous_products(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            a, b = random_pose(rng), random_pose(rng)
            m_a, m_b = a.matrix(), b.matrix()
            np.testing.assert_array_equal(m_a[:3, :3], a.rotation)
            np.testing.assert_array_equal(m_a[:3, 3], a.t)
            np.testing.assert_array_equal(m_a[3], [0.0, 0.0, 0.0, 1.0])
            np.testing.assert_allclose(a.compose(b).matrix(), m_a @ m_b, rtol=0, atol=1e-12)
            np.testing.assert_allclose(a.inverse().matrix(), np.linalg.inv(m_a), rtol=0,
                                       atol=1e-12)
            pts = rng.normal(size=(7, 3)) * 10.0
            homog = np.hstack([pts, np.ones((7, 1))]) @ m_a.T
            np.testing.assert_allclose(a.apply(pts), homog[:, :3], rtol=0, atol=1e-12)

    def test_quaternion_in_and_out(self):
        # Pose(q).q is q normalized, up to the sign that makes w >= 0
        rng = np.random.default_rng(14)
        for _ in range(200):
            q = rng.normal(size=4) * rng.uniform(0.1, 10.0)
            unit_q = q / np.linalg.norm(q)
            np.testing.assert_allclose(Pose(q).q, math.copysign(1.0, q[3]) * unit_q,
                                       rtol=0, atol=1e-12)

    def test_from_rt_and_copy_own_their_arrays(self):
        rot, t = so3_exp([0.1, -0.2, 0.3]), np.array([1.0, 2.0, 3.0])
        pose = Pose.from_rt(rot, t)
        dup = pose.copy()
        want = pose.matrix()
        rot[:] = 0.0
        t[:] = 0.0
        np.testing.assert_array_equal(pose.matrix(), want)
        pose.rotation[:] = 0.0
        pose.t[:] = 0.0
        np.testing.assert_array_equal(dup.matrix(), want)


class TestInverse:
    def test_identity(self):
        out = Pose.identity().inverse()
        np.testing.assert_allclose(out.matrix(), np.eye(4), atol=1e-15)

    def test_pure_translation(self):
        p = Pose(t=[1.0, 2.0, 3.0])
        out = p.inverse()
        np.testing.assert_allclose(out.t, [-1.0, -2.0, -3.0], atol=1e-15)

    def test_double_inverse(self):
        rng = np.random.default_rng(5)
        p = random_pose(rng)
        out = p.inverse().inverse()
        np.testing.assert_allclose(out.matrix(), p.matrix(), atol=1e-12)


class TestSkew:
    def test_single_vector(self):
        np.testing.assert_array_equal(
            skew([1.0, 2.0, 3.0]), [[0.0, -3.0, 2.0], [3.0, 0.0, -1.0], [-2.0, 1.0, 0.0]]
        )

    def test_rows_match_cross_product(self):
        rng = np.random.default_rng(6)
        v = rng.normal(size=(50, 3))
        w = rng.normal(size=3)
        mats = skew(v)
        assert mats.shape == (50, 3, 3)
        np.testing.assert_allclose(mats @ w, np.cross(v, w), rtol=1e-14, atol=1e-15)


class TestSo3LogExp:
    def test_log_identity(self):
        np.testing.assert_allclose(so3_log(np.eye(3)), np.zeros(3), atol=1e-15)

    def test_exp_z(self):
        np.testing.assert_allclose(so3_exp([0.0, 0.0, math.pi / 2]), rot_z(math.pi / 2), atol=1e-12)

    def test_round_trip_random(self):
        rng = np.random.default_rng(6)
        worst = 0.0
        for _ in range(1000):
            v = rng.normal(size=3)
            v = v / np.linalg.norm(v) * rng.uniform(1e-6, math.pi - 1e-4)
            rot = so3_exp(v)
            err = np.linalg.norm(so3_log(rot) - v)
            worst = max(worst, err)
        assert worst < 1e-9

    def test_angle_pi_deterministic(self):
        rot = rot_x(math.pi)
        v1 = so3_log(rot)
        v2 = so3_log(rot.copy())
        np.testing.assert_array_equal(v1, v2)
        assert abs(np.linalg.norm(v1) - math.pi) < 1e-9
        np.testing.assert_allclose(so3_exp(v1), rot, atol=1e-9)
        # dominant component positive, per the documented convention
        assert v1[int(np.argmax(np.abs(v1)))] > 0

    def test_small_angles(self):
        v = np.array([1e-10, -2e-10, 5e-11])
        np.testing.assert_allclose(so3_log(so3_exp(v)), v, atol=1e-15)


class TestProjection:
    def test_pinhole_on_axis(self):
        np.testing.assert_allclose(project([0.0, 0.0, 1.0], PINHOLE), [50.0, 50.0], atol=1e-12)

    def test_pinhole_closed_form(self):
        np.testing.assert_allclose(project([1.0, 0.0, 2.0], PINHOLE), [100.0, 50.0], atol=1e-12)

    def test_pinhole_behind_camera(self):
        assert project([0.0, 0.0, -1.0], PINHOLE) is None

    def test_equidistant_closed_form(self):
        theta = math.pi / 4
        point = [math.sin(theta), 0.0, math.cos(theta)]
        np.testing.assert_allclose(project(point, FISHEYE), [100.0 * theta, 0.0], atol=1e-9)
        assert abs(100.0 * theta - 78.5398) < 1e-3

    def test_fisheye_out_of_fov(self):
        wide = CameraIntrinsic(CameraModel.EQUIDISTANT, 100, 100, 0, 0, math.pi / 3, 640, 480)
        theta = math.pi / 2
        assert project([math.sin(theta), 0.0, math.cos(theta)], wide) is None

    def test_unproject_principal_point(self):
        np.testing.assert_allclose(unproject([50.0, 50.0], PINHOLE), [0.0, 0.0, 1.0], atol=1e-12)

    def test_unproject_equidistant_closed_form(self):
        ray = unproject([78.5398, 0.0], FISHEYE)
        theta = math.atan2(math.hypot(ray[0], ray[1]), ray[2])
        assert abs(theta - math.pi / 4) < 1e-4

    def test_unproject_out_of_model(self):
        narrow = CameraIntrinsic(CameraModel.EQUIDISTANT, 100, 100, 0, 0, 0.5, 640, 480)
        with pytest.raises(ProjectionError):
            unproject([100.0, 0.0], narrow)

    @pytest.mark.parametrize("intr", [PINHOLE, FISHEYE], ids=["pinhole", "equidistant"])
    def test_round_trip_10k(self, intr):
        rng = np.random.default_rng(7)
        n = 10_000
        theta = rng.uniform(0.0, intr.fov_limit * 0.99, size=n)
        phi = rng.uniform(0.0, 2 * math.pi, size=n)
        rays = np.stack(
            [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)], axis=1
        )
        depths = rng.uniform(0.5, 20.0, size=n)
        pix, valid = project_many(rays * depths[:, None], intr)
        assert valid.all()
        rays_back = unproject_many(pix, intr)
        pix2, valid2 = project_many(rays_back * 3.0, intr)
        assert valid2.all()
        assert np.max(np.linalg.norm(pix2 - pix, axis=1)) < 1e-6

    def test_project_many_matches_scalar(self):
        rng = np.random.default_rng(8)
        pts = np.concatenate([
            rng.normal(size=(2000, 3)) + [0, 0, 3.0],
            rng.normal(size=(200, 3)) - [0, 0, 3.0],  # behind the camera
            rng.normal(size=(200, 3)) * [30.0, 30.0, 1.0],  # mostly out of FoV
            [[0.0, 0.0, 2.0], [0.0, 0.0, -2.0], [1e-13, -1e-13, 1.0],
             [-1e-13, 0.0, -1.0], [0.0, 0.0, 0.0]],  # on the optical axis
        ])
        for intr in (PINHOLE, FISHEYE):
            pix, valid = project_many(pts, intr)
            assert 0 < valid.sum() < len(pts)
            for i, point in enumerate(pts):
                single = scalar_project(point, intr)
                one = project(point, intr)
                if single is None:
                    assert not valid[i] and one is None
                    assert np.isnan(pix[i]).all()
                else:
                    assert valid[i]
                    np.testing.assert_array_equal(pix[i], single)
                    np.testing.assert_array_equal(one, single)


class TestBodyPoseFromCamera:
    def test_identity_extrinsic_unit_scale(self):
        rng = np.random.default_rng(9)
        cam = random_pose(rng)
        ext = CameraExtrinsic(Pose.identity())
        out = body_pose_from_camera(cam, ext, 1.0)
        np.testing.assert_allclose(out.matrix(), cam.matrix(), atol=1e-12)

    def test_scale_doubles_translation_term(self):
        rng = np.random.default_rng(10)
        cam = random_pose(rng)
        ext = CameraExtrinsic(Pose(t=[0.3, -0.1, 0.2]))
        b1 = body_pose_from_camera(cam, ext, 1.0)
        b2 = body_pose_from_camera(cam, ext, 2.0)
        np.testing.assert_array_equal(b1.rotation, b2.rotation)
        np.testing.assert_allclose(b2.t - b1.t, cam.t, atol=1e-12)

    def test_rotation_bitwise_independent_of_scale(self):
        rng = np.random.default_rng(11)
        cam = random_pose(rng)
        ext = CameraExtrinsic(random_pose(rng))
        rots = [body_pose_from_camera(cam, ext, s).rotation for s in (0.1, 1.0, 10.0)]
        np.testing.assert_array_equal(rots[0], rots[1])
        np.testing.assert_array_equal(rots[1], rots[2])

    def test_matches_dense_matrix_oracle(self):
        # oracle: form the 4x4 block product directly
        r_ext = rot_z(math.pi / 2)
        t_ext = np.array([1.0, 0.0, 0.0])
        cam_rot = rot_x(math.pi / 6)
        cam_t = np.array([0.0, 1.0, 0.0])
        s = 2.0

        left = np.eye(4)
        left[:3, :3] = cam_rot
        left[:3, 3] = s * cam_t
        right = np.eye(4)
        right[:3, :3] = r_ext.T
        right[:3, 3] = -r_ext.T @ t_ext
        expected = left @ right

        ext = CameraExtrinsic(Pose.from_rt(r_ext, t_ext))
        out = body_pose_from_camera(Pose.from_rt(cam_rot, cam_t), ext, s)
        np.testing.assert_allclose(out.matrix(), expected, atol=1e-12)

    def test_rejects_nonpositive_scale(self):
        ext = CameraExtrinsic(Pose.identity())
        with pytest.raises(ValueError):
            body_pose_from_camera(Pose.identity(), ext, 0.0)
        with pytest.raises(ValueError):
            body_pose_from_camera(Pose.identity(), ext, -1.0)


class TestRigConfig:
    def test_requires_two_cameras(self):
        with pytest.raises(ValueError):
            RigConfig([(PINHOLE, CameraExtrinsic(Pose.identity()))])


def test_matrix_quat_round_trip():
    rng = np.random.default_rng(12)
    for _ in range(200):
        v = rng.normal(size=3)
        rot = so3_exp(v / np.linalg.norm(v) * rng.uniform(0, math.pi - 1e-6))
        q = matrix_to_quat(rot)
        assert abs(np.linalg.norm(q) - 1.0) < 1e-12
        np.testing.assert_allclose(Pose(q, np.zeros(3)).rotation, rot, atol=1e-16, rtol=1e-7)


def test_rotation_angle():
    assert abs(rotation_angle(rot_z(0.3)) - 0.3) < 1e-12
    # relative precision from 1e-12 rad, far below where an acos of the
    # trace reads 0, up to near pi
    rng = np.random.default_rng(15)
    angles = np.concatenate([np.geomspace(1e-12, 1.0, 61), np.linspace(1.0, math.pi - 1e-6, 40)])
    for a in angles:
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        assert abs(rotation_angle(so3_exp(a * axis)) - a) <= 1e-6 * a, a
