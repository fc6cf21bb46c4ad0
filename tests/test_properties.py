"""Property tests: round trips and invariances checked over generated inputs.

Every test runs a fixed, derandomized set of examples and keeps no example
database, so a run repeats exactly. conftest.py points Hypothesis's
storage (its cache of constants mined from local modules) out of the
checkout.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rigvo.geometry import Pose, so3_exp, so3_log
from rigvo.scale import build_scale_system, solve_scales
from rigvo.sfm import CameraSfmTrajectory, triangulate_many
from rigvo.simulator import TrajectorySpec, generate_trajectory

from conftest import make_scale_ambiguous_sfm, make_test_rig

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=200)
unit = st.floats(-1.0, 1.0)
vec3 = st.tuples(unit, unit, unit).map(np.array)
coord = st.floats(-20.0, 20.0)
point3 = st.tuples(coord, coord, coord).map(np.array)


def rotation_vector(max_angle):
    """Axis-angle 3-vectors with angle in [0, max_angle]."""
    def build(args):
        axis, angle = args
        return axis / np.linalg.norm(axis) * angle

    return st.tuples(vec3.filter(lambda v: np.linalg.norm(v) > 1e-3),
                     st.floats(0.0, max_angle)).map(build)


poses = st.tuples(rotation_vector(math.pi), point3).map(lambda a: Pose.from_rt(so3_exp(a[0]), a[1]))


# past pi/2 so3_log takes the axis from the direction of vee(R - R^T), whose
# error grows only as eps / (pi - angle), about 2e-11 rad at 1e-5 from pi
@SETTINGS
@given(rotation_vector(math.pi - 1e-5))
def test_so3_log_inverts_exp(vec):
    rot = so3_exp(vec)
    np.testing.assert_allclose(rot @ rot.T, np.eye(3), atol=1e-14)
    np.testing.assert_allclose(so3_log(rot), vec, rtol=0, atol=1e-10)
    np.testing.assert_allclose(so3_exp(so3_log(rot)), rot, rtol=0, atol=1e-10)


@SETTINGS
@given(poses, poses, point3)
def test_pose_compose_inverse_round_trips(a, b, x):
    ident = a.compose(a.inverse())
    np.testing.assert_allclose(ident.rotation, np.eye(3), atol=1e-14)
    np.testing.assert_allclose(ident.t, 0.0, atol=1e-12)
    twice = a.inverse().inverse()
    np.testing.assert_allclose(twice.rotation, a.rotation, atol=1e-14)
    np.testing.assert_allclose(twice.t, a.t, atol=1e-12)
    undone = a.compose(b).compose(b.inverse())
    np.testing.assert_allclose(undone.rotation, a.rotation, atol=1e-14)
    np.testing.assert_allclose(undone.t, a.t, atol=1e-11)
    np.testing.assert_allclose(a.compose(b).apply(x), a.apply(b.apply(x)), atol=1e-11)


@st.composite
def triangulation_scenes(draw):
    """Points, 2 to 6 views and which views see each point (at least two)."""
    n_views = draw(st.integers(2, 6))
    n_points = draw(st.integers(1, 4))
    rotations = np.array([so3_exp(draw(rotation_vector(math.pi))) for _ in range(n_views)])
    centers = np.array([draw(point3) for _ in range(n_views)])
    points = np.array([draw(point3) for _ in range(n_points)])
    seen = np.array([draw(st.lists(st.booleans(), min_size=n_views, max_size=n_views))
                     for _ in range(n_points)])
    assume(seen.sum(axis=1).min() >= 2)
    return rotations, centers, points, seen


MIN_ANGLE = 0.02  # rad


@SETTINGS
@given(triangulation_scenes())
def test_triangulate_many_recovers_exact_rays(scene):
    rotations, centers, points, seen = scene
    offsets = points[:, None, :] - centers[None, :, :]  # (N,V,3) world
    dist = np.linalg.norm(offsets, axis=2)
    assume(dist.min() > 0.5)
    world_dirs = offsets / dist[..., None]
    rays = np.einsum("vji,nvj->nvi", rotations, world_dirs)  # R^T d per view
    out, depths, ok = triangulate_many(rotations, centers, rays, seen, min_angle=MIN_ANGLE)

    for n in range(len(points)):
        views = np.flatnonzero(seen[n])
        dots = np.abs(world_dirs[n, views] @ world_dirs[n, views].T)
        widest = math.acos(min(1.0, dots.min()))
        if widest >= 2.0 * MIN_ANGLE:
            assert ok[n]
        if not ok[n]:
            continue
        # midpoint error grows as rays close up: eps * range / sin(angle)
        tol = 1e-9 * dist[n].max() / math.sin(widest)
        np.testing.assert_allclose(out[n], points[n], rtol=0, atol=tol)
        np.testing.assert_allclose(depths[n, views], dist[n, views], rtol=0, atol=tol)
        np.testing.assert_array_equal(depths[n, ~seen[n]], 0.0)


RIG4 = make_test_rig(4)
EXTRINSICS = [RIG4.extrinsic(c) for c in range(4)]
NOISY_SFMS = make_scale_ambiguous_sfm(
    RIG4, generate_trajectory(TrajectorySpec("circle", 11, speed=3.0)), [1.0, 2.0, 0.5, 3.0])
_rng = np.random.default_rng(80)
for _sfm in NOISY_SFMS:
    for _t in range(1, len(_sfm)):
        _sfm.translations[_t] = _sfm.translations[_t] + _rng.normal(scale=0.01, size=3)


def divided(sfm, k):
    return CameraSfmTrajectory(sfm.camera_index, list(sfm.rotations),
                               [t / k for t in sfm.translations])


@settings(SETTINGS, max_examples=100)
@given(st.integers(0, 3), st.floats(0.1, 10.0))
def test_solve_scales_equivariant_under_camera_rescaling(cam, k):
    # dividing one camera's translations by k scales its column of F by
    # 1/k, so the least-squares scale of that camera grows by k exactly
    base = solve_scales(build_scale_system(NOISY_SFMS, EXTRINSICS))
    sfms = [divided(s, k) if c == cam else s for c, s in enumerate(NOISY_SFMS)]
    scaled = solve_scales(build_scale_system(sfms, EXTRINSICS))
    expected = base.scales.copy()
    expected[cam] *= k
    np.testing.assert_allclose(scaled.scales, expected, rtol=1e-9)
    np.testing.assert_allclose(scaled.residual_rms, base.residual_rms, rtol=1e-9)
