"""Tests of the benchmark's own checkers (python3 -m pytest vobench)."""

import math

import numpy as np
import pytest

from evaluate import (
    TAIL_SAMPLES,
    anchored_camera_translations,
    ate_rmse,
    fit_scale,
    prior_is_psd,
    rpe_rmse,
    sim3_scale,
    tail_percentile,
    umeyama,
)


def _rot_z(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _rot_x(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def _trajectory(n=40):
    """A curved, non-planar body trajectory with heading along the path."""
    a = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    pos = np.stack([3.0 * np.sin(a), 2.0 * np.sin(2.0 * a), 0.3 * np.cos(a)], axis=1)
    rot = np.array([_rot_z(0.7 * x) @ _rot_x(0.1 * math.sin(x)) for x in a])
    return rot, pos


def test_umeyama_recovers_transform_and_ate_is_zero():
    _, pos = _trajectory()
    rot = _rot_z(0.9) @ _rot_x(-0.4)
    shift = np.array([1.5, -2.0, 0.7])
    moved = pos @ rot.T + shift  # gt = R est + t with est = pos
    scale, rot_fit, t_fit = umeyama(pos, moved)
    assert scale == 1.0
    np.testing.assert_allclose(rot_fit, rot, atol=1e-12)
    np.testing.assert_allclose(t_fit, shift, atol=1e-12)
    assert ate_rmse(pos, moved) < 1e-12
    assert abs(sim3_scale(pos, moved) - 1.0) < 1e-12


def test_sim3_scale_recovers_factor_and_ate_sees_it():
    _, pos = _trajectory()
    assert sim3_scale(pos, 1.25 * pos) == pytest.approx(1.25, abs=1e-12)
    assert ate_rmse(pos, 1.25 * pos) > 0.1


def test_rpe_zero_on_exact_copy_and_positive_on_drift():
    rot, pos = _trajectory()
    assert rpe_rmse(rot, pos, rot, pos) == 0.0
    drifted = pos + np.linspace(0.0, 0.5, len(pos))[:, None] * np.array([1.0, 0.0, 0.0])
    assert rpe_rmse(rot, drifted, rot, pos) > 0.0
    with pytest.raises(ValueError):
        rpe_rmse(rot[:10], pos[:10], rot[:10], pos[:10], segment=10)


def test_ground_truth_scale_fit_recovers_known_factor():
    rot, pos = _trajectory(11)
    ext_rot = _rot_z(0.5) @ _rot_x(-math.pi / 2)
    ext_t = np.array([0.25, 0.1, 0.0])
    true_t = anchored_camera_translations(rot, pos, ext_rot, ext_t)
    np.testing.assert_allclose(true_t[0], 0.0, atol=1e-15)
    # a monocular reconstruction recovers true_t / s up to the factor s
    assert fit_scale(true_t / 2.5, true_t) == pytest.approx(2.5, rel=1e-12)


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(list(range(99))) is None
    samples = list(range(100))
    assert tail_percentile(samples) == 89
    assert sum(1 for s in samples if s > 89) == TAIL_SAMPLES
    assert tail_percentile([5.0] * 200) is None  # ties: nothing lies beyond
    assert tail_percentile([]) is None


def test_prior_psd_check():
    j = np.random.default_rng(0).normal(size=(30, 12))
    h = j.T @ j
    assert prior_is_psd(h)
    vals = np.linalg.eigvalsh(h)
    # shifted so the smallest eigenvalue is -1e-6 of the largest
    assert not prior_is_psd(h - (vals[0] + 1e-6 * vals[-1]) * np.eye(12))
    bent = h.copy()
    bent[0, 1] += 1.0
    assert not prior_is_psd(bent)
