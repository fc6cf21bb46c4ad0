import numpy as np
import pytest

from rigvo.frontend import (
    FeatureCandidate,
    FeatureTrackTable,
    TrackedFeature,
    compute_sfd,
    select_features_3priority,
    track_stability,
    update_track_table,
)

BOUNDS = (0.0, 0.0, 640.0, 480.0)


def cand(x, y, score=1.0):
    return FeatureCandidate(np.array([x, y]), score)


def tracked(tid, x, y, age=5):
    return TrackedFeature(tid, np.array([x, y]), age)


class TestSelector:
    def test_four_quadrants_all_selected(self):
        cands = [cand(100, 100), cand(500, 100), cand(100, 400), cand(500, 400)]
        out = select_features_3priority([], cands, BOUNDS, 4)
        assert len(out) == 4
        assert {tuple(c.pixel) for c in out} == {tuple(c.pixel) for c in cands}

    def test_suppression_radius(self):
        rho = 10.0
        cands = [cand(100, 100)]
        trk = [tracked(0, 105, 100)]  # distance rho/2
        out = select_features_3priority(trk, cands, BOUNDS, 4, suppression_radius=rho)
        assert out == []

    def test_clustered_hand_trace(self):
        # 10 candidates in the NW quadrant (scores 1..10), one in each other
        # quadrant. Root splits once; leaf count reaches 4 = K. The cluster
        # leaf must contribute its score-10 member.
        cluster = [cand(50 + 5 * i, 50 + 3 * i, score=i + 1) for i in range(10)]
        others = [cand(500, 100, 0.5), cand(100, 400, 0.5), cand(500, 400, 0.5)]
        out = select_features_3priority([], cluster + others, BOUNDS, 4)
        assert len(out) == 4
        scores = sorted(c.score for c in out)
        assert scores == [0.5, 0.5, 0.5, 10.0]

    def test_skips_leaves_with_tracked(self):
        cands = [cand(100, 100), cand(500, 100), cand(100, 400), cand(500, 400)]
        trk = [tracked(0, 120, 120)]  # NW quadrant occupied
        out = select_features_3priority(trk, cands, BOUNDS, 4)
        pixels = {tuple(c.pixel) for c in out}
        assert (100.0, 100.0) not in pixels
        assert len(out) == 3

    def test_never_returns_near_tracked(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            cands = [cand(*rng.uniform([0, 0], [640, 480])) for _ in range(50)]
            trk = [tracked(i, *rng.uniform([0, 0], [640, 480])) for i in range(10)]
            out = select_features_3priority(trk, cands, BOUNDS, 20, suppression_radius=15)
            for c in out:
                dmin = min(np.linalg.norm(c.pixel - t.pixel) for t in trk)
                assert dmin >= 15

    def test_at_most_k(self):
        rng = np.random.default_rng(1)
        cands = [cand(*rng.uniform([0, 0], [640, 480])) for _ in range(200)]
        out = select_features_3priority([], cands, BOUNDS, 30)
        assert len(out) <= 30

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        cands = [cand(*rng.uniform([0, 0], [640, 480]), score=rng.random()) for _ in range(80)]
        trk = [tracked(i, *rng.uniform([0, 0], [640, 480])) for i in range(15)]
        a = select_features_3priority(trk, cands, BOUNDS, 25)
        b = select_features_3priority(trk, cands, BOUNDS, 25)
        assert [tuple(c.pixel) for c in a] == [tuple(c.pixel) for c in b]

    def test_empty_candidates(self):
        assert select_features_3priority([], [], BOUNDS, 10) == []

    def test_well_separated_count(self):
        # 16 candidates on a coarse lattice: all separable, K caps the output
        cands = [cand(40 + 160 * i, 60 + 120 * j) for i in range(4) for j in range(4)]
        out = select_features_3priority([], cands, BOUNDS, 16)
        assert len(out) == 16


class TestSfd:
    def test_uniform_is_zero(self):
        feats = []
        for i in range(8):
            for j in range(8):
                feats.append(np.array([40 + 80 * i, 30 + 60 * j]))
        assert compute_sfd(feats, BOUNDS, 8) == 0.0

    def test_single_cluster_hand_value(self):
        feats = [np.array([10.0, 10.0])] * 4
        assert compute_sfd(feats, BOUNDS, 2) == pytest.approx(3.0)

    def test_3priority_beats_score_only_on_clusters(self):
        rng = np.random.default_rng(3)
        wins = 0
        trials = 40
        for _ in range(trials):
            # clustered, high-score blob plus sparse low-score spread
            blob_center = rng.uniform([80, 80], [560, 400])
            blob = [
                cand(*(blob_center + rng.normal(0, 15, 2)), score=rng.uniform(5, 10))
                for _ in range(40)
            ]
            spread = [
                cand(*rng.uniform([0, 0], [640, 480]), score=rng.uniform(0, 1))
                for _ in range(20)
            ]
            cands = blob + spread
            k = 12
            three = select_features_3priority([], cands, BOUNDS, k)
            # the baseline: top-k by score, ties by lowest index
            order = sorted(range(len(cands)), key=lambda i: (-cands[i].score, i))
            score_only = [cands[i] for i in order[:k]]
            sfd3 = compute_sfd([c.pixel for c in three], BOUNDS, 8)
            sfd_s = compute_sfd([c.pixel for c in score_only], BOUNDS, 8)
            if sfd3 <= sfd_s:
                wins += 1
        assert wins == trials


class TestTrackTable:
    def test_static_zero_parallax(self):
        table = FeatureTrackTable(1)
        obs = [[(0, np.array([100.0, 100.0])), (1, np.array([200.0, 150.0]))]]
        for f in range(5):
            assert update_track_table(table, f, obs) is None
        assert table.window_parallax(0, 4) == 0.0

    def test_window_parallax_total(self):
        table = FeatureTrackTable(1)
        for f in range(11):
            obs = [[(0, np.array([10.0 + 3.0 * f, 20.0 + 4.0 * f]))]]
            update_track_table(table, f, obs)
        assert table.window_parallax(0, 10) == pytest.approx(50.0)

    def test_window_parallax_ascending_id_order(self):
        # ids created in the order 9, 2, 5 and ingested at the end frame as
        # 5, 9, 2; the float sum of 1e16, 1 and 1 depends on its order
        table = FeatureTrackTable(1)
        moves = {9: 1e16, 2: 1.0, 5: 1.0}
        for f, tids in enumerate([(9,), (9, 2), (9, 2, 5)]):
            update_track_table(table, f, [[(tid, np.zeros(2)) for tid in tids]])
        update_track_table(table, 3, [[(tid, np.array([moves[tid], 0.0])) for tid in (5, 9, 2)]])
        ascending = float(np.mean([moves[tid] for tid in sorted(moves)]))
        assert ascending != float(np.mean([moves[tid] for tid in (9, 2, 5)]))
        assert table.window_parallax(0, 1) == ascending

    def test_duplicate_id_rejected(self):
        table = FeatureTrackTable(1)
        obs = [[(7, np.array([1.0, 1.0])), (7, np.array([2.0, 2.0]))]]
        update_track_table(table, 0, obs)
        assert len(table.tracks[0][7]) == 1
        np.testing.assert_array_equal(table.tracks[0][7][0][1], [1.0, 1.0])
        assert table.duplicates_rejected == 1

    def test_non_consecutive_frame_raises(self):
        table = FeatureTrackTable(1)
        update_track_table(table, 0, [[]])
        with pytest.raises(ValueError):
            update_track_table(table, 2, [[]])

    def test_lifespans(self):
        table = FeatureTrackTable(2)
        for f in range(6):
            cam0 = [(0, np.array([f * 1.0, 0.0]))] if f < 4 else []
            cam1 = [(0, np.array([0.0, f * 1.0]))]
            update_track_table(table, f, [cam0, cam1])
        assert len(table.tracks[0][0]) == 4
        assert len(table.tracks[1][0]) == 6


def scan_observations_at(table, cam, frame):
    """observations_at by a scan of every track: the reference."""
    return sorted(
        ((tid, pix) for tid, obs in table.tracks[cam].items() for f, pix in obs if f == frame),
        key=lambda item: item[0],
    )


def scan_first_frame(table):
    firsts = [obs[0][0] for cam_tracks in table.tracks for obs in cam_tracks.values()]
    return min(firsts + [table.last_frame])


def scan_stability(table, cam, window):
    start, end = window
    counts = [sum(1 for f, _ in obs if start <= f <= end) for obs in table.tracks[cam].values()]
    counts = [n for n in counts if n > 0]
    return float(np.mean(counts)) if counts else 0.0


def scan_parallax(table, cam, span, end):
    """Per-track np.linalg.norm, averaged in the order of tracks."""
    disps = []
    for obs in table.tracks[cam].values():
        by_frame = dict(obs)
        if end - span in by_frame and end in by_frame:
            disps.append(np.linalg.norm(by_frame[end] - by_frame[end - span]))
    return float(np.mean(disps)) if disps else 0.0


@pytest.fixture(scope="module")
def sim_table():
    """Track table of a rendered 4-camera run with 0.5 px noise and 5 % dropout."""
    from conftest import make_test_rig
    from rigvo.simulator import (
        NoiseSpec, TrajectorySpec, generate_trajectory, render_observations, sample_landmarks,
    )

    traj = generate_trajectory(TrajectorySpec("lemniscate", 40, speed=3.0))
    cloud = sample_landmarks(400, traj, (3.0, 25.0), seed=3)
    noise = NoiseSpec(pixel_sigma=0.5, dropout_prob=0.05, seed=4)
    return render_observations(make_test_rig(4), traj, cloud, noise).tracks


class TestTrackIndex:
    """The frame index answers every query as a scan of tracks does."""

    def test_ingest_order_is_not_id_order(self, sim_table):
        # the simulator ingests in landmark order, so window_parallax must
        # restore creation order itself to match the scan bit for bit
        assert any(
            list(obs) != sorted(obs) for cam_frames in sim_table.frame_obs
            for obs in cam_frames.values()
        )

    def test_observations_at_and_frames(self, sim_table):
        assert sim_table.first_frame == scan_first_frame(sim_table)
        for cam in range(sim_table.n_cameras):
            for f in range(-1, sim_table.last_frame + 2):
                got = sim_table.observations_at(cam, f)
                want = scan_observations_at(sim_table, cam, f)
                assert [tid for tid, _ in got] == [tid for tid, _ in want]
                # the index holds the arrays of tracks, not copies
                assert all(a is b for (_, a), (_, b) in zip(got, want))

    def test_track_stability(self, sim_table):
        for cam in range(sim_table.n_cameras):
            for end in range(sim_table.last_frame + 1):
                for span in range(11):
                    window = (end - span, end)
                    assert track_stability(sim_table, cam, window) == scan_stability(
                        sim_table, cam, window
                    )

    def test_window_parallax_bitwise(self, sim_table):
        for cam in range(sim_table.n_cameras):
            for end in range(sim_table.last_frame + 1):
                for span in range(1, 11):
                    assert sim_table.window_parallax(cam, span, end) == scan_parallax(
                        sim_table, cam, span, end
                    )

    def test_duplicate_enters_neither_index(self):
        table = FeatureTrackTable(1)
        first, second = np.array([1.0, 1.0]), np.array([2.0, 2.0])
        update_track_table(table, 0, [[(7, first), (7, second)]])
        assert table.tracks[0][7] == [(0, first)]
        assert table.frame_obs[0][0] == {7: first}
        assert table.duplicates_rejected == 1


class TestStability:
    def test_full_window(self):
        table = FeatureTrackTable(1)
        for f in range(10):
            update_track_table(table, f, [[(0, np.array([1.0, 1.0])), (1, np.array([2.0, 2.0]))]])
        assert track_stability(table, 0, (0, 9)) == pytest.approx(10.0)

    def test_ranking(self):
        table = FeatureTrackTable(2)
        for f in range(10):
            cam0 = [(0, np.array([1.0, 1.0])), (1, np.array([2.0, 2.0]))]
            cam1 = [(f // 2, np.array([3.0, 3.0]))]  # 2-frame tracks
            update_track_table(table, f, [cam0, cam1])
        assert track_stability(table, 0, (0, 9)) > track_stability(table, 1, (0, 9))
