"""Feature bookkeeping: track tables, the 3-priority quadtree selector,
parallax statistics, and the spatial feature distribution metric.

Frame indices are global and strictly increasing; a track never spans
cameras. Parallax windows are given as an interval span: a span of 10
covers 11 consecutive frames.

A FeatureTrackTable keeps two indexes over the same pixel arrays: tracks
(camera -> track id -> observations in frame order, ids in creation order)
and frame_obs (camera -> frame -> track id -> pixel, ids in ingest order).
Ingest only appends to both and computes nothing; every query reads
frame_obs, so its cost is that of the observations in the frames it asks
about, not of the whole run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MIN_CELL_SIDE = 8.0  # px, quadtree split floor
DEFAULT_SUPPRESSION_RADIUS = 10.0  # px
DEFAULT_SFD_GRID = 8


@dataclass
class FeatureCandidate:
    pixel: np.ndarray  # (2,) px
    score: float


@dataclass
class TrackedFeature:
    id: int
    pixel: np.ndarray  # (2,) px
    age: int = 1


class FeatureTrackTable:
    """Per-camera feature tracks with a track-id index and a frame index.

    tracks[cam][tid] is a list of (frame_index, pixel) with strictly
    increasing frame indices; its keys are in track creation order (the
    frame of a track's first observation, then ingest order within it).
    frame_obs[cam][frame] maps each track id observed by the camera at the
    frame to its pixel, in ingest order, and holds the same pixel arrays
    as tracks. first_seen[cam] is the camera's first observed frame, None
    before its first observation. duplicates_rejected counts the duplicate
    track ids update_track_table has rejected.

    update_track_table only stores. Queries read frame_obs, so a call costs
    O(observations in the frames it asks about), however many frames the
    table holds, and each one orders tracks by ascending id.
    """

    def __init__(self, n_cameras):
        self.n_cameras = n_cameras
        self.tracks = [{} for _ in range(n_cameras)]
        self.frame_obs = [{} for _ in range(n_cameras)]
        self.first_seen = [None] * n_cameras
        self.last_frame = None
        self.duplicates_rejected = 0

    def observations_at(self, cam, frame):
        """List of (track_id, pixel) observed by a camera at a frame."""
        return sorted(self.frame_obs[cam].get(frame, {}).items(), key=lambda item: item[0])

    @property
    def first_frame(self):
        """First frame any camera observed (last_frame until one has)."""
        return min((f for f in self.first_seen if f is not None), default=self.last_frame)

    def window_parallax(self, cam, span, end_frame=None):
        """Mean endpoint pixel displacement of tracks alive across the span.

        Considers tracks observed at both end_frame - span and end_frame,
        averaged in ascending track-id order whatever the ingest order;
        returns 0.0 when no track covers the span.
        """
        end = self.last_frame if end_frame is None else end_frame
        if end is None:
            return 0.0
        end_obs = self.frame_obs[cam].get(end, {})
        start_obs = self.frame_obs[cam].get(end - span, {})
        common = [tid for tid in end_obs if tid in start_obs]
        if not common:
            return 0.0
        common.sort()
        d = np.array([end_obs[t] for t in common]) - np.array([start_obs[t] for t in common])
        # vecdot is the dot product np.linalg.norm takes per row: same bits
        return float(np.mean(np.sqrt(np.vecdot(d, d))))


def update_track_table(table: FeatureTrackTable, frame_index, per_camera_obs):
    """Ingest one frame of observations into both indexes; returns None.

    per_camera_obs: for each camera, an iterable of (track_id, pixel).
    Pixels are stored as given, one object in both indexes, neither copied
    nor converted. Nothing is computed here: parallax and stability are
    queries (FeatureTrackTable.window_parallax, track_stability). Duplicate
    ids within one camera frame are rejected and counted; the first
    occurrence is kept. A rejected observation enters neither index. Frames
    are consecutive, so every track's frames increase.
    """
    if table.last_frame is not None and frame_index != table.last_frame + 1:
        raise ValueError(
            f"frame_index {frame_index} does not follow last index {table.last_frame}"
        )
    if len(per_camera_obs) != table.n_cameras:
        raise ValueError("observation list does not match camera count")

    for cam, obs_list in enumerate(per_camera_obs):
        tracks = table.tracks[cam]
        frame_obs = table.frame_obs[cam].setdefault(frame_index, {})
        seen = set()
        for tid, pixel in obs_list:
            if tid in seen:
                table.duplicates_rejected += 1
                continue
            seen.add(tid)
            tracks.setdefault(tid, []).append((frame_index, pixel))
            frame_obs[tid] = pixel
        if frame_obs and table.first_seen[cam] is None:
            table.first_seen[cam] = frame_index

    table.last_frame = frame_index


def track_stability(table: FeatureTrackTable, cam, window):
    """Mean in-window track lifespan; the principal-camera ranking statistic.

    window: inclusive (start_frame, end_frame).
    """
    start, end = window
    tids = set()
    total = 0
    for f in range(start, end + 1):
        obs = table.frame_obs[cam].get(f, {})
        tids.update(obs)
        total += len(obs)
    # integer sum over integer count: the value np.mean of the lifespans gives
    return total / len(tids) if tids else 0.0


def _morton(gx, gy):
    code = 0
    for bit in range(16):
        code |= ((gx >> bit) & 1) << (2 * bit)
        code |= ((gy >> bit) & 1) << (2 * bit + 1)
    return code


class _Cell:
    __slots__ = ("x0", "y0", "w", "h", "gx", "gy", "depth", "tracked", "cands")

    def __init__(self, x0, y0, w, h, gx, gy, depth, tracked, cands):
        self.x0, self.y0, self.w, self.h = x0, y0, w, h
        self.gx, self.gy, self.depth = gx, gy, depth
        self.tracked = tracked
        self.cands = cands

    @property
    def count(self):
        return len(self.tracked) + len(self.cands)

    def z_key(self):
        shift = 16 - self.depth
        return _morton(self.gx << shift, self.gy << shift)

    def splittable(self):
        return self.count > 1 and min(self.w, self.h) / 2.0 >= MIN_CELL_SIDE


def select_features_3priority(
    tracked,
    candidates,
    bounds,
    target_count,
    suppression_radius=DEFAULT_SUPPRESSION_RADIUS,
):
    """Spatially uniform candidate selection over a quadtree.

    Priority rules: cells with more features are split first; candidates
    near tracked features are suppressed; the highest-score survivor wins
    its cell. Returns at most target_count candidates, deterministically
    (ties by z-order of cell origin, then lowest candidate index).

    bounds: (x0, y0, width, height) image rect.
    """
    if target_count <= 0:
        raise ValueError("target_count must be positive")
    if suppression_radius < 0:
        raise ValueError("suppression_radius must be non-negative")
    if not candidates:
        return []

    x0, y0, width, height = bounds
    cand_px = np.array([np.asarray(c.pixel, dtype=float) for c in candidates])
    tracked_px = (
        np.array([np.asarray(t.pixel, dtype=float) for t in tracked])
        if tracked
        else np.zeros((0, 2))
    )

    # candidates inside the suppression radius of any tracked feature are out
    if len(tracked_px) and suppression_radius > 0:
        d2 = ((cand_px[:, None, :] - tracked_px[None, :, :]) ** 2).sum(axis=2)
        suppressed = (d2 < suppression_radius**2).any(axis=1)
    else:
        suppressed = np.zeros(len(candidates), dtype=bool)

    root = _Cell(
        x0, y0, float(width), float(height), 0, 0, 0,
        list(range(len(tracked_px))), list(range(len(candidates))),
    )
    leaves = [root]

    def split_order(cell):
        return (-cell.count, cell.z_key())

    while len(leaves) < target_count:
        splittable = [c for c in leaves if c.splittable()]
        if not splittable:
            break
        cell = min(splittable, key=split_order)
        leaves.remove(cell)
        hw, hh = cell.w / 2.0, cell.h / 2.0
        for dy in (0, 1):
            for dx in (0, 1):
                cx0, cy0 = cell.x0 + dx * hw, cell.y0 + dy * hh
                in_tracked = [
                    i
                    for i in cell.tracked
                    if cx0 <= tracked_px[i, 0] < cx0 + hw + (1e-9 if dx else 0)
                    and cy0 <= tracked_px[i, 1] < cy0 + hh + (1e-9 if dy else 0)
                ]
                in_cands = [
                    i
                    for i in cell.cands
                    if cx0 <= cand_px[i, 0] < cx0 + hw + (1e-9 if dx else 0)
                    and cy0 <= cand_px[i, 1] < cy0 + hh + (1e-9 if dy else 0)
                ]
                if in_tracked or in_cands:
                    leaves.append(
                        _Cell(
                            cx0, cy0, hw, hh,
                            cell.gx * 2 + dx, cell.gy * 2 + dy, cell.depth + 1,
                            in_tracked, in_cands,
                        )
                    )

    selected = []
    for cell in sorted(leaves, key=split_order):
        if cell.tracked:
            continue
        survivors = [i for i in cell.cands if not suppressed[i]]
        if not survivors:
            continue
        best = min(survivors, key=lambda i: (-candidates[i].score, i))
        selected.append(best)
        if len(selected) == target_count:
            break
    return [candidates[i] for i in selected]


def compute_sfd(features, bounds, grid=DEFAULT_SFD_GRID):
    """Variance of per-cell feature counts over a grid x grid partition."""
    if grid < 1:
        raise ValueError("grid must be >= 1")
    x0, y0, width, height = bounds
    counts = np.zeros((grid, grid))
    for pix in features:
        gx = int((pix[0] - x0) / width * grid)
        gy = int((pix[1] - y0) / height * grid)
        gx = min(max(gx, 0), grid - 1)
        gy = min(max(gy, 0), grid - 1)
        counts[gy, gx] += 1
    return float(np.var(counts))

