"""The initialization sweep: window after window through the gate, window
SfM, the scale solve and state assembly, checked against the simulator's
ground truth.

Each scheduled window gets a track table of its own, as a system that
(re-)initializes starts a fresh one: its frames are ingested one by one
with update_track_table, and each ingest is a timed frame, the frontend
write of a system that waits to initialize. At the window's last frame the
full attempt runs on that table and is timed into init_ms. An accepted
window must have every camera's scale within WINDOW_SCALE_TOL of the
ground-truth scale; it is then tracked for one frame with the VO loop's
frame step, which shows that the assembled state is usable.

The timed frame is not the gate on a table that holds the whole run
(54,000 observations on the 4-camera run): pure-Python scans over a table
that large slowed by up to 1.8 times more than the host speed kernel
(hostspeed.py) when the host was busy, so their normalized time followed
the host, not the program.
"""

from __future__ import annotations

import time

from rigvo.frontend import FeatureTrackTable, update_track_table
from rigvo.initialization import INIT_WINDOW_SPAN

from evaluate import ate_rmse, rpe_rmse
from vo import check_frame, pose_arrays, timed_initialize, track_frame, window_scale_error

WINDOW_SCALE_TOL = 0.10


def ingest(run, tracer):
    """A track table holding the whole run."""
    table = FeatureTrackTable(run.rig.n_cameras)
    for t in range(len(run.gt)):
        with tracer.span("frontend.update", t):
            update_track_table(table, t, run.pixels[t])
    return table


def attempt_window(run, table, end_frame, tracer, stats, must_refuse=False):
    """One scheduled window, the sweep's operation.

    It succeeds when it is refused (gate or scale solve) or accepted with
    every camera within WINDOW_SCALE_TOL of the ground-truth scale;
    must_refuse marks runs whose scale is unobservable, so that acceptance
    fails. Returns (InitResult, scale error) of an accepted window that
    succeeded, else None.
    """
    stats.attempted += 1
    result = timed_initialize(run, table, end_frame, tracer, stats)
    if result.state is None:
        return None
    error = window_scale_error(result, run.rig, run.gt)
    if must_refuse or error > WINDOW_SCALE_TOL:
        stats.failed += 1
        return None
    return result, error


def sweep(run, windows, tracer, stats, must_refuse=False):
    """Ingest every scheduled window into a table of its own, frame by
    frame, attempt the window and track one frame after it if accepted."""
    tracks = 0
    for end in sorted(windows):
        table = FeatureTrackTable(run.rig.n_cameras)
        for t in range(end - INIT_WINDOW_SPAN, end + 1):
            start = time.perf_counter()
            with tracer.span("bench.frame", t):
                with tracer.span("frontend.update", t):
                    update_track_table(table, t, run.pixels[t])
            stats.frame_ms.append(1e3 * (time.perf_counter() - start))
            stats.host.sample()
        accepted = attempt_window(run, table, end, tracer, stats, must_refuse)
        if accepted is not None:
            result, error = accepted
            est_rot, est_pos = pose_arrays([result.state.poses[f] for f in result.frames])
            gt_rot, gt_pos = pose_arrays([run.gt[f] for f in result.frames])
            stats.samples["init_scale_err"].append(error)
            stats.samples["ate_m"].append(ate_rmse(est_pos, gt_pos))
            stats.samples["rpe_m"].append(
                rpe_rmse(est_rot, est_pos, gt_rot, gt_pos, segment=len(result.frames) - 1))
            t = end + 1
            if t < len(run.gt):
                state = result.state
                with tracer.span("bench.track", t):
                    with tracer.span("frontend.update", t):
                        update_track_table(table, t, run.pixels[t])
                    prior, ok = track_frame(run, table, state, set(state.landmarks), t,
                                            tracer, stats)
                if not ok:
                    stats.errors.append(f"frame {t}: PnP failed on an initialized state")
                check_frame(state, t, prior, stats.errors)
        tracks += sum(len(cam_tracks) for cam_tracks in table.tracks)
    stats.samples["tracks"].append(tracks)
