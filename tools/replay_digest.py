"""Replay digest: one set-up and one round of a benchmark workload per seed,
reduced to one line that two bit-identical programs print alike.

    python3 tools/replay_digest.py --workload slow_dropout2 --seeds 1 2 3

Runs from the root of a source checkout, with rigvo from its src/ and the
benchmark's own workloads from its vobench/, on one thread as the benchmark
does. Per seed it prints the check outcome (`correct`), failed/attempted,
every counter, one SHA-256 (`sha256=`) over every pose the VO loop
replayed (taken by wrapping vobench's vo.replay) and every sample the
checks recorded, and one (`inputs=`) over what the set-up rendered: every
track's id, frames and pixels and every track's landmark, per camera, for
each render_observations call. Run it on two checkouts and compare the
lines: a change that keeps every line replays bit for bit, and one that
keeps `inputs=` but not `sha256=` changed the loop, not the renderer.
Nothing is written to disk.
"""

import os

# as vobench/run.py: pin every threading runtime before numpy is imported,
# so that BLAS sums in one order
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import pathlib  # noqa: E402
import sys  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave no __pycache__ under vobench/
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "vobench")]

import numpy as np  # noqa: E402

import vo  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def hash_render(sha, sim):
    """Feed one render's tracks and track_landmark into sha."""
    for cam_tracks, cam_landmarks in zip(sim.tracks.tracks, sim.track_landmark):
        for tid, track in cam_tracks.items():
            sha.update(np.array([tid, len(track)] + [f for f, _ in track], dtype=np.int64).tobytes())
            for _, pix in track:
                sha.update(pix.tobytes())
        sha.update(np.array(list(cam_landmarks.items()), dtype=np.int64).tobytes())


def digest_seed(workload, seed):
    """One set-up and one round; returns the seed's summary line."""
    sha, inputs_sha = hashlib.sha256(), hashlib.sha256()
    replay, render = vo.replay, workloads.render_observations

    def hashed_replay(*args, **kwargs):
        poses, accepted = replay(*args, **kwargs)
        for f in sorted(poses):
            sha.update(np.int64(f).tobytes())
            sha.update(poses[f].rotation.tobytes())
            sha.update(poses[f].t.tobytes())
        return poses, accepted

    def hashed_render(*args, **kwargs):
        sim = render(*args, **kwargs)
        hash_render(inputs_sha, sim)
        return sim

    tracer = Tracer(False)
    stats = vo.Stats()
    vo.replay, workloads.render_observations = hashed_replay, hashed_render
    try:
        inputs = workload.setup(seed, tracer)
        workload.round(inputs, tracer, stats)
    finally:
        vo.replay, workloads.render_observations = replay, render
    sha.update("\n".join(stats.errors).encode())
    for name in sorted(stats.samples):
        sha.update(name.encode())
        sha.update(np.asarray(stats.samples[name], dtype=float).tobytes())
    counts = " ".join(f"{k}={v}" for k, v in sorted(stats.counts.items()))
    return (f"seed={seed} correct={not stats.errors} failed={stats.failed}/{stats.attempted} "
            f"{counts} sha256={sha.hexdigest()} inputs={inputs_sha.hexdigest()}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    for seed in args.seeds:
        print(f"{args.workload} {digest_seed(workload, seed)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
