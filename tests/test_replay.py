"""The benchmark's slow_dropout2 replay (vobench/), run end to end as a
test of the pose chain. Poses store rotation matrices that nothing
re-orthonormalizes, so round-off must not build up over a run."""

import pathlib

import numpy as np

BENCH = pathlib.Path(__file__).resolve().parents[1] / "vobench"


def test_slow_dropout2_rotations_stay_orthonormal(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import vo
    import workloads
    from spans import Tracer

    run = workloads.build_run(workloads.VO_SPEC, *workloads.sub_seeds(1, 0), Tracer(False))
    stats = vo.Stats()
    poses, accepted = vo.replay(run, Tracer(False), stats)
    assert accepted is not None
    assert stats.errors == [] and stats.failed == 0
    assert sorted(poses) == list(range(len(run.gt)))
    worst = max(np.abs(p.rotation.T @ p.rotation - np.eye(3)).max() for p in poses.values())
    assert worst < 1e-12
