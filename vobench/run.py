"""rigvo benchmark: simulated VO replays and an initialization sweep.

    python3 vobench/run.py --workload slow_dropout2 --seed 1 --seconds 50 --trace 0

Runs from the root of a source checkout and imports rigvo from its src/
directory. One process, one thread: BLAS and OpenMP are pinned to one
thread before numpy is imported. After set-up (repeated SETUP_REPEATS
times) it runs whole rounds of the workload: one, and another as long as
the last round's duration still fits within --seconds. It checks every
output against ground truth or a property the method must have, and
prints one JSON line: correct, attempted, failed and the metrics.
--trace 0 gives the end-to-end metrics, with times divided by the run's
host speed index (hostspeed.py); --trace 1 records spans around every call
into rigvo and gives the per-layer metrics.
"""

import os

# numpy's OpenBLAS starts one spinning thread per core for systems this
# small; pin every threading runtime before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
SETUP_HOST_SAMPLES = 10  # host speed samples after each set-up
# the keys of workloads.WORKLOADS, which cannot be imported before src/ is found
WORKLOADS = ("slow_dropout2", "init_sweep4")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "rigvo" / "__init__.py").is_file():
        print(f"error: no rigvo sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    from metrics import end_to_end, per_layer
    from spans import Tracer
    from vo import Stats
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    tracer = Tracer(args.trace == 1)

    stats = Stats()
    setup_s = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with tracer.span("bench.setup"):
            inputs = workload.setup(args.seed, tracer)
        setup_s.append(time.perf_counter() - start)
        for _ in range(SETUP_HOST_SAMPLES):
            stats.host.sample()

    stats.host.start_ops()
    rounds = 0
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        workload.round(inputs, tracer, stats)
        rounds += 1
        now = time.perf_counter()
        if now - start + (now - round_start) > args.seconds:
            break
    measured_s = time.perf_counter() - start

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        metrics = per_layer(tracer, stats, rounds)
    else:
        metrics = end_to_end(stats, setup_s, peak_rss_mb)
    for err in stats.errors[:20]:
        print(f"check failed: {err}", file=sys.stderr)
    record = {
        "correct": not stats.errors,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    with open(OUT / f"result_{tag}.json", "w") as fh:
        json.dump(dict(record, rounds=rounds, seconds=args.seconds,
                       measured_s=measured_s, **stats.host.summary()), fh, indent=1)
    if args.trace:
        tracer.write(OUT / f"spans_{tag}.json")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
