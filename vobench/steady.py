"""Steadiness check: do two sets of runs of the same code agree?

    python3 vobench/steady.py --workload slow_dropout2

Runs sets A and B of the benchmark on one workload, alternating A and B,
with seeds FIRST_SEED..FIRST_SEED+RUNS-1 in each set. For every end-to-end
metric it prints each set's median and quartiles and the spread
(q3 - q1) / median, and it says whether the sets agree within the bounds in
BENCHMARK.json: every spread within its bound, B's median within the bound
of A's in either direction, and the same share of failed operations.
Run it from the root of a source checkout.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIRST_SEED = 1
RUNS = 10


def run_once(config, workload, seed):
    """The printed record, and the run's result file (rounds, host speed)."""
    cmd = config["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(config["run_seconds"]), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = ROOT / "vobench" / "out" / f"result_{workload}_seed{seed}_trace0.json"
    return json.loads(proc.stdout.strip().splitlines()[-1]), json.loads(result.read_text())


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args(argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in config["end_to_end"]}

    sets = {"A": [], "B": []}
    for seed in range(FIRST_SEED, FIRST_SEED + RUNS):
        for name in ("A", "B"):
            record, result = run_once(config, args.workload, seed)
            sets[name].append(record)
            print(f"set {name} seed {seed}: correct={record['correct']} "
                  f"attempted={record['attempted']} failed={record['failed']} "
                  f"rounds={result['rounds']} measured_s={result['measured_s']:.1f} "
                  f"kernel_ms_p50 setup={result['kernel_ms_p50_setup']:.3f} "
                  f"ops={result['kernel_ms_p50_ops']:.3f}",
                  file=sys.stderr, flush=True)

    ok = True
    print(f"{'metric':16s} {'set':3s} {'q1':>10s} {'median':>10s} {'q3':>10s} "
          f"{'spread':>7s} {'bound':>6s}")
    for name, spec in bounds.items():
        medians = {}
        for set_name, records in sets.items():
            values = [r["metrics"][name]["value"] for r in records]
            q1, q2, q3, spread = summarize(values)
            medians[set_name] = q2
            flag = ""
            if spread > spec["bound"]:
                flag, ok = "spread over bound", False
            print(f"{name:16s} {set_name:3s} {q1:10.4g} {q2:10.4g} {q3:10.4g} "
                  f"{spread:7.3f} {spec['bound']:6.2f} {flag}")
        change = (medians["B"] - medians["A"]) / medians["A"]
        if abs(change) > spec["bound"]:
            ok = False
            print(f"{name:16s} B differs from A by {change:+.3f}")
    shares = {
        k: sum(r["failed"] for r in v) / sum(r["attempted"] for r in v)
        for k, v in sets.items()
    }
    if shares["A"] != shares["B"]:
        ok = False
    correct = all(r["correct"] for v in sets.values() for r in v)
    print(f"failed share A={shares['A']:.6f} B={shares['B']:.6f}; all correct: {correct}")
    ok = ok and correct
    print("sets agree within the bounds" if ok else "sets do NOT agree within the bounds")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
