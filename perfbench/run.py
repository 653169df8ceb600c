"""Benchmark of the ternary-consensus CLI. Run from the repository root:

    python3 perfbench/run.py --workload dense --seed 1 --seconds 30 --trace 0

Each workload (see workloads.py) is a fixed list of `cli.main(argv)`
invocations. With --trace 0 it prints the end-to-end metrics; with --trace 1
it runs the workload again with the package's public functions wrapped from
outside (tracer.py) and prints the per-layer metrics. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.

Processes: this one, plus one fresh interpreter at a time (worker.py) for
each set-up measurement and for the workload itself, each single-threaded.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

SETUP_REPS = 10
SETUP_TIMEOUT_S = 30
MEASURE_TIMEOUT_S = 140


def run_worker(args: list[str], timeout: float) -> str:
    """Run worker.py in a fresh single-threaded interpreter and return the
    last line it printed."""
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        capture_output=True, text=True, timeout=timeout, env=env,
    )
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"worker {' '.join(args)} failed with exit code {proc.returncode}")
    return lines[-1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (Path.cwd() / "src" / "ternary_consensus" / "__init__.py").is_file():
        print("perfbench: run from the repository root (no src/ternary_consensus here)",
              file=sys.stderr)
        return 2

    declared = json.loads((Path.cwd() / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    def measure_setup():
        return [
            json.loads(run_worker(["setup", args.workload, str(args.seed)], SETUP_TIMEOUT_S))
            for _ in range(SETUP_REPS // 2)
        ]

    # Half of the set-up samples are taken before the workload and half after
    # it, so that one slow phase of the host does not set the median.
    try:
        setup = [] if args.trace else measure_setup()
        report = json.loads(run_worker(
            ["measure", args.workload, str(args.seed), str(args.seconds), str(args.trace)],
            MEASURE_TIMEOUT_S,
        ))
        if not args.trace:
            setup += measure_setup()
    except subprocess.TimeoutExpired as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} python={report['python']} numpy={report['numpy']} "
          f"nproc={report['nproc']} passes={report['passes']} "
          f"traced_passes={report['traced_passes']}")
    for problem in report["problems"]:
        print(f"# FAILED {problem}")
    if args.trace:
        values = report["layers"]
    else:
        # Timings at the reference speed (see speed.py).
        counts, speed = report["counts"], report["speed"]
        wall = report["wall_s"] * speed
        print(f"# measured wall_s {report['wall_s']:.6g} s at {speed:.4f} of the "
              f"reference speed; setup_s {median(s['setup_s'] for s in setup):.6g} s")
        values = {
            "wall_s": wall,
            "rounds_per_s": counts["rounds"] / wall,
            "msgs_per_s": counts["msgs"] / (report["protocol_wall_s"] * speed),
            "setup_s": median(s["setup_s"] * s["speed"] for s in setup),
            "peak_rss_mb": report["peak_rss_kb"] / 1024,
        }
    if set(values) != set(units):
        print(f"perfbench: metrics {sorted(set(values) ^ set(units))} differ from "
              f"BENCHMARK.json", file=sys.stderr)
        return 1
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    attempted, failed = report["attempted"], report["failed"]
    print(f"{args.workload} error_rate {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} invocations failed)")
    print(json.dumps({
        "correct": failed == 0 and not report["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
