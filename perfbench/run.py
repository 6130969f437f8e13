"""Run one benchmark workload and print its result.

    python3 perfbench/run.py --workload train-toy --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the details (sample counts, failures, environment, spans). With
``--workload all`` every workload runs in turn, each in its own process, and
a table of all metrics is printed.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# One BLAS thread, set before numpy is imported. At this model's matrix sizes
# a second OpenBLAS thread gained nothing on 2 cores but stalled some matmuls
# for ~16 ms.
os.environ["OPENBLAS_NUM_THREADS"] = "1"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def run_all(args) -> int:
    """Each workload in a child process, then one table of every metric."""
    import bench

    summary = {}
    for name in bench.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            sys.stderr.write(proc.stderr)
            print(f"error: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return 1
        detail, result = json.loads(lines[-2]), json.loads(lines[-1])
        summary[name] = result
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} fail_rate={detail['fail_rate']:.4f}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:<34} {entry['value']:>14.4f} {entry['unit']:<6} "
                  f"n={detail['samples'][metric]}")
        for metric, entry in detail.get("unbounded", {}).items():
            print(f"  {metric:<34} {entry['value']:>14.4f} {entry['unit']:<6} "
                  f"n={entry['samples']} (unbounded)")
    print(json.dumps(summary))
    return 0 if all(r["correct"] for r in summary.values()) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mcm", "__init__.py")):
        print(f"error: no mcm package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import bench

    if args.workload == "all":
        return run_all(args)
    if args.workload not in bench.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(choose from {', '.join(bench.WORKLOADS)} or all)", file=sys.stderr)
        return 2
    detail, result = bench.run(bench.WORKLOADS[args.workload], args.seed, args.seconds,
                               bool(args.trace))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
