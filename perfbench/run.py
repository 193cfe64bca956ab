"""Entry point of the bookpred benchmark.

    python3 perfbench/run.py --workload token_train --seed 1 --seconds 25 --trace 0

Runs one workload (``--workload all`` runs each in its own process) from the
root of a source checkout and prints, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0`` measures
the end-to-end metrics untraced; ``--trace 1`` runs the same operations with
every bookpred public function wrapped and reports the per-layer metrics.
Details, reasons and the metric map are in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("token_train", "long_book_eval", "semb_attribute")

# One BLAS thread: the benchmark is a single closed-loop client on a shared
# host, and one thread keeps matmul timings from depending on what else runs.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measurement time; at least one full cycle always runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny inputs, for the self-test only")
    return p.parse_args(argv)


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "bookpred" / "__init__.py").is_file():
        print(f"error: no bookpred sources under {src}", file=sys.stderr)
        return 1
    for var in BLAS_ENV:
        os.environ[var] = str(min(BLAS_THREADS, os.cpu_count() or 1))
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(src))
    import bookpred

    if Path(bookpred.__file__).resolve().parent != (src / "bookpred").resolve():
        print(f"error: imported bookpred from {bookpred.__file__}, not {src}", file=sys.stderr)
        return 1
    import bench

    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace),
                       tiny=args.size == "tiny", root=ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
