"""Self-test of the benchmark at tiny input sizes.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json this runs run.py with ``--size tiny``,
once untraced and once traced, and checks that the run is correct, that every
metric BENCHMARK.json names is reported with its unit and no other, that child
spans lie inside their parent's interval, and that no self time is negative.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402

SEED = 0


def check_workload(spec: dict, name: str, trace: int) -> list[str]:
    where = f"{name} trace {trace}"
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(SEED),
           "--seconds", "0", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600,
                          check=False)
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}\n{proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: not correct: {proc.stdout[-2000:]}")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {n: m["unit"] for n, m in result["metrics"].items()}
    for n in sorted(want.keys() - got.keys()):
        problems.append(f"{where}: metric {n} missing")
    for n in sorted(got.keys() - want.keys()):
        problems.append(f"{where}: metric {n} not named in BENCHMARK.json")
    for n in sorted(want.keys() & got.keys()):
        if want[n] != got[n]:
            problems.append(f"{where}: metric {n} has unit {got[n]}, expected {want[n]}")
    if trace:
        path = ROOT / ".perfbench-out" / f"{name}-seed{SEED}-trace1-spans.jsonl"
        with open(path, encoding="utf-8") as fh:
            spans = [[s["name"], s["start"], s["end"], s["parent"], s["op"], s["amount"]]
                     for s in map(json.loads, fh)]
        if not spans:
            problems.append(f"{where}: no spans recorded")
        problems += [f"{where}: {p}" for p in tracer.check_spans(spans)]
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    # The span check itself must catch a child that outlives its parent.
    problems = [] if tracer.check_spans([["a", 0.0, 1.0, -1, "op", 0],
                                         ["b", 0.5, 1.5, 0, "op", 0]]) else [
        "check_spans accepts a child span outside its parent"]
    for workload in spec["workloads"]:
        for trace in (0, 1):
            found = check_workload(spec, workload["name"], trace)
            print(f"{workload['name']} trace {trace}: {'ok' if not found else 'FAILED'}")
            problems += found
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
