"""Run alternating pairs of the benchmark on a parent checkout and on this one.

    python tools/bench_pairs.py PARENT_DIR [--pairs 10] [--seconds S]
                                [--size full|tiny] [--workload all|NAME] [--out BENCH.json]

The change side is the checkout this tool sits in. Both checkouts must hold
byte-identical ``perfbench/`` and ``BENCHMARK.json``, or the tool refuses to
run (exit 1): numbers from two benchmarks do not compare. Make both sides
fresh copies (``git archive``) in sibling directories, because where a
checkout sits can move a workload by several per cent.

Each run is ``python3 perfbench/run.py --workload W --seed 11 --seconds S
--trace 0`` (the command of ``BENCHMARK.json``, then the options) in one
checkout; the tool reads the JSON object on its last line. The seed is fixed
(``SEED``); ``--seconds`` defaults to ``BENCHMARK.json``'s ``run_seconds``. In
each pair every workload runs once per side, one side right after the other,
and the side that runs first alternates from pair to pair. One more pair,
alternating on, runs with ``--trace 1`` for the per-layer metrics, so host
drift reaches both sides' traced runs alike.

For each workload and each end-to-end metric of ``BENCHMARK.json`` the
result holds each side's median, quartiles and raw values, the change's wins
(pairs where it is strictly better; ties count for neither side), the
metric's relative bound and a verdict:

* ``worse``: the change's median is worse than the parent's by more than the bound;
* ``unresolved``: a side's quartile distance over its median exceeds the bound,
  so the runs spread too widely to tell, unless every run of the change reads
  better than every run of the parent;
* ``within``: neither.

It prints a Markdown table and, with ``--out``, writes everything, with the
provenance of both sides, as JSON. The provenance records ``GLIBC_TUNABLES``
(``None`` when unset), which every run inherits: glibc's allocator settings
move the later ops of a run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
SEED = 11  # every run of every side


def differing(parent: Path, change: Path) -> list[str]:
    """The files of ``perfbench/`` and ``BENCHMARK.json`` whose bytes differ
    between the two checkouts, or that only one of them holds."""
    def files(root: Path) -> dict[str, bytes]:
        found = {p.relative_to(root).as_posix(): p.read_bytes()
                 for p in sorted((root / "perfbench").rglob("*"))
                 if p.is_file() and "__pycache__" not in p.parts}
        spec = root / "BENCHMARK.json"
        if spec.is_file():
            found["BENCHMARK.json"] = spec.read_bytes()
        return found

    a, b = files(parent), files(change)
    return sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))


def source_digest(root: Path) -> str:
    """sha256 over the paths and bytes of the checkout's ``src/`` files."""
    h = hashlib.sha256()
    for p in sorted((root / "src").rglob("*.py")):
        h.update(p.relative_to(root).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def run_once(root: Path, command: list[str], workload: str, seed: int, seconds: float,
             trace: int, size: str) -> dict:
    """One run of the benchmark ``command`` in ``root``: its last-line result,
    plus the provenance line the run prints."""
    cmd = [*command, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--size", size]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    prov = [json.loads(line[len("provenance "):]) for line in lines
            if line.startswith("provenance ")]
    result["provenance"] = prov[0] if prov else {}
    return result


def run_pairs(roots: dict[str, Path], workloads, pairs: int, run) -> tuple[dict, dict, list]:
    """``pairs`` alternating pairs of ``run(root, workload, trace)`` for each
    workload on both sides, the parent first in even pairs and the change
    first in odd ones, with ``trace`` 0; then one more pair, alternating on,
    with ``trace`` 1. Returns each side's untraced results per workload, its
    traced result per workload, and who went first in each pair (the traced
    pair last)."""
    runs = {side: {w: [] for w in workloads} for side in SIDES}
    traced = {side: {} for side in SIDES}
    first = []
    for i in range(pairs + 1):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        first.append(order[0])
        for w in workloads:
            for side in order:
                if i < pairs:
                    runs[side][w].append(run(roots[side], w, 0))
                else:
                    traced[side][w] = run(roots[side], w, 1)
    return runs, traced, first


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def _relative(delta: float, base: float) -> float:
    if base:
        return delta / abs(base)
    return 0.0 if delta == 0 else float("inf")


def verdict(metric: dict) -> str:
    """``worse``, ``unresolved`` or ``within`` for one metric's summary."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    parent, change = metric["parent"]["median"], metric["change"]["median"]
    if sign * _relative(parent - change, parent) > metric["bound"]:
        return "worse"
    sides = metric["parent"], metric["change"]
    spread = max(_relative(s["q3"] - s["q1"], s["median"]) for s in sides)
    if spread > metric["bound"] and not all(
            sign * (c - p) > 0 for c in sides[1]["values"] for p in sides[0]["values"]):
        return "unresolved"
    return "within"


def summarize(runs: dict, spec: dict) -> dict:
    """Per workload: operation counts per side, and per end-to-end metric of
    ``spec`` (``BENCHMARK.json``) each side's quartiles and values, the
    change's wins, the bound and the verdict."""
    out = {}
    for workload in runs["parent"]:
        results = {side: runs[side][workload] for side in SIDES}
        summary = {"operations": {side: {
            "attempted": sum(r["attempted"] for r in results[side]),
            "failed": sum(r["failed"] for r in results[side]),
            "correct": all(r["correct"] for r in results[side]),
        } for side in SIDES}, "metrics": {}}
        for m in spec["end_to_end"]:
            values = {side: [r["metrics"][m["name"]]["value"] for r in results[side]]
                      for side in SIDES}
            sign = 1.0 if m["better"] == "higher" else -1.0
            metric = {"unit": m["unit"], "better": m["better"], "bound": m["bound"]}
            for side in SIDES:
                q1, median, q3 = quartiles(values[side])
                metric[side] = {"median": median, "q1": q1, "q3": q3, "values": values[side]}
            metric["change_vs_parent"] = _relative(
                metric["change"]["median"] - metric["parent"]["median"], metric["parent"]["median"])
            pairs = zip(values["parent"], values["change"])
            metric["change_wins"] = sum(sign * (c - p) > 0 for p, c in pairs)
            metric["pairs"] = len(values["parent"])
            metric["verdict"] = verdict(metric)
            summary["metrics"][m["name"]] = metric
        out[workload] = summary
    return out


def table(summary: dict) -> str:
    """The summary as one Markdown table."""
    rows = ["| workload | metric | parent median [q1, q3] | change median [q1, q3] | change "
            "| change wins | bound | verdict |", "| --- " * 8 + "|"]
    for workload, s in summary.items():
        failed = "/".join(str(s["operations"][side]["failed"]) for side in SIDES)
        rows.append(f"| `{workload}` | failed operations (parent/change) | | | {failed} | | | |")
        for name, m in s["metrics"].items():
            sides = [f"{m[side]['median']:.4g} [{m[side]['q1']:.4g}, {m[side]['q3']:.4g}]"
                     for side in SIDES]
            rows.append(f"| `{workload}` | `{name}` | {sides[0]} | {sides[1]} "
                        f"| {m['change_vs_parent']:+.1%} | {m['change_wins']} of {m['pairs']} "
                        f"| {m['bound']:.0%} | {m['verdict']} |")
    return "\n".join(rows)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path, help="the parent checkout (PARENT_DIR)")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float,
                   help="length of each run (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--workload", default="all")
    p.add_argument("--out", type=Path, help="write the result JSON here")
    args = p.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": ROOT}
    diff = differing(roots["parent"], roots["change"])
    if diff:
        print(f"refused: perfbench/ or BENCHMARK.json differ between {roots['parent']} and "
              f"{roots['change']}: {', '.join(diff)}")
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if not set(workloads) <= set(names) or args.pairs < 1:
        p.error(f"--workload is all or one of {', '.join(names)}; --pairs is at least 1")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    def run(root, workload, trace):
        return run_once(root, spec["command"], workload, SEED, seconds, trace, args.size)

    runs, traced, first = run_pairs(roots, workloads, args.pairs, run)
    summary = summarize(runs, spec)
    for workload in workloads:
        summary[workload]["trace"] = {side: {
            name: m["value"] for name, m in traced[side][workload]["metrics"].items()}
            for side in SIDES}
    prov = {side: {"dir": roots[side].name, "source_sha256": source_digest(roots[side]),
                   **{k: runs[side][workloads[0]][0]["provenance"].get(k)
                      for k in ("git_commit", "python", "numpy", "blas", "blas_threads")}}
            for side in SIDES}
    prov.update(nproc=os.cpu_count(), seed=SEED, seconds=seconds, pairs=args.pairs,
                size=args.size, first=first, glibc_tunables=os.environ.get("GLIBC_TUNABLES"))
    print(table(summary))
    if args.out:
        args.out.write_text(json.dumps({"provenance": prov, "workloads": summary}, indent=1) + "\n",
                            encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
