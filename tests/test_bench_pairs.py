"""``tools/bench_pairs.py`` on canned benchmark results: no run starts."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import bench_pairs  # noqa: E402

SPEC = {"end_to_end": [
    {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "rss", "unit": "MB", "better": "lower", "bound": 0.15},
    {"name": "f1", "unit": "ratio", "better": "higher", "bound": 0.1},
]}


def result(rate, rss, f1, failed=0):
    metrics = {"rate": rate, "rss": rss, "f1": f1}
    return {"correct": failed == 0, "attempted": 10, "failed": failed,
            "metrics": {name: {"value": v} for name, v in metrics.items()}}


def canned():
    parent = [result(r, 50.0, 1.0) for r in (100, 104, 96, 102, 98)]
    change = [result(r, m, f, failed)
              for r, m, f, failed in zip((70, 75, 72, 74, 73), (50, 49, 51, 50, 48),
                                         (0.5, 0.8, 1.0, 1.0, 1.0), (0, 0, 1, 0, 0))]
    return {"parent": {"w": parent}, "change": {"w": change}}


def test_medians_quartiles_wins_and_verdicts():
    summary = bench_pairs.summarize(canned(), SPEC)["w"]
    assert summary["operations"] == {
        "parent": {"attempted": 50, "failed": 0, "correct": True},
        "change": {"attempted": 50, "failed": 1, "correct": False},
    }
    rate, rss, f1 = (summary["metrics"][name] for name in ("rate", "rss", "f1"))
    assert (rate["parent"]["q1"], rate["parent"]["median"], rate["parent"]["q3"]) == (98, 100, 102)
    assert (rate["change"]["q1"], rate["change"]["median"], rate["change"]["q3"]) == (72, 73, 74)
    assert rate["change"]["values"] == [70, 75, 72, 74, 73]
    assert rate["change_vs_parent"] == pytest.approx(-0.27)
    assert (rate["change_wins"], rate["pairs"], rate["bound"]) == (0, 5, 0.25)
    assert rate["verdict"] == "worse"  # 27% lower, past the 25% bound
    # lower is better: 49 and 48 win, 51 loses, the two ties count for neither side
    assert (rss["change"]["q1"], rss["change"]["median"], rss["change"]["q3"]) == (49, 50, 50)
    assert (rss["change_wins"], rss["verdict"]) == (2, "within")
    # equal medians, but the change's quartiles are 0.2 of its median apart
    assert (f1["change"]["q1"], f1["change"]["median"]) == (0.8, 1.0)
    assert (f1["change_wins"], f1["verdict"]) == (0, "unresolved")
    table = bench_pairs.table(bench_pairs.summarize(canned(), SPEC))
    assert "| `w` | `rate` | 100 [98, 102] | 73 [72, 74] | -27.0% | 0 of 5 | 25% | worse |" in table


def test_one_pair_has_no_spread():
    runs = {"parent": {"w": [result(100, 50, 1.0)]}, "change": {"w": [result(100, 50, 1.0)]}}
    metrics = bench_pairs.summarize(runs, SPEC)["w"]["metrics"]
    assert {m["verdict"] for m in metrics.values()} == {"within"}
    assert {m["change_wins"] for m in metrics.values()} == {0}


def test_a_wide_spread_that_every_change_run_beats_is_resolved():
    runs = {"parent": {"w": [result(r, 50, 1.0) for r in (60, 100, 140)]},
            "change": {"w": [result(r, 50, 1.0) for r in (150, 200, 250)]}}
    rate = bench_pairs.summarize(runs, SPEC)["w"]["metrics"]["rate"]
    assert (rate["change_wins"], rate["verdict"]) == (3, "within")
    runs["change"]["w"][0] = result(139, 50, 1.0)
    rate = bench_pairs.summarize(runs, SPEC)["w"]["metrics"]["rate"]
    assert (rate["change_wins"], rate["verdict"]) == (3, "unresolved")


def test_sides_alternate_which_runs_first():
    calls = []
    roots = {"parent": Path("p"), "change": Path("c")}

    def run(root, w, trace):
        calls.append((root.name, w, trace))
        return len(calls)

    runs, traced, first = bench_pairs.run_pairs(roots, ["a", "b"], 3, run, "parent")
    assert first == ["parent", "change", "parent", "change"]
    assert calls[:8] == [("p", "a", 0), ("c", "a", 0), ("p", "b", 0), ("c", "b", 0),
                         ("c", "a", 0), ("p", "a", 0), ("c", "b", 0), ("p", "b", 0)]
    assert runs["parent"]["a"] == [1, 6, 9] and runs["change"]["b"] == [4, 7, 12]
    # the traced runs are one more pair, alternating on, each side right after the other
    assert calls[12:] == [("c", "a", 1), ("p", "a", 1), ("c", "b", 1), ("p", "b", 1)]
    assert traced == {"parent": {"a": 14, "b": 16}, "change": {"a": 13, "b": 15}}
    # a start on the change side mirrors every pair
    calls.clear()
    runs, traced, first = bench_pairs.run_pairs(roots, ["a"], 2, run, "change")
    assert first == ["change", "parent", "change"]
    assert calls == [("c", "a", 0), ("p", "a", 0), ("p", "a", 0), ("c", "a", 0),
                     ("c", "a", 1), ("p", "a", 1)]
    assert runs == {"parent": {"a": [2, 3]}, "change": {"a": [1, 4]}}
    assert traced == {"parent": {"a": 6}, "change": {"a": 5}}


def checkout(root: Path, bench: bytes, spec: bytes) -> Path:
    (root / "perfbench" / "__pycache__").mkdir(parents=True)
    (root / "perfbench" / "bench.py").write_bytes(bench)
    (root / "perfbench" / "__pycache__" / "bench.pyc").write_bytes(root.name.encode())
    (root / "BENCHMARK.json").write_bytes(spec)
    return root


def test_differing_benchmarks_are_named(tmp_path):
    a = checkout(tmp_path / "a", b"x = 1\n", b"{}")
    assert bench_pairs.differing(a, checkout(tmp_path / "b", b"x = 1\n", b"{}")) == []
    assert bench_pairs.differing(a, checkout(tmp_path / "c", b"x = 2\n", b"{}")) == [
        "perfbench/bench.py"]
    d = checkout(tmp_path / "d", b"x = 1\n", b"{ }")
    (d / "perfbench" / "extra.py").write_bytes(b"")
    assert bench_pairs.differing(a, d) == ["BENCHMARK.json", "perfbench/extra.py"]


def test_a_differing_parent_is_refused_before_any_run(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(bench_pairs, "run_once", None)  # must not be reached
    parent = checkout(tmp_path / "parent", b"x = 1\n", b"{}")
    assert bench_pairs.main([str(parent), "--pairs", "1"]) == 1
    assert capsys.readouterr().out.startswith("refused: perfbench/ or BENCHMARK.json differ")


@pytest.mark.parametrize("tunables", [None, "glibc.malloc.mmap_threshold=131072"])
def test_provenance_records_the_allocator_setting(tmp_path, monkeypatch, tunables):
    spec = json.loads((bench_pairs.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in spec["end_to_end"]]

    def run_once(root, command, workload, seed, seconds, trace, size):
        return {**result(1.0, 1.0, 1.0), "metrics": {n: {"value": 1.0} for n in names},
                "provenance": {}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs, "differing", lambda parent, change: [])
    if tunables is None:
        monkeypatch.delenv("GLIBC_TUNABLES", raising=False)
    else:
        monkeypatch.setenv("GLIBC_TUNABLES", tunables)
    out = tmp_path / "bench.json"
    workload = spec["workloads"][0]["name"]
    argv = [str(tmp_path), "--pairs", "1", "--workload", workload, "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    prov = json.loads(out.read_text(encoding="utf-8"))["provenance"]
    assert "glibc_tunables" in prov and prov["glibc_tunables"] == tunables
    assert prov["first"] in (["parent", "change"], ["change", "parent"])
