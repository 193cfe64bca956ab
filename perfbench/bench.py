"""Workloads, output checks and metrics of the bookpred benchmark.

Every operation is one in-process call of ``bookpred.cli.main`` with the
arguments a user would type, run one at a time (closed loop, one client).
Inputs come from ``bookpred.synth`` and depend only on the workload seed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from bookpred import cli, corpus, synth

import tracer as tracing

SETUP_REPEATS = 3
INDEX_NAMES = ("fres", "fkg", "smog", "cli", "ari")
PREDS_HEADER = ["book_id", "gold", "pred", "p_successful"]
MB = 1e6

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_book_epochs_per_s": "1/s",
    "eval_mb_per_s": "MB/s",
    "attribute_books_per_s": "1/s",
    "test_weighted_f1": "ratio",
    "peak_rss_mb": "MB",
    "ok_op_ratio": "ratio",
}

# Functions whose calls and self time are reported per cycle.
CALLS = ("net.forward", "net.backward", "net.adam_step", "net.predict",
         "textstats.segment_sentences", "embedding.encode_hashed_bow",
         "embedding.load_embeddings", "corpus.select_section")
SELF = ("net.forward", "net.backward", "net.adam_step", "pipeline.train", "net.predict",
        "pipeline.predict_corpus", "net.readability_output_gradient",
        "pipeline.attribute_readability", "textstats.segment_sentences",
        "textstats.counts_from_sentences", "embedding.encode_hashed_bow",
        "embedding.load_embeddings", "embedding.chunk_average", "metrics.weighted_f1",
        "corpus.load_corpus", "cli.main")


# ----------------------------------------------------------------------
# Operations and their checks
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    """One CLI call. ``work`` is book-epochs (train), text MB (eval) or books
    (attribute); ``key`` names the inputs, so equal keys are repeated inputs
    and must give byte-identical outputs. ``f1`` marks an eval on ordinary
    held-out books, whose report gives ``test_weighted_f1``."""

    kind: str
    argv: list[str]
    outputs: list[Path]
    work: float
    books: int
    key: str
    check: Callable[[list[bytes]], str | None] = lambda outputs: None
    f1: bool = False


@dataclass
class OpRecord:
    kind: str
    phase: str  # "setup" | "timed" | "replay"
    cycle: int
    wall: float
    rate: float
    books: int
    repeated: bool
    error: str | None
    f1: float | None = None
    host: float = 1.0  # host slowness around the operation, see HostProbe


class HostProbe:
    """Times a fixed mix of the kinds of work bookpred does (interpreter
    loops, regex tokenizing, small matmuls) to measure how fast the host
    runs right now.

    On a shared host the same operation can take 40% longer for tens of
    seconds at a time, long enough to move a whole run. ``slowness()`` is
    the probe's time over its time on a quiet host, so ``rate * slowness``
    reads the rate at quiet-host speed.
    """

    QUIET_S = 0.036  # one probe on the quiet 2-core 2.1 GHz host it was tuned on
    _WORD = re.compile(r"[^\W_]+")

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((50, 512))
        self.b = rng.standard_normal((512, 20))
        self.text = " ".join(f"w{i % 97}x{i % 13}." for i in range(2_000))

    def slowness(self) -> float:
        start = time.perf_counter()
        total = 0
        for i in range(120_000):
            total += (i * 2654435761) & 0xFFFF
        for _ in range(25):
            total += sum(len(w.lower()) for w in self._WORD.findall(self.text))
        for _ in range(600):
            total += int((self.a @ self.b).argmax())
        return (time.perf_counter() - start) / self.QUIET_S


def _csv_rows(data: bytes) -> list[list[str]]:
    return list(csv.reader(io.StringIO(data.decode("utf-8"))))


def report_f1(report: bytes) -> float:
    for name, value in _csv_rows(report)[1:]:
        if name == "weighted_f1":
            # The report writes repr() of a numpy scalar: "np.float64(0.95)".
            return float(value.removeprefix("np.float64(").removesuffix(")"))
    raise ValueError("report has no weighted_f1 row")


def check_eval(n_books: int, f1_floor: float = 0.0):
    """outputs = [report CSV, predictions CSV]."""

    def check(outputs: list[bytes]) -> str | None:
        f1 = report_f1(outputs[0])
        rows = _csv_rows(outputs[1])
        if rows[0] != PREDS_HEADER:
            return f"predictions header {rows[0]}"
        if len(rows) - 1 != n_books:
            return f"{len(rows) - 1} prediction rows for {n_books} books"
        if not all(0.0 <= float(r[3]) <= 1.0 for r in rows[1:]):
            return "a probability lies outside [0, 1]"
        if not f1 >= f1_floor:
            return f"held-out weighted F1 {f1} is below the floor {f1_floor}"
        return None

    return check


def check_attribution(n_books: int):
    """outputs = [attribution CSV]."""

    def check(outputs: list[bytes]) -> str | None:
        rows = dict(_csv_rows(outputs[0])[1:])
        if not all(math.isfinite(float(rows[name])) for name in INDEX_NAMES):
            return "non-finite attribution"
        if int(rows["n_books"]) != n_books:
            return f"attribution over {rows['n_books']} books, expected {n_books}"
        return None

    return check


class Runner:
    """Runs operations, checks them, and keeps one record per operation."""

    def __init__(self) -> None:
        self.records: list[OpRecord] = []
        self._first: dict[str, list[bytes]] = {}
        self.probe = HostProbe()

    def run(self, op: Op, phase: str, cycle: int, probe: bool = True) -> OpRecord:
        before = self.probe.slowness() if probe else 1.0
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.main(op.argv)
            except SystemExit as exc:  # argparse rejects its arguments
                code = exc.code
            wall = time.perf_counter() - start
        error = f1 = None
        if code != 0:
            error = f"exit code {code}: {err.getvalue().strip()[-300:]}"
        else:
            try:
                outputs = [p.read_bytes() for p in op.outputs]
                error = op.check(outputs)
                if op.f1:
                    f1 = report_f1(outputs[0])
            except (OSError, ValueError, KeyError, IndexError) as exc:
                error = f"output check failed: {exc!r}"
        repeated = op.key in self._first
        if error is None:
            if not repeated:
                self._first[op.key] = outputs
            elif outputs != self._first[op.key]:
                error = "outputs differ from an earlier run on the same inputs"
        host = (before + self.probe.slowness()) / 2 if probe else 1.0
        record = OpRecord(op.kind, phase, cycle, wall, op.work / wall, op.books,
                          repeated, error, f1, host)
        self.records.append(record)
        return record


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


def corpus_stats(manifest: Path) -> dict:
    """Books, text MB and sentences of a generated corpus. Generated
    sentences each end in exactly one period."""
    with open(manifest, encoding="utf-8", newline="") as fh:
        texts = [(manifest.parent / row["text_path"]).read_bytes()
                 for row in csv.DictReader(fh)]
    return {"books": len(texts), "text_mb": sum(map(len, texts)) / MB,
            "sentences": sum(t.count(b".") for t in texts)}


def split_manifest(manifest: Path, n_first: int) -> tuple[Path, Path]:
    """Write the first ``n_first`` books and the rest as two manifests next
    to ``manifest``, so that held-out books come from the same generator
    call, and so the same vocabulary, as the training books."""
    with open(manifest, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    parts = []
    for name, part in (("train.csv", rows[1:n_first + 1]), ("heldout.csv", rows[n_first + 1:])):
        path = manifest.parent / name
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows([rows[0]] + part)
        parts.append(path)
    return parts[0], parts[1]


def n_train_examples(n_books: int, val_fraction: float = 0.2) -> int:
    """Books left for training after the CLI's default validation split."""
    return n_books - round(val_fraction * n_books)


class Workload:
    """Set-up returns the operations that belong to set-up; ``ops(cycle)``
    returns one cycle of timed operations, making any fresh inputs first."""

    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.inputs: dict = {}

    def setup(self, dest: Path) -> list[Op]:
        raise NotImplementedError

    def ops(self, cycle: int) -> list[Op]:
        raise NotImplementedError

    def _seed(self, k: int) -> int:
        return self.seed * 100_000 + k


class TokenTrain(Workload):
    """Default CNN at hashed dim 512: train, then eval and attribute the same
    held-out books repeatedly (the repeated-input case)."""

    name = "token_train"
    F1_FLOOR = 0.9

    def __init__(self, seed: int, tiny: bool) -> None:
        super().__init__(seed)
        self.n_books, self.n_heldout, self.epochs, self.dim, self.repeats = (
            (10, 6, 1, 16, 2) if tiny else (200, 60, 5, 512, 2))
        self.f1_floor = 0.0 if tiny else self.F1_FLOOR

    def setup(self, dest: Path) -> list[Op]:
        self.dest = dest
        self.train, self.heldout = split_manifest(
            synth.make_token_corpus(dest / "corpus", n_books=self.n_books + self.n_heldout,
                                    seed=self._seed(1)), self.n_books)
        for manifest in (self.train, self.heldout):
            corpus.load_corpus(manifest)
        self.inputs = {"train": corpus_stats(self.train), "heldout": corpus_stats(self.heldout),
                       "dim": self.dim, "epochs": self.epochs, "section": "first:1000",
                       "eval_and_attribute_repeats_per_cycle": self.repeats}
        return []

    def ops(self, cycle: int) -> list[Op]:
        d, ckpt = self.dest, self.dest / "model.bpmd"
        train = Op("train", ["train", "--manifest", str(self.train), "--out", str(ckpt),
                             "--seed", str(self.seed), "--section", "first:1000",
                             "--set", f"encoder.dim={self.dim}",
                             "--set", f"epochs={self.epochs}"],
                   [ckpt], n_train_examples(self.n_books) * self.epochs, self.n_books,
                   "train")
        evaluate = Op("eval", ["eval", "--checkpoint", str(ckpt), "--manifest",
                               str(self.heldout), "--out", str(d / "report.csv"),
                               "--preds", str(d / "preds.csv")],
                      [d / "report.csv", d / "preds.csv"], self.inputs["heldout"]["text_mb"],
                      self.n_heldout, "eval", check_eval(self.n_heldout, self.f1_floor), f1=True)
        attribute = Op("attribute", ["attribute", "--checkpoint", str(ckpt), "--manifest",
                                     str(self.heldout), "--out", str(d / "attribution.csv")],
                       [d / "attribution.csv"], self.n_heldout, self.n_heldout, "attribute",
                       check_attribution(self.n_heldout))
        return [train] + [evaluate, attribute] * self.repeats


MARKERS = ("zephyrine", "morvath")  # the planted tokens of synth.make_token_corpus
MANIFEST_HEADER = ["book_id", "genre", "avg_rating", "n_ratings", "label", "text_path"]


def vocabulary(manifest: Path) -> list[str]:
    """Filler words of a generated token corpus, its markers left out."""
    words: set[str] = set()
    with open(manifest, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            text = (manifest.parent / row["text_path"]).read_text(encoding="utf-8")
            words.update(text.replace(".", " ").split())
    return sorted(words - set(MARKERS))


def write_long_books(root: Path, vocab: list[str], n_books: int,
                     sentences: tuple[int, int], seed: int) -> Path:
    """Long books drawn like synth.make_token_corpus draws its books (6-12
    words a sentence, a marker in half the sentences, 65% Successful), but
    from ``vocab``: synth draws a new vocabulary for every seed, and books
    with a vocabulary the model never saw make its predictions arbitrary.
    Returns the manifest path."""
    rng = np.random.default_rng(seed)
    words = np.array(vocab, dtype=object)
    genres = [g.value for g in corpus.Genre]
    (root / "books").mkdir(parents=True)
    rows = [MANIFEST_HEADER]
    for i in range(n_books):
        successful = bool(rng.random() < 0.65)
        n = int(rng.integers(sentences[0], sentences[1] + 1))
        lengths = rng.integers(6, 13, size=n)
        starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        tokens = words[rng.integers(len(words), size=int(lengths.sum()))]
        marked = rng.random(n) < 0.5
        offsets = (rng.random(int(marked.sum())) * lengths[marked]).astype(int)
        tokens[starts[marked] + offsets] = MARKERS[0 if successful else 1]
        text = " ".join(" ".join(tokens[a:a + k]) + "." for a, k in zip(starts, lengths))
        path = Path("books") / f"book{i:04d}.txt"
        (root / path).write_text(text + "\n", encoding="utf-8")
        rating = 3.5 + 1.5 * rng.random() if successful else 1.0 + 2.4 * rng.random()
        rows.append([f"book{i:04d}", genres[i % len(genres)], f"{rating:.2f}",
                     str(int(rng.integers(10, 500))), "", str(path)])
    manifest = root / "manifest.csv"
    with open(manifest, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return manifest


class LongBookEval(Workload):
    """Whole-book eval and attribute on long books that no operation has seen
    before, with a checkpoint trained in set-up on ordinary books. Each cycle
    trains that checkpoint again (byte-identical), for the train rate, and
    scores it on ordinary held-out books for ``test_weighted_f1``: trained
    on short books, the model ranks long books well but its threshold does
    not carry over, so F1 on the long books is arbitrary."""

    name = "long_book_eval"
    EPOCHS = 2  # after 1 epoch the held-out F1 still ranged 0.13-1.0 over seeds

    def __init__(self, seed: int, tiny: bool) -> None:
        super().__init__(seed)
        self.n_books, self.n_heldout, self.books_per_pass = (10, 6, 2) if tiny else (60, 30, 2)
        self.sentences = (300, 400) if tiny else (12_000, 16_000)
        self.dim = 16 if tiny else 512
        self.generated = {"books": 0, "text_mb": 0.0, "sentences": 0}

    def setup(self, dest: Path) -> list[Op]:
        self.dest = dest
        self.train, self.heldout = split_manifest(
            synth.make_token_corpus(dest / "corpus", n_books=self.n_books + self.n_heldout,
                                    seed=self._seed(1)), self.n_books)
        for manifest in (self.train, self.heldout):
            corpus.load_corpus(manifest)
        self.vocab = vocabulary(self.train)
        self.inputs = {"train": corpus_stats(self.train), "heldout": corpus_stats(self.heldout),
                       "dim": self.dim, "epochs": self.EPOCHS, "batch_size": 8,
                       "section": "full",
                       "books_per_pass": self.books_per_pass,
                       "sentences_per_book": list(self.sentences),
                       "long_books_generated": self.generated}
        return [self._train()]

    def _train(self) -> Op:
        ckpt = self.dest / "model.bpmd"
        return Op("train", ["train", "--manifest", str(self.train), "--out", str(ckpt),
                            "--seed", str(self.seed), "--section", "full",
                            "--set", f"encoder.dim={self.dim}", "--set", f"epochs={self.EPOCHS}",
                            "--set", "batch_size=8"],
                  [ckpt], n_train_examples(self.n_books) * self.EPOCHS, self.n_books, "train")

    def _fresh_books(self, root: Path, seed: int) -> tuple[Path, dict]:
        manifest = write_long_books(root, self.vocab, self.books_per_pass, self.sentences, seed)
        stats = corpus_stats(manifest)
        for k, v in stats.items():
            self.generated[k] += v
        return manifest, stats

    def ops(self, cycle: int) -> list[Op]:
        ckpt, d = self.dest / "model.bpmd", self.dest / f"pass{cycle}"
        eval_manifest, eval_stats = self._fresh_books(d / "eval", self._seed(100 + 2 * cycle))
        attr_manifest, _ = self._fresh_books(d / "attribute", self._seed(101 + 2 * cycle))
        n = self.books_per_pass
        return [
            self._train(),
            Op("eval", ["eval", "--checkpoint", str(ckpt), "--manifest", str(eval_manifest),
                        "--out", str(d / "report.csv"), "--preds", str(d / "preds.csv")],
               [d / "report.csv", d / "preds.csv"], eval_stats["text_mb"], n,
               f"eval-{cycle}", check_eval(n)),
            Op("attribute", ["attribute", "--checkpoint", str(ckpt), "--manifest",
                             str(attr_manifest), "--out", str(d / "attribution.csv")],
               [d / "attribution.csv"], n, n, f"attribute-{cycle}", check_attribution(n)),
            Op("score", ["eval", "--checkpoint", str(ckpt), "--manifest", str(self.heldout),
                         "--out", str(self.dest / "report.csv"),
                         "--preds", str(self.dest / "preds.csv")],
               [self.dest / "report.csv", self.dest / "preds.csv"],
               self.inputs["heldout"]["text_mb"], self.n_heldout, "score",
               check_eval(self.n_heldout), f1=True),
        ]


class SembAttribute(Workload):
    """External .semb vectors (dim 64) with readability fusion: train, then
    attribute and eval the same held-out books repeatedly."""

    name = "semb_attribute"

    def __init__(self, seed: int, tiny: bool) -> None:
        super().__init__(seed)
        self.n_books, self.n_heldout, self.epochs, self.dim, self.repeats = (
            (10, 6, 1, 8, 2) if tiny else (200, 120, 40, 64, 2))

    def setup(self, dest: Path) -> list[Op]:
        self.dest = dest
        self.train, self.heldout = split_manifest(
            synth.make_readability_corpus(dest / "corpus", n_books=self.n_books + self.n_heldout,
                                          seed=self._seed(1), embedding_dim=self.dim),
            self.n_books)
        for manifest in (self.train, self.heldout):
            corpus.load_corpus(manifest)
        self.inputs = {"train": corpus_stats(self.train), "heldout": corpus_stats(self.heldout),
                       "dim": self.dim, "epochs": self.epochs, "batch_size": 8,
                       "section": "first:1000",
                       "eval_and_attribute_repeats_per_cycle": self.repeats}
        return []

    def ops(self, cycle: int) -> list[Op]:
        d, ckpt = self.dest, self.dest / "model.bpmd"
        semb = ["--semb-dir", str(self.dest / "corpus" / "semb")]
        train = Op("train", ["train", "--manifest", str(self.train), "--out", str(ckpt),
                             "--seed", str(self.seed), "--set", f"epochs={self.epochs}",
                             "--set", "batch_size=8"] + semb,
                   [ckpt], n_train_examples(self.n_books) * self.epochs, self.n_books,
                   "train")
        attribute = Op("attribute", ["attribute", "--checkpoint", str(ckpt), "--manifest",
                                     str(self.heldout), "--out", str(d / "attribution.csv")]
                       + semb,
                       [d / "attribution.csv"], self.n_heldout, self.n_heldout, "attribute",
                       check_attribution(self.n_heldout))
        evaluate = Op("eval", ["eval", "--checkpoint", str(ckpt), "--manifest",
                               str(self.heldout), "--out", str(d / "report.csv"),
                               "--preds", str(d / "preds.csv")] + semb,
                      [d / "report.csv", d / "preds.csv"], self.inputs["heldout"]["text_mb"],
                      self.n_heldout, "eval", check_eval(self.n_heldout), f1=True)
        return [train] + [attribute, evaluate] * self.repeats


WORKLOADS = {w.name: w for w in (TokenTrain, LongBookEval, SembAttribute)}


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------


def _measure(wl: Workload, runner: Runner, work: Path, seconds: float,
             tracer: tracing.Tracer | None) -> tuple[list[tuple[float, float]], float | None]:
    """Set up, then run cycles until ``seconds`` have passed (at least one
    full cycle). Untraced runs may stop between operations; traced runs stop
    between cycles, so that per-cycle counts are exact. A traced run replays
    its first cycle untraced, to compare outputs and to time the tracing.
    Returns (set-up time, host slowness) per set-up and the traced over
    untraced time of the first cycle."""
    setup = []
    for r in range(1 if tracer else SETUP_REPEATS):
        before = runner.probe.slowness()
        start = time.perf_counter()
        for op in wl.setup(work / f"setup{r}"):
            runner.run(op, "setup", -1, probe=False)
        elapsed = time.perf_counter() - start
        setup.append((elapsed, (before + runner.probe.slowness()) / 2))
        if r:
            shutil.rmtree(work / f"setup{r - 1}")
    overhead = None
    deadline = time.perf_counter() + seconds
    cycle = 0
    while True:
        if tracer:
            tracer.op = f"{cycle}:inputs"
        ops = wl.ops(cycle)
        for i, op in enumerate(ops):
            if tracer:
                with tracer.span(f"op.{op.kind}", f"{cycle}:{op.kind}:{i}"):
                    runner.run(op, "timed", cycle)
            else:
                runner.run(op, "timed", cycle)
                if cycle and time.perf_counter() >= deadline:
                    return setup, overhead
        if tracer and cycle == 0:
            tracer.uninstall()
            traced = sum(r.wall / r.host for r in runner.records if r.phase == "timed")
            replay = sum(r.wall / r.host for r in (runner.run(op, "replay", 0) for op in ops))
            overhead = traced / replay
            tracer.install()
        cycle += 1
        if time.perf_counter() >= deadline:
            return setup, overhead


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(runner: Runner, setup: list[tuple[float, float]]) -> tuple[dict, dict]:
    ok = [r for r in runner.records if r.error is None]

    def rates(kind):
        return [r.rate * r.host for r in ok if r.kind == kind and r.phase == "timed"]

    def wall_rates(kind):
        return [r.rate for r in ok if r.kind == kind and r.phase == "timed"]

    samples = {
        "setup_s": [t / h for t, h in setup],
        "train_book_epochs_per_s": rates("train"),
        "eval_mb_per_s": rates("eval"),
        "attribute_books_per_s": rates("attribute"),
        "test_weighted_f1": [r.f1 for r in ok if r.f1 is not None and r.phase == "timed"],
    }
    values = {name: _median(v) for name, v in samples.items()}
    samples.update({"wall.setup_s": [t for t, _ in setup],
                    "wall.train_book_epochs_per_s": wall_rates("train"),
                    "wall.eval_mb_per_s": wall_rates("eval"),
                    "wall.attribute_books_per_s": wall_rates("attribute"),
                    "host_slowness": [r.host for r in runner.records if r.phase == "timed"]})
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values["ok_op_ratio"] = len(ok) / len(runner.records)
    return values, samples


def _percentile_us(durations: list[float], q: int) -> float:
    if len(durations) < 2:
        return sum(durations) * 1e6
    return statistics.quantiles(durations, n=100, method="inclusive")[q - 1] * 1e6


def per_layer(tracer: tracing.Tracer, runner: Runner, overhead: float) -> tuple[dict, dict]:
    """Per-layer metrics: the median over traced cycles of each cycle's total,
    plus set-up-only synth time, tracing overhead and missing targets."""
    spans = tracer.spans
    own = tracing.self_times(spans)
    books = defaultdict(int)
    for r in runner.records:
        if r.phase == "timed":
            books[r.cycle] += r.books
    acc = {c: defaultdict(float) for c in books}
    forward = {c: [] for c in books}
    synth_s = 0.0
    for i, (name, start, end, _, op, amount) in enumerate(spans):
        module = name.split(".")[0]
        if op == "setup":
            synth_s += own[i] if module == "synth" else 0.0
            continue
        cycle, kind = op.split(":")[:2]
        if kind == "inputs":
            continue
        a = acc[int(cycle)]
        a[f"{name}.calls"] += 1
        a[f"{name}.self_s"] += own[i]
        a[f"{name}.amount"] += amount
        a[f"{module}.self_s"] += own[i]
        if name == "net.forward":
            forward[int(cycle)].append(end - start)
        if kind == "train":
            if (module == "net" and "checkpoint" not in name) or name == "pipeline.train":
                a["train.net_s"] += own[i]
            if name == "pipeline.train":
                a["train.total_s"] += end - start
        elif kind == "eval":
            if name == "op.eval":
                a["eval.total_s"] += end - start
            elif module in ("textstats", "embedding"):
                a["eval.text_s"] += own[i]
            elif name == "net.predict":
                a["eval.predict_s"] += end - start

    def ratio(x, y):
        return x / y if y else 0.0

    per_cycle = []
    for c, a in acc.items():
        m = {f"{n}.calls": a[f"{n}.calls"] for n in CALLS}
        m.update({f"{n}.self_s": a[f"{n}.self_s"] for n in SELF})
        m["readability.self_s"] = a["readability.self_s"]
        m["net.checkpoint.self_s"] = a["net.save_checkpoint.self_s"] + a["net.load_checkpoint.self_s"]
        m["net.forward.p50_us"] = _percentile_us(forward[c], 50)
        m["net.forward.p99_us"] = _percentile_us(forward[c], 99)
        seg = "textstats.segment_sentences"
        enc = "embedding.encode_hashed_bow"
        load = "embedding.load_embeddings"
        m[f"{seg}.mb_per_s"] = ratio(a[f"{seg}.amount"] / MB, a[f"{seg}.self_s"])
        m["textstats.segment_calls_per_book"] = ratio(a[f"{seg}.calls"], books[c])
        m[f"{enc}.sentences_per_s"] = ratio(a[f"{enc}.amount"], a[f"{enc}.self_s"])
        m[f"{load}.mb_per_s"] = ratio(a[f"{load}.amount"] / MB, a[f"{load}.self_s"])
        m["train.net_share"] = ratio(a["train.net_s"], a["train.total_s"])
        m["eval.text_share"] = ratio(a["eval.text_s"], a["eval.total_s"])
        m["eval.net_predict_share"] = ratio(a["eval.predict_s"], a["eval.total_s"])
        per_cycle.append(m)
    values = {name: _median([m[name] for m in per_cycle]) for name in per_cycle[0]}
    values["synth.self_s"] = synth_s
    values["trace.overhead_ratio"] = overhead
    values["trace.absent_targets"] = len(tracer.absent)
    return values, {"cycles": [float(c) for c in acc]}


LAYER_UNITS = {"calls": "count", "self_s": "s", "p50_us": "us", "p99_us": "us",
               "mb_per_s": "MB/s", "sentences_per_s": "1/s", "segment_calls_per_book": "count",
               "net_share": "ratio", "text_share": "ratio", "net_predict_share": "ratio",
               "overhead_ratio": "ratio", "absent_targets": "count"}


def _unit(name: str) -> str:
    return END_TO_END_UNITS.get(name) or LAYER_UNITS[name.rsplit(".", 1)[1]]


def _git_commit(root: Path) -> str:
    """HEAD of the checkout, read without running git; "unknown" outside git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = root / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = root / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def provenance(wl: Workload, runner: Runner, root: Path, seconds: float,
               tracer: tracing.Tracer | None) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    timed = [r for r in runner.records if r.phase == "timed"]
    shares = {}
    for kind in sorted({r.kind for r in timed}) + ["all"]:
        of_kind = [r for r in timed if kind in ("all", r.kind)]
        shares[kind] = sum(r.repeated for r in of_kind) / len(of_kind)
    prov = {
        "git_commit": _git_commit(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "nproc": os.cpu_count(),
        "workload": wl.name,
        "seed": wl.seed,
        "seconds": seconds,
        "traced": tracer is not None,
        "inputs": wl.inputs,
        "repeated_input_share": shares,
        "errors": [f"{r.phase} {r.kind} cycle {r.cycle}: {r.error}"
                   for r in runner.records if r.error],
    }
    if tracer is not None:
        prov["wrapped"] = tracer.wrapped
        prov["absent"] = tracer.absent
    return prov


def run(name: str, seed: int, seconds: float, traced: bool, tiny: bool, root: Path) -> dict:
    """Run one workload; return the result object the benchmark prints."""
    out_dir = root / ".perfbench-out"
    work = out_dir / f"work-{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = WORKLOADS[name](seed, tiny)
    runner = Runner()
    tracer = tracing.Tracer() if traced else None
    try:
        if tracer:
            tracer.install()
        setup, overhead = _measure(wl, runner, work, seconds, tracer)
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    if tracer:
        values, samples = per_layer(tracer, runner, overhead)
    else:
        values, samples = end_to_end(runner, setup)
    metrics = {n: {"value": float(v), "unit": _unit(n)} for n, v in values.items()}
    prov = provenance(wl, runner, root, seconds, tracer)
    failed = sum(r.error is not None for r in runner.records)

    stem = out_dir / f"{name}-seed{seed}-trace{int(traced)}"
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"provenance": prov, "samples": samples, "metrics": metrics}, fh, indent=1)
    if tracer:
        tracer.write(Path(f"{stem}-spans.jsonl"))

    print("provenance " + json.dumps(prov))
    for n, m in metrics.items():
        count = len(samples.get(n, samples.get("cycles", [])))
        print(f"{n:42s} {m['value']:>14.6g} {m['unit']:6s} n={count or '-'}")
    return {"correct": failed == 0, "attempted": len(runner.records), "failed": failed,
            "metrics": metrics}
