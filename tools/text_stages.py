"""Time the text stages of featurization on seeded long and short books.

    python tools/text_stages.py [--tiny]

The tool writes seeded long books into a temporary directory: plain ASCII
ones and a copy of each with “curly quotes” and ’ apostrophes, so that the
text is not pure ASCII. For each set, at ``full`` and at ``first:1000``, it
times, through the public API only:

* ``segment+tokenize``: read the book, segment its section with
  ``textstats.split_sentences`` and ``corpus.select_section``, and tokenize
  it, as featurization does;
* ``counts``: ``textstats.counts_from_sentences`` on those tokens, as
  the hashed encoder's featurization counts;
* ``counts-bytes``: ``Sentences.counts`` on the segmented section (segmented
  outside the timing), which counts straight from the bytes without
  numbering a word, as an external encoder's featurization counts;
* ``hashed-512``: ``embedding.encode_hashed_bow`` at dim 512 and 50 chunks,
  as the default CNN featurizes;
* ``hashed-512x1``: the same encoder at dim 512 and one chunk, the mean of
  the whole section, as book2vec and ``export-vectors`` featurize.

A third set, ``short``, holds 64 seeded books of 60-100 sentences, the
size where fixed per-call costs dominate. It is featurized at
``first:1000`` with the hashed encoder (dim 512, 50 chunks) and
readability, as ``eval`` featurizes a batch:

* ``featurize-corpus``: ``pipeline.featurize_corpus`` on all 64 books,
  which tokenizes, hashes and counts a block of up to 32 books at once;
* ``featurize-corpus-b2v``: the same call for hashed book2vec (one chunk),
  which fuses no readability, so the counts it still takes are wasted work;
* ``featurize-book``: ``pipeline.featurize_book`` on each book in turn,
  one book per block, which pays those costs once per book;
* ``featurize-cli-j1`` and ``featurize-cli-j2``: ``bookpred featurize`` of
  the 64 books, run in-process by ``cli.main`` at ``--jobs 1`` and ``--jobs 2``
  (a pool of two worker processes): the un-chunked ``.semb`` files and both
  CSVs, written into a scratch directory.

The same 64 books are also featurized with an external encoder, from seeded
noise ``.semb`` files (dim 64, one row per sentence), with readability, as
``eval --semb-dir`` featurizes a batch:

* ``external-counted``: ``pipeline.featurize_corpus`` from a ``.semb``
  directory without a store, which reads, segments and counts every text;
* ``external-stored``: the same call from a directory whose
  ``featurized.csv`` store (rows by ``pipeline.store_row``) holds each
  book's counts, so each text is only read and hashed.

Each line gives the median over five passes of the seconds a stage takes
for all books of a set, and MB/s, where MB is the size of the book files
(at ``first:1000`` too, so there the rate shows how little of each book is
read). The books are seeded (seed 5), four of 14,000 sentences each, about
1.1 MB. ``--tiny`` uses two books of 300 sentences, four short books and
one pass, as a quick check that the stages run.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import statistics
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from bookpred import cli  # noqa: E402
from bookpred.corpus import (  # noqa: E402
    MANIFEST_COLUMNS,
    BookRecord,
    Genre,
    SectionSpec,
    SuccessLabel,
    select_section,
)
from bookpred.embedding import encode_hashed_bow, write_embeddings  # noqa: E402
from bookpred.net import ModelConfig  # noqa: E402
from bookpred.pipeline import (  # noqa: E402
    STORE_COLUMNS,
    STORE_NAME,
    EncoderConfig,
    TrainConfig,
    featurize_book,
    featurize_corpus,
    section_counts,
    store_row,
)
from bookpred.textstats import counts_from_sentences, split_sentences  # noqa: E402

MB = 1e6
SEED = 5


def book_texts(seed: int, n_sentences: int) -> tuple[str, str]:
    """One seeded book of ``n_sentences`` sentences of 6-12 words, as plain
    ASCII and as a copy whose sentences are sometimes quoted with “ ” and
    whose words sometimes take a ’s."""
    rng = np.random.default_rng(seed)
    words = np.array([f"w{i}ord" for i in range(3000)], dtype=object)
    ascii_sentences, curly_sentences = [], []
    for length in rng.integers(6, 13, size=n_sentences):
        picked = list(words[rng.integers(len(words), size=int(length))])
        ascii_sentences.append(" ".join(picked) + ".")
        possessive = rng.random(len(picked)) < 0.1
        curly = " ".join(w + "’s" if p else w for w, p in zip(picked, possessive)) + "."
        curly_sentences.append(f"“{curly}”" if rng.random() < 0.3 else curly)
    return " ".join(ascii_sentences) + "\n", " ".join(curly_sentences) + "\n"


def _record(root: Path, name: str, i: int, text: str) -> BookRecord:
    path = root / name / f"book{i}.txt"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return BookRecord(f"{name}{i}", Genre.FICTION, None, 0, SuccessLabel.SUCCESSFUL, path)


def write_books(root: Path, n_books: int, n_sentences: int, seed: int) -> dict[str, list]:
    """The ASCII and the curly-quote books as records, each set in its own
    directory."""
    sets: dict[str, list] = {"ascii": [], "curly": []}
    for i in range(n_books):
        for name, text in zip(sets, book_texts(seed + i, n_sentences)):
            sets[name].append(_record(root, name, i, text))
    return sets


def write_short_books(root: Path, n_books: int, seed: int) -> list:
    """``n_books`` ASCII books of 60-100 sentences each, as records."""
    sizes = np.random.default_rng(seed).integers(60, 101, size=n_books)
    return [
        _record(root, "short", i, book_texts(seed + i, int(n))[0]) for i, n in enumerate(sizes)
    ]


def time_stages(records: list, section: SectionSpec, repeats: int) -> dict[str, float]:
    """Median seconds per stage over ``repeats`` passes over all records."""
    stages = ("segment+tokenize", "counts", "counts-bytes", "hashed-512", "hashed-512x1")
    first = section.k if section.kind == "first" else None
    seconds: dict[str, list[float]] = {stage: [] for stage in stages}
    for _ in range(repeats):
        totals = dict.fromkeys(seconds, 0.0)
        for record in records:
            t0 = time.perf_counter()
            text = record.text_path.read_text(encoding="utf-8")
            sentences = select_section(split_sentences(text, first), section)
            tokens = sentences.tokens()
            t1 = time.perf_counter()
            counts_from_sentences(tokens)
            t2 = time.perf_counter()
            sentences.counts()
            t3 = time.perf_counter()
            encode_hashed_bow(tokens, dim=512, seed=0, n_chunks=50)
            t4 = time.perf_counter()
            encode_hashed_bow(tokens, dim=512, seed=0, n_chunks=1)
            t5 = time.perf_counter()
            for stage, dt in zip(totals, np.diff([t0, t1, t2, t3, t4, t5])):
                totals[stage] += dt
        for stage, total in totals.items():
            seconds[stage].append(total)
    return {stage: statistics.median(values) for stage, values in seconds.items()}


def write_semb_dirs(root: Path, records: list, section: SectionSpec) -> tuple[Path, Path]:
    """Two directories of the same seeded noise .semb files for ``records``,
    the second with a store of their counts of ``section``."""
    counted, stored = root / "semb-counted", root / "semb-stored"
    counted.mkdir()
    stored.mkdir()
    rng = np.random.default_rng(SEED)
    rows = [STORE_COLUMNS]
    for record, (counts, _) in zip(records, section_counts(records, section)):
        matrix = rng.standard_normal((counts.sentences, 64))
        for directory in (counted, stored):
            write_embeddings(matrix, directory / f"{record.book_id}.semb")
        rows.append(store_row(record, stored / f"{record.book_id}.semb", 64, section, counts))
    with open(stored / STORE_NAME, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return counted, stored


def write_manifest(root: Path, records: list) -> Path:
    """A manifest of ``records``, as ``bookpred featurize`` reads one."""
    manifest = root / "short.csv"
    with open(manifest, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([MANIFEST_COLUMNS] + [
            [r.book_id, r.genre.value, "", r.n_ratings, r.label.value, r.text_path]
            for r in records
        ])
    return manifest


def featurize_cli(manifest: Path, root: Path, jobs: int) -> None:
    """``bookpred featurize`` of ``manifest`` at ``--jobs jobs``, in-process,
    into a fresh directory under ``root``, its summary line discarded."""
    argv = ["featurize", "--manifest", str(manifest), "--out", tempfile.mkdtemp(dir=root),
            "--jobs", str(jobs)]
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(argv) != 0:
            raise RuntimeError(f"bookpred {' '.join(argv)} failed")


def time_short_books(records: list, root: Path, repeats: int) -> dict[str, float]:
    """Median seconds over ``repeats`` passes to featurize ``records`` as
    one corpus and one book at a time, at ``first:1000`` with the hashed
    encoder and readability; as one corpus with hashed book2vec; by
    ``bookpred featurize`` at one and two jobs; and as one corpus with an
    external encoder whose readability is counted and whose readability
    is stored."""
    section = SectionSpec("first", 1000)
    cfg = TrainConfig(section=section, encoder=EncoderConfig(dim=512))
    b2v_cfg = replace(cfg, model=ModelConfig(arch="book2vec"))
    counted, stored = write_semb_dirs(root, records, section)
    manifest = write_manifest(root, records)
    counted_cfg = TrainConfig(section=section, encoder=EncoderConfig(directory=counted))
    stored_cfg = TrainConfig(section=section, encoder=EncoderConfig(directory=stored))
    stages = {
        "featurize-corpus": lambda: featurize_corpus(records, cfg),
        "featurize-corpus-b2v": lambda: featurize_corpus(records, b2v_cfg),
        "featurize-book": lambda: [featurize_book(record, cfg) for record in records],
        "featurize-cli-j1": lambda: featurize_cli(manifest, root, 1),
        "featurize-cli-j2": lambda: featurize_cli(manifest, root, 2),
        "external-counted": lambda: featurize_corpus(records, counted_cfg),
        "external-stored": lambda: featurize_corpus(records, stored_cfg),
    }
    seconds: dict[str, list[float]] = {stage: [] for stage in stages}
    for _ in range(repeats):
        for stage, run in stages.items():
            t0 = time.perf_counter()
            run()
            seconds[stage].append(time.perf_counter() - t0)
    return {stage: statistics.median(values) for stage, values in seconds.items()}


def _print_line(name: str, section: str, stage: str, seconds: float, mb: float) -> None:
    rate = mb / seconds if seconds else float("inf")
    print(f"{name:6} {section:11} {stage:20} {seconds:8.4f} {rate:8.2f}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tiny", action="store_true", help="small books, one pass")
    args = parser.parse_args(argv)
    n_books, n_sentences, n_short, repeats = (2, 300, 4, 1) if args.tiny else (4, 14_000, 64, 5)
    print(
        f"# {n_books} books of {n_sentences} sentences and {n_short} short books, "
        f"seed {SEED}, median of {repeats}"
    )
    print("set    section     stage                 seconds     MB/s")
    with tempfile.TemporaryDirectory() as tmp:
        sets = write_books(Path(tmp), n_books, n_sentences, SEED)
        for name, records in sets.items():
            mb = sum(r.text_path.stat().st_size for r in records) / MB
            for section in ("full", "first:1000"):
                stages = time_stages(records, SectionSpec.parse(section), repeats)
                for stage, seconds in stages.items():
                    _print_line(name, section, stage, seconds, mb)
        short = write_short_books(Path(tmp), n_short, SEED)
        mb = sum(r.text_path.stat().st_size for r in short) / MB
        for stage, seconds in time_short_books(short, Path(tmp), repeats).items():
            _print_line("short", "first:1000", stage, seconds, mb)
    return 0


if __name__ == "__main__":
    sys.exit(main())
