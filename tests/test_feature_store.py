"""The ``featurized.csv`` store of a ``.semb`` directory: each book's
readability counts for one section, pinned to its text by a sha256.

A run with an external encoder takes a book's counts from a row for its
section once the text hashes as the row says; it counts any other book
from its text; a changed text or a malformed store exits 1. Outputs are
the same bytes with or without a store."""

import csv
import shutil
from dataclasses import replace

import pytest

from bookpred import cli, pipeline, synth
from bookpred.cli import main
from bookpred.corpus import load_corpus
from bookpred.embedding import load_embeddings, write_embeddings
from bookpred.textstats import TextCounts

SMALL = ["--set", "epochs=2", "--set", "model.filters_per_window=2",
         "--set", "model.hidden_units=4", "--set", "batch_size=8", "--seed", "1"]


@pytest.fixture(scope="module")
def made(tmp_path_factory):
    """A synth readability corpus, as synth wrote it; copy before changing."""
    root = tmp_path_factory.mktemp("store")
    synth.make_readability_corpus(root / "corpus", n_books=24, seed=5, embedding_dim=8,
                                  sentences_per_book=(20, 40))
    return root / "corpus"


@pytest.fixture
def corpus(made, tmp_path):
    shutil.copytree(made, tmp_path / "corpus")
    return tmp_path / "corpus"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def train_and_eval(capsys, corpus, out, *extra):
    """Train, eval and attribute on ``corpus`` through its .semb directory;
    the bytes of every file written into ``out``."""
    out.mkdir()
    semb = ["--semb-dir", corpus / "semb"]
    manifest = corpus / "manifest.csv"
    checkpoint = out / "model.bpmd"
    assert run(capsys, "train", "--manifest", manifest, "--out", checkpoint,
               "--history", out / "history.csv", *semb, *SMALL, *extra)[0] == 0
    assert run(capsys, "eval", "--checkpoint", checkpoint, "--manifest", manifest,
               "--out", out / "report.csv", "--preds", out / "preds.csv", *semb)[0] == 0
    assert run(capsys, "attribute", "--checkpoint", checkpoint, "--manifest", manifest,
               "--out", out / "attribution.csv", *semb)[0] == 0
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_synth_writes_a_store_for_the_default_section(made):
    stored = rows(made / "semb" / pipeline.STORE_NAME)
    books = load_corpus(made / "manifest.csv")
    assert [row["book_id"] for row in stored] == [record.book_id for record in books]
    assert {row["section"] for row in stored} == {str(pipeline.TrainConfig().section)}
    assert list(stored[0]) == pipeline.STORE_COLUMNS


def test_outputs_are_the_same_with_and_without_the_store(corpus, tmp_path, capsys):
    with_store = train_and_eval(capsys, corpus, tmp_path / "a")
    (corpus / "semb" / pipeline.STORE_NAME).unlink()
    assert with_store == train_and_eval(capsys, corpus, tmp_path / "b")
    assert set(with_store) == {"attribution.csv", "history.csv", "model.bpmd", "preds.csv",
                               "report.csv"}


def test_another_section_counts_from_the_text(corpus, tmp_path, capsys):
    # The store holds first:1000 rows; a first:7 run recounts every book.
    with_store = train_and_eval(capsys, corpus, tmp_path / "a", "--section", "first:7")
    (corpus / "semb" / pipeline.STORE_NAME).unlink()
    assert with_store == train_and_eval(capsys, corpus, tmp_path / "b", "--section", "first:7")


def test_external_featurize_writes_what_synth_stored(made, tmp_path, capsys):
    out = tmp_path / "out"
    code, stdout, err = run(capsys, "featurize", "--manifest", made / "manifest.csv",
                            "--out", out, "--set", f"encoder.directory={made / 'semb'}")
    assert (code, err) == (0, "")
    assert stdout == f"featurized 24 of 24 books into {out}\n"
    assert sorted(p.name for p in out.iterdir()) == ["featurized.csv", "readability.csv"]
    pinned = ["book_id", "text_sha256", "section", *pipeline.COUNT_COLUMNS]
    written, stored = rows(out / pipeline.STORE_NAME), rows(made / "semb" / pipeline.STORE_NAME)
    assert [[row[k] for k in pinned] for row in written] == [
        [row[k] for k in pinned] for row in stored
    ]
    assert [row["semb_path"] for row in written] == [
        str(made / "semb" / f"{row['book_id']}.semb") for row in written
    ]
    readability = rows(out / "readability.csv")
    assert [[row[k] for k in pinned[:1] + pinned[3:]] for row in readability] == [
        [row[k] for k in pinned[:1] + pinned[3:]] for row in stored
    ]


class _Unwritable:
    """A field whose text cannot be made, so a write fails partway through its file."""

    def __str__(self):
        raise OSError("No space left on device")


@pytest.mark.parametrize("target, name", [(cli, "_counts_row"), (pipeline, "store_row")],
                         ids=["readability.csv", "featurized.csv"])
def test_a_failed_featurize_leaves_the_previous_files(corpus, capsys, monkeypatch, target,
                                                      name):
    # The README's store-only rewrite, in the vectors' own directory: a write that
    # fails at the last book's row leaves both files as they were, and no temp file.
    semb, manifest = corpus / "semb", corpus / "manifest.csv"
    argv = ["featurize", "--manifest", manifest, "--out", semb,
            "--set", f"encoder.directory={semb}"]
    assert run(capsys, *argv)[0] == 0
    before = {path.name: path.read_bytes() for path in semb.iterdir()}
    write_row = getattr(target, name)
    last = load_corpus(manifest)[-1].book_id

    def failing(book, *args):  # a book id for _counts_row, a record for store_row
        row = write_row(book, *args)
        return row + [_Unwritable()] if getattr(book, "book_id", book) == last else row

    monkeypatch.setattr(target, name, failing)
    code, _, err = run(capsys, *argv, "--set", "section=last:5")
    assert (code, err) == (1, "error: No space left on device\n")
    assert {path.name: path.read_bytes() for path in semb.iterdir()} == before


def test_external_featurize_isolates_an_unreadable_book(corpus, tmp_path, capsys):
    (corpus / "books" / "book0004.txt").unlink()
    out = tmp_path / "out"
    code, stdout, err = run(capsys, "featurize", "--manifest", corpus / "manifest.csv",
                            "--out", out, "--set", f"encoder.directory={corpus / 'semb'}")
    assert code == 1
    assert stdout == f"featurized 23 of 24 books into {out}\n"
    assert err.startswith("failed book0004: book book0004: cannot read text")
    assert "book0004" not in (out / pipeline.STORE_NAME).read_text(encoding="utf-8")


def test_hashed_featurize_output_is_a_store(corpus, tmp_path, capsys, monkeypatch):
    out = tmp_path / "features"
    assert run(capsys, "featurize", "--manifest", corpus / "manifest.csv", "--out", out,
               "--jobs", "1", "--set", "encoder.dim=8")[0] == 0
    calls = count_section_reads(monkeypatch)
    assert run(capsys, "train", "--manifest", corpus / "manifest.csv", "--out",
               tmp_path / "m.bpmd", "--semb-dir", out, *SMALL)[0] == 0
    assert calls == []


@pytest.mark.parametrize("command", ["eval", "attribute"])
def test_changed_text_exits_one_naming_the_book(corpus, tmp_path, capsys, command):
    checkpoint = tmp_path / "m.bpmd"
    semb = ["--semb-dir", corpus / "semb"]
    manifest = corpus / "manifest.csv"
    assert run(capsys, "train", "--manifest", manifest, "--out", checkpoint, *semb, *SMALL)[0] == 0
    with open(corpus / "books" / "book0005.txt", "a", encoding="utf-8") as fh:
        fh.write("Added.\n")
    code, _, err = run(capsys, command, "--checkpoint", checkpoint, "--manifest", manifest,
                       *semb)
    assert code == 1
    assert err.startswith("error: book book0005: ")
    assert "text changed since featurized.csv stored its counts" in err


def test_an_earlier_books_error_comes_first(corpus, tmp_path, capsys):
    # book0002 has no row and no text; book0005 has a row and a changed text.
    checkpoint = tmp_path / "m.bpmd"
    semb = ["--semb-dir", corpus / "semb"]
    manifest = corpus / "manifest.csv"
    assert run(capsys, "train", "--manifest", manifest, "--out", checkpoint, *semb, *SMALL)[0] == 0
    store = corpus / "semb" / pipeline.STORE_NAME
    lines = store.read_text(encoding="utf-8").splitlines(keepends=True)
    store.write_text("".join(line for line in lines if not line.startswith("book0002,")),
                     encoding="utf-8")
    (corpus / "books" / "book0002.txt").unlink()
    with open(corpus / "books" / "book0005.txt", "a", encoding="utf-8") as fh:
        fh.write("Added.\n")
    code, _, err = run(capsys, "eval", "--checkpoint", checkpoint, "--manifest", manifest, *semb)
    assert code == 1
    assert err.startswith("error: book book0002: cannot read text")


@pytest.mark.parametrize("store", [True, False])
def test_a_semb_one_row_short_exits_one_naming_the_book(corpus, tmp_path, capsys, store):
    semb = corpus / "semb" / "book0003.semb"
    write_embeddings(load_embeddings(semb)[:-1], semb)
    if not store:
        (corpus / "semb" / pipeline.STORE_NAME).unlink()
    code, _, err = run(capsys, "train", "--manifest", corpus / "manifest.csv", "--out",
                       tmp_path / "m.bpmd", "--semb-dir", corpus / "semb", *SMALL)
    assert code == 1
    assert err.startswith(f"error: book book0003: {semb} has ")
    assert " rows in section first:1000, its text " in err


def _replace_field(line: str, column: str, value: str) -> str:
    fields = line.rstrip("\n").split(",")
    fields[pipeline.STORE_COLUMNS.index(column)] = value
    return ",".join(fields) + "\n"


# (name, line number, how the store's lines are changed)
MALFORMED = [
    ("count_not_int", 3, lambda ls: ls[:2] + [_replace_field(ls[2], "W", "many")] + ls[3:]),
    ("negative_count", 4, lambda ls: ls[:3] + [_replace_field(ls[3], "P", "-1")] + ls[4:]),
    ("bad_section", 2, lambda ls: ls[:1] + [_replace_field(ls[1], "section", "middle:3")] + ls[2:]),
    ("short_row", 5, lambda ls: ls[:4] + [ls[4].rsplit(",", 1)[0] + "\n"] + ls[5:]),
    ("repeated_book", 26, lambda ls: ls + [ls[7]]),
    ("missing_column", 1, lambda ls: [ls[0].replace(",text_sha256", ",sha")] + ls[1:]),
]


@pytest.mark.parametrize("line, change", [m[1:] for m in MALFORMED], ids=[m[0] for m in MALFORMED])
def test_malformed_store_exits_one_naming_file_and_line(corpus, tmp_path, capsys, line, change):
    store = corpus / "semb" / pipeline.STORE_NAME
    store.write_text("".join(change(store.read_text(encoding="utf-8").splitlines(True))),
                     encoding="utf-8")
    code, _, err = run(capsys, "train", "--manifest", corpus / "manifest.csv", "--out",
                       tmp_path / "m.bpmd", "--semb-dir", corpus / "semb", *SMALL)
    assert code == 1
    assert err.startswith(f"error: {store}: line {line}: ")


def test_undecodable_store_names_the_line(corpus, tmp_path, capsys):
    store = corpus / "semb" / pipeline.STORE_NAME
    lines = store.read_bytes().splitlines(keepends=True)
    store.write_bytes(b"".join(lines[:6] + [b"\xff" + lines[6]] + lines[7:]))
    code, _, err = run(capsys, "train", "--manifest", corpus / "manifest.csv", "--out",
                       tmp_path / "m.bpmd", "--semb-dir", corpus / "semb", *SMALL)
    assert code == 1
    assert err.startswith(f"error: {store}: line 7: ")


def count_section_reads(monkeypatch) -> list:
    """Book ids of every ``pipeline._read_section`` call from now on."""
    calls = []
    read_section = pipeline._read_section

    def counting(record, section):
        calls.append(record.book_id)
        return read_section(record, section)

    monkeypatch.setattr(pipeline, "_read_section", counting)
    return calls


def test_eval_with_a_valid_store_reads_no_section(corpus, tmp_path, capsys, monkeypatch):
    checkpoint = tmp_path / "m.bpmd"
    semb = ["--semb-dir", corpus / "semb"]
    manifest = corpus / "manifest.csv"
    calls = count_section_reads(monkeypatch)
    assert run(capsys, "train", "--manifest", manifest, "--out", checkpoint, *semb, *SMALL)[0] == 0
    assert run(capsys, "eval", "--checkpoint", checkpoint, "--manifest", manifest, *semb)[0] == 0
    assert calls == []
    # Without the store every book is read, so the count above does count.
    (corpus / "semb" / pipeline.STORE_NAME).unlink()
    assert run(capsys, "eval", "--checkpoint", checkpoint, "--manifest", manifest, *semb)[0] == 0
    assert sorted(calls) == sorted(r.book_id for r in load_corpus(manifest))


def test_section_counts_isolate_books_and_match_featurization(made):
    corpus = load_corpus(made / "manifest.csv")
    broken = corpus[:3] + (replace(corpus[3], text_path=made / "absent.txt"),)
    counts = list(pipeline.section_counts(broken + corpus[4:], pipeline.TrainConfig().section))
    assert isinstance(counts[3], pipeline.FeaturizationError)
    assert "book0003" in str(counts[3])
    stored = {row["book_id"]: row for row in rows(made / "semb" / pipeline.STORE_NAME)}
    for record, item in zip(corpus, counts):
        if record.book_id != "book0003":
            book_counts, vectors = item
            assert vectors is None
            row = stored[record.book_id]
            assert list(vars(book_counts).values()) == [int(row[k]) for k in pipeline.COUNT_COLUMNS]


def test_synth_counts_only_the_section_of_a_longer_book(tmp_path):
    manifest = synth.make_readability_corpus(tmp_path, n_books=2, seed=3, embedding_dim=8,
                                             sentences_per_book=(1001, 1003))
    section = pipeline.TrainConfig().section
    stored = rows(tmp_path / "semb" / pipeline.STORE_NAME)
    counted = pipeline.section_counts(load_corpus(manifest), section)
    assert [row["S"] for row in stored] == ["1000", "1000"]
    assert [[int(row[k]) for k in pipeline.COUNT_COLUMNS] for row in stored] == [
        list(vars(counts).values()) for counts, _ in counted
    ]


def test_section_counts_yield_pairs_for_stored_and_counted_books(made):
    # One book of the store and the same text under an id the store lacks,
    # which is counted from the text: both come as (TextCounts, None).
    corpus = load_corpus(made / "manifest.csv")
    unstored = replace(corpus[1], book_id="not-in-the-store")
    encoder = pipeline.EncoderConfig(dim=8, directory=made / "semb")
    items = list(pipeline.section_counts(corpus[1:2] + (unstored,), pipeline.TrainConfig().section,
                                         made / "semb", encoder))
    assert [(type(counts), rows) for counts, rows in items] == [(TextCounts, None)] * 2
    assert items[0] == items[1]
