"""Block featurization: ``pipeline.featurize_corpus`` featurizes the texts
of up to ``_BLOCK_BOOKS`` books in one pass, and must give every book
exactly the bytes ``featurize_book`` gives it alone, or the error a
book-by-book pass meets first."""

import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from bookpred import pipeline
from bookpred.corpus import BookRecord, Genre, SectionSpec, SuccessLabel
from bookpred.embedding import write_embeddings
from bookpred.net import ModelConfig
from bookpred.pipeline import EncoderConfig, FeaturizationError, TrainConfig

# Pieces that sit where one book's section meets the next one's in a
# block: words, in-word joiners, terminators, blank lines, and characters
# whose UTF-8 or lowercase form is longer than one byte or character. A
# lone surrogate, which makes a book unreadable, is left to the examples.
_PIECES = [
    "word", "Ab", "readability", "42", "don't", "well-known", "rock’n’roll", "-", "'", "’",
    ".", "!", "?", "...", " ", "\n", "\n\n", "\t", "\r\n", "Mr.", "(e.g.", "“", "”", "İ",
    "Straße", "𝔘𝔫𝔦", "😀", "—",
]
_TEXTS = st.lists(st.sampled_from(_PIECES), min_size=1, max_size=30).map("".join)
_SECTIONS = ["full", "first:1", "first:3", "last:1", "last:3"]
_MODELS = {
    "cnn": ModelConfig(),
    "cnn-3": ModelConfig(n_chunks=3, window_sizes=(1, 2)),
    "book2vec": ModelConfig(arch="book2vec"),
    "cnn-no-readability": ModelConfig(use_readability=False),
}
# (books, bytes) a block may hold: the real caps, and small ones that make
# every short corpus cross them.
_CAPS = [(pipeline._BLOCK_BOOKS, pipeline._BLOCK_BYTES), (3, 1 << 18), (32, 40), (2, 1)]


def _corpus(root: Path, texts: list[str], n_books: int) -> tuple:
    """``n_books`` books cycling through ``texts``, each with a .semb file
    of 1-5 rows of dim 8 under ``root / "semb"``. A lone surrogate is
    written as its UTF-8-style bytes, which makes the book unreadable."""
    (root / "semb").mkdir()
    rng = np.random.default_rng(len(texts) + n_books)
    records = []
    for i in range(n_books):
        path = root / f"b{i}.txt"
        path.write_bytes(texts[i % len(texts)].encode("utf-8", "surrogatepass"))
        write_embeddings(rng.standard_normal((1 + i % 5, 8)), root / "semb" / f"b{i}.semb")
        records.append(BookRecord(f"b{i}", Genre.FICTION, None, 0, SuccessLabel.SUCCESSFUL, path))
    return tuple(records)


def _one_by_one(corpus, cfg):
    """Each book featurized alone, or the first error a book raises."""
    books = []
    for record in corpus:
        try:
            books.append(pipeline.featurize_book(record, cfg))
        except FeaturizationError as exc:
            return str(exc)
    return books


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    texts=st.lists(_TEXTS, min_size=1, max_size=5),
    n_books=st.integers(1, 40),
    external=st.booleans(),
    model=st.sampled_from(sorted(_MODELS)),
    section=st.sampled_from(_SECTIONS),
    caps=st.sampled_from(_CAPS),
)
@example(["one two", "three"], 40, False, "cnn", "full", _CAPS[0])  # past 32 books
@example(["one two-", "three"], 4, False, "cnn-3", "full", _CAPS[0])
@example(["one two'", "three"], 4, True, "book2vec", "last:1", _CAPS[0])
@example(["one two'", "three"], 4, True, "cnn", "last:1", _CAPS[0])
@example(["one two’", "three"], 4, False, "book2vec", "first:1", _CAPS[0])
@example(["one two’", "three"], 4, False, "cnn", "first:1", _CAPS[0])
@example(["one two.", "Three four?", "five!"], 6, False, "cnn", "first:3", _CAPS[0])
@example(["\n\nblank lines. around\n\n", "\n\nnext\n\n\n"], 5, True, "cnn", "full", _CAPS[0])
@example(["İstanbul İİ. iİ", "İ-İ’İ"], 5, False, "cnn-3", "last:3", _CAPS[0])
@example(["𝔘𝔫𝔦 😀 𝔠𝔬𝔡𝔢. 😀", "😀x"], 5, False, "cnn", "full", _CAPS[0])
@example(["good words.", "a \ud800 b."], 4, False, "cnn", "full", _CAPS[0])
@example(["a \ud800 b."], 3, True, "cnn-no-readability", "full", _CAPS[0])  # reads no text
@example(["fine.", "— ... !", "also fine."], 6, False, "cnn", "full", _CAPS[0])
@example(["word " * 30_000 + ".", "short one."], 5, False, "cnn-3", "full", _CAPS[0])
def test_blocks_equal_one_book_featurization(texts, n_books, external, model, section, caps):
    with tempfile.TemporaryDirectory() as tmp:
        corpus = _corpus(Path(tmp), texts, n_books)
        cfg = TrainConfig(
            section=SectionSpec.parse(section),
            encoder=EncoderConfig(dim=8, seed=3, directory=Path(tmp) / "semb" if external else None),
            model=_MODELS[model],
        )
        with mock.patch.multiple(pipeline, _BLOCK_BOOKS=caps[0], _BLOCK_BYTES=caps[1]):
            expected = _one_by_one(corpus, cfg)
            event("a book fails" if isinstance(expected, str) else "every book featurized")
            if isinstance(expected, str):
                with pytest.raises(FeaturizationError) as info:
                    pipeline.featurize_corpus(corpus, cfg)
                assert str(info.value) == expected
                return
            x, readability = pipeline.featurize_corpus(corpus, cfg)
    assert x.shape == (len(corpus),) + expected[0][0].shape
    for i, (book_x, book_readability) in enumerate(expected):
        assert x[i].tobytes() == book_x.tobytes()
        if cfg.model.use_readability:
            assert readability[i].tobytes() == book_readability.tobytes()
        else:
            assert readability is None and book_readability is None


@pytest.mark.parametrize("external", [False, True])
def test_first_faulty_book_in_a_block_is_named(tmp_path, external):
    texts = ["Some words here.", "More words.", "— ... !", "Fine again.", "", "Last one."]
    corpus = _corpus(tmp_path, texts, len(texts))
    corpus[4].text_path.write_bytes(b"\xff\xfe not UTF-8")
    cfg = TrainConfig(
        encoder=EncoderConfig(dim=8, directory=tmp_path / "semb" if external else None)
    )
    with pytest.raises(FeaturizationError) as info:
        pipeline.featurize_corpus(corpus, cfg)
    assert str(info.value) == "book b2: readability index undefined for zero words"


def test_long_books_are_blocks_of_their_own(tmp_path):
    rng = np.random.default_rng(8)
    words = np.array([f"word{i}" for i in range(3000)], dtype=object)
    texts = [
        " ".join(
            " ".join(words[rng.integers(len(words), size=int(k))]) + "."
            for k in rng.integers(6, 13, size=5000)
        )
        for _ in range(8)
    ]
    corpus = _corpus(tmp_path, texts, len(texts))
    cfg = TrainConfig(section=SectionSpec("full"), encoder=EncoderConfig(dim=8))
    peaks = []
    for books in (corpus[:1], corpus):
        tracemalloc.start()
        try:
            pipeline.featurize_corpus(books, cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.1 * peaks[0], peaks


def test_blocks_close_past_the_byte_cap_and_count_afresh(tmp_path):
    # Ten-byte books and a 25-byte cap: the third book of each block takes
    # it past the cap and closes it, and the next block counts from zero.
    corpus = _corpus(tmp_path, ["Ten bytes."], 8)
    cfg = TrainConfig(section=SectionSpec("full"), encoder=EncoderConfig(dim=8))
    sizes = []
    section_blocks = pipeline._section_blocks

    def recording(*args):
        for block in section_blocks(*args):
            sizes.append(len(block))
            yield block

    with mock.patch.multiple(pipeline, _BLOCK_BYTES=25, _section_blocks=recording):
        pipeline.featurize_corpus(corpus, cfg)
    assert sizes == [3, 3, 2]


def test_an_external_book_names_its_semb_before_its_text(tmp_path):
    # The second book has two faults: its text is not UTF-8 and its .semb is
    # missing. The .semb is loaded first, so its error is the one raised.
    corpus = _corpus(tmp_path, ["Some words here.", "More words."], 2)
    corpus[1].text_path.write_bytes(b"\xff\xfe not UTF-8")
    semb = tmp_path / "semb" / "b1.semb"
    semb.unlink()
    cfg = TrainConfig(encoder=EncoderConfig(dim=8, directory=tmp_path / "semb"))
    with pytest.raises(FeaturizationError) as info:
        pipeline.featurize_corpus(corpus, cfg)
    assert str(info.value) == f"book b1: [Errno 2] No such file or directory: '{semb}'"
