"""Differential tests: the array segmenter and tokenizer, the sparse
hashed encoder and the frequency-weighted counts against the
character-loop and per-token reference in ``text_reference`` and the
one-sentence regex ``tokenize_words``. Everything must agree exactly: the
same sentence texts, the same tokens whether raw spans, normalized
sentences or a book's section are tokenized, the same ``TextCounts``
whether counted from tokens or straight from the bytes, per book and across
blocks of sentences, and encoder matrices equal bit for bit, and the chunk averages the encoder sums
from (sentence, bucket) entries, one book or several, equal
``chunk_average`` of the reference's full matrix bit for bit.
"""

import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import text_reference as ref
from bookpred import pipeline, textstats
from bookpred.corpus import BookRecord, Genre, SectionSpec, SuccessLabel, select_section
from bookpred.embedding import chunk_average, encode_hashed_bow
from bookpred.textstats import (
    counts_from_sentences,
    segment_sentences,
    split_sentences,
    tokenize_sentences,
    tokenize_words,
)

# Pieces that sit on the segmentation rules: terminators, every kind of
# whitespace the blank-line and terminator rules distinguish (including
# Unicode spaces and separators such as NBSP, LINE SEPARATOR and FILE
# SEPARATOR), quotes and brackets that hide an abbreviation, the
# abbreviations themselves, and in-word apostrophes and hyphens.
_PIECES = [
    ".", "!", "?", "...", "?!", ".\"", "\n", "\n\n", "\n \t\r\n", "\t", "\r", " ",
    "  ", "\xa0", "\u2028", "\x1c", "\x85", "\"", "'", "“", "”", "‘", "’", "(", "[",
    "{", ")", "Mr.", "mrs.", "Dr.", "St.", "vs.", "etc.", "e.g.", "i.e.", "E.G.",
    "(Mr.", "\"Dr.", "'i.e.", "don't", "well-known", "rock’n’roll", "-", "'", "_",
    "a", "Ab", "the", "table", "beautiful", "readability", "42", "x9", "é", "Straße",
]

texts = st.lists(st.sampled_from(_PIECES), max_size=40).map("".join) | st.text(
    alphabet=".!?\n\t\r \xa0\u2028\x1c\"'()-’aeMrdgi", max_size=60
)


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(texts)
@example("")
@example("Mr. Smith arrived.  He left!\n\nThen (e.g. later) he returned? Yes")
@example("end.\n \t\r\n\nnext")
@example("a.\xa0b.\u2028c.\x1cd")
@example("“Mr. A” ‘Dr. B’ ’St. C [vs. D {etc. E (e.g. F 'i.e. G x\tMrs. H\nMr. I ”Dr. J")
def test_segment_sentences_matches_reference(text):
    assert segment_sentences(text) == [s.text for s in ref.segment_sentences(text)]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    st.lists(texts, max_size=12),
    st.sampled_from((8, 9, 16, 64, 512)),
    st.integers(0, 2**31),
)
@example([], 512, 0)
@example(["", "...", "a b a"], 8, 1)
def test_encoder_matches_reference(sentences, dim, seed):
    actual = encode_hashed_bow(sentences, dim=dim, seed=seed)
    expected = ref.encode_hashed_bow(sentences, dim=dim, seed=seed)
    assert actual.shape == expected.shape == (len(sentences), dim)
    assert np.array_equal(actual, expected)
    assert actual.tobytes() == expected.tobytes()


@settings(max_examples=300, derandomize=True, deadline=None)
@given(texts)
@example("")
@example("... !!! ???")
@example("Don't stop. don't STOP! Straße, well-known 42.")
@example("Four-byte 😀x😀 and 日本語’s. Lone \ud800 surrogate! Combining é\u0301 mark.")
def test_tokens_match_per_sentence_tokenization(text):
    sentences = ref.segment_sentences(text)
    tokens = tokenize_sentences(s.text for s in sentences)
    words = [tokenize_words(s.text) for s in sentences]
    flat = [w for sentence_words in words for w in sentence_words]
    assert len(tokens) == len(sentences)
    assert tokens.vocab == list(dict.fromkeys(flat))
    assert [tokens.vocab[i] for i in tokens.ids] == flat
    assert tokens.lengths.tolist() == [len(w) for w in words]
    assert tokens.ids.dtype == tokens.lengths.dtype == np.int64
    assert counts_from_sentences(tokens) == ref.counts_from_sentences(sentences)
    from_spans = tokenize_sentences(split_sentences(text).spans())
    assert from_spans.vocab == tokens.vocab
    assert from_spans.ids.tobytes() == tokens.ids.tobytes()
    assert from_spans.lengths.tobytes() == tokens.lengths.tobytes()


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    st.lists(texts, max_size=12),
    st.sampled_from((8, 16, 64)),
    st.integers(0, 2**31),
)
@example([], 8, 0)
def test_encoder_from_tokens_matches_reference(sentences, dim, seed):
    actual = encode_hashed_bow(tokenize_sentences(sentences), dim=dim, seed=seed)
    expected = ref.encode_hashed_bow(sentences, dim=dim, seed=seed)
    assert actual.shape == expected.shape == (len(sentences), dim)
    assert actual.tobytes() == expected.tobytes()


def _same_chunks(sentences, n_chunks, dim=16, seed=5):
    tokens = tokenize_sentences(sentences)
    full = ref.encode_hashed_bow(sentences, dim=dim, seed=seed)
    expected = chunk_average(full, n_chunks)
    for given_as in (sentences, tokens):
        actual = encode_hashed_bow(given_as, dim=dim, seed=seed, n_chunks=n_chunks)
        assert actual.shape == (n_chunks, dim)
        assert actual.tobytes() == expected.tobytes()


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(texts, max_size=40), st.integers(1, 60))
@example([], 3)
@example(["", "...", "a b a", ""], 2)
@example(["x"] * 5, 50)
def test_chunked_encoder_matches_chunk_average(sentences, n_chunks):
    # Covers n_chunks above and below the sentence count (zero-size
    # chunks) and sentences without a single word.
    _same_chunks(sentences, n_chunks)


@pytest.mark.parametrize(
    "n_sentences, n_chunks",
    [
        (2348, 2),  # two chunks of over a thousand rows each
        (1031, 1),  # one chunk of every row, as book2vec averages
        (3077, 50),  # two chunk sizes, 62 and 61 rows
        (1025, 1025),  # one row per chunk
        (1500, 2000),  # more chunks than sentences
    ],
)
def test_chunked_encoder_across_block_boundaries(n_sentences, n_chunks):
    rng = np.random.default_rng(n_sentences + n_chunks)
    words = np.array(["a", "B", "see", "don't", "é", "42", "x-y", "..."], dtype=object)
    sentences = [
        " ".join(words[rng.integers(len(words), size=int(k))])
        for k in rng.integers(0, 9, size=n_sentences)
    ]
    _same_chunks(sentences, n_chunks)


# At dim 8 and seed 0, "a" and "don't" share bucket 6 with opposite signs,
# and sixteen words in eight buckets must share some: a sentence of up to
# 12 of them often sums +1 and -1, or repeats a word, in one bucket.
_DIM_8_WORDS = ["a", "don't", "B", "see", "é", "42", "x-y", "..."] + [f"w{i}" for i in range(9)]
_dim_8_sentences = st.lists(st.sampled_from(_DIM_8_WORDS), max_size=12).map(" ".join)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    st.lists(st.lists(_dim_8_sentences, max_size=9), min_size=1, max_size=5),
    st.integers(1, 6),
    st.integers(0, 3),
)
@example([["a don't", "a a don't w2", ""]], 1, 0)  # a zero row, then +1 +1 -1 +1
@example([["a a don't"], [], ["...", "w1 B x-y", "don't"]], 4, 0)  # fewer rows than chunks
@example([["see é see", "w6 w6"] * 5, ["a"] * 7], 3, 0)
def test_chunks_of_books_match_reference_at_dim_8(books, n_chunks, seed):
    sentences = [sentence for book in books for sentence in book]
    sizes = [len(book) for book in books]
    actual = encode_hashed_bow(
        tokenize_sentences(sentences), dim=8, seed=seed, n_chunks=n_chunks, books=sizes
    )
    full = ref.encode_hashed_bow(sentences, dim=8, seed=seed)
    starts = np.cumsum([0] + sizes).tolist()
    expected = [chunk_average(full[a:b], n_chunks) for a, b in zip(starts, starts[1:])]
    assert actual.shape == (len(books), n_chunks, 8)
    assert actual.tobytes() == np.stack(expected).tobytes()


# The first window of ``first:K`` segmentation holds the text's first
# ``_WINDOW * (K + 1)`` characters. With K = 1, each example below ends
# that window at ``_END`` inside a place where a rule looks across it.
_WINDOW = textstats._PREFIX_CHARS_PER_SENTENCE
_END = 2 * _WINDOW


def _pad(n):
    """``n`` characters: one long word and a space."""
    return "o" * (n - 1) + " "


def _same_tokens(tokens, sentences):
    words = [tokenize_words(s.text) for s in sentences]
    flat = [w for sentence_words in words for w in sentence_words]
    assert tokens.vocab == list(dict.fromkeys(flat))
    assert [tokens.vocab[i] for i in tokens.ids] == flat
    assert tokens.lengths.tolist() == [len(w) for w in words]
    assert tokens.ids.dtype == tokens.lengths.dtype == np.int64


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    st.lists(st.sampled_from(_PIECES), min_size=50, max_size=400).map("".join),
    st.integers(1, 4),
)
@example(_pad(_END - 5) + "Yes?!. Then a second one. And a third.", 1)  # in "?!."
@example(_pad(_END - 5) + "end\n \t\r\nnext line. more", 1)  # in "\n \t\r\n"
@example(_pad(_END - 3) + "Mr. Smith now. Bye. Go.", 1)  # right after "Mr."
@example(_pad(_END - 5) + "Straße café. Two. Three.", 1)  # right after "ß"
def test_section_tokens_match_reference(text, k):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "book.txt"
        path.write_text(text, encoding="utf-8")
        record = BookRecord("b", Genre.FICTION, None, 0, SuccessLabel.SUCCESSFUL, path)
        # Reading the file translates newlines, as every book is read.
        read = ref.segment_sentences(path.read_text(encoding="utf-8"))
        sentences = ref.segment_sentences(text)
        for spec in (SectionSpec("full"), SectionSpec("first", k), SectionSpec("last", k)):
            first = spec.k if spec.kind == "first" else None
            _same_tokens(
                select_section(split_sentences(text, first), spec).tokens(),
                select_section(sentences, spec),
            )
            if read:
                tokens = pipeline._read_section(record, spec).tokens()
                _same_tokens(tokens, select_section(read, spec))
            else:
                with pytest.raises(pipeline.FeaturizationError, match="no sentences"):
                    pipeline._read_section(record, spec).tokens()


# Words on the counting rules (case, silent e, consonant-le, İ and the
# Kelvin sign, whose lowercases hold ASCII, digits, joiners and ’), in
# random Unicode text.
_COUNT_PIECES = [
    "İle", "İ", "ıe", "Kle", "KLE", "Able", "table", "tle", "ale", "e", "le", "Ye", "ÿe",
    "rock’n’roll", "o’clock", "don't", "well-known", "x-ray", "42", "٣٤", "²", "x9",
    "é", "Straße", "日本語", "\u200d", "’", "'", "-", " ", ". ", "! ", "\n\n", "— .",
]
_count_texts = st.lists(
    st.sampled_from(_COUNT_PIECES) | st.text(max_size=4), max_size=40
).map("".join)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_count_texts, st.integers(1, 4), st.lists(st.integers(0, 99), max_size=5))
@example("", 1, [0])
@example("İle Kle able. — . ab" * 3, 2, [1, 4])
def test_counts_from_bytes_match_tokens_and_reference(text, block, cuts):
    # Books cut at random sentences, some empty, in blocks of 1-4 sentences.
    sentences = split_sentences(text)
    n = len(sentences)
    books = np.diff([0, *sorted(cut % (n + 1) for cut in cuts), n]).tolist()
    starts = np.cumsum([0] + books).tolist()
    reference = ref.segment_sentences(text)
    expected = [ref.counts_from_sentences(reference[a:b]) for a, b in zip(starts, starts[1:])]
    with mock.patch.object(textstats, "_BLOCK_SENTENCES", block):
        assert sentences.counts(books) == expected
        assert counts_from_sentences(sentences.tokens(), books) == expected
        assert sentences.counts() == counts_from_sentences(sentences.tokens())


def test_first_k_classifies_only_a_prefix(monkeypatch):
    sizes = []
    classify = textstats._classify
    monkeypatch.setattr(
        textstats, "_classify", lambda data: sizes.append(len(data)) or classify(data)
    )
    text = "One short sentence here. " * 2000
    assert split_sentences(text, 10).spans() == ["One short sentence here."] + [
        " One short sentence here."
    ] * 9
    assert 0 < sum(sizes) < len(text) / 10
