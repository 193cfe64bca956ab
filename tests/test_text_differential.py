"""Differential tests: the regex-driven segmenter, the vocabulary-and-scatter
hashed encoder, the frequency-weighted counts and the one-pass tokenizer
against the character-loop and per-token reference in ``text_reference``.
Everything must agree exactly: the same sentence texts, the same tokens
whether raw spans or normalized sentences are tokenized, the same
``TextCounts`` and encoder matrices equal bit for bit, and chunk averages
built block by block equal ``chunk_average`` of the full matrix bit for bit.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import text_reference as ref
from bookpred.embedding import _BLOCK_ROWS, chunk_average, encode_hashed_bow
from bookpred.textstats import (
    counts_from_sentences,
    segment_sentences,
    sentence_spans,
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
    from_spans = tokenize_sentences(sentence_spans(text))
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
        (2 * _BLOCK_ROWS + 300, 2),  # every chunk larger than one block
        (_BLOCK_ROWS + 7, 1),  # one chunk larger than one block
        (3 * _BLOCK_ROWS + 5, 50),  # many whole chunks per block
        (_BLOCK_ROWS + 1, _BLOCK_ROWS + 1),  # one row per chunk
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
