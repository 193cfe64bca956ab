"""Differential tests: the regex-driven segmenter, the vocabulary-and-scatter
hashed encoder and the frequency-weighted counts against the character-loop
and per-token reference in ``text_reference``. Everything must agree
exactly: the same ``Sentence`` lists, the same ``TextCounts`` and encoder
matrices equal bit for bit.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import text_reference as ref
from bookpred.embedding import encode_hashed_bow
from bookpred.textstats import counts_from_sentences, segment_sentences

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
    assert segment_sentences(text) == ref.segment_sentences(text)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(texts)
@example("")
@example("... !!! ???")
def test_counts_match_reference(text):
    sentences = ref.segment_sentences(text)
    assert counts_from_sentences(sentences) == ref.counts_from_sentences(sentences)


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
