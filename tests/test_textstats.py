import re
import sys

import numpy as np
import pytest

from bookpred import textstats
from bookpred.textstats import (
    _ABBREVIATION_ENDS,
    _ABBREVIATIONS,
    _WORD_RE,
    TextCounts,
    _vocab_stats,
    compute_counts,
    count_syllables,
    counts_from_sentences,
    segment_sentences,
    split_sentences,
    tokenize_sentences,
    tokenize_words,
)


class TestSegmentSentences:
    def test_unambiguous_terminators(self):
        sents = segment_sentences("I came. I saw. I conquered.")
        assert sents == ["I came.", "I saw.", "I conquered."]

    def test_abbreviation_suppresses_split(self):
        sents = segment_sentences("Dr. Smith arrived. He sat.")
        assert sents == ["Dr. Smith arrived.", "He sat."]

    def test_all_abbreviations(self):
        # every listed abbreviation suppresses its split, including a
        # sentence-final "etc." (the accepted cost of a fixed list)
        text = "Mr. A met Mrs. B near St. Paul vs. the rest, e.g. on Tuesday, i.e. yesterday, etc. and so on."
        assert len(segment_sentences(text)) == 1
        assert len(segment_sentences("He said e.g. this. Then that.")) == 2

    def test_empty_input(self):
        assert segment_sentences("") == []
        assert segment_sentences("   \n\t ") == []

    def test_paragraph_break_is_boundary(self):
        sents = segment_sentences("a line of verse\n\nanother stanza line")
        assert sents == ["a line of verse", "another stanza line"]

    def test_single_newline_is_not_a_boundary(self):
        sents = segment_sentences("wrapped\nline one sentence.")
        assert sents == ["wrapped line one sentence."]

    def test_exclamation_and_question(self):
        sents = segment_sentences("Stop! Why? Because.")
        assert len(sents) == 3

    def test_terminator_runs_stay_in_sentence(self):
        sents = segment_sentences("What?! Really...")
        assert sents == ["What?!", "Really..."]

    def test_preserves_all_nonwhitespace_in_order(self):
        texts = [
            "I came. I saw. I conquered.",
            "Dr. Smith arrived. He sat.",
            "one\n\ntwo\n\n\nthree",
            "no terminator at all",
            "Tail!  ",
        ]
        rng = np.random.default_rng(5)
        alphabet = list("abc .!?\n\n  Dr")
        for _ in range(50):
            texts.append("".join(rng.choice(alphabet, size=rng.integers(0, 200))))
        for text in texts:
            sents = segment_sentences(text)
            joined = "".join("".join(s.split()) for s in sents)
            assert joined == "".join(text.split())

    def test_sentence_texts_are_trimmed_nonempty(self):
        for s in segment_sentences("  a.   b!  \n\n  c  "):
            assert s == s.strip()
            assert s

    def test_spans_are_raw_and_keep_wordless_sentences(self):
        text = "  a.\tb!\n\n \u2014.  \n \n  c  "
        assert split_sentences(text).spans() == ["  a.", "\tb!", "\n\n \u2014.", "\n \n  c  "]
        assert segment_sentences(text) == ["a.", "b!", "\u2014.", "c"]
        # Every newline followed, after only fill, by another starts a
        # blank line; the next span starts at the last of them.
        assert split_sentences("a\n\n\nb").spans() == ["a", "\n\nb"]


class TestTokenizeWords:
    def test_internal_apostrophes_and_hyphens(self):
        assert tokenize_words("don't stop-me now") == ["don't", "stop-me", "now"]

    def test_punctuation_stripped(self):
        assert tokenize_words("Hello, world!") == ["Hello", "world"]

    def test_digits_are_word_characters(self):
        assert tokenize_words("42 cats") == ["42", "cats"]

    def test_case_preserved(self):
        assert tokenize_words("McCoy SHOUTED") == ["McCoy", "SHOUTED"]

    def test_leading_trailing_punct_never_joins(self):
        assert tokenize_words("-start 'quoted' end-") == ["start", "quoted", "end"]


class TestCountSyllables:
    @pytest.mark.parametrize(
        "word,expected",
        [
            ("hello", 2),
            ("make", 1),
            ("table", 2),
            ("the", 1),
            ("apple", 2),
            ("ale", 1),
            ("unbelievable", 5),
            ("I", 1),
            ("strength", 1),
            ("yellow", 2),
            ("42", 1),
            ("7", 1),
        ],
    )
    def test_known_words(self, word, expected):
        assert count_syllables(word) == expected

    def test_case_insensitive(self):
        assert count_syllables("Hello") == count_syllables("hello")

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            count_syllables("")

    def test_always_at_least_one(self):
        rng = np.random.default_rng(0)
        letters = list("abcdefghijklmnopqrstuvwxyz'")
        for _ in range(500):
            word = "".join(rng.choice(letters, size=rng.integers(1, 12)))
            assert count_syllables(word) >= 1


class TestComputeCounts:
    def test_short_fixed_string(self):
        # hand count: words I, came, I, saw; chars 1+4+1+3; syllables
        # 1+1+1+1 (came loses its silent e)
        c = compute_counts("I came. I saw.")
        assert c.words == 4
        assert c.sentences == 2
        assert c.characters == 9
        assert c.syllables == 4
        assert c.polysyllables == 0

    def test_empty_text(self):
        c = compute_counts("")
        assert (c.words, c.characters, c.sentences, c.syllables, c.polysyllables) == (
            0,
            0,
            0,
            0,
            0,
        )

    def test_single_polysyllable(self):
        c = compute_counts("Unbelievable.")
        assert c.words == 1
        assert c.sentences == 1
        assert c.syllables == 5
        assert c.polysyllables == 1

    def test_invariant_to_trailing_whitespace(self):
        base = "Some words here. And more there."
        assert compute_counts(base) == compute_counts(base + "   \n\t  ")

    def test_counts_invariants_random_text(self):
        rng = np.random.default_rng(12)
        vocab = ["a", "note", "unbelievable", "stop-me", "42", "d'or", "Mr.", "why?"]
        for _ in range(100):
            text = " ".join(rng.choice(vocab, size=rng.integers(1, 60)))
            c = compute_counts(text)
            assert c.polysyllables <= c.words
            if c.words > 0:
                assert c.syllables >= c.words
                assert c.characters >= c.words
                assert c.sentences >= 1

    def test_word_count_matches_whole_text_tokenization(self):
        rng = np.random.default_rng(3)
        vocab = ["alpha", "be-ta", "Dr.", "gamma!", "delta?", "it's", "end."]
        for _ in range(100):
            text = " ".join(rng.choice(vocab, size=rng.integers(0, 80)))
            per_sentence = sum(
                len(tokenize_words(s)) for s in segment_sentences(text)
            )
            assert per_sentence == len(tokenize_words(text))

    def test_counts_from_sentences_matches_compute_counts(self):
        text = "Dr. Smith arrived late. He sat down! Nobody asked why."
        tokens = tokenize_sentences(segment_sentences(text))
        assert counts_from_sentences(tokens) == compute_counts(text)


    @pytest.mark.parametrize("books", [[1, 1], [2, 2], [4, -1]])
    def test_books_must_add_up_to_the_sentences(self, books):
        tokens = tokenize_sentences(["a b", "c", "d e"])
        message = f"books hold {sum(books)} sentences {books}, the tokens 3"
        with pytest.raises(ValueError, match=re.escape(message)):
            counts_from_sentences(tokens, books)
        with pytest.raises(ValueError, match=re.escape(message)):
            split_sentences("a b. c. d e.").counts(books)


class TestSentenceCounts:
    """``Sentences.counts`` is ``counts_from_sentences`` of the tokens,
    counted from the bytes."""

    @staticmethod
    def _both(text, books=None):
        sentences = split_sentences(text)
        counts = sentences.counts(books)
        assert counts == counts_from_sentences(sentences.tokens(), books)
        return counts

    def test_empty_block(self):
        assert self._both("") == TextCounts(0, 0, 0, 0, 0)
        assert self._both("", []) == []
        assert self._both(" \n\n ", [0, 0]) == [TextCounts(0, 0, 0, 0, 0)] * 2
        first, empty, last = self._both("I came. I saw.", [1, 0, 1])
        assert empty == TextCounts(0, 0, 0, 0, 0)
        assert (first, last) == (TextCounts(2, 5, 1, 2, 0), TextCounts(2, 4, 1, 2, 0))

    def test_sentences_without_words(self):
        assert self._both("— .") == TextCounts(0, 0, 1, 0, 0)
        counts = self._both("— . Able table. ... !!! ?\n\n-'’ .", [1, 1, 4])
        assert counts == [
            TextCounts(0, 0, 1, 0, 0),
            TextCounts(2, 9, 1, 4, 0),
            TextCounts(0, 0, 4, 0, 0),
        ]

    def test_more_than_255_vowel_groups(self):
        # Group counts are summed per word in int64, so no uint8 wraps.
        for word, syllables in (("ba" * 300, 300), ("ab" * 256, 256), ("ab" * 255 + "le", 256)):
            assert count_syllables(word) == syllables
            counts = self._both(f"{word} {word}. A.")
            assert counts.syllables == 2 * syllables + 1
            assert counts.polysyllables == 2
            assert counts.characters == 2 * len(word) + 1

    def test_blocks_of_sentences_add_up(self, monkeypatch):
        text = " ".join(f"Word{i} table İle o’clock well-known." for i in range(40))
        whole = self._both(text, [7, 30, 3])
        monkeypatch.setattr(textstats, "_BLOCK_SENTENCES", 3)
        assert self._both(text, [7, 30, 3]) == whole


class TestCharacterClasses:
    """Exhaustive checks over every code point of the facts the fast paths
    rest on."""

    ALL = [chr(c) for c in range(sys.maxunicode + 1)]

    def test_word_characters_are_exactly_the_alphanumerics(self):
        # A word's characters are its letters and digits plus its in-word
        # separators, so counts may take len() minus the separators.
        mismatches = [c for c in self.ALL if bool(_WORD_RE.fullmatch(c)) != c.isalnum()]
        assert mismatches == []

    def test_abbreviation_prefilter_is_exact(self):
        # lower() maps a token character by character, so a token that
        # lowercases to an abbreviation ends, before its '.', in a character
        # whose lowercase ends in that abbreviation's letter before the '.'.
        letters = {abbreviation[-2] for abbreviation in _ABBREVIATIONS}
        expected = {c for c in self.ALL if c.lower()[-1:] in letters}
        assert _ABBREVIATION_ENDS == expected

    def test_lowercase_keeps_ascii_and_length_but_for_two(self):
        # The counts kernel reads case from ASCII bytes and lowercases no
        # other character: only U+0130, whose lowercase is i and a combining
        # dot, and the Kelvin sign U+212A, whose lowercase is k, lowercase
        # to ASCII or to another length.
        odd = [
            c
            for c in self.ALL[128:]
            if c.isalnum() and (len(c.lower()) != 1 or not all(ord(x) > 127 for x in c.lower()))
        ]
        assert odd == ["\u0130", "\u212a"]

    def test_counts_kernel_matches_count_syllables(self):
        # Every alphanumeric alone, before "le" with and without a consonant
        # first, before a silent e and between two vowels.
        words = [
            w
            for c in self.ALL
            if c.isalnum()
            for w in (c, c + "le", "b" + c + "le", c + "e", "a" + c + "a")
        ]
        characters, syllables = _vocab_stats(words)
        expected = [len(w.replace("'", "").replace("’", "").replace("-", "")) for w in words]
        assert characters.tolist() == expected
        mismatches = [w for w, s in zip(words, syllables.tolist()) if s != count_syllables(w)]
        assert mismatches == []

    def test_separators_are_not_characters(self):
        c = compute_counts("Rock’n’roll isn't so-so.")
        assert c.words == 3
        assert c.characters == len("Rocknroll") + len("isnt") + len("soso")
