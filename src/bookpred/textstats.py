"""Sentence segmentation, word tokenization, and count statistics.

Everything here is rule-based and deterministic so that downstream
readability scores are reproducible byte for byte. The rules are fixed:

* sentences split at runs of ``.`` ``!`` ``?`` followed by whitespace,
  or at blank-line paragraph breaks, with a short abbreviation list
  suppressing false splits; one compiled regular expression finds the
  candidate boundaries, so the text is scanned in C, not character by
  character in Python. Its leading lookahead for a terminator or a
  newline lets the scan skip straight to the next candidate, and the
  abbreviation check runs only for a lone ``.`` after r, s, t, c, g or
  e in either case, the letters that come before an abbreviation's
  final ``.``. ``sentence_spans`` yields each sentence's raw span
  lazily, so a caller that needs the first K sentences segments only
  those; ``segment_sentences`` lists them whitespace-normalized;
* words are maximal runs of letters and digits, allowing internal
  apostrophes and hyphens, so whitespace is never part of a word and a
  raw span tokenizes exactly as its normalized string does;
  ``tokenize_sentences`` tokenizes sentences once into ``Tokens`` (a
  first-sight vocabulary plus one id per word), which the hashed
  encoder and the counts both read; a word's character count is its
  length less its apostrophes and hyphens;
* syllables are counted as maximal vowel groups (a, e, i, o, u, y) with
  the terminal silent-e rule, floored at 1.
"""

from __future__ import annotations

import re
from array import array
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TextCounts",
    "Tokens",
    "sentence_spans",
    "segment_sentences",
    "tokenize_words",
    "tokenize_sentences",
    "count_syllables",
    "compute_counts",
    "counts_from_sentences",
]

# Abbreviations that end in '.' but do not end a sentence.
_ABBREVIATIONS = frozenset(
    {"mr.", "mrs.", "dr.", "st.", "vs.", "etc.", "e.g.", "i.e."}
)
# Exactly the characters whose lowercase ends in a letter that comes
# right before an abbreviation's '.': only a '.' after one of them can
# end an abbreviation.
_ABBREVIATION_ENDS = frozenset("rstcgeRSTCGE")

# Candidate sentence boundaries: a run of terminators followed by
# whitespace or the end of the text, or a blank line (newline, optional
# spaces, tabs or carriage returns, newline). ``\s`` matches exactly the
# characters ``str.isspace()`` accepts. The leading lookahead changes no
# match; it lets the regex engine skip ahead to the next candidate.
_BOUNDARY_RE = re.compile(r"(?=[.!?\n])(?:[.!?]+(?=\s|\Z)|\n[ \t\r]*\n)")

# Letters/digits (no underscore), with internal apostrophes or hyphens.
# ``[^\W_]`` matches exactly the characters ``str.isalnum()`` accepts.
_WORD_RE = re.compile(r"[^\W_]+(?:['’-][^\W_]+)*", re.UNICODE)

_VOWELS = frozenset("aeiouy")


@dataclass(frozen=True)
class TextCounts:
    """The five count statistics every readability formula consumes."""

    words: int
    characters: int
    sentences: int
    syllables: int
    polysyllables: int


def _ends_with_abbreviation(chunk: str) -> bool:
    parts = chunk.rsplit(None, 1)
    if not parts:
        return False
    token = parts[-1].lstrip("\"'“”‘’([{")
    return token.lower() in _ABBREVIATIONS


def sentence_spans(text: str) -> Iterator[str]:
    """Yield the sentences of ``text`` lazily, each as its raw span.

    Boundaries are runs of ``.!?`` followed by whitespace (or end of
    text) and blank-line paragraph breaks. A trailing abbreviation
    (Mr., Mrs., Dr., St., vs., etc., e.g., i.e.) suppresses the split.
    Whitespace-only segments are dropped; a segment without words, such
    as ``"—."``, is a sentence. One regex search per candidate boundary
    drives the split, and the text after the last span yielded is not
    scanned until the next one is asked for.
    """
    start = 0
    for match in _BOUNDARY_RE.finditer(text):
        first, end = match.span()
        if text[first] == "\n":
            # A blank line is a paragraph break; its newlines start the
            # next span, whose whitespace no word includes.
            end = first
        elif (
            text[first:end] == "."
            and first
            and text[first - 1] in _ABBREVIATION_ENDS
            and _ends_with_abbreviation(text[start:end])
        ):
            continue
        span = text[start:end]
        start = end
        if span.strip():
            yield span
    span = text[start:]
    if span.strip():
        yield span


def segment_sentences(text: str) -> list[str]:
    """The sentences of ``text`` as ``sentence_spans`` finds them, each
    with its internal whitespace collapsed to single spaces and its ends
    stripped, so every non-whitespace character is kept."""
    return [" ".join(span.split()) for span in sentence_spans(text)]


def tokenize_words(sentence: str) -> list[str]:
    """Return the words of ``sentence``: maximal runs of letters and
    digits, allowing internal apostrophes and hyphens. Case preserved."""
    return _WORD_RE.findall(sentence)


@dataclass(frozen=True, eq=False)
class Tokens:
    """The words of a sequence of sentences, tokenized once.

    ``vocab`` lists the distinct words in order of first sight, ``ids``
    holds the vocab index of every word in reading order (int64) and
    ``lengths`` the number of words of each sentence (int64). ``len()``
    is the number of sentences.
    """

    vocab: list[str]
    ids: np.ndarray
    lengths: np.ndarray

    def __len__(self) -> int:
        return len(self.lengths)


class _Vocabulary(dict):
    """Token -> id, numbering each new token in order of first sight."""

    def __missing__(self, token: str) -> int:
        self[token] = n = len(self)
        return n


def tokenize_sentences(texts: Iterable[str]) -> Tokens:
    """Tokenize each sentence text once, streaming: ids are numbered in a
    first-sight vocabulary as the words go by, so no list of every word
    string is ever held."""
    vocab = _Vocabulary()
    token_id = vocab.__getitem__
    ids = array("q")
    lengths = array("q")
    for words in map(tokenize_words, texts):
        lengths.append(len(words))
        ids.extend(map(token_id, words))
    return Tokens(
        vocab=list(vocab),
        ids=np.frombuffer(ids, dtype=np.int64),
        lengths=np.frombuffer(lengths, dtype=np.int64),
    )


def count_syllables(word: str) -> int:
    """Heuristic syllable count for one word.

    Lowercases, counts maximal vowel groups (a, e, i, o, u, y),
    subtracts one for a terminal silent "e" unless the word ends in
    "le" after a consonant, and floors the result at 1. Purely numeric
    tokens count as 1.
    """
    if not word:
        raise ValueError("count_syllables: empty word")
    w = word.lower()
    if w.isdigit():
        return 1
    groups = 0
    prev_vowel = False
    for ch in w:
        is_vowel = ch in _VOWELS
        if is_vowel and not prev_vowel:
            groups += 1
        prev_vowel = is_vowel
    if groups > 1 and w.endswith("e"):
        consonant_le = len(w) >= 3 and w.endswith("le") and w[-3] not in _VOWELS
        if not consonant_le:
            groups -= 1
    return max(groups, 1)


def counts_from_sentences(tokens: Tokens) -> TextCounts:
    """Aggregate counts over tokenized sentences.

    Characters are letters and digits inside words only; punctuation,
    whitespace, and in-word apostrophes/hyphens are excluded. A word is
    letters and digits joined by those separators, so its character
    count is its length less its separators. Polysyllables are words of
    three or more syllables. Characters and syllables are computed once
    per distinct token and weighted by its frequency, which one
    ``bincount`` over the ids gives.
    """
    frequency = np.bincount(tokens.ids, minlength=len(tokens.vocab)).tolist()
    characters = 0
    syllables = 0
    polysyllables = 0
    for token, n in zip(tokens.vocab, frequency):
        characters += n * (len(token) - token.count("'") - token.count("’") - token.count("-"))
        syl = count_syllables(token)
        syllables += n * syl
        if syl >= 3:
            polysyllables += n
    return TextCounts(
        words=len(tokens.ids),
        characters=characters,
        sentences=len(tokens),
        syllables=syllables,
        polysyllables=polysyllables,
    )


def compute_counts(text: str) -> TextCounts:
    """Segment and tokenize ``text`` and return its aggregate count statistics."""
    return counts_from_sentences(tokenize_sentences(sentence_spans(text)))
