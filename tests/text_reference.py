"""Character-loop and per-token reference for the text hot paths.

These are the straightforward implementations that the regex-driven
``segment_sentences``, the vocabulary-and-scatter ``encode_hashed_bow``
and the frequency-weighted ``counts_from_sentences`` replaced: a Python
loop over every character, one hash and one add per token occurrence,
and per-occurrence character and syllable counts. The differential
tests require the package to agree with them exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from bookpred.embedding import _hash64
from bookpred.textstats import TextCounts, count_syllables, tokenize_words

_ABBREVIATIONS = frozenset({"mr.", "mrs.", "dr.", "st.", "vs.", "etc.", "e.g.", "i.e."})
_TERMINATORS = ".!?"


@dataclass(frozen=True)
class Sentence:
    """One sentence of a document; ``text`` is whitespace-normalized."""

    text: str
    index: int


def _ends_with_abbreviation(chunk: str) -> bool:
    parts = chunk.split()
    if not parts:
        return False
    token = parts[-1].lstrip("\"'“”‘’([{")
    return token.lower() in _ABBREVIATIONS


def segment_sentences(text: str) -> list[Sentence]:
    sentences: list[Sentence] = []

    def flush(segment: str) -> None:
        normalized = " ".join(segment.split())
        if normalized:
            sentences.append(Sentence(text=normalized, index=len(sentences)))

    n = len(text)
    start = 0
    i = 0
    while i < n:
        ch = text[i]
        if ch in _TERMINATORS:
            j = i
            while j + 1 < n and text[j + 1] in _TERMINATORS:
                j += 1
            at_end = j + 1 >= n
            if at_end or text[j + 1].isspace():
                if not _ends_with_abbreviation(text[start : j + 1]):
                    flush(text[start : j + 1])
                    start = j + 1
            i = j + 1
        elif ch == "\n":
            # A blank line (newline, optional spaces, newline) is a
            # paragraph break and therefore a sentence boundary.
            k = i + 1
            while k < n and text[k] in " \t\r":
                k += 1
            if k < n and text[k] == "\n":
                flush(text[start:i])
                start = i
                i = k + 1
            else:
                i += 1
        else:
            i += 1
    flush(text[start:])
    return sentences


def encode_hashed_bow(sentences: list[str], dim: int = 512, seed: int = 0) -> np.ndarray:
    if dim < 8:
        raise ValueError(f"hashed bag-of-words needs dim >= 8, got {dim}")
    out = np.zeros((len(sentences), dim))
    for i, sentence in enumerate(sentences):
        row = out[i]
        for token in tokenize_words(sentence):
            h = _hash64(token.lower(), seed)
            bucket = (h >> 1) % dim
            sign = 1.0 if h & 1 == 0 else -1.0
            row[bucket] += sign
        norm = float(np.linalg.norm(row))
        if norm > 0.0:
            row /= norm
    return out


def counts_from_sentences(sentences: list[Sentence]) -> TextCounts:
    words = 0
    characters = 0
    syllables = 0
    polysyllables = 0
    for sentence in sentences:
        for token in tokenize_words(sentence.text):
            words += 1
            characters += sum(1 for ch in token if ch.isalnum())
            syl = count_syllables(token)
            syllables += syl
            if syl >= 3:
                polysyllables += 1
    return TextCounts(
        words=words,
        characters=characters,
        sentences=len(sentences),
        syllables=syllables,
        polysyllables=polysyllables,
    )
