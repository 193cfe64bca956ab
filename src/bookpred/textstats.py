"""Sentence segmentation, word tokenization, and count statistics.

Everything here is rule-based and deterministic so that downstream
readability scores are reproducible byte for byte. The rules are fixed:

* sentences split at runs of ``.`` ``!`` ``?`` followed by whitespace,
  or at blank-line paragraph breaks, with a short abbreviation list
  suppressing false splits;
* words are maximal runs of letters and digits, allowing internal
  apostrophes and hyphens, so whitespace is never part of a word and a
  raw span tokenizes exactly as its normalized string does; a word's
  character count is its length less its apostrophes and hyphens;
* syllables are counted as maximal vowel groups (a, e, i, o, u, y) with
  the terminal silent-e rule, floored at 1.

One array kernel applies the first two rules; featurizing a section
runs no Python loop per sentence or word. ``split_sentences`` classifies
each UTF-8 byte once: an all-ASCII text by one table lookup, otherwise
each multi-byte character by its ``str`` class, asked once per distinct
character. Masks give the boundaries; the abbreviation list is checked
only for a short token before a lone ``.``. ``Sentences.tokens`` takes
words as maximal runs of "letter or digit, or a separator between two",
numbers them in a first-sight vocabulary and counts each sentence's
words by ``searchsorted``; after ``Sentences.join`` one pass tokenizes
a block of books, whose counts share the vocabulary.

Counts need no word ids. ``Sentences.counts`` finds the words by the same
byte mask as ``Sentences.tokens``, and one byte kernel reads each word's
characters and syllables from its UTF-8 bytes: vowel-group starts by a
byte table, the silent-e and consonant-le rules from its last three
bytes, and the floor of 1; a byte that continues a character, ``'``,
``-`` and ``’`` count as no character. Case is read from ASCII bytes alone:
no other letter or digit lowercases to ASCII but ``İ`` (bytes C4 B0),
whose lowercase is ``i`` and a combining dot, so it counts as the vowel
``i`` then a non-vowel, and the Kelvin sign, a consonant either way.
Words are numbered only for the hashed encoder, which hashes each
distinct word once; ``counts_from_sentences`` runs the same kernel over
that vocabulary, and ``count_syllables`` is the one-word rule the kernel
must agree with.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "TextCounts",
    "Tokens",
    "Sentences",
    "split_sentences",
    "segment_sentences",
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
_OPENERS = "\"'“”‘’([{"  # stripped from a token before the list is checked

_VOWELS = frozenset("aeiouy")

# The class of a character, which each of its UTF-8 bytes carries; the
# classes from _SPACE on are whitespace. A joiner is a one-byte in-word
# separator; the three-byte ’ is found by its bytes.
_OTHER, _ALNUM, _JOINER, _TERMINATOR, _SPACE, _FILL, _NEWLINE = range(7)
_RIGHT_QUOTE = tuple("’".encode())
_DOTTED_CAPITAL_I = tuple("İ".encode())
# Per byte of a word: an ASCII vowel, either case, and a byte that counts
# as no character, one that continues a character or is ' or -.
_VOWEL_BYTES = bytes(chr(b).lower() in _VOWELS for b in range(128)) + bytes(128)
_OTHER_BYTES = bytes(0x80 <= b < 0xC0 or chr(b) in "'-" for b in range(256))
_UTF8 = ("utf-8", "surrogatepass")


def _char_class(ch: str) -> int:
    for cls, chars in ((_NEWLINE, "\n"), (_FILL, " \t\r"), (_JOINER, "'-"), (_TERMINATOR, ".!?")):
        if ch in chars:
            return cls
    return _ALNUM if ch.isalnum() else _SPACE if ch.isspace() else _OTHER


_ASCII_CLASSES = bytes(_char_class(chr(b)) if b < 128 else 0 for b in range(256))
# Bytes that can end the letter before an abbreviation's '.', or an
# opener: a character matches by its last byte, which lets only more
# tokens through to the exact check.
_ABBREVIATION_END_BYTES = np.array([chr(b) in _ABBREVIATION_ENDS for b in range(256)])
_OPENER_END_BYTES = np.array([b in {c.encode()[-1] for c in _OPENERS} for b in range(256)])
_PREFIX_CHARS_PER_SENTENCE = 64  # a first=K prefix starts this long per sentence
_BLOCK_SENTENCES = 512  # sentences tokenized per array pass


@dataclass(frozen=True)
class TextCounts:
    """The five count statistics every readability formula consumes."""

    words: int
    characters: int
    sentences: int
    syllables: int
    polysyllables: int


def _ends_with_abbreviation(chunk: str) -> bool:
    """Whether the last token of ``chunk``, which ends in '.', is listed."""
    return chunk.rsplit(None, 1)[-1].lstrip(_OPENERS).lower() in _ABBREVIATIONS


def _classify(data: bytes) -> np.ndarray:
    """The class of every byte of the UTF-8 ``data``: an ASCII byte's by
    table (all-ASCII data gets the read-only table classes), and a
    multi-byte character's computed once per distinct one."""
    table = np.frombuffer(data.translate(_ASCII_CLASSES), np.uint8)
    if data.isascii():
        return table
    classes = table.copy()
    codes = np.frombuffer(data, np.uint8)
    leads = np.flatnonzero(codes >= 0xC0)
    width = 2 + (codes[leads] >= 0xE0) + (codes[leads] >= 0xF0)
    key = np.zeros(len(leads), np.uint32)  # the character's bytes, big-endian
    for k in range(4):
        key = key << 8 | np.where(k < width, codes[np.minimum(leads + k, len(codes) - 1)], 0)
    distinct = np.sort(key)
    distinct = distinct[np.diff(distinct, prepend=np.uint32(0)) != 0]  # no key is 0
    chars = [int(c).to_bytes(4, "big").rstrip(b"\0").decode(*_UTF8) for c in distinct.tolist()]
    lead_classes = np.array([_char_class(c) for c in chars], np.uint8)
    lead_classes = lead_classes[np.searchsorted(distinct, key)]
    for k in range(4):
        classes[leads[k < width] + k] = lead_classes[k < width]
    return classes


def _sentence_bounds(data: bytes, classes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The start and end byte offsets of each sentence's raw span in the
    UTF-8 ``data``, from the boundary before it to the one after it."""
    if not data:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    codes = np.frombuffer(data, np.uint8)
    # A blank line starts at a newline followed, after only spaces, tabs
    # or carriage returns (no byte of a class below _FILL), by another one.
    lines = np.flatnonzero(classes == _NEWLINE)
    between = np.minimum.reduceat(classes[: lines.max(initial=0) + 1], lines[:-1] + 1)
    blank = lines[:-1][between >= _FILL]
    # Terminator runs followed by whitespace; one at the end splits nothing
    # off. The exact abbreviation check runs only for a lone '.' after a
    # letter that can end one, closing a token of at most 4 bytes after
    # the text's start, whitespace or an opener.
    ends = np.flatnonzero(classes[:-1] == _TERMINATOR)
    ends = ends[classes[ends + 1] >= _SPACE] + 1
    before = np.maximum(ends[:, None] - [4, 5], 0)
    short = (ends <= 4) | ((classes[before] >= _SPACE) | _OPENER_END_BYTES[codes[before]]).any(1)
    maybe = short & (codes[ends - 1] == ord(".")) & _ABBREVIATION_END_BYTES[codes[ends - 2]]
    chunks = zip(np.append(0, ends)[:-1][maybe].tolist(), ends[maybe].tolist())
    abbreviated = [_ends_with_abbreviation(data[a:b].decode(*_UTF8)) for a, b in chunks]
    ends = np.delete(ends, np.flatnonzero(maybe)[abbreviated])
    # A cut that repeats starts at whitespace, so its empty segment goes too.
    cuts = np.sort(np.concatenate(([0], ends, blank)))
    keep = np.minimum.reduceat(classes, cuts) < _SPACE  # drop whitespace-only segments
    return cuts[keep], np.append(cuts[1:], len(data))[keep]


def _word_mask(codes: np.ndarray, classes: np.ndarray) -> np.ndarray:
    """Which of the UTF-8 bytes ``codes`` of the given classes are in words:
    letters and digits, and a separator between two of them."""
    alnum = classes == _ALNUM
    word = alnum.copy()
    word[1:-1] |= (classes[1:-1] == _JOINER) & alnum[:-2] & alnum[2:]
    q = np.flatnonzero(codes[1:-3] == _RIGHT_QUOTE[0]) + 1  # a ’ between letters
    q = q[(codes[q + 1] == _RIGHT_QUOTE[1]) & (codes[q + 2] == _RIGHT_QUOTE[2])]
    word[np.add.outer(q[alnum[q - 1] & alnum[q + 3]], range(3))] = True
    return word


def _word_stats(
    codes: np.ndarray, word: np.ndarray, starts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The characters and the ``count_syllables`` of each word (int64) of
    the UTF-8 bytes ``codes``: each maximal run of the bytes ``word`` marks,
    which starts at the matching one of ``starts``."""
    if not len(starts):
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    data = codes.tobytes()
    vowel = np.frombuffer(data.translate(_VOWEL_BYTES), bool) & word
    other = np.frombuffer(data.translate(_OTHER_BYTES), bool) & word  # no character
    if not data.isascii():
        vowel[:-1] |= (codes[:-1] == _DOTTED_CAPITAL_I[0]) & (codes[1:] == _DOTTED_CAPITAL_I[1])
        q = np.flatnonzero(codes[:-2] == _RIGHT_QUOTE[0])
        q = q[(codes[q + 1] == _RIGHT_QUOTE[1]) & (codes[q + 2] == _RIGHT_QUOTE[2])]
        other[q] = word[q]
    group = vowel.copy()  # the first vowel of each group
    group[1:] &= ~vowel[:-1]
    groups = np.add.reduceat(group, starts, dtype=np.int64)
    # The word's last bytes, lowercased by one bit where they are ASCII
    # letters: a silent e, unless after a consonant and an l. A word of
    # two vowel groups that ends in "le" has a byte before the l.
    last = np.flatnonzero(word & ~np.append(word[1:], False))
    e = codes[last] | 0x20 == ord("e")
    le = (codes[last - 1] | 0x20 == ord("l")) & ~vowel[np.maximum(last - 2, 0)]
    syllables = np.maximum(groups - ((groups > 1) & e & ~le), 1)
    # A word's bytes less the few that are no character.
    others = np.searchsorted(starts, np.flatnonzero(other), "right") - 1
    return last + 1 - starts - np.bincount(others, minlength=len(starts)), syllables


def _vocab_stats(vocab: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """``_word_stats`` of the words ``vocab``, joined by spaces."""
    codes = np.frombuffer(" ".join(vocab).encode(*_UTF8), np.uint8)
    word = codes != ord(" ")
    return _word_stats(codes, word, np.flatnonzero(word & ~np.append(False, word[:-1])))


def _cumulative(values: np.ndarray) -> np.ndarray:
    """The sums of ``values`` along their last axis before each index and
    after the last one (int64)."""
    sums = np.zeros(values.shape[:-1] + (values.shape[-1] + 1,), np.int64)
    np.cumsum(values, axis=-1, out=sums[..., 1:])
    return sums


def _book_sizes(n: int, sizes: Sequence[int] | None) -> list[int]:
    """``sizes``, the sentence counts of consecutive books, as a list, or
    all ``n`` sentences as one book; none negative, they add up to ``n``."""
    sizes = [n] if sizes is None else list(sizes)
    if sum(sizes) != n or min(sizes, default=0) < 0:
        raise ValueError(f"books hold {sum(sizes)} sentences {sizes}, the tokens {n}")
    return sizes


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

    def books(self, sizes: Sequence[int] | None = None) -> list[int]:
        """``sizes``, the sentence counts of consecutive books, as a list, or
        all the sentences as one book; none negative, they add up to ``len(self)``."""
        return _book_sizes(len(self), sizes)


class _Vocabulary(dict):
    """Token -> id, numbering each new token in order of first sight."""

    def __missing__(self, token: str) -> int:
        self[token] = n = len(self)
        return n


@dataclass(frozen=True, eq=False)
class Sentences:
    """Sentences of a text: its UTF-8 ``data``, the class of each byte,
    and the ``starts`` and ``ends`` byte offsets of each sentence's raw
    span (int64). ``len()`` counts the sentences; a slice selects some."""

    data: bytes
    classes: np.ndarray
    starts: np.ndarray
    ends: np.ndarray

    def __len__(self) -> int:
        return len(self.starts)

    def __getitem__(self, rows: slice) -> Sentences:
        return replace(self, starts=self.starts[rows], ends=self.ends[rows])

    @classmethod
    def join(cls, parts: Sequence[Sentences]) -> Sentences:
        """The sentences of ``parts``, none empty, in one value: each part's
        bytes from its first sentence's start to its last one's end, then a
        space of class ``_SPACE``, which no word crosses. One part is kept."""
        if len(parts) == 1:
            return parts[0]
        cuts = [(part, int(part.starts[0]), int(part.ends[-1])) for part in parts]
        offsets = np.cumsum([0] + [hi - lo + 1 for _, lo, hi in cuts]).tolist()
        data = b"".join(part.data[lo:hi] + b" " for part, lo, hi in cuts)
        classes = b"".join(p.classes[lo:hi].tobytes() + bytes([_SPACE]) for p, lo, hi in cuts)
        starts = np.concatenate([p.starts + (at - lo) for (p, lo, _), at in zip(cuts, offsets)])
        ends = np.concatenate([p.ends + (at - lo) for (p, lo, _), at in zip(cuts, offsets)])
        return cls(data, np.frombuffer(classes, np.uint8), starts, ends)

    def spans(self) -> list[str]:
        """Each sentence's raw span, whitespace included."""
        bounds = zip(self.starts.tolist(), self.ends.tolist())
        return [self.data[a:b].decode(*_UTF8) for a, b in bounds]

    def _word_blocks(self):
        """For each block of ``_BLOCK_SENTENCES`` sentences, which bounds the
        memory a pass takes: its UTF-8 bytes, the masks of its word bytes and
        of each word's first byte, and the number of words before each
        sentence's start and before the block's end. No word crosses the
        whitespace between two sentences."""
        for block in range(0, len(self), _BLOCK_SENTENCES):
            starts = self.starts[block : block + _BLOCK_SENTENCES]
            lo, hi = int(starts[0]), int(self.ends[block + len(starts) - 1])
            codes = np.frombuffer(self.data, np.uint8)[lo:hi]
            word = _word_mask(codes, self.classes[lo:hi])
            firsts = np.flatnonzero(word & ~np.append(False, word[:-1]))
            yield codes, word, firsts, np.searchsorted(firsts, np.append(starts - lo, hi - lo))

    def tokens(self) -> Tokens:
        """The words of the sentences, numbered in a first-sight vocabulary,
        one array pass per block of sentences."""
        vocab = _Vocabulary()
        ids = array("q")
        lengths = array("q")
        for codes, word, _, bounds in self._word_blocks():
            lengths.extend(np.diff(bounds).tolist())
            words = np.where(word, codes, ord(" ")).tobytes().decode(*_UTF8)
            ids.extend(map(vocab.__getitem__, words.split()))
        return Tokens(list(vocab), np.frombuffer(ids, np.int64), np.frombuffer(lengths, np.int64))

    def counts(self, books: Sequence[int] | None = None) -> TextCounts | list[TextCounts]:
        """Exactly ``counts_from_sentences(self.tokens(), books)``, from the
        words' bytes, one array pass per block of sentences; no word is
        numbered."""
        sizes = _book_sizes(len(self), books)
        lengths, per_word = [np.zeros(0, np.int64)], [np.zeros((3, 0), np.int64)]
        for codes, word, firsts, bounds in self._word_blocks():
            characters, syllables = _word_stats(codes, word, firsts)
            lengths.append(np.diff(bounds))
            per_word.append(np.array([characters, syllables, syllables >= 3]))
        words = _cumulative(np.concatenate(lengths))[np.cumsum([0] + sizes)]
        totals = np.diff(_cumulative(np.hstack(per_word))[:, words])
        rows = np.vstack((np.diff(words), totals)).T.tolist()
        counts = [TextCounts(w, c, n, s, p) for n, (w, c, s, p) in zip(sizes, rows)]
        return counts[0] if books is None else counts


def split_sentences(text: str, first: int | None = None) -> Sentences:
    """The sentences of ``text`` by the rules above, or only its first
    ``first`` ones. Whitespace-only segments are dropped; a segment
    without words, such as ``"—."``, is a sentence. With ``first``, a
    prefix of the text is segmented, grown until it holds more than
    ``first`` sentences or is the whole text: a prefix's boundaries are
    the text's up to the start of its last sentence, so every sentence
    before that one is final."""
    size = len(text) if first is None else _PREFIX_CHARS_PER_SENTENCE * (first + 1)
    while True:
        data = text[:size].encode(*_UTF8)
        classes = _classify(data)
        starts, ends = _sentence_bounds(data, classes)
        if size >= len(text) or len(starts) > first:
            return Sentences(data, classes, starts[:first], ends[:first])
        size *= max(2, 2 * (first + 1) // max(len(starts), 1))


def segment_sentences(text: str) -> list[str]:
    """The sentences of ``text`` as ``split_sentences`` finds them, each
    with its internal whitespace collapsed to single spaces and its ends
    stripped, so every non-whitespace character is kept."""
    return [" ".join(span.split()) for span in split_sentences(text).spans()]


def tokenize_sentences(texts: Iterable[str]) -> Tokens:
    """Tokenize each text as one sentence, all in one pass: the texts are
    joined, each followed by a space, which no word crosses."""
    pieces = [text.encode(*_UTF8) for text in texts]
    data = b" ".join(pieces) + b" "
    sizes = np.array([len(piece) + 1 for piece in pieces], np.int64)
    ends = np.cumsum(sizes)
    return Sentences(data, _classify(data), ends - sizes, ends).tokens()


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


def counts_from_sentences(
    tokens: Tokens, books: Sequence[int] | None = None
) -> TextCounts | list[TextCounts]:
    """Aggregate counts over tokenized sentences, or with ``books``, the
    sentence counts of consecutive books, one ``TextCounts`` per book.

    Characters are letters and digits inside words only; punctuation,
    whitespace, and in-word apostrophes/hyphens are excluded. A word is
    letters and digits joined by those separators, so its character
    count is its length less its separators. Polysyllables are words of
    three or more syllables. Characters and syllables are computed once
    per distinct token of the shared vocabulary, and each book's counts
    weight them by one ``bincount`` of its word ids.
    """
    characters, syllables = _vocab_stats(tokens.vocab)
    per_token = np.array([characters, syllables, syllables >= 3], np.int64).T
    sentences = tokens.books(books)
    bounds = _cumulative(tokens.lengths)[np.cumsum([0] + sentences)].tolist()
    counts = []
    for n, start, stop in zip(sentences, bounds, bounds[1:]):
        frequency = np.bincount(tokens.ids[start:stop], minlength=len(per_token))
        characters, syllables, polysyllables = (frequency @ per_token).tolist()
        counts.append(TextCounts(stop - start, characters, n, syllables, polysyllables))
    return counts[0] if books is None else counts


def compute_counts(text: str) -> TextCounts:
    """Segment ``text`` and return its aggregate count statistics."""
    return split_sentences(text).counts()
