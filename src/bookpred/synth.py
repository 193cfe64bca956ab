"""Synthetic corpora with known structure, for validation and demos.

Two families:

* token corpora — the two classes carry distinct planted marker tokens,
  so a classifier over hashed bag-of-words embeddings can separate them
  from text alone;
* readability corpora — the label is a pure function of the text's
  polysyllable density (the SMOG score), every generated word is six
  letters long so the character-based indices carry no label signal,
  and the sentence embeddings supplied alongside are pure noise.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .corpus import MANIFEST_COLUMNS, BookRecord, Genre, SuccessLabel, select_section
from .embedding import csv_lines, write_atomically, write_embeddings
from .pipeline import STORE_COLUMNS, STORE_NAME, TrainConfig, store_row
from .readability import smog
from .textstats import compute_counts, count_syllables, split_sentences

__all__ = [
    "GENRE_WEIGHTS",
    "make_token_corpus",
    "make_readability_corpus",
]

# Relative genre frequencies in the same spirit as a real mixed-genre
# book corpus (short stories and poetry dominate).
GENRE_WEIGHTS = {
    Genre.DETECTIVE_MYSTERY: 106,
    Genre.DRAMA: 99,
    Genre.FICTION: 111,
    Genre.HISTORICAL_FICTION: 81,
    Genre.LOVE_STORIES: 80,
    Genre.POETRY: 181,
    Genre.SCIENCE_FICTION: 87,
    Genre.SHORT_STORIES: 258,
}

_CONSONANTS = "bcdfgjklmnprstvz"
_VOWEL_LETTERS = "aiou"  # avoid e/y so the silent-e rule never fires

SMOG_LABEL_THRESHOLD = 6.0


def _assign_genres(n_books: int) -> list[Genre]:
    total = sum(GENRE_WEIGHTS.values())
    counts = {g: (w * n_books) // total for g, w in GENRE_WEIGHTS.items()}
    remainder = n_books - sum(counts.values())
    for genre in list(GENRE_WEIGHTS)[:remainder]:
        counts[genre] += 1
    out: list[Genre] = []
    for genre, count in counts.items():
        out.extend([genre] * count)
    return out


def _random_word(rng: np.random.Generator, template: str) -> str:
    letters = []
    for slot in template:
        pool = _VOWEL_LETTERS if slot == "V" else _CONSONANTS
        letters.append(pool[rng.integers(len(pool))])
    return "".join(letters)


def _lexicon(rng: np.random.Generator, template: str, syllables: int, size: int) -> list[str]:
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < size:
        word = _random_word(rng, template)
        if word in seen:
            continue
        seen.add(word)
        if count_syllables(word) == syllables:
            words.append(word)
    return words


def _book_row(root: Path, i: int, genre: Genre, text: str, **columns: str) -> dict:
    """Write book ``i``'s text under ``root/books``; return its manifest row."""
    book_id = f"book{i:04d}"
    text_path = Path("books") / f"{book_id}.txt"
    write_atomically(root / text_path, [text.encode("utf-8")])
    return {"book_id": book_id, "genre": genre.value, **columns, "text_path": str(text_path)}


def _write_manifest(root: Path, rows: list[dict]) -> Path:
    manifest_path = root / "manifest.csv"
    fields = ([row[column] for column in MANIFEST_COLUMNS] for row in rows)
    write_atomically(manifest_path, csv_lines(MANIFEST_COLUMNS, fields))
    return manifest_path


def make_token_corpus(
    root: str | Path,
    n_books: int = 200,
    seed: int = 0,
    sentences_per_book: tuple[int, int] = (60, 100),
    successful_fraction: float = 0.65,
    marker_rate: float = 0.5,
) -> Path:
    """Corpus whose labels are recoverable from planted marker tokens.

    Successful books sprinkle the token ``zephyrine`` into a fraction of
    their sentences, unsuccessful books the token ``morvath``; filler
    words come from one shared vocabulary. Ratings are drawn inside the
    band matching each label, so the manifest exercises label
    derivation. Returns the manifest path.
    """
    root = Path(root)
    (root / "books").mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    filler = _lexicon(rng, "CVCVC", 2, 120)
    genres = _assign_genres(n_books)
    rows = []
    for i in range(n_books):
        successful = rng.random() < successful_fraction
        marker = "zephyrine" if successful else "morvath"
        n_sentences = int(rng.integers(sentences_per_book[0], sentences_per_book[1] + 1))
        sentences = []
        for _ in range(n_sentences):
            words = [filler[rng.integers(len(filler))] for _ in range(int(rng.integers(6, 13)))]
            if rng.random() < marker_rate:
                words[int(rng.integers(len(words)))] = marker
            sentences.append(" ".join(words) + ".")
        if successful:
            rating = 3.5 + 1.5 * rng.random()
        else:
            rating = 1.0 + 2.4 * rng.random()
        n_ratings = str(int(rng.integers(10, 500)))
        columns = dict(avg_rating=f"{rating:.2f}", n_ratings=n_ratings, label="")
        rows.append(_book_row(root, i, genres[i], " ".join(sentences) + "\n", **columns))
    return _write_manifest(root, rows)


def make_readability_corpus(
    root: str | Path,
    n_books: int = 200,
    seed: int = 0,
    embedding_dim: int = 64,
    sentences_per_book: tuple[int, int] = (60, 100),
) -> Path:
    """Corpus whose labels depend only on readability.

    Every word is six letters. Both classes average 1.5 syllables per
    word, but successful books mix three-syllable with one-syllable
    words (high polysyllable density, SMOG well above the threshold)
    while unsuccessful books mix two- with one-syllable words (SMOG at
    its floor). Words per sentence varies per book independently of the
    label, so the other four indices fluctuate without carrying label
    signal. A ``semb/`` directory of pure-noise sentence embeddings and a
    ``featurized.csv`` store of the books' counts at ``TrainConfig().section``
    is written next to the manifest; labels are supplied directly (no
    ratings). Returns the manifest path.
    """
    root = Path(root)
    (root / "books").mkdir(parents=True, exist_ok=True)
    (root / "semb").mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    lex1 = _lexicon(rng, "CCVCCC", 1, 60)
    lex2 = _lexicon(rng, "CVCCVC", 2, 60)
    lex3 = _lexicon(rng, "CVCVCV", 3, 60)
    genres = _assign_genres(n_books)
    # Exactly balanced classes, order shuffled deterministically.
    labels = np.array([True] * (n_books // 2) + [False] * (n_books - n_books // 2))
    rng.shuffle(labels)
    rows = []
    store = []
    section = TrainConfig().section
    for i in range(n_books):
        successful = bool(labels[i])
        words_per_sentence = int(rng.integers(6, 26))
        n_sentences = int(rng.integers(sentences_per_book[0], sentences_per_book[1] + 1))
        sentences = []
        for _ in range(n_sentences):
            words = []
            for _ in range(words_per_sentence):
                if successful:
                    # 25% three-syllable, 75% one-syllable: mean 1.5
                    lex = lex3 if rng.random() < 0.25 else lex1
                else:
                    # 50% two-syllable, 50% one-syllable: mean 1.5
                    lex = lex2 if rng.random() < 0.5 else lex1
                words.append(lex[int(rng.integers(len(lex)))])
            sentences.append(" ".join(words) + ".")
        text = " ".join(sentences) + "\n"

        # The label must be exactly the planted readability rule.
        counts = compute_counts(text)
        derived = smog(counts) >= SMOG_LABEL_THRESHOLD
        if derived != successful:
            raise AssertionError(
                f"generator produced SMOG {smog(counts):.2f} on the wrong side "
                f"of {SMOG_LABEL_THRESHOLD} for book {i}"
            )

        label = SuccessLabel.SUCCESSFUL if successful else SuccessLabel.UNSUCCESSFUL
        row = _book_row(root, i, genres[i], text, avg_rating="", n_ratings="", label=label.value)
        rows.append(row)

        noise = rng.standard_normal((n_sentences, embedding_dim)).astype(np.float32)
        semb_path = root / "semb" / f"{row['book_id']}.semb"
        write_embeddings(noise, semb_path)
        if section.kind != "full" and counts.sentences > section.k:
            counts = select_section(split_sentences(text), section).counts()
        record = BookRecord(row["book_id"], genres[i], None, 0, label, root / row["text_path"])
        store.append(store_row(record, semb_path, embedding_dim, section, counts))
    write_atomically(root / "semb" / STORE_NAME, csv_lines(STORE_COLUMNS, store))
    return _write_manifest(root, rows)
