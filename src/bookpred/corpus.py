"""Corpus loading, success labels, splits, and book-section selection.

A corpus is a CSV manifest with the header
``book_id,genre,avg_rating,n_ratings,label,text_path`` plus one UTF-8
plain-text file per book. ``text_path`` is resolved relative to the
manifest's directory. Either ``avg_rating`` or ``label`` must be
present for every row; when both are present they must agree.
"""

from __future__ import annotations

import csv
import enum
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

__all__ = [
    "Genre",
    "SuccessLabel",
    "BookRecord",
    "CorpusSet",
    "SectionSpec",
    "ManifestError",
    "MalformedRowError",
    "UnknownGenreError",
    "DuplicateBookIdError",
    "LabelConflictError",
    "derive_label",
    "load_corpus",
    "split_train_val",
    "select_section",
]

MANIFEST_COLUMNS = ["book_id", "genre", "avg_rating", "n_ratings", "label", "text_path"]

SUCCESS_RATING_THRESHOLD = 3.5


class Genre(enum.Enum):
    DETECTIVE_MYSTERY = "DetectiveMystery"
    DRAMA = "Drama"
    FICTION = "Fiction"
    HISTORICAL_FICTION = "HistoricalFiction"
    LOVE_STORIES = "LoveStories"
    POETRY = "Poetry"
    SCIENCE_FICTION = "ScienceFiction"
    SHORT_STORIES = "ShortStories"

    @classmethod
    def parse(cls, value: str) -> "Genre":
        for genre in cls:
            if genre.value == value:
                return genre
        raise UnknownGenreError(f"unknown genre {value!r}")


class SuccessLabel(enum.Enum):
    SUCCESSFUL = "Successful"
    UNSUCCESSFUL = "Unsuccessful"

    @classmethod
    def parse(cls, value: str) -> "SuccessLabel":
        for label in cls:
            if label.value == value:
                return label
        raise MalformedRowError(f"unknown label {value!r}")


class ManifestError(ValueError):
    """Base class for manifest problems; messages name the offending row."""


class MalformedRowError(ManifestError):
    pass


class UnknownGenreError(ManifestError):
    pass


class DuplicateBookIdError(ManifestError):
    pass


class LabelConflictError(ManifestError):
    pass


def derive_label(avg_rating: float) -> SuccessLabel:
    """Successful iff the average rating is 3.5 or more (scale 1-5)."""
    if not (1.0 <= avg_rating <= 5.0):
        raise ValueError(f"avg_rating {avg_rating} outside [1, 5]")
    if avg_rating >= SUCCESS_RATING_THRESHOLD:
        return SuccessLabel.SUCCESSFUL
    return SuccessLabel.UNSUCCESSFUL


@dataclass(frozen=True)
class BookRecord:
    book_id: str
    genre: Genre
    avg_rating: float | None
    n_ratings: int
    label: SuccessLabel
    text_path: Path


@dataclass(frozen=True)
class CorpusSet:
    """Immutable ordered collection of book records (manifest order)."""

    records: tuple[BookRecord, ...]

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


def load_corpus(manifest_path: str | Path) -> CorpusSet:
    """Load a manifest CSV into a :class:`CorpusSet`.

    Raises :class:`ManifestError` subclasses for malformed rows, unknown
    genres, duplicate book ids, and label/rating conflicts, each naming
    the 1-based file line; missing labels are derived from the rating.
    """
    manifest_path = Path(manifest_path)
    root = manifest_path.parent
    with open(manifest_path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != MANIFEST_COLUMNS:
            raise MalformedRowError(
                f"manifest header must be {','.join(MANIFEST_COLUMNS)}, "
                f"got {reader.fieldnames}"
            )
        records: list[BookRecord] = []
        seen: set[str] = set()
        for line_no, row in enumerate(reader, start=2):
            if any(v is None for v in row.values()) or None in row:
                raise MalformedRowError(f"row {line_no}: wrong number of fields")
            book_id = row["book_id"].strip()
            if not book_id:
                raise MalformedRowError(f"row {line_no}: empty book_id")
            if book_id in seen:
                raise DuplicateBookIdError(f"row {line_no}: duplicate book_id {book_id!r}")
            seen.add(book_id)

            try:
                genre = Genre.parse(row["genre"].strip())
            except UnknownGenreError as exc:
                raise UnknownGenreError(f"row {line_no}: {exc}") from None

            rating_text = row["avg_rating"].strip()
            avg_rating: float | None = None
            if rating_text:
                try:
                    avg_rating = float(rating_text)
                except ValueError:
                    raise MalformedRowError(
                        f"row {line_no}: bad avg_rating {rating_text!r}"
                    ) from None
                if not (1.0 <= avg_rating <= 5.0):
                    raise MalformedRowError(
                        f"row {line_no}: avg_rating {avg_rating} outside [1, 5]"
                    )

            ratings_text = row["n_ratings"].strip()
            n_ratings = 0
            if ratings_text:
                try:
                    n_ratings = int(ratings_text)
                except ValueError:
                    raise MalformedRowError(
                        f"row {line_no}: bad n_ratings {ratings_text!r}"
                    ) from None
                if n_ratings < 0:
                    raise MalformedRowError(f"row {line_no}: negative n_ratings")

            label_text = row["label"].strip()
            if label_text:
                try:
                    label = SuccessLabel.parse(label_text)
                except MalformedRowError as exc:
                    raise MalformedRowError(f"row {line_no}: {exc}") from None
                if avg_rating is not None and label != derive_label(avg_rating):
                    raise LabelConflictError(
                        f"row {line_no}: label {label.value} conflicts with "
                        f"avg_rating {avg_rating}"
                    )
            elif avg_rating is not None:
                label = derive_label(avg_rating)
            else:
                raise MalformedRowError(
                    f"row {line_no}: avg_rating and label are both empty"
                )

            text_text = row["text_path"].strip()
            if not text_text:
                raise MalformedRowError(f"row {line_no}: empty text_path")
            text_path = Path(text_text)
            if not text_path.is_absolute():
                text_path = root / text_path

            records.append(
                BookRecord(
                    book_id=book_id,
                    genre=genre,
                    avg_rating=avg_rating,
                    n_ratings=n_ratings,
                    label=label,
                    text_path=text_path,
                )
            )
    return CorpusSet(records=tuple(records))


def split_train_val(
    corpus: CorpusSet, val_fraction: float, seed: int
) -> tuple[CorpusSet, CorpusSet]:
    """Disjoint train/validation split, reproducible per (corpus, fraction, seed).

    The validation side gets ``round(val_fraction * n)`` records sampled
    uniformly; manifest order is preserved within each side.
    """
    n = len(corpus)
    if n < 2:
        raise ValueError("split needs at least 2 records")
    if not (0.0 < val_fraction < 1.0):
        raise ValueError(f"val_fraction {val_fraction} outside (0, 1)")
    n_val = round(val_fraction * n)
    if n_val == 0 or n_val == n:
        raise ValueError(
            f"val_fraction {val_fraction} produces an empty side for {n} records"
        )
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    val_idx = sorted(int(i) for i in perm[:n_val])
    train_idx = sorted(int(i) for i in perm[n_val:])
    train = CorpusSet(tuple(corpus.records[i] for i in train_idx))
    val = CorpusSet(tuple(corpus.records[i] for i in val_idx))
    return train, val


@dataclass(frozen=True)
class SectionSpec:
    """Which part of a book to use: first k sentences, last k, or all."""

    kind: str  # "first" | "last" | "full"
    k: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("first", "last", "full"):
            raise ValueError(f"unknown section kind {self.kind!r}")
        if self.kind == "full":
            if self.k is not None:
                raise ValueError("full section takes no k")
        elif self.k is None or self.k < 1:
            raise ValueError(f"section {self.kind} needs k >= 1, got {self.k}")

    @classmethod
    def first(cls, k: int) -> "SectionSpec":
        return cls("first", k)

    @classmethod
    def last(cls, k: int) -> "SectionSpec":
        return cls("last", k)

    @classmethod
    def full(cls) -> "SectionSpec":
        return cls("full")

    @classmethod
    def parse(cls, text: str) -> "SectionSpec":
        """Parse ``first:1000``, ``last:1000``, or ``full``."""
        text = text.strip()
        if text == "full":
            return cls.full()
        kind, sep, k_text = text.partition(":")
        if sep and kind in ("first", "last"):
            try:
                return cls(kind, int(k_text))
            except ValueError:
                pass
        raise ValueError(f"bad section spec {text!r} (want first:K, last:K, or full)")

    def __str__(self) -> str:
        if self.kind == "full":
            return "full"
        return f"{self.kind}:{self.k}"

    def as_slice(self) -> slice:
        """The section as a slice: ``seq[spec.as_slice()]`` holds the
        items ``select_section`` takes from a sequence ``seq``."""
        if self.kind == "first":
            return slice(self.k)
        if self.kind == "last":
            return slice(-self.k, None)
        return slice(None)


def select_section(items: Iterable, spec: SectionSpec) -> list:
    """The leading or trailing ``k`` items, or all of them, in order; a
    shorter input gives all it has. ``first:K`` takes only the first
    ``k`` items from an iterator, so over a lazy sentence source it reads
    only the first K sentences."""
    if spec.kind == "first":
        return list(islice(items, spec.k))
    if spec.kind == "last":
        return list(deque(items, maxlen=spec.k))
    return list(items)
