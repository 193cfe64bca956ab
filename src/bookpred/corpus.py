"""Corpus loading, success labels, splits, and book-section selection.

A corpus is a CSV manifest with the header
``book_id,genre,avg_rating,n_ratings,label,text_path`` plus one UTF-8
plain-text file per book. ``text_path`` is resolved relative to the
manifest's directory; an absolute one is kept as it is. Either
``avg_rating`` or ``label`` must be present for every row; when both are
present they must agree. A loaded corpus is a tuple of
:class:`BookRecord` in manifest order.
"""

from __future__ import annotations

import csv
import enum
from collections.abc import Sequence
from dataclasses import dataclass
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


# Class index order of every model output and confusion matrix:
# 0 = Unsuccessful, 1 = Successful.
LABEL_ORDER = (SuccessLabel.UNSUCCESSFUL, SuccessLabel.SUCCESSFUL)


class ManifestError(ValueError):
    """Base class for manifest problems; messages name the offending row or file."""


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


CorpusSet = tuple[BookRecord, ...]  # records in manifest order


def _number(text: str, kind: type, field: str):
    """``kind(text)`` for a numeric manifest field, or None when it is empty."""
    if not text:
        return None
    try:
        return kind(text)
    except ValueError:
        raise MalformedRowError(f"bad {field} {text!r}") from None


def _parse_row(row: dict, root: Path, seen: set[str]) -> BookRecord:
    """One manifest row as a record, its id added to ``seen``. Errors name
    the fault but not the row; the checks run in column order."""
    if None in row or None in row.values():
        raise MalformedRowError("wrong number of fields")
    field = {name: value.strip() for name, value in row.items()}
    book_id = field["book_id"]
    if not book_id:
        raise MalformedRowError("empty book_id")
    if book_id in seen:
        raise DuplicateBookIdError(f"duplicate book_id {book_id!r}")
    seen.add(book_id)
    genre = Genre.parse(field["genre"])
    avg_rating = _number(field["avg_rating"], float, "avg_rating")
    if avg_rating is not None and not (1.0 <= avg_rating <= 5.0):
        raise MalformedRowError(f"avg_rating {avg_rating} outside [1, 5]")
    n_ratings = _number(field["n_ratings"], int, "n_ratings") or 0
    if n_ratings < 0:
        raise MalformedRowError("negative n_ratings")
    if field["label"]:
        label = SuccessLabel.parse(field["label"])
        if avg_rating is not None and label != derive_label(avg_rating):
            raise LabelConflictError(
                f"label {label.value} conflicts with avg_rating {avg_rating}"
            )
    elif avg_rating is not None:
        label = derive_label(avg_rating)
    else:
        raise MalformedRowError("avg_rating and label are both empty")
    if not field["text_path"]:
        raise MalformedRowError("empty text_path")
    return BookRecord(
        book_id=book_id,
        genre=genre,
        avg_rating=avg_rating,
        n_ratings=n_ratings,
        label=label,
        text_path=root / field["text_path"],
    )


def load_corpus(manifest_path: str | Path) -> CorpusSet:
    """Load a manifest CSV into a tuple of :class:`BookRecord`.

    Raises :class:`ManifestError` subclasses for malformed rows, unknown
    genres, duplicate book ids, and label/rating conflicts, each naming
    the 1-based file line the record ends on, so blank lines and quoted
    newlines before it are counted; missing labels are derived from the
    rating.
    A CSV-level fault or a non-UTF-8 byte is a :class:`MalformedRowError`
    naming the manifest.
    """
    manifest_path = Path(manifest_path)
    records: list[BookRecord] = []
    seen: set[str] = set()
    with open(manifest_path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            if reader.fieldnames != MANIFEST_COLUMNS:
                raise MalformedRowError(
                    f"manifest header must be {','.join(MANIFEST_COLUMNS)}, "
                    f"got {reader.fieldnames}"
                )
            for row in reader:
                try:
                    records.append(_parse_row(row, manifest_path.parent, seen))
                except ManifestError as exc:
                    raise type(exc)(f"row {reader.line_num}: {exc}") from None
        except (csv.Error, UnicodeDecodeError) as exc:
            raise MalformedRowError(
                f"{manifest_path}: after line {reader.line_num}: {exc}"
            ) from None
    return tuple(records)


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
    train = tuple(corpus[i] for i in np.sort(perm[n_val:]))
    val = tuple(corpus[i] for i in np.sort(perm[:n_val]))
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
    def parse(cls, text: str) -> "SectionSpec":
        """Parse ``first:1000``, ``last:1000``, or ``full``."""
        text = text.strip()
        if text == "full":
            return cls("full")
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


def select_section(items: Sequence, spec: SectionSpec):
    """The leading or trailing ``k`` items of a sequence (a list, a text's
    ``textstats.Sentences``), or all of them: ``items[spec.as_slice()]``."""
    return items[spec.as_slice()]
