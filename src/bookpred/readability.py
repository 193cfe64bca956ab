"""The five readability indices and the training-set z-scaler.

A book's scores are a ``(5,)`` float64 array and a corpus's an ``(N, 5)``
array, in the order fixed everywhere (training, attribution,
serialization): ``[FRES, FKG, SMOG, CLI, ARI]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .textstats import TextCounts

__all__ = [
    "INDEX_NAMES",
    "ReadabilityScaler",
    "fres",
    "fkg",
    "smog",
    "cli_index",
    "ari",
    "readability_vector",
    "fit_scaler",
    "apply_scaler",
]

INDEX_NAMES = ("fres", "fkg", "smog", "cli", "ari")


def _require(counts: TextCounts, words: bool = False, sentences: bool = False) -> None:
    if words and counts.words <= 0:
        raise ValueError("readability index undefined for zero words")
    if sentences and counts.sentences <= 0:
        raise ValueError("readability index undefined for zero sentences")


def fres(c: TextCounts) -> float:
    """Flesch Reading Ease. Higher means easier text."""
    _require(c, words=True, sentences=True)
    return 206.835 - 1.015 * (c.words / c.sentences) - 84.6 * (c.syllables / c.words)


def fkg(c: TextCounts) -> float:
    """Flesch-Kincaid Grade. Higher means harder text."""
    _require(c, words=True, sentences=True)
    return 0.39 * (c.words / c.sentences) + 11.8 * (c.syllables / c.words) - 15.59


def smog(c: TextCounts) -> float:
    """SMOG grade, from polysyllable density per sentence."""
    _require(c, sentences=True)
    return 1.0430 * math.sqrt(c.polysyllables * 30.0 / c.sentences) + 3.1291


def cli_index(c: TextCounts) -> float:
    """Coleman-Liau index, from characters and sentences per 100 words."""
    _require(c, words=True)
    chars_per_100 = 100.0 * c.characters / c.words
    sents_per_100 = 100.0 * c.sentences / c.words
    return 0.0588 * chars_per_100 - 0.296 * sents_per_100 - 15.8


def ari(c: TextCounts) -> float:
    """Automated Readability Index."""
    _require(c, words=True, sentences=True)
    return 4.71 * (c.characters / c.words) + 0.5 * (c.words / c.sentences) - 21.43


def readability_vector(c: TextCounts) -> np.ndarray:
    """All five indices as a (5,) float64 array, in the order
    [FRES, FKG, SMOG, CLI, ARI]."""
    return np.array([fres(c), fkg(c), smog(c), cli_index(c), ari(c)])


@dataclass(frozen=True)
class ReadabilityScaler:
    """Per-component z-scoring statistics, fit on the training set.

    Population standard deviation; components with std below 1e-12 are
    replaced by 1 so constant scores scale to exactly zero.
    """

    mean: np.ndarray
    std: np.ndarray


def fit_scaler(rows: np.ndarray) -> ReadabilityScaler:
    """The scaler of the (N, 5) raw score rows of the training books."""
    if len(rows) < 2:
        raise ValueError("fit_scaler needs at least 2 training vectors")
    mean = rows.mean(axis=0)
    std = rows.std(axis=0)  # population std
    std = np.where(std < 1e-12, 1.0, std)
    return ReadabilityScaler(mean=mean, std=std)


def apply_scaler(scaler: ReadabilityScaler, rows: np.ndarray) -> np.ndarray:
    """Scaled scores of any (..., 5) array of raw score rows."""
    return (rows - scaler.mean) / scaler.std
