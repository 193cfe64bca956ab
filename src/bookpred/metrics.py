"""Evaluation metrics: weighted F1 and the McNemar paired test.

The chi-square(1) p-value is erfc(sqrt(x / 2)) from the standard library's
``math``, so no statistics library is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import LABEL_ORDER, SuccessLabel

__all__ = [
    "McNemarResult",
    "confusion_counts",
    "class_f1",
    "weighted_f1",
    "mcnemar",
    "chi_square_sf_1df",
]


def confusion_counts(
    preds: Sequence[SuccessLabel], golds: Sequence[SuccessLabel]
) -> np.ndarray:
    """2x2 confusion matrix, rows = gold, cols = predicted,
    index 0 = Unsuccessful, 1 = Successful."""
    if len(preds) != len(golds):
        raise ValueError(f"length mismatch: {len(preds)} preds vs {len(golds)} golds")
    out = np.zeros((2, 2), dtype=int)
    for p, g in zip(preds, golds):
        out[LABEL_ORDER.index(g), LABEL_ORDER.index(p)] += 1
    return out


def class_f1(confusion: np.ndarray, k: int) -> float:
    """F1 of one class (0 = Unsuccessful, 1 = Successful) from a 2x2
    confusion matrix; 0 when precision + recall is 0."""
    tp = confusion[k, k]
    fp = confusion[1 - k, k]
    fn = confusion[k, 1 - k]
    precision = tp / (tp + fp) if (tp + fp) > 0 else 0.0
    recall = tp / (tp + fn) if (tp + fn) > 0 else 0.0
    if precision + recall == 0.0:
        return 0.0
    return float(2.0 * precision * recall / (precision + recall))


def weighted_f1(
    preds: Sequence[SuccessLabel], golds: Sequence[SuccessLabel]
) -> float:
    """Per-class F1 averaged with weights proportional to gold support."""
    if not golds:
        raise ValueError("weighted_f1 needs at least one prediction")
    confusion = confusion_counts(preds, golds)
    n = len(golds)
    total = 0.0
    for k in range(2):
        support = int(confusion[k].sum())
        total += (support / n) * class_f1(confusion, k)
    return total


@dataclass(frozen=True)
class McNemarResult:
    """Discordant counts and the continuity-corrected test outcome.

    ``b`` counts items A got right and B got wrong; ``c`` the reverse.
    """

    b: int
    c: int
    statistic: float
    p_value: float


def mcnemar(
    preds_a: Sequence[SuccessLabel],
    preds_b: Sequence[SuccessLabel],
    golds: Sequence[SuccessLabel],
) -> McNemarResult:
    """McNemar test on the discordant predictions of two classifiers.

    Uses the continuity-corrected statistic (|b - c| - 1)^2 / (b + c)
    (0 when b + c = 0) against chi-square with 1 degree of freedom.
    """
    if not (len(preds_a) == len(preds_b) == len(golds)):
        raise ValueError(
            f"length mismatch: {len(preds_a)} / {len(preds_b)} / {len(golds)}"
        )
    b = 0
    c = 0
    for pa, pb, g in zip(preds_a, preds_b, golds):
        a_right = pa == g
        b_right = pb == g
        if a_right and not b_right:
            b += 1
        elif b_right and not a_right:
            c += 1
    if b + c > 0:
        statistic = (abs(b - c) - 1.0) ** 2 / (b + c)
    else:
        statistic = 0.0
    return McNemarResult(b=b, c=c, statistic=statistic, p_value=chi_square_sf_1df(statistic))


def chi_square_sf_1df(x: float) -> float:
    """Survival function of the chi-square distribution with 1 degree of
    freedom, which is erfc(sqrt(x / 2))."""
    if x < 0:
        raise ValueError(f"chi-square statistic must be >= 0, got {x}")
    return math.erfc(math.sqrt(x / 2.0))
