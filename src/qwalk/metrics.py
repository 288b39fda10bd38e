"""Similarity measures between outcome distributions."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import LabelMismatch, NotNormalized
from .experiments import NORMALIZED, Distribution

__all__ = ["SimilarityReport", "bhattacharyya"]

_NORM_ATOL = 1e-9


@dataclass(frozen=True)
class SimilarityReport:
    value: float
    convention: str


def _check_normalized(dist: Distribution, side: str):
    if dist.undefined:
        raise NotNormalized(f"{side} distribution is undefined (all-zero scan)")
    if dist.normalization != NORMALIZED:
        raise NotNormalized(
            f"{side} distribution carries {dist.normalization!r} values, "
            "not outcome probabilities"
        )
    if not all(math.isfinite(p) for p in dist.probs):
        raise NotNormalized(f"{side} distribution has non-finite entries")
    total = sum(dist.probs)
    if abs(total - 1.0) > _NORM_ATOL:
        raise NotNormalized(f"{side} distribution sums to {total!r}")
    if any(p < 0.0 for p in dist.probs):
        raise NotNormalized(f"{side} distribution has negative entries")


def bhattacharyya(
    p: Distribution, q: Distribution, squared: bool = False
) -> SimilarityReport:
    """Bhattacharyya coefficient sum(sqrt(p_i q_i)) over shared labels.

    Both inputs must carry normalized outcome probabilities on the same
    label set in the same order.  `squared` reports the coefficient's
    square instead (some conventions quote that).
    """
    if p.labels != q.labels:
        raise LabelMismatch(
            f"label sets differ: {len(p.labels)} vs {len(q.labels)} outcomes"
        )
    _check_normalized(p, "first")
    _check_normalized(q, "second")
    value = sum(math.sqrt(a * b) for a, b in zip(p.probs, q.probs))
    value = min(1.0, value)
    if squared:
        return SimilarityReport(value * value, "BhattacharyyaSquared")
    return SimilarityReport(value, "Bhattacharyya")
