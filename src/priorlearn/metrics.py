"""Ranked-retrieval evaluation: PPV (precision), sensitivity, PPV@k.

PPV of an empty positive-prediction set is defined as 0 rather than
undefined, so a hyperparameter search is steered away from degenerate
settings that predict nothing positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Sequence

__all__ = [
    "ConfusionCounts",
    "PpvProfile",
    "ppv",
    "ppv_of",
    "sensitivity",
    "sensitivity_of",
    "ppv_at_k",
    "ppv_profile",
    "profile_to_csv",
]


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    def __post_init__(self) -> None:
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise ValueError("confusion counts must be nonnegative")


def ppv(counts: ConfusionCounts) -> float:
    return ppv_of(counts.tp, counts.fp)


def ppv_of(tp: int, fp: int) -> float:
    """Positive predictive value tp/(tp+fp); 0 when nothing was predicted positive."""
    return tp / (tp + fp) if tp + fp else 0.0


def sensitivity(counts: ConfusionCounts) -> float:
    return sensitivity_of(counts.tp, counts.fn)


def sensitivity_of(tp: int, fn: int) -> float:
    """Sensitivity tp/(tp+fn); 0 when there are no positive cases."""
    return tp / (tp + fn) if tp + fn else 0.0


def ppv_at_k(ranked_ids: Sequence[int], truth: AbstractSet[int], k: int) -> float:
    """Fraction of the top ``k`` ranked ids that are true positives."""
    if not 1 <= k <= len(ranked_ids):
        raise ValueError(f"k={k} out of range 1..{len(ranked_ids)}")
    hits = sum(1 for doc_id in ranked_ids[:k] if doc_id in truth)
    return hits / k


@dataclass(frozen=True)
class PpvProfile:
    """Cumulative PPV at every rank 1..K of a ranked prediction list."""

    entries: tuple[tuple[int, int, float], ...]
    """(rank, cumulative hits, cumulative ppv) triples."""


def ppv_profile(ranked_ids: Sequence[int], truth: AbstractSet[int], K: int) -> PpvProfile:
    """Cumulative PPV profile over the top ``K`` ranks."""
    if not 1 <= K <= len(ranked_ids):
        raise ValueError(f"K={K} out of range 1..{len(ranked_ids)}")
    entries = []
    hits = 0
    for k, doc_id in enumerate(ranked_ids[:K], start=1):
        hits += doc_id in truth
        entries.append((k, hits, hits / k))
    return PpvProfile(entries=tuple(entries))


def profile_to_csv(profile: PpvProfile) -> str:
    """CSV rendering (rank, hits, ppv) for external plotting."""
    lines = ["rank,hits,ppv"]
    for rank, hits, value in profile.entries:
        lines.append(f"{rank},{hits},{value!r}")
    return "\n".join(lines) + "\n"
