"""Ranked-retrieval evaluation: PPV (precision), sensitivity, PPV@k.

Every top-k count is one outcome vector's: PPV@k is its count of ones
over k, the profile its running count, each a Python int over the rank.
PPV of an empty positive-prediction set is defined as 0 rather than
undefined, so a hyperparameter search is steered away from degenerate
settings that predict nothing positive.
"""

from __future__ import annotations

from typing import AbstractSet, Sequence

import numpy as np

__all__ = [
    "ppv_of",
    "sensitivity_of",
    "outcome_vector",
    "ppv_at_k",
    "ppv_profile",
    "profile_to_csv",
]


def ppv_of(tp: int, fp: int) -> float:
    """Positive predictive value tp/(tp+fp); 0 when nothing was predicted positive."""
    return tp / (tp + fp) if tp + fp else 0.0


def sensitivity_of(tp: int, fn: int) -> float:
    """Sensitivity tp/(tp+fn); 0 when there are no positive cases."""
    return tp / (tp + fn) if tp + fn else 0.0


def outcome_vector(ranked_ids: Sequence[int] | np.ndarray, truth: AbstractSet[int], k: int) -> np.ndarray:
    """Bit per rank 1..k: 1 iff that prediction is in the truth set.

    ``ranked_ids`` may be a ranking's int64 id column: only its first
    ``k`` entries are read.
    """
    if not 1 <= k <= len(ranked_ids):
        raise ValueError(f"k={k} out of range 1..{len(ranked_ids)}")
    return np.array([1 if doc_id in truth else 0 for doc_id in ranked_ids[:k]], dtype=np.int8)


def ppv_at_k(ranked_ids: Sequence[int] | np.ndarray, truth: AbstractSet[int], k: int) -> float:
    """Fraction of the top ``k`` ranked ids that are true positives."""
    return int(np.count_nonzero(outcome_vector(ranked_ids, truth, k))) / k


def ppv_profile(
    ranked_ids: Sequence[int] | np.ndarray, truth: AbstractSet[int], K: int
) -> tuple[tuple[int, int, float], ...]:
    """(rank, cumulative hits, cumulative ppv) at every rank 1..``K``."""
    hits = np.cumsum(outcome_vector(ranked_ids, truth, K)).tolist()
    return tuple((k, n, n / k) for k, n in enumerate(hits, start=1))


def profile_to_csv(profile: Sequence[tuple[int, int, float]]) -> str:
    """CSV rendering (rank, hits, ppv) for external plotting."""
    return "rank,hits,ppv\n" + "".join(f"{rank},{hits},{value!r}\n" for rank, hits, value in profile)
