"""Smoothed naive Bayes count model over Boolean token features.

The model keeps document counts, not token frequencies: ``pos_count[i]``
is the number of positive training documents containing
``features[i]``. The feature set is the union of the *positive* training
documents' tokens; tokens seen only in negatives are never counted. A
case is always scored on the intersection of its tokens with the feature
set, so absent model tokens carry no penalty (case-specific feature
selection).

Probabilities are smoothed by a pair of prior pseudo-counts: ``lambda_pos``
on the positive side and ``lambda_neg`` on the negative side.

    p(t | pos)  = (lambda_pos + pos_count[t]) / (lambda_pos + n_pos)
    p(pos)      = (lambda_pos + n_pos) / (lambda_pos + lambda_neg + N)

and symmetrically for the negative class. A model is integer arrays
gathered from the token rows of a :class:`~priorlearn.corpus.Corpus`,
whose slots follow ``str`` order, so features, counts and folds come out
in ascending token order. Scores are computed in log space; the two-class
posterior is normalized with max-subtraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .corpus import Corpus

__all__ = [
    "Hyperparameters",
    "CountModel",
    "build_counts",
    "cond_probs",
    "class_prior",
    "positive_posteriors",
    "model_manifest",
]


@dataclass(frozen=True)
class Hyperparameters:
    """Prior pseudo-counts for the negative and positive class."""

    lambda_neg: float
    lambda_pos: float

    def __post_init__(self) -> None:
        for name in ("lambda_neg", "lambda_pos"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if not math.isfinite(self.lambda_neg + self.lambda_pos):  # class_prior's denominator would overflow
            raise ValueError(f"lambda_neg + lambda_pos must be finite, got {self.lambda_neg} + {self.lambda_pos}")


BAYES_LAPLACE = Hyperparameters(lambda_neg=1.0, lambda_pos=1.0)


@dataclass(frozen=True, eq=False)
class CountModel:
    """Per-class document counts over the positive-union feature set.

    ``features`` holds the feature tokens in ascending ``str`` order;
    ``pos_count`` and ``neg_count`` are integer arrays aligned with it.
    The training folds, positives first, then negatives, are compressed
    rows of ``int32`` feature positions: fold ``i`` is
    ``fold_features[fold_offsets[i]:fold_offsets[i + 1]]``, its document's
    tokens intersected with ``features``, ascending. Leave-one-out scoring
    decrements counts through them instead of retraining. The model is
    immutable after build and safe for unrestricted parallel scoring.
    """

    n_pos: int
    n_neg: int
    features: tuple[str, ...]
    pos_count: np.ndarray = field(repr=False)
    neg_count: np.ndarray = field(repr=False)
    fold_offsets: np.ndarray = field(repr=False)
    fold_features: np.ndarray = field(repr=False)

    @property
    def n_folds(self) -> int:
        """N: the number of training documents, one fold each."""
        return self.n_pos + self.n_neg


def build_counts(
    corpus: Corpus, positive_ids: Sequence[int], negative_ids: Sequence[int]
) -> CountModel:
    """Count token occurrences per class over the training documents.

    The documents are rows of ``corpus``, folds in the order given. The
    feature set is the union of the positive documents' tokens; negative
    documents contribute counts only for tokens in that set. The rows
    are gathered a block at a time (:func:`~priorlearn.corpus.take_rows`)
    and mapped to ``int32`` feature positions, and the folds' offsets come
    from an ``int32`` running count of the kept slots, so no array of an
    ``int64`` per slot is made. Raises
    ``ValueError`` if ``positive_ids`` is empty (the feature set would be
    empty), if an id appears on both sides, or if an id is not in
    ``corpus``.
    """
    if not positive_ids:
        raise ValueError("positives must be nonempty")
    shared = set(positive_ids) & set(negative_ids)
    if shared:
        raise ValueError(f"documents on both sides: {sorted(shared)}")
    slots, row_offsets = corpus.token_rows([*positive_ids, *negative_ids])
    n_pos = len(positive_ids)
    width = len(corpus.vocabulary) + 1
    pos_count = np.bincount(slots[: row_offsets[n_pos]], minlength=width)
    feature_slots = np.flatnonzero(pos_count)
    position = np.full(width, -1, dtype=np.int32)
    position[feature_slots] = np.arange(len(feature_slots))
    positions = position[slots]
    del slots
    kept = positions >= 0
    kept_before = np.zeros(len(kept) + 1, dtype=np.int32 if len(kept) < 2**31 else np.int64)
    kept_before[1:] = kept
    np.cumsum(kept_before[1:], out=kept_before[1:])  # in place: a cumsum of the bools would copy them cast
    fold_offsets = kept_before[row_offsets].astype(np.int64)
    del kept_before
    fold_features = positions[kept]
    del positions, kept
    neg_count = np.zeros(len(feature_slots), dtype=np.int64)
    np.add.at(neg_count, fold_features[fold_offsets[n_pos] :], 1)  # where bincount would copy them to intp
    return CountModel(
        n_pos=n_pos,
        n_neg=len(negative_ids),
        features=tuple(corpus.vocabulary[slot - 1] for slot in feature_slots.tolist()),
        pos_count=pos_count[feature_slots],
        neg_count=neg_count,
        fold_offsets=fold_offsets,
        fold_features=fold_features,
    )


def cond_probs(positive: bool, model: CountModel, hp: Hyperparameters) -> np.ndarray:
    """Smoothed conditional probability of each feature given the class.

    ``(lambda_c + n(t, c)) / (lambda_c + n(c))`` for the requested class,
    aligned with ``model.features``.
    """
    if positive:
        return (hp.lambda_pos + model.pos_count) / (hp.lambda_pos + model.n_pos)
    return (hp.lambda_neg + model.neg_count) / (hp.lambda_neg + model.n_neg)


def class_prior(positive: bool, model: CountModel, hp: Hyperparameters) -> float:
    """Smoothed class prior ``(lambda_c + n(c)) / (lambda_pos + lambda_neg + N)``."""
    denom = hp.lambda_pos + hp.lambda_neg + model.n_folds
    if positive:
        return (hp.lambda_pos + model.n_pos) / denom
    return (hp.lambda_neg + model.n_neg) / denom


def positive_posteriors(log_odds: np.ndarray) -> np.ndarray:
    """p(pos) of each ``log_pos - log_neg``, normalized with max-subtraction.

    With ``e = exp(-|log_odds|)`` the larger class weighs ``1`` and the
    smaller ``e``, so ``p_pos`` is ``1 / (1 + e)`` where the log odds are
    nonnegative and ``e / (e + 1)`` elsewhere; ``log_neg - log_pos`` is
    exactly ``-(log_pos - log_neg)`` in IEEE arithmetic. ``exp`` is
    ``math.exp`` (``np.exp`` may differ in the last bit).
    """
    e = np.array(list(map(math.exp, (-np.abs(log_odds)).tolist())), dtype=np.float64)
    return np.where(log_odds >= 0.0, 1.0 / (1.0 + e), e / (e + 1.0))


def model_manifest(model: CountModel) -> str:
    """Text manifest of the model counts, for audit and cross-run diffing."""
    lines = [f"n_pos\t{model.n_pos}", f"n_neg\t{model.n_neg}"]
    for t, pos, neg in zip(model.features, model.pos_count.tolist(), model.neg_count.tolist()):
        lines.append(f"{t}\t{pos}\t{neg}")
    return "\n".join(lines) + "\n"
