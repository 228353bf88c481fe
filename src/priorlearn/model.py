"""Smoothed naive Bayes count model over Boolean token features.

The model keeps document counts, not token frequencies: ``pos_count[t]``
is the number of positive training documents containing ``t``. The
feature set is the union of the *positive* training documents' tokens;
tokens seen only in negatives are never counted. A case is always scored
on the intersection of its tokens with the feature set, so absent model
tokens carry no penalty (case-specific feature selection).

Probabilities are smoothed by a pair of prior pseudo-counts: ``lambda_pos``
on the positive side and ``lambda_neg`` on the negative side.

    p(t | pos)  = (lambda_pos + pos_count[t]) / (lambda_pos + n_pos)
    p(pos)      = (lambda_pos + n_pos) / (lambda_pos + lambda_neg + N)

and symmetrically for the negative class. Scores are computed in log
space; the two-class posterior is normalized with max-subtraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import AbstractSet, Sequence

from .corpus import Document

__all__ = [
    "Hyperparameters",
    "CountModel",
    "Posterior",
    "build_counts",
    "cond_prob",
    "class_prior",
    "positive_posterior",
    "score",
    "loo_score",
    "classify",
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


BAYES_LAPLACE = Hyperparameters(lambda_neg=1.0, lambda_pos=1.0)


@dataclass(frozen=True)
class Posterior:
    """Two-class posterior: probability of the positive class and log odds."""

    p_pos: float
    log_odds: float

    @property
    def p_neg(self) -> float:
        return 1.0 - self.p_pos


@dataclass(frozen=True)
class CountModel:
    """Per-class document counts over the positive-union feature set.

    ``doc_labels``/``doc_tokens`` retain the training folds (positives
    first, then negatives; token tuples sorted and already intersected
    with ``features``) so leave-one-out scoring can decrement counts
    instead of retraining. The model is immutable after build and safe
    for unrestricted parallel scoring.
    """

    n_pos: int
    n_neg: int
    features: frozenset[str]
    pos_count: dict[str, int] = field(repr=False)
    neg_count: dict[str, int] = field(repr=False)
    doc_labels: tuple[bool, ...] = field(repr=False)
    doc_tokens: tuple[tuple[str, ...], ...] = field(repr=False)

    @property
    def total(self) -> int:
        """N: number of training documents."""
        return self.n_pos + self.n_neg

    @property
    def n_folds(self) -> int:
        return len(self.doc_labels)


def build_counts(positives: Sequence[Document], negatives: Sequence[Document]) -> CountModel:
    """Count token occurrences per class over the training documents.

    The feature set is the union of the positive documents' tokens;
    negative documents contribute counts only for tokens in that set.
    Raises ``ValueError`` if ``positives`` is empty (the feature set
    would be empty) or if a document id appears on both sides.
    """
    if not positives:
        raise ValueError("positives must be nonempty")
    pos_ids = {doc.id for doc in positives}
    neg_ids = {doc.id for doc in negatives}
    if pos_ids & neg_ids:
        raise ValueError(f"documents on both sides: {sorted(pos_ids & neg_ids)}")

    features: set[str] = set()
    for doc in positives:
        features.update(doc.tokens)

    pos_count: dict[str, int] = {}
    neg_count: dict[str, int] = {}
    doc_labels: list[bool] = []
    doc_tokens: list[tuple[str, ...]] = []
    for doc in positives:
        retained = tuple(sorted(doc.tokens))
        for t in retained:
            pos_count[t] = pos_count.get(t, 0) + 1
        doc_labels.append(True)
        doc_tokens.append(retained)
    for doc in negatives:
        retained = tuple(sorted(doc.tokens & features))
        for t in retained:
            neg_count[t] = neg_count.get(t, 0) + 1
        doc_labels.append(False)
        doc_tokens.append(retained)

    return CountModel(
        n_pos=len(positives),
        n_neg=len(negatives),
        features=frozenset(features),
        pos_count=pos_count,
        neg_count=neg_count,
        doc_labels=tuple(doc_labels),
        doc_tokens=tuple(doc_tokens),
    )


def cond_prob(token: str, positive: bool, model: CountModel, hp: Hyperparameters) -> float:
    """Smoothed conditional probability of ``token`` given the class.

    ``(lambda_c + n(token, c)) / (lambda_c + n(c))`` for the requested
    class. The token must be a model feature; callers score unseen
    tokens by intersecting with ``model.features`` first.
    """
    if token not in model.features:
        raise ValueError(f"token {token!r} is not a model feature")
    if positive:
        return (hp.lambda_pos + model.pos_count.get(token, 0)) / (hp.lambda_pos + model.n_pos)
    return (hp.lambda_neg + model.neg_count.get(token, 0)) / (hp.lambda_neg + model.n_neg)


def class_prior(positive: bool, model: CountModel, hp: Hyperparameters) -> float:
    """Smoothed class prior ``(lambda_c + n(c)) / (lambda_pos + lambda_neg + N)``."""
    denom = hp.lambda_pos + hp.lambda_neg + model.total
    if positive:
        return (hp.lambda_pos + model.n_pos) / denom
    return (hp.lambda_neg + model.n_neg) / denom


def positive_posterior(log_pos: float, log_neg: float) -> float:
    """p(pos) from the two classes' log scores, normalized with max-subtraction."""
    m = max(log_pos, log_neg)
    w_pos = math.exp(log_pos - m)
    w_neg = math.exp(log_neg - m)
    return w_pos / (w_pos + w_neg)


def _posterior_from_logs(log_pos: float, log_neg: float) -> Posterior:
    return Posterior(p_pos=positive_posterior(log_pos, log_neg), log_odds=log_pos - log_neg)


def score(case_tokens: AbstractSet[str], model: CountModel, hp: Hyperparameters) -> Posterior:
    """Posterior of the positive class for a case's token set.

    Only tokens that are model features contribute; adding tokens
    outside ``model.features`` never changes the result. An empty
    intersection reduces to the class priors.
    """
    log_pos = math.log(class_prior(True, model, hp))
    log_neg = math.log(class_prior(False, model, hp))
    # sorted iteration keeps float summation order process-independent
    for t in sorted(case_tokens & model.features):
        log_pos += math.log(cond_prob(t, True, model, hp))
        log_neg += math.log(cond_prob(t, False, model, hp))
    return _posterior_from_logs(log_pos, log_neg)


def loo_score(held_out_index: int, model: CountModel, hp: Hyperparameters) -> Posterior:
    """Posterior of a training case as if it had never been counted.

    The held-out case's class count, N, and its tokens' own-class counts
    are each decremented by one; the feature set stays frozen (counts
    may reach zero, smoothing keeps every term defined). The model
    itself is not modified.
    """
    if not 0 <= held_out_index < model.n_folds:
        raise IndexError(f"fold index {held_out_index} out of range 0..{model.n_folds - 1}")
    label = model.doc_labels[held_out_index]
    tokens = model.doc_tokens[held_out_index]

    adj_pos = model.n_pos - (1 if label else 0)
    adj_neg = model.n_neg - (0 if label else 1)
    denom = hp.lambda_pos + hp.lambda_neg + model.total - 1
    log_pos = math.log((hp.lambda_pos + adj_pos) / denom)
    log_neg = math.log((hp.lambda_neg + adj_neg) / denom)
    for t in tokens:
        t_pos = model.pos_count.get(t, 0) - (1 if label else 0)
        t_neg = model.neg_count.get(t, 0) - (0 if label else 1)
        log_pos += math.log((hp.lambda_pos + t_pos) / (hp.lambda_pos + adj_pos))
        log_neg += math.log((hp.lambda_neg + t_neg) / (hp.lambda_neg + adj_neg))
    return _posterior_from_logs(log_pos, log_neg)


def classify(case_tokens: AbstractSet[str], model: CountModel, hp: Hyperparameters) -> bool:
    """True iff the positive posterior exceeds 1/2; an exact tie is negative."""
    return score(case_tokens, model, hp).p_pos > 0.5


def model_manifest(model: CountModel) -> str:
    """Text manifest of the model counts, for audit and cross-run diffing."""
    lines = [f"n_pos\t{model.n_pos}", f"n_neg\t{model.n_neg}"]
    for t in sorted(model.features):
        lines.append(f"{t}\t{model.pos_count.get(t, 0)}\t{model.neg_count.get(t, 0)}")
    return "\n".join(lines) + "\n"
