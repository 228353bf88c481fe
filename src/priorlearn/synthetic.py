"""Seeded synthetic corpora with a known hidden-positive truth set.

Documents are sets of vocabulary tokens drawn without replacement from
one of two overlapping Zipf-weighted distributions: category members
(and the hidden positives buried in the evaluation pool) favor one
topic block, the rest of the pool favors another. The category index
lists only the declared members; the hidden positives are returned
separately as the evaluation truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import CategoryIndex, Corpus, Document

__all__ = ["SyntheticCorpus", "make_synthetic_corpus"]

CATEGORY = "Target topic"


@dataclass(frozen=True)
class SyntheticCorpus:
    corpus: Corpus
    categories: CategoryIndex
    truth: frozenset[int]
    """Ids of the hidden positives in the evaluation pool."""


def _topic_weights(vocab_size: int, block: slice, boost: float) -> np.ndarray:
    weights = 1.0 / (np.arange(vocab_size) + 10.0)
    weights[block] *= boost
    return weights / weights.sum()


def make_synthetic_corpus(
    seed: int = 0,
    vocab_size: int = 2000,
    n_members: int = 200,
    pool_size: int = 20_000,
    hidden_positive_rate: float = 0.01,
    tokens_per_doc: tuple[int, int] = (20, 45),
    topic_boost: float = 1.8,
    marker_token: str | None = None,
    shard_count: int = 1,
) -> SyntheticCorpus:
    """Generate a corpus of ``n_members`` category members plus a pool.

    ``round(pool_size * hidden_positive_rate)`` pool documents are drawn
    from the member distribution but not tagged with the category; they
    form the truth set a ranking should surface. ``marker_token``, when
    given, is added to every member and hidden positive, making the
    classes perfectly separable. Fully deterministic given ``seed``.
    """
    rng = np.random.default_rng(seed)
    vocab = [f"w{i:04d}" for i in range(vocab_size)]
    quarter = vocab_size // 4
    pos_weights = _topic_weights(vocab_size, slice(0, quarter), topic_boost)
    neg_weights = _topic_weights(vocab_size, slice(quarter // 2, quarter + quarter // 2), topic_boost)
    lo, hi = tokens_per_doc

    def draw(weights: np.ndarray, positive: bool) -> frozenset[str]:
        n_tok = int(rng.integers(lo, hi + 1))
        picks = rng.choice(vocab_size, size=n_tok, replace=False, p=weights)
        tokens = {vocab[i] for i in picks.tolist()}  # shares one str object per token
        if positive and marker_token is not None:
            tokens.add(marker_token)
        return frozenset(tokens)

    n_hidden = round(pool_size * hidden_positive_rate)
    documents = []
    for i in range(n_members):
        documents.append(Document(id=i + 1, title=f"Member article {i + 1}", tokens=draw(pos_weights, True)))
    truth = []
    for i in range(pool_size):
        doc_id = n_members + i + 1
        hidden = i < n_hidden
        documents.append(
            Document(
                id=doc_id,
                title=f"Pool article {doc_id}",
                tokens=draw(pos_weights if hidden else neg_weights, hidden),
            )
        )
        if hidden:
            truth.append(doc_id)

    corpus = Corpus.from_documents(documents, shard_count=shard_count)
    categories = CategoryIndex.from_mapping({CATEGORY: range(1, n_members + 1)})
    return SyntheticCorpus(corpus=corpus, categories=categories, truth=frozenset(truth))
