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
#: Share of the pool drawn from the member distribution: the hidden positives.
HIDDEN_POSITIVE_RATE = 0.01
#: Inclusive range of distinct tokens per document.
TOKENS_PER_DOC = (20, 45)
#: Weight multiplier of a distribution's favored topic block.
TOPIC_BOOST = 1.8
SHARD_COUNT = 1


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
) -> SyntheticCorpus:
    """Generate a corpus of ``n_members`` category members plus a pool.

    ``round(pool_size * HIDDEN_POSITIVE_RATE)`` pool documents are drawn
    from the member distribution but not tagged with the category; they
    form the truth set a ranking should surface. Fully deterministic
    given ``seed``.
    """
    rng = np.random.default_rng(seed)
    vocab = [f"w{i:04d}" for i in range(vocab_size)]
    quarter = vocab_size // 4
    pos_weights = _topic_weights(vocab_size, slice(0, quarter), TOPIC_BOOST)
    neg_weights = _topic_weights(vocab_size, slice(quarter // 2, quarter + quarter // 2), TOPIC_BOOST)
    lo, hi = TOKENS_PER_DOC

    def draw(weights: np.ndarray) -> frozenset[str]:
        n_tok = int(rng.integers(lo, hi + 1))
        picks = rng.choice(vocab_size, size=n_tok, replace=False, p=weights)
        return frozenset({vocab[i] for i in picks.tolist()})  # shares one str object per token

    n_hidden = round(pool_size * HIDDEN_POSITIVE_RATE)
    documents = []
    for i in range(n_members):
        documents.append(Document(id=i + 1, title=f"Member article {i + 1}", tokens=draw(pos_weights)))
    truth = []
    for i in range(pool_size):
        doc_id = n_members + i + 1
        hidden = i < n_hidden
        documents.append(
            Document(
                id=doc_id,
                title=f"Pool article {doc_id}",
                tokens=draw(pos_weights if hidden else neg_weights),
            )
        )
        if hidden:
            truth.append(doc_id)

    corpus = Corpus.from_documents(documents, shard_count=SHARD_COUNT)
    categories = CategoryIndex.from_mapping({CATEGORY: range(1, n_members + 1)})
    return SyntheticCorpus(corpus=corpus, categories=categories, truth=frozenset(truth))
