"""Seeded synthetic corpora with a known hidden-positive truth set.

Documents are sets of vocabulary tokens drawn without replacement from
one of two overlapping Zipf-weighted distributions: category members
(and the hidden positives buried in the evaluation pool) favor one
topic block, the rest of the pool favors another. The category index
lists only the declared members; the hidden positives are returned
separately as the evaluation truth.

Each document's tokens are drawn by the algorithm of numpy's
``Generator.choice(replace=False, p=weights)``, written out: it makes
the same ``rng.random`` calls with the same sizes in the same order, so
it draws the same stream and picks the same tokens, but the first-round
CDF of each distribution is built once rather than once per document.
Each document's picks are appended as one row of token ids, and the
corpus is built from the rows as an ingested one is.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from .corpus import CategoryIndex, Corpus

__all__ = ["SyntheticCorpus", "make_synthetic_corpus"]

CATEGORY = "Target topic"
#: Share of the pool drawn from the member distribution: the hidden positives.
HIDDEN_POSITIVE_RATE = 0.01
#: Inclusive range of distinct tokens per document.
TOKENS_PER_DOC = (20, 45)
#: Weight multiplier of a distribution's favored topic block.
TOPIC_BOOST = 1.8


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


def _cdf(weights: np.ndarray) -> np.ndarray:
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    return cdf


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
    lo, hi = TOKENS_PER_DOC
    if vocab_size < hi:
        raise ValueError(f"vocab_size={vocab_size} is below the {hi}-token maximum of a document")
    rng = np.random.default_rng(seed)
    quarter = vocab_size // 4
    pos_weights = _topic_weights(vocab_size, slice(0, quarter), TOPIC_BOOST)
    neg_weights = _topic_weights(vocab_size, slice(quarter // 2, quarter + quarter // 2), TOPIC_BOOST)
    pos, neg = (pos_weights, _cdf(pos_weights)), (neg_weights, _cdf(neg_weights))

    lengths, ids = array("q"), array("q")

    def draw(weights: np.ndarray, cdf: np.ndarray) -> None:
        # rng.choice(vocab_size, n_tok, replace=False, p=weights) round for round, with the
        # first-round cdf passed in; a later round depends only on which tokens are picked.
        n_tok = int(rng.integers(lo, hi + 1))
        picks = set(cdf.searchsorted(rng.random(n_tok), side="right").tolist())
        while len(picks) < n_tok:
            x = rng.random(n_tok - len(picks))
            rest = weights.copy()
            rest[list(picks)] = 0
            picks.update(_cdf(rest).searchsorted(x, side="right").tolist())
        lengths.append(n_tok)
        ids.extend(picks)

    doc_ids = range(1, n_members + pool_size + 1)
    truth = range(n_members + 1, n_members + round(pool_size * HIDDEN_POSITIVE_RATE) + 1)
    for doc_id in doc_ids:  # members, then the hidden positives, draw from pos
        draw(*(pos if doc_id < truth.stop else neg))
    titles = [f"{'Member' if i <= n_members else 'Pool'} article {i}" for i in doc_ids]

    # the vocabulary is the drawn tokens only, as a corpus of these documents would hold
    drawn, row_ids = np.unique(ids, return_inverse=True)
    tokens = [f"w{i:04d}" for i in drawn.tolist()]
    corpus = Corpus.from_rows(tokens, doc_ids, titles, lengths, row_ids)
    categories = CategoryIndex.from_mapping({CATEGORY: range(1, n_members + 1)})
    return SyntheticCorpus(corpus=corpus, categories=categories, truth=frozenset(truth))
