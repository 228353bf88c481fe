import numpy as np
import pytest

from oracles import entries
from priorlearn.corpus import Corpus, Document
from priorlearn.experiment import rank_corpus
from priorlearn.model import build_counts
from priorlearn.synthetic import make_synthetic_corpus


def train(positives, negatives):
    """The count model of these documents, through a corpus of them all."""
    corpus = Corpus.from_documents([*positives, *negatives])
    return build_counts(corpus, [d.id for d in positives], [d.id for d in negatives])


def posteriors(cases, model, hp):
    """``(p_pos, log_odds)`` of each case token set, in order, through ``rank_corpus``."""
    corpus = Corpus.from_documents(Document(i, "", frozenset(c)) for i, c in enumerate(cases))
    rows = {doc_id: (p_pos, log_odds) for doc_id, p_pos, log_odds in entries(rank_corpus(corpus, model, hp))}
    return [rows[i] for i in range(len(cases))]


@pytest.fixture(scope="session")
def acceptance():
    """The acceptance run's corpus: 20,200 documents over a 2,000-token vocabulary."""
    return make_synthetic_corpus(seed=0)


@pytest.fixture
def six_doc_model():
    """Small hand-checkable training set: 3 positives, 3 negatives."""
    positives = [
        Document(1, "p1", frozenset({"grid", "search", "memo"})),
        Document(2, "p2", frozenset({"grid", "climb", "memo"})),
        Document(3, "p3", frozenset({"grid", "search", "climb", "peak"})),
    ]
    negatives = [
        Document(4, "n1", frozenset({"grid", "recipe"})),
        Document(5, "n2", frozenset({"oven", "recipe"})),
        Document(6, "n3", frozenset({"search", "warrant"})),
    ]
    return train(positives, negatives), positives, negatives


def random_training_docs(rng: np.random.Generator, n_pos: int, n_neg: int, vocab_size: int = 60):
    """Random Boolean-feature documents with overlapping class vocabularies."""
    vocab = np.array([f"t{i:02d}" for i in range(vocab_size)])
    w_pos = np.linspace(3.0, 1.0, vocab_size)
    w_pos /= w_pos.sum()
    w_neg = np.linspace(1.0, 3.0, vocab_size)
    w_neg /= w_neg.sum()

    def draw(doc_id, weights, title):
        n_tok = int(rng.integers(4, 16))
        picks = rng.choice(vocab_size, size=n_tok, replace=False, p=weights)
        return Document(doc_id, title, frozenset(vocab[picks]))

    positives = [draw(i, w_pos, f"p{i}") for i in range(n_pos)]
    negatives = [draw(1000 + i, w_neg, f"n{i}") for i in range(n_neg)]
    return positives, negatives
