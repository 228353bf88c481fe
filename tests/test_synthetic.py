"""The synthetic corpus equals the one drawn by ``Generator.choice``, document for document."""

import sys

import numpy as np
import pytest

from oracles import category_items, choice_synthetic_corpus
from priorlearn.corpus import Corpus
from priorlearn.synthetic import TOKENS_PER_DOC, make_synthetic_corpus


def _assert_same_corpus(syn, ref):
    assert [(d.id, d.title, d.tokens) for d in syn.corpus] == [(d.id, d.title, d.tokens) for d in ref.corpus]
    corpus, expected = syn.corpus, Corpus.from_documents(list(ref.corpus))
    assert corpus.vocabulary == expected.vocabulary
    for name in ("doc_ids", "offsets", "slots"):
        assert getattr(corpus, name).dtype == getattr(expected, name).dtype, name
        assert np.array_equal(getattr(corpus, name), getattr(expected, name)), name
    assert category_items(syn.categories) == category_items(ref.categories)
    assert syn.truth == ref.truth


@pytest.fixture(scope="module")
def default_reference():
    return choice_synthetic_corpus(seed=0)


def test_default_corpus_matches_choice(acceptance, default_reference):
    _assert_same_corpus(acceptance, default_reference)


def test_default_token_sets_take_the_same_memory(acceptance, default_reference):
    # a frozenset built from a list rather than a set sizes many hash tables larger
    def token_bytes(syn):
        return sum(sys.getsizeof(doc.tokens) for doc in syn.corpus)

    assert token_bytes(acceptance) == token_bytes(default_reference)
    # both corpora build their Documents from the index, so compare with token sets built from sets too
    assert token_bytes(acceptance) == sum(sys.getsizeof(frozenset(set(doc.tokens))) for doc in acceptance.corpus)


@pytest.mark.parametrize("seed", [1, 2])
def test_default_shape_matches_choice(seed):
    _assert_same_corpus(make_synthetic_corpus(seed=seed), choice_synthetic_corpus(seed=seed))


@pytest.mark.parametrize(
    "vocab_size, n_members, pool_size",
    [
        (2000, 1000, 4000),  # the search-wide benchmark workload
        (200, 20, 400),  # the benchmark contract test
        (1500, 150, 8000),  # demo 05
        (2000, 1, 2),  # most of the vocabulary is never drawn
    ],
)
def test_workload_shapes_match_choice(vocab_size, n_members, pool_size):
    shape = dict(vocab_size=vocab_size, n_members=n_members, pool_size=pool_size)
    _assert_same_corpus(make_synthetic_corpus(seed=0, **shape), choice_synthetic_corpus(seed=0, **shape))


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("vocab_size, n_members, pool_size", [(45, 5, 60), (60, 30, 300), (90, 5, 50)])
def test_small_vocabularies_match_choice(seed, vocab_size, n_members, pool_size):
    # most documents here need more than one round of draws
    shape = dict(vocab_size=vocab_size, n_members=n_members, pool_size=pool_size)
    _assert_same_corpus(make_synthetic_corpus(seed=seed, **shape), choice_synthetic_corpus(seed=seed, **shape))


def test_vocabulary_smaller_than_a_document_is_rejected_before_any_draw(monkeypatch):
    def no_generator(*args, **kwargs):
        raise AssertionError("a generator was made")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    with pytest.raises(ValueError, match=rf"vocab_size=44 .*{TOKENS_PER_DOC[1]}-token maximum"):
        make_synthetic_corpus(vocab_size=44)
