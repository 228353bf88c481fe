"""rank_corpus against the scalar ranking oracle, bit for bit.

The vectorized ranking over the integer count model must give exactly
the floats that one scalar ``score`` call per document over the
string-token ``dict`` model gives: its int64 and float64 columns equal
the oracle's under ``np.array_equal`` and in the ``repr`` of their
``tolist()`` values (the bytes the predictions CSV writes).
"""

import math

import numpy as np
import pytest

import priorlearn.corpus as corpus_module
from oracles import (
    class_prior,
    cond_prob,
    dict_model,
    document,
    entries,
    from_documents,
    peak_bytes,
    scalar_ranking,
    seeded_rows_corpus,
)
from priorlearn.corpus import Document, load_corpus, store_corpus
from priorlearn.experiment import (
    ExperimentSpec,
    _log_weights,
    learn_priors,
    make_training_set,
    rank_corpus,
    training_model,
)
from priorlearn.model import BAYES_LAPLACE, Hyperparameters, build_counts
from priorlearn.search import DEFAULT_GRID
from priorlearn.synthetic import CATEGORY, make_synthetic_corpus

PRIORS = [
    Hyperparameters(1.0, 1.0),
    Hyperparameters(14.0, 8.0),
    Hyperparameters(0.01, 200.0),
    Hyperparameters(200.0, 0.01),
]


def assert_bit_identical(ranked, expected):
    assert (ranked.ids.dtype, ranked.p_pos.dtype, ranked.log_odds.dtype) == (np.int64, np.float64, np.float64)
    ids, p_pos, log_odds = zip(*expected) if expected else ((), (), ())
    assert np.array_equal(ranked.ids, np.array(ids, dtype=np.int64))
    assert np.array_equal(ranked.p_pos, np.array(p_pos, dtype=np.float64))
    assert np.array_equal(ranked.log_odds, np.array(log_odds, dtype=np.float64))
    assert repr(entries(ranked)) == repr(expected)
    positives = ranked.positives_predicted
    assert type(positives) is int and positives == sum(p > 0.5 for p in p_pos)


def _corpus(token_sets, first_id=1):
    docs = [
        Document(first_id + i, f"d{first_id + i}", frozenset(tokens))
        for i, tokens in enumerate(token_sets)
    ]
    return from_documents(docs)


def _models(training, positive_ids, negative_ids):
    """The count model of these training-corpus ids and its ``dict`` oracle."""
    return (
        build_counts(training, positive_ids, negative_ids),
        dict_model([document(training, i) for i in positive_ids], [document(training, i) for i in negative_ids]),
    )


def _draw(rng, vocab, size):
    # picks by index: a numpy "U" array of the vocabulary would drop trailing NULs
    return {vocab[i] for i in rng.choice(len(vocab), size=size, replace=False).tolist()}


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_acceptance_corpus_matches_oracle(acceptance, seed):
    corpus = acceptance.corpus
    training = make_training_set(corpus, acceptance.categories, CATEGORY, seed)
    model = training_model(corpus, training)
    oracle = dict_model(
        [document(corpus, i) for i in training.positive_ids], [document(corpus, i) for i in training.negative_ids]
    )
    exclude = frozenset(training.positive_ids)
    for hp in PRIORS:
        assert_bit_identical(
            rank_corpus(corpus, model, hp, exclude), scalar_ranking(corpus, oracle, hp, exclude)
        )


def test_log_weights_are_math_log_of_the_oracle_ratios():
    # np.log may differ from math.log in the last bit, mostly on ratios near
    # 1 and rankings often round that away, so the weight tables are pinned
    # directly, over every grid value and counts up to the class sizes
    rng = np.random.default_rng(8)
    vocab = [f"t{i:02d}" for i in range(30)]
    corpus = _corpus([_draw(rng, vocab, int(rng.integers(1, 25))) for _ in range(50)])
    model, oracle = _models(corpus, range(1, 21), range(21, 51))
    slot = {token: s for s, token in enumerate(corpus.vocabulary, 1)}
    for lam_neg, lam_pos in zip(DEFAULT_GRID, reversed(DEFAULT_GRID)):
        hp = Hyperparameters(lam_neg, lam_pos)
        for positive in (True, False):
            expected = np.zeros(len(corpus.vocabulary) + 1)
            expected[0] = math.log(class_prior(positive, oracle, hp))
            for token in oracle.features:
                expected[slot[token]] = math.log(cond_prob(token, positive, oracle, hp))
            assert np.array_equal(_log_weights(positive, model, hp, corpus), expected), (hp, positive)


def test_document_without_model_features_scores_its_priors():
    corpus = _corpus([{"a", "b"}, {"a", "c"}, {"x", "y"}, set(), {"b", "z"}])
    model, oracle = _models(corpus, [1, 2], [5])
    ranked = rank_corpus(corpus, model, BAYES_LAPLACE)
    assert_bit_identical(ranked, scalar_ranking(corpus, oracle, BAYES_LAPLACE))
    # documents 3 and 4 hold no feature: same log odds, ascending ids
    rows = {doc_id: (p_pos, log_odds) for doc_id, p_pos, log_odds in entries(ranked)}
    assert rows[3] == rows[4]
    assert ranked.doc_ids().index(3) + 1 == ranked.doc_ids().index(4)


def test_exclusions_covering_everything_and_absent_ids():
    corpus = _corpus([{"a"}, {"a", "b"}, {"c"}])
    model, oracle = _models(corpus, [1], [3])
    everything = rank_corpus(corpus, model, BAYES_LAPLACE, frozenset({1, 2, 3, 99}))
    assert len(everything) == 0 and everything.doc_ids() == []
    assert everything.positives_predicted == 0
    absent = {2, 99, -5}
    assert_bit_identical(
        rank_corpus(corpus, model, BAYES_LAPLACE, absent),
        scalar_ranking(corpus, oracle, BAYES_LAPLACE, absent),
    )


def test_model_from_another_corpus():
    cases = [
        ([{"only", "here", "a"}, {"a", "b"}, {"b", "elsewhere"}], [{"a"}, {"b", "c"}, {"c", "d"}, {"a", "b", "z"}]),
        # a feature after every corpus token, and one that is a proper prefix of a corpus token
        ([{"zzz", "ca", "a"}, {"a", "b"}, {"b", "elsewhere"}], [{"a"}, {"b", "cat"}, {"cat", "d"}, {"a", "b", "z"}]),
    ]
    for training_sets, token_sets in cases:
        training = _corpus(training_sets, first_id=500)
        model, oracle = _models(training, [500, 501], [502])
        corpus = _corpus(token_sets)
        assert len(set(model.features) - set(corpus.vocabulary)) == 2
        for hp in PRIORS:
            assert_bit_identical(rank_corpus(corpus, model, hp), scalar_ranking(corpus, oracle, hp))


def test_exact_ties_rank_by_ascending_id():
    docs = [Document(doc_id, "t", frozenset({"p", "q"})) for doc_id in (40, 7, 23, 11)]
    docs += [Document(doc_id, "u", frozenset({"q"})) for doc_id in (3, 90)]
    corpus = from_documents(docs)
    training = from_documents(
        [Document(1000, "m", frozenset({"p", "q"})), Document(1001, "n", frozenset({"q"}))]
    )
    model, oracle = _models(training, [1000], [1001])
    ranked = rank_corpus(corpus, model, BAYES_LAPLACE)
    assert_bit_identical(ranked, scalar_ranking(corpus, oracle, BAYES_LAPLACE))
    assert ranked.doc_ids() == [7, 11, 23, 40, 3, 90]


def test_non_ascii_tokens_follow_str_order():
    # code point order differs from UTF-16 order (U+FF5A < U+1F600 only by
    # code point), from case-folded order, and "a\0" is distinct from "a"
    # although a numpy "U" array would drop its trailing NUL
    vocab = [
        "\uff5a", "\U0001f600", "\u00e9", "e\u0301", "Z", "z",
        "\u00df", "ss", "a", "a\x00", "\uffff", "\u01c5",
    ]
    rng = np.random.default_rng(11)
    token_sets = [_draw(rng, vocab, int(rng.integers(1, 8))) for _ in range(60)]
    corpus = _corpus(token_sets)
    assert list(corpus.vocabulary) == sorted(corpus.vocabulary)
    assert "a" in corpus.vocabulary and "a\x00" in corpus.vocabulary
    model, oracle = _models(corpus, range(1, 21), range(21, 41))
    for hp in PRIORS:
        assert_bit_identical(rank_corpus(corpus, model, hp), scalar_ranking(corpus, oracle, hp))


def _random_cases():
    """20 seeded random corpora, each with a model, its oracle, priors and exclusions."""
    rng = np.random.default_rng(5)
    for _ in range(20):
        vocab = [f"t{i}" for i in range(int(rng.integers(1, 40)))]
        token_sets = [
            _draw(rng, vocab, int(rng.integers(0, len(vocab) + 1))) for _ in range(int(rng.integers(2, 50)))
        ]
        corpus = _corpus(token_sets)
        n_pos = int(rng.integers(1, len(token_sets)))
        model, oracle = _models(corpus, range(1, n_pos + 1), range(n_pos + 1, len(token_sets) + 1))
        hp = Hyperparameters(float(rng.uniform(0.01, 200)), float(rng.uniform(0.01, 200)))
        exclude = set(rng.choice(len(token_sets) + 5, size=3).tolist())
        yield corpus, model, oracle, hp, exclude


def test_random_corpora_match_oracle():
    for corpus, model, oracle, hp, exclude in _random_cases():
        assert_bit_identical(
            rank_corpus(corpus, model, hp, exclude), scalar_ranking(corpus, oracle, hp, exclude)
        )


@pytest.mark.parametrize("budget", [3, 7, 16])
def test_random_corpora_match_oracle_in_blocks_of_a_few_slots(monkeypatch, budget):
    monkeypatch.setattr(corpus_module, "_BLOCK_SLOTS", budget)
    shapes = set()
    for corpus, model, oracle, hp, exclude in _random_cases():
        for a, b in corpus.row_blocks():
            # several rows, the next one past the budget; or one row longer than the budget
            shapes.add("rows" if b - a > 1 else "long" if corpus.offsets[b] - corpus.offsets[a] > budget else "")
        assert_bit_identical(
            rank_corpus(corpus, model, hp, exclude), scalar_ranking(corpus, oracle, hp, exclude)
        )
    assert {"rows", "long"} <= shapes


def test_ranking_peak_is_flat_in_the_slots_per_row():
    # one model from another corpus, so its features and weights are the same for both
    training, _ = seeded_rows_corpus(300, 20, vocab_size=40_000, seed=1)
    model = build_counts(training, range(1, 101), range(101, 301))

    def peak(row_length):
        corpus, _ = seeded_rows_corpus(2000, row_length, vocab_size=40_000)
        return peak_bytes(rank_corpus, corpus, model, BAYES_LAPLACE)

    small, large = peak(100), peak(400)
    # a row index and a gathered weight per slot would add 16 bytes for each of the 600,000 more slots
    assert large < small + 500_000


def test_ranking_keeps_only_the_columns_on_a_loaded_corpus(tmp_path):
    syn = make_synthetic_corpus(seed=0, vocab_size=200, n_members=20, pool_size=400)
    store_corpus(syn.corpus, syn.categories, tmp_path / "store")
    corpus, categories = load_corpus(tmp_path / "store")
    spec = ExperimentSpec(corpus=corpus, categories=categories, category=CATEGORY, seeds=(0, 1))
    hp = learn_priors(spec).hyperparameters
    trainings = [make_training_set(corpus, categories, CATEGORY, seed) for seed in (0, 1)]
    rankings = [rank_corpus(corpus, training_model(corpus, training), hp) for training in trainings]
    assert set(vars(corpus)) == {"titles", "vocabulary", "doc_ids", "offsets", "slots"}
    for training, ranked in zip(trainings, rankings):
        oracle = dict_model(
            [document(corpus, i) for i in training.positive_ids], [document(corpus, i) for i in training.negative_ids]
        )
        assert_bit_identical(ranked, scalar_ranking(corpus, oracle, hp))
