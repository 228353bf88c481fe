import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import posteriors, random_training_docs, train
from oracles import (
    cond_prob,
    dict_model,
    document,
    exact_posterior,
    from_documents,
    loo_evaluator,
    loo_score,
    positive_posterior,
    retrained_loo_posterior,
    tally_counts,
)
from priorlearn.corpus import Document
from priorlearn.experiment import make_training_set, rank_corpus, training_model
from priorlearn.model import (
    CountModel,
    Hyperparameters,
    build_counts,
    class_prior,
    cond_probs,
    model_manifest,
    positive_posteriors,
)
from priorlearn.search import DEFAULT_GRID, Cell
from priorlearn.synthetic import CATEGORY

HP11 = Hyperparameters(1, 1)


def _doc(i, tokens):
    return Document(i, f"d{i}", frozenset(tokens))


def _bare_model(n_pos, n_neg, pos_count=None, neg_count=None, features=None):
    """Directly-constructed model without folds, for arithmetic checks on the formulas."""
    pos_count, neg_count = pos_count or {}, neg_count or {}
    features = tuple(sorted(features or pos_count))
    return CountModel(
        n_pos=n_pos,
        n_neg=n_neg,
        features=features,
        pos_count=np.array([pos_count.get(t, 0) for t in features], dtype=np.int64),
        neg_count=np.array([neg_count.get(t, 0) for t in features], dtype=np.int64),
        fold_offsets=np.zeros(1, dtype=np.int64),
        fold_features=np.zeros(0, dtype=np.int64),
    )


def _prob(model, token, positive, hp):
    return cond_probs(positive, model, hp)[model.features.index(token)]


def _folds(model):
    """Each fold's feature tokens, from the model's compressed rows."""
    offsets = model.fold_offsets.tolist()
    return [
        tuple(model.features[i] for i in model.fold_features[start:end].tolist())
        for start, end in zip(offsets, offsets[1:])
    ]


def assert_matches_dict_model(model, positives, negatives):
    oracle = dict_model(positives, negatives)
    assert (model.n_pos, model.n_neg, model.n_folds) == (oracle.n_pos, oracle.n_neg, oracle.n_folds)
    assert model.features == tuple(sorted(oracle.features))
    assert model.pos_count.tolist() == [oracle.pos_count.get(t, 0) for t in model.features]
    assert model.neg_count.tolist() == [oracle.neg_count.get(t, 0) for t in model.features]
    assert _folds(model) == list(oracle.doc_tokens)


def _p_pos(log_odds):
    return positive_posterior(log_odds, 0.0)


class TestHyperparameters:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Hyperparameters(0, 1)
        with pytest.raises(ValueError):
            Hyperparameters(1, -2)

    def test_grid_extremes_accepted(self):
        Hyperparameters(0.01, 200)

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
    def test_rejects_non_finite_naming_the_field(self, bad):
        with pytest.raises(ValueError, match="lambda_neg must be finite"):
            Hyperparameters(bad, 1.0)
        with pytest.raises(ValueError, match="lambda_pos must be finite"):
            Hyperparameters(1.0, bad)


class TestBuildCounts:
    def test_basic_example(self):
        model = train(
            [_doc(1, {"a", "b"}), _doc(2, {"b", "c"})],
            [_doc(3, {"b", "d"})],
        )
        assert model.features == ("a", "b", "c")
        assert model.pos_count.tolist() == [1, 2, 1]
        assert model.neg_count.tolist() == [0, 1, 0]  # d never counted
        assert _folds(model) == [("a", "b"), ("b", "c"), ("b",)]
        assert (model.n_pos, model.n_neg, model.n_folds) == (2, 1, 3)

    def test_empty_negatives_allowed(self):
        model = train([_doc(1, {"a"})], [])
        assert model.n_neg == 0
        assert model.neg_count.tolist() == [0]
        [(p_pos, _)] = posteriors([{"a"}], model, HP11)
        assert 0 < p_pos < 1

    def test_empty_positives_rejected(self):
        corpus = from_documents([_doc(1, {"a"})])
        with pytest.raises(ValueError, match="positives"):
            build_counts(corpus, [], [1])

    def test_shared_ids_rejected(self):
        corpus = from_documents([_doc(1, {"a"}), _doc(2, {"b"})])
        with pytest.raises(ValueError, match=r"both sides: \[1\]"):
            build_counts(corpus, [1, 2], [1])

    @pytest.mark.parametrize("positive_ids,negative_ids", [([1, 99], [2]), ([1], [2, 99, 0])])
    def test_absent_ids_rejected(self, positive_ids, negative_ids):
        corpus = from_documents([_doc(1, {"a"}), _doc(2, {"b"})])
        with pytest.raises(ValueError, match=r"not in the corpus index: \[.*99\]"):
            build_counts(corpus, positive_ids, negative_ids)

    def test_counts_match_brute_force_tally(self, six_doc_model):
        model, positives, negatives = six_doc_model
        features, pos_count, neg_count = tally_counts(positives, negatives)
        assert model.features == tuple(sorted(features))
        assert dict(zip(model.features, model.pos_count.tolist())) == pos_count
        assert {t: c for t, c in zip(model.features, model.neg_count.tolist()) if c} == neg_count

    def test_count_bounds_invariant(self, six_doc_model):
        model, _, _ = six_doc_model
        assert model.pos_count.dtype.kind == model.neg_count.dtype.kind == "i"
        assert np.all((1 <= model.pos_count) & (model.pos_count <= model.n_pos))
        assert np.all((0 <= model.neg_count) & (model.neg_count <= model.n_neg))
        assert len(model.pos_count) == len(model.neg_count) == len(model.features)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_matches_dict_model_on_acceptance_training_sets(self, acceptance, seed):
        corpus = acceptance.corpus
        training = make_training_set(corpus, acceptance.categories, CATEGORY, seed)
        assert_matches_dict_model(
            training_model(corpus, training),
            [document(corpus, i) for i in training.positive_ids],
            [document(corpus, i) for i in training.negative_ids],
        )

    def test_matches_dict_model_on_random_corpora(self):
        rng = np.random.default_rng(8)
        vocab = [f"t{i}" for i in range(30)] + ["\u00e9", "e\u0301", "\U0001f600", "Z", "a\x00", "a"]
        for _ in range(20):
            n_docs = int(rng.integers(2, 60))
            docs = [
                _doc(int(doc_id), (vocab[i] for i in rng.choice(len(vocab), size=int(rng.integers(0, 12)), replace=False)))
                for doc_id in rng.choice(10_000, size=n_docs, replace=False)
            ]
            # training folds in a random order, not all documents used
            order = rng.permutation(n_docs).tolist()
            n_pos = int(rng.integers(1, n_docs))
            n_neg = int(rng.integers(0, n_docs - n_pos + 1))
            positives = [docs[i] for i in order[:n_pos]]
            negatives = [docs[i] for i in order[n_pos:n_pos + n_neg]]
            corpus = from_documents(docs)
            model = build_counts(corpus, [d.id for d in positives], [d.id for d in negatives])
            assert_matches_dict_model(model, positives, negatives)


class TestCondProb:
    def test_smoothed_ratio(self):
        model = _bare_model(9, 0, pos_count={"t": 3})
        assert _prob(model, "t", True, HP11) == 0.4  # (1+3)/(1+9)

    def test_large_negative_floor(self):
        model = _bare_model(0, 50, features={"t"})
        hp = Hyperparameters(lambda_neg=200, lambda_pos=1)
        assert _prob(model, "t", False, hp) == 0.8  # 200/250

    def test_exactly_one_when_token_in_every_doc(self):
        model = _bare_model(5, 0, pos_count={"t": 5})
        assert _prob(model, "t", True, HP11) == 1.0

    def test_unknown_token_rejected(self):
        # the string-token reference refuses a token outside the features
        model = dict_model([_doc(1, {"t"})], [_doc(2, {"t"})])
        with pytest.raises(ValueError, match="feature"):
            cond_prob("u", True, model, HP11)

    def test_always_in_unit_interval(self, six_doc_model):
        model, _, _ = six_doc_model
        for lam in DEFAULT_GRID:
            hp = Hyperparameters(lam, lam)
            for positive in (True, False):
                probs = cond_probs(positive, model, hp)
                assert probs.shape == (len(model.features),)
                assert np.all((0.0 < probs) & (probs <= 1.0))


class TestClassPrior:
    def test_balanced_symmetry(self):
        model = _bare_model(5, 5)
        assert class_prior(True, model, HP11) == 0.5
        assert class_prior(False, model, HP11) == 0.5

    def test_unobserved_event_anchor(self):
        # two trials, zero observed "positives", add-one priors: 1/4
        model = _bare_model(0, 2)
        assert class_prior(True, model, HP11) == 0.25

    def test_learned_priors_anchor(self):
        # 199 training documents per class with priors (22, 4): 203/424
        model = _bare_model(199, 199)
        hp = Hyperparameters(lambda_neg=22, lambda_pos=4)
        assert class_prior(True, model, hp) == 203 / 424

    def test_priors_sum_to_one(self, six_doc_model):
        model, _, _ = six_doc_model
        for lam_neg in (0.01, 0.5, 1, 37, 200):
            for lam_pos in (0.01, 1, 200):
                hp = Hyperparameters(lam_neg, lam_pos)
                total = class_prior(True, model, hp) + class_prior(False, model, hp)
                assert math.isclose(total, 1.0, abs_tol=1e-12)


class TestScore:
    def test_empty_intersection_reduces_to_priors(self, six_doc_model):
        model, _, _ = six_doc_model
        [(p_pos, log_odds)] = posteriors([{"zzz", "not-a-feature"}], model, HP11)
        expected = class_prior(True, model, HP11) / (
            class_prior(True, model, HP11) + class_prior(False, model, HP11)
        )
        assert math.isclose(p_pos, expected, abs_tol=1e-12)
        assert log_odds == pytest.approx(0.0, abs=1e-12)

    def test_discriminative_token_raises_posterior(self):
        model = train(
            [_doc(1, {"t"}), _doc(2, {"t"})],
            [_doc(3, {"u"}), _doc(4, {"u"})],
        )
        assert posteriors([{"t"}], model, HP11)[0][0] > 0.5

    def test_matches_exact_rational_oracle(self, six_doc_model):
        model, positives, negatives = six_doc_model
        pos_sets = [d.tokens for d in positives]
        neg_sets = [d.tokens for d in negatives]
        cases = [
            {"grid", "search", "memo", "peak", "recipe"},
            {"grid"},
            {"oven", "recipe"},
            {"warrant", "climb", "2.0"},
            set(),
        ]
        lambdas = [(1, 1), (Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 100), 200),
                   (22, 4), (200, Fraction(1, 10))]
        for lam_neg, lam_pos in lambdas:
            got = posteriors(cases, model, Hyperparameters(float(lam_neg), float(lam_pos)))
            for case, (p_pos, _) in zip(cases, got):
                expected = exact_posterior(case, pos_sets, neg_sets, lam_neg, lam_pos)
                assert math.isclose(p_pos, float(expected), abs_tol=1e-12), (case, lam_neg, lam_pos)

    def test_posterior_normalized(self, six_doc_model):
        model, _, _ = six_doc_model
        [(p_pos, log_odds)] = posteriors([{"grid", "recipe"}], model, HP11)
        assert abs(p_pos - 1.0 / (1.0 + math.exp(-log_odds))) < 1e-12

    def test_log_odds_sign_matches_probability(self, six_doc_model):
        model, _, _ = six_doc_model
        cases = [{"grid"}, {"recipe"}, {"oven"}, {"grid", "recipe", "search"}]
        for p_pos, log_odds in posteriors(cases, model, HP11):
            if abs(log_odds) > 1e-12:
                assert (p_pos > 0.5) == (log_odds > 0)

    @given(
        extra=st.sets(st.text(alphabet="xyz!", min_size=1, max_size=6), max_size=5),
        lam=st.sampled_from([0.01, 0.5, 1.0, 7.0, 200.0]),
    )
    # the shared model is immutable, so reusing it across examples is safe
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_feature_set_blindness(self, six_doc_model, extra, lam):
        model, _, _ = six_doc_model
        hp = Hyperparameters(lam, 1.0)
        base = {"grid", "search"}
        outside = {t for t in extra if t not in model.features}
        with_outside, without = posteriors([base | outside, base], model, hp)
        assert with_outside == without

    def test_smoothing_keeps_probabilities_interior(self, six_doc_model):
        model, _, _ = six_doc_model
        for lam in (0.01, 1.0, 200.0):
            hp = Hyperparameters(lam, lam)
            [(p_pos, _)] = posteriors([{"grid", "recipe", "oven"}], model, hp)
            assert 0.0 < p_pos < 1.0


def _cell(lam_neg, lam_pos):
    return Cell(DEFAULT_GRID.index(float(lam_neg)), DEFAULT_GRID.index(float(lam_pos)))


class TestLooScore:
    """Held-out folds through ``LooEvaluator.log_odds``."""

    def test_coin_toss_anchor(self):
        # one "head" (positive) and one "tail" (negative), no tokens; holding
        # out the tail leaves p(tail) = (1+1-1)/(1+1+2-1) = 1/3
        model = train([_doc(1, set())], [_doc(2, set())])
        log_odds = loo_evaluator(model).log_odds(_cell(1, 1))
        assert math.isclose(1.0 - _p_pos(log_odds[1]), 1 / 3, abs_tol=1e-12)

    def test_holding_out_only_carrier_zeroes_count(self):
        # t occurs only in the held-out positive; its effective count drops
        # to zero so the positive conditional falls to lambda/(lambda+n_pos-1)
        model = train(
            [_doc(1, {"t", "c"}), _doc(2, {"c"}), _doc(3, {"c"})],
            [_doc(4, {"c"})],
        )
        expected = retrained_loo_posterior(0, [{"t", "c"}, {"c"}, {"c"}], [{"c"}], 1, 1)
        got = _p_pos(loo_evaluator(model).log_odds(_cell(1, 1))[0])
        assert math.isclose(got, float(expected), abs_tol=1e-12)

    def test_out_of_range_fold_rejected(self, six_doc_model):
        # the evaluator scores exactly the model's folds; the scalar
        # reference refuses any other index
        model, positives, negatives = six_doc_model
        assert loo_evaluator(model).log_odds(_cell(1, 1)).shape == (6,)
        oracle = dict_model(positives, negatives)
        with pytest.raises(IndexError):
            loo_score(6, oracle, HP11)
        with pytest.raises(IndexError):
            loo_score(-1, oracle, HP11)

    def test_model_unchanged(self, six_doc_model):
        model, _, _ = six_doc_model
        arrays = ("pos_count", "neg_count", "fold_offsets", "fold_features")
        before = [getattr(model, name).copy() for name in arrays]
        loo_evaluator(model).log_odds(_cell(1, 1))
        for name, old in zip(arrays, before):
            assert np.array_equal(getattr(model, name), old), name

    @pytest.mark.parametrize("seed,n_pos,n_neg", [(0, 3, 3), (1, 10, 8), (2, 25, 25), (3, 14, 0)])
    def test_equals_retraining_from_scratch(self, seed, n_pos, n_neg):
        rng = np.random.default_rng(seed)
        positives, negatives = random_training_docs(rng, n_pos, n_neg)
        evaluator = loo_evaluator(train(positives, negatives))
        pos_sets = [d.tokens for d in positives]
        neg_sets = [d.tokens for d in negatives]
        for lam_neg, lam_pos in [(1, 1), (Fraction(1, 2), Fraction(1, 2)), (37, 2), (Fraction(1, 100), 150)]:
            log_odds = evaluator.log_odds(_cell(lam_neg, lam_pos))
            assert len(log_odds) == n_pos + n_neg
            for fold, value in enumerate(log_odds.tolist()):
                expected = retrained_loo_posterior(fold, pos_sets, neg_sets, lam_neg, lam_pos)
                assert math.isclose(_p_pos(value), float(expected), abs_tol=1e-9), (fold, lam_neg, lam_pos)


def _ranked(cases, model, hp):
    corpus = from_documents(Document(i, "", frozenset(c)) for i, c in enumerate(cases))
    return rank_corpus(corpus, model, hp)


class TestClassify:
    """The p > 1/2 rule behind ``RankedPredictions.positives_predicted``."""

    def test_exact_tie_is_negative(self):
        # balanced counts, uniform priors, empty intersection: p_pos is 1/2
        ranked = _ranked([set()], _bare_model(5, 5), HP11)
        assert ranked.p_pos[0] == 0.5
        assert ranked.positives_predicted == 0

    def test_just_above_half_is_positive(self):
        model = train(
            [_doc(1, {"t"}), _doc(2, {"t"})],
            [_doc(3, {"t"}), _doc(4, {"u"})],
        )
        ranked = _ranked([{"t"}], model, HP11)
        assert ranked.p_pos[0] > 0.5
        assert ranked.positives_predicted == 1

    def test_labels_equal_sign_of_log_odds(self, six_doc_model):
        model, positives, negatives = six_doc_model
        ranked = _ranked([doc.tokens for doc in positives + negatives], model, HP11)
        assert np.array_equal(ranked.p_pos > 0.5, ranked.log_odds > 0)
        assert ranked.positives_predicted == np.count_nonzero(ranked.log_odds > 0)


class TestPositivePosteriors:
    """The vector posterior of the log odds against the scalar one of both log scores."""

    @staticmethod
    def assert_matches_oracle(log_pos, log_neg):
        log_pos, log_neg = np.asarray(log_pos, dtype=np.float64), np.asarray(log_neg, dtype=np.float64)
        got = positive_posteriors(log_pos - log_neg).tolist()
        want = list(map(positive_posterior, log_pos.tolist(), log_neg.tolist()))
        assert got == want
        assert repr(got) == repr(want)

    def test_equal_log_scores_give_one_half(self):
        scores = [0.0, -1e-300, -0.5, -3.25, -745.5, -1e5]
        self.assert_matches_oracle(scores, scores)
        assert positive_posteriors(np.zeros(3)).tolist() == [0.5, 0.5, 0.5]

    def test_underflowing_exp(self):
        # beyond |log odds| ~745.13 exp(-|log odds|) is 0.0: p_pos is exactly 0 or 1
        log_pos = [-1.0, -1000.0, -3.0, -2000.5, -746.0, -0.0]
        log_neg = [-1000.0, -1.0, -2000.5, -3.0, -0.0, -746.0]
        self.assert_matches_oracle(log_pos, log_neg)
        assert positive_posteriors(np.array([999.0, -999.0])).tolist() == [1.0, 0.0]

    def test_subnormal_results(self):
        gaps = np.array([708.5, 720.0, 730.25, 740.0, 744.0, 745.0])
        self.assert_matches_oracle(-10.0 - gaps, np.full(gaps.size, -10.0))
        p_pos = positive_posteriors(-gaps)
        assert np.all((p_pos > 0) & (p_pos < np.finfo(np.float64).tiny))

    def test_random_pairs(self):
        rng = np.random.default_rng(2021)
        log_pos = -rng.exponential(400.0, 10_000)
        gaps = rng.normal(0.0, 1.0, 10_000) * 10.0 ** rng.uniform(-12, 3, 10_000)
        self.assert_matches_oracle(log_pos, log_pos + gaps)


class TestMonotonicity:
    CASES = [
        {"grid", "search", "memo"},
        {"grid", "recipe"},
        {"search", "warrant", "peak"},
        {"oven", "recipe"},
        set(),
    ]

    def test_p_pos_nonincreasing_in_lambda_neg(self, six_doc_model):
        model, _, _ = six_doc_model
        sweep = [posteriors(self.CASES, model, Hyperparameters(lam, 1.0)) for lam in DEFAULT_GRID]
        for a, b in zip(sweep, sweep[1:]):
            for (p_a, _), (p_b, _) in zip(a, b):
                assert p_b <= p_a + 1e-12

    def test_p_pos_nondecreasing_in_lambda_pos(self, six_doc_model):
        model, _, _ = six_doc_model
        sweep = [posteriors(self.CASES, model, Hyperparameters(1.0, lam)) for lam in DEFAULT_GRID]
        for a, b in zip(sweep, sweep[1:]):
            for (p_a, _), (p_b, _) in zip(a, b):
                assert p_b >= p_a - 1e-12

    def test_positive_set_shrinks_with_lambda_neg(self, six_doc_model):
        model, positives, negatives = six_doc_model
        cases = [d.tokens for d in positives + negatives]
        counts = [
            _ranked(cases, model, Hyperparameters(lam, 1.0)).positives_predicted
            for lam in DEFAULT_GRID
        ]
        for a, b in zip(counts, counts[1:]):
            assert b <= a


class TestManifest:
    def test_sorted_and_complete(self, six_doc_model):
        model, _, _ = six_doc_model
        text = model_manifest(model)
        lines = text.splitlines()
        assert lines[0] == "n_pos\t3"
        assert lines[1] == "n_neg\t3"
        tokens = [line.split("\t")[0] for line in lines[2:]]
        assert tokens == sorted(model.features) == list(model.features)
        row = dict(zip(tokens, [line.split("\t")[1:] for line in lines[2:]]))
        assert row["grid"] == ["3", "1"]
        assert row["peak"] == ["1", "0"]
