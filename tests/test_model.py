import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import random_training_docs
from oracles import exact_posterior, retrained_loo_posterior, tally_counts
from priorlearn.corpus import Document
from priorlearn.model import (
    CountModel,
    Hyperparameters,
    build_counts,
    class_prior,
    classify,
    cond_prob,
    loo_score,
    model_manifest,
    score,
)
from priorlearn.search import DEFAULT_GRID

HP11 = Hyperparameters(1, 1)


def _doc(i, tokens):
    return Document(i, f"d{i}", frozenset(tokens))


def _bare_model(n_pos, n_neg, pos_count=None, neg_count=None, features=None):
    """Directly-constructed model for arithmetic checks on the formulas."""
    return CountModel(
        n_pos=n_pos,
        n_neg=n_neg,
        features=frozenset(features or (pos_count or {}).keys() | set()),
        pos_count=pos_count or {},
        neg_count=neg_count or {},
        doc_labels=(),
        doc_tokens=(),
    )


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
        model = build_counts(
            [_doc(1, {"a", "b"}), _doc(2, {"b", "c"})],
            [_doc(3, {"b", "d"})],
        )
        assert model.features == {"a", "b", "c"}
        assert model.pos_count == {"a": 1, "b": 2, "c": 1}
        assert model.neg_count == {"b": 1}  # d never counted
        assert (model.n_pos, model.n_neg, model.total) == (2, 1, 3)

    def test_empty_negatives_allowed(self):
        model = build_counts([_doc(1, {"a"})], [])
        assert model.n_neg == 0
        assert 0 < score({"a"}, model, HP11).p_pos < 1

    def test_empty_positives_rejected(self):
        with pytest.raises(ValueError, match="positives"):
            build_counts([], [_doc(1, {"a"})])

    def test_shared_ids_rejected(self):
        with pytest.raises(ValueError, match="both sides"):
            build_counts([_doc(1, {"a"})], [_doc(1, {"b"})])

    def test_counts_match_brute_force_tally(self, six_doc_model):
        model, positives, negatives = six_doc_model
        features, pos_count, neg_count = tally_counts(positives, negatives)
        assert model.features == features
        assert model.pos_count == {t: c for t, c in pos_count.items() if c}
        assert model.neg_count == neg_count

    def test_count_bounds_invariant(self, six_doc_model):
        model, _, _ = six_doc_model
        for t in model.features:
            assert 1 <= model.pos_count.get(t, 0) <= model.n_pos
            assert 0 <= model.neg_count.get(t, 0) <= model.n_neg
        assert set(model.neg_count) <= model.features


class TestCondProb:
    def test_smoothed_ratio(self):
        model = _bare_model(9, 0, pos_count={"t": 3}, features={"t"})
        assert cond_prob("t", True, model, HP11) == 0.4  # (1+3)/(1+9)

    def test_large_negative_floor(self):
        model = _bare_model(0, 50, features={"t"})
        hp = Hyperparameters(lambda_neg=200, lambda_pos=1)
        assert cond_prob("t", False, model, hp) == 0.8  # 200/250

    def test_exactly_one_when_token_in_every_doc(self):
        model = _bare_model(5, 0, pos_count={"t": 5}, features={"t"})
        assert cond_prob("t", True, model, HP11) == 1.0

    def test_unknown_token_rejected(self):
        model = _bare_model(1, 1, pos_count={"t": 1}, features={"t"})
        with pytest.raises(ValueError, match="feature"):
            cond_prob("u", True, model, HP11)

    def test_always_in_unit_interval(self, six_doc_model):
        model, _, _ = six_doc_model
        for lam in DEFAULT_GRID.values:
            hp = Hyperparameters(lam, lam)
            for t in sorted(model.features):
                for positive in (True, False):
                    assert 0.0 < cond_prob(t, positive, model, hp) <= 1.0


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
        post = score({"zzz", "not-a-feature"}, model, HP11)
        expected = class_prior(True, model, HP11) / (
            class_prior(True, model, HP11) + class_prior(False, model, HP11)
        )
        assert math.isclose(post.p_pos, expected, abs_tol=1e-12)
        assert post.log_odds == pytest.approx(0.0, abs=1e-12)

    def test_discriminative_token_raises_posterior(self):
        model = build_counts(
            [_doc(1, {"t"}), _doc(2, {"t"})],
            [_doc(3, {"u"}), _doc(4, {"u"})],
        )
        assert score({"t"}, model, HP11).p_pos > 0.5

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
        for case in cases:
            for lam_neg, lam_pos in lambdas:
                expected = exact_posterior(case, pos_sets, neg_sets, lam_neg, lam_pos)
                got = score(case, model, Hyperparameters(float(lam_neg), float(lam_pos)))
                assert math.isclose(got.p_pos, float(expected), abs_tol=1e-12), (case, lam_neg, lam_pos)

    def test_posterior_normalized(self, six_doc_model):
        model, _, _ = six_doc_model
        post = score({"grid", "recipe"}, model, HP11)
        assert abs(post.p_pos + post.p_neg - 1.0) < 1e-12

    def test_log_odds_sign_matches_probability(self, six_doc_model):
        model, _, _ = six_doc_model
        for case in ({"grid"}, {"recipe"}, {"oven"}, {"grid", "recipe", "search"}):
            post = score(case, model, HP11)
            if abs(post.log_odds) > 1e-12:
                assert (post.p_pos > 0.5) == (post.log_odds > 0)

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
        assert score(base | outside, model, hp) == score(base, model, hp)

    def test_smoothing_keeps_probabilities_interior(self, six_doc_model):
        model, _, _ = six_doc_model
        for lam in (0.01, 1.0, 200.0):
            hp = Hyperparameters(lam, lam)
            post = score({"grid", "recipe", "oven"}, model, hp)
            assert 0.0 < post.p_pos < 1.0


class TestLooScore:
    def test_coin_toss_anchor(self):
        # one "head" (positive) and one "tail" (negative), no tokens; holding
        # out the tail leaves p(tail) = (1+1-1)/(1+1+2-1) = 1/3
        model = build_counts([_doc(1, set())], [_doc(2, set())])
        post = loo_score(1, model, HP11)
        assert math.isclose(post.p_neg, 1 / 3, abs_tol=1e-12)

    def test_holding_out_only_carrier_zeroes_count(self):
        # t occurs only in the held-out positive; its effective count drops
        # to zero so the positive conditional falls to lambda/(lambda+n_pos-1)
        model = build_counts(
            [_doc(1, {"t", "c"}), _doc(2, {"c"}), _doc(3, {"c"})],
            [_doc(4, {"c"})],
        )
        expected = retrained_loo_posterior(0, [{"t", "c"}, {"c"}, {"c"}], [{"c"}], 1, 1)
        got = loo_score(0, model, HP11)
        assert math.isclose(got.p_pos, float(expected), abs_tol=1e-12)

    def test_out_of_range_fold_rejected(self, six_doc_model):
        model, _, _ = six_doc_model
        with pytest.raises(IndexError):
            loo_score(6, model, HP11)
        with pytest.raises(IndexError):
            loo_score(-1, model, HP11)

    def test_model_unchanged(self, six_doc_model):
        model, _, _ = six_doc_model
        before = dict(model.pos_count), dict(model.neg_count)
        loo_score(0, model, HP11)
        assert (model.pos_count, model.neg_count) == before

    @pytest.mark.parametrize("seed,n_pos,n_neg", [(0, 3, 3), (1, 10, 8), (2, 25, 25), (3, 14, 0)])
    def test_equals_retraining_from_scratch(self, seed, n_pos, n_neg):
        rng = np.random.default_rng(seed)
        positives, negatives = random_training_docs(rng, n_pos, n_neg)
        model = build_counts(positives, negatives)
        pos_sets = [d.tokens for d in positives]
        neg_sets = [d.tokens for d in negatives]
        for lam_neg, lam_pos in [(1, 1), (Fraction(1, 2), Fraction(1, 2)), (37, 2), (Fraction(1, 100), 150)]:
            hp = Hyperparameters(float(lam_neg), float(lam_pos))
            for fold in range(model.n_folds):
                expected = retrained_loo_posterior(fold, pos_sets, neg_sets, lam_neg, lam_pos)
                got = loo_score(fold, model, hp)
                assert math.isclose(got.p_pos, float(expected), abs_tol=1e-9), (fold, lam_neg, lam_pos)


class TestClassify:
    def test_exact_tie_is_negative(self):
        # balanced counts, uniform priors, empty intersection: p_pos is 1/2
        model = _bare_model(5, 5)
        assert score(set(), model, HP11).p_pos == 0.5
        assert classify(set(), model, HP11) is False

    def test_just_above_half_is_positive(self):
        model = build_counts(
            [_doc(1, {"t"}), _doc(2, {"t"})],
            [_doc(3, {"t"}), _doc(4, {"u"})],
        )
        post = score({"t"}, model, HP11)
        assert post.p_pos > 0.5
        assert classify({"t"}, model, HP11) is True

    def test_labels_equal_sign_of_log_odds(self, six_doc_model):
        model, positives, negatives = six_doc_model
        for doc in positives + negatives:
            post = score(doc.tokens, model, HP11)
            assert classify(doc.tokens, model, HP11) == (post.log_odds > 0)


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
        for case in self.CASES:
            values = [
                score(case, model, Hyperparameters(lam, 1.0)).p_pos for lam in DEFAULT_GRID.values
            ]
            for a, b in zip(values, values[1:]):
                assert b <= a + 1e-12

    def test_p_pos_nondecreasing_in_lambda_pos(self, six_doc_model):
        model, _, _ = six_doc_model
        for case in self.CASES:
            values = [
                score(case, model, Hyperparameters(1.0, lam)).p_pos for lam in DEFAULT_GRID.values
            ]
            for a, b in zip(values, values[1:]):
                assert b >= a - 1e-12

    def test_positive_set_shrinks_with_lambda_neg(self, six_doc_model):
        model, positives, negatives = six_doc_model
        cases = [d.tokens for d in positives + negatives]
        counts = []
        for lam in DEFAULT_GRID.values:
            hp = Hyperparameters(lam, 1.0)
            counts.append(sum(score(c, model, hp).p_pos > 0.5 for c in cases))
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
        assert tokens == sorted(model.features)
        row = dict(zip(tokens, [line.split("\t")[1:] for line in lines[2:]]))
        assert row["grid"] == ["3", "1"]
        assert row["peak"] == ["1", "0"]
