import numpy as np
import pytest

from oracles import mean_bootstrap_ci, one_draw_bootstrap_ci, welch_p_value
from priorlearn import stats
from priorlearn.experiment import (
    ExperimentSpec,
    learn_priors,
    make_training_set,
    rank_corpus,
    training_model,
)
from priorlearn.model import BAYES_LAPLACE
from priorlearn.stats import bootstrap_ci, outcome_vector, report_to_csv, significance_test
from priorlearn.synthetic import CATEGORY


def _bits(ones: int, total: int) -> np.ndarray:
    return np.array([1] * ones + [0] * (total - ones), dtype=np.int8)


class TestOutcomeVector:
    def test_mean_equals_ppv_at_k(self):
        ranked = [5, 9, 2, 7, 4]
        truth = {9, 4, 100}
        v = outcome_vector(ranked, truth, 5)
        assert list(v) == [0, 1, 0, 0, 1]
        assert v.mean() == 0.4

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            outcome_vector([1], {1}, 2)


class TestBootstrapCi:
    def test_all_ones_degenerates_to_unit_interval_point(self):
        ci = bootstrap_ci(_bits(250, 250), B=500, seed=1)
        assert (ci.lo, ci.hi) == (1.0, 1.0)

    def test_deterministic_given_seed(self):
        v = _bits(60, 250)
        a = bootstrap_ci(v, B=2000, seed=7)
        b = bootstrap_ci(v, B=2000, seed=7)
        assert (a.lo, a.hi) == (b.lo, b.hi)
        # the seed genuinely matters, even if nearby seeds can coincide
        others = {(bootstrap_ci(v, B=2000, seed=s).lo, bootstrap_ci(v, B=2000, seed=s).hi) for s in range(20)}
        assert len(others) > 1

    def test_width_at_half_matches_normal_approximation(self):
        # 2 * 1.96 * sqrt(0.25/250) is about 0.124
        ci = bootstrap_ci(_bits(125, 250), B=10_000, alpha=0.05, seed=0)
        assert 0.10 <= ci.hi - ci.lo <= 0.15

    def test_anchor_width_at_288(self):
        # 2 * 1.96 * sqrt(0.288*0.712/250) is about 0.112
        ci = bootstrap_ci(_bits(72, 250), B=10_000, alpha=0.05, seed=0)
        assert ci.lo <= 0.288 <= ci.hi
        assert 0.09 <= ci.hi - ci.lo <= 0.14

    def test_brackets_observed_mean_on_random_vectors(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            k = int(rng.integers(50, 400))
            p = float(rng.uniform(0.2, 0.8))
            v = (rng.random(k) < p).astype(np.int8)
            ci = bootstrap_ci(v, B=1000, seed=int(rng.integers(0, 2**31)))
            assert ci.lo <= v.mean() <= ci.hi

    def test_width_scales_as_inverse_sqrt_k(self):
        w250 = bootstrap_ci(_bits(75, 250), B=6000, seed=3)
        w1000 = bootstrap_ci(_bits(300, 1000), B=6000, seed=3)
        ratio = (w250.hi - w250.lo) / (w1000.hi - w1000.lo)
        assert abs(ratio - 2.0) / 2.0 < 0.15

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            bootstrap_ci(_bits(1, 2), B=0)
        with pytest.raises(ValueError):
            bootstrap_ci(_bits(1, 2), alpha=1.5)
        with pytest.raises(ValueError):
            bootstrap_ci([])
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            bootstrap_ci(_bits(1, 2), seed=-1)

    @pytest.mark.parametrize("bad", [[0, 1, 2], [0.5, 1.0], [-1, 0], [1, float("nan")]])
    def test_rejects_values_other_than_zero_and_one(self, bad):
        with pytest.raises(ValueError, match="only 0s and 1s"):
            bootstrap_ci(bad, B=10)

    def test_accepts_bool_int_and_float_bits(self):
        bits = _bits(3, 8)
        expected = bootstrap_ci(bits, B=200, seed=4)
        for v in (bits.astype(bool), bits.astype(np.float64), bits.tolist()):
            assert bootstrap_ci(v, B=200, seed=4) == expected

    def test_equals_mean_formula_on_random_bit_vectors(self):
        rng = np.random.default_rng(2021)
        for _ in range(100):
            n = int(rng.integers(1, 600))
            v = (rng.random(n) < rng.random()).astype(np.int8)
            B = int(rng.integers(1, 3000))
            alpha = float(rng.uniform(0.001, 0.5))
            seed = int(rng.integers(0, 2**31))
            assert bootstrap_ci(v, B=B, alpha=alpha, seed=seed) == mean_bootstrap_ci(v, B, alpha, seed)

    @pytest.mark.parametrize("n", [1, 2, 250, stats._BLOCK + 1])
    def test_block_draws_equal_one_draw(self, n):
        # a block is rows resamples; the last n is above the block budget, so a block is one row
        rows = max(1, stats._BLOCK // n)
        many = 10_000 if n <= 250 else 20  # one draw of 10,000 rows of 65,537 indices is 5 GB
        v = (np.random.default_rng(n).random(n) < 0.3).astype(np.int8)
        for B in sorted({1, rows - 1, rows, rows + 1, many} - {0}):
            for seed in range(5):
                assert bootstrap_ci(v, B=B, seed=seed) == one_draw_bootstrap_ci(v, B=B, seed=seed), (B, seed)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_equals_mean_formula_on_acceptance_outcome_vectors(self, acceptance_outcomes, seed):
        for v in acceptance_outcomes[seed]:
            assert bootstrap_ci(v, seed=0) == mean_bootstrap_ci(v, seed=0)


class TestSignificanceTest:
    def test_identical_vectors_p_one(self):
        v = _bits(70, 250)
        assert significance_test(v, v) == 1.0

    def test_degenerate_equal_means(self):
        assert significance_test(_bits(250, 250), _bits(250, 250)) == 1.0

    def test_maximal_separation(self):
        p = significance_test(_bits(250, 250), _bits(0, 250))
        assert p < 1e-10

    def test_table_anchor_is_significant(self):
        # means 0.068 vs 0.288 at k=250
        p = significance_test(_bits(17, 250), _bits(72, 250))
        assert p < 0.001

    def test_symmetric(self):
        a, b = _bits(20, 250), _bits(60, 250)
        assert significance_test(a, b) == significance_test(b, a)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        a, b = _bits(20, 250), _bits(60, 250)
        assert significance_test(rng.permutation(a), rng.permutation(b)) == significance_test(a, b)

    def test_small_difference_not_significant(self):
        p = significance_test(_bits(70, 250), _bits(72, 250))
        assert p > 0.5

    def test_short_vectors_rejected(self):
        with pytest.raises(ValueError):
            significance_test([1], [0, 1])


@pytest.fixture(scope="module")
def acceptance_outcomes(acceptance):
    """Baseline and study outcome vectors at k=250 of the acceptance run, per seed."""
    spec = ExperimentSpec(
        corpus=acceptance.corpus, categories=acceptance.categories, category=CATEGORY
    )
    learned = learn_priors(spec).hyperparameters
    outcomes = {}
    for seed in spec.seeds:
        training = make_training_set(spec.corpus, spec.categories, CATEGORY, seed)
        model = training_model(spec.corpus, training)
        exclude = frozenset(training.positive_ids)
        outcomes[seed] = tuple(
            outcome_vector(
                rank_corpus(spec.corpus, model, hp, exclude).doc_ids(), acceptance.truth, 250
            )
            for hp in (BAYES_LAPLACE, learned)
        )
    return outcomes


class TestSignificanceTestMatchesScipy:
    """The p-value equals ``scipy.stats.ttest_ind(equal_var=False)`` bit for bit."""

    def test_random_bit_vectors(self):
        rng = np.random.default_rng(2021)
        for _ in range(600):
            n_a, n_b = (int(n) for n in rng.integers(2, 2001, size=2))
            p_a, p_b = rng.random(2)
            a = (rng.random(n_a) < p_a).astype(np.int8)
            b = (rng.random(n_b) < p_b).astype(np.int8)
            if a.var() == 0.0 and b.var() == 0.0:
                continue
            assert significance_test(a, b) == welch_p_value(a, b), (n_a, n_b)

    @pytest.mark.parametrize("bit", [0, 1])
    def test_one_sided_zero_variance(self, bit):
        rng = np.random.default_rng(bit)
        for n in (2, 3, 17, 250, 2000):
            constant = np.full(n, bit, dtype=np.int8)
            for ones in (1, n // 2, n - 1):
                other = rng.permutation(_bits(ones, n))
                assert significance_test(constant, other) == welch_p_value(constant, other)
                assert significance_test(other, constant) == welch_p_value(other, constant)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_acceptance_outcome_vectors(self, acceptance_outcomes, seed):
        baseline, study = acceptance_outcomes[seed]
        assert significance_test(baseline, study) == welch_p_value(baseline, study)


class TestReportCsv:
    def test_shape_and_values(self):
        ci = bootstrap_ci(_bits(72, 250), B=200, seed=0)
        text = report_to_csv(
            [("baseline", 250, 0.068, ci), ("study", 250, 0.288, ci)], p_value=0.0003
        )
        lines = text.splitlines()
        assert lines[0] == "model,k,ppv,ci_lo,ci_hi,p_value"
        assert lines[1].startswith("baseline,250,0.068,")
        assert lines[2].startswith("study,250,0.288,")
        assert lines[1].endswith("0.0003")
