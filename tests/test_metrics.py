import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import loop_outcome_vector, loop_ppv_at_k, loop_ppv_profile
from priorlearn import stats
from priorlearn.metrics import (
    outcome_vector,
    ppv_at_k,
    ppv_of,
    ppv_profile,
    profile_to_csv,
    sensitivity_of,
)


class TestPpv:
    def test_top250_anchor(self):
        assert ppv_of(tp=72, fp=178) == 0.288

    def test_empty_prediction_set_is_zero(self):
        assert ppv_of(tp=0, fp=0) == 0.0

    def test_perfect_list(self):
        assert ppv_of(tp=250, fp=0) == 1.0

    def test_scale_free(self):
        assert ppv_of(tp=3, fp=7) == ppv_of(tp=6, fp=14)
        assert sensitivity_of(tp=3, fn=2) == sensitivity_of(tp=6, fn=4)


class TestSensitivity:
    def test_half(self):
        assert sensitivity_of(tp=5, fn=5) == 0.5

    def test_zero_hits(self):
        assert sensitivity_of(tp=0, fn=10) == 0.0

    def test_no_positive_cases(self):
        assert sensitivity_of(tp=0, fn=0) == 0.0


class TestPpvAtK:
    def test_all_hits(self):
        assert ppv_at_k([1, 2, 3], {1, 2, 3, 9}, 3) == 1.0

    def test_72_hits_at_250(self):
        ranked = list(range(250))
        truth = set(range(72))  # first 72 ranks hit
        assert ppv_at_k(ranked, truth, 250) == 0.288

    def test_matches_brute_count(self):
        rng = np.random.default_rng(5)
        ranked = list(rng.permutation(400))
        truth = set(int(x) for x in rng.choice(400, size=60, replace=False))
        for k in (1, 7, 100, 400):
            brute = len(set(ranked[:k]) & truth) / k
            assert ppv_at_k(ranked, truth, k) == brute

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            ppv_at_k([1, 2], {1}, 3)
        with pytest.raises(ValueError):
            ppv_at_k([1, 2], {1}, 0)


class TestPpvProfile:
    def test_all_truth_constant_one(self):
        profile = ppv_profile([4, 5, 6], {4, 5, 6}, 3)
        assert [p for _, _, p in profile] == [1.0, 1.0, 1.0]

    def test_no_truth_constant_zero(self):
        profile = ppv_profile([4, 5, 6], set(), 3)
        assert [p for _, _, p in profile] == [0.0, 0.0, 0.0]

    def test_alternating_hits(self):
        profile = ppv_profile([1, 2, 3, 4], {1, 3}, 4)
        assert [p for _, _, p in profile] == [1.0, 0.5, 2 / 3, 0.5]

    def test_hit_count_is_integer_scaled_ppv(self):
        rng = np.random.default_rng(11)
        ranked = list(rng.permutation(200))
        truth = set(int(x) for x in rng.choice(200, size=37, replace=False))
        profile = ppv_profile(ranked, truth, 200)
        for k, hits, value in profile:
            assert hits == round(value * k)
            assert 0.0 <= value <= 1.0

    @given(bits=st.lists(st.booleans(), min_size=1, max_size=80))
    @settings(max_examples=100, deadline=None)
    def test_adjacent_ranks_change_by_at_most_inverse_k(self, bits):
        ranked = list(range(len(bits)))
        truth = {i for i, hit in enumerate(bits) if hit}
        profile = ppv_profile(ranked, truth, len(bits))
        values = [p for _, _, p in profile]
        for k, (a, b) in enumerate(zip(values, values[1:]), start=2):
            assert abs(b - a) <= 1.0 / k + 1e-12

    def test_csv_export(self):
        profile = ppv_profile([1, 2, 3, 4], {1, 3}, 4)
        text = profile_to_csv(profile)
        lines = text.splitlines()
        assert lines[0] == "rank,hits,ppv"
        assert lines[1] == "1,1,1.0"
        assert lines[2] == "2,1,0.5"
        assert len(lines) == 5


def _random_rankings():
    """Random rankings of 1 to 400 ids, each with a random, a full and an empty truth set."""
    rng = np.random.default_rng(21)
    for size in (1, 2, 37, 250, 400):
        ranked = [int(x) for x in rng.permutation(3 * size)[:size]]
        picked = {int(x) for x in rng.choice(3 * size, size=size, replace=False)}
        yield pytest.param(ranked, picked, id=f"random-truth-{size}")
        yield pytest.param(ranked, set(ranked), id=f"all-hits-{size}")
        yield pytest.param(ranked, set(), id=f"empty-truth-{size}")


class TestOneTopKCount:
    """Every top-k count equals the per-rank loops of ``oracles``, bit for bit."""

    @pytest.mark.parametrize("ranked, truth", list(_random_rankings()))
    def test_equals_per_rank_loops(self, ranked, truth):
        rng = np.random.default_rng(len(ranked) + len(truth))
        for k in sorted({1, len(ranked), int(rng.integers(1, len(ranked) + 1))}):
            expected = loop_ppv_at_k(ranked, truth, k)
            value = ppv_at_k(ranked, truth, k)
            assert type(value) is float and value.hex() == expected.hex()
            profile, reference = ppv_profile(ranked, truth, k), loop_ppv_profile(ranked, truth, k)
            assert [tuple(map(type, entry)) for entry in profile] == [(int, int, float)] * k
            assert [(r, h, v.hex()) for r, h, v in profile] == [(r, h, v.hex()) for r, h, v in reference]
            assert profile[-1][2].hex() == expected.hex()
            bits = loop_outcome_vector(ranked, truth, k)
            for vector in (outcome_vector(ranked, truth, k), stats.outcome_vector(ranked, truth, k)):
                assert vector.dtype == bits.dtype == np.int8
                assert vector.tobytes() == bits.tobytes()

    @pytest.mark.parametrize("ranked, truth", list(_random_rankings()))
    def test_an_id_column_counts_as_its_list(self, ranked, truth):
        column = np.array(ranked, dtype=np.int64)
        for k in sorted({1, len(ranked) // 2 or 1, len(ranked)}):
            assert ppv_at_k(column, truth, k).hex() == ppv_at_k(ranked, truth, k).hex()
            assert repr(ppv_profile(column, truth, k)) == repr(ppv_profile(ranked, truth, k))
            assert outcome_vector(column, truth, k).tobytes() == outcome_vector(ranked, truth, k).tobytes()
        for k in (0, len(ranked) + 1):
            with pytest.raises(ValueError, match=rf"^k={k} out of range 1\.\.{len(ranked)}$"):
                outcome_vector(column, truth, k)

    def test_stats_reexports_the_metrics_count(self):
        assert stats.outcome_vector is outcome_vector

    @pytest.mark.parametrize(
        "count",
        [ppv_at_k, ppv_profile, outcome_vector, pytest.param(stats.outcome_vector, id="stats.outcome_vector")],
    )
    @pytest.mark.parametrize("k", [0, -1, 4])
    def test_k_out_of_range_raises(self, count, k):
        with pytest.raises(ValueError):
            count([1, 2, 3], {1}, k)
