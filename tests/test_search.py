import weakref

import numpy as np
import pytest

from conftest import random_training_docs, train
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    article_rows_corpus,
    brute_force_argmax,
    cell_per_neighbor_radial_search,
    class_halves,
    dict_model,
    document,
    evaluate_priors,
    fold_split_cost,
    from_documents,
    is_local_max,
    loo_evaluator,
    loo_score,
    loop_cross_seed_mean_scores,
    peak_bytes,
    per_cell_log_odds,
    surface_evaluator,
    twice_the_tokens_fold_groups,
    two_bump_surface,
    unimodal_surface,
)
import priorlearn.experiment as experiment
from priorlearn.corpus import CategoryIndex, Document
from priorlearn.experiment import ExperimentSpec, learn_priors, make_training_set, training_model
from priorlearn.model import CountModel, Hyperparameters, build_counts
from priorlearn.search import (
    DEFAULT_GRID,
    Cell,
    CellScore,
    ClassHalves,
    LooEvaluator,
    aggregate_over_seeds,
    cross_seed_mean_scores,
    default_starts,
    memo_to_csv,
    moves_to_log,
    multi_start_search,
    radial_gradient_search,
)
from priorlearn.search import _TABLE_CELLS, _fold_groups
from priorlearn.synthetic import CATEGORY, make_synthetic_corpus


def _doc(i, tokens):
    return Document(i, f"d{i}", frozenset(tokens))


class CountingEvaluator:
    def __init__(self, fn):
        self.fn = fn
        self.cells = []  # each cell asked for, in order

    @property
    def calls(self):
        return len(self.cells)

    def __call__(self, cell):
        self.cells.append(cell)
        return self.fn(cell)


class TestGrid:
    def test_exact_sequence(self):
        expected = (0.01, 0.1, 0.5) + tuple(float(v) for v in range(1, 201))
        assert type(DEFAULT_GRID) is tuple and DEFAULT_GRID == expected
        assert len(DEFAULT_GRID) == 203
        assert all(type(v) is float for v in DEFAULT_GRID)  # memo_to_csv writes each repr: 1.0, not 1

    def test_strictly_increasing(self):
        assert all(a < b for a, b in zip(DEFAULT_GRID, DEFAULT_GRID[1:]))

    def test_index_mapping(self):
        assert DEFAULT_GRID[0] == 0.01
        assert DEFAULT_GRID[1] == 0.1
        assert DEFAULT_GRID[2] == 0.5
        assert DEFAULT_GRID[3] == 1.0
        for v in (1, 2, 57, 200):
            assert DEFAULT_GRID[v + 2] == float(v)

    def test_baseline_and_jeffreys_cells(self):
        assert DEFAULT_GRID.index(0.5) == 2  # Jeffreys
        assert DEFAULT_GRID.index(1.0) == 3  # Bayes-Laplace, the baseline
        assert Cell(DEFAULT_GRID.index(1.0), DEFAULT_GRID.index(1.0)) == Cell(3, 3)

    def test_unknown_value_rejected(self):
        for value in (1.5, 0.0, 201.0, 0.05):
            with pytest.raises(ValueError):
                DEFAULT_GRID.index(value)


class TestDefaultStarts:
    def test_nine_cells_mapped_from_lambdas(self):  # in order: lambda_neg is the outer loop
        assert default_starts() == (
            Cell(3, 3), Cell(3, 10), Cell(3, 17),
            Cell(10, 3), Cell(10, 10), Cell(10, 17),
            Cell(17, 3), Cell(17, 10), Cell(17, 17),
        )


class TestEvaluatePriors:
    def test_two_fold_hand_trace(self):
        # one positive {a}, one negative {a, b}; at (1,1) the held-out
        # positive scores log(1/3) vs log(2/3) -> miss, and the held-out
        # negative scores log(2/3) vs log(1/3) -> false alarm
        positives, negatives = [_doc(1, {"a"})], [_doc(2, {"a", "b"})]
        assert evaluate_priors(Cell(3, 3), dict_model(positives, negatives)) == CellScore(0.0, 0.0)
        assert loo_evaluator(train(positives, negatives))(Cell(3, 3)) == CellScore(0.0, 0.0)

    def test_twinned_training_set_is_loo_separable(self):
        positives = [
            _doc(1, {"p1", "p2", "c"}), _doc(2, {"p1", "p2", "c"}),
            _doc(3, {"p1", "p3", "c", "q1", "q2"}), _doc(4, {"p1", "p3", "c", "q1", "q2"}),
        ]
        negatives = [_doc(10 + i, {"c", "q1", "q2"}) for i in range(4)]
        assert evaluate_priors(Cell(3, 3), dict_model(positives, negatives)) == CellScore(1.0, 1.0)
        assert loo_evaluator(train(positives, negatives))(Cell(3, 3)) == CellScore(1.0, 1.0)

    def test_vectorized_evaluator_matches_reference(self):
        rng = np.random.default_rng(3)
        positives, negatives = random_training_docs(rng, 20, 16)
        model = dict_model(positives, negatives)
        fast = loo_evaluator(train(positives, negatives))
        cells = [Cell(0, 0), Cell(2, 2), Cell(3, 3), Cell(0, 202), Cell(202, 0),
                 Cell(202, 202), Cell(10, 17), Cell(45, 120)]
        for cell in cells:
            assert fast(cell) == evaluate_priors(cell, model), cell

    def test_vectorized_log_odds_match_per_fold_scores(self):
        rng = np.random.default_rng(4)
        positives, negatives = random_training_docs(rng, 12, 12)
        model = dict_model(positives, negatives)
        fast = loo_evaluator(train(positives, negatives))
        for cell in (Cell(3, 3), Cell(0, 202), Cell(150, 2)):
            hp = Hyperparameters(DEFAULT_GRID[cell.x], DEFAULT_GRID[cell.y])
            odds = fast.log_odds(cell)
            for fold in range(model.n_folds):
                assert odds[fold] == pytest.approx(loo_score(fold, model, hp).log_odds, abs=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_log_odds_bit_identical_to_per_cell_oracle(self, acceptance, seed):
        corpus = acceptance.corpus
        training = make_training_set(corpus, acceptance.categories, CATEGORY, seed)
        model = training_model(corpus, training)
        oracle = dict_model(
            [document(corpus, i) for i in training.positive_ids], [document(corpus, i) for i in training.negative_ids]
        )
        last = len(DEFAULT_GRID) - 1
        cells = [*default_starts(), Cell(0, 0), Cell(0, last), Cell(last, 0), Cell(last, last)]
        rng = np.random.default_rng(seed)
        cells += [Cell(int(x), int(y)) for x, y in rng.integers(0, len(DEFAULT_GRID), size=(20, 2))]
        warm = loo_evaluator(model)
        for cell in cells:
            warm.log_odds(cell)  # every half of every cell now cached
        for cell in cells:
            expected = per_cell_log_odds(oracle, cell)
            assert np.array_equal(loo_evaluator(model).log_odds(cell), expected), ("cold", cell)
            assert np.array_equal(warm.log_odds(cell), expected), ("warm", cell)

    def test_log_odds_bit_identical_to_per_cell_oracle_on_random_corpora(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n_pos, n_neg = int(rng.integers(1, 30)), int(rng.integers(0, 30))
            positives, negatives = random_training_docs(rng, n_pos, n_neg, vocab_size=int(rng.integers(16, 60)))
            evaluator, oracle = loo_evaluator(train(positives, negatives)), dict_model(positives, negatives)
            for x, y in rng.integers(0, len(DEFAULT_GRID), size=(5, 2)).tolist():
                assert np.array_equal(evaluator.log_odds(Cell(x, y)), per_cell_log_odds(oracle, Cell(x, y)))

    def test_evaluator_keeps_no_reference_to_its_model(self):
        rng = np.random.default_rng(5)
        positives, negatives = random_training_docs(rng, 8, 8)
        model = train(positives, negatives)
        expected = evaluate_priors(Cell(3, 3), dict_model(positives, negatives))
        evaluator = loo_evaluator(model)
        model_ref = weakref.ref(model)
        del model
        assert model_ref() is None
        assert evaluator(Cell(3, 3)) == expected


@pytest.fixture(scope="module")
def wide():
    """A 1,000-member category over a 4,000-document pool: the search-wide benchmark's corpus."""
    return make_synthetic_corpus(seed=0, n_members=1000, pool_size=4000)


def _assert_every_half_matches_oracle(model, oracle):
    """Cells (i, i) and (i, 202 - i) for every i: each half of both classes, paired two ways."""
    evaluator, last = loo_evaluator(model), len(DEFAULT_GRID) - 1
    for i in range(len(DEFAULT_GRID)):
        for cell in (Cell(i, i), Cell(i, last - i)):
            assert np.array_equal(evaluator.log_odds(cell), per_cell_log_odds(oracle, cell)), cell


class TestWholeGridBitIdentity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_wide_category_training_sets(self, wide, seed):
        corpus = wide.corpus
        training = make_training_set(corpus, wide.categories, CATEGORY, seed)
        oracle = dict_model(
            [document(corpus, i) for i in training.positive_ids], [document(corpus, i) for i in training.negative_ids]
        )
        _assert_every_half_matches_oracle(training_model(corpus, training), oracle)

    def test_negative_fold_sharing_no_token_with_the_positives(self):
        positives = [_doc(1, {"a", "b", "c"}), _doc(2, {"b", "c", "d"})]
        negatives = [_doc(3, {"x", "y"}), _doc(4, {"a", "z"})]
        model = train(positives, negatives)
        assert np.diff(model.fold_offsets).tolist() == [3, 3, 0, 1]
        _assert_every_half_matches_oracle(model, dict_model(positives, negatives))

    def test_model_without_negatives(self):
        positives, _ = random_training_docs(np.random.default_rng(7), 12, 0)
        _assert_every_half_matches_oracle(train(positives, []), dict_model(positives, []))

    def test_one_fold_model(self):
        # more tokens than numpy's 8-wide pairwise block: a lone column must still be summed in order
        positives = [_doc(1, {f"t{i:02d}" for i in range(40)})]
        _assert_every_half_matches_oracle(train(positives, []), dict_model(positives, []))

    def test_heavy_tailed_fold_lengths(self):
        # a few long documents among many short ones, as in a real dump: the split
        # must cost no more than the fixed twice-the-tokens rule it replaced
        rng = np.random.default_rng(11)
        vocab = [f"t{i:03d}" for i in range(600)]

        def doc(i):
            n_tok = min(len(vocab), int(4 * (1 + rng.pareto(0.8))))
            return _doc(i, (vocab[j] for j in rng.choice(len(vocab), n_tok, replace=False)))

        positives, negatives = [doc(i) for i in range(40)], [doc(100 + i) for i in range(40)]
        model = train(positives, negatives)
        lengths = np.sort(np.diff(model.fold_offsets))[::-1]
        assert model.n_folds * lengths[0] > 8 * lengths.sum()  # one table: 8x the tokens
        ends = _fold_groups(lengths)
        assert [t.shape[1] - 1 for t in class_halves(model, True)._tables] == np.diff(ends, prepend=0).tolist()
        old = twice_the_tokens_fold_groups(lengths)
        assert fold_split_cost(lengths, ends, _TABLE_CELLS) <= fold_split_cost(lengths, old, _TABLE_CELLS)
        _assert_every_half_matches_oracle(model, dict_model(positives, negatives))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 30), min_size=1, max_size=11))
def test_fold_groups_are_the_least_cost_contiguous_split(values):
    # lengths up to 3,000 so a table's cells can outweigh its fixed cost; repeats make runs
    lengths = np.array(sorted(values, reverse=True)) * 100
    ends = _fold_groups(lengths)
    assert ends[-1] == len(lengths) and all(a < b for a, b in zip([0, *ends], ends))
    splits = [
        [*(i + 1 for i in range(len(lengths) - 1) if cut >> i & 1), len(lengths)]
        for cut in range(2 ** (len(lengths) - 1))
    ]
    costs = [fold_split_cost(lengths, split, _TABLE_CELLS) for split in splits]
    assert fold_split_cost(lengths, ends, _TABLE_CELLS) == min(costs)
    if costs.count(min(costs)) == 1:
        assert ends == splits[costs.index(min(costs))]


def _recorded_evaluators(monkeypatch):
    """The evaluators ``learn_priors`` builds from now on, in seed order."""
    built = []

    class Recording(LooEvaluator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(experiment, "LooEvaluator", Recording)
    return built


def _positive_half(evaluator, index):
    return np.concatenate(evaluator._halves(Cell(0, index))[0])  # its positives' folds, then its negatives'


def _negative_half(evaluator, index):
    return np.concatenate(evaluator._halves(Cell(index, 0))[1])


def _assert_same_class(got, want):
    """Two ``ClassHalves`` over the same folds: the same count tables, sizes and fold lengths."""
    assert got._top == want._top and np.array_equal(got._order, want._order)
    assert np.array_equal(got._size.view(np.int64), want._size.view(np.int64))
    assert np.array_equal(got._n_tokens.view(np.int64), want._n_tokens.view(np.int64))
    assert len(got._tables) == len(want._tables)
    for a, b in zip(got._tables, want._tables):
        assert a.dtype == b.dtype == np.uint16 and np.array_equal(a, b)


class TestTableTypes:
    @pytest.mark.parametrize(("n_neg", "top", "dtype"), [(0, 2**16 - 1, np.uint16), (1, 2**16, np.uint32)])
    def test_tables_widen_exactly_where_the_pad_outgrows_uint16(self, n_neg, top, dtype):
        # every fold is the one feature: a positive counts it n_pos - 1 times, a negative n_pos times
        n_pos = 2**16 - 1
        n_folds = n_pos + n_neg
        model = CountModel(
            n_pos=n_pos, n_neg=n_neg, features=("a",), pos_count=np.array([n_pos]), neg_count=np.array([n_neg]),
            fold_offsets=np.arange(n_folds + 1), fold_features=np.zeros(n_folds, dtype=np.int32),
        )
        positive = class_halves(model, True)
        assert positive._top == top and {table.dtype for table in positive._tables} == {np.dtype(dtype)}
        oracle = dict_model([_doc(i, {"a"}) for i in range(n_pos)], [_doc(n_pos + i, {"a"}) for i in range(n_neg)])
        evaluator = LooEvaluator(model, np.arange(n_pos, n_folds), positive)
        for i in (*range(0, len(DEFAULT_GRID), 25), len(DEFAULT_GRID) - 1):  # both classes' halves at each
            assert np.array_equal(evaluator.log_odds(Cell(i, i)), per_cell_log_odds(oracle, Cell(i, i))), i


class TestClassHalvesColumns:
    def test_equals_the_class_of_build_counts_over_the_chosen_folds(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            positives, negatives = random_training_docs(rng, int(rng.integers(1, 12)), int(rng.integers(0, 30)))
            corpus = from_documents([*positives, *negatives])
            model = build_counts(corpus, [d.id for d in positives], [d.id for d in negatives])
            # any subset of the negatives, in any order, none at all included
            chosen = rng.permutation(len(negatives))[: int(rng.integers(0, len(negatives) + 1))]
            columns = np.append(np.arange(model.n_pos), model.n_pos + chosen)
            alone = build_counts(corpus, [d.id for d in positives], [negatives[i].id for i in chosen.tolist()])
            for positive in (True, False):
                _assert_same_class(ClassHalves(model, positive, columns), class_halves(alone, positive))
            evaluator = LooEvaluator(model, model.n_pos + chosen, class_halves(model, True))
            oracle = dict_model(positives, [negatives[i] for i in chosen.tolist()])
            for cell in (Cell(0, 202), Cell(3, 3), Cell(120, 40)):
                assert np.array_equal(evaluator.log_odds(cell), per_cell_log_odds(oracle, cell)), cell


class TestSharedPositiveClass:
    def test_log_table_entries_do_not_depend_on_its_length(self):
        # the shared positive class can count one past a seed's own top; their common entries must match
        for lam in DEFAULT_GRID:
            full = np.log(lam + np.arange(4100)).view(np.int64)
            for top in (*range(1, 258), 1000, 2047, 4099):
                assert np.array_equal(np.log(lam + np.arange(top)).view(np.int64), full[:top]), (lam, top)

    def test_search_wide_positive_halves_equal_standalone_evaluators(self, wide, monkeypatch):
        spec = ExperimentSpec(corpus=wide.corpus, categories=wide.categories, category=CATEGORY, seeds=tuple(range(20)))
        evaluators = _recorded_evaluators(monkeypatch)
        learn_priors(spec)
        assert len(evaluators) == 20
        for seed, shared in zip(spec.seeds, evaluators):
            training = make_training_set(wide.corpus, wide.categories, CATEGORY, seed)
            alone = loo_evaluator(training_model(wide.corpus, training))
            for index in range(len(DEFAULT_GRID)):
                expected = _positive_half(alone, index).view(np.int64)
                assert np.array_equal(_positive_half(shared, index).view(np.int64), expected), (seed, index)

    def test_a_seed_without_the_commonest_positive_feature(self, monkeypatch):
        # every positive holds "a"; a negative holding it counts 2 (top 3), a positive fold only 1
        docs = [
            _doc(1, {"a", "b"}), _doc(2, {"a", "c"}),
            _doc(3, {"a", "x"}), _doc(4, {"x"}), _doc(5, {"b", "y"}), _doc(6, {"c", "z"}),
        ]
        corpus, categories = from_documents(docs), CategoryIndex.from_mapping({"C": [1, 2]})
        negatives = {seed: make_training_set(corpus, categories, "C", seed).negative_ids for seed in range(20)}
        lacking = next(seed for seed, ids in negatives.items() if 3 not in ids)
        holding = next(seed for seed, ids in negatives.items() if 3 in ids)
        evaluators = _recorded_evaluators(monkeypatch)
        learn_priors(ExperimentSpec(corpus=corpus, categories=categories, category="C", seeds=(lacking, holding)))
        training = make_training_set(corpus, categories, "C", lacking)
        own, evaluator = class_halves(training_model(corpus, training), True), evaluators[0]
        assert (own._top, evaluator._positive._top) == (2, 3)
        oracle = dict_model([document(corpus, i) for i in training.positive_ids], [document(corpus, i) for i in training.negative_ids])
        last = len(DEFAULT_GRID) - 1
        for i in range(len(DEFAULT_GRID)):
            for cell in (Cell(i, i), Cell(i, last - i)):
                assert np.array_equal(evaluator.log_odds(cell), per_cell_log_odds(oracle, cell)), cell

    def test_search_wide_negative_halves_equal_standalone_evaluators(self, wide, monkeypatch):
        spec = ExperimentSpec(corpus=wide.corpus, categories=wide.categories, category=CATEGORY, seeds=tuple(range(20)))
        evaluators = _recorded_evaluators(monkeypatch)
        learn_priors(spec)
        assert len(evaluators) == 20
        for seed in spec.seeds:
            shared = evaluators.pop(0)  # each seed's halves are freed once checked
            training = make_training_set(wide.corpus, wide.categories, CATEGORY, seed)
            alone = class_halves(training_model(wide.corpus, training), False)
            for index in range(len(DEFAULT_GRID)):
                expected = alone(index).view(np.int64)
                assert np.array_equal(_negative_half(shared, index).view(np.int64), expected), (seed, index)

    def test_search_wide_fold_rows_and_counts_equal_build_counts(self, wide, monkeypatch):
        spec = ExperimentSpec(corpus=wide.corpus, categories=wide.categories, category=CATEGORY, seeds=tuple(range(20)))
        evaluators = _recorded_evaluators(monkeypatch)
        learn_priors(spec)
        assert len(evaluators) == 20
        for seed, shared in zip(spec.seeds, evaluators):
            training = make_training_set(wide.corpus, wide.categories, CATEGORY, seed)
            _assert_same_class(shared._negative, class_halves(training_model(wide.corpus, training), False))
            assert shared._n_pos == len(training.positive_ids)

    def test_a_feature_only_one_seed_draws_among_its_negatives(self, monkeypatch):
        # 3 is the one non-member holding "b", a positive feature; no other seed's negatives count it
        docs = [
            _doc(1, {"a", "b"}), _doc(2, {"a", "c"}),
            _doc(3, {"b", "x"}), _doc(4, {"a", "x"}), _doc(5, {"c", "y"}), _doc(6, {"z"}), _doc(7, {"a", "c"}),
        ]
        corpus, categories = from_documents(docs), CategoryIndex.from_mapping({"C": [1, 2]})
        negatives = {seed: make_training_set(corpus, categories, "C", seed).negative_ids for seed in range(40)}
        holding = next(seed for seed, ids in negatives.items() if 3 in ids)
        seeds = (*[seed for seed, ids in negatives.items() if 3 not in ids][:3], holding)
        evaluators = _recorded_evaluators(monkeypatch)
        learn_priors(ExperimentSpec(corpus=corpus, categories=categories, category="C", seeds=seeds))
        last = len(DEFAULT_GRID) - 1
        for seed, evaluator in zip(seeds, evaluators):
            training = make_training_set(corpus, categories, "C", seed)
            alone = class_halves(training_model(corpus, training), False)
            oracle = dict_model([document(corpus, i) for i in training.positive_ids], [document(corpus, i) for i in training.negative_ids])
            for index in range(len(DEFAULT_GRID)):
                expected = alone(index).view(np.int64)
                assert np.array_equal(_negative_half(evaluator, index).view(np.int64), expected), (seed, index)
                for cell in (Cell(index, index), Cell(index, last - index)):
                    assert np.array_equal(evaluator.log_odds(cell), per_cell_log_odds(oracle, cell)), (seed, cell)

    def test_each_positive_half_is_computed_once_per_grid_index(self, monkeypatch):
        syn = make_synthetic_corpus(seed=0, vocab_size=200, n_members=20, pool_size=400)
        spec = ExperimentSpec(corpus=syn.corpus, categories=syn.categories, category=CATEGORY, seeds=(0, 1, 2, 3))
        computed, call = [], ClassHalves.__call__

        def counting(self, index):
            if index not in self._halves:
                computed.append((self, index))
            return call(self, index)

        monkeypatch.setattr(ClassHalves, "__call__", counting)
        evaluators = _recorded_evaluators(monkeypatch)
        result = learn_priors(spec)
        shared = evaluators[0]._positive
        assert all(evaluator._positive is shared for evaluator in evaluators)
        per_seed = [{cell.y for cell in memo} for memo in result.memos]
        assert sorted(index for halves, index in computed if halves is shared) == sorted(set().union(*per_seed))
        assert sum(map(len, per_seed)) > len(set().union(*per_seed))  # seeds do share grid indexes


def test_learn_priors_at_article_lengths_holds_each_fold_number_once():
    # 3,000 documents of median ~275 distinct tokens (1.37M slots), 5 seeds. Under numpy 2.4 the
    # search peaked at 51.6 MB with int64 fold columns, one index per gathered slot, int32 tables
    # and each seed's copy of the positive halves; it peaks at 27.6 MB without them
    corpus, categories = article_rows_corpus(3000)
    spec = ExperimentSpec(corpus=corpus, categories=categories, category="Members", seeds=tuple(range(5)))
    assert peak_bytes(learn_priors, spec) < 36_000_000


class TestRadialGradientSearch:
    def test_unimodal_surface_from_stated_example(self):
        size = 203
        xs = np.arange(size)[:, None]
        ys = np.arange(size)[None, :]
        ppv = 1.0 / (1.0 + (xs - 50) ** 2 + (ys - 70) ** 2)
        sens = np.zeros_like(ppv)
        assert brute_force_argmax(ppv, sens) == Cell(50, 70)
        evaluate = surface_evaluator(ppv, sens)
        rng = np.random.default_rng(0)
        starts = [Cell(int(rng.integers(0, size)), int(rng.integers(0, size))) for _ in range(25)]
        starts += [Cell(0, 0), Cell(202, 202), Cell(50, 70), *default_starts()]
        for start in starts:
            assert radial_gradient_search(start, evaluate, {}, []).best == Cell(50, 70), start

    def test_constant_surface_single_sweep(self):
        evaluator = CountingEvaluator(lambda cell: CellScore(0.5, 0.5))
        memo = {}
        outcome = radial_gradient_search(Cell(100, 100), evaluator, memo, [])
        assert outcome.best == Cell(100, 100)
        assert len(memo) == 25
        assert evaluator.calls == 25

    def test_constant_surface_at_corner(self):
        evaluator = CountingEvaluator(lambda cell: CellScore(0.5, 0.5))
        memo = {}
        radial_gradient_search(Cell(0, 0), evaluator, memo, [])
        assert len(memo) == evaluator.calls == 9  # 3x3 in-bounds corner window

    def test_sensitivity_breaks_ppv_plateau(self):
        def evaluate(cell):
            sens = 1.0 / (1.0 + (cell.x - 52) ** 2 + (cell.y - 71) ** 2)
            return CellScore(0.5, sens)

        outcome = radial_gradient_search(Cell(50, 70), evaluate, {}, [])
        assert outcome.best == Cell(52, 71)

    def test_equal_score_never_moves(self):
        moves = []
        evaluator = lambda cell: CellScore(0.25, 0.75)  # noqa: E731
        outcome = radial_gradient_search(Cell(5, 5), evaluator, {}, moves)
        assert outcome.best == Cell(5, 5)
        assert moves == []

    def test_out_of_bounds_start_rejected(self):
        with pytest.raises(ValueError):
            radial_gradient_search(Cell(203, 0), lambda c: CellScore(0, 0), {}, [])
        with pytest.raises(ValueError):
            radial_gradient_search(Cell(0, -1), lambda c: CellScore(0, 0), {}, [])

    def test_memoized_cells_not_reevaluated_but_still_compared(self):
        ppv, sens = unimodal_surface(np.random.default_rng(8))
        peak = brute_force_argmax(ppv, sens)
        memo = {}
        evaluator = CountingEvaluator(surface_evaluator(ppv, sens))
        first = radial_gradient_search(Cell(0, 0), evaluator, memo, [])
        assert first.best == peak
        # a second search from the peak finds the whole 5x5 around it memoized
        calls_before = evaluator.calls
        second = radial_gradient_search(first.best, evaluator, memo, [])
        assert second.best == peak
        assert evaluator.calls == calls_before

    def test_returned_best_is_certified_local_max(self):
        for seed in range(5):
            ppv, sens = two_bump_surface(np.random.default_rng(seed))
            memo = {}
            outcome = radial_gradient_search(Cell(101, 101), surface_evaluator(ppv, sens), memo, [])
            assert is_local_max(outcome.best, ppv, sens)
            # certificate: every in-bounds 5x5 neighbor is memoized and no better
            for dx in range(-2, 3):
                for dy in range(-2, 3):
                    x, y = outcome.best.x + dx, outcome.best.y + dy
                    if 0 <= x < 203 and 0 <= y < 203:
                        assert memo[Cell(x, y)] <= outcome.best_score

    def test_search_log_records_moves(self):
        ppv, sens = unimodal_surface(np.random.default_rng(2))
        moves = []
        outcome = radial_gradient_search(Cell(10, 10), surface_evaluator(ppv, sens), {}, moves)
        assert moves, "expected at least one accepted move"
        assert moves[-1].to_cell == outcome.best
        for record in moves:
            assert record.to_score > record.from_score
        lines = moves_to_log(7, moves).splitlines(keepends=True)
        assert len(lines) == len(moves)
        assert all(line.startswith("seed=7 ") and line.endswith("\n") for line in lines)
        assert moves_to_log(7, []) == ""


def _assert_same_searches(starts, evaluate):
    """Both loops from each start in turn, over one memo per loop: the same calls, memo, moves and outcomes."""
    runs = []
    for search in (radial_gradient_search, cell_per_neighbor_radial_search):
        evaluator, memo, moves = CountingEvaluator(evaluate), {}, []
        outcomes = [search(start, evaluator, memo=memo, move_log=moves) for start in starts]
        runs.append((evaluator.cells, list(memo.items()), moves, outcomes))
        assert all(type(cell) is Cell for cell in evaluator.cells)
        assert all(type(cell) is Cell for cell in memo)
        assert all(type(m.from_cell) is type(m.to_cell) is Cell for m in moves)
        assert all(type(outcome.best) is Cell for outcome in outcomes)
    assert runs[0] == runs[1]


class TestSearchLoopOracle:
    def test_random_terrains(self):
        rng = np.random.default_rng(5)
        for _ in range(12):
            ppv, _ = two_bump_surface(rng)
            # rounded so plateaus and sensitivity ties occur
            ppv, sens = np.round(ppv, 2), np.round(rng.random(ppv.shape), 1)
            starts = [Cell(int(x), int(y)) for x, y in rng.integers(0, 203, (6, 2))]
            _assert_same_searches([*starts, Cell(0, 0), Cell(202, 202), *default_starts()], surface_evaluator(ppv, sens))

    @pytest.mark.parametrize("seed", range(5))
    def test_search_wide_seeds(self, wide, seed):
        training = make_training_set(wide.corpus, wide.categories, CATEGORY, seed)
        _assert_same_searches(default_starts(), loo_evaluator(training_model(wide.corpus, training)))


class TestMemoTable:
    def test_deterministic_reevaluation(self):
        ppv, sens = unimodal_surface(np.random.default_rng(13))
        evaluate = surface_evaluator(ppv, sens)
        memo_a, memo_b = {}, {}
        a = radial_gradient_search(Cell(40, 40), evaluate, memo_a, [])
        b = radial_gradient_search(Cell(40, 40), evaluate, memo_b, [])
        assert a == b
        assert list(memo_a.items()) == list(memo_b.items())

    def test_csv_dump(self):
        memo = {Cell(3, 3): CellScore(0.5, 0.25), Cell(0, 202): CellScore(0.125, 1.0)}
        text = memo_to_csv(memo)
        assert text.splitlines() == [
            "lambda_neg,lambda_pos,ppv,sensitivity",
            "0.01,200.0,0.125,1.0",
            "1.0,1.0,0.5,0.25",
        ]


class TestMultiStart:
    def test_all_starts_agree_on_unimodal_surface(self):
        ppv, sens = unimodal_surface(np.random.default_rng(21))
        peak = brute_force_argmax(ppv, sens)
        shared = CountingEvaluator(surface_evaluator(ppv, sens))
        memo = {}
        outcome = multi_start_search(default_starts(), shared, memo, [])
        assert outcome.best == peak
        assert shared.calls == len(memo)

        independent_calls = 0
        for start in default_starts():
            solo = CountingEvaluator(surface_evaluator(ppv, sens))
            assert radial_gradient_search(start, solo, {}, []).best == peak
            independent_calls += solo.calls
        assert shared.calls < independent_calls

    def test_shared_memo_changes_no_outcome(self):
        ppv, sens = unimodal_surface(np.random.default_rng(22))
        evaluate = surface_evaluator(ppv, sens)
        shared = multi_start_search(default_starts(), evaluate, {}, [])
        solo_bests = {radial_gradient_search(s, evaluate, {}, []).best for s in default_starts()}
        assert shared.best in solo_bests

    def test_two_basins_higher_peak_wins_when_reached(self):
        ppv, sens = two_bump_surface(np.random.default_rng(30))
        peak = brute_force_argmax(ppv, sens)
        evaluate = surface_evaluator(ppv, sens)
        outcome = multi_start_search(default_starts(), evaluate, {}, [])
        assert is_local_max(outcome.best, ppv, sens)
        reached = {radial_gradient_search(s, evaluate, {}, []).best for s in default_starts()}
        if peak in reached:
            assert outcome.best == peak

    def test_equal_peaks_go_to_the_smaller_cell_in_either_start_order(self):
        peaks = (Cell(60, 60), Cell(20, 20))

        def evaluate(cell):  # two peaks of one score, each climbing to it from its own side
            return CellScore(1.0 - min(max(abs(cell.x - p.x), abs(cell.y - p.y)) for p in peaks) / 1000, 0.5)

        starts = (Cell(58, 61), Cell(21, 22))
        assert [radial_gradient_search(s, evaluate, {}, []).best for s in starts] == list(peaks)
        for order in (starts, starts[::-1]):
            assert multi_start_search(order, evaluate, {}, []) == (Cell(20, 20), CellScore(1.0, 0.5))

    def test_empty_starts_rejected(self):
        with pytest.raises(ValueError):
            multi_start_search([], lambda c: CellScore(0, 0), {}, [])

    def test_baseline_cell_always_explored_and_dominated(self):
        rng = np.random.default_rng(17)
        positives, negatives = random_training_docs(rng, 12, 12)
        evaluator = loo_evaluator(train(positives, negatives))
        memo = {}
        outcome = multi_start_search(default_starts(), evaluator, memo, [])
        assert Cell(3, 3) in memo  # a start, hence always evaluated
        assert outcome.best_score >= memo[Cell(3, 3)]
        assert outcome.best_score == memo[outcome.best]


class TestAggregateOverSeeds:
    def test_single_seed_returns_its_best(self):
        ppv, sens = unimodal_surface(np.random.default_rng(41))
        evaluate = surface_evaluator(ppv, sens)
        memo = {}
        outcome = multi_start_search(default_starts(), evaluate, memo, [])
        cell, means = aggregate_over_seeds([memo], [evaluate])
        assert cell == outcome.best
        assert means == memo

    def test_disjoint_memos_backfilled(self):
        def eval_a(cell):
            return CellScore(0.1 + cell.x / 1000.0, 0.0)

        def eval_b(cell):
            return CellScore(0.2 + cell.y / 1000.0, 0.0)

        memo_a = {Cell(1, 1): eval_a(Cell(1, 1))}
        memo_b = {Cell(7, 9): eval_b(Cell(7, 9))}
        means = cross_seed_mean_scores([memo_a, memo_b], [eval_a, eval_b])
        assert set(means) == {Cell(1, 1), Cell(7, 9)}
        # both tables now hold both cells
        assert Cell(7, 9) in memo_a and Cell(1, 1) in memo_b
        expected = (eval_a(Cell(7, 9)).ppv + eval_b(Cell(7, 9)).ppv) / 2
        assert means[Cell(7, 9)].ppv == expected

    def test_unequal_memo_and_evaluator_counts_rejected(self):
        def evaluate(cell):
            return CellScore(0.5, 0.5)

        memos = [{Cell(1, 1): evaluate(Cell(1, 1))}, {}]
        with pytest.raises(ValueError, match="2 memos but 1 evaluators"):
            cross_seed_mean_scores(memos, [evaluate])
        assert memos[1] == {}  # nothing back-filled

    def test_seed_noise_averages_out(self):
        size = 203
        xs = np.arange(size)[:, None]
        ys = np.arange(size)[None, :]
        offsets = [(-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)]
        surfaces = []
        for dx, dy in offsets:
            cx, cy = 60 + dx, 80 + dy
            surfaces.append(1.0 / (1.0 + 0.3 * ((xs - cx) ** 2 + (ys - cy) ** 2)))
        mean_surface = sum(surfaces) / len(surfaces)
        noiseless_argmax = brute_force_argmax(mean_surface, np.zeros_like(mean_surface))

        memos, evaluators = [], []
        per_seed_bests = set()
        for surface in surfaces:
            evaluate = surface_evaluator(surface, np.zeros_like(surface))
            memo = {}
            outcome = multi_start_search(default_starts(), evaluate, memo, [])
            per_seed_bests.add(outcome.best)
            memos.append(memo)
            evaluators.append(evaluate)
        assert len(per_seed_bests) > 1  # the noise really moves the per-seed argmax
        cell, _ = aggregate_over_seeds(memos, evaluators)
        assert cell == noiseless_argmax

    def test_empty_memo_list_rejected(self):
        with pytest.raises(ValueError):
            aggregate_over_seeds([], [])

    @pytest.mark.parametrize("n_seeds, n_cells", [(25, 1), (1, 40), (5, 300), (20, 450)])
    def test_means_equal_a_loop_over_seeds_bit_for_bit(self, n_seeds, n_cells):
        rng = np.random.default_rng(n_seeds * 1000 + n_cells)
        cells = sorted({Cell(*map(int, xy)) for xy in rng.integers(0, 203, (n_cells, 2))})

        def evaluator(seed):
            # ratios of small counts, as LOO scores are, and a few that are not
            def evaluate(cell):
                r = np.random.default_rng([seed, cell.x, cell.y])
                tp, fp, fn = r.integers(0, 1000, 3).tolist()
                return CellScore(tp / (tp + fp) if tp + fp else 0.0, r.random() if cell.x % 7 == 0 else tp / (tp + fn or 1))
            return evaluate

        evaluators = [evaluator(seed) for seed in range(n_seeds)]
        # every seed explores part of the cells, in its own order; the first one none of them
        memos = []
        for seed, evaluate in enumerate(evaluators):
            explored = [] if seed == 0 and n_seeds > 1 else rng.permutation(len(cells))[: int(rng.integers(1, len(cells) + 1))]
            memos.append({cells[i]: evaluate(cells[i]) for i in explored})
        copies = [dict(memo) for memo in memos]
        means = cross_seed_mean_scores(memos, evaluators)
        expected = loop_cross_seed_mean_scores(copies, evaluators)
        assert list(means) == list(expected)
        assert n_cells > 1 or list(means) == cells  # a one-cell union
        got, want = np.array(list(means.values())), np.array(list(expected.values()))
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert all(type(value) is float for score in means.values() for value in score)
        assert [list(memo.items()) for memo in memos] == [list(memo.items()) for memo in copies]

    def test_tie_breaks_toward_sensitivity_then_cell(self):
        def evaluate_a(cell):
            return CellScore(0.5, 0.9 if cell == Cell(4, 4) else 0.1)

        memo = {cell: evaluate_a(cell) for cell in (Cell(2, 2), Cell(4, 4), Cell(6, 6))}
        cell, means = aggregate_over_seeds([memo], [evaluate_a])
        assert cell == Cell(4, 4)
        assert means[cell].ppv == 0.5

        def evaluate_b(cell):
            return CellScore(0.5, 0.1)

        memo_b = {cell: evaluate_b(cell) for cell in (Cell(6, 6), Cell(2, 2))}
        cell, _ = aggregate_over_seeds([memo_b], [evaluate_b])
        assert cell == Cell(2, 2)  # full tie: ascending coordinates
