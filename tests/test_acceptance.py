"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion. The heavyweight end-to-end workload (criteria 6 and 10)
uses the default synthetic corpus: 2,000-token vocabulary, 200 category
members, a 20,000-document evaluation pool seeded with 1% hidden
positives, and negative-sample seeds 0 through 4.
"""

import functools
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import posteriors, random_training_docs, train
from oracles import (
    brute_force_argmax,
    category_items,
    document,
    exact_posterior,
    is_local_max,
    loo_evaluator,
    retrained_loo_posterior,
    surface_evaluator,
    two_bump_surface,
    unimodal_surface,
)
from priorlearn.corpus import Document, ingest_wiki_dump
from priorlearn.experiment import (
    ExperimentSpec,
    export_review_list,
    learn_priors,
    make_training_set,
    predictions_to_csv,
    rank_corpus,
    training_model,
)
from priorlearn.metrics import ppv_at_k
from priorlearn.model import (
    BAYES_LAPLACE,
    CountModel,
    Hyperparameters,
    class_prior,
    cond_probs,
    positive_posteriors,
)
from priorlearn.search import (
    DEFAULT_GRID,
    Cell,
    default_starts,
    memo_to_csv,
    multi_start_search,
    radial_gradient_search,
)
from priorlearn.stats import bootstrap_ci, significance_test
from priorlearn.synthetic import CATEGORY, make_synthetic_corpus

DATA = Path(__file__).parent / "data"


def criterion(number, description, budget_seconds=None):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:2d} FAIL  {description}")
                raise
            elapsed = time.perf_counter() - start
            print(f"criterion {number:2d} PASS  {description} [{elapsed:.2f}s]")
            if budget_seconds is not None:
                assert elapsed < budget_seconds, f"criterion {number} exceeded {budget_seconds}s"
        return wrapper

    return decorate


def _doc(i, tokens):
    return Document(i, f"d{i}", frozenset(tokens))


@criterion(1, "formula fidelity vs exact rational oracle at 1e-12", budget_seconds=1.0)
def test_criterion_1_formula_fidelity():
    positives = [
        _doc(1, {"grid", "search", "memo"}),
        _doc(2, {"grid", "climb"}),
        _doc(3, {"grid", "search", "peak", "cell"}),
        _doc(4, {"sweep", "grid"}),
    ]
    negatives = [
        _doc(5, {"grid", "recipe"}),
        _doc(6, {"oven", "recipe", "pan"}),
        _doc(7, {"search", "warrant"}),
        _doc(8, {"stir", "pan"}),
        _doc(9, {"cell", "block"}),
    ]
    model = train(positives, negatives)
    pos_sets = [d.tokens for d in positives]
    neg_sets = [d.tokens for d in negatives]

    # smoothed conditionals and priors against their defining ratios
    lambdas = [(1, 1), (Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 100), 200), (22, 4)]
    for lam_neg, lam_pos in lambdas:
        hp = Hyperparameters(float(lam_neg), float(lam_pos))
        tables = zip(
            model.features, model.pos_count.tolist(), model.neg_count.tolist(),
            cond_probs(True, model, hp).tolist(), cond_probs(False, model, hp).tolist(),
        )
        for t, n_t_pos, n_t_neg, p_t_pos, p_t_neg in tables:
            assert n_t_pos == sum(t in d for d in pos_sets) and n_t_neg == sum(t in d for d in neg_sets)
            expected = (lam_pos + Fraction(n_t_pos)) / (lam_pos + model.n_pos)
            assert abs(p_t_pos - float(expected)) < 1e-12
            expected = (lam_neg + Fraction(n_t_neg)) / (lam_neg + model.n_neg)
            assert abs(p_t_neg - float(expected)) < 1e-12
        expected = (lam_pos + model.n_pos) / (lam_pos + lam_neg + model.n_pos + model.n_neg)
        assert abs(class_prior(True, model, hp) - float(expected)) < 1e-12

    # full posterior of rank_corpus against the direct product form
    cases = [{"grid", "search"}, {"recipe", "pan"}, {"grid", "recipe", "cell", "zzz"}, set()]
    for lam_neg, lam_pos in lambdas:
        got = posteriors(cases, model, Hyperparameters(float(lam_neg), float(lam_pos)))
        for case, (p_pos, _) in zip(cases, got):
            expected = exact_posterior(case, pos_sets, neg_sets, lam_neg, lam_pos)
            assert abs(p_pos - float(expected)) < 1e-12

    # two observed events, none positive, add-one priors: p = 1/4
    empty_pos = CountModel(
        n_pos=0, n_neg=2, features=(), pos_count=np.zeros(0, dtype=np.int64),
        neg_count=np.zeros(0, dtype=np.int64), fold_offsets=np.zeros(1, dtype=np.int64),
        fold_features=np.zeros(0, dtype=np.int64),
    )
    assert class_prior(True, empty_pos, Hyperparameters(1, 1)) == 0.25


@criterion(2, "leave-one-out equals retraining from scratch at 1e-9", budget_seconds=5.0)
def test_criterion_2_loo_oracle_equivalence():
    fixtures = [
        (np.random.default_rng(0), 3, 3),
        (np.random.default_rng(1), 12, 10),
        (np.random.default_rng(2), 25, 25),
        (np.random.default_rng(3), 10, 0),
    ]
    lambdas = [(1, 1), (Fraction(1, 2), Fraction(1, 2)), (37, 2), (Fraction(1, 100), 150)]
    for rng, n_pos, n_neg in fixtures:
        positives, negatives = random_training_docs(rng, n_pos, n_neg)
        model = train(positives, negatives)
        assert model.n_folds <= 50
        evaluator = loo_evaluator(model)
        pos_sets = [d.tokens for d in positives]
        neg_sets = [d.tokens for d in negatives]
        for lam_neg, lam_pos in lambdas:
            cell = Cell(DEFAULT_GRID.index(float(lam_neg)), DEFAULT_GRID.index(float(lam_pos)))
            p_pos = positive_posteriors(evaluator.log_odds(cell)).tolist()
            assert len(p_pos) == model.n_folds
            for fold, value in enumerate(p_pos):
                expected = retrained_loo_posterior(fold, pos_sets, neg_sets, lam_neg, lam_pos)
                assert abs(value - float(expected)) < 1e-9


@criterion(3, "search finds brute-forced optima on 20 synthetic surfaces", budget_seconds=30.0)
def test_criterion_3_search_correctness():
    starts = default_starts()
    for seed in range(12):
        ppv, sens = unimodal_surface(np.random.default_rng(seed))
        target = brute_force_argmax(ppv, sens)
        outcome = multi_start_search(starts, surface_evaluator(ppv, sens), {}, [])
        assert outcome.best == target, f"unimodal seed {seed}"

    for seed in range(100, 108):
        ppv, sens = two_bump_surface(np.random.default_rng(seed))
        target = brute_force_argmax(ppv, sens)
        evaluate = surface_evaluator(ppv, sens)
        outcome = multi_start_search(starts, evaluate, {}, [])
        assert is_local_max(outcome.best, ppv, sens), f"two-bump seed {seed}"
        solo_bests = {radial_gradient_search(s, evaluate, {}, []).best for s in starts}
        if target in solo_bests:  # some start lies in the global basin
            assert outcome.best == target, f"two-bump seed {seed}"


@criterion(4, "grid is the exact 203-value sequence with the stated anchors")
def test_criterion_4_grid_exactness():
    expected = [0.01, 0.1, 0.5] + [float(v) for v in range(1, 201)]
    assert list(DEFAULT_GRID) == expected
    assert len(DEFAULT_GRID) == 203
    assert DEFAULT_GRID.index(1.0) == 3 and DEFAULT_GRID.index(0.5) == 2  # Bayes-Laplace, Jeffreys


@criterion(5, "posterior monotone across the grid; positive set shrinks")
def test_criterion_5_monotonicity_sweep():
    positives = [
        _doc(1, {"grid", "search", "memo"}),
        _doc(2, {"grid", "climb", "memo"}),
        _doc(3, {"grid", "search", "climb", "peak"}),
    ]
    negatives = [
        _doc(4, {"grid", "recipe"}),
        _doc(5, {"oven", "recipe"}),
        _doc(6, {"search", "warrant"}),
    ]
    model = train(positives, negatives)
    cases = [
        {"grid", "search", "memo"},
        {"grid", "recipe"},
        {"search", "warrant", "peak"},
        {"oven", "recipe"},
        {"climb"},
    ]
    # one ranking of all cases per grid value: p_pos of each case, per lambda
    down = [[p for p, _ in posteriors(cases, model, Hyperparameters(lam, 1.0))] for lam in DEFAULT_GRID]
    up = [[p for p, _ in posteriors(cases, model, Hyperparameters(1.0, lam))] for lam in DEFAULT_GRID]
    for i in range(len(cases)):
        assert all(b[i] <= a[i] + 1e-12 for a, b in zip(down, down[1:]))
        assert all(b[i] >= a[i] - 1e-12 for a, b in zip(up, up[1:]))

    counts = [sum(p > 0.5 for p in row) for row in down]
    assert all(b <= a for a, b in zip(counts, counts[1:]))


# --- criteria 6 and 10 share one heavyweight workload --------------------------


def _full_experiment_run():
    """One complete study-vs-baseline experiment on the default corpus."""
    syn = make_synthetic_corpus(seed=0)
    spec = ExperimentSpec(
        corpus=syn.corpus,
        categories=syn.categories,
        category=CATEGORY,
        seeds=(0, 1, 2, 3, 4),
        top_n=1000,
    )
    result = learn_priors(spec)
    titles = {doc.id: doc.title for doc in syn.corpus}

    artifacts = {}
    rankings = {}
    for seed, memo in zip(spec.seeds, result.memos):
        artifacts[f"memo_seed{seed}.csv"] = memo_to_csv(memo, spec.grid)
    artifacts["memo_mean.csv"] = memo_to_csv(result.mean_scores, spec.grid)
    for seed in spec.seeds:
        training = make_training_set(syn.corpus, syn.categories, CATEGORY, seed)
        model = training_model(syn.corpus, training)
        exclude = frozenset(training.positive_ids)
        baseline = rank_corpus(syn.corpus, model, BAYES_LAPLACE, exclude)
        study = rank_corpus(syn.corpus, model, result.hyperparameters, exclude)
        rankings[seed] = (baseline, study)
        artifacts[f"baseline_seed{seed}.csv"] = predictions_to_csv(baseline, titles)
        artifacts[f"study_seed{seed}.csv"] = predictions_to_csv(study, titles)
    base0, study0 = rankings[spec.seeds[0]]
    artifacts["review.html"] = export_review_list(base0, study0, titles, top_n=spec.top_n)
    return syn, spec, result, rankings, artifacts


@pytest.fixture(scope="module")
def full_run():
    start = time.perf_counter()
    syn, spec, result, rankings, artifacts = _full_experiment_run()
    return syn, spec, result, rankings, artifacts, time.perf_counter() - start


@criterion(6, "study beats baseline at PPV@100 in >= 4 of 5 seeds")
def test_criterion_6_study_vs_baseline(full_run):
    syn, spec, result, rankings, _, elapsed = full_run
    assert elapsed < 600.0, "end-to-end run exceeded its 10-minute budget"

    wins = 0
    for seed in spec.seeds:
        baseline, study = rankings[seed]
        ppv_base = ppv_at_k(baseline.doc_ids(), syn.truth, 100)
        ppv_study = ppv_at_k(study.doc_ids(), syn.truth, 100)
        wins += ppv_study >= ppv_base
    assert wins >= 4, f"study won only {wins} of 5 seeds"

    # the add-one cell is a search start, so every seed explored it, and the
    # aggregated winner can never average below it
    bayes_laplace = Cell(3, 3)
    for memo in result.memos:
        assert bayes_laplace in memo
    assert result.mean_scores[result.cell].ppv >= result.mean_scores[bayes_laplace].ppv
    for memo in result.memos:
        best_in_memo = max(score for _, score in memo.items())
        assert best_in_memo.ppv >= memo.get(bayes_laplace).ppv


@criterion(7, "ranked list with 72 hits in its top 250 scores exactly 0.288")
def test_criterion_7_metrics_anchor():
    rng = np.random.default_rng(72)
    hits = sorted(int(i) for i in rng.choice(250, size=72, replace=False))
    ranked = list(range(250))
    truth = set(hits)
    assert ppv_at_k(ranked, truth, 250) == 0.288


@criterion(8, "bootstrap width, degenerate interval, and coverage checks")
def test_criterion_8_bootstrap_sanity():
    half = np.array([1] * 125 + [0] * 125, dtype=np.int8)
    ci = bootstrap_ci(half, B=10_000, alpha=0.05, seed=0)
    assert 0.10 <= ci.hi - ci.lo <= 0.15  # normal approximation gives 0.124

    ones = np.ones(250, dtype=np.int8)
    ci = bootstrap_ci(ones, B=10_000, alpha=0.05, seed=0)
    assert (ci.lo, ci.hi) == (1.0, 1.0)

    rng = np.random.default_rng(8)
    for _ in range(100):
        k = int(rng.integers(60, 400))
        p = float(rng.uniform(0.15, 0.85))
        v = (rng.random(k) < p).astype(np.int8)
        ci = bootstrap_ci(v, B=1000, seed=int(rng.integers(0, 2**31)))
        assert ci.lo <= v.mean() <= ci.hi


@criterion(9, "0.068 vs 0.288 outcome vectors at k=250 separate at p < 0.001")
def test_criterion_9_significance_anchor():
    baseline = np.array([1] * 17 + [0] * 233, dtype=np.int8)  # mean 0.068
    study = np.array([1] * 72 + [0] * 178, dtype=np.int8)  # mean 0.288
    assert significance_test(baseline, study) < 0.001


@criterion(10, "identical config reproduces every artifact byte-for-byte")
def test_criterion_10_determinism(full_run):
    _, _, result_first, _, artifacts_first, _ = full_run
    _, _, result_second, _, artifacts_second = _full_experiment_run()
    assert result_second.cell == result_first.cell
    assert set(artifacts_second) == set(artifacts_first)
    for name in sorted(artifacts_first):
        assert artifacts_second[name] == artifacts_first[name], f"artifact {name} differs"


@criterion(11, "bundled 3-page dump ingests to the exact expected corpus")
def test_criterion_11_ingestion():
    skipped = Counter()
    with (DATA / "mini_dump.xml").open("rb") as stream:
        corpus, cats = ingest_wiki_dump(stream, min_bytes=300, skipped=skipped)
    assert corpus.doc_count == 1
    doc = document(corpus, 11)
    assert doc.title == "Hill climbing"
    assert doc.tokens == {
        "hill", "climbing", "picks", "the", "best", "nearby", "value", "then",
        "repeats", "alpha", "beta", "gamma", "delta",
    }
    assert category_items(cats) == [
        ("Optimization", frozenset({11})),
        ("Search methods", frozenset({11})),
    ]
    assert skipped["below_min_bytes"] == 1  # the 300-byte filter fired
    assert skipped["redirect"] == 1  # the redirect skip fired
