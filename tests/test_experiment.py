import io
import re

import numpy as np
import pytest

from oracles import (
    array_swap_sample_negatives,
    entries,
    from_documents,
    peak_bytes,
    reader_predictions_csv,
    retained_bytes,
    scalar_sample_negatives,
    writer_predictions_csv,
)
from priorlearn.corpus import CategoryIndex, Document
from priorlearn.experiment import (
    ExperimentSpec,
    RankedPredictions,
    classify_corpus,
    export_review_list,
    learn_priors,
    make_training_set,
    predictions_to_csv,
    rank_corpus,
    read_predictions_csv,
    sample_negatives,
    training_model,
)
from priorlearn.model import BAYES_LAPLACE, Hyperparameters
from priorlearn.search import DEFAULT_GRID, Cell
from priorlearn.synthetic import CATEGORY as SYNTHETIC_CATEGORY
from priorlearn.synthetic import SyntheticCorpus, make_synthetic_corpus

CATEGORY = "Cat"


def _flat_corpus(n_docs: int, n_members: int):
    docs = [Document(i, f"Doc {i}", frozenset({"filler"})) for i in range(n_docs)]
    corpus = from_documents(docs)
    cats = CategoryIndex.from_mapping({"Cat": range(n_members)})
    return corpus, cats


@pytest.fixture(scope="module")
def separable():
    """Members and hidden positives share a marker token; everything else is
    drawn from one common token pool, so the marker is the only signal."""
    rng = np.random.default_rng(6)
    commons = [f"c{i:02d}" for i in range(12)]
    n_members, n_hidden, n_pool = 40, 4, 2000

    def tokens(positive):
        base = set(rng.choice(commons, size=6, replace=False))
        if positive:
            base.add("marker")
        return frozenset(base)

    docs = [Document(i + 1, f"Member {i + 1}", tokens(True)) for i in range(n_members)]
    truth = []
    for i in range(n_pool):
        doc_id = n_members + i + 1
        hidden = i < n_hidden
        docs.append(Document(doc_id, f"Pool {doc_id}", tokens(hidden)))
        if hidden:
            truth.append(doc_id)
    corpus = from_documents(docs)
    cats = CategoryIndex.from_mapping({CATEGORY: range(1, n_members + 1)})
    fixture = SyntheticCorpus(corpus=corpus, categories=cats, truth=frozenset(truth))
    # the separability claim presumes no mislabeled training negatives
    for seed in (0, 1):
        training = make_training_set(corpus, cats, CATEGORY, seed)
        assert not set(training.negative_ids) & fixture.truth
    return fixture


class TestSampleNegatives:
    def test_deterministic(self):
        corpus, cats = _flat_corpus(500, 40)
        a = sample_negatives(corpus, cats, "Cat", 60, seed=3)
        b = sample_negatives(corpus, cats, "Cat", 60, seed=3)
        assert a == b
        assert len(a) == 60

    def test_excludes_members(self):
        corpus, cats = _flat_corpus(200, 50)
        sample = sample_negatives(corpus, cats, "Cat", 100, seed=0)
        assert not sample & cats.members("Cat")

    def test_k_equal_to_complement_returns_it_all(self):
        corpus, cats = _flat_corpus(120, 20)
        sample = sample_negatives(corpus, cats, "Cat", 100, seed=9)
        assert sample == frozenset(range(20, 120))

    def test_too_large_k_rejected(self):
        corpus, cats = _flat_corpus(50, 10)
        with pytest.raises(ValueError, match="non-members"):
            sample_negatives(corpus, cats, "Cat", 41, seed=0)

    def test_cross_seed_overlap_near_expected_fraction(self):
        corpus, cats = _flat_corpus(2000, 100)
        k, pool = 500, 1900
        samples = [sample_negatives(corpus, cats, "Cat", k, seed=s) for s in range(10)]
        overlaps = [
            len(samples[i] & samples[j]) / k
            for i in range(10)
            for j in range(i + 1, 10)
        ]
        assert all(a != b for a, b in zip(samples, samples[1:]))
        assert abs(np.mean(overlaps) - k / pool) < 0.03

    @pytest.mark.parametrize("n_docs,n_members,k", [(2, 1, 1), (50, 10, 40), (600, 100, 100), (5000, 1000, 1000)])
    def test_same_draws_as_one_swap_per_step(self, n_docs, n_members, k):
        corpus, cats = _flat_corpus(n_docs, n_members)
        for seed in range(50):
            assert sample_negatives(corpus, cats, "Cat", k, seed) == scalar_sample_negatives(
                corpus, cats, "Cat", k, seed
            ), seed

    @pytest.mark.parametrize("n_docs,n_members,k", [(2, 1, 1), (3, 1, 1), (40, 10, 30), (40, 10, 7), (900, 100, 800), (5000, 1000, 1000)])
    def test_same_draws_as_swapping_the_whole_pool(self, n_docs, n_members, k):
        corpus, cats = _flat_corpus(n_docs, n_members)
        for seed in range(40):
            assert sample_negatives(corpus, cats, "Cat", k, seed) == array_swap_sample_negatives(
                corpus, cats, "Cat", k, seed
            ), seed


class TestTrainingSet:
    def test_invariants(self):
        corpus, cats = _flat_corpus(300, 25)
        training = make_training_set(corpus, cats, "Cat", seed=2)
        assert len(training.negative_ids) == len(training.positive_ids) == 25
        assert not set(training.positive_ids) & set(training.negative_ids)
        assert not set(training.negative_ids) & cats.members("Cat")
        assert training.positive_ids == tuple(sorted(training.positive_ids))


class TestExperimentSpec:
    @pytest.mark.parametrize("seeds, repeated", [((0, 0), 0), ((3, 1, 2, 1), 1)])
    def test_repeated_seed_rejected_naming_it(self, separable, seeds, repeated):
        with pytest.raises(ValueError, match=f"seed {repeated} is repeated"):
            ExperimentSpec(
                corpus=separable.corpus, categories=separable.categories, category=CATEGORY, seeds=seeds
            )

    @pytest.mark.parametrize("seeds", [(-1,), (0, 2, -7)])
    def test_negative_seed_rejected_naming_it(self, separable, seeds):
        with pytest.raises(ValueError, match=f"seed {seeds[-1]} is negative"):
            ExperimentSpec(
                corpus=separable.corpus, categories=separable.categories, category=CATEGORY, seeds=seeds
            )


class TestRankCorpus:
    def test_total_order_and_exclusion(self, separable):
        spec = ExperimentSpec(
            corpus=separable.corpus, categories=separable.categories, category=CATEGORY, seeds=(0,)
        )
        training = make_training_set(spec.corpus, spec.categories, CATEGORY, 0)
        model = training_model(spec.corpus, training)
        ranked = rank_corpus(spec.corpus, model, BAYES_LAPLACE, frozenset(training.positive_ids))
        ids = ranked.doc_ids()
        assert len(ids) == spec.corpus.doc_count - len(training.positive_ids)
        assert not set(ids) & set(training.positive_ids)
        keys = list(zip((-ranked.log_odds).tolist(), ids))
        assert keys == sorted(keys)
        assert len(set(ids)) == len(ids)

    def test_positives_predicted_counts_threshold(self, separable):
        training = make_training_set(separable.corpus, separable.categories, CATEGORY, 0)
        model = training_model(separable.corpus, training)
        ranked = rank_corpus(separable.corpus, model, BAYES_LAPLACE, frozenset(training.positive_ids))
        assert ranked.positives_predicted == sum(1 for _, p, _ in entries(ranked) if p > 0.5)

    def test_calibration_direction(self, separable):
        # raising lambda_neg with lambda_pos at most 1 can only shrink the
        # positively-classified set
        training = make_training_set(separable.corpus, separable.categories, CATEGORY, 0)
        model = training_model(separable.corpus, training)
        excl = frozenset(training.positive_ids)
        base = rank_corpus(separable.corpus, model, BAYES_LAPLACE, excl)
        shrunk = rank_corpus(separable.corpus, model, Hyperparameters(8.0, 0.5), excl)
        assert shrunk.positives_predicted <= base.positives_predicted

    def test_generate_learn_and_rank_build_no_documents(self, monkeypatch):
        def no_document(self, *args, **kwargs):
            raise AssertionError("a Document was built")

        # on the class, so a module that imported the name is caught too
        monkeypatch.setattr(Document, "__init__", no_document)
        syn = make_synthetic_corpus(vocab_size=200, n_members=20, pool_size=400)
        spec = ExperimentSpec(
            corpus=syn.corpus, categories=syn.categories, category=SYNTHETIC_CATEGORY, seeds=(0, 1)
        )
        result = learn_priors(spec)
        training = make_training_set(syn.corpus, syn.categories, SYNTHETIC_CATEGORY, 0)
        ranked = rank_corpus(syn.corpus, training_model(syn.corpus, training), result.hyperparameters)
        assert len(ranked.doc_ids()) == syn.corpus.doc_count


def _study(spec):
    """Learn priors across the spec's seeds, then rank the corpus with them."""
    learned = learn_priors(spec).hyperparameters
    return learned, classify_corpus(spec, learned)[1]


class TestBranches:
    def test_both_branches_surface_all_hidden_positives(self, separable):
        spec = ExperimentSpec(
            corpus=separable.corpus,
            categories=separable.categories,
            category=CATEGORY,
            seeds=(0, 1),
            top_n=20,
        )
        baseline = classify_corpus(spec, BAYES_LAPLACE)[1]
        learned, study = _study(spec)
        n_truth = len(separable.truth)
        assert set(baseline.doc_ids()[:n_truth]) == separable.truth
        assert set(study.doc_ids()[:n_truth]) == separable.truth

    def test_study_with_add_one_cell_equals_baseline(self, separable):
        spec = ExperimentSpec(
            corpus=separable.corpus, categories=separable.categories, category=CATEGORY, seeds=(0,)
        )
        baseline = classify_corpus(spec, BAYES_LAPLACE)[1]
        training = make_training_set(spec.corpus, spec.categories, CATEGORY, 0)
        model = training_model(spec.corpus, training)
        forced = rank_corpus(
            spec.corpus, model, Hyperparameters(1.0, 1.0), frozenset(training.positive_ids)
        )
        assert entries(forced) == entries(baseline)

    def test_end_to_end_determinism(self, separable):
        spec = ExperimentSpec(
            corpus=separable.corpus,
            categories=separable.categories,
            category=CATEGORY,
            seeds=(0, 1),
        )
        titles = {doc.id: doc.title for doc in separable.corpus}
        runs = []
        for _ in range(2):
            learned, ranked = _study(spec)
            runs.append((learned, predictions_to_csv(ranked, titles)))
        assert runs[0] == runs[1]

    def test_learn_priors_explores_baseline_cell_under_every_seed(self, separable):
        spec = ExperimentSpec(
            corpus=separable.corpus,
            categories=separable.categories,
            category=CATEGORY,
            seeds=(0, 1, 2),
        )
        result = learn_priors(spec)
        for memo in result.memos:
            assert Cell(3, 3) in memo
        assert result.mean_scores[result.cell].ppv >= result.mean_scores[Cell(3, 3)].ppv
        assert result.mean_ppv == result.mean_scores[result.cell].ppv
        assert result.hyperparameters == Hyperparameters(DEFAULT_GRID[result.cell.x], DEFAULT_GRID[result.cell.y])


class TestReviewList:
    def _ranked(self, ids):
        return _columns([(i, 0.9, float(100 - r)) for r, i in enumerate(ids)])

    def test_identical_lists_yield_n_titles(self):
        titles = {i: f"Title {i:02d}" for i in range(10)}
        ranked = self._ranked(range(10))
        html = export_review_list(ranked, ranked, titles, top_n=10)
        assert html.count("<li>") == 10

    def test_disjoint_lists_yield_2n_titles(self):
        titles = {i: f"Title {i:02d}" for i in range(20)}
        a = self._ranked(range(10))
        b = self._ranked(range(10, 20))
        html = export_review_list(a, b, titles, top_n=10)
        assert html.count("<li>") == 20

    def test_blinded_and_alphabetical(self):
        titles = {0: "Zebra crossing", 1: "Aardvark & friends", 2: "Mid <tag> title"}
        a = self._ranked([0, 1])
        b = self._ranked([2, 1])
        html = export_review_list(a, b, titles, top_n=2)
        for forbidden in ("baseline", "study", "score", "p_pos", "log_odds", "0.9"):
            assert forbidden not in html.lower()
        order = [
            html.index("Aardvark &amp; friends"),
            html.index("Mid &lt;tag&gt; title"),
            html.index("Zebra crossing"),
        ]
        assert order == sorted(order)

    def test_link_template(self):
        titles = {0: "Hill climbing"}
        ranked = self._ranked([0])
        html = export_review_list(ranked, ranked, titles, top_n=1, link_template="https://x/{title}")
        assert 'href="https://x/Hill_climbing"' in html
        html = export_review_list(ranked, ranked, titles, top_n=1, link_template="{{x}}/{title!s:>15}")
        assert 'href="{x}/  Hill_climbing"' in html

    @pytest.mark.parametrize("template", ["{0}", "{}", "{title.upper}", "{title[0]}", "{other}", "{title:{0}}"])
    def test_link_template_names_no_field_but_title(self, template):
        ranked = self._ranked([0])
        with pytest.raises(ValueError, match=re.escape(f"link template 'https://x/{template}'")):
            export_review_list(ranked, ranked, {0: "Hill climbing"}, top_n=1, link_template=f"https://x/{template}")


def _columns(rows):
    """A ranking of ``(doc_id, p_pos, log_odds)`` triples."""
    ids, p_pos, log_odds = zip(*rows) if rows else ((), (), ())
    return RankedPredictions(
        ids=np.array(ids, dtype=np.int64),
        p_pos=np.array(p_pos, dtype=np.float64),
        log_odds=np.array(log_odds, dtype=np.float64),
    )


def _random_titles(rng, n):
    """Titles pieced from CSV-special, blank, non-ASCII and NUL characters, the empty one first."""
    pieces = ["", " ", "a", "Zz", ",", '"', "'", "\n", "\t", "\x00", "\u00e9", "\u4e2d", "\U0001f600", "#", ";"]
    titles = [""]
    while len(titles) < n:
        titles.append("".join(pieces[i] for i in rng.integers(0, len(pieces), int(rng.integers(1, 6)))))
    return titles


def _assert_same_columns(got, want):
    for name in ("ids", "p_pos", "log_odds"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert repr(a.tolist()) == repr(b.tolist()), name


class TestPredictionsCsv:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_acceptance_rankings_match_csv_writer(self, acceptance, seed):
        corpus = acceptance.corpus
        titles = {doc.id: doc.title for doc in corpus}
        training = make_training_set(corpus, acceptance.categories, SYNTHETIC_CATEGORY, seed)
        model = training_model(corpus, training)
        for hp in (BAYES_LAPLACE, Hyperparameters(14.0, 8.0)):
            ranked = rank_corpus(corpus, model, hp, frozenset(training.positive_ids))
            text = predictions_to_csv(ranked, titles)
            assert text == writer_predictions_csv(entries(ranked), titles)
            back, back_titles = read_predictions_csv(io.StringIO(text), len(ranked))
            _assert_same_columns(back, ranked)
            assert (entries(back), back_titles) == reader_predictions_csv(text)

    def test_round_trip_with_awkward_titles(self):
        rng = np.random.default_rng(7)
        titles = dict(enumerate([*_random_titles(rng, 399), 'Comma, "quoted" title']))
        assert "" in titles.values() and " " in titles.values()
        ids = rng.permutation(len(titles))
        log_odds = np.sort(rng.normal(0.0, 30.0, len(titles)))[::-1]
        ranked = _columns(list(zip(ids.tolist(), (1 / (1 + np.exp(-log_odds))).tolist(), log_odds.tolist())))
        text = predictions_to_csv(ranked, titles)
        assert text == writer_predictions_csv(entries(ranked), titles)
        back, back_titles = read_predictions_csv(io.StringIO(text), len(ranked))
        _assert_same_columns(back, ranked)
        assert back_titles == titles
        assert back.positives_predicted == ranked.positives_predicted

    def test_carriage_return_titles_are_quoted_and_round_trip(self):
        titles = {1: "a\rb", 2: "\r", 3: 'x\r\n"y"', 4: "plain"}
        ranked = _columns([(1, 0.75, 1.0), (2, 0.5, 0.0), (3, 0.25, -1.0), (4, 0.125, -2.0)])
        text = predictions_to_csv(ranked, titles)
        assert text.split("\n")[1:3] == ['1,1,"a\rb",1.0,0.75', '2,2,"\r",0.0,0.5']
        back, back_titles = read_predictions_csv(io.StringIO(text), len(ranked))
        _assert_same_columns(back, ranked)
        assert back_titles == titles

    def test_peak_beyond_the_text_is_flat_in_the_ranks(self):
        def peak_over_text(n):
            log_odds = np.linspace(40.0, -40.0, n)
            ranked = _columns(list(zip(range(n), (1 / (1 + np.exp(-log_odds))).tolist(), log_odds.tolist())))
            titles = {i: f"Article {i}" for i in range(n)}
            text = predictions_to_csv(ranked, titles)
            # the blocks' texts, then their join
            return peak_bytes(predictions_to_csv, ranked, titles) - 2 * len(text)

        small, large = peak_over_text(5000), peak_over_text(20_000)
        # every rank's row string and Python numbers at once would add ~120 bytes for each of 15,000 more ranks
        assert large < small + 500_000

    def test_titles_kept_within_the_rank_bound_or_among_the_named_ids(self):
        titles = {9: "Nine", 4: "Four", 7: "Seven", 2: "Two", 5: "Five"}
        ranked = _columns([(9, 0.9, 2.0), (4, 0.8, 1.5), (7, 0.7, 1.0), (2, 0.6, 0.5), (5, 0.5, 0.0)])
        text = predictions_to_csv(ranked, titles)
        for title_ranks, title_ids, kept in [
            (0, frozenset(), {}),
            (-1, {4}, {4: "Four"}),
            (2, frozenset(), {9: "Nine", 4: "Four"}),
            (2, {5, 9, 8}, {9: "Nine", 4: "Four", 5: "Five"}),
            (5, frozenset(), titles),
            (5, {2}, titles),
            (6, frozenset(), titles),
        ]:
            back, back_titles = read_predictions_csv(io.StringIO(text), title_ranks, title_ids)
            _assert_same_columns(back, ranked)
            assert back_titles == kept, (title_ranks, title_ids)

    def test_memory_retained_under_a_title_bound_is_the_three_columns(self):
        def retained(n):
            log_odds = np.linspace(40.0, -40.0, n)
            ranked = _columns(list(zip(range(n), (1 / (1 + np.exp(-log_odds))).tolist(), log_odds.tolist())))
            text = predictions_to_csv(ranked, {i: f"Article {i}" for i in range(n)})
            return retained_bytes(read_predictions_csv, io.StringIO(text), 100)

        small, large = retained(5000), retained(20_000)
        # the columns hold 24 bytes a row; a title and its map entry for each row would add ~130
        assert large - small < 40 * 15_000

    def test_empty_ranking(self):
        text = predictions_to_csv(_columns([]), {})
        assert text == "rank,doc_id,title,log_odds,p_pos\n"
        back, back_titles = read_predictions_csv(io.StringIO(text), 1)
        assert len(back) == 0 and back.ids.dtype == np.int64 and back_titles == {}

    def test_header_rejected_when_unknown(self):
        with pytest.raises(ValueError, match="header"):
            read_predictions_csv(io.StringIO("a,b\n1,2\n"), 10)

    @pytest.mark.parametrize(
        "body, where",
        [
            ("1,5,a\rb,0.5,0.6\n", "line 2"),
            ('1,5,"open title,0.5,0.6\n', "line 2"),
            ("1,5,x,0.5,0.6\n2,6,y,0.5\n", "row 3"),
            ("1,7,x,0.5,0.6\n2,7,x,0.5,0.6\n", "row 3: doc id 7 is repeated"),
        ],
    )
    def test_unparsable_rows_name_their_line(self, body, where):
        with pytest.raises(ValueError, match=where):
            read_predictions_csv(io.StringIO("rank,doc_id,title,log_odds,p_pos\n" + body), 10)

    @pytest.mark.parametrize("title_ranks", [1, 10])
    @pytest.mark.parametrize(
        "body, message",
        [
            ("1,7,x,0.5,0.6\n2,7,x,0.5,0.6\n3,8,y,0.5\n", "predictions CSV row 3: doc id 7 is repeated"),
            ("1,7,x,0.5,0.6\n2,7,x,bad,0.6\n", "predictions CSV row 3: doc id 7 is repeated"),
            ('1,7,x,0.5,0.6\n2,7,x,0.5,0.6\n3,8,"open,0.5,0.6\n', "predictions CSV row 3: doc id 7 is repeated"),
            ("1,7,x,0.5,0.6\n2,8,y,0.5\n3,7,x,0.5,0.6\n", "predictions CSV row 3 does not have 5 fields"),
            ("1,9,x,0.5,0.6\n2,7,y,0.5,0.6\n3,9,x,0.5,0.6\n4,7,y,0.5,0.6\n",
             "predictions CSV row 4: doc id 9 is repeated"),
            ("1,7,x,0.5,0.6\n2,7,x,0.5,0.6\n3,seven,y,0.5,0.6\n", "predictions CSV row 3: doc id 7 is repeated"),
            ("1,7,x,0.5,0.6\n2,7,x,0.5,0.6\n3,99999999999999999999,y,0.5,0.6\n",
             "predictions CSV row 3: doc id 7 is repeated"),
            ("1,7,x,0.5,0.6\n2,8,y,0.5,0.6\n3,seven,y,0.5,0.6\n4,7,x,0.5,0.6\n",
             "invalid literal for int() with base 10: 'seven'"),
            ('1,7,x,0.5,0.6\n2,8,"open,0.5,0.6\n3,7,x,0.5,0.6\n',
             "unreadable predictions CSV at line 4: unexpected end of data"),
        ],
    )
    def test_the_first_fault_in_the_file_is_reported(self, body, message, title_ranks):
        with pytest.raises(ValueError) as caught:
            read_predictions_csv(io.StringIO("rank,doc_id,title,log_odds,p_pos\n" + body), title_ranks)
        assert str(caught.value) == message
