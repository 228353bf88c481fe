"""The names the benchmark's tracer patches still resolve and are still called.

``perfbench/tracer.py`` wraps priorlearn's public names where their callers
look them up. A name that moves, or a call that stops going through it,
makes ``instrument`` fail or leaves its span silent; both show here. The
workloads in ``perfbench/workloads.py`` and ``perfbench/wikidump.py`` also
call priorlearn directly; one iteration of each kind runs here on a tiny
corpus, so a break in those calls fails a test, not a benchmark run.
"""

import io
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import wikidump  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, instrument  # noqa: E402

from priorlearn import cli  # noqa: E402
from priorlearn.experiment import ExperimentSpec, classify_corpus, learn_priors  # noqa: E402
from priorlearn.model import BAYES_LAPLACE  # noqa: E402
from priorlearn.synthetic import CATEGORY, make_synthetic_corpus  # noqa: E402


def test_search_and_ranking_spans_fire():
    syn = make_synthetic_corpus(seed=0, vocab_size=200, n_members=20, pool_size=400)
    spec = ExperimentSpec(
        corpus=syn.corpus, categories=syn.categories, category=CATEGORY, seeds=(0, 1)
    )
    with instrument(Tracer()) as tracer:
        learn_priors(spec)
        classify_corpus(spec, BAYES_LAPLACE)
    recorded = {name for name, _, _, _ in tracer.spans}
    for name in (
        "search.aggregate_over_seeds",
        "search.cross_seed_mean_scores",
        "search.cell_eval",
        "search.multi_start_search",
        "experiment.rank_corpus",
    ):
        assert name in recorded, name


def test_store_and_load_spans_fire(tmp_path):
    syn = make_synthetic_corpus(seed=0, vocab_size=200, n_members=20, pool_size=400)
    with instrument(Tracer()) as tracer:
        cli.store_corpus(syn.corpus, syn.categories, tmp_path / "store")
        loaded, _ = cli.load_corpus(tmp_path / "store")
    recorded = {name for name, _, _, _ in tracer.spans}
    assert {"corpus.store_corpus", "corpus.load_corpus"} <= recorded
    # on_load counts result[0].doc_count, and on_store every file written
    assert tracer.counts["corpus.docs_loaded"] == loaded.doc_count == syn.corpus.doc_count
    assert tracer.counts["corpus.store_files"] == sum(1 for p in (tmp_path / "store").rglob("*") if p.is_file())


def test_ingest_and_store_spans_fire_on_an_index_backed_corpus(tmp_path):
    body = "alpha beta gamma delta " * 20
    pages = "".join(
        f"<page><title>P{pid}</title><ns>{ns}</ns><id>{pid}</id><revision><text>{body}[[Category:C]]</text>"
        "</revision></page>"
        for pid, ns in ((3, 0), (1, 0), (2, 1))
    )
    dump, skipped = io.BytesIO(f"<mediawiki>{pages}</mediawiki>".encode()), Counter()
    with instrument(Tracer()) as tracer:
        corpus, categories = cli.ingest_wiki_dump(dump, skipped=skipped)
        cli.store_corpus(corpus, categories, tmp_path / "store")
    recorded = {name for name, _, _, _ in tracer.spans}
    assert {"corpus.ingest_wiki_dump", "corpus.store_corpus"} <= recorded
    # on_ingest counts result[0].doc_count and the skip reasons, on_store every file written
    assert tracer.counts["corpus.docs_kept"] == corpus.doc_count == 2
    assert tracer.counts["corpus.pages_skipped.namespace_1"] == skipped["namespace:1"] == 1
    assert tracer.counts["corpus.store_files"] == sum(1 for p in (tmp_path / "store").rglob("*") if p.is_file())


def test_workload_iterations_run_on_a_tiny_corpus(tmp_path, monkeypatch):
    syn = make_synthetic_corpus(seed=0, vocab_size=200, n_members=20, pool_size=400)
    monkeypatch.setattr(workloads, "WORK", tmp_path / "work")
    in_process = workloads.InProcess(
        name="tiny", corpus_args={}, seeds=(0, 1), ranked_seeds=(0, 1), report=True, priors_reps=1
    )
    dump = wikidump.ensure_dump(tmp_path / "dump", 0, lambda: (syn, CATEGORY))
    iterations = [
        in_process.iterate(syn, 0, workloads.NullTracer()),
        workloads.WikiCli(in_process=True, priors_reps=1).iterate(dump, 0, workloads.NullTracer()),
    ]
    for iteration in iterations:
        assert iteration.nonzero_exits == 0
        assert [key for key, value in iteration.answers.items() if value is None] == []
    assert iterations[1].commands == 6
