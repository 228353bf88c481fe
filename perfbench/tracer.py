"""Spans around the calls into priorlearn, recorded from the benchmark's side.

A span has a name, a start, an end and the index of its parent span.
Spans stay in memory and are written out when the run ends. The layer of
a span is the part of its name before the first dot, one per priorlearn
module. :func:`instrument` wraps public names where they are looked up by
their caller, so a call is seen whichever module makes it.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter
from pathlib import Path

now = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, now(), None, self._stack[-1] if self._stack else None])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = now()

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span; ``after(result, args, kwargs)`` runs outside it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    # --- queries over the recorded spans ------------------------------------

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def within(self, index: int, ancestor: str) -> bool:
        parent = self.spans[index][3]
        while parent is not None:
            if self.spans[parent][0] == ancestor:
                return True
            parent = self.spans[parent][3]
        return False

    def outer_total(self, names: set[str]) -> float:
        """Time in spans named in ``names`` that are not nested in another of them."""
        return sum(
            end - start
            for i, (n, start, end, _) in enumerate(self.spans)
            if n in names and not any(self.within(i, other) for other in names)
        )

    def self_times(self) -> Counter:
        """Per layer: span time not covered by the span's direct children."""
        child_time = Counter()
        for _, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        per_layer: Counter = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            per_layer[name.split(".", 1)[0]] += end - start - child_time[i]
        return per_layer

    def covered(self) -> float:
        """Time covered by root spans."""
        return sum(end - start for _, start, end, parent in self.spans if parent is None)

    def to_json(self) -> dict:
        rows = [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans]
        return {"spans": rows, "counts": dict(self.counts)}


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Patch priorlearn's public names at their call sites for the duration."""
    from priorlearn import cli, experiment, metrics, search, stats

    counts = tracer.counts

    def on_counts(result, args, kwargs):
        counts["model.features"] += len(result.features)
        counts["model.folds"] += result.n_folds

    def on_rank(result, args, kwargs):
        counts["experiment.docs_ranked"] += len(result)
        counts["experiment.positives_predicted"] += result.positives_predicted

    def on_csv(result, args, kwargs):
        counts["experiment.csv_bytes"] += len(result.encode("utf-8"))

    def on_learn(result, args, kwargs):
        counts["search.explored_cells"] += len(result.mean_scores)

    def on_ingest(result, args, kwargs):
        corpus, _ = result
        counts["corpus.docs_kept"] += corpus.doc_count
        for reason, n in kwargs.get("skipped", {}).items():
            counts["corpus.pages_skipped." + reason.replace(":", "_")] += n

    def on_store(result, args, kwargs):
        for path in Path(args[2] if len(args) > 2 else kwargs["path"]).rglob("*"):
            if path.is_file():
                counts["corpus.store_files"] += 1
                counts["corpus.store_bytes"] += path.stat().st_size

    def on_load(result, args, kwargs):
        counts["corpus.docs_loaded"] += result[0].doc_count

    class TracedLooEvaluator(search.LooEvaluator):
        def __init__(self, *args, **kwargs):
            with tracer.span("search.evaluator_build"):
                super().__init__(*args, **kwargs)

        def __call__(self, cell):
            with tracer.span("search.cell_eval"):
                return super().__call__(cell)

    patches = [
        (experiment, "learn_priors", tracer.wrap("search.learn_priors", experiment.learn_priors, on_learn)),
        (experiment, "make_training_set", tracer.wrap("experiment.make_training_set", experiment.make_training_set)),
        (experiment, "build_counts", tracer.wrap("model.build_counts", experiment.build_counts, on_counts)),
        (experiment, "LooEvaluator", TracedLooEvaluator),
        (experiment, "multi_start_search", tracer.wrap("search.multi_start_search", experiment.multi_start_search)),
        (experiment, "aggregate_over_seeds", tracer.wrap("search.aggregate_over_seeds", experiment.aggregate_over_seeds)),
        # learn_priors calls it directly, and aggregate_over_seeds calls search's own copy
        (experiment, "cross_seed_mean_scores", tracer.wrap("search.cross_seed_mean_scores", experiment.cross_seed_mean_scores)),
        (search, "cross_seed_mean_scores", tracer.wrap("search.cross_seed_mean_scores", search.cross_seed_mean_scores)),
        (search, "memo_to_csv", tracer.wrap("search.memo_to_csv", search.memo_to_csv)),
        (experiment, "rank_corpus", tracer.wrap("experiment.rank_corpus", experiment.rank_corpus, on_rank)),
        (experiment, "predictions_to_csv", tracer.wrap("experiment.predictions_to_csv", experiment.predictions_to_csv, on_csv)),
        (experiment, "read_predictions_csv", tracer.wrap("experiment.read_predictions_csv", experiment.read_predictions_csv)),
        (experiment, "export_review_list", tracer.wrap("experiment.export_review_list", experiment.export_review_list)),
        (stats, "outcome_vector", tracer.wrap("stats.outcome_vector", stats.outcome_vector)),
        (stats, "bootstrap_ci", tracer.wrap("stats.bootstrap_ci", stats.bootstrap_ci)),
        (stats, "significance_test", tracer.wrap("stats.significance_test", stats.significance_test)),
        (metrics, "ppv_at_k", tracer.wrap("metrics.ppv_at_k", metrics.ppv_at_k)),
        (metrics, "ppv_profile", tracer.wrap("metrics.ppv_profile", metrics.ppv_profile)),
        (cli, "ingest_wiki_dump", tracer.wrap("corpus.ingest_wiki_dump", cli.ingest_wiki_dump, on_ingest)),
        (cli, "store_corpus", tracer.wrap("corpus.store_corpus", cli.store_corpus, on_store)),
        (cli, "load_corpus", tracer.wrap("corpus.load_corpus", cli.load_corpus, on_load)),
    ]
    saved = [(module, name, getattr(module, name)) for module, name, _ in patches]
    try:
        for module, name, new in patches:
            setattr(module, name, new)
        yield tracer
    finally:
        for module, name, old in saved:
            setattr(module, name, old)
