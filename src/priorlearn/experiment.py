"""Seeded experiments: baseline vs. learned-prior corpus ranking.

An experiment fixes a category and a list of PRNG seeds. Every direct
member of the category becomes a positive training case; an equal
number of negatives is sampled per seed from the non-members.
:func:`classify_corpus` ranks the corpus under given priors: the
baseline's are add-one (Bayes-Laplace), and the study's come from
:func:`learn_priors`, which runs a multi-start grid search under every
seed and aggregates the score terrain across seeds.

All randomness flows from the explicit seeds through a fixed, published
generator (numpy PCG64 driving a partial Fisher-Yates shuffle), so a
rerun with the same inputs reproduces every output byte.
"""

from __future__ import annotations

import csv
import math
import re
from array import array
from dataclasses import dataclass, field
from itertools import count
from string import Formatter
from typing import AbstractSet, ClassVar, Iterable, Mapping
from urllib.parse import quote

import numpy as np

from .corpus import CategoryIndex, Corpus
from .model import (
    CountModel,
    Hyperparameters,
    build_counts,
    class_prior,
    cond_probs,
    positive_posteriors,
)
from .search import (
    DEFAULT_GRID,
    Cell,
    CellScore,
    ClassHalves,
    LooEvaluator,
    MoveRecord,
    aggregate_over_seeds,
    # not called here; the benchmark's tracer patches this name (tests/test_bench_contract.py)
    cross_seed_mean_scores,
    default_starts,
    multi_start_search,
)

__all__ = [
    "ExperimentSpec",
    "TrainingSet",
    "RankedPredictions",
    "PriorSearchResult",
    "PRNG_NAME",
    "sample_negatives",
    "make_training_set",
    "training_model",
    "rank_corpus",
    "classify_corpus",
    "learn_priors",
    "export_review_list",
    "predictions_to_csv",
    "read_predictions_csv",
]

#: Recorded in run manifests: sampling algorithm and generator identity.
PRNG_NAME = "numpy-pcg64/partial-fisher-yates"

DEFAULT_LINK_TEMPLATE = "https://en.wikipedia.org/wiki/{title}"


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything that determines an experiment's outputs.

    ``seeds[0]`` is the reporting seed: its training set backs the
    ranked classification of both branches.
    """

    corpus: Corpus
    categories: CategoryIndex
    category: str
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    grid: ClassVar[tuple[float, ...]] = DEFAULT_GRID  # kept: the benchmark reads spec.grid
    starts: tuple[Cell, ...] = field(default_factory=default_starts)
    top_n: int = 1000

    def __post_init__(self) -> None:
        if self.category not in self.categories:
            raise ValueError(f"category {self.category!r} not in the index")
        if not self.seeds:
            raise ValueError("need at least one seed")
        for i, seed in enumerate(self.seeds):
            if seed < 0:
                raise ValueError(f"seed {seed} is negative")
            if seed in self.seeds[:i]:
                raise ValueError(f"seed {seed} is repeated; each seed draws one negative sample")
        if self.top_n < 1:
            raise ValueError("top_n must be >= 1")


@dataclass(frozen=True)
class TrainingSet:
    """Positive ids (all direct category members) and a seeded negative sample."""

    positive_ids: tuple[int, ...]
    negative_ids: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class RankedPredictions:
    """Corpus ranking, descending by log odds with ascending-id tie-break.

    Three aligned columns in rank order: ``ids`` (int64), ``p_pos`` and
    ``log_odds`` (float64).
    """

    ids: np.ndarray
    p_pos: np.ndarray = field(repr=False)
    log_odds: np.ndarray = field(repr=False)

    @property
    def positives_predicted(self) -> int:
        return int(np.count_nonzero(self.p_pos > 0.5))

    def doc_ids(self) -> list[int]:
        return self.ids.tolist()

    def __len__(self) -> int:
        return len(self.ids)


def sample_negatives(
    corpus: Corpus, categories: CategoryIndex, category: str, k: int, seed: int
) -> frozenset[int]:
    """Draw ``k`` non-member ids uniformly without replacement.

    The draw is a partial Fisher-Yates shuffle over the ascending-sorted
    non-member ids, using numpy's PCG64 stream for ``seed``; identical
    inputs always yield the identical sample.
    """
    pool = corpus.doc_ids[~np.isin(corpus.doc_ids, categories.row(category))]
    if len(pool) < k:
        raise ValueError(f"only {len(pool)} non-members available, need {k}")
    # one draw per step i from [i, len(pool)), all in one call: the same stream
    swaps = np.random.default_rng(seed).integers(np.arange(k), len(pool))
    touched, slots = np.unique(np.append(np.arange(k), swaps), return_inverse=True)  # 0 .. k-1 come first
    ids = pool[touched].tolist()  # the swaps run on these Python ints, not on the whole pool
    for i, j in enumerate(slots[k:].tolist()):
        ids[i], ids[j] = ids[j], ids[i]
    return frozenset(ids[:k])


def make_training_set(
    corpus: Corpus, categories: CategoryIndex, category: str, seed: int
) -> TrainingSet:
    """All direct members as positives, an equal-size seeded negative sample."""
    positives = tuple(categories.row(category).tolist())
    if not positives:
        raise ValueError(f"category {category!r} has no members")
    negatives = sorted(sample_negatives(corpus, categories, category, len(positives), seed))
    return TrainingSet(positive_ids=positives, negative_ids=tuple(negatives))


def training_model(corpus: Corpus, training: TrainingSet) -> CountModel:
    """The count model of ``training``, gathered from the token rows of ``corpus``."""
    return build_counts(corpus, training.positive_ids, training.negative_ids)


def _log_weights(positive: bool, model: CountModel, hp: Hyperparameters, corpus: Corpus) -> np.ndarray:
    """One class's log term per corpus slot.

    Slot 0 holds the log class prior and the slot of each model feature
    found in the corpus vocabulary holds its log conditional, each from
    ``math.log`` (``np.log`` may differ in the last bit); every other slot
    holds ``0.0``.
    """
    weights = np.zeros(len(corpus.vocabulary) + 1)
    slots = np.fromiter(map(corpus.slot, model.features), dtype=np.int64, count=len(model.features))
    found = slots > 0
    weights[slots[found]] = list(map(math.log, cond_probs(positive, model, hp)[found].tolist()))
    weights[0] = math.log(class_prior(positive, model, hp))
    return weights


def rank_corpus(
    corpus: Corpus,
    model: CountModel,
    hp: Hyperparameters,
    exclude_ids: frozenset[int] | set[int] = frozenset(),
) -> RankedPredictions:
    """Score every corpus document outside ``exclude_ids`` and rank them.

    Documents are scored over the corpus's token rows, one block of rows
    at a time (:meth:`~priorlearn.corpus.Corpus.row_blocks`). A
    document's log score per class is the ``bincount`` sum of its row: the
    log prior, then the log conditional of each token in sorted order. The
    ``+0.0`` of a non-feature token leaves the strictly negative sum
    unchanged, so ``log_odds`` is bit-identical to scoring each document's
    feature tokens one at a time in sorted order, and ``p_pos`` (from
    :func:`~priorlearn.model.positive_posteriors` on the sorted log odds)
    to normalizing each document's two log scores by max-subtraction.
    """
    weights = [_log_weights(positive, model, hp, corpus) for positive in (True, False)]
    log_pos, log_neg = sums = np.empty((2, len(corpus.doc_ids)))
    for a, b in corpus.row_blocks():
        # bincount adds each row's weights in order, so a block's sums are the whole array's
        rows = np.repeat(np.arange(b - a), np.diff(corpus.offsets[a : b + 1]))
        block = corpus.slots[corpus.offsets[a] : corpus.offsets[b]]
        for out, class_weights in zip(sums, weights):
            out[a:b] = np.bincount(rows, weights=class_weights[block], minlength=b - a)
    excluded = np.fromiter(exclude_ids, dtype=np.int64, count=len(exclude_ids))
    keep = ~np.isin(corpus.doc_ids, excluded)
    doc_ids, log_odds = corpus.doc_ids[keep], (log_pos - log_neg)[keep]
    order = np.lexsort((doc_ids, -log_odds))
    log_odds = log_odds[order]
    return RankedPredictions(ids=doc_ids[order], p_pos=positive_posteriors(log_odds), log_odds=log_odds)


def classify_corpus(
    spec: ExperimentSpec, hp: Hyperparameters
) -> tuple[CountModel, RankedPredictions]:
    """Rank the corpus under ``hp`` with the reporting seed's model.

    The model is trained on the ``seeds[0]`` training set, and that set's
    positives are left out of the ranking. Returns the model and the
    ranking.
    """
    training = make_training_set(spec.corpus, spec.categories, spec.category, spec.seeds[0])
    model = training_model(spec.corpus, training)
    ranked = rank_corpus(spec.corpus, model, hp, exclude_ids=frozenset(training.positive_ids))
    return model, ranked


@dataclass(frozen=True)
class PriorSearchResult:
    """Learned priors plus the artifacts of the per-seed searches."""

    cell: Cell
    hyperparameters: Hyperparameters
    mean_ppv: float
    memos: tuple[dict[Cell, CellScore], ...]
    mean_scores: dict[Cell, CellScore] = field(repr=False)
    evaluations: int
    move_logs: tuple[tuple[MoveRecord, ...], ...]


def learn_priors(spec: ExperimentSpec) -> PriorSearchResult:
    """Multi-start search under every seed, then cross-seed aggregation.

    Every seed's training set is drawn first. The positives are the same
    under every seed, so one model over them and the union of all seeds'
    negatives holds every seed's folds, and each seed's evaluator is its
    columns of it. One positive class over the union serves every seed,
    each half computed once per grid value. Each seed gets its own
    negative class and memo, which its nine searches share. The aggregate
    winner is the cell with the best mean ppv over the back-filled union
    of explored cells (see :func:`~priorlearn.search.aggregate_over_seeds`).
    ``evaluations`` counts the search evaluations, not the back-fills.
    """
    trainings = [make_training_set(spec.corpus, spec.categories, spec.category, seed) for seed in spec.seeds]
    positives, union = trainings[0].positive_ids, np.array(sorted(set().union(*(t.negative_ids for t in trainings))))
    model = build_counts(spec.corpus, positives, union.tolist())
    positive = ClassHalves(model, True, np.arange(model.n_folds))
    # a seed's folds are its positives, then its negatives in id order, as are the union's
    head = np.arange(len(positives))
    columns = [np.append(head, len(head) + np.searchsorted(union, t.negative_ids)) for t in trainings]
    evaluators = [LooEvaluator(model, seed_columns, positive) for seed_columns in columns]
    del model  # the evaluators hold all the search needs
    memos, move_logs = [{} for _ in evaluators], [[] for _ in evaluators]
    for evaluator, memo, moves in zip(evaluators, memos, move_logs):
        multi_start_search(spec.starts, evaluator, memo, moves)
    evaluations = sum(map(len, memos))
    cell, means = aggregate_over_seeds(memos, evaluators)
    return PriorSearchResult(
        cell=cell,
        hyperparameters=Hyperparameters(DEFAULT_GRID[cell.x], DEFAULT_GRID[cell.y]),
        mean_ppv=means[cell].ppv,
        memos=tuple(memos),
        mean_scores=means,
        evaluations=evaluations,
        move_logs=tuple(map(tuple, move_logs)),
    )


def export_review_list(
    a: RankedPredictions,
    b: RankedPredictions,
    titles: Mapping[int, str],
    top_n: int = 1000,
    link_template: str = DEFAULT_LINK_TEMPLATE,
) -> str:
    """Merge two top-n lists into one blinded, alphabetized HTML review page.

    Titles from both lists are pooled, deduplicated, and sorted, so the
    page carries no trace of which model proposed which article, nor any
    scores. ``link_template`` names no replacement field but ``{title}``,
    which may take a conversion and a format spec; raises ``ValueError``
    naming a template with any other field, in a spec too.
    """
    import html  # its entity table, ~0.5 MB: only a process writing a review page pays its import

    if top_n < 1:
        raise ValueError(f"top_n must be >= 1, got {top_n}")
    formatter = Formatter()
    for _, name, spec, _ in formatter.parse(link_template):
        # {0} or {other} has no value and {title.upper} would link a method's repr;
        # a spec may hold fields of its own, as in {title:{0}}
        inner = [field for _, field, _, _ in formatter.parse(spec or "")]
        if {name, *inner} - {"title", None}:
            raise ValueError(f"link template {link_template!r} has a replacement field other than {{title}}")
    names = sorted(
        {titles[doc_id] for doc_id in a.ids[:top_n].tolist()}
        | {titles[doc_id] for doc_id in b.ids[:top_n].tolist()}
    )
    lines = [
        "<!DOCTYPE html>",
        "<html><head><meta charset=\"utf-8\"><title>Review list</title></head><body>",
        "<ul>",
    ]
    for title in names:
        href = link_template.format(title=quote(title.replace(" ", "_")))
        lines.append(f'<li><a href="{href}">{html.escape(title, quote=False)}</a></li>')
    lines += ["</ul>", "</body></html>", ""]
    return "\n".join(lines)


_CSV_HEADER = "rank,doc_id,title,log_odds,p_pos"
_NEEDS_QUOTES = re.compile('[,"\r\n]')
_CSV_BLOCK = 4096  # ranks per block of predictions_to_csv's rows


def predictions_to_csv(ranked: RankedPredictions, titles: Mapping[int, str]) -> str:
    """CSV rendering: rank, doc_id, title, log_odds, p_pos.

    One ``\\n``-terminated line per document, the floats as their ``repr``.
    A title holding ``,``, ``"``, CR or LF is quoted with each ``"``
    doubled, as ``csv.writer(lineterminator="\\n")`` does, except that
    writer leaves a CR unquoted, which no reader can parse back.
    """
    blocks = [_CSV_HEADER + "\n"]
    # a block of ranks at a time: the Python numbers and row strings of every rank at once outweigh the text
    for start in range(0, len(ranked), _CSV_BLOCK):
        end = start + _CSV_BLOCK
        blocks.append("".join([
            f"{rank},{doc_id},{_csv_field(titles[doc_id])},{log_odds!r},{p_pos!r}\n"
            for rank, doc_id, log_odds, p_pos in zip(
                count(start + 1), ranked.ids[start:end].tolist(), ranked.log_odds[start:end].tolist(),
                ranked.p_pos[start:end].tolist(),
            )
        ]))
    return "".join(blocks)


def _csv_field(text: str) -> str:
    return '"' + text.replace('"', '""') + '"' if _NEEDS_QUOTES.search(text) else text


def read_predictions_csv(
    lines: Iterable[str], title_ranks: int, title_ids: AbstractSet[int] = frozenset()
) -> tuple[RankedPredictions, dict[int, str]]:
    """Parse a predictions CSV back into its ranking columns and an id->title map.

    ``lines`` are the file's lines with their line breaks untranslated, as
    from the file opened with ``newline="\\n"``. Each row is parsed as it
    is read into the three columns. The map holds the titles of the first
    ``title_ranks`` rows and of the rows whose id is in ``title_ids``.
    Raises ``ValueError`` naming the line or row that does not parse, or
    the row that repeats a doc id; of these faults, the first in the file.
    """
    reader = csv.reader(lines, strict=True)
    ids, log_odds, p_pos, titles = array("q"), array("d"), array("d"), {}
    last_titled = title_ranks + 1  # the line of the last row titled by rank
    try:
        header = next(reader, None)
        if header != _CSV_HEADER.split(","):
            raise ValueError(f"unexpected predictions header: {header}")
        for number, row in enumerate(reader, 2):
            if len(row) != 5:
                raise ValueError(f"predictions CSV row {number} does not have 5 fields")
            _, doc_id, title, row_log_odds, row_p_pos = row
            doc_id = int(doc_id)
            if not -(2**63) <= doc_id < 2**63:
                raise ValueError(f"predictions CSV row {number}: doc id {doc_id} is too large for int64")
            ids.append(doc_id)  # before the floats: a row repeating an id is reported as a repeat
            log_odds.append(float(row_log_odds))
            p_pos.append(float(row_p_pos))
            if number <= last_titled or doc_id in title_ids:
                titles[doc_id] = title
    # a repeat in the rows read so far comes before the fault that stopped the reading
    except csv.Error as exc:
        _reject_repeated_ids(ids)
        raise ValueError(f"unreadable predictions CSV at line {reader.line_num}: {exc}") from None
    except ValueError:
        _reject_repeated_ids(ids)
        raise
    _reject_repeated_ids(ids)
    columns = (np.frombuffer(column, dtype=column.typecode) for column in (ids, p_pos, log_odds))
    return RankedPredictions(*columns), titles


def _reject_repeated_ids(ids: array) -> None:
    """Raise ``ValueError`` naming the first predictions CSV row whose doc id an earlier row holds."""
    column = np.frombuffer(ids, dtype=np.int64)
    order = np.argsort(column, kind="stable")  # equal ids stay in row order
    sorted_ids = column[order]
    later = order[1:][sorted_ids[1:] == sorted_ids[:-1]]
    if len(later):
        row = int(later.min())
        raise ValueError(f"predictions CSV row {row + 2}: doc id {ids[row]} is repeated") from None

