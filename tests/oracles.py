"""Independent reference computations the real code paths are checked against.

Everything here recomputes results by the most literal route available:
exact rational arithmetic for posteriors, full retraining for held-out
folds, dense numpy grids for search surfaces, a string-token count model
of ``dict``s built straight from ``Document``s with its scalar ``score``
and ``loo_score`` for corpus rankings and grid cells, both halves of the
LOO log odds recomputed for every cell, the cross-seed means summed one
cell and one seed at a time, one swap per draw (or one draw call and the
whole pool swapped in place) for negative sampling, float means and one
draw of every index for bootstrap resamples, one character at a time for
punctuation stripping, ``scipy.stats`` for the Welch t-test, one rank
at a time for the top-k counts, one ``csv`` module row per document for
the predictions CSV, one ``Generator.choice`` call per document for the
synthetic corpus, a ``Cell`` built for every neighbour the hill climber
looks up, the fixed twice-the-tokens rule for the LOO fold tables, one
``members`` call per name for a category index's entries, one row of
the columns at a time for a corpus's documents (its row found by one
``searchsorted`` for a document by id), and one ``str.splitlines`` line
at a time for the References cut. No
reference calls the code paths under test beyond plain data types and
the two ratio formulas ``ppv_of`` and ``sensitivity_of``, which
``tests/test_metrics.py`` checks on hand-counted cases.

The test tools sit at the end: :func:`from_documents`, the corpus of
given documents through ``Corpus.from_rows``, :func:`class_halves` and
:func:`loo_evaluator`, LOO evaluation over every fold of a model,
:func:`seeded_rows_corpus`, the seeded rows of the scale probe,
:func:`peak_bytes`, one call's tracemalloc peak, and
:func:`retained_bytes`, what one call leaves allocated.
"""

import csv
import io
import math
import re
import string
import tracemalloc
import unicodedata
import warnings
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import NamedTuple

import numpy as np
from scipy import stats as sps

from priorlearn.corpus import CategoryIndex, Corpus, Document
from priorlearn.metrics import ppv_of, sensitivity_of
from priorlearn.model import Hyperparameters
from priorlearn.search import DEFAULT_GRID, Cell, CellScore, ClassHalves, LooEvaluator, MoveRecord, SearchOutcome
from priorlearn.stats import BootstrapCI
from priorlearn.synthetic import (
    CATEGORY,
    HIDDEN_POSITIVE_RATE,
    TOKENS_PER_DOC,
    TOPIC_BOOST,
    SyntheticCorpus,
)


# --- the string-token count model and its scalar formulas ---------------------


@dataclass(frozen=True)
class DictModel:
    """Per-class document counts as ``dict``s over the positive-union features.

    ``doc_labels``/``doc_tokens`` hold the training folds, positives first,
    each fold's tokens sorted and intersected with ``features``.
    """

    n_pos: int
    n_neg: int
    features: frozenset
    pos_count: dict
    neg_count: dict
    doc_labels: tuple
    doc_tokens: tuple

    @property
    def total(self):
        return self.n_pos + self.n_neg

    @property
    def n_folds(self):
        return len(self.doc_labels)

    @cached_property
    def loo_tokens(self):
        """Every fold's retained tokens, one token at a time: fold index and
        each class's count less the fold's own document, as flat arrays."""
        doc_idx, pos_counts, neg_counts = [], [], []
        for fold, tokens in enumerate(self.doc_tokens):
            dec = 1.0 if self.doc_labels[fold] else 0.0
            for t in tokens:
                doc_idx.append(fold)
                pos_counts.append(self.pos_count.get(t, 0) - dec)
                neg_counts.append(self.neg_count.get(t, 0) - (1.0 - dec))
        return (
            np.array(doc_idx, dtype=np.intp),
            np.array(pos_counts, dtype=np.float64),
            np.array(neg_counts, dtype=np.float64),
        )


def dict_model(positives, negatives):
    """Count each document's sorted tokens into two ``dict``s, one token at a time."""
    if not positives:
        raise ValueError("positives must be nonempty")
    pos_ids = {doc.id for doc in positives}
    neg_ids = {doc.id for doc in negatives}
    if pos_ids & neg_ids:
        raise ValueError(f"documents on both sides: {sorted(pos_ids & neg_ids)}")
    features = set().union(*(doc.tokens for doc in positives))
    pos_count, neg_count, doc_labels, doc_tokens = {}, {}, [], []
    for docs, label, table in ((positives, True, pos_count), (negatives, False, neg_count)):
        for doc in docs:
            retained = tuple(sorted(doc.tokens & features))
            for t in retained:
                table[t] = table.get(t, 0) + 1
            doc_labels.append(label)
            doc_tokens.append(retained)
    return DictModel(
        n_pos=len(positives),
        n_neg=len(negatives),
        features=frozenset(features),
        pos_count=pos_count,
        neg_count=neg_count,
        doc_labels=tuple(doc_labels),
        doc_tokens=tuple(doc_tokens),
    )


class Posterior(NamedTuple):
    """Two-class posterior: probability of the positive class and log odds."""

    p_pos: float
    log_odds: float

    @property
    def p_neg(self):
        return 1.0 - self.p_pos


def cond_prob(token, positive, model, hp):
    """``(lambda_c + n(token, c)) / (lambda_c + n(c))``; the token must be a feature."""
    if token not in model.features:
        raise ValueError(f"token {token!r} is not a model feature")
    if positive:
        return (hp.lambda_pos + model.pos_count.get(token, 0)) / (hp.lambda_pos + model.n_pos)
    return (hp.lambda_neg + model.neg_count.get(token, 0)) / (hp.lambda_neg + model.n_neg)


def class_prior(positive, model, hp):
    """``(lambda_c + n(c)) / (lambda_pos + lambda_neg + N)``."""
    denom = hp.lambda_pos + hp.lambda_neg + model.total
    if positive:
        return (hp.lambda_pos + model.n_pos) / denom
    return (hp.lambda_neg + model.n_neg) / denom


def positive_posterior(log_pos, log_neg):
    """p(pos) from the two classes' log scores, normalized with max-subtraction."""
    m = max(log_pos, log_neg)
    w_pos = math.exp(log_pos - m)
    w_neg = math.exp(log_neg - m)
    return w_pos / (w_pos + w_neg)


def _posterior_from_logs(log_pos, log_neg):
    return Posterior(p_pos=positive_posterior(log_pos, log_neg), log_odds=log_pos - log_neg)


def score(case_tokens, model, hp):
    """Posterior of a case's token set: log prior, then each feature token in sorted order."""
    log_pos = math.log(class_prior(True, model, hp))
    log_neg = math.log(class_prior(False, model, hp))
    for t in sorted(case_tokens & model.features):
        log_pos += math.log(cond_prob(t, True, model, hp))
        log_neg += math.log(cond_prob(t, False, model, hp))
    return _posterior_from_logs(log_pos, log_neg)


def loo_score(held_out_index, model, hp):
    """Posterior of a training fold with its own class count, N and token counts less one.

    The feature set stays frozen; the model is not modified.
    """
    if not 0 <= held_out_index < model.n_folds:
        raise IndexError(f"fold index {held_out_index} out of range 0..{model.n_folds - 1}")
    label = model.doc_labels[held_out_index]
    adj_pos = model.n_pos - (1 if label else 0)
    adj_neg = model.n_neg - (0 if label else 1)
    denom = hp.lambda_pos + hp.lambda_neg + model.total - 1
    log_pos = math.log((hp.lambda_pos + adj_pos) / denom)
    log_neg = math.log((hp.lambda_neg + adj_neg) / denom)
    for t in model.doc_tokens[held_out_index]:
        t_pos = model.pos_count.get(t, 0) - (1 if label else 0)
        t_neg = model.neg_count.get(t, 0) - (0 if label else 1)
        log_pos += math.log((hp.lambda_pos + t_pos) / (hp.lambda_pos + adj_pos))
        log_neg += math.log((hp.lambda_neg + t_neg) / (hp.lambda_neg + adj_neg))
    return _posterior_from_logs(log_pos, log_neg)


def classify(case_tokens, model, hp):
    """True iff the positive posterior exceeds 1/2; an exact tie is negative."""
    return score(case_tokens, model, hp).p_pos > 0.5


# --- references for the production paths -------------------------------------


def exact_posterior(case_tokens, positives, negatives, lam_neg, lam_pos):
    """Direct two-class posterior via exact rationals.

    ``positives``/``negatives`` are sequences of token sets. ``lam_*``
    must be Fractions (or ints) so everything stays exact.
    """
    lam_neg, lam_pos = Fraction(lam_neg), Fraction(lam_pos)
    features = set().union(*positives) if positives else set()
    n_pos, n_neg = len(positives), len(negatives)
    total = n_pos + n_neg

    prior_pos = (lam_pos + n_pos) / (lam_pos + lam_neg + total)
    prior_neg = (lam_neg + n_neg) / (lam_pos + lam_neg + total)
    w_pos, w_neg = prior_pos, prior_neg
    for t in sorted(set(case_tokens) & features):
        c_pos = sum(1 for d in positives if t in d)
        c_neg = sum(1 for d in negatives if t in d)
        w_pos *= (lam_pos + c_pos) / (lam_pos + n_pos)
        w_neg *= (lam_neg + c_neg) / (lam_neg + n_neg)
    return w_pos / (w_pos + w_neg)


def retrained_loo_posterior(fold, positives, negatives, lam_neg, lam_pos):
    """Hold out one training document and retrain from scratch.

    The feature set stays the full positive union (including the
    held-out document's tokens). ``fold`` indexes positives first, then
    negatives. Returns the exact rational posterior of the held-out
    document's tokens under the reduced counts.
    """
    lam_neg, lam_pos = Fraction(lam_neg), Fraction(lam_pos)
    docs = [(tokens, True) for tokens in positives] + [(tokens, False) for tokens in negatives]
    held_tokens, _ = docs[fold]
    rest = [d for i, d in enumerate(docs) if i != fold]
    features = set().union(*positives)

    n_pos = sum(1 for _, lab in rest if lab)
    n_neg = len(rest) - n_pos
    prior_pos = (lam_pos + n_pos) / (lam_pos + lam_neg + len(rest))
    prior_neg = (lam_neg + n_neg) / (lam_pos + lam_neg + len(rest))
    w_pos, w_neg = prior_pos, prior_neg
    for t in sorted(set(held_tokens) & features):
        c_pos = sum(1 for tokens, lab in rest if lab and t in tokens)
        c_neg = sum(1 for tokens, lab in rest if not lab and t in tokens)
        w_pos *= (lam_pos + c_pos) / (lam_pos + n_pos)
        w_neg *= (lam_neg + c_neg) / (lam_neg + n_neg)
    return w_pos / (w_pos + w_neg)


def evaluate_priors(cell, model):
    """Score one grid cell by leave-one-out classification of every fold.

    Each training case is scored with its own counts removed by the scalar
    ``loo_score`` and classified positive iff its posterior log odds are
    positive (the p > 1/2 rule); the tallies against the training labels
    yield (ppv, sensitivity). The reference for ``LooEvaluator``.
    """
    hp = Hyperparameters(DEFAULT_GRID[cell.x], DEFAULT_GRID[cell.y])
    tp = fp = fn = 0
    for fold in range(model.n_folds):
        predicted = loo_score(fold, model, hp).log_odds > 0.0
        actual = model.doc_labels[fold]
        if predicted and actual:
            tp += 1
        elif predicted:
            fp += 1
        elif actual:
            fn += 1
    return CellScore(ppv=ppv_of(tp, fp), sensitivity=sensitivity_of(tp, fn))


def _check_k(ranked_ids, k):
    if not 1 <= k <= len(ranked_ids):
        raise ValueError(f"k={k} out of range 1..{len(ranked_ids)}")


def loop_outcome_vector(ranked_ids, truth, k):
    """Bit per rank 1..k, one membership test per rank."""
    _check_k(ranked_ids, k)
    return np.array([1 if doc_id in truth else 0 for doc_id in ranked_ids[:k]], dtype=np.int8)


def loop_ppv_at_k(ranked_ids, truth, k):
    """Hits in the top ``k`` counted one rank at a time, over ``k``."""
    _check_k(ranked_ids, k)
    hits = sum(1 for doc_id in ranked_ids[:k] if doc_id in truth)
    return hits / k


def loop_ppv_profile(ranked_ids, truth, K):
    """(rank, cumulative hits, cumulative ppv) per rank, hits added one rank at a time."""
    _check_k(ranked_ids, K)
    entries = []
    hits = 0
    for k, doc_id in enumerate(ranked_ids[:K], start=1):
        hits += doc_id in truth
        entries.append((k, hits, hits / k))
    return tuple(entries)


def per_cell_log_odds(model, cell):
    """Per-fold LOO log odds of one cell, both class halves computed for it.

    Takes every fold's retained tokens flattened with their counts less
    the fold's own document (``model.loo_tokens``), then sums each class's
    log terms per fold with ``bincount``. The reference for
    ``LooEvaluator.log_odds``, bit for bit.
    """
    hp = Hyperparameters(DEFAULT_GRID[cell.x], DEFAULT_GRID[cell.y])
    lpos, lneg = hp.lambda_pos, hp.lambda_neg
    own = np.array(model.doc_labels, dtype=np.float64)  # 1 where the fold is positive
    doc_idx, pos_counts, neg_counts = model.loo_tokens
    n_folds = model.n_folds
    n_tokens = np.bincount(doc_idx, minlength=n_folds).astype(np.float64)
    adj_pos = model.n_pos - own
    adj_neg = model.n_neg - (1.0 - own)
    # class-prior denominators cancel between the two classes
    log_pos = np.log(lpos + adj_pos)
    log_neg = np.log(lneg + adj_neg)
    log_pos += np.bincount(
        doc_idx, weights=np.log(lpos + pos_counts), minlength=n_folds
    ) - n_tokens * np.log(lpos + adj_pos)
    log_neg += np.bincount(
        doc_idx, weights=np.log(lneg + neg_counts), minlength=n_folds
    ) - n_tokens * np.log(lneg + adj_neg)
    return log_pos - log_neg


def scalar_ranking(corpus, model, hp, exclude_ids=frozenset()):
    """Rank a corpus one ``score`` call per document over a :class:`DictModel`.

    Returns ``(doc_id, p_pos, log_odds)`` triples sorted on
    ``(-log_odds, doc_id)``: descending log odds, ties by ascending id.
    """
    rows = []
    for doc in corpus:
        if doc.id not in exclude_ids:
            posterior = score(doc.tokens, model, hp)
            rows.append((doc.id, posterior.p_pos, posterior.log_odds))
    rows.sort(key=lambda row: (-row[2], row[0]))
    return tuple(rows)


def entries(ranked):
    """A ranking's columns as ``(doc_id, p_pos, log_odds)`` triples of Python numbers."""
    return tuple(zip(ranked.ids.tolist(), ranked.p_pos.tolist(), ranked.log_odds.tolist()))


def writer_predictions_csv(entries, titles):
    """Predictions CSV from ``(doc_id, p_pos, log_odds)`` triples, one ``csv.writer`` row each."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["rank", "doc_id", "title", "log_odds", "p_pos"])
    for rank, (doc_id, p_pos, log_odds) in enumerate(entries, start=1):
        writer.writerow([rank, doc_id, titles[doc_id], repr(log_odds), repr(p_pos)])
    return out.getvalue()


def reader_predictions_csv(text):
    """``(doc_id, p_pos, log_odds)`` triples and an id->title map, one ``csv.reader`` row each."""
    reader = csv.reader(io.StringIO(text))
    assert next(reader) == ["rank", "doc_id", "title", "log_odds", "p_pos"]
    rows, titles = [], {}
    for _, doc_id, title, log_odds, p_pos in reader:
        rows.append((int(doc_id), float(p_pos), float(log_odds)))
        titles[int(doc_id)] = title
    return tuple(rows), titles


def scalar_sample_negatives(corpus, categories, category, k, seed):
    """Partial Fisher-Yates shuffle, one ``rng.integers(i, len(pool))`` per step."""
    members = categories.members(category)
    pool = np.array([doc_id for doc_id in corpus.doc_ids.tolist() if doc_id not in members], dtype=np.int64)
    rng = np.random.default_rng(seed)
    for i in range(k):
        j = int(rng.integers(i, len(pool)))
        pool[i], pool[j] = pool[j], pool[i]
    return frozenset(int(doc_id) for doc_id in pool[:k])


def array_swap_sample_negatives(corpus, categories, category, k, seed):
    """Partial Fisher-Yates shuffle, all draws in one call, each swap on the whole pool array."""
    pool = corpus.doc_ids[~np.isin(corpus.doc_ids, categories.row(category))]
    swaps = np.random.default_rng(seed).integers(np.arange(k), len(pool)).tolist()
    for i, j in enumerate(swaps):
        pool[i], pool[j] = pool[j], pool[i]
    return frozenset(pool[:k].tolist())


def loop_cross_seed_mean_scores(memos, evaluators):
    """Cross-seed means one cell at a time, each a float sum over the seeds in order.

    A cell missing from a seed's memo is evaluated and stored, as
    ``cross_seed_mean_scores`` back-fills.
    """
    means = {}
    for cell in sorted(set().union(*memos)):
        ppv_sum = 0.0
        sens_sum = 0.0
        for memo, evaluator in zip(memos, evaluators):
            score = memo.get(cell)
            if score is None:
                score = memo[cell] = evaluator(cell)
            ppv_sum += score.ppv
            sens_sum += score.sensitivity
        means[cell] = CellScore(ppv=ppv_sum / len(memos), sensitivity=sens_sum / len(memos))
    return means


def mean_bootstrap_ci(outcomes, B=10_000, alpha=0.05, seed=0):
    """Percentile bootstrap with each resample mean a float ``mean`` of the resample."""
    v = np.asarray(outcomes, dtype=np.float64)
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, v.size, size=(B, v.size))
    lo, hi = np.quantile(v[idx].mean(axis=1), [alpha / 2.0, 1.0 - alpha / 2.0])
    return BootstrapCI(lo=float(lo), hi=float(hi))


def one_draw_bootstrap_ci(outcomes, B=10_000, alpha=0.05, seed=0):
    """Percentile bootstrap with all ``B`` resamples' indices drawn in one ``(B, size)`` call."""
    v = np.asarray(outcomes)
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, v.size, size=(B, v.size))
    means = np.count_nonzero(v.astype(bool)[idx], axis=1) / v.size
    lo, hi = np.quantile(means, [alpha / 2.0, 1.0 - alpha / 2.0])
    return BootstrapCI(lo=float(lo), hi=float(hi))


def tally_counts(positives, negatives):
    """Brute-force per-token document counts over the positive union."""
    features = set().union(*(d.tokens for d in positives))
    pos_count = {t: sum(1 for d in positives if t in d.tokens) for t in features}
    neg_count = {t: sum(1 for d in negatives if t in d.tokens) for t in features}
    return features, pos_count, {t: c for t, c in neg_count.items() if c}


# --- synthetic search surfaces -------------------------------------------------


def unimodal_surface(rng: np.random.Generator, size: int = 203):
    """A dense (ppv, sensitivity) surface with one strict peak."""
    cx, cy = int(rng.integers(0, size)), int(rng.integers(0, size))
    a = float(rng.uniform(0.5, 3.0))
    b = float(rng.uniform(0.5, 3.0))
    xs = np.arange(size)[:, None]
    ys = np.arange(size)[None, :]
    ppv = 1.0 / (1.0 + a * (xs - cx) ** 2 + b * (ys - cy) ** 2)
    return ppv, np.zeros_like(ppv)


def two_bump_surface(rng: np.random.Generator, size: int = 203):
    """Two basins of strictly different heights."""
    while True:
        c1 = (int(rng.integers(0, size)), int(rng.integers(0, size)))
        c2 = (int(rng.integers(0, size)), int(rng.integers(0, size)))
        if abs(c1[0] - c2[0]) + abs(c1[1] - c2[1]) > 40:
            break
    h1, h2 = 1.0, float(rng.uniform(0.4, 0.8))
    xs = np.arange(size)[:, None]
    ys = np.arange(size)[None, :]
    bump1 = h1 / (1.0 + 0.05 * ((xs - c1[0]) ** 2 + (ys - c1[1]) ** 2))
    bump2 = h2 / (1.0 + 0.05 * ((xs - c2[0]) ** 2 + (ys - c2[1]) ** 2))
    ppv = np.maximum(bump1, bump2)
    return ppv, np.zeros_like(ppv)


def surface_evaluator(ppv: np.ndarray, sens: np.ndarray):
    def evaluate(cell: Cell) -> CellScore:
        return CellScore(float(ppv[cell.x, cell.y]), float(sens[cell.x, cell.y]))

    return evaluate


def brute_force_argmax(ppv: np.ndarray, sens: np.ndarray) -> Cell:
    """Lexicographic argmax over the dense surface, smallest cell on ties."""
    best = None
    best_score = None
    flat = np.argwhere(ppv == ppv.max())
    for x, y in flat:
        score = (float(ppv[x, y]), float(sens[x, y]))
        if best_score is None or score > best_score or (score == best_score and (x, y) < best):
            best, best_score = (int(x), int(y)), score
    return Cell(*best)


def is_local_max(cell: Cell, ppv: np.ndarray, sens: np.ndarray, radius: int = 2) -> bool:
    """No in-bounds neighbor within Chebyshev ``radius`` beats the cell."""
    size_x, size_y = ppv.shape
    here = (float(ppv[cell.x, cell.y]), float(sens[cell.x, cell.y]))
    for dx in range(-radius, radius + 1):
        for dy in range(-radius, radius + 1):
            if dx == 0 and dy == 0:
                continue
            x, y = cell.x + dx, cell.y + dy
            if 0 <= x < size_x and 0 <= y < size_y:
                if (float(ppv[x, y]), float(sens[x, y])) > here:
                    return False
    return True


def cell_per_neighbor_radial_search(start, evaluator, memo, move_log):
    """``radial_gradient_search`` building a ``Cell`` for every neighbour it looks up."""
    size = len(DEFAULT_GRID)
    if not (0 <= start.x < size and 0 <= start.y < size):
        raise ValueError(f"start {start} out of bounds for the {size}x{size} grid")

    def lookup(cell):
        score = memo.get(cell)
        if score is None:
            score = memo[cell] = evaluator(cell)
        return score

    best = start
    best_score = lookup(start)
    while True:
        improved = False
        cx, cy = best
        for i in range(-2, 3):
            for j in range(-2, 3):
                nx, ny = cx + i, cy + j
                if (i, j) == (0, 0) or not (0 <= nx < size and 0 <= ny < size):
                    continue
                neighbor = Cell(nx, ny)
                neighbor_score = lookup(neighbor)
                if neighbor_score > best_score:
                    move_log.append(MoveRecord(best, best_score, neighbor, neighbor_score))
                    best, best_score = neighbor, neighbor_score
                    improved = True
        if not improved:
            return SearchOutcome(best, best_score)


# --- LOO fold tables ----------------------------------------------------------


def twice_the_tokens_fold_groups(lengths):
    """Group ends over fold ``lengths``, longest first, so no table pads to more than twice its tokens.

    A group takes every fold left when padding them to the longest costs at
    most twice their tokens, else the folds longer than half the longest.
    """
    ends, start = [], 0
    while start < len(lengths):
        rest = lengths[start:]
        over_half = np.count_nonzero(2 * rest > rest[0])
        start += over_half if len(rest) * rest[0] > 2 * rest.sum() else len(rest)
        ends.append(start)
    return ends


def fold_split_cost(lengths, ends, table_cells):
    """``tables * table_cells + cells``: a group's table is its longest length by its folds plus a spare column."""
    starts = [0, *ends[:-1]]
    return sum(table_cells + int(lengths[a]) * (b - a + 1) for a, b in zip(starts, ends))


# --- category index entries ---------------------------------------------------


def category_items(index):
    """Every (name, member id set) of a category index, names ascending."""
    return [(name, index.members(name)) for name in index.names]


def row_document(corpus, row):
    """The document of the corpus's row ``row``, read from its slice of the columns."""
    slots = corpus.slots[corpus.offsets[row] + 1 : corpus.offsets[row + 1]].tolist()
    # from a set: a frozenset built from a list can size its hash table larger
    tokens = frozenset({corpus.vocabulary[slot - 1] for slot in slots})
    return Document(id=int(corpus.doc_ids[row]), title=corpus.titles[row], tokens=tokens)


def row_documents(corpus):
    """Every document of the corpus, ids ascending, built one row at a time."""
    return [row_document(corpus, row) for row in range(corpus.doc_count)]


def document(corpus, doc_id):
    """The corpus's document with id ``doc_id``, its row found by one ``searchsorted`` on the ascending ids."""
    row = int(np.searchsorted(corpus.doc_ids, doc_id))
    if row == corpus.doc_count or corpus.doc_ids[row] != doc_id:
        raise KeyError(f"no document with id {doc_id}")
    return row_document(corpus, row)


def per_character_tokenize(text):
    """Whitespace split, then strip each piece one character at a time.

    A boundary character is stripped while it is ASCII punctuation or of a
    Unicode ``P*`` category; survivors are lowercased into a set. The
    reference for ``corpus.tokenize``.
    """

    def is_punct(ch):
        return ch in string.punctuation or unicodedata.category(ch).startswith("P")

    tokens = set()
    for piece in text.split():
        start, end = 0, len(piece)
        while start < end and is_punct(piece[start]):
            start += 1
        while end > start and is_punct(piece[end - 1]):
            end -= 1
        if start < end:
            tokens.add(piece[start:end].lower())
    return tokens


def splitlines_truncate_at_references(text):
    """The text before its first line that is a heading titled "references", matched line by line.

    Lines are those of ``str.splitlines(keepends=True)``, and a line is
    such a heading when ``^\\s*=+\\s*(.*?)\\s*=+\\s*$`` matches it whole and
    its title, stripped and lowercased, is ``references``. The reference
    for ``corpus.truncate_at_references``.
    """
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        m = re.match(r"^\s*=+\s*(.*?)\s*=+\s*$", line)
        if m and m.group(1).strip().lower() == "references":
            return "".join(lines[:i])
    return text


def welch_p_value(a, b):
    """Two-sided Welch t-test p-value from ``scipy.stats.ttest_ind``.

    The reference for ``stats.significance_test``, bit for bit, wherever
    at least one of the two variances is nonzero.
    """
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    with warnings.catch_warnings():
        # scipy warns of precision loss on a constant vector; its p-value stands
        warnings.simplefilter("ignore", RuntimeWarning)
        return float(sps.ttest_ind(x, y, equal_var=False).pvalue)


def _topic_weights(vocab_size, block, boost):
    weights = 1.0 / (np.arange(vocab_size) + 10.0)
    weights[block] *= boost
    return weights / weights.sum()


def choice_synthetic_corpus(seed=0, vocab_size=2000, n_members=200, pool_size=20_000):
    """``synthetic.make_synthetic_corpus`` with one ``rng.choice`` per document.

    The reference for the written-out draw: the same corpus, document for
    document and token set for token set.
    """
    rng = np.random.default_rng(seed)
    vocab = [f"w{i:04d}" for i in range(vocab_size)]
    quarter = vocab_size // 4
    pos_weights = _topic_weights(vocab_size, slice(0, quarter), TOPIC_BOOST)
    neg_weights = _topic_weights(vocab_size, slice(quarter // 2, quarter + quarter // 2), TOPIC_BOOST)
    lo, hi = TOKENS_PER_DOC

    def draw(weights: np.ndarray) -> frozenset[str]:
        n_tok = int(rng.integers(lo, hi + 1))
        picks = rng.choice(vocab_size, size=n_tok, replace=False, p=weights)
        return frozenset({vocab[i] for i in picks.tolist()})  # shares one str object per token

    n_hidden = round(pool_size * HIDDEN_POSITIVE_RATE)
    documents = []
    for i in range(n_members):
        documents.append(Document(id=i + 1, title=f"Member article {i + 1}", tokens=draw(pos_weights)))
    truth = []
    for i in range(pool_size):
        doc_id = n_members + i + 1
        hidden = i < n_hidden
        documents.append(
            Document(
                id=doc_id,
                title=f"Pool article {doc_id}",
                tokens=draw(pos_weights if hidden else neg_weights),
            )
        )
        if hidden:
            truth.append(doc_id)

    corpus = from_documents(documents)
    categories = CategoryIndex.from_mapping({CATEGORY: range(1, n_members + 1)})
    return SyntheticCorpus(corpus=corpus, categories=categories, truth=frozenset(truth))


# --- test tools -----------------------------------------------------------------


def from_documents(documents):
    """The corpus of ``documents``, in any order, through ``Corpus.from_rows``."""
    documents = list(documents)
    tokens = list(set().union(*(doc.tokens for doc in documents)))
    id_of = {token: i for i, token in enumerate(tokens)}
    ids = np.array([id_of[token] for doc in documents for token in doc.tokens], dtype=np.int64)
    lengths = [len(doc.tokens) for doc in documents]
    return Corpus.from_rows(tokens, [doc.id for doc in documents], [doc.title for doc in documents], lengths, ids)


def class_halves(model, positive):
    """The ``ClassHalves`` of one class over every fold of ``model``."""
    return ClassHalves(model, positive, np.arange(model.n_folds))


def loo_evaluator(model):
    """The ``LooEvaluator`` of every fold of ``model``, over a positive class of its own."""
    return LooEvaluator(model, np.arange(model.n_folds), class_halves(model, True))


def seeded_rows_corpus(n_docs, row_length=100, vocab_size=2_000_000, seed=0):
    """The scale probe's corpus of ``n_docs`` rows of ``row_length`` distinct token ids, through ``Corpus.from_rows``.

    Document ``i``, from 1, is titled ``Doc i``; its ids are
    ``rng.integers(0, vocab_size // row_length) * row_length + j`` for each
    ``j < row_length``, so distinct. Only the ids some row holds become
    tokens. The one category, ``Members``, holds documents 1 to 1,000.
    """
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, vocab_size // row_length, (n_docs, row_length)) * row_length + np.arange(row_length)
    held, ids = np.unique(ids, return_inverse=True)
    doc_ids = np.arange(1, n_docs + 1)
    corpus = Corpus.from_rows(
        [f"t{token}" for token in held.tolist()],
        doc_ids,
        [f"Doc {i}" for i in doc_ids.tolist()],
        np.full(n_docs, row_length),
        ids.ravel(),
    )
    return corpus, CategoryIndex.from_mapping({"Members": doc_ids[:1000].tolist()})


def peak_bytes(call, *args, **kwargs):
    """The tracemalloc peak, in bytes, of ``call(*args, **kwargs)``, its result included."""
    tracemalloc.start()
    try:
        call(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def retained_bytes(call, *args, **kwargs):
    """The bytes, under tracemalloc, that ``call(*args, **kwargs)`` leaves allocated while its result is held."""
    tracemalloc.start()
    try:
        result = call(*args, **kwargs)
        retained = tracemalloc.get_traced_memory()[0]
        del result
        return retained
    finally:
        tracemalloc.stop()
