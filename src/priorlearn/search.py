"""Discrete hyperparameter search over the prior pseudo-count grid.

The search space is the 203x203 matrix of (lambda_neg, lambda_pos)
pairs drawn from ``DEFAULT_GRID``, the one grid every search uses. Each
cell is scored by leave-one-out cross-validation over the training folds:
positive predictive value, with sensitivity as tie-breaker. A fold's LOO
log odds are a positive half in lambda_pos alone minus a negative half in
lambda_neg alone, each computed once per grid value: a log table over the
counts, taken through padded tables of like-length folds' counts, each
table in the narrowest unsigned type that holds its counts, and summed
per fold. The folds are split into tables where a table's fixed cost buys
back more than its padding. Each seed of an experiment is its columns of
one union model, whose positive halves all seeds share: a seed reads
their positives' part as a view and gathers only its own negatives' part.
A radial hill climber sweeps the 5x5 window around the current best cell,
recentering on improvement and stopping when a full sweep yields no
replacement. Cell scores are memoized in a plain ``dict`` from cell to
score, so starts share work and the memo maps the terrain.
"""

from __future__ import annotations

from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .corpus import _row_blocks, take_rows
from .metrics import ppv_of, sensitivity_of
from .model import CountModel

__all__ = [
    "DEFAULT_GRID",
    "Cell",
    "CellScore",
    "SearchOutcome",
    "MoveRecord",
    "default_starts",
    "ClassHalves",
    "LooEvaluator",
    "radial_gradient_search",
    "multi_start_search",
    "cross_seed_mean_scores",
    "aggregate_over_seeds",
    "memo_to_csv",
    "moves_to_log",
]


#: The candidate values of one prior pseudo-count, ascending: 0.01, 0.1,
#: 0.5, then the naturals 1..200 -- 203 values. Jeffreys' prior sits at
#: index 2, the Bayes-Laplace baseline at index 3.
DEFAULT_GRID: tuple[float, ...] = (0.01, 0.1, 0.5) + tuple(float(v) for v in range(1, 201))


class Cell(NamedTuple):
    """Grid coordinates: x indexes lambda_neg, y indexes lambda_pos."""

    x: int
    y: int


class CellScore(NamedTuple):
    """LOO score of a cell; tuple order gives the lexicographic comparison."""

    ppv: float
    sensitivity: float


class MoveRecord(NamedTuple):
    from_cell: Cell
    from_score: CellScore
    to_cell: Cell
    to_score: CellScore


_WINDOW = tuple((i, j) for i in range(-2, 3) for j in range(-2, 3) if (i, j) != (0, 0))  # 5x5 less the center


def default_starts() -> tuple[Cell, ...]:
    """The nine start cells of multi-start search: every (lambda_neg, lambda_pos) from 1, 8 and 15, lambda_neg outer."""
    starts = [DEFAULT_GRID.index(value) for value in (1.0, 8.0, 15.0)]
    return tuple(Cell(x, y) for x in starts for y in starts)


class SearchOutcome(NamedTuple):
    best: Cell
    best_score: CellScore


Evaluator = Callable[[Cell], CellScore]


#: What summing one more table costs beyond its cells, in cells: a ``take``
#: plus column sum took ~8 us for a 45x2 ``int32`` table and ~2 ns per cell
#: (~190 us for 45x2,001), numpy 2.4 on a shared 2-vCPU x86 host.
_TABLE_CELLS = 4000


def _fold_groups(lengths: np.ndarray) -> list[int]:
    """Where each group ends in fold ``lengths`` sorted longest first.

    The groups are contiguous and minimise ``tables * _TABLE_CELLS +
    cells``, a group's table being its longest length by its folds plus
    a spare column. A cut inside a run of equal lengths never lowers
    that, so a dynamic programme over the runs finds the least, keeping
    the longer last group on a tie.
    """
    ends = np.flatnonzero(np.diff(lengths, append=-1)) + 1  # of each run of equal lengths
    starts = ends - np.diff(ends, prepend=0)
    rows = lengths[starts]
    # runs i..j make a table of rows[i] * (ends[j] - starts[i] + 1) cells; the part fixed by run i:
    head = rows * (1 - starts)
    before = np.empty(len(ends), np.int64)  # per run: the least cost of the runs before it, plus its head
    first, cost = [], 0  # per run: the first run of the last group in the best split up to it
    for j, end in enumerate(ends.tolist()):
        before[j] = cost + head[j]
        costs = before[: j + 1] + rows[: j + 1] * end
        first.append(int(costs.argmin()))
        cost = int(costs[first[-1]]) + _TABLE_CELLS
    cuts, j = [], len(ends)
    while j:
        cuts.append(int(ends[j - 1]))
        j = first[j - 1]
    return cuts[::-1]


class ClassHalves:
    """One class's leave-one-out halves over some folds of a training model.

    The folds are ``model``'s at ``columns``, positives first; the class
    is counted over its own folds among them. A fold's half is its log
    class size plus its log conditionals, with the fold's own document
    taken out of the class. Folds, longest first, are split into the
    contiguous groups that are cheapest to sum, a table's fixed cost
    weighed against its padded cells (:func:`_fold_groups`).
    Per group a table holds a column per fold, its counts padded with
    ``top`` (one past the largest count), and a spare all-pad column, as
    ``uint16`` while ``top`` fits it, else ``uint32``. The folds' rows are
    gathered, and their counts looked up, a block of rows at a time, so
    building the class holds no index per slot beyond one block's. A
    half, computed once per grid index and kept, sums
    ``log(lam + arange(top))`` (``0.0`` at ``top``) down each column row
    by row, bit for bit as ``bincount`` adds a fold's tokens: numpy 2.4
    reduces axis 0 of a C-order array that way when it has two or more
    columns, one column pairwise. So a fold's half depends on its own
    column alone, not on the other folds, on ``top`` or on the table's type.
    """

    def __init__(self, model: CountModel, positive: bool, columns: np.ndarray):
        n_tokens = np.diff(model.fold_offsets)[columns]
        features, offsets = take_rows(model.fold_features, model.fold_offsets[columns], n_tokens)
        own = (columns < model.n_pos) == positive  # positives come first
        own_tokens = np.repeat(own, n_tokens)
        counts = np.bincount(features[own_tokens], minlength=len(model.features)).astype(np.uint32)
        fold_counts = np.empty(len(features), dtype=np.uint32)  # a count of folds fits
        for a, b in _row_blocks(offsets):  # an intp index is numpy's fast path, int32 its slow one
            block = slice(offsets[a], offsets[b])
            np.subtract(counts[features[block].astype(np.intp)], own_tokens[block], out=fold_counts[block])
        del features
        self._top = int(fold_counts.max(initial=0)) + 1
        padded = np.empty(len(fold_counts) + 1, dtype=np.uint16 if self._top < 1 << 16 else np.uint32)
        padded[:-1], padded[-1] = fold_counts, self._top
        del fold_counts
        self._size, self._n_tokens = np.count_nonzero(own) - own.astype(np.float64), n_tokens.astype(np.float64)
        self._order = np.argsort(-n_tokens, kind="stable")  # longest fold first
        self._tables, start, pad = [], 0, len(padded) - 1  # per group: each table cell's count or pad
        for end in _fold_groups(n_tokens[self._order]):
            folds, start = self._order[start:end], end
            rows = np.arange(n_tokens[folds[0]])[:, None]
            at = np.append(offsets[folds], pad) + rows
            at[rows >= np.append(n_tokens[folds], 0)] = pad
            self._tables.append(padded[at])
        self._halves: dict[int, np.ndarray] = {}

    def __call__(self, index: int) -> np.ndarray:
        """Each fold's log score under the grid's ``index``-th pseudo-count."""
        half = self._halves.get(index)
        if half is None:
            lam = DEFAULT_GRID[index]
            log_norm = np.log(lam + self._size)
            logs = np.append(np.log(lam + np.arange(self._top)), 0.0)
            token_logs = np.empty(len(self._size))
            token_logs[self._order] = np.concatenate([np.take(logs, table).sum(axis=0)[:-1] for table in self._tables])
            half = self._halves[index] = log_norm + (token_logs - self._n_tokens * log_norm)
        return half


class LooEvaluator:
    """Leave-one-out cell scorer for all of ``model``'s positives, then its folds at ``negatives``.

    It lays out those folds itself, every positive first. Per fold, log
    odds = ``half(pos, lambda_pos) - half(neg, lambda_neg)``: the
    class-prior denominators cancel, and a half depends on its class's
    counts and pseudo-count alone (:class:`ClassHalves`). ``positive`` is
    the positive class over all of ``model``'s folds, read at these, so
    training sets with the same positives share it. Once per grid index,
    a positive half is read as a view of its positives' part and a gather
    of this evaluator's negatives', and a negative half as two views of
    its own, so a cell's true and false positives are one comparison each.
    """

    def __init__(self, model: CountModel, negatives: np.ndarray, positive: ClassHalves):
        self._negatives, self._n_pos = negatives, model.n_pos  # this evaluator's negative folds in ``model``
        self._negative = ClassHalves(model, False, np.append(np.arange(model.n_pos), negatives))
        self._positive = positive  # over all of ``model``'s folds, read at the positives and ``negatives``
        self._positive_at, self._negative_at = {}, {}  # per grid index: a half's positives' part and negatives'

    def _halves(self, cell: Cell) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
        """The positive and the negative half under ``cell``, each as its positives' folds and its negatives'."""
        positive = self._positive_at.get(cell.y)
        if positive is None:  # a view of the positives' folds and a gather of this seed's negatives'
            half = self._positive(cell.y)
            positive = self._positive_at[cell.y] = half[: self._n_pos], half[self._negatives]
        negative = self._negative_at.get(cell.x)
        if negative is None:
            half = self._negative(cell.x)
            negative = self._negative_at[cell.x] = half[: self._n_pos], half[self._n_pos :]
        return positive, negative

    def log_odds(self, cell: Cell) -> np.ndarray:
        """Per-fold LOO posterior log odds under the cell's priors, the positives' folds first."""
        (pos_positives, pos_negatives), (neg_positives, neg_negatives) = self._halves(cell)
        return np.concatenate((pos_positives - neg_positives, pos_negatives - neg_negatives))

    def __call__(self, cell: Cell) -> CellScore:
        (pos_positives, pos_negatives), (neg_positives, neg_negatives) = self._halves(cell)
        tp = int(np.count_nonzero(np.greater(pos_positives, neg_positives)))  # log odds > 0.0, for finite halves
        fp = int(np.count_nonzero(np.greater(pos_negatives, neg_negatives)))
        return CellScore(ppv=ppv_of(tp, fp), sensitivity=sensitivity_of(tp, self._n_pos - tp))


def radial_gradient_search(
    start: Cell, evaluator: Evaluator, memo: dict[Cell, CellScore], move_log: list[MoveRecord]
) -> SearchOutcome:
    """Hill-climb from ``start``, sweeping a 5x5 window each cycle.

    A window cell replaces the current best iff its (ppv, sensitivity)
    is lexicographically greater; equal scores never trigger a move, so
    plateaus cannot cycle. After a sweep with a replacement the window
    recenters on the new best; a sweep without one ends the search. The
    returned best is a lexicographic local maximum over its in-bounds
    5x5 neighborhood.

    Every evaluated cell is stored in ``memo``, and every accepted move
    appended to ``move_log``. Already-memoized cells are never
    re-evaluated; their stored scores still take part in the comparisons,
    so sharing a memo across starts changes no outcome.
    """
    size = len(DEFAULT_GRID)
    if not (0 <= start.x < size and 0 <= start.y < size):
        raise ValueError(f"start {start} out of bounds for the {size}x{size} grid")

    get = memo.get
    best, best_score = start, get(start)
    if best_score is None:
        best_score = memo[start] = evaluator(start)
    while True:
        improved = False
        cx, cy = best
        for i, j in _WINDOW:
            nx, ny = cx + i, cy + j
            if not (0 <= nx < size and 0 <= ny < size):
                continue
            score = get((nx, ny))  # a plain tuple finds its Cell: same hash, equal
            if score is None:
                neighbor = Cell(nx, ny)
                score = memo[neighbor] = evaluator(neighbor)
            if score > best_score:
                neighbor = Cell(nx, ny)
                move_log.append(MoveRecord(best, best_score, neighbor, score))
                best, best_score = neighbor, score
                improved = True
        if not improved:
            return SearchOutcome(best, best_score)


def _pick_order(cell: Cell, score: CellScore) -> tuple[float, float, Cell]:
    """The key whose least is the pick: higher ppv, then higher sensitivity, then the smaller cell."""
    return -score.ppv, -score.sensitivity, cell


def multi_start_search(
    starts: Sequence[Cell], evaluator: Evaluator, memo: dict[Cell, CellScore], move_log: list[MoveRecord]
) -> SearchOutcome:
    """Run one search per start over a shared memo; keep the best outcome.

    The shared memo means a cell is evaluated at most once across all
    starts. The merged best is the lexicographic maximum over the
    per-start bests (exact score ties resolved toward the smaller cell
    coordinates).
    """
    if not starts:
        raise ValueError("starts must be nonempty")
    outcomes = [radial_gradient_search(start, evaluator, memo, move_log) for start in starts]
    return min(outcomes, key=lambda outcome: _pick_order(*outcome))


def cross_seed_mean_scores(
    memos: Sequence[dict[Cell, CellScore]], evaluators: Sequence[Evaluator]
) -> dict[Cell, CellScore]:
    """Mean (ppv, sensitivity) per explored cell, averaged over all seeds.

    The union of cells explored under any seed is back-filled: a cell
    missing from some seed's memo is evaluated under that seed (and
    stored), so every mean covers every seed and the means are
    comparable. A mean adds the seeds' scores in seed order.
    """
    if not memos:
        raise ValueError("need at least one memo")
    if len(memos) != len(evaluators):
        raise ValueError(f"{len(memos)} memos but {len(evaluators)} evaluators")
    cells = sorted(set().union(*memos))
    for memo, evaluator in zip(memos, evaluators):
        memo.update((cell, evaluator(cell)) for cell in cells if cell not in memo)
    n = len(memos)
    return {c: CellScore(sum(m[c].ppv for m in memos) / n, sum(m[c].sensitivity for m in memos) / n) for c in cells}


def aggregate_over_seeds(
    memos: Sequence[dict[Cell, CellScore]], evaluators: Sequence[Evaluator]
) -> tuple[Cell, dict[Cell, CellScore]]:
    """Pick the cell with the best cross-seed mean ppv.

    The means come from :func:`cross_seed_mean_scores`, which back-fills
    ``memos``. Ties break by mean sensitivity, then by ascending cell
    coordinates. Returns the winning cell and all the means.
    """
    means = cross_seed_mean_scores(memos, evaluators)
    cell = min(means, key=lambda c: _pick_order(c, means[c]))
    return cell, means


# grid stays a parameter: the benchmark passes ExperimentSpec.grid
def memo_to_csv(scores: Mapping[Cell, CellScore], grid: tuple[float, ...] = DEFAULT_GRID) -> str:
    """Render explored cells as CSV: the score terrain for heat-map plotting."""
    lines = ["lambda_neg,lambda_pos,ppv,sensitivity"]
    for cell, score in sorted(scores.items()):
        lines.append(f"{grid[cell.x]!r},{grid[cell.y]!r},{score.ppv!r},{score.sensitivity!r}")
    return "\n".join(lines) + "\n"


def moves_to_log(seed: int, moves: Sequence[MoveRecord]) -> str:
    """One line per accepted move under ``seed``: the seed, from-cell, to-cell, and their scores."""
    return "".join(
        f"seed={seed} ({m.from_cell.x},{m.from_cell.y}) ppv={m.from_score.ppv!r} "
        f"sens={m.from_score.sensitivity!r} -> ({m.to_cell.x},{m.to_cell.y}) "
        f"ppv={m.to_score.ppv!r} sens={m.to_score.sensitivity!r}\n"
        for m in moves
    )
