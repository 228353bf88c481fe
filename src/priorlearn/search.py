"""Discrete hyperparameter search over the prior pseudo-count grid.

The search space is the 203x203 matrix of (lambda_neg, lambda_pos)
pairs drawn from ``DEFAULT_GRID``, the one grid every search uses. Each
cell is scored by leave-one-out cross-validation over the training folds:
positive predictive value, with sensitivity as tie-breaker. A fold's LOO
log odds are a positive half in lambda_pos alone minus a negative half in
lambda_neg alone, each computed once per grid value: a log table over the
counts, taken through padded tables of like-length folds' counts and
summed per fold; seeds with the same positives share the positive halves.
A radial hill climber sweeps the 5x5 window around the current best cell,
recentering on improvement and stopping when a full sweep yields no
replacement. Cell scores are memoized in a plain ``dict`` from cell to
score, so starts share work and the memo maps the terrain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .metrics import ConfusionCounts, ppv, sensitivity
from .model import CountModel, Hyperparameters

__all__ = [
    "Grid",
    "DEFAULT_GRID",
    "Cell",
    "CellScore",
    "SearchOutcome",
    "MoveRecord",
    "DEFAULT_START_LAMBDAS",
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


@dataclass(frozen=True)
class Grid:
    """The ordered candidate values one prior pseudo-count may take."""

    values: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, index: int) -> float:
        return self.values[index]

    def index_of(self, value: float) -> int:
        try:
            return self.values.index(value)
        except ValueError:
            raise ValueError(f"{value} is not a grid value") from None

    def hyperparameters(self, cell: "Cell") -> Hyperparameters:
        """Map a cell to its (lambda_neg, lambda_pos) pair."""
        return Hyperparameters(lambda_neg=self.values[cell.x], lambda_pos=self.values[cell.y])


#: 0.01, 0.1, 0.5, then the naturals 1..200 -- 203 values. Jeffreys' prior
#: sits at index 2, the Bayes-Laplace baseline at index 3.
DEFAULT_GRID = Grid(values=(0.01, 0.1, 0.5) + tuple(float(v) for v in range(1, 201)))


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


#: The nine (lambda_neg, lambda_pos) start values for multi-start search.
DEFAULT_START_LAMBDAS: tuple[tuple[float, float], ...] = (
    (1, 1), (1, 8), (1, 15),
    (8, 1), (8, 8), (8, 15),
    (15, 1), (15, 8), (15, 15),
)


def default_starts() -> tuple[Cell, ...]:
    return tuple(
        Cell(DEFAULT_GRID.index_of(float(ln)), DEFAULT_GRID.index_of(float(lp)))
        for ln, lp in DEFAULT_START_LAMBDAS
    )


class SearchOutcome(NamedTuple):
    best: Cell
    best_score: CellScore


Evaluator = Callable[[Cell], CellScore]


class ClassHalves:
    """One class's leave-one-out halves over the folds of a training model.

    A fold's half is its log class size plus its log conditionals, with
    the fold's own document taken out of the class. Folds, longest first,
    are grouped so no group's table pads to more than twice its tokens.
    Per group an ``int32`` table holds a column per fold, its counts
    padded with ``top`` (one past the largest count), and a spare all-pad
    column. A half, computed once per grid index and kept, sums
    ``log(lam + arange(top))`` (``0.0`` at ``top``) down each column row
    by row, bit for bit as ``bincount`` adds a fold's tokens: numpy 2.4
    reduces axis 0 of a C-order array that way when it has two or more
    columns, one column pairwise. So a fold's half depends on its own
    column alone, not on the other folds or on ``top``.
    """

    def __init__(self, model: CountModel, positive: bool):
        n_folds, n_tokens = model.n_folds, np.diff(model.fold_offsets)
        own = (np.arange(n_folds) < model.n_pos) == positive  # positives come first
        counts, size = (model.pos_count, model.n_pos) if positive else (model.neg_count, model.n_neg)
        fold_counts = counts[model.fold_features] - np.repeat(own, n_tokens)
        self._top = int(fold_counts.max(initial=0)) + 1
        padded = np.append(fold_counts, self._top).astype(np.int32)
        self._size, self._n_tokens = size - own.astype(np.float64), n_tokens.astype(np.float64)
        self._order = np.argsort(-n_tokens, kind="stable")  # longest fold first
        self._tables, start, pad = [], 0, len(fold_counts)  # per group: each table cell's count or pad
        while start < n_folds:
            folds = self._order[start:]
            lengths = n_tokens[folds]
            if len(folds) * lengths[0] > 2 * lengths.sum():  # split off the folds over half the longest
                folds = folds[: np.count_nonzero(2 * lengths > lengths[0])]
            start += len(folds)
            rows = np.arange(lengths[0])[:, None]
            at = np.append(model.fold_offsets[folds], pad) + rows
            self._tables.append(padded[np.where(rows < np.append(n_tokens[folds], 0), at, pad)])
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
    """Leave-one-out cell scorer for one training model.

    Per fold, log odds = ``half(pos, lambda_pos) - half(neg, lambda_neg)``:
    the class-prior denominators cancel, and a half depends on its class's
    counts and pseudo-count alone (:class:`ClassHalves`). Models with the
    same positives may share a positive class: ``positive`` is one over
    folds that include all of this model's, with the column of each of
    this model's folds in it. By default the evaluator builds its own.
    """

    def __init__(self, model: CountModel, positive: tuple[ClassHalves, np.ndarray] | None = None):
        self._n_pos = model.n_pos
        self._positive, self._columns = positive or (ClassHalves(model, True), slice(None))
        self._negative, self._taken = ClassHalves(model, False), {}

    def _halves(self, cell: Cell) -> tuple[np.ndarray, np.ndarray]:
        if cell.y not in self._taken:  # this model's columns of the half, gathered once per grid index
            self._taken[cell.y] = self._positive(cell.y)[self._columns]
        return self._taken[cell.y], self._negative(cell.x)

    def log_odds(self, cell: Cell) -> np.ndarray:
        """Per-fold LOO posterior log odds under the cell's priors."""
        return np.subtract(*self._halves(cell))

    def __call__(self, cell: Cell) -> CellScore:
        predicted = np.greater(*self._halves(cell))  # log odds > 0.0, for finite halves
        tp = int(np.count_nonzero(predicted[: self._n_pos]))  # positives come first
        fp = int(np.count_nonzero(predicted[self._n_pos :]))
        counts = ConfusionCounts(tp=tp, fp=fp, tn=len(predicted) - self._n_pos - fp, fn=self._n_pos - tp)
        return CellScore(ppv=ppv(counts), sensitivity=sensitivity(counts))


def radial_gradient_search(
    start: Cell,
    evaluator: Evaluator,
    memo: dict[Cell, CellScore] | None = None,
    move_log: list[MoveRecord] | None = None,
) -> SearchOutcome:
    """Hill-climb from ``start``, sweeping a 5x5 window each cycle.

    A window cell replaces the current best iff its (ppv, sensitivity)
    is lexicographically greater; equal scores never trigger a move, so
    plateaus cannot cycle. After a sweep with a replacement the window
    recenters on the new best; a sweep without one ends the search. The
    returned best is a lexicographic local maximum over its in-bounds
    5x5 neighborhood.

    Every evaluated cell is stored in ``memo``. Already-memoized cells are
    never re-evaluated; their stored scores still take part in the
    comparisons, so sharing a memo across starts changes no outcome.
    """
    size = len(DEFAULT_GRID)
    if not (0 <= start.x < size and 0 <= start.y < size):
        raise ValueError(f"start {start} out of bounds for the {size}x{size} grid")
    if memo is None:
        memo = {}

    def lookup(cell: Cell) -> CellScore:
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
                if i == 0 and j == 0:
                    continue
                nx, ny = cx + i, cy + j
                if not (0 <= nx < size and 0 <= ny < size):
                    continue
                neighbor = Cell(nx, ny)
                neighbor_score = lookup(neighbor)
                if neighbor_score > best_score:
                    if move_log is not None:
                        move_log.append(MoveRecord(best, best_score, neighbor, neighbor_score))
                    best, best_score = neighbor, neighbor_score
                    improved = True
        if not improved:
            return SearchOutcome(best, best_score)


def multi_start_search(
    starts: Sequence[Cell],
    evaluator: Evaluator,
    memo: dict[Cell, CellScore] | None = None,
    move_log: list[MoveRecord] | None = None,
) -> SearchOutcome:
    """Run one search per start over a shared memo; keep the best outcome.

    The shared memo means a cell is evaluated at most once across all
    starts. The merged best is the lexicographic maximum over the
    per-start bests (exact score ties resolved toward the smaller cell
    coordinates).
    """
    if not starts:
        raise ValueError("starts must be nonempty")
    if memo is None:
        memo = {}
    best: SearchOutcome | None = None
    for start in starts:
        outcome = radial_gradient_search(start, evaluator, memo=memo, move_log=move_log)
        if (
            best is None
            or outcome.best_score > best.best_score
            or (outcome.best_score == best.best_score and outcome.best < best.best)
        ):
            best = outcome
    assert best is not None
    return best


def cross_seed_mean_scores(
    memos: Sequence[dict[Cell, CellScore]], evaluators: Sequence[Evaluator]
) -> dict[Cell, CellScore]:
    """Mean (ppv, sensitivity) per explored cell, averaged over all seeds.

    The union of cells explored under any seed is back-filled: a cell
    missing from some seed's memo is evaluated under that seed (and
    stored), so every mean covers every seed and the means are
    comparable.
    """
    if not memos:
        raise ValueError("need at least one memo")
    if len(memos) != len(evaluators):
        raise ValueError(f"{len(memos)} memos but {len(evaluators)} evaluators")
    means: dict[Cell, CellScore] = {}
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


def aggregate_over_seeds(
    memos: Sequence[dict[Cell, CellScore]], evaluators: Sequence[Evaluator]
) -> tuple[Cell, dict[Cell, CellScore]]:
    """Pick the cell with the best cross-seed mean ppv.

    The means come from :func:`cross_seed_mean_scores`, which back-fills
    ``memos``. Ties break by mean sensitivity, then by ascending cell
    coordinates. Returns the winning cell and all the means.
    """
    means = cross_seed_mean_scores(memos, evaluators)
    cell = min(means, key=lambda c: (-means[c].ppv, -means[c].sensitivity, c))
    return cell, means


def memo_to_csv(scores: Mapping[Cell, CellScore], grid: Grid = DEFAULT_GRID) -> str:
    """Render explored cells as CSV: the score terrain for heat-map plotting."""
    lines = ["lambda_neg,lambda_pos,ppv,sensitivity"]
    for cell, score in sorted(scores.items()):
        lines.append(f"{grid[cell.x]!r},{grid[cell.y]!r},{score.ppv!r},{score.sensitivity!r}")
    return "\n".join(lines) + "\n"


def moves_to_log(moves: Sequence[MoveRecord]) -> str:
    """One line per accepted move: from-cell, to-cell, and their scores."""
    lines = []
    for m in moves:
        lines.append(
            f"({m.from_cell.x},{m.from_cell.y}) ppv={m.from_score.ppv!r} "
            f"sens={m.from_score.sensitivity!r} -> ({m.to_cell.x},{m.to_cell.y}) "
            f"ppv={m.to_score.ppv!r} sens={m.to_score.sensitivity!r}"
        )
    return "\n".join(lines) + ("\n" if lines else "")
