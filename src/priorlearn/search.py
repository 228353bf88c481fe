"""Discrete hyperparameter search over the prior pseudo-count grid.

The search space is the 203x203 matrix of (lambda_neg, lambda_pos)
pairs drawn from ``DEFAULT_GRID``, the one grid every search uses. Each
cell is scored by leave-one-out cross-validation over the training folds:
positive predictive value, with sensitivity as tie-breaker. A fold's LOO
log odds are a positive half in lambda_pos alone minus a negative half in
lambda_neg alone, each computed once per grid value from the model's
integer count arrays, gathered per fold through its rows. A radial hill
climber sweeps the 5x5 window around the current best cell, recentering
on improvement and stopping when a full sweep yields no replacement. Cell
scores are memoized in a plain ``dict`` from cell to score, so multiple
starts share work and the memo doubles as a map of the explored terrain.
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


class LooEvaluator:
    """Leave-one-out cell scorer for one training model.

    Per fold, log odds = ``half(pos, lambda_pos) - half(neg, lambda_neg)``:
    the class-prior denominators cancel, and a half depends on its class's
    counts and pseudo-count alone. Each half is computed at most once per
    grid index and kept. The evaluator keeps flat count arrays, indexed
    from the model's through its fold rows, not the model. A fold's log
    odds equal scoring the fold with its own document removed from the
    counts and nothing retrained.
    """

    def __init__(self, model: CountModel):
        n_folds = model.n_folds
        labels = np.arange(n_folds) < model.n_pos  # positives come first
        n_tokens = np.diff(model.fold_offsets)
        self._labels = labels
        self._n_folds = n_folds
        self._doc_idx = np.repeat(np.arange(n_folds), n_tokens)
        self._n_tokens = n_tokens.astype(np.float64)
        # per class: each fold's token counts and the class size, the fold itself removed
        self._class_counts: dict[bool, tuple[np.ndarray, np.ndarray]] = {}
        classes = ((True, model.pos_count, model.n_pos), (False, model.neg_count, model.n_neg))
        for positive, counts, size in classes:
            own = (labels == positive).astype(np.float64)  # 1 where the fold is of this class
            self._class_counts[positive] = (counts[model.fold_features] - own[self._doc_idx], size - own)
        self._halves: dict[tuple[bool, int], np.ndarray] = {}

    def _half(self, positive: bool, index: int) -> np.ndarray:
        """One class's per-fold log score under the grid's ``index``-th pseudo-count."""
        half = self._halves.get((positive, index))
        if half is None:
            lam = DEFAULT_GRID[index]
            counts, size = self._class_counts[positive]
            log_norm = np.log(lam + size)
            token_logs = np.bincount(self._doc_idx, weights=np.log(lam + counts), minlength=self._n_folds)
            half = self._halves[(positive, index)] = log_norm + (token_logs - self._n_tokens * log_norm)
        return half

    def log_odds(self, cell: Cell) -> np.ndarray:
        """Per-fold LOO posterior log odds under the cell's priors."""
        return self._half(True, cell.y) - self._half(False, cell.x)

    def __call__(self, cell: Cell) -> CellScore:
        predicted = self.log_odds(cell) > 0.0
        tp = int(np.count_nonzero(predicted & self._labels))
        fp = int(np.count_nonzero(predicted & ~self._labels))
        fn = int(np.count_nonzero(~predicted & self._labels))
        tn = self._n_folds - tp - fp - fn
        counts = ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)
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
