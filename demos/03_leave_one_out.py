"""Leave-one-out by count decrement, and scoring one grid cell.

Holding a training case out of the model does not require retraining:
subtract one from its class count, from N, and from its tokens'
own-class counts, then score it like any other case. Evaluating a
hyperparameter cell means doing that for every training case and
tallying precision (PPV) and sensitivity of the resulting labels. The
last check compares the evaluator with the scalar string-token
reference in ``tests/oracles.py``.

    python demos/03_leave_one_out.py
"""

import sys
from pathlib import Path

import numpy as np

from priorlearn.corpus import Corpus, Document
from priorlearn.model import build_counts, positive_posteriors
from priorlearn.search import DEFAULT_GRID, Cell, LooEvaluator

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles import dict_model, loo_score  # noqa: E402

rng = np.random.default_rng(0)
vocab = np.array([f"w{i:02d}" for i in range(40)])
w_pos = np.linspace(3, 1, 40); w_pos /= w_pos.sum()
w_neg = np.linspace(1, 3, 40); w_neg /= w_neg.sum()


def draw(doc_id, weights, title):
    picks = rng.choice(40, size=int(rng.integers(5, 12)), replace=False, p=weights)
    return Document(doc_id, title, frozenset(vocab[picks]))


positives = [draw(i, w_pos, f"pos {i}") for i in range(12)]
negatives = [draw(100 + i, w_neg, f"neg {i}") for i in range(12)]
training = Corpus.from_documents(positives + negatives)
model = build_counts(training, [d.id for d in positives], [d.id for d in negatives])
evaluator = LooEvaluator(model)

print("-- per-fold posteriors with the fold's own counts removed, lambda=(1, 1) --")
log_odds = evaluator.log_odds(Cell(3, 3))
p_pos = positive_posteriors(log_odds)
for fold in (0, 1, 12, 13):
    positive = fold < model.n_pos  # positives come first
    verdict = "hit" if (log_odds[fold] > 0) == positive else "miss"
    label = "positive" if positive else "negative"
    print(f"  fold {fold:2d} ({label}): p_pos={p_pos[fold]:.3f} -> {verdict}")

print("\n-- scoring whole grid cells --")
for cell in (Cell(2, 2), Cell(3, 3), Cell(10, 3), Cell(50, 3), Cell(202, 3)):
    lam = DEFAULT_GRID.hyperparameters(cell)
    cs = evaluator(cell)
    print(f"  lambda=({lam.lambda_neg:>6}, {lam.lambda_pos}) -> ppv={cs.ppv:.3f} sensitivity={cs.sensitivity:.3f}")

print("\n-- the evaluator's log odds agree with one scalar score per fold --")
reference = dict_model(positives, negatives)
worst = 0.0
for cell in (Cell(3, 3), Cell(0, 202), Cell(120, 7)):
    hp = DEFAULT_GRID.hyperparameters(cell)
    for fold, value in enumerate(evaluator.log_odds(cell)):
        worst = max(worst, abs(value - loo_score(fold, reference, hp).log_odds))
print(f"largest difference over 3 cells x {model.n_folds} folds: {worst:.1e}")
print(worst < 1e-12)
