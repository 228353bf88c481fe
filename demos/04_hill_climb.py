"""The memoized 5x5 hill climb over the 203x203 prior grid.

Each cycle scores the 25-cell window around the current best and
recenters on any lexicographic (ppv, sensitivity) improvement; a full
sweep without one ends the search. Cell scores are memoized in a dict
from cell to score, so nine restarts share almost all of their work, and
the memo doubles as the explored score terrain.

    python demos/04_hill_climb.py
"""

import numpy as np

from priorlearn.search import (
    Cell,
    CellScore,
    default_starts,
    memo_to_csv,
    multi_start_search,
    radial_gradient_search,
)

size = 203
xs, ys = np.arange(size)[:, None], np.arange(size)[None, :]
surface = 1.0 / (1.0 + 0.02 * (xs - 50) ** 2 + 0.03 * (ys - 70) ** 2)


def evaluate(cell: Cell) -> CellScore:
    return CellScore(float(surface[cell.x, cell.y]), 0.0)


print("-- one search, with its accepted moves --")
moves = []
memo = {}
outcome = radial_gradient_search(Cell(3, 3), evaluate, memo, moves)
print(f"reached {outcome.best} (true peak (50, 70)) in {len(moves)} moves, "
      f"{len(memo)} cell evaluations")
for record in moves[:3]:
    print(f"  {tuple(record.from_cell)} -> {tuple(record.to_cell)} "
          f"(ppv {record.from_score.ppv:.4f} -> {record.to_score.ppv:.4f})")
print("  ...")

print("\n-- nine restarts sharing one memo --")
shared_memo = {}
shared = multi_start_search(default_starts(), evaluate, shared_memo, [])
solo_evals = 0
for start in default_starts():
    solo_memo = {}
    radial_gradient_search(start, evaluate, solo_memo, [])
    solo_evals += len(solo_memo)
print(f"shared memo: best={shared.best}, {len(shared_memo)} evaluations "
      f"vs {solo_evals} for nine independent searches")
print(f"brute force of the whole grid would cost {size * size} evaluations")

print("\n-- the memo is the explored terrain (first CSV lines) --")
print("\n".join(memo_to_csv(shared_memo).splitlines()[:5]))
