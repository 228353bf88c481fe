"""How prior pseudo-counts shape the smoothed probabilities.

The model never estimates a raw frequency: every count is cushioned by
a class-specific pseudo-count lambda. Small lambdas trust the data;
large lambdas flatten the estimate toward the prior, which silences
rarely-observed tokens. The coin-toss example below is the two-outcome
special case of the same formulas.

    python demos/02_smoothed_counts.py
"""

import numpy as np

from priorlearn.corpus import Corpus, Document
from priorlearn.experiment import rank_corpus
from priorlearn.model import (
    CountModel,
    Hyperparameters,
    build_counts,
    class_prior,
    cond_probs,
    model_manifest,
)

print("-- coin toss with add-one priors --")
# two tosses observed, both tails: the classic smoothed estimate for an
# unobserved head is (1 + 0) / (1 + 1 + 2) = 1/4, never zero
none = np.zeros(0, dtype=np.int64)
coin = CountModel(n_pos=0, n_neg=2, features=(), pos_count=none, neg_count=none,
                  fold_offsets=np.zeros(1, dtype=np.int64), fold_features=none)
print(f"p(head) after 0 heads in 2 tosses = {class_prior(True, coin, Hyperparameters(1, 1))}")

print("\n-- a six-document training set --")
positives = [
    Document(1, "p1", frozenset({"grid", "search", "memo"})),
    Document(2, "p2", frozenset({"grid", "climb", "memo"})),
    Document(3, "p3", frozenset({"grid", "search", "climb", "peak"})),
]
negatives = [
    Document(4, "n1", frozenset({"grid", "recipe"})),
    Document(5, "n2", frozenset({"oven", "recipe"})),
    Document(6, "n3", frozenset({"search", "warrant"})),
]
training = Corpus.from_documents(positives + negatives)
model = build_counts(training, [1, 2, 3], [4, 5, 6])
print("features are the union of positive documents only:", list(model.features))
print("('oven', 'recipe', 'warrant' are never counted)")
print("\nmodel manifest:")
print(model_manifest(model))

print("-- the same token under different priors --")
for lam_neg in (0.5, 1, 8, 200):
    hp = Hyperparameters(lambda_neg=lam_neg, lambda_pos=1)
    p = cond_probs(False, model, hp)[model.features.index("search")]
    print(f"  lambda_neg={lam_neg:>5}: p(search | negative) = {p:.3f}")
print("a huge lambda_neg floors every negative conditional near its prior,")
print("so noisy negative evidence stops moving the posterior.")

print("\n-- posteriors are computed on the feature intersection --")
case = {"grid", "search", "unseen-word", "another-one"}
cases = Corpus.from_documents(
    [Document(1, "case", frozenset(case)), Document(2, "without", frozenset({"grid", "search"}))]
)
ranked = rank_corpus(cases, model, Hyperparameters(1, 1))  # columns in rank order
scored = dict(zip(ranked.ids.tolist(), zip(ranked.p_pos.tolist(), ranked.log_odds.tolist())))
print(f"case {sorted(case)}")
print(f"  p(positive) = {scored[1][0]:.4f}, log odds = {scored[1][1]:+.4f}")
print("tokens outside the model features changed nothing:")
print(f"  same posterior without them: {scored[2][0]:.4f}")
