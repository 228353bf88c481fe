"""priorlearn: learn naive Bayes prior pseudo-counts from data.

The package ranks a document corpus for membership in a target category
with a Boolean-feature naive Bayes model whose prior hyperparameters
(lambda_neg, lambda_pos) are not fixed at the usual add-one defaults but
learned: a memoized hill climb over a discrete grid, scored by
leave-one-out positive predictive value on the training set.
"""

__version__ = "0.1.0"
