"""Uncertainty estimates over top-k outcome vectors.

An outcome vector (:func:`~priorlearn.metrics.outcome_vector`, re-exported
here) holds one bit per rank: 1 iff that prediction was a true positive,
so its mean is the PPV at k. Confidence intervals come from the plain
percentile bootstrap; model comparison uses a two-sided Welch t-test on
the two bit vectors. The test's arithmetic is numpy's; its Student-t tail
is ``scipy.special.stdtr``, the kernel ``scipy.stats.ttest_ind`` calls
itself, so the p-value equals ``ttest_ind(a, b, equal_var=False).pvalue``
bit for bit without importing ``scipy.stats``. Importing this module loads
no scipy module: only :func:`significance_test` imports ``stdtr``, when it
computes a p-value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .metrics import outcome_vector

__all__ = [
    "BootstrapCI",
    "outcome_vector",
    "bootstrap_ci",
    "significance_test",
    "report_to_csv",
]


@dataclass(frozen=True)
class BootstrapCI:
    lo: float
    hi: float


_BLOCK = 1 << 16  # indices per block of bootstrap_ci's resample draws


def bootstrap_ci(
    outcomes: Sequence[int] | np.ndarray,
    B: int = 10_000,
    alpha: float = 0.05,
    seed: int = 0,
) -> BootstrapCI:
    """Percentile bootstrap interval for the mean of an outcome vector.

    Draws ``B`` resamples of the full vector size with replacement and
    takes the empirical alpha/2 and 1-alpha/2 quantiles of the resample
    means. A resample mean is its exact count of ones divided by the
    size. Deterministic given ``seed``, which must be >= 0; a negative one
    raises ``ValueError`` naming it. The indices are drawn in blocks of
    about 64k, one generator's stream: the same as one ``(B, size)`` draw.
    """
    if B < 1:
        raise ValueError("B must be >= 1")
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    if seed < 0:  # numpy's own message would name no value
        raise ValueError(f"seed must be >= 0, got {seed}")
    v = np.asarray(outcomes)
    if v.size == 0:
        raise ValueError("outcome vector must be nonempty")
    if not np.all((v == 0) | (v == 1)):
        raise ValueError("outcome vector must hold only 0s and 1s")
    rng = np.random.default_rng(seed)
    bits = v.astype(bool)
    rows = max(1, _BLOCK // v.size)  # resamples per block
    draws = (rng.integers(0, v.size, size=(min(rows, B - start), v.size)) for start in range(0, B, rows))
    means = np.concatenate([np.count_nonzero(bits[idx], axis=1) for idx in draws]) / v.size
    lo, hi = np.quantile(means, [alpha / 2.0, 1.0 - alpha / 2.0])
    return BootstrapCI(lo=float(lo), hi=float(hi))


def significance_test(a: Sequence[int] | np.ndarray, b: Sequence[int] | np.ndarray) -> float:
    """Two-sided Welch t-test p-value between two outcome vectors.

    Degenerate inputs (both variances zero) yield p = 1 for equal means
    and p = 0 otherwise.
    """
    # loaded only by a caller who asks for a p-value: +23 MB of RSS after a bare import of
    # priorlearn.cli, +16 MB on the peak of `report` over 20,000-row rankings (scipy 1.17, Linux)
    from scipy.special import stdtr

    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    if x.size < 2 or y.size < 2:
        raise ValueError("outcome vectors need at least 2 entries")
    if np.var(x) == 0.0 and np.var(y) == 0.0:
        return 1.0 if x.mean() == y.mean() else 0.0
    vn1, vn2 = _sample_var(x) / x.size, _sample_var(y) / y.size
    df = (vn1 + vn2) ** 2 / (vn1**2 / (x.size - 1) + vn2**2 / (y.size - 1))
    t = (x.mean() - y.mean()) / np.sqrt(vn1 + vn2)
    return float(2 * stdtr(df, -np.abs(t)))


def _sample_var(v: np.ndarray) -> np.float64:
    """Unbiased variance, rounded as ``scipy.stats`` rounds it (``np.var`` is not)."""
    return np.mean((v - v.mean()) ** 2) * (v.size / (v.size - 1))


def report_to_csv(rows: Sequence[tuple[str, int, float, BootstrapCI]], p_value: float) -> str:
    """Comparison report: model, k, ppv, ci_lo, ci_hi, p_value per row, the floats as their ``repr``.

    Labels are written as given: every caller's are ``baseline`` and ``study``, which need no quoting.
    """
    return "model,k,ppv,ci_lo,ci_hi,p_value\n" + "".join(
        f"{model},{k},{value!r},{ci.lo!r},{ci.hi!r},{p_value!r}\n" for model, k, value, ci in rows
    )
