"""Evaluation metrics for sketch-based estimates."""

from __future__ import annotations

import numpy as np


def mre(estimate: float, truth: float) -> float:
    """Relative error |est - true| / true; undefined for a zero truth."""
    if truth == 0:
        raise ValueError("relative error is undefined for a zero reference value")
    return abs(estimate - truth) / abs(truth)


def scored_error(estimate: float, truth: float) -> tuple[str, float]:
    """("mre", the relative error), or ("abs_error", |est - true|) for a
    zero truth, on which the relative error is undefined."""
    if truth == 0:
        return "abs_error", abs(estimate - truth)
    return "mre", mre(estimate, truth)


def mae(estimates, truths) -> float:
    estimates = np.asarray(estimates, dtype=float)
    truths = np.asarray(truths, dtype=float)
    return float(np.mean(np.abs(estimates - truths)))


def emd_1d(cdf_est, cdf_true) -> float:
    """Mean absolute difference between two CDF vectors at shared evaluation points."""
    a = np.asarray(cdf_est, dtype=float)
    b = np.asarray(cdf_true, dtype=float)
    if a.shape != b.shape:
        raise ValueError("CDF vectors must have equal length")
    return float(np.mean(np.abs(a - b)))


def frobenius(A, B) -> float:
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    return float(np.sqrt(np.sum((A - B) ** 2)))


def auc(scores, labels) -> float:
    """Area under the ROC curve via the rank statistic; ties count one half."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = int(len(labels) - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both classes present")
    ranks = _average_ranks(scores)
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def _average_ranks(values) -> np.ndarray:
    """1-based ranks with ties given their mean rank (rankdata's "average").

    After a stable sort, the tie group at sorted positions lo <= k < hi
    gets the mid-rank 0.5 * (lo + hi + 1), the mean of the 1-based ranks
    lo + 1 .. hi.  This is rankdata's arithmetic, without loading
    scipy.stats.
    """
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    lo = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    hi = np.r_[lo[1:], len(values)]
    ranks = np.empty(len(values))
    ranks[order] = np.repeat(0.5 * (lo + hi + 1), hi - lo)
    return ranks
