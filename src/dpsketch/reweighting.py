"""Parametric model fitting from a sketch via reweighted synthetic losses.

The ridge solution for any target is linear in the target values, so the
sketch estimate of a parametric loss's dataset average can be rewritten
as a weighted sum of per-synthetic-sample losses, with weights that
depend only on the feature map, the sketch and the ridge penalty, not on
the model parameters or the loss.  Computing the weights once therefore
turns fitting (e.g. logistic regression) into ordinary weighted empirical
risk minimization over the synthetic samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .domain import BINARY
from .estimator import SyntheticFeatures
from .metrics import auc
from .sketch import PrivateSketch


class FitDivergenceError(RuntimeError):
    """The weighted objective kept increasing; the descent was aborted."""


@dataclass(frozen=True)
class WeightedSamples:
    """Synthetic points with their sketch-derived weights (may be negative)."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if self.points.shape[0] != self.weights.shape[0]:
            raise ValueError("points and weights must have equal length")
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("weights must be finite")


@dataclass
class GdConfig:
    """Fixed-step gradient descent knobs for the reweighted loss."""

    step: float = 0.1
    iters: int = 500
    tolerance: float = 1e-6
    restarts: int = 3
    seed: object = 0


@dataclass(frozen=True)
class LogisticModel:
    """Linear classifier on the continuous attributes, with intercept."""

    theta: np.ndarray
    intercept: float
    objective: float = field(default=float("nan"), compare=False)
    diagnostics: dict = field(default_factory=dict, compare=False)

    def scores(self, Xbar) -> np.ndarray:
        Xbar = np.atleast_2d(np.asarray(Xbar, dtype=float))
        return Xbar @ self.theta + self.intercept


def fit_weighted(weighted: WeightedSamples, objective, theta0,
                 gd: GdConfig | None = None):
    """Minimize theta -> sum_i w_i * L(x_i, theta) by fixed-step descent.

    objective(theta) must return that weighted sum and its gradient
    sum_i w_i * grad L(x_i, theta), shape (p,); see logistic_objective.
    The step is normalized by sum|w| of the weighted samples; the run
    stops early when the gradient norm drops below the tolerance and
    aborts if the objective increases 20 times in a row.
    """
    gd = gd or GdConfig()
    theta = np.asarray(theta0, dtype=float).copy()
    total = np.abs(weighted.weights).sum()
    step = gd.step / total if total > 0 else gd.step
    value, grad = objective(theta)
    bad_streak = 0
    n_iter = 0
    converged = False
    for n_iter in range(1, gd.iters + 1):
        gnorm = float(np.linalg.norm(grad))
        if gnorm < gd.tolerance:
            converged = True
            break
        theta -= step * grad
        new_value, grad = objective(theta)
        if new_value > value:
            bad_streak += 1
            if bad_streak >= 20:
                raise FitDivergenceError(
                    f"objective increased for {bad_streak} consecutive steps "
                    f"(last value {new_value:.6g})"
                )
        else:
            bad_streak = 0
        value = new_value
    return theta, value, {"iterations": n_iter, "converged": converged}


def logistic_objective(weighted: WeightedSamples):
    """The weighted log-loss of a linear classifier, as fit_weighted's objective.

    Points are (x_bar, y) rows with y in {0, 1} in the last column; theta
    holds the feature coefficients followed by the intercept.  Sample i
    has margin m_i = (2y_i - 1) * (theta^T x_bar_i + b) and loss
    log(1 + exp(-m_i)).  The signed rows (2y - 1) * [x_bar, 1] are laid
    out once, transposed and contiguous, for every step of the fit.
    """
    points = weighted.points
    signed = np.empty((points.shape[1], points.shape[0]))
    signed[:-1] = points[:, :-1].T
    signed[-1] = 1.0
    signed *= 2.0 * points[:, -1] - 1.0
    weights = weighted.weights
    # resolved at call time, so a wrapper on the module function sees every step
    return lambda theta: logistic_loss_and_grad(signed, weights, theta)


def logistic_loss_and_grad(signed: np.ndarray, weights: np.ndarray,
                           theta: np.ndarray):
    """sum_i w_i * log(1 + exp(-m_i)) and its gradient in theta.

    signed is the (p, n) array of logistic_objective, so m = theta @ signed
    and d/dtheta log(1 + exp(-m_i)) = -sigmoid(-m_i) * signed[:, i].  Both
    come from one e = exp(-|m|) per sample, stable at any margin.  Every
    sum runs through einsum rather than BLAS, whose reductions are split
    by thread and would make the fitted model depend on the thread count.
    """
    margins = np.einsum("j,jn->n", theta, signed)
    e = np.exp(-np.abs(margins))
    losses = np.maximum(-margins, 0.0)
    losses += np.log1p(e)
    # sigmoid(-m) = where(m >= 0, e, 1) / (1 + e), the select written as
    # a maximum since e <= 1
    coeff = np.maximum(e, margins < 0)
    coeff /= 1.0 + e
    coeff *= weights
    return (float(np.einsum("n,n->", weights, losses)),
            -np.einsum("jn,n->j", signed, coeff))


def fit_logistic_from_sketch(features: SyntheticFeatures, sketch: PrivateSketch,
                             gd: GdConfig | None = None) -> LogisticModel:
    """Train a logistic model from the sketch alone.

    The features' domain must have the binary label as its last
    attribute, so that the synthetic points are uniform features with a
    fair-coin label.  The loss-independent weights are computed once,
    then the reweighted log-loss is minimized with seeded restarts,
    keeping the best run.
    """
    gd = gd or GdConfig()
    if features.domain.kinds[-1] != BINARY:
        raise ValueError("the domain's last attribute must be the binary label")
    lam = features.penalty(sketch)
    weighted = WeightedSamples(features.points, features.weights(sketch, lam))
    objective = logistic_objective(weighted)
    p = features.spec.d  # d-1 feature coefficients plus intercept
    rng = np.random.default_rng(gd.seed)
    best = None
    starts = [np.zeros(p)]
    starts += [rng.normal(0.0, 0.5, size=p) for _ in range(max(gd.restarts - 1, 0))]
    last_error = None
    for theta0 in starts:
        try:
            theta, value, info = fit_weighted(weighted, objective, theta0, gd)
        except FitDivergenceError as err:
            last_error = err
            continue
        if best is None or value < best[1]:
            best = (theta, value, info)
    if best is None:
        raise FitDivergenceError(
            f"all {len(starts)} starts diverged; last: {last_error}"
        )
    theta, value, info = best
    return LogisticModel(theta[:-1], float(theta[-1]), value,
                         {"lambda": lam, **info})


def evaluate_auc(model: LogisticModel, test_points: np.ndarray) -> float:
    """AUC of the model's scores on (x_bar, y) rows of a held-out set."""
    Xbar = test_points[:, :-1]
    y = test_points[:, -1].astype(int)
    return auc(model.scores(Xbar), y)
