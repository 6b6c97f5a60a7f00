"""Parametric model fitting from a sketch via reweighted synthetic losses.

The ridge solution for any target is linear in the target values, so the
sketch estimate of a parametric loss's dataset average can be rewritten
as a weighted sum of per-synthetic-sample losses, with weights that
depend only on the feature map, the sketch and the ridge penalty, not on
the model parameters or the loss.  Computing the weights once therefore
turns fitting (e.g. logistic regression) into ordinary weighted empirical
risk minimization over the synthetic samples.  The fits here read only
those WeightedSamples (SyntheticFeatures.weighted solves for them), so a
caller can free the samples' encoding and factor before fitting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .domain import BINARY
from .estimator import WeightedSamples
from .metrics import auc


# The logistic fit's penalty is rho = RIDGE * sum|w|, so scaling every
# weight by c scales its objective by c and leaves the minimizer in place.
RIDGE = 1e-3
NEWTON_ITERS = 100  # default cap on Newton steps
GRAD_TOLERANCE = 1e-8  # converged once ||gradient|| <= this * sum|w|


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
                 iters: int = NEWTON_ITERS, tolerance: float = GRAD_TOLERANCE):
    """Minimize theta -> sum_i w_i * L(x_i, theta) by damped Newton.

    objective(theta, curvature) returns that weighted sum and its
    gradient, shape (p,), plus its Hessian, shape (p, p), when curvature
    is true; see logistic_objective.  A Hessian that is not positive
    definite is shifted by a growing multiple of I, and each step is
    halved until it decreases the objective enough (Armijo).  The fit
    stops once ||gradient|| <= tolerance * sum|w|, after iters steps, or
    when no step decreases the objective; info holds the steps taken
    ("iterations") and whether the gradient test was met ("converged").
    """
    if iters < 1:
        raise ValueError("iters must be at least 1")
    theta = np.asarray(theta0, dtype=float).copy()
    goal = tolerance * float(np.abs(weighted.weights).sum())
    value, grad, hess = objective(theta, True)
    n_iter = 0
    while not (converged := bool(np.linalg.norm(grad) <= goal)) \
            and n_iter < iters:
        direction = _newton_direction(hess, grad)
        slope = float(grad @ direction)
        for halvings in range(40):
            trial = theta + 0.5 ** halvings * direction
            new = objective(trial, True)
            if new[0] <= value + 1e-4 * 0.5 ** halvings * slope:
                break
        else:  # no step decreases the objective
            break
        theta = trial
        value, grad, hess = new
        n_iter += 1
    return theta, value, {"iterations": n_iter, "converged": converged}


def _newton_direction(hess, grad):
    """-H^-1 grad, with H + shift * I for the least tried shift that factors."""
    floor = 1e-3 * max(float(np.abs(np.diag(hess)).max()), 1e-300)
    shift = 0.0
    while True:
        try:
            factor = np.linalg.cholesky(hess + shift * np.eye(len(grad)))
            return -np.linalg.solve(factor.T, np.linalg.solve(factor, grad))
        except np.linalg.LinAlgError:
            shift = max(2.0 * shift, floor)


def logistic_objective(weighted: WeightedSamples, rho: float = 0.0):
    """The weighted log-loss of a linear classifier plus rho/2 ||theta||^2.

    Points are (x_bar, y) rows with y in {0, 1} in the last column; theta
    holds the feature coefficients followed by the intercept.  Sample i
    has margin m_i = (2y_i - 1) * (theta^T x_bar_i + b) and loss
    log(1 + exp(-m_i)).  The signed rows (2y - 1) * [x_bar, 1] are laid
    out once, transposed and contiguous, for every step of the fit.  The
    returned objective(theta, curvature=False) is fit_weighted's.
    """
    points = weighted.points
    signed = np.empty((points.shape[1], points.shape[0]))
    signed[:-1] = points[:, :-1].T
    signed[-1] = 1.0
    signed *= 2.0 * points[:, -1] - 1.0
    weights = weighted.weights
    # resolved at call time, so a wrapper on the module function sees every step
    return lambda theta, curvature=False: logistic_loss_and_grad(
        signed, weights, theta, rho, curvature)


def logistic_loss_and_grad(signed: np.ndarray, weights: np.ndarray,
                           theta: np.ndarray, rho: float = 0.0,
                           curvature: bool = False):
    """sum_i w_i * log(1 + exp(-m_i)) + rho/2 ||theta||^2 and its gradient.

    signed is the (p, n) array of logistic_objective, so m = theta @ signed
    and d/dtheta log(1 + exp(-m_i)) = -sigmoid(-m_i) * signed[:, i].  Both
    come from one e = exp(-|m|) per sample, stable at any margin, and so
    does the Hessian's sigmoid(m)(1 - sigmoid(m)) = e / (1 + e)^2, which
    is returned as a third value when curvature is true.  Every sum over
    samples runs through einsum rather than BLAS, whose reductions are
    split by thread and would make the fitted model depend on the thread
    count.
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
    value = float(np.einsum("n,n->", weights, losses))
    grad = -np.einsum("jn,n->j", signed, coeff)
    if rho:
        value += 0.5 * rho * float(theta @ theta)
        grad += rho * theta
    if not curvature:
        return value, grad
    e /= np.square(1.0 + e)
    e *= weights
    hess = np.einsum("jn,kn,n->jk", signed, signed, e)
    hess.flat[::len(theta) + 1] += rho
    return value, grad, hess


def fit_logistic_from_sketch(weighted: WeightedSamples,
                             iters: int = NEWTON_ITERS) -> LogisticModel:
    """Train a logistic model from a sketch's weighted synthetic samples.

    weighted's domain must have the binary label as its last attribute,
    so that the synthetic points are uniform features with a fair-coin
    label.  The reweighted log-loss plus rho/2 ||theta||^2, rho = RIDGE *
    sum|w|, is minimized by Newton from theta = 0 in at most iters steps.
    The penalty bounds the objective below when weights are negative.
    The model's objective is the weighted log-loss without the penalty.
    """
    if weighted.domain is None or weighted.domain.kinds[-1] != BINARY:
        raise ValueError("the domain's last attribute must be the binary label")
    rho = RIDGE * float(np.abs(weighted.weights).sum())
    p = weighted.points.shape[1]  # d-1 feature coefficients plus intercept
    theta, value, info = fit_weighted(
        weighted, logistic_objective(weighted, rho), np.zeros(p), iters)
    loss = value - 0.5 * rho * float(theta @ theta)
    return LogisticModel(theta[:-1], float(theta[-1]), loss,
                         {"rho": rho, "penalized_objective": value, **info})


def evaluate_auc(model: LogisticModel, test_points: np.ndarray) -> float:
    """AUC of the model's scores on (x_bar, y) rows of a held-out set."""
    Xbar = test_points[:, :-1]
    y = test_points[:, -1].astype(int)
    return auc(model.scores(Xbar), y)
