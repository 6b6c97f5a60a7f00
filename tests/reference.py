"""Reference code the tests compare the library against, and the tests'
data generators.

The ridge fit here solves for the coefficients of one target, where the
library solves once per sketch for weights on the synthetic samples; it
is built on the public dot_targets, solve and apply, so the duality
checks compare two routes through the same factored system.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from dpsketch import Domain, SyntheticFeatures, TrainConfig, build_map
from dpsketch.domain import BINARY, CONTINUOUS
from dpsketch.estimator import _evaluate_target
from dpsketch.feature_maps import FeatureMap
from dpsketch.reweighting import evaluate_auc, fit_logistic_from_sketch
from dpsketch.sketch import privatize, sketch_exact


def kernel_estimate(spec: FeatureMap, x, y) -> float:
    """<Phi(x), Phi(y)> normalized into a kernel estimate in [0, 1]: divided
    by m/2 for RFF, and by the number of one-hot blocks (d for HIST, the
    hashes R for RACE) for the one-hot maps."""
    scale = spec.m / 2 if spec.variant == "RFF" else spec.n_blocks
    phi_x = spec.encode_batch(x).toarray()[0]
    phi_y = spec.encode_batch(y).toarray()[0]
    return float(np.dot(phi_x, phi_y) / scale)


@dataclass(frozen=True)
class SketchModel:
    """Fitted linear coefficients over the feature map, ready to query a sketch."""

    coef: np.ndarray
    lam: float
    spec_id: str
    diagnostics: dict = field(default_factory=dict, compare=False)


def fit(features: SyntheticFeatures, f, lam: float) -> SketchModel:
    """Ridge-fit coefficients so that <coef, Phi(x)> approximates f(x).

    The reference path: estimates come from weights; the coefficients
    are for diagnostics and for checking the weights against.
    """
    F = _evaluate_target(f, features.points)
    rhs = features.dot_targets(F)
    coef = features.solve(rhs, lam)
    residual = features.apply(coef) - F
    train_loss = float(residual @ residual / features.n + lam * coef @ coef)
    diagnostics = {
        "train_loss": train_loss,
        "residual_norm": float(np.linalg.norm(residual) / np.sqrt(features.n)),
        "n_synth": features.n,
    }
    return SketchModel(coef, lam, features.spec.spec_id, diagnostics)


def loss_value(spec: FeatureMap, a: np.ndarray, f, samples, lam: float) -> float:
    """The regularized squared-error objective at coefficients a."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    a = np.asarray(a, dtype=float)
    F = _evaluate_target(f, samples)
    pred = spec.encode_batch(samples) @ a
    r = F - pred
    return float(r @ r / samples.shape[0] + lam * a @ a)


def gen_separable_classification(n: int, d: int, margin: float = 50.0,
                                 seed=0, return_direction: bool = False):
    """Classification data: uniform features plus a near-separable binary label.

    The label is Bernoulli(sigmoid(margin * (w^T xbar - t))) for a seeded
    unit direction w and centered threshold t.  margin=inf gives
    deterministic labels; margin=0 gives coin-flip labels.  The default
    margin leaves a plain logistic fit with AUC above 0.99.
    """
    if d < 2:
        raise ValueError("need at least 2 attributes (features plus label)")
    rng = np.random.default_rng(seed)
    Xbar = rng.uniform(0.0, 1.0, size=(n, d - 1))
    w = rng.normal(size=d - 1)
    w /= np.linalg.norm(w)
    u = Xbar @ w
    t = float(w.sum()) / 2.0  # threshold at the box center
    if math.isinf(margin):
        y = (u > t).astype(float)
    else:
        p = 1.0 / (1.0 + np.exp(-margin * (u - t)))
        y = (rng.uniform(size=n) < p).astype(float)
    data = np.column_stack([Xbar, y])
    return (data, w) if return_direction else data


def write_csv(path, data, header=None) -> None:
    """A CSV file of the rows of data under header (x1, x2, ... if None),
    each value written as repr(float(v))."""
    data = np.atleast_2d(data)
    if header is None:
        header = [f"x{j + 1}" for j in range(data.shape[1])]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in data:
            writer.writerow([repr(float(v)) for v in row])


def logistic_sweep(epsilons, n: int = 20_000, d: int = 6, margin: float = 50.0,
                   sketch_kind: str = "rff", n_runs: int = 10,
                   n_synth: int = 20_000, seed: int = 0,
                   sketch_params: dict | None = None) -> dict[float, float]:
    """Mean held-out AUC of sketch-trained logistic models per budget.

    Generates a near-separable dataset, holds out 10%, sketches the rest,
    and trains via the reweighted synthetic loss for each epsilon.
    """
    data = gen_separable_classification(n, d, margin, (seed, 1))
    n_test = n // 10
    test, train = data[:n_test], data[n_test:]
    kinds = (CONTINUOUS,) * (d - 1) + (BINARY,)
    domain = Domain.unit(d, kinds)
    spec = build_map(sketch_kind, domain, (seed, 2), sketch_params)
    exact = sketch_exact(spec, train)
    results = {}
    for ei, eps in enumerate(epsilons):
        aucs = []
        for run in range(n_runs):
            config = TrainConfig(n_synth=n_synth, seed=(seed, 3, run),
                                 domain=domain)
            sketch = privatize(exact, spec, eps, seed=(seed, 4, ei, run))
            model = fit_logistic_from_sketch(
                SyntheticFeatures(spec, config).weighted(sketch))
            aucs.append(evaluate_auc(model, test))
        results[eps] = float(np.mean(aucs))
    return results
