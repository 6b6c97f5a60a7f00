"""Desk-scale experiment harness: a dataset generator, sweep plans, results CSV.

Reruns the reference protocol on generated data: a uniform artificial
dataset of configurable shape, a grid of sketches and privacy budgets,
repeated trials, and long-format result rows with per-cell aggregate
means.  External CSV datasets can be plugged in for the same sweeps.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .domain import Domain, DomainError, read_csv
from .estimator import SyntheticFeatures, TrainConfig, WeightedSamples
from .feature_maps import build_map, map_kind
from .metrics import emd_1d, frobenius, mae, scored_error
from .sketch import privatize, sketch_exact
from .targets import (
    BoxIndicator,
    Moment,
    Predicate,
    answer_queries,
    estimate_cdf,
    estimate_covariance,
)

DEFAULT_EPSILONS = (0.01, 0.1, 1.0, 10.0, 100.0, math.inf)
DEFAULT_TASKS = ("mean", "moment2", "cdf", "cov", "queries")
DEFAULT_SKETCHES = ("rff", "race", "hist")
_QUERIES_NEED_3 = "the counting-query task needs at least 3 attributes"


@dataclass
class ExperimentPlan:
    """One sweep: dataset x sketch grid x budgets x tasks x repetitions."""

    dataset: str = "random10"  # "random10" or a CSV path
    n: int = 27_000
    d: int = 10
    sketches: tuple[str, ...] = DEFAULT_SKETCHES
    epsilons: tuple[float, ...] = DEFAULT_EPSILONS
    repetitions: int = 50
    tasks: tuple[str, ...] = DEFAULT_TASKS
    n_synth: int = 100_000
    n_queries: int = 20
    extra_reg: float = 1.0
    seed: int = 0
    sketch_params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        TrainConfig(self.n_synth, self.extra_reg)  # checks both
        if self.n_queries < 1:
            raise ValueError("n_queries must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not self.sketches or not self.epsilons or not self.tasks:
            raise ValueError("sketch, epsilon and task grids must be non-empty")
        for kind in self.sketches:
            map_kind(kind)  # FeatureMapError, a ValueError, if unknown
        for task in self.tasks:
            if task not in DEFAULT_TASKS:
                raise ValueError(f"unknown task {task!r}; expected one of "
                                 f"{', '.join(DEFAULT_TASKS)}")
        if self.dataset == "random10":
            if self.n < 1 or self.d < 1:
                raise ValueError("n and d must be >= 1")
            if "queries" in self.tasks and self.d < 3:
                raise ValueError(_QUERIES_NEED_3)

    def quick(self) -> "ExperimentPlan":
        """CI-scale variant: fewer synthetic samples and repetitions."""
        return replace(self, repetitions=min(self.repetitions, 10),
                       n_synth=min(self.n_synth, 20_000))


def gen_random10(n: int, d: int, seed) -> np.ndarray:
    """n i.i.d. uniform points in [0, 1]^d."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    return np.random.default_rng(seed).uniform(0.0, 1.0, size=(n, d))


def _random_queries(domain: Domain, n_queries: int, rng) -> list[BoxIndicator]:
    queries = []
    d = domain.d
    while len(queries) < n_queries:
        attrs = rng.choice(d, size=3, replace=False)
        preds = []
        for attr in attrs:
            lo, hi = domain.lower[attr], domain.upper[attr]
            bound = float(rng.uniform(lo, hi))
            op = "<=" if rng.uniform() < 0.5 else ">="
            preds.append(Predicate(int(attr) + 1, op, bound))
        queries.append(BoxIndicator(tuple(preds)))
    return queries


def _task_values(samples: WeightedSamples, tasks, queries) -> dict:
    """Each task's statistic from one set of weighted samples, in a fixed
    task order: estimates from a cell's sketch, truths from the records."""
    d = samples.domain.d
    values = {}
    for task, power in (("mean", 1), ("moment2", 2)):
        if task in tasks:
            values[task] = samples.sums([Moment(j, power)
                                         for j in range(1, d + 1)])
    if "cdf" in tasks:
        values["cdf"] = [estimate_cdf(samples, j).values
                         for j in range(1, d + 1)]
    if "cov" in tasks:
        values["cov"] = estimate_covariance(samples)
    if "queries" in tasks:
        values["queries"] = answer_queries(samples, queries).fractions
    return values


def _score(task: str, est, true) -> tuple[str, float]:
    """The metric of a task and its value for an estimate against its
    truth ("mre_abs" where zero truths mix absolute errors into "mre")."""
    if task == "cov":
        return "frobenius", frobenius(est, true)
    if task == "queries":
        return "mae", mae(est, true)
    names, errors = zip(*(("emd", emd_1d(e, t)) if task == "cdf"
                          else scored_error(e, t) for e, t in zip(est, true)))
    return (names[0] if len(set(names)) == 1 else "mre_abs",
            float(np.mean(errors)))


RESULT_FIELDS = ("dataset", "sketch", "epsilon", "task", "repetition",
                 "metric", "value")


def _eps_label(eps: float) -> str:
    return "inf" if math.isinf(eps) else repr(float(eps))


def run_plan(plan: ExperimentPlan, out_dir) -> str:
    """Execute a plan; returns the path of the long-format results CSV.

    Rows are flushed after every repetition so interrupted runs keep their
    partial results; the aggregate file holds per-cell means of the rows.
    """
    os.makedirs(out_dir, exist_ok=True)
    if plan.dataset == "random10":
        data = gen_random10(plan.n, plan.d, (plan.seed, 1))
        domain = Domain.unit(plan.d)
        dataset_name = "random10"
    else:
        data, _header = read_csv(plan.dataset)
        lo = np.minimum(data.min(axis=0), 0.0)
        hi = np.maximum(data.max(axis=0), 1.0)
        domain = Domain(tuple(lo), tuple(hi))
        dataset_name = os.path.basename(str(plan.dataset))
    queries = []
    if "queries" in plan.tasks:
        if domain.d < 3:  # a random10 plan checked this on construction
            raise DomainError(f"{plan.dataset}: {_QUERIES_NEED_3}")
        queries = _random_queries(domain, plan.n_queries,
                                  np.random.default_rng((plan.seed, 2)))
    truth = _task_values(WeightedSamples.uniform(data, domain), plan.tasks,
                         queries)

    results_path = os.path.join(out_dir, "results.csv")
    cells: dict[tuple, list[float]] = {}  # each cell's values, in row order
    with open(results_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULT_FIELDS)
        for si, kind in enumerate(plan.sketches):
            spec = build_map(kind, domain, (plan.seed, 3, si),
                             plan.sketch_params.get(kind))
            exact = sketch_exact(spec, data)
            config = TrainConfig(n_synth=plan.n_synth,
                                 extra_reg=plan.extra_reg,
                                 seed=(plan.seed, 4, si))
            features = SyntheticFeatures(spec, config)
            for ei, eps in enumerate(plan.epsilons):
                for rep in range(plan.repetitions):
                    sketch = privatize(exact, spec, eps,
                                       seed=(plan.seed, 5, si, ei, rep))
                    estimates = _task_values(features.weighted(sketch),
                                             plan.tasks, queries)
                    for task, est in estimates.items():
                        metric, value = _score(task, est, truth[task])
                        cell = (dataset_name, kind, _eps_label(eps), task,
                                metric)
                        writer.writerow(cell[:4] + (rep, metric, repr(value)))
                        cells.setdefault(cell, []).append(value)
                    fh.flush()

    aggregate_path = os.path.join(out_dir, "aggregate.csv")
    with open(aggregate_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("dataset", "sketch", "epsilon", "task", "metric",
                         "mean", "repetitions"))
        for key, values in cells.items():
            writer.writerow(key + (repr(float(np.mean(values))), len(values)))
    return results_path

