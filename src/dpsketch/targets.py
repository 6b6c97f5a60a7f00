"""Declarative target functions and multi-target estimation pipelines.

Targets describe the scalar function whose dataset average is wanted:
attribute moments, box-membership indicators (counting queries), CDF
thresholds, centered cross products, or arbitrary callables.  Attribute
numbers are 1-based, matching the CLI grammar (x1 is the first column).

Pipelines built on SyntheticFeatures.estimate, one weight solve per
sketch for all their targets: per-attribute CDF vectors, the covariance
matrix (via plug-in first moments), and batched counting queries.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .estimator import SyntheticFeatures, TrainConfig
from .feature_maps import FeatureMap
from .sketch import PrivateSketch


class TargetError(ValueError):
    """Malformed target description."""


class TargetParseError(TargetError):
    """Grammar error, annotated with the offending position."""

    def __init__(self, message: str, text: str, pos: int):
        super().__init__(f"{message} (at position {pos}: {text[pos:pos + 20]!r})")
        self.pos = pos


def _check_attr(attr: int) -> int:
    if attr < 1:
        raise TargetError(f"attribute numbers are 1-based, got {attr}")
    return int(attr)


@dataclass(frozen=True)
class Moment:
    """x_attr ** power."""

    attr: int
    power: int

    def __post_init__(self):
        _check_attr(self.attr)
        if self.power < 0:
            raise TargetError("moment order must be nonnegative")

    def __call__(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return X[:, self.attr - 1] ** self.power


@dataclass(frozen=True)
class Predicate:
    """One-sided bound on an attribute: x_attr <= bound or x_attr >= bound."""

    attr: int
    op: str
    bound: float

    def __post_init__(self):
        _check_attr(self.attr)
        if self.op not in ("<=", ">="):
            raise TargetError(f"predicate operator must be <= or >=, got {self.op!r}")

    def holds(self, X) -> np.ndarray:
        col = X[:, self.attr - 1]
        return col <= self.bound if self.op == "<=" else col >= self.bound


@dataclass(frozen=True)
class BoxIndicator:
    """1 iff every predicate holds; the indicator of an axis-aligned box."""

    predicates: tuple[Predicate, ...]

    def __post_init__(self):
        object.__setattr__(self, "predicates", tuple(self.predicates))
        if not self.predicates:
            raise TargetError("box indicator needs at least one predicate")
        bounds: dict[tuple[int, str], float] = {}
        for p in self.predicates:
            key = (p.attr, p.op)
            if key in bounds:
                raise TargetError(
                    f"attribute {p.attr} has more than one {p.op} predicate"
                )
            bounds[key] = p.bound
        for attr in {p.attr for p in self.predicates}:
            lo = bounds.get((attr, ">="))
            hi = bounds.get((attr, "<="))
            if lo is not None and hi is not None and lo > hi:
                raise TargetError(
                    f"attribute {attr} has contradictory bounds (empty box)"
                )

    def __call__(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        mask = np.ones(X.shape[0], dtype=bool)
        for p in self.predicates:
            mask &= p.holds(X)
        return mask.astype(float)


@dataclass(frozen=True)
class CdfThreshold:
    """1 iff x_attr <= threshold."""

    attr: int
    threshold: float

    def __post_init__(self):
        _check_attr(self.attr)

    def __call__(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return (X[:, self.attr - 1] <= self.threshold).astype(float)


@dataclass(frozen=True)
class CenteredProduct:
    """(x_i - mu_i) * (x_j - mu_j)."""

    i: int
    j: int
    mu_i: float
    mu_j: float

    def __post_init__(self):
        _check_attr(self.i)
        _check_attr(self.j)

    def __call__(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return (X[:, self.i - 1] - self.mu_i) * (X[:, self.j - 1] - self.mu_j)


@dataclass(frozen=True)
class Custom:
    """Wrap an arbitrary callable taking an (n, d) batch (or a single point)."""

    fn: object
    name: str = "custom"

    def __call__(self, X):
        return self.fn(X)


def eval_target(target, x) -> float:
    """Evaluate a target at a single point."""
    x = np.asarray(x, dtype=float).reshape(1, -1)
    return float(np.asarray(target(x)).reshape(-1)[0])


# -- textual grammar ------------------------------------------------------

_PRED_RE = re.compile(r"\s*x(\d+)\s*(<=|>=)\s*([-+]?\d*\.?\d+(?:[eE][-+]?\d+)?)\s*")


def parse_predicates(text: str) -> BoxIndicator:
    """Parse 'x1<=0.5 and x3>=0.2 and ...' into a box indicator."""
    preds = []
    pos = 0
    while True:
        match = _PRED_RE.match(text, pos)
        if not match:
            raise TargetParseError(
                "expected a predicate like x1<=0.5", text, pos
            )
        preds.append(Predicate(int(match.group(1)), match.group(2),
                               float(match.group(3))))
        pos = match.end()
        if pos >= len(text):
            break
        if text.startswith("and", pos):
            pos += 3
        else:
            raise TargetParseError("expected 'and' between predicates", text, pos)
    return BoxIndicator(tuple(preds))


def parse_target(text: str):
    """Parse a CLI target string.

    Grammar: 'moment j k' | 'count "<predicates>"' | 'cdf j' | 'cov'.
    Returns (kind, payload) where kind is one of 'moment', 'count',
    'cdf', 'cov' and payload is the parsed target (or attribute number
    for 'cdf', None for 'cov').
    """
    stripped = text.strip()
    parts = stripped.split(None, 1)
    if not parts:
        raise TargetParseError("empty target", text, 0)
    kind = parts[0]
    rest = parts[1] if len(parts) > 1 else ""
    if kind == "moment":
        fields = rest.split()
        if len(fields) != 2 or not all(f.isdigit() for f in fields):
            raise TargetParseError("expected 'moment j k' with integer j, k",
                                   text, len(kind))
        return "moment", Moment(int(fields[0]), int(fields[1]))
    if kind == "count":
        expr = rest.strip()
        if expr.startswith('"') and expr.endswith('"') and len(expr) >= 2:
            expr = expr[1:-1]
        if not expr:
            raise TargetParseError("expected predicates after 'count'",
                                   text, len(stripped))
        return "count", parse_predicates(expr)
    if kind == "cdf":
        if not rest.strip().isdigit():
            raise TargetParseError("expected 'cdf j' with integer j",
                                   text, len(kind))
        return "cdf", int(rest)
    if kind == "cov":
        if rest.strip():
            raise TargetParseError("'cov' takes no arguments", text, len(kind))
        return "cov", None
    raise TargetParseError(f"unknown target kind {kind!r}", text, 0)


# -- pipelines ------------------------------------------------------------


@dataclass(frozen=True)
class CdfEstimate:
    thresholds: np.ndarray
    values: np.ndarray  # clamped to [0, 1]
    raw: np.ndarray = field(compare=False)


@dataclass(frozen=True)
class QueryAnswers:
    fractions: np.ndarray  # clamped to [0, 1]
    raw: np.ndarray = field(compare=False)
    counts: np.ndarray = field(compare=False)  # fractions scaled by the noisy count


def default_thresholds(spec: FeatureMap, attr: int, k: int = 10) -> np.ndarray:
    """k equi-spaced CDF evaluation points over the attribute's range."""
    lo = spec.domain.lower[attr - 1]
    hi = spec.domain.upper[attr - 1]
    return lo + (hi - lo) * np.arange(1, k + 1) / k


def estimate_cdf(spec: FeatureMap, sketch: PrivateSketch, attr: int,
                 thresholds=None, config: TrainConfig | None = None,
                 features: SyntheticFeatures | None = None) -> CdfEstimate:
    """Estimate the empirical CDF of one attribute at fixed thresholds.

    Raw per-threshold estimates are kept alongside the [0, 1]-clamped
    values; no monotonicity correction is applied.
    """
    _check_attr(attr)
    if thresholds is None:
        thresholds = default_thresholds(spec, attr)
    thresholds = np.asarray(thresholds, dtype=float)
    if np.any(np.diff(thresholds) < 0):
        raise TargetError("thresholds must be sorted ascending")
    if features is None:
        features = SyntheticFeatures(spec, config)
    raw = features.estimate(sketch, [CdfThreshold(attr, float(s))
                                     for s in thresholds])
    return CdfEstimate(thresholds, np.clip(raw, 0.0, 1.0), raw)


def estimate_covariance(spec: FeatureMap, sketch: PrivateSketch,
                        config: TrainConfig | None = None,
                        features: SyntheticFeatures | None = None) -> np.ndarray:
    """Two-pass covariance estimate: first moments, then centered products.

    The plug-in means come from the same sketch, so no extra privacy
    budget is spent; the result is symmetric by construction.
    """
    if features is None:
        features = SyntheticFeatures(spec, config)
    d = spec.d
    w = features.weights(sketch, features.penalty(sketch))  # both passes
    means = features.weighted_sums(w, [Moment(j, 1) for j in range(1, d + 1)])
    pairs = [(i, j) for i in range(d) for j in range(i, d)]
    values = features.weighted_sums(w, [
        CenteredProduct(i + 1, j + 1, float(means[i]), float(means[j]))
        for i, j in pairs
    ])
    cov = np.empty((d, d))
    for (i, j), value in zip(pairs, values):
        cov[i, j] = value
        cov[j, i] = value
    return cov


def answer_queries(spec: FeatureMap, sketch: PrivateSketch, queries,
                   config: TrainConfig | None = None,
                   features: SyntheticFeatures | None = None,
                   n_predicates: int = 3) -> QueryAnswers:
    """Batch-estimate counting queries that are conjunctions of predicates.

    Each query must have exactly n_predicates predicates on distinct
    attributes.  Answers come as fractions of records (clamped), with the
    raw estimates and count-scaled values exposed alongside.
    """
    for q in queries:
        if not isinstance(q, BoxIndicator):
            raise TargetError("queries must be box indicators")
        if len(q.predicates) != n_predicates:
            raise TargetError(
                f"each query needs exactly {n_predicates} predicates"
            )
        attrs = {p.attr for p in q.predicates}
        if len(attrs) != n_predicates:
            raise TargetError("query predicates must touch distinct attributes")
        for p in q.predicates:
            if p.attr > spec.d:
                raise TargetError(
                    f"attribute {p.attr} out of range for d={spec.d}"
                )
    if features is None:
        features = SyntheticFeatures(spec, config)
    raw = features.estimate(sketch, queries)
    fractions = np.clip(raw, 0.0, 1.0)
    counts = fractions * max(sketch.noisy_count, 1.0)
    return QueryAnswers(fractions, raw, counts)
