"""Declarative target functions and multi-target estimation pipelines.

Targets describe the scalar function whose dataset average is wanted:
attribute moments, box-membership indicators (counting queries and CDF
thresholds) and centered cross products.  Attribute numbers are 1-based,
matching the CLI grammar (x1 is the first column).

Pipelines answer groups of targets from one WeightedSamples: a sketch's
(SyntheticFeatures.weighted, one solve whatever is asked of it) or a
dataset's records weighted 1/n, which gives the true statistics.  They
compute per-attribute CDF vectors, the covariance matrix (via plug-in
first moments), and batched counting queries.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .domain import Domain
from .estimator import WeightedSamples

_QUERY_PREDICATES = 3  # predicates per counting query, on distinct attributes


class TargetError(ValueError):
    """Malformed target description."""


class TargetParseError(TargetError):
    """Grammar error, annotated with the offending position."""

    def __init__(self, message: str, text: str, pos: int):
        super().__init__(f"{message} (at position {pos}: {text[pos:pos + 20]!r})")
        self.pos = pos


def _check_attr(attr: int, d: int | None = None) -> int:
    """attr as an int; it must be at least 1 and, when d is given, at most d."""
    if attr < 1:
        raise TargetError(f"attribute numbers are 1-based, got {attr}")
    if d is not None and attr > d:
        raise TargetError(f"attribute {attr} out of range for d={d}")
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


# -- textual grammar ------------------------------------------------------

_PRED_RE = re.compile(r"\s*x(\d+)\s*(<=|>=)\s*([-+]?\d*\.?\d+(?:[eE][-+]?\d+)?)\s*")


def parse_predicates(text: str, d: int | None = None) -> BoxIndicator:
    """Parse 'x1<=0.5 and x3>=0.2 and ...' into a box indicator.

    With d given, attribute numbers above d are rejected.
    """
    preds = []
    pos = 0
    while True:
        match = _PRED_RE.match(text, pos)
        if not match:
            raise TargetParseError(
                "expected a predicate like x1<=0.5", text, pos
            )
        preds.append(Predicate(_check_attr(int(match.group(1)), d),
                               match.group(2), float(match.group(3))))
        pos = match.end()
        if pos >= len(text):
            break
        if text.startswith("and", pos):
            pos += 3
        else:
            raise TargetParseError("expected 'and' between predicates", text, pos)
    return BoxIndicator(tuple(preds))


def parse_target(text: str, d: int | None = None):
    """Parse a CLI target string.

    Grammar: 'moment j k' | 'count "<predicates>"' | 'cdf j' | 'cov'.
    Returns (kind, payload) where kind is one of 'moment', 'count',
    'cdf', 'cov' and payload is the parsed target (or attribute number
    for 'cdf', None for 'cov').  With d given, attribute numbers above d
    are rejected.
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
        return "moment", Moment(_check_attr(int(fields[0]), d), int(fields[1]))
    if kind == "count":
        expr = rest.strip()
        if expr.startswith('"') and expr.endswith('"') and len(expr) >= 2:
            expr = expr[1:-1]
        if not expr:
            raise TargetParseError("expected predicates after 'count'",
                                   text, len(stripped))
        return "count", parse_predicates(expr, d)
    if kind == "cdf":
        if not rest.strip().isdigit():
            raise TargetParseError("expected 'cdf j' with integer j",
                                   text, len(kind))
        return "cdf", _check_attr(int(rest), d)
    if kind == "cov":
        if rest.strip():
            raise TargetParseError("'cov' takes no arguments", text, len(kind))
        return "cov", None
    raise TargetParseError(f"unknown target kind {kind!r}", text, 0)


# -- pipelines ------------------------------------------------------------
#
# Each takes one WeightedSamples with its domain.


@dataclass(frozen=True)
class CdfEstimate:
    thresholds: np.ndarray
    values: np.ndarray  # clamped to [0, 1]
    raw: np.ndarray = field(compare=False)


@dataclass(frozen=True)
class QueryAnswers:
    fractions: np.ndarray  # clamped to [0, 1]
    raw: np.ndarray = field(compare=False)


def default_thresholds(domain: Domain, attr: int) -> np.ndarray:
    """Ten equi-spaced CDF evaluation points over the attribute's range."""
    lo = domain.lower[attr - 1]
    hi = domain.upper[attr - 1]
    return lo + (hi - lo) * np.arange(1, 11) / 10


def estimate_cdf(samples: WeightedSamples, attr: int) -> CdfEstimate:
    """Estimate the empirical CDF of one attribute at default_thresholds.

    Raw per-threshold estimates are kept alongside the [0, 1]-clamped
    values; no monotonicity correction is applied.
    """
    _check_attr(attr, samples.domain.d)
    thresholds = default_thresholds(samples.domain, attr)
    raw = samples.sums([BoxIndicator((Predicate(attr, "<=", float(s)),))
                        for s in thresholds])
    return CdfEstimate(thresholds, np.clip(raw, 0.0, 1.0), raw)


def estimate_covariance(samples: WeightedSamples) -> np.ndarray:
    """Two-pass covariance estimate: first moments, then centered products.

    The plug-in means come from the same samples, so no extra privacy
    budget is spent; the result is symmetric by construction.
    """
    d = samples.domain.d
    means = samples.sums([Moment(j, 1) for j in range(1, d + 1)])
    pairs = [(i, j) for i in range(d) for j in range(i, d)]
    values = samples.sums([
        CenteredProduct(i + 1, j + 1, float(means[i]), float(means[j]))
        for i, j in pairs
    ])
    cov = np.empty((d, d))
    for (i, j), value in zip(pairs, values):
        cov[i, j] = value
        cov[j, i] = value
    return cov


def check_queries(queries, d: int) -> None:
    """Each query must be a box indicator of exactly _QUERY_PREDICATES
    predicates on distinct attributes numbered at most d."""
    for q in queries:
        if not isinstance(q, BoxIndicator):
            raise TargetError("queries must be box indicators")
        if len(q.predicates) != _QUERY_PREDICATES:
            raise TargetError(
                f"each query needs exactly {_QUERY_PREDICATES} predicates"
            )
        attrs = {_check_attr(p.attr, d) for p in q.predicates}
        if len(attrs) != _QUERY_PREDICATES:
            raise TargetError("query predicates must touch distinct attributes")


def answer_queries(samples: WeightedSamples, queries) -> QueryAnswers:
    """Batch-estimate counting queries that are conjunctions of predicates.

    Each query must have exactly three predicates, on distinct attributes
    of the samples' domain.  Answers come as fractions of records
    (clamped), with the raw estimates alongside.
    """
    check_queries(queries, samples.domain.d)
    raw = samples.sums(queries)
    return QueryAnswers(np.clip(raw, 0.0, 1.0), raw)
