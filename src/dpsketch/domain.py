"""Bounded data domain: an axis-aligned box with per-attribute kinds, and
the reader of the numeric CSV files that hold records."""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field

import numpy as np

CONTINUOUS = "continuous"
BINARY = "binary"


class DomainError(ValueError):
    """A record or bound violates the declared domain."""


@dataclass(frozen=True)
class Domain:
    """Axis-aligned box bounding all records, with per-attribute kinds.

    Binary attributes must have bounds {0, 1}; continuous attributes need
    finite lower < upper, a finite distance apart.  All records are
    expected to satisfy lower <= x <= upper componentwise.
    """

    lower: tuple[float, ...]
    upper: tuple[float, ...]
    kinds: tuple[str, ...] = field(default=())

    def __post_init__(self):
        lower = tuple(float(v) for v in self.lower)
        upper = tuple(float(v) for v in self.upper)
        kinds = tuple(self.kinds) if self.kinds else (CONTINUOUS,) * len(lower)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "kinds", kinds)
        if not (len(lower) == len(upper) == len(kinds)):
            raise DomainError("lower, upper and kinds must have equal length")
        if len(lower) == 0:
            raise DomainError("domain must have at least one attribute")
        for j, (lo, hi, kind) in enumerate(zip(lower, upper, kinds)):
            if kind == BINARY:
                if (lo, hi) != (0.0, 1.0):
                    raise DomainError(
                        f"binary attribute {j} must have bounds (0, 1), got ({lo}, {hi})"
                    )
            elif kind == CONTINUOUS:
                if not (lo < hi and np.isfinite(hi - lo)):
                    raise DomainError(
                        f"attribute {j} needs finite lower < upper, a finite "
                        f"distance apart, got ({lo}, {hi})"
                    )
            else:
                raise DomainError(f"unknown attribute kind {kind!r}")

    @property
    def d(self) -> int:
        return len(self.lower)

    @property
    def lower_arr(self) -> np.ndarray:
        return np.asarray(self.lower, dtype=float)

    @property
    def upper_arr(self) -> np.ndarray:
        return np.asarray(self.upper, dtype=float)

    @classmethod
    def unit(cls, d: int, kinds: tuple[str, ...] | None = None) -> "Domain":
        """The unit box [0, 1]^d."""
        return cls((0.0,) * d, (1.0,) * d, kinds or (CONTINUOUS,) * d)

    def validate(self, records) -> np.ndarray:
        """Check a (n, d) batch of records against the domain; return the array.

        Every value must lie in its attribute's bounds, and every value of
        a binary attribute must be exactly 0 or 1.
        """
        x = np.atleast_2d(np.asarray(records, dtype=float))
        if x.shape[1] != self.d:
            raise DomainError(f"expected {self.d} attributes, got {x.shape[1]}")
        if not np.all(np.isfinite(x)):
            raise DomainError("records contain non-finite values")
        low = x < self.lower_arr
        high = x > self.upper_arr
        if low.any() or high.any():
            i, j = np.argwhere(low | high)[0]
            raise DomainError(
                f"record {i}, attribute {j}: value {x[i, j]} outside "
                f"[{self.lower[j]}, {self.upper[j]}]"
            )
        binary = [j for j, kind in enumerate(self.kinds) if kind == BINARY]
        if binary:
            labels = x[:, binary]
            bad = (labels != 0.0) & (labels != 1.0)
            if bad.any():
                i, k = np.argwhere(bad)[0]
                raise DomainError(
                    f"record {i}, attribute {binary[k]}: value {labels[i, k]} "
                    f"is not one of the binary classes 0 and 1"
                )
        return x

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw n i.i.d. points: uniform per continuous attribute, fair coin per binary."""
        out = np.empty((n, self.d))
        for j, kind in enumerate(self.kinds):
            if kind == BINARY:
                out[:, j] = rng.integers(0, 2, size=n).astype(float)
            else:
                out[:, j] = rng.uniform(self.lower[j], self.upper[j], size=n)
        return out

    def to_dict(self) -> dict:
        return {
            "lower": list(self.lower),
            "upper": list(self.upper),
            "kinds": list(self.kinds),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Domain":
        return cls(tuple(data["lower"]), tuple(data["upper"]), tuple(data["kinds"]))


def read_csv(path) -> tuple[np.ndarray, list[str]]:
    """Read a CSV file of numbers under a header line: (n, d) data, header.

    Blank lines are skipped and fields may be quoted or padded with
    spaces; nothing is read as a comment.  An empty file, a file without
    data rows, a non-numeric value, a row of another width or a
    non-finite value raises DomainError naming the path; OSError
    propagates.
    """
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), None)
        if header is None:
            raise DomainError(f"{path}: empty file")
        try:
            with warnings.catch_warnings():
                # an empty body is reported below, not as numpy's warning
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None,
                                  quotechar='"')
        except ValueError as err:
            raise DomainError(f"{path}: non-numeric value or ragged row "
                              f"({err})") from None
    if data.size == 0:
        raise DomainError(f"{path}: no data rows")
    if not np.all(np.isfinite(data)):
        raise DomainError(f"{path}: non-finite value in data")
    return data, header
