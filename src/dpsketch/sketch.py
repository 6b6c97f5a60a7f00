"""Exact and privatized dataset sketches.

The exact sketch of a dataset is the columnwise sum of the feature map
over all records together with the record count.  Privatization adds
i.i.d. Laplace noise calibrated to the map's L1 sensitivity to the sum,
and Laplace(1/eps_den) noise to the count; the total budget eps splits as
eps_num + eps_den.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .feature_maps import FeatureMap, block_stops, feature_map_from_dict

SKETCH_FILE_VERSION = 1

DEFAULT_SPLIT = 0.98  # fraction of the budget spent on the feature sum

SKETCH_BLOCK = 4096  # records that sketch_exact encodes at a time


class SketchError(ValueError):
    """Invalid sketch parameters or mismatched sketches."""


@dataclass(frozen=True)
class ExactSketch:
    """Noise-free sum of features and record count."""

    sum_features: np.ndarray
    count: int


@dataclass(frozen=True)
class PrivateSketch:
    """The published artifact: noisy feature sum, noisy count, budget bookkeeping.

    The sum representation is stored (not the normalized sketch);
    `normalized` is always recomputed, with the noisy count clamped to
    >= 1 only at normalization time.
    """

    noisy_sum: np.ndarray
    noisy_count: float
    epsilon_num: float
    epsilon_den: float
    spec_id: str

    @property
    def epsilon(self) -> float:
        return self.epsilon_num + self.epsilon_den

    @property
    def normalized(self) -> np.ndarray:
        return self.noisy_sum / max(self.noisy_count, 1.0)

    def to_dict(self, spec: FeatureMap) -> dict:
        """The sketch file document, strict JSON: an infinite budget share
        is written "inf".  No other value can be infinite: the maps and
        Domain reject infinite parameters and bounds."""
        if spec.spec_id != self.spec_id:
            raise SketchError("spec does not match this sketch's spec_id")
        return {
            "version": SKETCH_FILE_VERSION,
            "noisy_sum": self.noisy_sum.tolist(),
            "noisy_count": self.noisy_count,
            "epsilon_num": "inf" if math.isinf(self.epsilon_num)
            else self.epsilon_num,
            "epsilon_den": "inf" if math.isinf(self.epsilon_den)
            else self.epsilon_den,
            "spec_id": self.spec_id,
            "spec": spec.to_dict(),
        }


def sketch_exact(spec: FeatureMap, records) -> ExactSketch:
    """Sum the feature map over all records.

    Records are first checked against the map's domain, the same way for
    every map (DomainError on a value outside the declared box, naming
    the record's row in records).  Then they are encoded and summed
    SKETCH_BLOCK at a time into one running total, so the encoding never
    holds more than a block.  One-hot maps sum exact integer bucket
    counts, the same in any record order; RFF sums add the rows one after
    another in file order, across blocks too, so they equal the column
    sums of the whole encoding bit for bit.
    """
    records = np.asarray(records, dtype=float)
    if records.size == 0:
        return ExactSketch(np.zeros(spec.m), 0)
    records = spec.domain.validate(records)
    total, start = None, 0
    for stop in block_stops(records.shape[0], SKETCH_BLOCK):
        total = spec.encode_batch(records[start:stop]).sum_onto(total)
        start = stop
    return ExactSketch(total.astype(float), records.shape[0])


def epsilon_text(value: float) -> str:
    """A budget as printed: "inf", or the float's repr."""
    return "inf" if math.isinf(value) else repr(float(value))


def noise_scales(spec: FeatureMap, eps_num: float,
                 eps_den: float) -> tuple[float, float]:
    """Laplace scales of the noise on the sum and on the count; an infinite
    budget share divides to 0.0."""
    return spec.sensitivity_l1() / eps_num, 1.0 / eps_den


def noise_variance(spec: FeatureMap, eps_num: float) -> float:
    """Variance 2 * sensitivity^2 / eps_num^2 of the Laplace noise on each
    entry of the sum; an infinite budget share divides to 0.0."""
    delta = spec.sensitivity_l1()
    return 2.0 * delta * delta / (eps_num * eps_num)


def laplace_noise(scale: float, rng: np.random.Generator, size=None):
    """Centered Laplace noise: one float, or an array of `size` draws.
    Scale 0 gives zeros without drawing; a negative, infinite or NaN
    scale raises SketchError."""
    if not 0.0 <= scale < math.inf:
        raise SketchError(f"Laplace scale must be a finite number >= 0, "
                          f"not {scale!r}")
    if scale == 0.0:
        return 0.0 if size is None else np.zeros(size)
    return rng.laplace(0.0, scale, size)


def check_budget(epsilon: float, split_num: float) -> None:
    """SketchError unless epsilon > 0 (inf allowed) and 0 < split_num < 1."""
    if not (0.0 < split_num < 1.0):
        raise SketchError("split_num must lie strictly between 0 and 1")
    if not epsilon > 0:
        raise SketchError("epsilon must be positive (or inf)")


def privatize(exact: ExactSketch, spec: FeatureMap, epsilon: float,
              split_num: float = DEFAULT_SPLIT, seed=None) -> PrivateSketch:
    """Laplace-noise the exact sketch under total budget epsilon.

    The sum gets per-entry noise of scale sensitivity/eps_num and the
    count scale 1/eps_den, eps_num = split_num * epsilon and eps_den the
    rest; epsilon = inf makes both shares inf and the noise zero.
    seed=None draws the noise from OS entropy.  The seed is not kept in
    the sketch: whoever knows it can subtract the noise.
    """
    check_budget(epsilon, split_num)
    rng = np.random.default_rng(seed)
    eps_num = split_num * epsilon
    eps_den = (1.0 - split_num) * epsilon
    sum_scale, count_scale = noise_scales(spec, eps_num, eps_den)
    noisy_sum = exact.sum_features + laplace_noise(sum_scale, rng, spec.m)
    noisy_count = exact.count + laplace_noise(count_scale, rng)
    return PrivateSketch(noisy_sum, noisy_count, eps_num, eps_den,
                         spec.spec_id)


# -- file format ----------------------------------------------------------


def _json_number(value) -> float:
    """A JSON number as a float; NaN for anything else (strings, booleans)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return math.nan
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        return math.inf


def _decode_eps(doc: dict, key: str) -> float:
    value = math.inf if doc[key] == "inf" else _json_number(doc[key])
    if not value > 0:
        raise SketchError(f'{key} must be a positive number or "inf", '
                          f"not {doc[key]!r}")
    return value


def write_json(path, doc) -> None:
    """Write a JSON document atomically (write-then-rename), keys sorted."""
    tmp = str(path) + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")
    os.replace(tmp, path)


def save_sketch(path, sketch: PrivateSketch, spec: FeatureMap) -> None:
    """Write a sketch file atomically."""
    write_json(path, sketch.to_dict(spec))


def load_sketch(path) -> tuple[PrivateSketch, FeatureMap]:
    """Read a sketch file; returns (sketch, feature map)."""
    with open(path) as fh:
        return sketch_from_dict(json.load(fh))


def sketch_from_dict(doc: dict) -> tuple[PrivateSketch, FeatureMap]:
    """Rebuild a sketch and its feature map from a file document.

    Keys other than the format's are ignored, so files written before the
    noise seed or `sketch --normalize` were dropped still load: their
    "rng_seed_of_noise" or "normalization" key is not read.  A sum
    entry or count that is not a finite JSON number (numeric strings and
    booleans included), or a budget share that is neither a positive
    number nor "inf", raises SketchError: the solve never reads some sum
    entries, so it would not catch them.  A document or spec that is not
    a JSON object raises SketchError or FeatureMapError.
    """
    if not isinstance(doc, dict):
        raise SketchError("a sketch file must hold a JSON object")
    if doc.get("version") != SKETCH_FILE_VERSION:
        raise SketchError(
            f"unsupported sketch file version {doc.get('version')!r}"
        )
    if "spec" not in doc:
        raise SketchError("sketch file does not embed its feature-map spec")
    spec = feature_map_from_dict(doc["spec"])
    raw_sum = doc["noisy_sum"]
    if not isinstance(raw_sum, list) or len(raw_sum) != spec.m:
        raise SketchError(f"noisy_sum must be a list of {spec.m} numbers")
    # entry by entry: numpy would parse numeric strings and booleans
    noisy_sum = np.array([_json_number(v) for v in raw_sum])
    bad = np.flatnonzero(~np.isfinite(noisy_sum))
    if bad.size:
        raise SketchError("noisy_sum entries must be finite numbers, not "
                          f"{raw_sum[bad[0]]!r} at index {bad[0]}")
    noisy_count = _json_number(doc["noisy_count"])
    if not math.isfinite(noisy_count):
        raise SketchError("noisy_count must be a finite number, "
                          f"not {doc['noisy_count']!r}")
    sketch = PrivateSketch(
        noisy_sum,
        noisy_count,
        _decode_eps(doc, "epsilon_num"),
        _decode_eps(doc, "epsilon_den"),
        doc["spec_id"],
    )
    if spec.spec_id != sketch.spec_id:
        raise SketchError("embedded spec hash does not match spec_id")
    return sketch, spec
