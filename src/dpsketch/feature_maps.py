"""Feature maps for dataset sketching: binned indicators, random Fourier
features, and one-hot LSH buckets.

Each map embeds points of R^d into R^m.  The batch encoding of n points
is the (n, m) feature matrix P itself; the estimator and the sketch only
need plain matrix products with it (P.T @ F, P @ v, column sums) and the
lower triangle of the averaged Gram matrix, which each map computes its
own way.  One-hot maps (HIST, RACE) encode to a OneHotMatrix, which
holds the one active column of each block; RFF encodes to a dense array.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from .domain import Domain
from .linalg import LowerPanels

SERIALIZATION_VERSION = 1


class FeatureMapError(ValueError):
    """Invalid feature-map parameters or inputs."""


class FeatureMap:
    """Common interface of all feature maps.

    Instances are immutable after construction: randomness is drawn once
    and stored, so embedding the same point twice yields identical vectors
    and specs serialize to self-contained documents.  The constructors
    check every parameter, so a map rebuilt from a document meets the
    same checks as one built from arguments.
    """

    variant: str
    param_names: tuple[str, ...] = ()  # scalar attributes under "params"
    matrix_names: tuple[str, ...] = ()  # random arrays under "matrices"
    d: int
    m: int
    domain: Domain
    seed: object

    def _finish(self, domain: Domain | None, seed=None) -> None:
        """The constructors' shared checks, once d is set: finite random
        matrices and a domain of dimension d (the unit box if None)."""
        self.seed = seed
        self._check_matrices()
        self.domain = Domain.unit(self.d) if domain is None else domain
        if self.domain.d != self.d:
            raise FeatureMapError(f"the domain has {self.domain.d} attributes "
                                  f"but the map has d={self.d}")

    def _check_matrices(self) -> None:
        """FeatureMapError unless the random matrices are finite."""
        for name in self.matrix_names:
            if not np.all(np.isfinite(getattr(self, name))):
                raise FeatureMapError(f"{name} must be finite")

    # -- per-point API ----------------------------------------------------

    def embed(self, x) -> np.ndarray:
        """Embed a single point into R^m."""
        x = np.asarray(x, dtype=float).reshape(1, -1)
        return self.embed_batch(x)[0]

    def embed_batch(self, X) -> np.ndarray:
        """Embed an (n, d) batch into a dense (n, m) matrix."""
        P = self.encode_batch(X)
        return P.toarray() if isinstance(P, OneHotMatrix) else P

    def sensitivity_l1(self) -> float:
        """max_x ||Phi(x)||_1, the L1 sensitivity of the feature sum."""
        raise NotImplementedError

    def kernel_scale(self) -> float:
        """Normalizer turning <Phi(x), Phi(x')> into a kernel estimate in [0, 1]."""
        raise NotImplementedError

    def kernel_estimate(self, x, y) -> float:
        return float(np.dot(self.embed(x), self.embed(y)) / self.kernel_scale())

    # -- batch encoding used by the estimator -----------------------------

    def encode_batch(self, X):
        """The (n, m) feature matrix P of an (n, d) batch: a OneHotMatrix
        for one-hot maps, a dense array otherwise."""
        raise NotImplementedError

    def gram(self, P, cols=None) -> LowerPanels:
        """(1/n) P^T P as a LowerPanels, which the estimator factors in
        place.  Each map computes dense blocks of it its own way and hands
        them to LowerPanels.store, which keeps the lower triangle.

        With cols, sorted column indices that include every column in
        which P has a nonzero entry, only those rows and columns: the
        (k, k) matrix (1/n) P[:, cols]^T P[:, cols].
        """
        raise NotImplementedError

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "version": SERIALIZATION_VERSION,
            "variant": self.variant,
            "d": self.d,
            "m": self.m,
            "params": {name: getattr(self, name) for name in self.param_names},
            "matrices": {name: getattr(self, name).ravel().tolist()
                         for name in self.matrix_names},
            "seed": self.seed,
            "domain": self.domain.to_dict(),
        }

    @property
    def spec_id(self) -> str:
        doc = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(doc.encode()).hexdigest()

    def __eq__(self, other):
        return isinstance(other, FeatureMap) and self.to_dict() == other.to_dict()


class OneHotMatrix:
    """An (n, m) matrix of zeros with one 1.0 per row in each block.

    indices is the (n, B) array of the columns that hold the ones, sorted
    within each row.  The products follow the order of a compressed
    sparse row (CSR) kernel, so they round the same way: P @ v adds the
    B picked entries of each row to zero in column order, and P.T @ F and
    the column sums accumulate row by row through np.bincount.
    """

    def __init__(self, indices: np.ndarray, m: int):
        self.indices = indices
        self.shape = (indices.shape[0], m)

    def __matmul__(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.ndim == 0 or v.shape[0] != self.shape[1]:
            raise ValueError(f"cannot multiply a {self.shape} matrix by "
                             f"shape {v.shape}")
        out = np.zeros((self.shape[0],) + v.shape[1:])
        for col in self.indices.T:
            out += v[col]
        return out

    @property
    def T(self) -> "_TransposedOneHot":
        return _TransposedOneHot(self)

    def sum(self, axis) -> np.ndarray:
        """Column sums (axis=0): how many rows hold a 1 in each column."""
        if axis != 0:
            raise ValueError("only column sums (axis=0) are supported")
        return np.bincount(self.indices.ravel(),
                           minlength=self.shape[1]).astype(float)

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        np.put_along_axis(out, self.indices, 1.0, axis=1)
        return out


class _TransposedOneHot:
    """P.T of a OneHotMatrix P, for the product P.T @ F."""

    def __init__(self, P: OneHotMatrix):
        self.P = P

    def __matmul__(self, F) -> np.ndarray:
        F = np.asarray(F, dtype=float)
        flat = self.P.indices.ravel()
        B, m = self.P.indices.shape[1], self.P.shape[1]

        def column(f):
            return np.bincount(flat, np.repeat(f, B), minlength=m)

        if F.ndim == 1:
            return column(F)
        return np.stack([column(f) for f in F.T], axis=1)


class _OneHotBlocks:
    """Shared batch machinery for maps that concatenate one-hot blocks.

    HIST concatenates d blocks of width n_bins (one active bin per
    attribute); RACE concatenates R blocks of width W (one active bucket
    per hash).  P is a OneHotMatrix whose 1 in block a sits at column
    a * W + (active position in block a), so the columns of each row are
    sorted.
    """

    n_blocks: int
    width: int

    def _indices(self, X) -> np.ndarray:
        raise NotImplementedError

    def encode_batch(self, X) -> OneHotMatrix:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        idx = self._indices(X)
        idx += self.width * np.arange(idx.shape[1])  # now the column indices
        return OneHotMatrix(idx, self.n_blocks * self.width)

    def gram(self, P: OneHotMatrix, cols=None) -> LowerPanels:
        # Blockwise joint bucket counts; at the sizes used here this beats
        # a sparse P.T @ P.  Each bucket is numbered within its block among
        # the kept columns only, so every bincount is as small as the kept
        # part of its two blocks.  Column-major indices, so that each
        # bincount reads its two block columns from contiguous memory.
        n = P.shape[0]
        B, W = self.n_blocks, self.width
        kept = np.arange(B * W) if cols is None else np.asarray(cols)
        edges = np.searchsorted(kept, W * np.arange(B + 1)).tolist()
        # int32 is wide enough: a pair of blocks has at most W^2 cells
        local = np.zeros(B * W, dtype=np.int32)
        local[kept] = np.arange(kept.size) - np.repeat(edges[:-1],
                                                      np.diff(edges))
        idx = np.asfortranarray(local[P.indices])
        G = LowerPanels(kept.size)
        for a in range(B):
            ia, a0, a1 = idx[:, a], edges[a], edges[a + 1]
            for b in range(a, B):
                b0, b1 = edges[b], edges[b + 1]
                joint = np.bincount(ia * (b1 - b0) + idx[:, b],
                                    minlength=(a1 - a0) * (b1 - b0))
                # rows b0..b1 of columns a0..a1
                G.store(b0, a0, joint.reshape(a1 - a0, b1 - b0).T / n)
        return G


class HistMap(_OneHotBlocks, FeatureMap):
    """Per-attribute equal-width binned indicators (marginal histograms).

    m = d * n_bins; each record activates exactly one bin per attribute.
    The upper domain edge is clamped into the last bin so the map is total
    on the closed box.
    """

    variant = "HIST"
    param_names = ("n_bins",)

    def __init__(self, domain: Domain, n_bins: int):
        self.n_bins = int(n_bins)
        if not self.n_bins >= 1:
            raise FeatureMapError("n_bins must be >= 1")
        self.d = domain.d
        self.m = self.d * self.n_bins
        self.n_blocks = self.d
        self.width = self.n_bins
        self._finish(domain)

    def _indices(self, X) -> np.ndarray:
        X = self.domain.validate(X)
        lo = self.domain.lower_arr
        widths = (self.domain.upper_arr - lo) / self.n_bins
        idx = np.floor((X - lo) / widths).astype(np.int64)
        return np.clip(idx, 0, self.n_bins - 1)

    def sensitivity_l1(self) -> float:
        return float(self.d)

    def kernel_scale(self) -> float:
        return float(self.d)

    @classmethod
    def from_dict(cls, data: dict) -> "HistMap":
        return cls(Domain.from_dict(data["domain"]), data["params"]["n_bins"])


class RffMap(FeatureMap):
    """Random Fourier features for the Gaussian kernel.

    Frequencies are i.i.d. N(0, sigma^-2 I_d); the embedding is
    [cos(x^T Omega), sin(x^T Omega)], so <Phi(x), Phi(x')> / m' estimates
    exp(-||x - x'||^2 / (2 sigma^2)).
    """

    variant = "RFF"
    param_names = ("sigma",)
    matrix_names = ("frequencies",)

    def __init__(self, frequencies: np.ndarray, sigma: float,
                 domain: Domain | None = None, seed=None):
        self.frequencies = np.asarray(frequencies, dtype=float)
        self.sigma = float(sigma)
        if self.frequencies.ndim != 2 or 0 in self.frequencies.shape:
            raise FeatureMapError("frequencies must be a (d, m/2) matrix "
                                  "with d >= 1 and m >= 2")
        if not 0 < self.sigma < np.inf:
            raise FeatureMapError("sigma must be positive and finite")
        self.d, self.m_half = self.frequencies.shape
        self.m = 2 * self.m_half
        self._finish(domain, seed)

    def encode_batch(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if not np.all(np.isfinite(X)):
            raise FeatureMapError("points must be finite")
        Z = X @ self.frequencies
        P = np.empty((Z.shape[0], self.m))
        np.cos(Z, out=P[:, :self.m_half])
        np.sin(Z, out=P[:, self.m_half:])
        return P

    def sensitivity_l1(self) -> float:
        return float(self.m_half * np.sqrt(2.0))

    def kernel_scale(self) -> float:
        return float(self.m_half)

    def gram(self, P: np.ndarray, cols=None) -> LowerPanels:
        if cols is not None:
            P = P[:, cols]
        dense = P.T @ P
        dense /= P.shape[0]
        G = LowerPanels(dense.shape[0])
        G.store(0, 0, dense)
        return G

    @classmethod
    def from_dict(cls, data: dict) -> "RffMap":
        freqs = np.reshape(data["matrices"]["frequencies"],
                           (data["d"], data["m"] // 2))
        return cls(freqs, data["params"]["sigma"],
                   Domain.from_dict(data["domain"]), data["seed"])


class RaceMap(_OneHotBlocks, FeatureMap):
    """Concatenated one-hot encodings of R independent LSH bucket hashes.

    Uses p-stable (Gaussian) projection hashing with modular wrap:
    h_r(x) = floor((w_r^T x + b_r) / r_width) mod W, with w_r ~ N(0, I_d)
    and b_r ~ Unif[0, r_width).  m = R * W; each point activates exactly
    one bucket per hash.  Offsets must lie in [0, r_width].
    """

    variant = "RACE"
    param_names = ("n_hashes", "n_buckets", "r_width")
    matrix_names = ("projections", "offsets")

    def __init__(self, projections: np.ndarray, offsets: np.ndarray,
                 n_buckets: int, r_width: float,
                 domain: Domain | None = None, seed=None):
        self.projections = np.asarray(projections, dtype=float)
        self.offsets = np.asarray(offsets, dtype=float)
        self.n_buckets = int(n_buckets)
        self.r_width = float(r_width)
        if (self.projections.ndim != 2
                or self.offsets.shape != self.projections.shape[:1]):
            raise FeatureMapError("projections must be (R, d), offsets (R,)")
        if not self.projections.shape[0] >= 1:
            raise FeatureMapError("need at least one hash")
        if not self.n_buckets >= 2:
            raise FeatureMapError("need at least 2 buckets")
        if not 0 < self.r_width < np.inf:
            raise FeatureMapError("r_width must be positive and finite")
        self.n_hashes, self.d = self.projections.shape
        self.m = self.n_hashes * self.n_buckets
        self.n_blocks = self.n_hashes
        self.width = self.n_buckets
        self._finish(domain, seed)
        if not np.all((self.offsets >= 0) & (self.offsets <= self.r_width)):
            raise FeatureMapError("offsets must lie in [0, r_width]")
        # (w_r^T x + b_r) / r_width, with b_r <= r_width, must fit an int64
        with np.errstate(over="ignore"):
            reach = np.abs(self.projections) @ np.maximum(
                np.abs(self.domain.lower_arr), np.abs(self.domain.upper_arr))
            if not np.all((reach + self.r_width) / self.r_width < 2.0 ** 62):
                raise FeatureMapError("r_width is too small for the domain")

    def _indices(self, X) -> np.ndarray:
        if not np.all(np.isfinite(X)):
            raise FeatureMapError("points must be finite")
        Z = (X @ self.projections.T + self.offsets) / self.r_width
        return np.mod(np.floor(Z).astype(np.int64), self.n_buckets)

    def sensitivity_l1(self) -> float:
        return float(self.n_hashes)

    def kernel_scale(self) -> float:
        return float(self.n_hashes)

    @classmethod
    def from_dict(cls, data: dict) -> "RaceMap":
        p, mats = data["params"], data["matrices"]
        proj = np.reshape(mats["projections"], (p["n_hashes"], data["d"]))
        return cls(proj, mats["offsets"], p["n_buckets"], p["r_width"],
                   Domain.from_dict(data["domain"]), data["seed"])


# -- constructors ---------------------------------------------------------

# the parameters of each kind of map, with their defaults
MAP_DEFAULTS = {
    "hist": {"n_bins": 100},
    "rff": {"m": 200, "sigma": 1.0},
    "race": {"n_hashes": 80, "n_buckets": 80, "r_width": 0.1},
}


def map_kind(kind: str) -> str:
    """kind in lower case; FeatureMapError if it names no map."""
    if str(kind).lower() not in MAP_DEFAULTS:
        raise FeatureMapError(f"unknown feature map {kind!r}; expected one "
                              f"of {', '.join(MAP_DEFAULTS)}")
    return str(kind).lower()


def build_map(kind: str, domain: Domain, seed,
              params: dict | None = None) -> FeatureMap:
    """A map of the given kind over domain.  It reads only its kind's keys
    of MAP_DEFAULTS from params; one left out or None takes its default."""
    kind, params = map_kind(kind), params or {}
    params = {key: default if params.get(key) is None else params[key]
              for key, default in MAP_DEFAULTS[kind].items()}
    if kind == "hist":
        return HistMap(domain, **params)
    builder = build_rff if kind == "rff" else build_race
    return builder(domain.d, seed=seed, domain=domain, **params)


def build_rff(d: int, m: int, sigma: float, seed,
              domain: Domain | None = None) -> RffMap:
    """Random Fourier feature map with m/2 frequencies ~ N(0, sigma^-2 I_d)."""
    if m % 2 != 0:
        raise FeatureMapError("m must be an even integer")
    rng = np.random.default_rng(seed)
    draw = rng.standard_normal((d, max(m // 2, 0)))  # m < 0 draws nothing
    # scaled the way rng.normal(0, 1 / sigma) scales it; a sigma of 0, a
    # negative or non-finite one, or a tiny one that scales the draw to inf
    # is left for the constructor to reject
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        frequencies = draw * (1.0 / np.float64(sigma))
    return RffMap(frequencies, sigma, domain, seed)


def build_race(d: int, n_hashes: int, n_buckets: int, r_width: float, seed,
               domain: Domain | None = None) -> RaceMap:
    """RACE map: n_hashes Gaussian-projection LSH functions into n_buckets each."""
    rng = np.random.default_rng(seed)
    proj = rng.standard_normal((max(int(n_hashes), 0), d))  # none if < 0
    # scaled the way rng.uniform(0, r_width) scales them; the constructor
    # checks r_width before the offsets
    offsets = rng.random(proj.shape[0]) * np.float64(r_width)
    return RaceMap(proj, offsets, n_buckets, r_width, domain, seed)


def feature_map_from_dict(data: dict) -> FeatureMap:
    """Rebuild a map from its spec document; FeatureMapError if it is not
    a JSON object or its values fail the constructor's checks."""
    if not isinstance(data, dict):
        raise FeatureMapError("a feature-map spec must be a JSON object")
    if data.get("version") != SERIALIZATION_VERSION:
        raise FeatureMapError(
            f"unsupported feature-map document version {data.get('version')!r}"
        )
    variant = data.get("variant")
    cls = {"HIST": HistMap, "RFF": RffMap, "RACE": RaceMap}.get(variant)
    if cls is None:
        raise FeatureMapError(f"unknown feature-map variant {variant!r}")
    try:
        return cls.from_dict(data)
    except (TypeError, ValueError, OverflowError) as err:  # DomainError too
        raise FeatureMapError(f"invalid {variant} spec: {err}") from None
