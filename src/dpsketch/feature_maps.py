"""Feature maps for dataset sketching: binned indicators, random Fourier
features, and one-hot LSH buckets.

Each map embeds points of R^d into R^m.  The batch encoding of n points
is the (n, m) feature matrix P itself; the estimator and the sketch only
need its products, column sums and compaction, and the lower triangle
of the averaged Gram matrix, which each map computes its own way.
One-hot maps (HIST, RACE) encode to a OneHotMatrix, which holds the one
active position of each block; RFF encodes to a DenseMatrix, which holds
P zero-padded.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from .domain import Domain
from .linalg import LowerPanels

SERIALIZATION_VERSION = 1

# One-hot maps encode rows in blocks of about this many bytes of float64
# (rows x blocks), so that no n x B float64 or int64 array exists.
# Encoding 10 000 rows with RACE 80x80 (2-core Xeon, 4 MiB L2) took
# 10-13 ms in 128 KiB blocks, 24 ms in 16 KiB blocks (per-block
# overhead), 17-48 ms in 1 MiB blocks and 48 ms as one batch.
ENCODE_BLOCK_BYTES = 1 << 17


def block_stops(n: int, size: int) -> list[int]:
    """Where the blocks of n rows end: every size rows, but a last block
    of one row, when there are others, takes the one before it with it.
    A 1-row block goes through BLAS's matrix-vector path, whose x^T W
    rounds differently from the matrix product of a whole batch."""
    stops = list(range(size, n, size)) + [n]
    if len(stops) > 1 and n - stops[-2] == 1:
        stops[-2] -= 1
    return stops


def _position_dtype(width: int) -> np.dtype:
    """The narrowest unsigned type that holds the positions 0..width - 1
    of a one-hot block: uint8 up to 256 columns, uint16 up to 65 536."""
    dtype = np.min_scalar_type(width - 1)
    # np.bincount does not take uint64
    return dtype if dtype.itemsize < 8 else np.dtype(np.intp)


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

    def sensitivity_l1(self) -> float:
        """max_x ||Phi(x)||_1, the L1 sensitivity of the feature sum."""
        raise NotImplementedError

    # -- batch encoding used by the estimator -----------------------------

    def encode_batch(self, X):
        """The (n, m) feature matrix P of an (n, d) batch: a OneHotMatrix
        for one-hot maps, a DenseMatrix otherwise."""
        raise NotImplementedError

    def _batch(self, X) -> np.ndarray:
        """X as an (n, d) float array; FeatureMapError for another shape
        or a non-finite entry."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.ndim != 2 or X.shape[1] != self.d:
            raise FeatureMapError(f"points of a map of d={self.d} must be "
                                  f"(n, {self.d}), not {X.shape}")
        if not np.all(np.isfinite(X)):
            raise FeatureMapError("points must be finite")
        return X

    def gram(self, P, dtype=np.float64) -> LowerPanels:
        """(1/n) P^T P as a LowerPanels of the given dtype, which the
        estimator factors in place; P is this map's encoding, compacted
        or not.  Each map computes dense blocks of it its own way and
        hands them to LowerPanels.store, which keeps the lower triangle,
        and sets its norm_inf to the largest absolute row sum of the
        float64 G before rounding.
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

    Block a spans columns edges[a]..edges[a + 1]; positions is the (n, B)
    array of the column each row holds its 1 in, counted within its
    block.  Encodings hold it in the narrowest unsigned type that holds
    their block width (uint8 up to 256 columns, uint16 up to 65 536) and
    in column-major order, so the products read each block column from
    contiguous memory.  The products follow the order of a compressed
    sparse row (CSR) kernel, so they round the same way: P @ v adds the B
    picked entries of each row to zero in column order, and P.tmatmul(f)
    and the column sums accumulate row by row through np.bincount.
    """

    def __init__(self, positions: np.ndarray, edges: list[int]):
        self.positions = positions
        self.edges = edges
        self.shape = (positions.shape[0], edges[-1])

    def blocks(self):
        """(first column, end column, positions) of each block."""
        return zip(self.edges[:-1], self.edges[1:], self.positions.T)

    def __matmul__(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.ndim == 0 or v.shape[0] != self.shape[1]:
            raise ValueError(f"cannot multiply a {self.shape} matrix by "
                             f"shape {v.shape}")
        out = np.zeros((self.shape[0],) + v.shape[1:])
        for a0, a1, col in self.blocks():
            out += v[a0:a1][col]
        return out

    def tmatmul(self, f) -> np.ndarray:
        """P^T f for f of shape (n,): each row adds to one column of a
        block, in row order, so the sums are CSR's without an n x B copy."""
        f = np.asarray(f, dtype=float)
        out = np.empty(self.shape[1])
        for a0, a1, col in self.blocks():
            out[a0:a1] = np.bincount(col, f, minlength=a1 - a0)
        return out

    def sum_onto(self, counts: np.ndarray | None) -> np.ndarray:
        """Add this matrix's column counts into counts, the int64 counts
        of earlier rows (a new zero array if None), and return it."""
        if counts is None:
            counts = np.zeros(self.shape[1], dtype=np.int64)
        for a0, a1, col in self.blocks():
            counts[a0:a1] += np.bincount(col, minlength=a1 - a0)
        return counts

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        for a0, a1, col in self.blocks():
            np.put_along_axis(out[:, a0:a1], col[:, None], 1.0, axis=1)
        return out

    def compact(self) -> tuple["OneHotMatrix", np.ndarray]:
        """This matrix without its all-zero columns, and the sorted
        columns it keeps: each block numbers its positions among the
        occupied ones."""
        occupied = self.sum_onto(None) > 0
        kept = np.flatnonzero(occupied)
        positions = np.empty_like(self.positions)
        for (a0, a1, col), out in zip(self.blocks(), positions.T):
            # counted modulo the unsigned dtype: the ranks of occupied
            # columns come out right, and no row holds another column
            rank = np.cumsum(occupied[a0:a1], dtype=positions.dtype) - 1
            np.take(rank, col, out=out)
        return (OneHotMatrix(positions,
                             np.searchsorted(kept, self.edges).tolist()),
                kept)


class DenseMatrix:
    """An (n, m) matrix, the first m columns of padded, a C-order array
    _width8(m) wide whose other columns are zero.  P^T f and the Gram run
    over all of padded (see _width8); the rest uses its view, not a copy.
    It offers the operations of OneHotMatrix.
    """

    def __init__(self, padded: np.ndarray, m: int):
        self.padded = padded
        self.shape = (padded.shape[0], m)

    def __matmul__(self, v) -> np.ndarray:
        return self.toarray() @ v

    def tmatmul(self, f) -> np.ndarray:
        return (self.padded.T @ np.asarray(f, dtype=float))[:self.shape[1]]

    def sum_onto(self, total: np.ndarray | None) -> np.ndarray:
        """total, the column sums of earlier rows (None for none), plus
        this matrix's column sums.  numpy's column sums add the rows one
        after another, so total goes into P's first row (P is changed)
        and the sum carries on from there: blocks of rows summed this
        way give the same bits as the column sums of all of them."""
        rows = self.toarray()
        if total is not None:
            rows[0] += total
        return rows.sum(axis=0)

    def toarray(self) -> np.ndarray:
        return self.padded[:, :self.shape[1]]

    def compact(self) -> tuple["DenseMatrix", np.ndarray]:
        return self, np.arange(self.shape[1])  # any column may be nonzero


class _OneHotBlocks:
    """Shared batch machinery for maps that concatenate one-hot blocks.

    HIST concatenates d blocks of width n_bins (one active bin per
    attribute); RACE concatenates R blocks of width W (one active bucket
    per hash).  P is a OneHotMatrix of blocks width columns wide.
    """

    n_blocks: int
    width: int

    def _positions(self, X) -> np.ndarray:
        """The (n, B) int64 positions of the active bucket within each
        block; encode_batch calls it on one block of rows at a time."""
        raise NotImplementedError

    def encode_batch(self, X) -> OneHotMatrix:
        """P with positions of _position_dtype(width), filled from
        _positions ENCODE_BLOCK_BYTES of float64 rows at a time."""
        X = self._batch(X)
        positions = np.empty((X.shape[0], self.n_blocks),
                             _position_dtype(self.width), order="F")
        start = 0
        for stop in block_stops(X.shape[0], max(
                2, ENCODE_BLOCK_BYTES // (8 * self.n_blocks))):
            positions[start:stop] = self._positions(X[start:stop])
            start = stop
        return OneHotMatrix(positions,
                            list(range(0, self.m + 1, self.width)))

    def gram(self, P: OneHotMatrix, dtype=np.float64) -> LowerPanels:
        # Blockwise joint bucket counts; at the sizes used here this beats
        # a sparse P.T @ P.  Each bincount is as small as its two blocks
        # and reads their block columns of P from contiguous memory.
        # The joint indices ia * (b1 - b0) + ib lie below width^2, so each
        # outer block column is widened once to a type that holds them.
        n = P.shape[0]
        blocks = list(P.blocks())
        joint_dtype = _position_dtype(self.width ** 2)
        G = LowerPanels(P.shape[1], dtype)
        for k, (a0, a1, ia) in enumerate(blocks):
            ia = ia.astype(joint_dtype)
            for b0, b1, ib in blocks[k:]:
                # rows b0..b1 of columns a0..a1: the counts, cast on store
                # and freed before the next pair's are counted
                G.store(b0, a0, np.bincount(
                    ia * (b1 - b0) + ib, minlength=(a1 - a0) * (b1 - b0))
                    .reshape(a1 - a0, b1 - b0).T)
        G.divide(n)  # counts / n, rounded once in the storage dtype
        # row j of G sums to B c_j / n, c_j the count of column j
        G.norm_inf = len(blocks) * int(P.sum_onto(None).max()) / n
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

    def _positions(self, X) -> np.ndarray:
        lo = self.domain.lower_arr
        widths = (self.domain.upper_arr - lo) / self.n_bins
        idx = np.floor((X - lo) / widths).astype(np.int64)
        return np.clip(idx, 0, self.n_bins - 1)

    def sensitivity_l1(self) -> float:
        return float(self.d)

    @classmethod
    def from_dict(cls, data: dict) -> "HistMap":
        return cls(Domain.from_dict(data["domain"]), data["params"]["n_bins"])


def _width8(m: int) -> int:
    """m rounded up to a multiple of 8.  At many widths that are not
    multiples of 8, OpenBLAS rounds some entries of a product differently
    on 1 and 2 threads (the RFF Gram at m = 98, 202 and 386, the encoding
    at m/2 = 193 and 500); padded with zero columns to a multiple of 8,
    it did not at any size tried."""
    return -(-m // 8) * 8


class RffMap(FeatureMap):
    """Random Fourier features for the Gaussian kernel.

    Frequencies are i.i.d. N(0, sigma^-2 I_d); the embedding is
    [cos(x^T Omega), sin(x^T Omega)], so <Phi(x), Phi(x')> / m' estimates
    exp(-||x - x'||^2 / (2 sigma^2)).  The BLAS products run over
    zero-padded widths (see _width8): x^T Omega over the frequencies
    padded to _width8(m/2) columns, and P is a DenseMatrix, whose padded
    array gram and P.tmatmul multiply whole.
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
        self._padded_frequencies = np.zeros((self.d, _width8(self.m_half)))
        self._padded_frequencies[:, :self.m_half] = self.frequencies

    def encode_batch(self, X) -> DenseMatrix:
        X = self._batch(X)
        h = self.m_half
        B = np.zeros((X.shape[0], _width8(self.m)))
        # x^T Omega into B's first columns, then sin and cos over it
        Z = np.matmul(X, self._padded_frequencies, out=B[:, :_width8(h)])
        np.sin(Z[:, :h], out=B[:, h:self.m])
        np.cos(Z[:, :h], out=B[:, :h])
        return DenseMatrix(B, self.m)

    def sensitivity_l1(self) -> float:
        return float(self.m_half * np.sqrt(2.0))

    def gram(self, P: DenseMatrix, dtype=np.float64) -> LowerPanels:
        n, m = P.shape
        dense = P.padded.T @ P.padded
        dense /= n
        G = LowerPanels(m, dtype)
        G.store(0, 0, dense[:m, :m])
        G.norm_inf = float(np.abs(dense, out=dense).sum(axis=1).max())
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

    def _positions(self, X) -> np.ndarray:
        # the floor is an integer of magnitude under 2^62 (the
        # constructor's bound), exact in a double, so the int64 cast is
        # exact, and idx - W (idx // W), which numpy computes several
        # times faster than np.remainder, is idx mod W: 0..W - 1, which
        # encode_batch stores in a narrower type.
        # encode_batch passes blocks of two rows or more (block_stops)
        # unless the batch has one, so X W^T runs through the matrix
        # product, as for the whole batch
        Z = X @ self.projections.T
        Z += self.offsets
        Z /= self.r_width
        idx = np.floor(Z, out=Z).astype(np.int64)
        idx -= idx // self.n_buckets * self.n_buckets
        return idx

    def sensitivity_l1(self) -> float:
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
