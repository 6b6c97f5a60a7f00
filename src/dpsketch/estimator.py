"""Estimate dataset averages of arbitrary functions from a sketch.

The estimator approximates a target function f over the bounded domain by
a linear combination of feature-map components, fitted by ridge
regression on synthetic samples drawn from a prior (uniform on the
domain by default).  Because sketching is linear, the inner product of
the fitted coefficients with the normalized sketch then estimates the
dataset average of f, and any number of targets can be answered from one
sketch.  By the same linearity that estimate is a weighted sum of f over
the synthetic samples, with weights solved for once per sketch; that is
how every target is answered.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .domain import Domain, DomainError
from .feature_maps import FeatureMap
from .linalg import PANEL, LowerPanels, cholesky_in_place, cholesky_solve
from .sketch import PrivateSketch, SketchError, noise_variance

LAMBDA_FLOOR = 1e-9  # numeric-stability regularization when there is no noise

CG_MAX_ITER = 50  # refinement steps after which a solve warns and stops
BACKWARD_ERROR = 16 * 2.0 ** -52  # the refinement's normwise stopping bound

@dataclass
class TrainConfig:
    """Knobs of the synthetic-sample ridge fit."""

    n_synth: int = 100_000
    extra_reg: float = 1.0
    seed: object = 0
    domain: Domain | None = None

    def __post_init__(self):
        if self.n_synth < 1:
            raise ValueError("n_synth must be >= 1")
        if not 0 < self.extra_reg < math.inf:
            raise ValueError("extra_reg must be positive and finite")


def regularization_lambda(spec: FeatureMap, epsilon_num: float,
                          noisy_count: float, extra_reg: float = 1.0) -> float:
    """Ridge penalty tied to the privacy noise variance.

    Estimates are inner products with the normalized sketch (noisy sum
    divided by the noisy count), whose entries carry Laplace noise of
    variance 2 * sensitivity^2 / (eps_num^2 * count^2): that variance,
    with the count clamped to at least 1, scaled by extra_reg.  The
    variance falls as 1/count^2, so for large or weakly noised sketches
    it is raised to the stability floor that noiseless sketches
    (eps_num = inf) get: the Gram matrices of HIST and RACE are singular
    and need at least that much.
    """
    if math.isinf(epsilon_num):
        return LAMBDA_FLOOR
    lam = extra_reg * theorem_lambda(spec, epsilon_num, max(noisy_count, 1.0))
    return max(lam, LAMBDA_FLOOR)


def theorem_lambda(spec: FeatureMap, epsilon_num: float, n: float) -> float:
    """Noise variance of the normalized sketch, noise_variance / n^2.

    The penalty under which the risk upper bound holds;
    regularization_lambda uses it for every fit from a sketch.
    """
    if math.isinf(epsilon_num):
        return LAMBDA_FLOOR
    return noise_variance(spec, epsilon_num) / (n * n)


def _evaluate_target(f, points: np.ndarray) -> np.ndarray:
    """Evaluate a target on an (n, d) batch; it must return shape (n,)."""
    values = np.asarray(f(points), dtype=float)
    if values.shape != (points.shape[0],):
        raise ValueError(f"target function returned shape {values.shape} "
                         f"for {points.shape[0]} points, expected "
                         f"({points.shape[0]},)")
    if not np.all(np.isfinite(values)):
        raise ValueError("target function produced non-finite values")
    return values


@dataclass(frozen=True)
class WeightedSamples:
    """Points in a domain with one weight each: weights @ f(points)
    estimates the dataset average of a target f.  A sketch weights the
    synthetic samples (SyntheticFeatures.weighted; weights may be
    negative); a dataset's records weighted 1/n (uniform) give the average
    itself, so estimates and truths come from the same pipelines."""

    points: np.ndarray
    weights: np.ndarray
    domain: Domain | None = None

    def __post_init__(self):
        if self.points.shape[0] != self.weights.shape[0]:
            raise ValueError("points and weights must have equal length")
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("weights must be finite")

    @classmethod
    def uniform(cls, records, domain: Domain) -> "WeightedSamples":
        """The records weighted 1/n each; DomainError unless they have
        domain.d attributes."""
        records = np.atleast_2d(np.asarray(records, dtype=float))
        if records.shape[1] != domain.d:
            raise DomainError(f"expected {domain.d} attributes, "
                              f"got {records.shape[1]}")
        n = records.shape[0]
        return cls(records, np.full(n, 1.0 / n), domain)

    def sums(self, targets) -> np.ndarray:
        """weights @ f(points) for each target f.

        Targets are evaluated one at a time, so no (n, targets) matrix is
        built, and each sum runs through einsum, whose order does not
        depend on the BLAS thread count.
        """
        return np.array([np.einsum("i,i->", self.weights,
                                   _evaluate_target(f, self.points))
                         for f in targets], dtype=float)


def _panel_dtype(m_occ: int) -> np.dtype:
    """The dtype of the Gram panels of a system of order m_occ: float32
    when it spans more than two panels, which halves a query's largest
    allocation at the price of a few refinement steps, and float64 for a
    smaller one."""
    return np.dtype(np.float32 if m_occ > 2 * PANEL else np.float64)


class SyntheticFeatures:
    """Synthetic prior samples with their embedding and the factored Gram.

    The single estimation object: the ridge estimate <a, sketch> of any
    target f, where a = (G + lam I)^-1 P^T f(points) / n, equals
    w @ f(points) for per-sample weights w that depend only on the
    sketch and the penalty, so one solve per sketch answers every
    target.  Only the m_occ features that some synthetic sample
    activates enter the system: on the others G is zero (one-hot maps
    leave buckets empty; dense maps activate every feature), so the
    samples' encoding is compacted to those columns once.  G over
    those features is built on the first solve as lower-triangle panels
    (linalg.LowerPanels), in float32 when it spans more than two panels
    and in float64 otherwise, and factored in place as solve describes.
    A second penalty (or a retry) rebuilds G from the samples once and
    keeps that copy to restore from, so a sweep over sketches holds two
    panel sets, and a single-penalty command one.  Many targets and many
    sketches share one sample set, drawn deterministically from the
    config seed.
    """

    def __init__(self, spec: FeatureMap, config: TrainConfig | None = None):
        config = config or TrainConfig()
        domain = config.domain or spec.domain
        if domain.d != spec.d:
            raise ValueError("domain dimension does not match the feature map")
        points = domain.sample(config.n_synth, np.random.default_rng(config.seed))
        self._setup(spec, config, domain, points)

    @classmethod
    def from_points(cls, spec: FeatureMap, points) -> "SyntheticFeatures":
        """Wrap pre-drawn synthetic points instead of sampling the prior."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        self = cls.__new__(cls)
        self._setup(spec, TrainConfig(n_synth=points.shape[0]), spec.domain,
                    points)
        return self

    def _setup(self, spec: FeatureMap, config: TrainConfig, domain: Domain,
               points: np.ndarray) -> None:
        self.spec = spec
        self.config = config
        self.domain = domain
        self.points = points
        if points.shape[0] < spec.m:
            warnings.warn(
                f"n_synth={points.shape[0]} is below the sketch size "
                f"m={spec.m}; the fit may overfit the synthetic samples",
                stacklevel=3,
            )
        # P without its empty columns, and the columns it keeps
        self._P, self._cols = spec.encode_batch(points).compact()
        self._dtype = _panel_dtype(self._cols.size)
        self._buf = None  # LowerPanels; G, then factored in place
        self._gram = None  # a kept copy of G, from the second factorization on
        self._lam = None  # the penalty whose factor _buf holds
        self._trace = 0.0  # trace(G), read at each factorization
        self._norm_inf = 0.0  # ||G||_inf, read with it
        self.cg_iterations = 0  # conjugate-gradient steps of the last solve

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def dot_targets(self, f) -> np.ndarray:
        """(1/n) P^T f for target values f of shape (n,)."""
        out = np.zeros(self.spec.m)
        out[self._cols] = self._P.tmatmul(f) / self.n
        return out

    def apply(self, v: np.ndarray) -> np.ndarray:
        """P @ v, the feature combination v at every synthetic sample."""
        return self._P @ np.asarray(v, dtype=float)[self._cols]

    def solve(self, rhs: np.ndarray, lam: float) -> np.ndarray:
        """Solve (G + lam I) x = rhs for a penalty 0 < lam < inf.

        G over the occupied columns is held in panels of one dtype
        (_panel_dtype: float32 for more than two panels, float64
        otherwise), and G + (lam + s) I is factored in place with the
        shift s = 32 eps trace(G) / m_occ, eps that of the panels' dtype,
        chosen before the first try; while the factorization breaks down,
        G is copied back from the kept copy and s doubles (Nocedal &
        Wright, Alg. 3.3).  x is then refined to the system at lam itself
        by conjugate gradients preconditioned with that factor (see
        _refine), so no answer carries s.  On the columns no sample
        occupies the system reads lam x = rhs.  Only the last penalty's
        factor is kept, in place in the one set of panels: every estimate
        from one sketch uses one penalty, and a new penalty copies G back
        from the kept copy (built from the samples the first time it is
        needed) and factors again, so a sweep over sketches never holds a
        third set.
        """
        if not 0 < lam < math.inf:
            raise ValueError("lambda must be positive and finite")
        if self._lam != lam:
            self._lam = None  # the panels are about to change under it
            self._factorize(lam)
            self._lam = lam
        rhs = np.asarray(rhs, dtype=float)
        x = rhs / lam  # lam x = rhs off the occupied columns
        x[self._cols] = self._refine(rhs[self._cols], lam)
        return x

    def _refine(self, b: np.ndarray, lam: float) -> np.ndarray:
        """Solve (G + lam I) x = b over the kept columns in float64 by
        conjugate gradients, preconditioned with the Cholesky factor of
        G + (lam + s) I in the panels (iterative refinement with a low
        precision factor; Carson & Higham, SIAM J. Sci. Comput. 2018).

        The operator is exact: G v = (1/n) P^T (P v) from the samples, not
        the rounded panels.  Each step recomputes the residual r = b - A x
        from x.  The steps stop at the first x whose normwise backward
        error ||r|| / ((||G||_inf + lam) ||x|| + ||b||) is at most
        BACKWARD_ERROR (Higham, Accuracy and Stability of Numerical
        Algorithms, 2002, 7.1).  ||G||_inf bounds ||G||_2 for symmetric
        G; for one-hot maps it lies far below trace(G), the number of
        blocks.  The computed residual carries its own rounding, from
        sums as long as a bucket's count, and may not get that low; there
        CG steps make it grow.  So the steps also stop at the first one
        that does not lower the least residual, once that residual meets
        the bound with trace(G) for ||G||_inf.  After CG_MAX_ITER steps
        they stop with a warning.  The x of least residual is returned.
        Every inner product runs through einsum, whose order does not
        depend on the BLAS thread count, and over contiguous vectors
        (einsum's order depends on the layout).
        """
        P, M = self._P, self._buf
        norm_b = _norm(b)

        def bound(v, norm_g):  # the residual norm BACKWARD_ERROR allows
            return BACKWARD_ERROR * ((norm_g + lam) * _norm(v) + norm_b)

        def times_a(v):  # (G + lam I) v
            return P.tmatmul(P @ v) / self.n + lam * v

        def precondition(r, scale):  # r / scale neither under- nor
            # overflows in float32
            y = cholesky_solve(M, r / scale)
            return scale * y.astype(float, copy=False)

        x = precondition(b, max(norm_b, 1e-300))
        r = b - times_a(x)
        norm, p, rz, steps = _norm(r), None, 0.0, 0
        best = norm, x
        while norm > bound(x, self._norm_inf):
            if steps == CG_MAX_ITER:
                warnings.warn(f"conjugate gradients did not settle in "
                              f"{CG_MAX_ITER} steps; relative residual "
                              f"{best[0] / norm_b:.1e}", stacklevel=3)
                break
            z = precondition(r, norm)
            rz, rz_old = _dot(r, z), rz
            p = z if p is None else z + (rz / rz_old) * p
            x = x + (rz / _dot(p, times_a(p))) * p
            r = b - times_a(x)
            norm = _norm(r)
            steps += 1
            if norm < best[0]:
                best = norm, x
            elif best[0] <= bound(best[1], self._trace):
                break
        self.cg_iterations = steps
        return best[1]

    def _factorize(self, lam: float) -> None:
        """Factor G + (lam + s) I in place in the panels, as solve
        describes."""
        A = self._gram_panels()
        gram_diag = A.diagonal()  # read while A holds G
        self._trace = float(gram_diag.sum(dtype=float))
        self._norm_inf = A.norm_inf
        shift = 32 * float(np.finfo(A.dtype).eps) * self._trace / A.m
        while True:
            A.set_diagonal(gram_diag + (lam + shift))
            try:
                cholesky_in_place(A)
                break
            except np.linalg.LinAlgError:
                A.copy_from(self._kept_gram())
                shift *= 2.0

    def _gram_panels(self) -> LowerPanels:
        """The one set of panels, holding G: built from the samples on
        the first solve, copied from the kept copy after that."""
        if self._buf is None:
            self._buf = self.spec.gram(self._P, self._dtype)
        else:
            self._buf.copy_from(self._kept_gram())
        return self._buf

    def _kept_gram(self) -> LowerPanels:
        """G to copy over a factor: built from the samples the first time
        a factorization needs it again, and kept from then on."""
        if self._gram is None:
            self._gram = self.spec.gram(self._P, self._dtype)
        return self._gram

    def weights(self, sketch: PrivateSketch, lam: float) -> np.ndarray:
        """Per-sample weights w with w @ f(points) = <a, sketch>, for a =
        solve(dot_targets(f(points)), lam) the ridge fit of any target f.

        One solve against the cached factor, then an inner product per
        sample.  The weights do not depend on the target: compute them
        once per sketch, reuse them for any target or loss.
        """
        if sketch.spec_id != self.spec.spec_id:
            raise SketchError("sketch was built with a different feature map")
        return self.apply(self.solve(sketch.normalized, lam)) / self.n

    def penalty(self, sketch: PrivateSketch) -> float:
        """The sketch's ridge penalty: regularization_lambda of its privacy
        budget and noisy count, scaled by the config's extra_reg."""
        return regularization_lambda(self.spec, sketch.epsilon_num,
                                     sketch.noisy_count, self.config.extra_reg)

    def weighted(self, sketch: PrivateSketch) -> "WeightedSamples":
        """The synthetic points with the sketch's weights at its own
        penalty; the one place a sketch's weights are solved for."""
        return WeightedSamples(self.points,
                               self.weights(sketch, self.penalty(sketch)),
                               self.domain)


def _dot(u: np.ndarray, v: np.ndarray) -> float:
    return float(np.einsum("i,i->", u, v))


def _norm(u: np.ndarray) -> float:
    return math.sqrt(_dot(u, u))
