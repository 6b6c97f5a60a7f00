import math
import subprocess
import sys
import textwrap
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

from dpsketch import (
    BoxIndicator,
    Domain,
    HistMap,
    Moment,
    Predicate,
    SyntheticFeatures,
    TrainConfig,
    build_race,
    build_rff,
    estimate_covariance,
    privatize,
    regularization_lambda,
    sketch_exact,
    theorem_lambda,
)
from dpsketch import estimator
from dpsketch.estimator import (LAMBDA_FLOOR, cholesky_in_place,
                                cholesky_solve)
from dpsketch.linalg import LEAF, PANEL, LowerPanels
from dpsketch.sketch import SketchError
from reference import fit, loss_value


class TestPrior:
    def test_uniform_moments(self):
        X = Domain.unit(4).sample(100_000, np.random.default_rng(0))
        assert X.shape == (100_000, 4)
        np.testing.assert_allclose(X.mean(axis=0), 0.5, atol=0.005)
        np.testing.assert_allclose(X.var(axis=0), 1 / 12, atol=0.005)

    def test_binary_attributes_are_fair_coins(self):
        dom = Domain((0.0, 0.0), (1.0, 1.0), kinds=("continuous", "binary"))
        X = dom.sample(50_000, np.random.default_rng(1))
        assert set(np.unique(X[:, 1])) == {0.0, 1.0}
        assert X[:, 1].mean() == pytest.approx(0.5, abs=0.01)

    def test_seed_determinism(self):
        a = Domain.unit(3).sample(100, np.random.default_rng((2, 5)))
        b = Domain.unit(3).sample(100, np.random.default_rng((2, 5)))
        np.testing.assert_array_equal(a, b)

    def test_respects_domain_box(self):
        dom = Domain((-1.0, 2.0), (1.0, 3.0))
        X = dom.sample(1000, np.random.default_rng(3))
        assert X[:, 0].min() >= -1 and X[:, 0].max() <= 1
        assert X[:, 1].min() >= 2 and X[:, 1].max() <= 3


class TestLambda:
    def test_worked_example(self):
        # RFF m=200: delta = 100*sqrt(2), eps_num=0.98, count 27000
        spec = build_rff(10, 200, 1.0, seed=0)
        lam = regularization_lambda(spec, 0.98, 27000.0)
        assert lam == pytest.approx(2 * 20000 / (0.98 ** 2 * 27000 ** 2))
        assert lam == pytest.approx(5.713e-5, rel=1e-3)

    def test_noiseless_floor(self):
        spec = build_rff(10, 200, 1.0, seed=0)
        assert regularization_lambda(spec, math.inf, 27000.0) == LAMBDA_FLOOR

    def test_large_count_keeps_stability_floor(self):
        # HIST d=10 at eps 1: 2 * 10^2 / count^2 falls below the floor
        # once the count passes about 4.5e5.
        spec = HistMap(Domain.unit(10), 4)
        assert regularization_lambda(spec, 1.0, 1e5) == \
            pytest.approx(2 * 100 / 1e10)
        assert regularization_lambda(spec, 1.0, 1e7) == LAMBDA_FLOOR
        assert regularization_lambda(spec, 1.0, 1e7, extra_reg=1e-3) == \
            LAMBDA_FLOOR

    def test_doubling_count_halves_lambda(self):
        # The name predates the noise-variance penalty: lambda scales as
        # 1/count^2, so doubling the count quarters it.  The name is kept
        # so that the test's id stays stable.
        spec = HistMap(Domain.unit(5), 10)
        a = regularization_lambda(spec, 0.98, 1000.0)
        b = regularization_lambda(spec, 0.98, 2000.0)
        assert a == pytest.approx(4 * b)

    def test_extra_reg_scales_linearly(self):
        spec = HistMap(Domain.unit(5), 10)
        assert regularization_lambda(spec, 0.5, 100.0, extra_reg=3.0) == \
            pytest.approx(3 * regularization_lambda(spec, 0.5, 100.0))

    def test_count_clamped_below_one(self):
        spec = HistMap(Domain.unit(2), 4)
        assert regularization_lambda(spec, 1.0, -5.0) == \
            regularization_lambda(spec, 1.0, 1.0)

    def test_theorem_variant(self):
        spec = HistMap(Domain.unit(3), 4)  # delta = 3
        lam = theorem_lambda(spec, 1.0, 50.0)
        assert lam == pytest.approx(2 * 9 / 2500)

    @pytest.mark.parametrize("build", [
        lambda: HistMap(Domain.unit(3), 6),
        lambda: build_rff(3, 40, 1.0, seed=11),
        lambda: build_race(3, 6, 5, 0.3, seed=12),
    ], ids=["hist", "rff", "race"])
    def test_penalty_follows_the_noise_variance(self, build, monkeypatch):
        # the penalty reads the variance from sketch.noise_variance, the
        # one place it is written
        spec = build()
        X = np.random.default_rng(0).uniform(size=(40, 3))
        sk = privatize(sketch_exact(spec, X), spec, 1.0, seed=1)
        feats = SyntheticFeatures(spec, TrainConfig(n_synth=500, seed=2))
        lam = feats.penalty(sk)
        assert lam > 1e3 * LAMBDA_FLOOR  # away from the floor
        variance = estimator.noise_variance
        monkeypatch.setattr(estimator, "noise_variance",
                            lambda *args: 2 * variance(*args))
        assert feats.penalty(sk) == 2 * lam


class TestFit:
    def test_recovers_single_component(self):
        spec = build_rff(3, 20, 1.0, seed=0)
        synth = Domain.unit(3).sample(2000, np.random.default_rng(1))
        model = fit(SyntheticFeatures.from_points(spec, synth),
                    lambda X: spec.encode_batch(X).toarray()[:, 4], 1e-9)
        expected = np.zeros(20)
        expected[4] = 1.0
        np.testing.assert_allclose(model.coef, expected, atol=2e-4)

    def test_zero_target_gives_zero_coefficients(self):
        spec = HistMap(Domain.unit(2), 5)
        synth = Domain.unit(2).sample(500, np.random.default_rng(2))
        model = fit(SyntheticFeatures.from_points(spec, synth),
                    lambda X: np.zeros(X.shape[0]), 0.5)
        np.testing.assert_array_equal(model.coef, np.zeros(10))

    def test_rejects_target_of_another_shape(self):
        # a target is called once on the whole (n, d) batch, never per point
        feats = SyntheticFeatures(HistMap(Domain.unit(2), 4),
                                  TrainConfig(n_synth=200, seed=1))
        for f in (lambda X: 1.0, lambda X: X):
            with pytest.raises(ValueError, match=r"shape .* expected \(200,\)"):
                fit(feats, f, 0.1)

    def test_span_member_has_tiny_residual(self):
        spec = HistMap(Domain.unit(2), 4)
        synth = Domain.unit(2).sample(4000, np.random.default_rng(3))
        # indicator of x1 <= 0.5 is the sum of the first two bins
        model = fit(SyntheticFeatures.from_points(spec, synth),
                    lambda X: (X[:, 0] <= 0.5).astype(float), 1e-9)
        assert model.diagnostics["residual_norm"] < 1e-6

    def test_normal_equations_hold(self):
        spec = build_race(3, 5, 6, 0.3, seed=0)
        feats = SyntheticFeatures(spec, TrainConfig(n_synth=3000, seed=4))
        lam = 0.01
        model = fit(feats, Moment(1, 2), lam)
        G = spec.gram(spec.encode_batch(feats.points)).dense()
        rhs = feats.dot_targets(Moment(1, 2)(feats.points))
        lhs = (G + lam * np.eye(spec.m)) @ model.coef
        assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) < 1e-10

    def test_coef_norm_shrinks_with_lambda(self):
        spec = build_rff(2, 30, 1.0, seed=5)
        feats = SyntheticFeatures(spec, TrainConfig(n_synth=2000, seed=5))
        norms = [np.linalg.norm(fit(feats, Moment(1, 1), lam).coef)
                 for lam in (1e-6, 1e-3, 1e-1, 10.0)]
        assert norms == sorted(norms, reverse=True)

    def test_fit_minimizes_objective(self):
        spec = build_rff(2, 10, 1.0, seed=6)
        pts = Domain.unit(2).sample(500, np.random.default_rng(6))
        lam = 0.05
        model = fit(SyntheticFeatures.from_points(spec, pts), Moment(2, 1),
                    lam)
        best = loss_value(spec, model.coef, Moment(2, 1), pts, lam)
        rng = np.random.default_rng(7)
        for _ in range(20):
            probe = model.coef + rng.normal(0, 0.1, size=10)
            assert loss_value(spec, probe, Moment(2, 1), pts, lam) >= best

    def test_reproducible_bitwise(self):
        spec = HistMap(Domain.unit(3), 6)
        cfg = TrainConfig(n_synth=1000, seed=8)
        a = fit(SyntheticFeatures(spec, cfg), Moment(1, 1), 0.01)
        b = fit(SyntheticFeatures(spec, cfg), Moment(1, 1), 0.01)
        assert a.coef.tolist() == b.coef.tolist()

    def test_warns_when_underdetermined(self):
        spec = build_rff(2, 40, 1.0, seed=9)
        with pytest.warns(UserWarning, match="n_synth"):
            SyntheticFeatures(spec, TrainConfig(n_synth=10, seed=0))


class TestLoss:
    def test_zero_coef_constant_target(self):
        spec = HistMap(Domain.unit(2), 3)
        pts = Domain.unit(2).sample(100, np.random.default_rng(0))
        f = lambda X: np.ones(X.shape[0])
        assert loss_value(spec, np.zeros(6), f, pts, 0.7) == pytest.approx(1.0)

    def test_lambda_term_isolated(self):
        spec = HistMap(Domain.unit(2), 3)
        pts = Domain.unit(2).sample(100, np.random.default_rng(0))
        a = np.ones(6) / 6
        f = lambda X: np.zeros(X.shape[0])
        base = loss_value(spec, a, f, pts, 0.0)
        assert loss_value(spec, a, f, pts, 2.0) == pytest.approx(
            base + 2.0 * a @ a)


class TestEstimate:
    def test_single_component_reads_sketch_entry(self):
        spec = HistMap(Domain.unit(2), 4)
        X = np.random.default_rng(1).uniform(size=(100, 2))
        sk = privatize(sketch_exact(spec, X), spec, math.inf)
        feats = SyntheticFeatures(spec, TrainConfig(n_synth=2000, seed=0))
        [est] = feats.weighted(sk).sums(
            [lambda Z: spec.encode_batch(Z).toarray()[:, 2]])
        assert est == pytest.approx(sk.normalized[2])

    def test_spec_mismatch_rejected(self):
        spec = HistMap(Domain.unit(2), 4)
        other = HistMap(Domain.unit(2), 5)
        X = np.random.default_rng(1).uniform(size=(10, 2))
        sk = privatize(sketch_exact(spec, X), spec, math.inf)
        pts = Domain.unit(2).sample(200, np.random.default_rng(0))
        with pytest.raises(SketchError):
            SyntheticFeatures.from_points(other, pts).weighted(sk).sums(
                [Moment(1, 1)])


class TestLearnAndEstimate:
    def test_noiseless_mean_recovery(self):
        spec = HistMap(Domain.unit(3), 50)
        X = np.random.default_rng(2).uniform(size=(1000, 3))
        sk = privatize(sketch_exact(spec, X), spec, math.inf)
        cfg = TrainConfig(n_synth=50_000, seed=0)
        [est] = SyntheticFeatures(spec, cfg).weighted(sk).sums([Moment(1, 1)])
        # HIST quantizes to bins of width 0.02 -> error ~ bin width / sqrt(12n)
        assert est == pytest.approx(X[:, 0].mean(), abs=2e-3)

    def test_linearity_in_the_target(self):
        spec = build_rff(2, 40, 1.0, seed=3)
        X = np.random.default_rng(3).uniform(size=(200, 2))
        sk = privatize(sketch_exact(spec, X), spec, 1.0, seed=5)
        feats = SyntheticFeatures(spec, TrainConfig(n_synth=3000, seed=1))
        f = Moment(1, 1)
        g = Moment(2, 2)
        combo = lambda X: 2.0 * f(X) - 0.5 * g(X)
        ef, eg, ec = feats.weighted(sk).sums([f, g, combo])
        assert ec == pytest.approx(2.0 * ef - 0.5 * eg, abs=1e-10)

    def test_return_model_diagnostics(self):
        spec = HistMap(Domain.unit(2), 5)
        X = np.random.default_rng(4).uniform(size=(50, 2))
        sk = privatize(sketch_exact(spec, X), spec, 1.0, seed=0)
        feats = SyntheticFeatures(spec, TrainConfig(n_synth=2000, seed=0))
        [value] = feats.weighted(sk).sums([Moment(1, 1)])
        model = fit(feats, Moment(1, 1), regularization_lambda(
            spec, sk.epsilon_num, sk.noisy_count))
        assert value == pytest.approx(model.coef @ sk.normalized, rel=1e-9)
        assert "train_loss" in model.diagnostics

    def test_noise_degrades_estimate_on_average(self):
        spec = HistMap(Domain.unit(2), 10)
        X = np.random.default_rng(5).uniform(size=(500, 2))
        feats = SyntheticFeatures(spec, TrainConfig(n_synth=10_000, seed=0))
        exact = sketch_exact(spec, X)
        truth = X[:, 0].mean()
        err_inf = abs(feats.weighted(
            privatize(exact, spec, math.inf)).sums([Moment(1, 1)])[0] - truth)
        errs = [abs(feats.weighted(privatize(exact, spec, 0.5, seed=s)).sums(
            [Moment(1, 1)])[0] - truth) for s in range(20)]
        assert np.mean(errs) > err_inf


_MAPS = [
    HistMap(Domain.unit(3), 6),
    build_rff(3, 40, 1.0, seed=11),
    build_race(3, 6, 5, 0.3, seed=12),
]
_MAP_IDS = ["hist", "rff", "race"]
# 2400 buckets, five panels; 723 occupied at n_synth 3000, two panels
_MULTI_PANEL = build_race(3, 30, 80, 0.1, seed=13)


class TestWeightsPath:
    @pytest.mark.parametrize("spec", _MAPS, ids=_MAP_IDS)
    def test_matches_per_target_fits(self, spec):
        X = np.random.default_rng(13).uniform(size=(400, 3))
        sk = privatize(sketch_exact(spec, X), spec, 2.0, seed=14)
        feats = SyntheticFeatures(spec, TrainConfig(n_synth=3000, seed=15))
        targets = [Moment(1, 1), Moment(2, 2),
                   lambda Z: (Z[:, 0] <= 0.4) * Z[:, 2]]
        lam = regularization_lambda(spec, sk.epsilon_num, sk.noisy_count)
        expected = [fit(feats, f, lam).coef @ sk.normalized for f in targets]
        np.testing.assert_allclose(feats.weighted(sk).sums(targets), expected,
                                   rtol=1e-9)

    def test_sketch_of_another_spec_rejected(self):
        spec = build_rff(2, 20, 1.0, seed=1)
        other = build_rff(2, 20, 1.0, seed=2)
        sk = privatize(sketch_exact(other, [[0.5, 0.5]]), other, 1.0, seed=3)
        feats = SyntheticFeatures(spec, TrainConfig(n_synth=500, seed=4))
        with pytest.raises(SketchError):
            feats.weighted(sk).sums([Moment(1, 1)])
        with pytest.raises(SketchError):
            feats.weights(sk, 0.1)

    def test_retained_memory_flat_in_number_of_sketches(self):
        # Estimating from many sketches on one SyntheticFeatures must not
        # keep per-sketch state (target values, factors) alive.
        spec = HistMap(Domain.unit(10), 20)
        exact = sketch_exact(
            spec, np.random.default_rng(16).uniform(size=(2000, 10)))
        feats = SyntheticFeatures(spec, TrainConfig(n_synth=20_000, seed=17))
        tracemalloc.start()
        try:
            retained = []
            for s in range(5):
                sk = privatize(exact, spec, 1.0, seed=(18, s))
                estimate_covariance(feats.weighted(sk))
                del sk
                retained.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        # the first sketch builds the Gram matrix and the factor
        growth = retained[-1] - retained[1]
        assert growth < 256 * 1024, retained

    def test_weights_independent_of_blas_thread_count(self, child_env):
        # one-hot P @ v needs no BLAS, and the blocked Cholesky factors
        # leaves below OpenBLAS's thread-dependent blocking; factor orders
        # 400 and 464 span several leaves, 1284 three panels, the last 132
        # wide, and 2000 four panels, the last 272 wide, with 1424 rows
        # below the first square, three row blocks.
        # RFF encodes and forms its Gram over widths padded to multiples
        # of 8; at m = 98, 202, 386 and 1000 the unpadded products gave
        # other bytes on 1 and 2 threads
        code = textwrap.dedent("""
            import numpy as np
            from dpsketch import (Domain, SyntheticFeatures, TrainConfig,
                                  HistMap, build_race, build_rff, privatize,
                                  sketch_exact)
            rng = np.random.default_rng(0)
            for spec, n_synth, seed in (
                    (HistMap(Domain.unit(3), 20), 20_000, 3),
                    (build_race(3, 6, 10, 0.2, seed=1), 20_000, 3),
                    (HistMap(Domain.unit(4), 100), 20_000, 3),
                    (build_race(3, 40, 40, 0.2, seed=5), 4000, 8),
                    (build_race(3, 30, 60, 0.05, seed=5), 4000, 8),
                    (HistMap(Domain.unit(4), 500), 20_000, 3),
                    (build_rff(10, 98, 1.0, seed=4), 5000, 3),
                    (build_rff(10, 202, 1.0, seed=4), 5000, 3),
                    (build_rff(10, 386, 1.0, seed=4), 5000, 3),
                    (build_rff(10, 1000, 1.0, seed=4), 5000, 3)):
                X = rng.uniform(size=(3000, spec.d))
                exact = sketch_exact(spec, X)
                sk = privatize(exact, spec, 1.0, seed=2)
                feats = SyntheticFeatures(
                    spec, TrainConfig(n_synth=n_synth, seed=seed))
                w = feats.weighted(sk).weights
                G = spec.gram(spec.encode_batch(feats.points))
                order = np.count_nonzero(G.diagonal())
                print(order, w.tobytes().hex(),
                      exact.sum_features.tobytes().hex())
        """)
        outputs = []
        for threads in (1, 2):
            res = subprocess.run([sys.executable, "-c", code],
                                 env=child_env(threads),
                                 capture_output=True, text=True)
            assert res.returncode == 0, res.stderr
            outputs.append(res.stdout)
        assert outputs[0] == outputs[1]
        assert [line.split()[0] for line in outputs[0].splitlines()] == \
            ["60", "45", "400", "464", "1284", "2000", "98", "202", "386",
             "1000"]


def _spd(m, seed):
    X = np.random.default_rng(seed).normal(size=(m + 20, m))
    G = X.T @ X / m + 1e-3 * np.eye(m)
    return (G + G.T) / 2


def _stored(G: np.ndarray, dtype=np.float64) -> LowerPanels:
    A = LowerPanels(G.shape[0], dtype)
    A.store(0, 0, G)
    return A


class TestLowerPanels:
    def test_store_straddling_panel_edges(self):
        # order 1300: three panels, starting at 0, 576 and 1152
        m = 1300
        G = _spd(m, 11)
        A = LowerPanels(m)
        assert A.starts == [0, PANEL, 2 * PANEL]
        # each panel whole: its rows from its first one down
        assert A.nbytes == 8 * sum((m - p0) * min(PANEL, m - p0)
                                   for p0 in A.starts)
        # blocks straddle the column edges at 576 and 1152, and the ones
        # on the diagonal start above the first row of a panel they cover
        spans = [(0, 500), (500, 600), (600, 1100), (1100, 1200),
                 (1200, 1300)]
        for c0, c1 in spans:
            for r0, r1 in spans:
                if r0 >= c0:
                    A.store(r0, c0, G[r0:r1, c0:c1])
        assert A.dense().tobytes() == G.tobytes()


class TestBlockedCholesky:
    # orders around the leaf (96) and panel (576) edges, up to three panels
    ORDERS = [1, 7, 95, 96, 97, 200, 576, 577, 700, 1152, 1153, 1729]

    @pytest.mark.parametrize(
        "m, dtype", [(m, np.float64) for m in ORDERS]
        + [(m, np.float32) for m in ORDERS],
        ids=[str(m) for m in ORDERS] + [f"float32-{m}" for m in ORDERS])
    def test_matches_lapack_and_keeps_upper_triangle(self, m, dtype):
        # the stored matrix keeps its upper triangle as the mirror of the
        # lower one; the factor's is not part of it.  The factor holds L
        # below its leaves' diagonal blocks and L^-T of each leaf in the
        # block.  Measured worst errors in float32: 1.3e-6 in L (in the
        # leaves, as the inverse of the stored inverse), 2.1e-5 in x.
        # The stored inverses themselves differ from the reference's by
        # up to 3.8e-5: inverting scales the factor's rounding by the
        # leaf's condition number
        atol, rtol = (1e-12, 1e-11) if dtype == np.float64 else (1e-5, 1e-4)
        G = _spd(m, m)
        A = _stored(G, dtype)
        assert len(A.starts) == -(-m // PANEL)
        assert A.dense().tobytes() == G.astype(dtype).tobytes()
        assert cholesky_in_place(A) is A
        ref = scipy.linalg.cholesky(G, lower=True)
        lower = np.tril(np.ones((m, m), bool))
        for p0, X in zip(A.starts, A.panels):
            w = X.shape[1]
            for j0 in range(0, w, LEAF):
                i0, i1 = p0 + j0, p0 + min(j0 + LEAF, w)
                lower[i0:i1, i0:i1] = False
                np.testing.assert_allclose(
                    np.linalg.inv(X[j0:i1 - p0, j0:i1 - p0]).T,
                    ref[i0:i1, i0:i1], rtol=0, atol=atol)
        np.testing.assert_allclose(np.tril(A.dense())[lower], ref[lower],
                                   rtol=0, atol=atol)
        b = np.random.default_rng(1).normal(size=(m, 3))
        x = cholesky_solve(A, b)
        assert x.dtype == dtype
        x_ref = scipy.linalg.cho_solve((ref, True), b)
        assert np.linalg.norm(x - x_ref) <= rtol * np.linalg.norm(x_ref)
        x0 = cholesky_solve(A, b[:, 0])
        assert np.linalg.norm(x0 - x[:, 0]) <= rtol * np.linalg.norm(x0)

    def test_solve_allocates_little_beyond_x(self):
        # float32, order 2000 (four panels): beyond x, cholesky_solve
        # allocates only the leaf products, vectors of at most m entries
        A = cholesky_in_place(_stored(_spd(2000, 5), np.float32))
        b = np.random.default_rng(6).normal(size=2000)
        tracemalloc.start()
        try:
            x = cholesky_solve(A, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= x.nbytes + 100_000, peak

    @pytest.mark.parametrize("m, dtype", [(1000, np.float64),
                                          (1729, np.float32),
                                          (4555, np.float32)])
    def test_factor_holds_only_its_documented_workspaces(self, m, dtype):
        # orders with a narrow last panel (424, 1 and 523 wide).  Beyond
        # the panels, cholesky_in_place documents the update block and
        # the leaf buffer, tall rows each; the rest of the budget covers
        # one leaf step's products: a LEAF-wide column of the square
        # below the leaf and a few LEAF x LEAF arrays
        A = LowerPanels(m, dtype)
        for X in A.panels:
            X.fill(0.5)
        A.set_diagonal(np.full(m, 1.5))  # I + 0.5: positive definite
        assert m % PANEL and len(A.starts) > 1
        tall = min(PANEL, m - PANEL)
        tracemalloc.start()
        try:
            cholesky_in_place(A)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        budget = A.dtype.itemsize * (tall * (PANEL + LEAF) + 2 * tall * LEAF)
        assert peak <= budget, peak / budget

    def test_indefinite_raises(self):
        G = _spd(700, 3)
        G[650, 650] = -1.0
        with pytest.raises(np.linalg.LinAlgError):
            cholesky_in_place(_stored(G))


class TestFactorBuffer:
    @pytest.mark.parametrize("spec", _MAPS + [_MULTI_PANEL],
                             ids=_MAP_IDS + ["race-panels"])
    def test_gram_is_exactly_symmetric(self, spec):
        # The panels hold (1/n) P^T P's lower triangle bit for bit, over
        # all columns and over the occupied ones (P compacted; all of
        # them for a dense P); dense() mirrors it, so it matches the
        # product only if P^T P is exactly symmetric.
        points = SyntheticFeatures(spec, TrainConfig(n_synth=3000, seed=1)).points
        P = spec.encode_batch(points).toarray()
        ref = P.T @ P
        assert ref.tobytes() == np.ascontiguousarray(ref.T).tobytes()
        ref /= points.shape[0]
        encoded = spec.encode_batch(points)
        assert spec.gram(encoded).dense().tobytes() == ref.tobytes()
        compact, cols = encoded.compact()
        np.testing.assert_array_equal(cols, np.flatnonzero(np.diagonal(ref)))
        assert spec.gram(compact).dense().tobytes() == \
            ref[np.ix_(cols, cols)].tobytes()

    @pytest.mark.parametrize("spec", _MAPS + [_MULTI_PANEL],
                             ids=_MAP_IDS + ["race-panels"])
    def test_refactoring_matches_fresh_instances(self, spec):
        X = np.random.default_rng(2).uniform(size=(400, 3))
        sk = privatize(sketch_exact(spec, X), spec, 1.0, seed=3)
        cfg = TrainConfig(n_synth=3000, seed=4)
        feats = SyntheticFeatures(spec, cfg)
        for lam in (1e-3, 0.2, 1e-3):
            fresh = SyntheticFeatures(spec, cfg).weights(sk, lam)
            assert feats.weights(sk, lam).tobytes() == fresh.tobytes()

    def test_first_solve_holds_one_m_by_m_buffer(self):
        spec = build_race(3, 40, 40, 0.2, seed=5)
        X = np.random.default_rng(6).uniform(size=(2000, 3))
        sk = privatize(sketch_exact(spec, X), spec, 1.0, seed=7)
        feats = SyntheticFeatures(spec, TrainConfig(n_synth=4000, seed=8))
        lam = feats.penalty(sk)
        tracemalloc.start()
        try:
            feats.weights(sk, lam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        buffer_bytes = 8 * spec.m * spec.m
        assert peak <= 1.5 * buffer_bytes, peak / buffer_bytes

    def test_first_solve_of_six_panels_holds_under_the_square(self):
        # every one of the 3000 bins is occupied: six panels, the last 120
        # wide, which store 0.59 of the 8 m^2 bytes of the square
        spec = HistMap(Domain.unit(6), 500)
        X = np.random.default_rng(19).uniform(size=(2000, 6))
        sk = privatize(sketch_exact(spec, X), spec, 1.0, seed=20)
        feats = SyntheticFeatures(spec, TrainConfig(n_synth=20_000, seed=21))
        lam = feats.penalty(sk)
        tracemalloc.start()
        try:
            feats.weights(sk, lam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 5 * PANEL < spec.m <= 6 * PANEL
        square_bytes = 8 * spec.m * spec.m
        assert peak <= 0.7 * square_bytes, peak / square_bytes

    def test_first_solve_holds_storage_and_factor_workspaces(self):
        # every one of the 1000 bins is occupied: a float64 system of two
        # panels, the last 424 wide.  cholesky_in_place documents its
        # workspaces: a panel-update block and a leaf buffer
        # min(PANEL, m - PANEL) = 424 rows tall.  The budget holds
        # PANEL^2 + LEAF m entries more, which the Gram's build uses: the
        # panels then sit beside one pair of blocks' int64 joint counts
        # (500^2 entries; 8.0 MiB in all).  The peak comes in the factor,
        # 0.759 times the budget below (8.5 MiB)
        spec = HistMap(Domain.unit(2), 500)
        X = np.random.default_rng(0).uniform(size=(3000, 2))
        sk = privatize(sketch_exact(spec, X), spec, 1.0, seed=2)
        feats = SyntheticFeatures(spec, TrainConfig(n_synth=20_000, seed=3))
        lam = feats.penalty(sk)
        tracemalloc.start()
        try:
            feats.weights(sk, lam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        m = spec.m
        assert feats._cols.size == m and feats._dtype == np.float64
        assert len(LowerPanels(m).starts) == 2 and m % PANEL
        tall = min(PANEL, m - PANEL)
        workspaces = 8 * (PANEL * PANEL + tall * (PANEL + LEAF) + LEAF * m)
        held = LowerPanels(m).nbytes + workspaces
        assert peak <= 1.05 * held, peak / held

    def test_gram_build_holds_one_pair_of_counts(self):
        # HIST 2x500 at n_synth 20 000 in float64: besides the panels, the
        # build holds one pair of blocks' int64 joint counts (500^2
        # entries) and bincount's intp copy of the n joint indices; each
        # pair's counts are freed on store, before the next pair's are
        # counted, and the panels are divided by n in place
        spec = HistMap(Domain.unit(2), 500)
        points = np.random.default_rng(3).uniform(size=(20_000, 2))
        P, cols = spec.encode_batch(points).compact()
        assert cols.size == spec.m
        tracemalloc.start()
        try:
            G = spec.gram(P)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert G.dtype == np.float64
        budget = G.nbytes + 8 * spec.n_bins ** 2 + 8 * len(points) + 2 ** 18
        assert peak <= budget, peak / budget

    def test_breakdown_doubles_the_shift_and_refines_to_lam(self,
                                                           monkeypatch):
        # a forced breakdown of the first factorization copies G back from
        # a kept copy (so G is built twice: the panels, then the copy) and
        # doubles the shift s; x is still refined to G + lam I, unshifted
        spec = HistMap(Domain.unit(3), 6)
        feats = SyntheticFeatures(spec, TrainConfig(n_synth=500, seed=10))
        G = spec.gram(spec.encode_batch(feats.points)).dense()
        gram_diag = np.diagonal(G).copy()
        grams, diagonals = [], []
        gram, factor = spec.gram, estimator.cholesky_in_place

        def recording_gram(P, dtype=np.float64):
            grams.append(np.dtype(dtype))
            return gram(P, dtype)

        def breaking_down_once(a):
            diagonals.append(a.diagonal())
            if len(diagonals) == 1:
                raise np.linalg.LinAlgError("forced breakdown")
            return factor(a)

        monkeypatch.setattr(spec, "gram", recording_gram)
        monkeypatch.setattr(estimator, "cholesky_in_place", breaking_down_once)
        lam = 1e-3
        rhs = np.random.default_rng(9).normal(size=spec.m)
        x = feats.solve(rhs, lam)
        assert grams == [np.float64, np.float64]
        s = 32 * np.finfo(np.float64).eps * float(gram_diag.sum()) / spec.m
        assert [d.tobytes() for d in diagonals] == \
            [(gram_diag + (lam + s)).tobytes(),
             (gram_diag + (lam + 2 * s)).tobytes()]
        exact = np.linalg.solve(G + lam * np.eye(spec.m), rhs)
        assert np.linalg.norm(x - exact) <= 1e-10 * np.linalg.norm(exact)

        # another penalty factors again from the kept copy of G, bit for
        # bit as a fresh instance at that penalty
        monkeypatch.setattr(estimator, "cholesky_in_place", factor)
        x5 = feats.solve(rhs, 5.0)
        assert grams == [np.float64, np.float64]
        fresh = SyntheticFeatures(spec, TrainConfig(n_synth=500, seed=10))
        assert x5.tobytes() == fresh.solve(rhs, 5.0).tobytes()
        assert feats.solve(rhs, lam).tobytes() == \
            fresh.solve(rhs, lam).tobytes()

    def test_noiseless_fits_do_not_warn(self):
        # the lam = 1e-9 fits of acceptance criterion 3; their first
        # refined iterates read backward errors of a few 1e-16
        for spec, components in [
                (build_rff(3, 50, 1.0, seed=0), [0, 7, 30, 49]),
                (HistMap(Domain.unit(3), 8), [0, 5, 12, 23]),
                (build_race(3, 6, 5, 0.3, seed=1), [0, 9, 17, 29])]:
            feats = SyntheticFeatures(spec,
                                      TrainConfig(n_synth=20_000, seed=4))
            targets = [lambda Z, k=k: spec.encode_batch(Z).toarray()[:, k]
                       for k in components]
            if spec.variant == "HIST":
                targets.append(BoxIndicator((Predicate(1, "<=", 0.375),)))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for f in targets:
                    fit(feats, f, 1e-9)

    @pytest.mark.parametrize("lam", [0.0, -1e-3, math.inf, math.nan])
    @pytest.mark.parametrize("call", ["solve", "fit", "weights"])
    def test_rejects_lambda_not_positive_and_finite(self, call, lam):
        spec = HistMap(Domain.unit(2), 4)
        feats = SyntheticFeatures(spec, TrainConfig(n_synth=200, seed=1))
        sk = privatize(sketch_exact(spec, [[0.5, 0.5]]), spec, 1.0, seed=2)
        with pytest.raises(ValueError, match="lambda must be positive"):
            {"solve": lambda: feats.solve(np.ones(spec.m), lam),
             "fit": lambda: fit(feats, Moment(1, 1), lam),
             "weights": lambda: feats.weights(sk, lam)}[call]()


class TestMixedPrecision:
    """Systems of more than two panels factor G + (lam + s) I in float32
    and refine x to the float64 system at lam by conjugate gradients.
    HIST 4x500 at n_synth 20 000 occupies all 2000 bins (four panels),
    RACE 40x80 with r_width 0.05 at n_synth 4000 1702 of its 3200 buckets
    (three panels)."""

    hist = (HistMap(Domain.unit(4), 500), TrainConfig(n_synth=20_000, seed=3))
    race = (build_race(3, 40, 80, 0.05, seed=5),
            TrainConfig(n_synth=4000, seed=4))

    @staticmethod
    def _sketch(spec, epsilon):
        X = np.random.default_rng(0).uniform(size=(3000, spec.d))
        return privatize(sketch_exact(spec, X), spec, epsilon, seed=2)

    @staticmethod
    def _reference(feats, sketch, lam):
        # the weights of the float64 panel factor of G + lam I
        P = feats.spec.encode_batch(feats.points)
        compact, cols = P.compact()
        A = feats.spec.gram(compact)
        A.set_diagonal(A.diagonal() + lam)
        cholesky_in_place(A)
        x = sketch.normalized / lam
        x[cols] = cholesky_solve(A, sketch.normalized[cols])
        return P @ x / feats.n

    @staticmethod
    def _recording_factor(monkeypatch):
        dtypes = []
        factor = estimator.cholesky_in_place

        def recording(a):
            dtypes.append(a.dtype)
            return factor(a)

        monkeypatch.setattr(estimator, "cholesky_in_place", recording)
        return dtypes

    @staticmethod
    def _recording_gram(monkeypatch, spec):
        dtypes = []
        gram = spec.gram

        def recording(P, dtype=np.float64):
            dtypes.append(np.dtype(dtype))
            return gram(P, dtype)

        monkeypatch.setattr(spec, "gram", recording)
        return dtypes

    @pytest.mark.parametrize("system", ["hist", "race"])
    def test_refined_weights_match_float64_solve(self, monkeypatch, system):
        spec, config = getattr(self, system)
        sk = self._sketch(spec, 1.0)
        feats = SyntheticFeatures(spec, config)
        dtypes = self._recording_factor(monkeypatch)
        lam = feats.penalty(sk)
        w = feats.weights(sk, lam)
        assert dtypes == [np.float32]
        assert 1 <= feats.cg_iterations <= 10
        ref = self._reference(feats, sk, lam)
        assert np.linalg.norm(w - ref) <= 1e-10 * np.linalg.norm(ref)
        # a capped refinement warns
        monkeypatch.setattr(estimator, "CG_MAX_ITER", 1)
        with pytest.warns(UserWarning, match="did not settle in 1 steps"):
            feats.solve(sk.normalized, lam)
        assert feats.cg_iterations == 1

    @staticmethod
    def _backward_error(feats, b, lam):
        # of the refined x over the occupied columns, with RACE's
        # trace(G) = R: every sample activates one bucket per hash
        x = feats.solve(b, lam)
        cols = feats.spec.encode_batch(feats.points).compact()[1]
        r = (b - feats.dot_targets(feats.apply(x)) - lam * x)[cols]
        norm_a = feats.spec.n_hashes + lam
        return np.linalg.norm(r) / (norm_a * np.linalg.norm(x[cols])
                                    + np.linalg.norm(b[cols]))

    def test_noiseless_floor_factors_once_in_float32(self, monkeypatch):
        # at the noiseless floor RACE's float32 G + lam I breaks down, but
        # G + (lam + s) I with the shift chosen up front factors on the
        # first try; no float64 panels are built
        spec, config = self.race
        sk = self._sketch(spec, math.inf)
        feats = SyntheticFeatures(spec, config)
        dtypes = self._recording_factor(monkeypatch)
        grams = self._recording_gram(monkeypatch, spec)
        backward_error = self._backward_error(feats, sk.normalized,
                                              LAMBDA_FLOOR)
        assert dtypes == [np.float32]
        assert grams == [np.float32]
        assert backward_error <= 16 * 2.0 ** -52

    def test_refinement_runs_past_a_rising_residual(self):
        # with the shifted factor of the noiseless floor the residual
        # norms of this system go 2.4e-3, 6.2e-3, 2.5e-4, 1.5e-3, ... over
        # 13 steps: a rule that stopped when the residual stopped falling
        # returned after one step, with weights 1.7e-2 off the float64
        # solve and a backward error of 2e-9
        spec, config = self.race
        sk = self._sketch(spec, math.inf)
        feats = SyntheticFeatures(spec, config)
        w = feats.weights(sk, LAMBDA_FLOOR)
        assert feats.cg_iterations > 2
        ref = self._reference(feats, sk, LAMBDA_FLOOR)
        assert np.linalg.norm(w - ref) <= 1e-6 * np.linalg.norm(ref)
        assert self._backward_error(feats, sk.normalized, LAMBDA_FLOOR) \
            <= 16 * 2.0 ** -52

    def test_penalty_sweep_matches_fresh_instances(self, monkeypatch):
        # a second penalty restores G from a float32 kept copy: G is built
        # twice, whatever the penalties
        spec, config = self.race
        sk = self._sketch(spec, 1.0)
        feats = SyntheticFeatures(spec, config)
        fresh = [SyntheticFeatures(spec, config).weights(sk, lam)
                 for lam in (1e-3, 2e-3, LAMBDA_FLOOR)]
        grams = self._recording_gram(monkeypatch, spec)
        for k in (0, 1, 0, 2, 1):
            lam = (1e-3, 2e-3, LAMBDA_FLOOR)[k]
            assert feats.weights(sk, lam).tobytes() == fresh[k].tobytes()
        assert grams == [np.float32, np.float32]

    def test_first_float32_solve_holds_storage_workspaces_and_vectors(self):
        # the float32 panels, cholesky_in_place's float32 workspaces (see
        # TestFactorBuffer) with the same PANEL^2 + LEAF m entries more,
        # and a few float64 vectors of the refinement: of length m and of
        # length n_synth (P v and the int64 indices of one block column
        # in P^T y).  The peak comes in the Gram's build, beside one pair
        # of blocks' int64 joint counts: 0.863 times the budget below
        spec, config = self.hist
        sk = self._sketch(spec, 1.0)
        feats = SyntheticFeatures(spec, config)
        lam = feats.penalty(sk)
        tracemalloc.start()
        try:
            feats.weights(sk, lam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        m, n = spec.m, feats.n
        tall = min(PANEL, m - PANEL)
        workspaces = 4 * (PANEL * PANEL + tall * (PANEL + LEAF) + LEAF * m)
        vectors = 8 * (12 * m + 3 * n)
        held = LowerPanels(m, np.float32).nbytes + workspaces + vectors
        assert peak <= 1.05 * held, peak / held

    def test_float32_factor_independent_of_blas_thread_count(self, child_env):
        # RACE 40x80 with r_width 0.03: 2508 occupied buckets, five panels;
        # at eps = inf its lam is the noiseless floor, where the factor of
        # G + lam I breaks down in float32 without the shift
        code = textwrap.dedent("""
            import numpy as np
            from dpsketch import (SyntheticFeatures, TrainConfig, build_race,
                                  privatize, sketch_exact)
            spec = build_race(3, 40, 80, 0.03, seed=5)
            X = np.random.default_rng(0).uniform(size=(3000, 3))
            exact = sketch_exact(spec, X)
            feats = SyntheticFeatures(spec, TrainConfig(n_synth=4000, seed=4))
            for epsilon in (1.0, float("inf")):
                sk = privatize(exact, spec, epsilon, seed=2)
                w = feats.weighted(sk).weights
                print(feats.cg_iterations, w.tobytes().hex())
        """)
        outputs = []
        for threads in (1, 2):
            res = subprocess.run([sys.executable, "-c", code],
                                 env=child_env(threads),
                                 capture_output=True, text=True)
            assert res.returncode == 0, res.stderr
            outputs.append(res.stdout)
        assert outputs[0] == outputs[1]
        steps = [int(line.split()[0]) for line in outputs[0].splitlines()]
        assert len(steps) == 2 and min(steps) > 0


class TestRefinementStop:
    """The refinement stops at a backward error of BACKWARD_ERROR with
    ||G||_inf for the norm of G, or at the rounding level of the residual
    itself."""

    def test_refinement_stops_near_a_refined_float64_solve(self):
        # RACE 10-d 80x40 at n_synth 4000 (3175 occupied buckets), eps=1
        # on 27 000 rows: trace(G) = 80 but ||G||_inf = B max_j c_j / n is
        # about 10, and a stop that read trace(G) for ||G|| returned x
        # 2.3e-9 off; with ||G||_inf it stops 3.2e-12 off
        spec = build_race(10, 80, 40, 0.1, seed=5)
        X = np.random.default_rng(0).uniform(size=(27_000, spec.d))
        sk = privatize(sketch_exact(spec, X), spec, 1.0, seed=2)
        feats = SyntheticFeatures(spec, TrainConfig(n_synth=4000, seed=4))
        lam = feats.penalty(sk)
        P, cols = spec.encode_batch(feats.points).compact()
        A = spec.gram(P)
        assert A.norm_inf < spec.n_hashes / 4
        x = feats.solve(sk.normalized, lam)[cols]
        # the float64 factor's solve, refined three times
        A.set_diagonal(A.diagonal() + lam)
        cholesky_in_place(A)
        b = sk.normalized[cols]
        ref = cholesky_solve(A, b)
        for _ in range(3):
            ref += cholesky_solve(A, b - P.tmatmul(P @ ref) / feats.n
                                  - lam * ref)
        assert np.linalg.norm(x - ref) <= 1e-11 * np.linalg.norm(ref)

    def test_stops_at_the_rounding_level_of_the_residual(self):
        # HIST 1x10 with the data on one bin, at the noiseless floor: the
        # residual of the first iterate, a sum of about 1000 equal terms,
        # is 1.35 times the bound with ||G||_inf = 0.105, and every CG
        # step made it grow (2.5e-14, 3.8e-14, ... 2.5e-11): the solve
        # stops after one such step and returns the first iterate
        spec = HistMap(Domain.unit(1), 10)
        sk = privatize(sketch_exact(spec, np.zeros((50, 1))), spec, math.inf)
        feats = SyntheticFeatures(spec, TrainConfig(n_synth=10_000, seed=2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = feats.solve(sk.normalized, LAMBDA_FLOOR)
        assert feats.cg_iterations == 1
        G = spec.gram(spec.encode_batch(feats.points)).dense()
        ref = np.linalg.solve(G + LAMBDA_FLOOR * np.eye(spec.m),
                              sk.normalized)
        assert np.linalg.norm(x - ref) <= 1e-13 * np.linalg.norm(ref)


class TestOccupiedColumns:
    """RACE 40x40 at n_synth 4000 occupies 464 of its 1600 buckets."""

    spec = build_race(3, 40, 40, 0.2, seed=5)
    config = TrainConfig(n_synth=4000, seed=8)

    def _sketch(self):
        X = np.random.default_rng(6).uniform(size=(2000, 3))
        return privatize(sketch_exact(self.spec, X), self.spec, 1.0, seed=7)

    def _occupied(self, feats):
        G = self.spec.gram(self.spec.encode_batch(feats.points)).dense()
        return np.diagonal(G) > 0

    def test_weights_match_full_system(self, monkeypatch):
        feats = SyntheticFeatures(self.spec, self.config)
        sk = self._sketch()
        occupied = self._occupied(feats)
        assert occupied.sum() == 464
        assert np.all(sk.normalized[~occupied] != 0)
        orders = []
        factor = estimator.cholesky_in_place

        def recording_factor(a):
            orders.append(a.m)
            return factor(a)

        monkeypatch.setattr(estimator, "cholesky_in_place", recording_factor)
        lam = feats.penalty(sk)
        w = feats.weights(sk, lam)
        assert orders == [464]
        G = self.spec.gram(self.spec.encode_batch(feats.points)).dense()
        P = self.spec.encode_batch(feats.points).toarray()
        ref = P @ np.linalg.solve(G + lam * np.eye(self.spec.m),
                                  sk.normalized) / feats.n
        assert np.linalg.norm(w - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_refactoring_matches_fresh_instances(self):
        sk = self._sketch()
        feats = SyntheticFeatures(self.spec, self.config)
        for lam in (1e-3, 0.2, 1e-3):
            fresh = SyntheticFeatures(self.spec, self.config).weights(sk, lam)
            assert feats.weights(sk, lam).tobytes() == fresh.tobytes()

    def test_first_solve_holds_one_occupied_buffer(self):
        sk = self._sketch()
        feats = SyntheticFeatures(self.spec, self.config)
        m_occ = int(self._occupied(feats).sum())
        lam = feats.penalty(sk)
        tracemalloc.start()
        try:
            feats.weights(sk, lam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        buffer_bytes = 8 * m_occ * m_occ
        assert peak <= 1.5 * buffer_bytes, peak / buffer_bytes

    def test_setup_holds_the_points_and_two_narrow_encodings(self):
        # RACE 80x80 at n_synth 100 000: the encoding is filled a block of
        # rows at a time, so setup traces no n x B float64 or int64 array
        # (over 120 MiB of them at 8 bytes an entry), only the points, P
        # and P compacted, at one byte an entry
        spec = build_race(10, 80, 80, 0.1, seed=1)
        n = 100_000
        tracemalloc.start()
        try:
            feats = SyntheticFeatures(spec, TrainConfig(n_synth=n, seed=2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert feats._P.positions.dtype == np.uint8
        positions = n * spec.n_hashes
        assert peak <= feats.points.nbytes + 2 * positions + 2 ** 21, peak

    def test_fit_is_zero_on_empty_buckets(self):
        feats = SyntheticFeatures(self.spec, self.config)
        occupied = self._occupied(feats)
        lam = 0.01
        model = fit(feats, Moment(1, 2), lam)
        assert np.all(model.coef[~occupied] == 0)
        G = self.spec.gram(self.spec.encode_batch(feats.points)).dense()
        rhs = feats.dot_targets(Moment(1, 2)(feats.points))
        lhs = (G + lam * np.eye(self.spec.m)) @ model.coef
        assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) < 1e-10
