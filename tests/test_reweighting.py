import math
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from dpsketch import (
    Domain,
    HistMap,
    PrivateSketch,
    SyntheticFeatures,
    TrainConfig,
    WeightedSamples,
    build_race,
    build_rff,
    fit_logistic_from_sketch,
    fit_weighted,
    logistic_objective,
    privatize,
    sketch_exact,
)
from dpsketch.reweighting import (
    GRAD_TOLERANCE,
    NEWTON_ITERS,
    RIDGE,
    evaluate_auc,
)
from reference import fit, gen_separable_classification


def _label_domain(d):
    kinds = ("continuous",) * (d - 1) + ("binary",)
    return Domain((0.0,) * d, (1.0,) * d, kinds=kinds)


class TestComputeWeights:
    def test_constant_feature_hand_example(self):
        # HIST with one bin is the constant map Phi(x) = [1]: the Gram is
        # 1, so with sketch value s and N points each weight is
        # s / (N * (1 + lambda))
        spec = HistMap(Domain.unit(1), 1)
        sk = PrivateSketch(np.array([3.0]), 2.0, math.inf, math.inf,
                           spec.spec_id)
        lam = 0.5
        w = SyntheticFeatures.from_points(
            spec, np.array([[0.2], [0.8]])).weights(sk, lam)
        s = 1.5  # normalized sketch 3.0 / 2
        np.testing.assert_allclose(w,
                                   s / (2 * (1 + lam)), rtol=1e-12)

    def test_duality_identity(self):
        # sum_i w_i L(x_i) must equal <ridge_fit(L), normalized sketch>
        rng = np.random.default_rng(0)
        X = rng.uniform(size=(300, 3))
        for spec in (HistMap(Domain.unit(3), 5),
                     build_rff(3, 30, 1.0, seed=1),
                     build_race(3, 6, 4, 0.25, seed=2)):
            sk = privatize(sketch_exact(spec, X), spec, 1.0, seed=3)
            feats = SyntheticFeatures(spec, TrainConfig(n_synth=2000, seed=4))
            lam = 0.2
            w = feats.weights(sk, lam)
            for t in range(5):
                L = np.random.default_rng(t).uniform(-1, 1, size=feats.n)
                model = fit(feats, lambda _, L=L: L, lam)
                lhs = float(w @ L)
                rhs = float(model.coef @ sk.normalized)
                assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_huge_lambda_kills_weights(self):
        spec = HistMap(Domain.unit(2), 4)
        X = np.random.default_rng(1).uniform(size=(50, 2))
        sk = privatize(sketch_exact(spec, X), spec, math.inf)
        feats = SyntheticFeatures(spec, TrainConfig(n_synth=500, seed=0))
        w = feats.weights(sk, 1e12)
        assert np.abs(w).max() < 1e-9

    def test_rejects_nonpositive_lambda(self):
        spec = HistMap(Domain.unit(2), 4)
        sk = privatize(sketch_exact(spec, [[0.5, 0.5]]), spec, math.inf)
        with pytest.warns(UserWarning, match="below the sketch size"):
            feats = SyntheticFeatures.from_points(spec, np.array([[0.5, 0.5]]))
        with pytest.raises(ValueError):
            feats.weights(sk, 0.0)

    def test_rejects_mismatched_sketch(self):
        spec = HistMap(Domain.unit(2), 4)
        other = HistMap(Domain.unit(2), 5)
        sk = privatize(sketch_exact(other, [[0.5, 0.5]]), other, math.inf)
        with pytest.warns(UserWarning, match="below the sketch size"):
            feats = SyntheticFeatures.from_points(spec, np.array([[0.5, 0.5]]))
        with pytest.raises(Exception):
            feats.weights(sk, 0.1)

    def test_weights_loss_independent(self):
        spec = build_rff(2, 20, 1.0, seed=5)
        X = np.random.default_rng(2).uniform(size=(100, 2))
        sk = privatize(sketch_exact(spec, X), spec, 1.0, seed=6)
        feats = SyntheticFeatures(spec, TrainConfig(n_synth=1000, seed=7))
        a = feats.weights(sk, 0.3)
        b = feats.weights(sk, 0.3)
        np.testing.assert_array_equal(a, b)


class TestWeightedSamples:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            WeightedSamples(np.zeros((3, 2)), np.zeros(2))

    def test_nonfinite_weights_rejected(self):
        with pytest.raises(ValueError):
            WeightedSamples(np.zeros((2, 2)), np.array([1.0, np.nan]))


def _quadratic(weighted):
    # sum_i w_i (theta - x_i1)^2 with gradient sum_i w_i 2(theta - x_i1)
    # and Hessian 2 sum_i w_i
    x, w = weighted.points[:, 0], weighted.weights

    def objective(theta, curvature=False):
        diffs = theta[0] - x
        value, grad = float(w @ diffs ** 2), np.array([2 * (w @ diffs)])
        return (value, grad, np.array([[2 * w.sum()]])) if curvature \
            else (value, grad)

    return objective


class TestFitWeighted:
    def test_uniform_weights_find_the_mean(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(size=(200, 2))
        weighted = WeightedSamples(pts, np.full(200, 1 / 200))
        theta, obj, info = fit_weighted(
            weighted, _quadratic(weighted), np.array([0.0]),
            iters=2000, tolerance=1e-10)
        assert theta[0] == pytest.approx(pts[:, 0].mean(), abs=1e-6)
        assert info["converged"]
        assert obj == pytest.approx(pts[:, 0].var(), abs=1e-6)

    def test_one_newton_step_minimizes_a_quadratic(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(size=(200, 2))
        w = rng.uniform(0.5, 1.5, size=200)
        weighted = WeightedSamples(pts, w)
        objective = _quadratic(weighted)
        theta, _, _ = fit_weighted(weighted, objective, np.array([5.0]),
                                   iters=1)
        assert theta[0] == pytest.approx(w @ pts[:, 0] / w.sum(), rel=1e-12)
        assert abs(objective(theta)[1][0]) <= GRAD_TOLERANCE * w.sum()

    def test_zero_gradient_stops_immediately(self):
        pts = np.full((10, 1), 0.3)
        weighted = WeightedSamples(pts, np.full(10, 0.1))
        theta, _, info = fit_weighted(weighted, _quadratic(weighted),
                                      np.array([0.3]))
        assert theta[0] == 0.3
        assert info["iterations"] == 0 and info["converged"]

    def test_negative_weights_supported(self):
        # a negative-weight copy of a sample cancels a positive one
        pts = np.array([[0.2], [0.2], [0.9]])
        weighted = WeightedSamples(pts, np.array([1.0, -1.0, 0.5]))
        theta, _, _ = fit_weighted(weighted, _quadratic(weighted),
                                   np.array([0.0]), iters=2000,
                                   tolerance=1e-12)
        assert theta[0] == pytest.approx(0.9, abs=1e-6)

    def test_penalty_bounds_the_log_loss_under_negative_weights(self):
        # 35% of the samples carry negative weight and the opposite label
        # of the rest, so the unpenalized weighted log-loss decreases
        # without bound along x_1; rho/2 ||theta||^2 gives it a minimum
        rng = np.random.default_rng(0)
        n = 20_000
        x = rng.uniform(size=(n, 5))
        negative = rng.uniform(size=n) < 0.35
        pts = np.column_stack([x, (x[:, 0] > 0.5) ^ negative])
        w = rng.uniform(0.5, 1.5, size=n) / n * np.where(negative, -1, 1)
        weighted = WeightedSamples(pts, w)
        goal = GRAD_TOLERANCE * np.abs(w).sum()

        _, _, info = fit_weighted(weighted, logistic_objective(weighted),
                                  np.zeros(6))
        assert not info["converged"]

        objective = logistic_objective(weighted, RIDGE * np.abs(w).sum())
        theta, value, info = fit_weighted(weighted, objective, np.zeros(6))
        assert info["converged"] and info["iterations"] <= NEWTON_ITERS
        assert np.linalg.norm(objective(theta)[1]) <= goal
        assert np.all(np.isfinite(theta)) and math.isfinite(value)

    def test_rejects_a_cap_below_one(self):
        weighted = WeightedSamples(np.array([[0.5]]), np.array([1.0]))
        with pytest.raises(ValueError, match="iters"):
            fit_weighted(weighted, _quadratic(weighted), np.array([0.0]),
                         iters=0)

    def test_independent_of_blas_thread_count(self, child_env):
        # BLAS dot/gemv split reductions over many samples by thread, so
        # the weighted sums must not go through them.
        code = textwrap.dedent("""
            import numpy as np
            from dpsketch.reweighting import (
                RIDGE, WeightedSamples, fit_weighted, logistic_objective)
            rng = np.random.default_rng(0)
            n = 20_000
            pts = np.column_stack([rng.uniform(size=(n, 5)),
                                   rng.integers(0, 2, size=n)])
            weighted = WeightedSamples(pts, rng.normal(size=n) / n)
            rho = RIDGE * np.abs(weighted.weights).sum()
            theta, obj, _ = fit_weighted(
                weighted, logistic_objective(weighted, rho), np.zeros(6),
                iters=50)
            print(obj.hex(), *(t.hex() for t in theta))
        """)
        outputs = []
        for threads in (1, 2):
            res = subprocess.run([sys.executable, "-c", code],
                                 env=child_env(threads),
                                 capture_output=True, text=True)
            assert res.returncode == 0, res.stderr
            outputs.append(res.stdout)
        assert outputs[0] == outputs[1]

    def test_fit_logreg_model_independent_of_blas_thread_count(
            self, tmp_path, child_env):
        # the same check end to end: fit-logreg on an RFF m=60 sketch
        data = gen_separable_classification(2000, 4, seed=1)
        csv_path = tmp_path / "data.csv"
        np.savetxt(csv_path, data, delimiter=",", header="a,b,c,y",
                   comments="", fmt="%.17g")
        sketch = tmp_path / "sketch.json"
        cli = [sys.executable, "-m", "dpsketch.cli"]
        res = subprocess.run(
            cli + ["sketch", str(csv_path), "--out", str(sketch), "--map",
                   "rff", "--m", "60", "--epsilon", "10", "--map-seed", "2",
                   "--noise-seed", "3"],
            env=child_env(1), capture_output=True, text=True, cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        models = []
        for threads in (1, 2):
            model = tmp_path / f"model{threads}.json"
            res = subprocess.run(
                cli + ["fit-logreg", str(sketch), str(csv_path),
                       "--model-out", str(model), "--n-synth", "5000",
                       "--synth-seed", "4"],
                env=child_env(threads), capture_output=True, text=True,
                cwd=tmp_path)
            assert res.returncode == 0, res.stderr
            models.append(model.read_bytes())
        assert models[0] == models[1]


def _log_loss(pts, weights, rho=0.0):
    return logistic_objective(WeightedSamples(pts, np.asarray(weights, float)),
                              rho)


class TestLogisticLoss:
    def test_zero_parameters_give_log2(self):
        pts = np.array([[0.5, 1.0], [0.2, 0.0]])
        value, _ = _log_loss(pts, [0.25, 0.75])(np.zeros(2))
        assert value == pytest.approx(math.log(2.0), rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        pts = np.column_stack([rng.uniform(size=(20, 3)),
                               rng.integers(0, 2, size=20)])
        theta = rng.normal(size=4)
        objective = _log_loss(pts, rng.normal(size=20))
        _, grad = objective(theta)
        h = 1e-6
        for k in range(4):
            up, down = theta.copy(), theta.copy()
            up[k] += h
            down[k] -= h
            num = (objective(up)[0] - objective(down)[0]) / (2 * h)
            np.testing.assert_allclose(grad[k], num, atol=1e-5)

    def test_hessian_matches_finite_differences(self):
        # criterion 8's data, with the penalty of fit_logistic_from_sketch
        rng = np.random.default_rng(8)
        pts = np.column_stack([rng.uniform(size=(50, 5)),
                               rng.integers(0, 2, size=50)])
        worst = 0.0
        for trial in range(5):
            theta = rng.normal(0.0, 1.0, size=6)
            w = rng.normal(0.0, 1.0, size=50)
            objective = _log_loss(pts, w, RIDGE * np.abs(w).sum())
            _, _, analytic = objective(theta, True)
            h = 1e-6
            numeric = np.empty_like(analytic)
            for k in range(6):
                up, dn = theta.copy(), theta.copy()
                up[k] += h
                dn[k] -= h
                numeric[:, k] = (objective(up)[1] - objective(dn)[1]) / (2 * h)
            worst = max(worst, float(np.linalg.norm(analytic - numeric)
                                     / np.linalg.norm(numeric)))
        assert worst < 1e-5

    def test_penalty_adds_to_value_gradient_and_hessian(self):
        rng = np.random.default_rng(4)
        pts = np.column_stack([rng.uniform(size=(30, 2)),
                               rng.integers(0, 2, size=30)])
        w = rng.normal(size=30)
        theta = rng.normal(size=3)
        plain = _log_loss(pts, w)(theta, True)
        penalized = _log_loss(pts, w, 0.5)(theta, True)
        assert penalized[0] == pytest.approx(plain[0] + 0.25 * theta @ theta,
                                             rel=1e-12)
        np.testing.assert_allclose(penalized[1], plain[1] + 0.5 * theta,
                                   rtol=1e-12)
        np.testing.assert_allclose(penalized[2], plain[2] + 0.5 * np.eye(3),
                                   rtol=1e-12)

    def test_extreme_margins_are_stable(self):
        pts = np.array([[1.0, 1.0], [1.0, 0.0]])
        theta = np.array([1000.0, 0.0])
        right, right_grad = _log_loss(pts, [1.0, 0.0])(theta)
        wrong, wrong_grad = _log_loss(pts, [0.0, 1.0])(theta)
        assert np.all(np.isfinite(right_grad)) and np.all(np.isfinite(wrong_grad))
        assert right == pytest.approx(0.0, abs=1e-12)
        assert wrong == pytest.approx(1000.0, rel=1e-9)

    def test_matches_naive_per_sample_sum(self):
        # the fused step against sum_i w_i log(1 + e^{-m_i}) and
        # sum_i w_i (-sigmoid(-m_i)) (2y_i - 1) [x_i, 1], sample by sample,
        # with margins up to +-1000
        from scipy.special import expit

        rng = np.random.default_rng(11)
        n = 200
        pts = np.column_stack([rng.uniform(-1, 1, size=(n, 3)),
                               rng.integers(0, 2, size=n)])
        weights = rng.uniform(0.1, 1.0, size=n)
        objective = _log_loss(pts, weights)
        rows = np.column_stack([pts[:, :-1], np.ones(n)])
        signs = 2.0 * pts[:, -1] - 1.0
        for largest in (0.1, 1.0, 30.0, 1000.0):
            theta = rng.normal(size=4)
            theta *= largest / np.abs(rows @ theta).max()
            margins = [s * float(r @ theta) for s, r in zip(signs, rows)]
            value = math.fsum(w * np.logaddexp(0.0, -m)
                              for w, m in zip(weights, margins))
            grad = [math.fsum(-w * expit(-m) * s * r[j]
                              for w, m, s, r in zip(weights, margins, signs,
                                                    rows))
                    for j in range(4)]
            fused_value, fused_grad = objective(theta)
            assert fused_value == pytest.approx(value, rel=1e-12)
            np.testing.assert_allclose(fused_grad, grad, rtol=1e-12)


class TestLogisticFromSketch:
    def test_noiseless_separable_recovery(self):
        d = 4
        X, direction = gen_separable_classification(4000, d, seed=0, return_direction=True)
        dom = _label_domain(d)
        spec = build_rff(d, 100, 1.0, seed=1, domain=dom)
        sk = privatize(sketch_exact(spec, X), spec, math.inf)
        model = fit_logistic_from_sketch(
            SyntheticFeatures(spec, TrainConfig(n_synth=20_000, seed=2))
            .weighted(sk), iters=400)
        train_auc = evaluate_auc(model, X)
        assert train_auc > 0.95
        # decision direction should agree in sign with the generator
        cos = model.theta @ direction / (
            np.linalg.norm(model.theta) * np.linalg.norm(direction))
        assert cos > 0.8

    def test_reports_the_penalized_fit(self):
        d = 3
        X = gen_separable_classification(500, d, seed=5)
        spec = build_rff(d, 40, 1.0, seed=6, domain=_label_domain(d))
        sk = privatize(sketch_exact(spec, X), spec, 1.0, seed=7)
        features = SyntheticFeatures(spec, TrainConfig(n_synth=4000, seed=8))
        model = fit_logistic_from_sketch(features.weighted(sk))
        fit = model.diagnostics
        w = features.weights(sk, features.penalty(sk))
        assert fit["rho"] == RIDGE * np.abs(w).sum()
        assert fit["converged"] and 1 <= fit["iterations"] <= NEWTON_ITERS
        theta = np.append(model.theta, model.intercept)
        assert fit["penalized_objective"] == pytest.approx(
            model.objective + fit["rho"] / 2 * theta @ theta, rel=1e-12)

    def test_minimizer_invariant_to_weight_scale(self):
        rng = np.random.default_rng(6)
        pts = np.column_stack([rng.uniform(size=(500, 3)),
                               rng.integers(0, 2, size=500)])
        w = rng.normal(0.3, 1.0, size=500) / 500
        thetas = []
        for scale in (1.0, 1000.0):
            weighted = WeightedSamples(pts, scale * w)
            objective = logistic_objective(
                weighted, RIDGE * np.abs(weighted.weights).sum())
            thetas.append(fit_weighted(weighted, objective, np.zeros(4))[0])
        np.testing.assert_allclose(thetas[0], thetas[1], rtol=1e-7)

    def test_requires_binary_last_attribute(self):
        spec = build_rff(3, 20, 1.0, seed=0)
        sk = privatize(sketch_exact(spec, [[0.1, 0.2, 0.3]]), spec, math.inf)
        weighted = SyntheticFeatures(
            spec, TrainConfig(n_synth=100, seed=0)).weighted(sk)
        with pytest.raises(ValueError):
            fit_logistic_from_sketch(weighted)

    def test_reproducible(self):
        d = 3
        X = gen_separable_classification(500, d, seed=5)
        dom = _label_domain(d)
        spec = build_rff(d, 40, 1.0, seed=6, domain=dom)
        sk = privatize(sketch_exact(spec, X), spec, 1.0, seed=7)
        cfg = TrainConfig(n_synth=4000, seed=8)
        a = fit_logistic_from_sketch(
            SyntheticFeatures(spec, cfg).weighted(sk), 100)
        b = fit_logistic_from_sketch(
            SyntheticFeatures(spec, cfg).weighted(sk), 100)
        np.testing.assert_array_equal(a.theta, b.theta)
        assert a.intercept == b.intercept
