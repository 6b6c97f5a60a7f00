import csv
import math

import numpy as np
import pytest

from dpsketch import Domain, SyntheticFeatures, build_map, read_csv
from dpsketch.feature_maps import FeatureMapError
from dpsketch.harness import ExperimentPlan, gen_random10, run_plan
from reference import gen_separable_classification, write_csv


class TestGenerators:
    def test_random10_shape_and_range(self):
        X = gen_random10(1000, 10, seed=0)
        assert X.shape == (1000, 10)
        assert X.min() >= 0.0 and X.max() <= 1.0
        np.testing.assert_allclose(X.mean(axis=0), 0.5, atol=0.05)

    def test_random10_deterministic(self):
        np.testing.assert_array_equal(gen_random10(50, 3, seed=7),
                                      gen_random10(50, 3, seed=7))

    def test_random10_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            gen_random10(0, 3, seed=0)

    def test_separable_labels_binary(self):
        data = gen_separable_classification(500, 4, seed=0)
        assert data.shape == (500, 4)
        assert set(np.unique(data[:, -1])) <= {0.0, 1.0}

    def test_infinite_margin_is_deterministic_in_features(self):
        data, w = gen_separable_classification(2000, 3, margin=math.inf,
                                               seed=1, return_direction=True)
        u = data[:, :-1] @ w
        t = w.sum() / 2
        np.testing.assert_array_equal(data[:, -1], (u > t).astype(float))

    def test_zero_margin_is_a_coin_flip(self):
        data, w = gen_separable_classification(20_000, 3, margin=0.0, seed=2,
                                               return_direction=True)
        u = data[:, :-1] @ w
        # labels should not correlate with the direction at margin 0
        corr = np.corrcoef(u, data[:, -1])[0, 1]
        assert abs(corr) < 0.02

    def test_default_margin_is_nearly_separable(self):
        data, w = gen_separable_classification(20_000, 6, seed=3,
                                               return_direction=True)
        from dpsketch import auc

        scores = data[:, :-1] @ w
        assert auc(scores, data[:, -1].astype(int)) > 0.99

    def test_rejects_single_attribute(self):
        with pytest.raises(ValueError):
            gen_separable_classification(10, 1)


class TestDatasetCsv:
    def test_round_trip_exact(self, tmp_path):
        data = np.random.default_rng(0).uniform(size=(20, 3))
        path = tmp_path / "d.csv"
        write_csv(path, data)
        loaded, header = read_csv(path)
        np.testing.assert_array_equal(loaded, data)
        assert header == ["x1", "x2", "x3"]


class TestBuildSketchSpec:
    """build_map, which builds every grid sketch's spec."""

    def test_grid_defaults(self):
        dom = Domain.unit(10)
        rff = build_map("rff", dom, 0)
        assert rff.variant == "RFF" and rff.m == 200 and rff.sigma == 1.0
        race = build_map("RACE", dom, 0)
        assert race.variant == "RACE" and race.m == 80 * 80
        assert race.r_width == 0.1
        hist = build_map("hist", dom, 0)
        assert hist.variant == "HIST" and hist.m == 1000

    def test_param_overrides(self):
        dom = Domain.unit(3)
        # keys of other kinds are ignored, and None takes the default
        params = {"m": 40, "sigma": 2.0, "n_bins": 0, "r_width": None}
        rff = build_map("rff", dom, 0, params)
        assert rff.m == 40 and rff.sigma == 2.0
        assert build_map("race", dom, 0, params).r_width == 0.1

    def test_unknown_kind(self):
        with pytest.raises(FeatureMapError, match="wavelet"):
            build_map("wavelet", Domain.unit(3), 0)
        with pytest.raises(FeatureMapError, match="wavelet"):
            ExperimentPlan(sketches=("hist", "wavelet"))


class TestPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentPlan(repetitions=0)
        with pytest.raises(ValueError):
            ExperimentPlan(sketches=())

    def test_quick_caps_sizes(self):
        plan = ExperimentPlan(repetitions=50, n_synth=100_000)
        q = plan.quick()
        assert q.repetitions == 10 and q.n_synth == 20_000

    def test_small_run_writes_consistent_csvs(self, tmp_path):
        plan = ExperimentPlan(
            dataset="random10", n=400, d=3, sketches=("hist", "rff"),
            epsilons=(math.inf, 1.0), repetitions=2, tasks=("mean", "queries"),
            n_synth=3000, n_queries=4, seed=1,
            sketch_params={"hist": {"n_bins": 10}, "rff": {"m": 40}},
        )
        results = run_plan(plan, tmp_path / "out")
        with open(results) as fh:
            rows = list(csv.DictReader(fh))
        # 2 sketches x 2 epsilons x 2 reps x 2 tasks
        assert len(rows) == 16
        assert {r["task"] for r in rows} == {"mean", "queries"}
        assert {r["epsilon"] for r in rows} == {"inf", "1.0"}

        with open(tmp_path / "out" / "aggregate.csv") as fh:
            agg = list(csv.DictReader(fh))
        assert len(agg) == 8
        for cell in agg:
            members = [float(r["value"]) for r in rows
                       if (r["sketch"], r["epsilon"], r["task"]) ==
                       (cell["sketch"], cell["epsilon"], cell["task"])]
            assert float(cell["mean"]) == pytest.approx(np.mean(members))
            assert int(cell["repetitions"]) == 2

    def test_rerun_is_byte_identical(self, tmp_path):
        plan = ExperimentPlan(
            dataset="random10", n=200, d=2, sketches=("hist",),
            epsilons=(1.0,), repetitions=2, tasks=("mean",),
            n_synth=1000, seed=3, sketch_params={"hist": {"n_bins": 5}},
        )
        a = run_plan(plan, tmp_path / "a")
        b = run_plan(plan, tmp_path / "b")
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_noiseless_errors_are_small(self, tmp_path):
        plan = ExperimentPlan(
            dataset="random10", n=500, d=2, sketches=("hist",),
            epsilons=(math.inf,), repetitions=1, tasks=("mean",),
            n_synth=5000, seed=4, sketch_params={"hist": {"n_bins": 50}},
        )
        results = run_plan(plan, tmp_path / "out")
        with open(results) as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[0]["value"]) < 0.02

    def test_csv_dataset_plan(self, tmp_path):
        data = np.random.default_rng(5).uniform(size=(200, 3))
        path = tmp_path / "ext.csv"
        write_csv(path, data)
        plan = ExperimentPlan(
            dataset=str(path), sketches=("hist",), epsilons=(math.inf,),
            repetitions=1, tasks=("mean",), n_synth=2000, seed=0,
            sketch_params={"hist": {"n_bins": 10}},
        )
        results = run_plan(plan, tmp_path / "out")
        with open(results) as fh:
            rows = list(csv.DictReader(fh))
        assert rows and rows[0]["dataset"] == "ext.csv"

    def test_zero_truth_scores_by_absolute_error(self, tmp_path):
        # an all-zero column has zero mean and second moment, on which
        # the relative error is undefined
        data = np.random.default_rng(7).uniform(size=(200, 3))
        data[:, 1] = 0.0
        path = tmp_path / "zero.csv"
        write_csv(path, data)
        plan = ExperimentPlan(
            dataset=str(path), sketches=("hist", "rff"),
            epsilons=(1.0, math.inf), repetitions=2,
            tasks=("mean", "moment2", "cdf"), n_synth=2000, seed=1,
            sketch_params={"hist": {"n_bins": 10}, "rff": {"m": 40}},
        )
        results = run_plan(plan, tmp_path / "out")
        with open(results) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 2 * 2 * 3
        assert {r["metric"] for r in rows} == {"mre_abs", "emd"}
        assert all(math.isfinite(float(r["value"])) for r in rows)

    def test_one_weight_solve_per_cell(self, tmp_path, monkeypatch):
        # every task of a cell reads the cell's one weight vector
        calls = []
        solve = SyntheticFeatures.solve

        def counted(self, rhs, lam):
            calls.append(lam)
            return solve(self, rhs, lam)

        monkeypatch.setattr(SyntheticFeatures, "solve", counted)
        plan = ExperimentPlan(
            dataset="random10", n=300, d=4, sketches=("hist",),
            epsilons=(1.0,), repetitions=2, n_synth=2000, n_queries=3,
            seed=6, sketch_params={"hist": {"n_bins": 5}},
        )
        results = run_plan(plan, tmp_path / "out")
        with open(results) as fh:
            tasks = {row["task"] for row in csv.DictReader(fh)}
        assert tasks == {"mean", "moment2", "cdf", "cov", "queries"}
        assert len(calls) == plan.repetitions
