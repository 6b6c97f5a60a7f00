import math

import numpy as np
import pytest

from dpsketch import (
    BoxIndicator,
    CenteredProduct,
    Domain,
    DomainError,
    HistMap,
    Moment,
    Predicate,
    SyntheticFeatures,
    TargetError,
    TrainConfig,
    WeightedSamples,
    answer_queries,
    build_rff,
    estimate_cdf,
    estimate_covariance,
    privatize,
    sketch_exact,
)
from dpsketch.targets import (
    TargetParseError,
    default_thresholds,
    parse_predicates,
    parse_target,
)


def _weighted(spec, sk, n_synth, seed):
    """The sketch's weighted synthetic samples, as the CLI builds them."""
    feats = SyntheticFeatures(spec, TrainConfig(n_synth=n_synth, seed=seed))
    return feats.weighted(sk)


class TestTargetEvaluation:
    # targets take an (n, d) batch; each case evaluates a 1-row batch
    def test_moment(self):
        assert Moment(2, 3)([[0.5, 2.0, 7.0]])[0] == 8.0

    def test_zeroth_moment_is_one(self):
        assert Moment(1, 0)([[0.3, 0.4]])[0] == 1.0

    def test_box_indicator(self):
        box = BoxIndicator((Predicate(1, "<=", 0.5), Predicate(2, ">=", 0.2)))
        assert box([[0.4, 0.3]])[0] == 1.0
        assert box([[0.6, 0.3]])[0] == 0.0
        assert box([[0.4, 0.1]])[0] == 0.0

    def test_boundary_is_inclusive(self):
        box = BoxIndicator((Predicate(1, "<=", 0.5),))
        assert box([[0.5]])[0] == 1.0

    def test_cdf_threshold(self):
        t = BoxIndicator((Predicate(2, "<=", 0.7),))
        assert t([[0.0, 0.7]])[0] == 1.0
        assert t([[0.0, 0.71]])[0] == 0.0

    def test_centered_product(self):
        cp = CenteredProduct(1, 2, 0.5, 0.25)
        assert cp([[1.0, 1.0]])[0] == pytest.approx(0.375)

    def test_vectorized_batches(self):
        X = np.array([[0.1, 0.2], [0.9, 0.8]])
        np.testing.assert_allclose(Moment(1, 2)(X), [0.01, 0.81], rtol=1e-12)
        np.testing.assert_array_equal(
            BoxIndicator((Predicate(1, "<=", 0.5),))(X), [1.0, 0.0])

    def test_rejects_bad_construction(self):
        with pytest.raises(TargetError):
            Moment(0, 1)
        with pytest.raises(TargetError):
            Moment(1, -1)
        with pytest.raises(TargetError):
            Predicate(1, "<", 0.5)
        with pytest.raises(TargetError):
            BoxIndicator(())

    def test_rejects_duplicate_and_contradictory_bounds(self):
        with pytest.raises(TargetError):
            BoxIndicator((Predicate(1, "<=", 0.5), Predicate(1, "<=", 0.7)))
        with pytest.raises(TargetError):
            BoxIndicator((Predicate(1, ">=", 0.8), Predicate(1, "<=", 0.2)))


class TestGrammar:
    def test_moment(self):
        kind, payload = parse_target("moment 3 2")
        assert kind == "moment" and payload == Moment(3, 2)

    def test_count_with_quotes(self):
        kind, payload = parse_target('count "x1<=0.5 and x3>=0.2 and x7<=0.9"')
        assert kind == "count"
        assert payload == BoxIndicator((
            Predicate(1, "<=", 0.5), Predicate(3, ">=", 0.2),
            Predicate(7, "<=", 0.9)))

    def test_count_without_quotes(self):
        _, payload = parse_target("count x2>=0.1")
        assert payload == BoxIndicator((Predicate(2, ">=", 0.1),))

    def test_cdf_and_cov(self):
        assert parse_target("cdf 4") == ("cdf", 4)
        assert parse_target(" cov ") == ("cov", None)

    def test_scientific_notation_bounds(self):
        _, payload = parse_predicates("x1<=1.5e-2"), None
        box = parse_predicates("x1<=1.5e-2")
        assert box.predicates[0].bound == pytest.approx(0.015)

    def test_whitespace_tolerance(self):
        box = parse_predicates("  x1 <= 0.5  and  x2 >= 0.25 ")
        assert len(box.predicates) == 2

    @pytest.mark.parametrize("bad", [
        "", "momnt 1 2", "moment 1", "moment x 2", "cdf", "cdf one",
        "cov extra", "count", 'count ""',
    ])
    def test_malformed_targets(self, bad):
        with pytest.raises(TargetParseError):
            parse_target(bad)

    @pytest.mark.parametrize("bad", [
        "x1<0.5", "x0<=0.5", "y1<=0.5", "x1<=0.5 or x2>=0.1",
        "x1<=0.5 and", "x1<=", "and x1<=0.5",
    ])
    def test_malformed_predicates(self, bad):
        # x0 parses as a predicate but fails 1-based validation, so
        # accept any TargetError subtype here
        with pytest.raises(TargetError):
            parse_predicates(bad)

    @pytest.mark.parametrize("text", ["moment 4 1", 'count "x1<=0.5 and x4>=0.1"',
                                      "cdf 4"])
    def test_attribute_beyond_d_rejected(self, text):
        parse_target(text)  # no d given: only the 1-based check applies
        parse_target(text, 4)
        with pytest.raises(TargetError, match="attribute 4 out of range for d=3"):
            parse_target(text, 3)

    def test_parse_error_reports_position(self):
        with pytest.raises(TargetParseError) as err:
            parse_predicates("x1<=0.5 and x2<0.3")
        assert err.value.pos == 11


class TestCdfPipeline:
    def test_default_thresholds(self):
        spec = HistMap(Domain.unit(2), 4)
        np.testing.assert_allclose(default_thresholds(spec.domain, 1),
                                   np.arange(1, 11) / 10)

    def test_noiseless_cdf_on_bin_boundaries(self):
        spec = HistMap(Domain.unit(2), 10)
        X = np.random.default_rng(0).uniform(size=(500, 2))
        sk = privatize(sketch_exact(spec, X), spec, math.inf)
        res = estimate_cdf(_weighted(spec, sk, 20_000, 1), 1)
        truth = [(X[:, 0] <= s).mean() for s in res.thresholds]
        np.testing.assert_allclose(res.values, truth, atol=1e-6)
        assert res.values[-1] == pytest.approx(1.0, abs=1e-6)

    def test_point_mass_at_zero(self):
        # 10 bins so the default thresholds land on bin boundaries
        spec = HistMap(Domain.unit(1), 10)
        X = np.zeros((50, 1))
        sk = privatize(sketch_exact(spec, X), spec, math.inf)
        res = estimate_cdf(_weighted(spec, sk, 10_000, 2), 1)
        np.testing.assert_allclose(res.values, 1.0, atol=1e-6)

    def test_values_clamped_raw_kept(self):
        spec = HistMap(Domain.unit(1), 5)
        X = np.random.default_rng(1).uniform(size=(20, 1))
        sk = privatize(sketch_exact(spec, X), spec, 0.1, seed=5)
        res = estimate_cdf(_weighted(spec, sk, 5000, 0), 1)
        assert np.all(res.values >= 0) and np.all(res.values <= 1)
        assert res.raw.shape == res.values.shape

    def test_rejects_attribute_out_of_range(self):
        spec = HistMap(Domain.unit(2), 5)
        sk = privatize(sketch_exact(spec, [[0.5, 0.5]]), spec, math.inf)
        with pytest.raises(TargetError, match="out of range"):
            estimate_cdf(_weighted(spec, sk, 500, 0), 3)

    def test_noise_monotonically_worsens_emd(self):
        from dpsketch import emd_1d

        spec = build_rff(2, 40, 1.0, seed=0)
        X = np.random.default_rng(3).uniform(size=(2000, 2))
        exact = sketch_exact(spec, X)
        feats = SyntheticFeatures(spec, TrainConfig(n_synth=10_000, seed=0))
        truth = np.array([(X[:, 0] <= s).mean()
                          for s in default_thresholds(spec.domain, 1)])

        def mean_emd(eps, reps=10):
            vals = []
            for r in range(reps):
                sk = privatize(exact, spec, eps, seed=(int(eps * 10), r))
                res = estimate_cdf(feats.weighted(sk), 1)
                vals.append(emd_1d(res.values, truth))
            return np.mean(vals)

        assert mean_emd(0.1) > mean_emd(10.0)


class TestCovariancePipeline:
    def test_two_point_dataset(self):
        # data {(0,0), (1,1)}: covariance is 0.25 everywhere
        spec = build_rff(2, 400, 1.0, seed=4)
        X = np.array([[0.0, 0.0], [1.0, 1.0]])
        sk = privatize(sketch_exact(spec, X), spec, math.inf)
        cov = estimate_covariance(_weighted(spec, sk, 40_000, 0))
        np.testing.assert_allclose(cov, 0.25, atol=5e-3)

    def test_symmetry(self):
        spec = build_rff(3, 60, 1.0, seed=5)
        X = np.random.default_rng(5).uniform(size=(100, 3))
        sk = privatize(sketch_exact(spec, X), spec, 1.0, seed=1)
        cov = estimate_covariance(_weighted(spec, sk, 5000, 0))
        np.testing.assert_array_equal(cov, cov.T)

    def test_constant_dataset_near_zero(self):
        spec = build_rff(2, 100, 1.0, seed=6)
        X = np.full((100, 2), 0.5)
        sk = privatize(sketch_exact(spec, X), spec, math.inf)
        cov = estimate_covariance(_weighted(spec, sk, 20_000, 0))
        np.testing.assert_allclose(cov, 0.0, atol=5e-3)


class TestCountingQueries:
    def _queries(self):
        return [
            BoxIndicator((Predicate(1, "<=", 0.5), Predicate(2, ">=", 0.2),
                          Predicate(3, "<=", 0.9))),
            BoxIndicator((Predicate(1, ">=", 0.1), Predicate(2, "<=", 0.8),
                          Predicate(3, ">=", 0.3))),
        ]

    def test_noiseless_fractions_match_data(self):
        spec = HistMap(Domain.unit(3), 10)
        X = np.random.default_rng(7).uniform(size=(1000, 3))
        sk = privatize(sketch_exact(spec, X), spec, math.inf)
        queries = self._queries()
        res = answer_queries(_weighted(spec, sk, 30_000, 0),
                             queries)
        truth = np.array([q(X).mean() for q in queries])
        # 3-way conjunctions are not additive over marginals, so the HIST
        # fit carries a small model error even without noise
        np.testing.assert_allclose(res.fractions, truth, atol=0.02)

    def test_whole_domain_box_counts_everything(self):
        spec = HistMap(Domain.unit(3), 8)
        X = np.random.default_rng(8).uniform(size=(200, 3))
        sk = privatize(sketch_exact(spec, X), spec, math.inf)
        box = BoxIndicator((Predicate(1, "<=", 1.0), Predicate(2, "<=", 1.0),
                            Predicate(3, "<=", 1.0)))
        res = answer_queries(_weighted(spec, sk, 20_000, 0), [box])
        assert res.fractions[0] == pytest.approx(1.0, abs=1e-3)

    def test_rejects_wrong_predicate_count(self):
        spec = HistMap(Domain.unit(3), 4)
        sk = privatize(sketch_exact(spec, [[0.5, 0.5, 0.5]]), spec, math.inf)
        box = BoxIndicator((Predicate(1, "<=", 0.5),))
        with pytest.raises(TargetError):
            answer_queries(_weighted(spec, sk, 500, 0), [box])

    def test_rejects_repeated_attribute(self):
        spec = HistMap(Domain.unit(3), 4)
        sk = privatize(sketch_exact(spec, [[0.5, 0.5, 0.5]]), spec, math.inf)
        box = BoxIndicator((Predicate(1, "<=", 0.5), Predicate(1, ">=", 0.1),
                            Predicate(2, "<=", 0.9)))
        with pytest.raises(TargetError):
            answer_queries(_weighted(spec, sk, 500, 0), [box])

    def test_rejects_attribute_out_of_range(self):
        spec = HistMap(Domain.unit(3), 4)
        sk = privatize(sketch_exact(spec, [[0.5, 0.5, 0.5]]), spec, math.inf)
        box = BoxIndicator((Predicate(1, "<=", 0.5), Predicate(2, ">=", 0.1),
                            Predicate(9, "<=", 0.9)))
        with pytest.raises(TargetError):
            answer_queries(_weighted(spec, sk, 500, 0), [box])


class TestUniformWeights:
    """Truths: the pipelines over records weighted 1/n are the empirical
    statistics of the records."""

    domain = Domain((-1.0, 0.0, 2.0, 0.0), (1.0, 3.0, 5.0, 1.0))
    X = domain.sample(997, np.random.default_rng(12))
    samples = WeightedSamples.uniform(X, domain)

    def test_means(self):
        means = self.samples.sums([Moment(j, 1) for j in range(1, 5)])
        np.testing.assert_allclose(means, self.X.mean(0), rtol=0, atol=1e-12)

    def test_covariance(self):
        np.testing.assert_allclose(estimate_covariance(self.samples),
                                   np.cov(self.X.T, bias=True),
                                   rtol=0, atol=1e-12)

    def test_cdf(self):
        for j in range(1, 5):
            res = estimate_cdf(self.samples, j)
            truth = [(self.X[:, j - 1] <= t).mean()
                     for t in default_thresholds(self.domain, j)]
            np.testing.assert_allclose(res.values, truth, rtol=0, atol=1e-12)

    def test_queries(self):
        queries = [parse_predicates("x1<=0.2 and x2>=1.5 and x4<=0.7"),
                   parse_predicates("x2<=2.5 and x3>=2.5 and x4>=0.1")]
        res = answer_queries(self.samples, queries)
        truth = [q(self.X).mean() for q in queries]
        np.testing.assert_allclose(res.fractions, truth, rtol=0, atol=1e-12)

    def test_rejects_records_of_another_width(self):
        with pytest.raises(DomainError, match="expected 4 attributes, got 3"):
            WeightedSamples.uniform(self.X[:, :3], self.domain)
