import json

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from dpsketch import (
    Domain,
    HistMap,
    SyntheticFeatures,
    build_race,
    build_rff,
    feature_map_from_dict,
    sketch_exact,
)
from dpsketch.feature_maps import FeatureMapError, OneHotMatrix, RaceMap


class TestHist:
    def test_basic_one_hot(self):
        h = HistMap(Domain.unit(1), 4)
        assert h.embed([0.3]).tolist() == [0, 1, 0, 0]

    def test_upper_edge_clamps_into_last_bin(self):
        h = HistMap(Domain.unit(1), 4)
        assert h.embed([1.0]).tolist() == [0, 0, 0, 1]

    def test_concatenated_per_attribute_one_hots(self):
        h = HistMap(Domain.unit(2), 2)
        assert h.embed([0.1, 0.9]).tolist() == [1, 0, 0, 1]

    def test_rejects_zero_bins(self):
        with pytest.raises(FeatureMapError):
            HistMap(Domain.unit(2), 0)

    def test_rejects_out_of_domain(self):
        h = HistMap(Domain.unit(2), 4)
        with pytest.raises(Exception):
            h.embed([0.5, 1.5])

    def test_sensitivity_is_dimension(self):
        for n_bins in (1, 7, 100):
            assert HistMap(Domain.unit(10), n_bins).sensitivity_l1() == 10.0

    def test_nonunit_domain_binning(self):
        h = HistMap(Domain((-2.0,), (2.0,)), 4)
        assert h.embed([-2.0]).tolist() == [1, 0, 0, 0]
        assert h.embed([0.5]).tolist() == [0, 0, 1, 0]


class TestRff:
    def test_shape_and_empirical_variance(self):
        r = build_rff(10, 200, 1.0, seed=0)
        assert r.frequencies.shape == (10, 100)
        assert r.frequencies.var() == pytest.approx(1.0, rel=0.05)

    def test_same_seed_reproduces_frequencies(self):
        a = build_rff(3, 40, 2.0, seed=123)
        b = build_rff(3, 40, 2.0, seed=123)
        np.testing.assert_array_equal(a.frequencies, b.frequencies)

    def test_sigma_scales_frequencies_inversely(self):
        a = build_rff(3, 40, 1.0, seed=5)
        b = build_rff(3, 40, 2.0, seed=5)
        np.testing.assert_allclose(b.frequencies, a.frequencies / 2.0, rtol=1e-12)

    def test_rejects_odd_m(self):
        with pytest.raises(FeatureMapError):
            build_rff(3, 41, 1.0, seed=0)

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(FeatureMapError):
            build_rff(3, 40, 0.0, seed=0)
        # inf would give a constant map, 1e-320 infinite frequencies
        for sigma in (np.inf, np.nan, 1e-320):
            with pytest.raises(FeatureMapError, match="sigma|frequencies"):
                build_rff(3, 40, sigma, seed=0)

    def test_zero_frequency_embedding(self):
        from dpsketch.feature_maps import RffMap

        r = RffMap(np.zeros((2, 3)), 1.0)
        np.testing.assert_array_equal(r.embed([0.4, 0.7]), [1, 1, 1, 0, 0, 0])

    def test_single_frequency_analytic(self):
        from dpsketch.feature_maps import RffMap

        r = RffMap(np.array([[np.pi]]), 1.0)
        np.testing.assert_allclose(r.embed([0.5]), [0.0, 1.0], atol=1e-12)

    def test_sensitivity(self):
        r = build_rff(10, 200, 1.0, seed=0)
        assert r.sensitivity_l1() == pytest.approx(100 * np.sqrt(2))

    def test_entries_bounded(self):
        r = build_rff(4, 60, 0.5, seed=1)
        P = r.embed_batch(np.random.default_rng(0).normal(size=(100, 4)))
        assert np.all(np.abs(P) <= 1.0)

    @pytest.mark.parametrize("n,d,m", [(1, 1, 2), (7, 1, 10), (333, 3, 200),
                                       (64, 5, 6)])
    def test_encoding_is_cos_then_sin_bit_for_bit(self, n, d, m):
        r = build_rff(d, m, 0.7, seed=n)
        X = np.random.default_rng(d).uniform(size=(n, d))
        Z = X @ r.frequencies
        ref = np.concatenate([np.cos(Z), np.sin(Z)], axis=1)
        assert r.encode_batch(X).tobytes() == ref.tobytes()


class TestRace:
    def test_hand_evaluated_hash(self):
        race = RaceMap(np.array([[1.0, 0.0]]), np.array([0.0]),
                       n_buckets=2, r_width=1.0)
        assert race.embed([0.5, 0.3]).tolist() == [1, 0]

    def test_self_inner_product_is_hash_count(self):
        race = build_race(3, 7, 5, 0.25, seed=2)
        x = np.array([0.1, 0.6, 0.9])
        assert np.dot(race.embed(x), race.embed(x)) == 7.0

    def test_distant_points_rarely_collide(self):
        race = build_race(2, 1000, 2, 0.05, seed=3)
        x = np.zeros(2)
        y = np.full(2, 10.0)
        # with ||x-y|| >> r_width collisions are essentially random over
        # the 2 buckets, so the rate stays near 1/2
        rate = np.dot(race.embed(x), race.embed(y)) / 1000
        assert rate < 0.55

    def test_rejects_bad_params(self):
        with pytest.raises(FeatureMapError):
            build_race(2, 4, 1, 0.1, seed=0)
        with pytest.raises(FeatureMapError):
            build_race(2, 4, 8, 0.0, seed=0)
        with pytest.raises(FeatureMapError):
            build_race(2, 0, 8, 0.1, seed=0)
        with pytest.raises(FeatureMapError, match="finite"):
            build_race(2, 4, 8, np.inf, seed=0)
        # the bucket index (w^T x + b) / r_width must fit in an int64
        # over the domain
        with pytest.raises(FeatureMapError, match="too small"):
            build_race(2, 4, 8, 1e-320, seed=0)
        build_race(2, 4, 8, 1e-17, seed=0)
        with pytest.raises(FeatureMapError, match="too small"):
            build_race(2, 4, 8, 1e-17, seed=0,
                       domain=Domain((0.0, 0.0), (1e3, 1e3)))
        # offsets lie in [0, r_width], which the int64 bound assumes
        RaceMap(np.ones((2, 2)), [0.0, 0.1], 8, 0.1)
        for offsets in ([0.0, 0.2], [-1e-3, 0.0], [1e300, 0.0]):
            with pytest.raises(FeatureMapError, match="offsets"):
                RaceMap(np.ones((2, 2)), offsets, 8, 0.1)

    def test_sensitivity(self):
        assert build_race(4, 80, 80, 0.1, seed=0).sensitivity_l1() == 80.0

    def test_determinism(self):
        a = build_race(3, 5, 8, 0.2, seed=11)
        b = build_race(3, 5, 8, 0.2, seed=11)
        x = np.random.default_rng(4).uniform(size=(20, 3))
        np.testing.assert_array_equal(a.embed_batch(x), b.embed_batch(x))


class TestKernelEstimates:
    def test_identical_points_hist_race(self):
        x = np.array([0.3, 0.8])
        for spec in (HistMap(Domain.unit(2), 5),
                     build_race(2, 6, 4, 0.3, seed=0)):
            assert spec.kernel_estimate(x, x) == pytest.approx(1.0)

    def test_identical_points_rff(self):
        r = build_rff(3, 100, 1.0, seed=0)
        x = np.array([0.1, 0.2, 0.3])
        assert r.kernel_estimate(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_rff_matches_gaussian_kernel(self):
        r = build_rff(2, 2000, 1.0, seed=7)
        x = np.array([0.1, 0.5])
        y = np.array([0.6, 0.5])
        expected = np.exp(-0.125)
        assert r.kernel_estimate(x, y) == pytest.approx(expected, abs=0.03)

    def test_rff_kernel_error_shrinks_with_m(self):
        x = np.array([0.2, 0.9])
        y = np.array([0.7, 0.1])
        truth = np.exp(-np.sum((x - y) ** 2) / 2.0)
        errors = {}
        for m in (200, 2000):
            errs = [abs(build_rff(2, m, 1.0, seed=s).kernel_estimate(x, y) - truth)
                    for s in range(30)]
            errors[m] = np.mean(errs)
        assert errors[2000] < errors[200]
        assert errors[200] < 3.0 / np.sqrt(100)

    def test_race_collision_symmetry(self):
        race = build_race(2, 50, 4, 0.3, seed=9)
        x = np.array([0.2, 0.4])
        y = np.array([0.5, 0.1])
        assert race.kernel_estimate(x, y) == race.kernel_estimate(y, x)


class TestL1NormBound:
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_hist_race_exact_l1(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.uniform(size=(50, 3))
        h = HistMap(Domain.unit(3), 6)
        race = build_race(3, 4, 5, 0.2, seed=1)
        np.testing.assert_array_equal(
            np.abs(h.embed_batch(X)).sum(axis=1), 3.0)
        np.testing.assert_array_equal(
            np.abs(race.embed_batch(X)).sum(axis=1), 4.0)

    def test_rff_l1_bounded_many_points(self):
        r = build_rff(3, 40, 1.0, seed=0)
        X = np.random.default_rng(1).uniform(size=(10_000, 3))
        norms = np.abs(r.embed_batch(X)).sum(axis=1)
        assert np.all(norms <= r.sensitivity_l1() + 1e-9)


class TestSerialization:
    @pytest.mark.parametrize("build", [
        lambda: HistMap(Domain.unit(3), 7),
        lambda: build_rff(3, 20, 0.7, seed=5),
        lambda: build_race(3, 4, 6, 0.15, seed=6),
    ])
    def test_round_trip_bit_exact(self, build):
        spec = build()
        doc = json.loads(json.dumps(spec.to_dict()))
        restored = feature_map_from_dict(doc)
        assert restored.to_dict() == spec.to_dict()
        assert restored.spec_id == spec.spec_id
        X = np.random.default_rng(2).uniform(size=(10, 3))
        np.testing.assert_array_equal(restored.embed_batch(X),
                                      spec.embed_batch(X))

    def test_rejects_unknown_version(self):
        doc = HistMap(Domain.unit(2), 3).to_dict()
        doc["version"] = 99
        with pytest.raises(FeatureMapError):
            feature_map_from_dict(doc)

    def test_rejects_unknown_variant(self):
        doc = HistMap(Domain.unit(2), 3).to_dict()
        doc["variant"] = "WAVELET"
        with pytest.raises(FeatureMapError):
            feature_map_from_dict(doc)


class TestBatchPathsAgreeWithDense:
    """Gram, P.T @ F, P @ v and the feature sum on the encoded batch must
    match the dense feature matrix."""

    @pytest.mark.parametrize("build", [
        lambda: HistMap(Domain.unit(3), 4),
        lambda: build_rff(3, 16, 1.0, seed=0),
        lambda: build_race(3, 5, 4, 0.3, seed=0),
    ])
    def test_gram_dot_apply_sum(self, build):
        spec = build()
        X = np.random.default_rng(3).uniform(size=(200, 3))
        P = spec.embed_batch(X)
        feats = SyntheticFeatures.from_points(spec, X)
        G = spec.gram(spec.encode_batch(feats.points))
        np.testing.assert_allclose(G.dense(), P.T @ P / 200, atol=1e-12)
        F = np.random.default_rng(4).normal(size=200)
        np.testing.assert_allclose(feats.dot_targets(F), P.T @ F / 200,
                                   atol=1e-12)
        v = np.random.default_rng(5).normal(size=spec.m)
        np.testing.assert_allclose(feats.apply(v), P @ v, atol=1e-12)
        np.testing.assert_allclose(sketch_exact(spec, X).sum_features,
                                   P.sum(axis=0), atol=1e-12)

    @pytest.mark.parametrize("build", [
        lambda: HistMap(Domain.unit(3), 4),
        lambda: build_race(3, 5, 4, 0.3, seed=0),
    ])
    def test_one_hot_encoding_is_sparse_with_one_per_block(self, build):
        spec = build()
        X = np.random.default_rng(6).uniform(size=(50, 3))
        P = spec.encode_batch(X)
        assert isinstance(P, OneHotMatrix)
        assert P.shape == (50, spec.m)
        assert P.indices.shape == (50, spec.n_blocks)
        # column a * width + position: one per block, sorted in each row
        np.testing.assert_array_equal(P.indices // spec.width,
                                      np.tile(np.arange(spec.n_blocks), (50, 1)))
        assert np.all(np.diff(P.indices, axis=1) > 0)
        dense = P.toarray()
        np.testing.assert_array_equal(dense.sum(axis=1), spec.n_blocks)
        assert set(np.unique(dense)) == {0.0, 1.0}
        np.testing.assert_array_equal(
            dense, np.array([spec.embed(x) for x in X]))

    @pytest.mark.parametrize("build", [
        lambda: HistMap(Domain.unit(3), 7),
        lambda: build_race(3, 6, 9, 0.3, seed=0),
    ])
    def test_one_hot_products_match_csr_bit_for_bit(self, build):
        # the same sums in the same order as a compressed sparse row matrix
        spec = build()
        rng = np.random.default_rng(7)
        P = spec.encode_batch(rng.uniform(size=(300, 3)))
        n, B = P.indices.shape
        csr = scipy.sparse.csr_array(
            (np.ones(n * B), P.indices.ravel(), np.arange(0, n * B + 1, B)),
            shape=P.shape)
        v = rng.normal(size=spec.m)
        V = rng.normal(size=(spec.m, 3))
        F = rng.normal(size=n)
        F2 = rng.normal(size=(n, 4))
        for ours, ref in ((P @ v, csr @ v), (P @ V, csr @ V),
                          (P.T @ F, csr.T @ F), (P.T @ F2, csr.T @ F2),
                          (P.sum(axis=0), csr.sum(axis=0))):
            assert ours.shape == ref.shape
            assert ours.tobytes() == np.ascontiguousarray(ref).tobytes()
        np.testing.assert_array_equal(P.toarray(), csr.toarray())
        for bad in (np.ones(spec.m + 1), np.ones(n)):
            with pytest.raises(ValueError):
                P @ bad
            with pytest.raises(ValueError):
                csr @ bad
