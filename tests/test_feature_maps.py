import json
import tracemalloc

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
from reference import kernel_estimate


class TestHist:
    def test_basic_one_hot(self):
        h = HistMap(Domain.unit(1), 4)
        assert h.encode_batch([0.3]).toarray()[0].tolist() == [0, 1, 0, 0]

    def test_upper_edge_clamps_into_last_bin(self):
        h = HistMap(Domain.unit(1), 4)
        assert h.encode_batch([1.0]).toarray()[0].tolist() == [0, 0, 0, 1]

    def test_concatenated_per_attribute_one_hots(self):
        h = HistMap(Domain.unit(2), 2)
        assert h.encode_batch([0.1, 0.9]).toarray()[0].tolist() == [1, 0, 0, 1]

    def test_rejects_zero_bins(self):
        with pytest.raises(FeatureMapError):
            HistMap(Domain.unit(2), 0)

    def test_sensitivity_is_dimension(self):
        for n_bins in (1, 7, 100):
            assert HistMap(Domain.unit(10), n_bins).sensitivity_l1() == 10.0

    def test_nonunit_domain_binning(self):
        h = HistMap(Domain((-2.0,), (2.0,)), 4)
        assert h.encode_batch([-2.0]).toarray()[0].tolist() == [1, 0, 0, 0]
        assert h.encode_batch([0.5]).toarray()[0].tolist() == [0, 0, 1, 0]


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
        np.testing.assert_array_equal(r.encode_batch([0.4, 0.7]).toarray()[0],
                                      [1, 1, 1, 0, 0, 0])

    def test_single_frequency_analytic(self):
        from dpsketch.feature_maps import RffMap

        r = RffMap(np.array([[np.pi]]), 1.0)
        np.testing.assert_allclose(r.encode_batch([0.5]).toarray()[0],
                                   [0.0, 1.0], atol=1e-12)

    def test_sensitivity(self):
        r = build_rff(10, 200, 1.0, seed=0)
        assert r.sensitivity_l1() == pytest.approx(100 * np.sqrt(2))

    def test_entries_bounded(self):
        r = build_rff(4, 60, 0.5, seed=1)
        X = np.random.default_rng(0).normal(size=(100, 4))
        P = r.encode_batch(X).toarray()
        assert np.all(np.abs(P) <= 1.0)

    @pytest.mark.parametrize("n,d,m", [(1, 1, 2), (7, 1, 10), (333, 3, 200),
                                       (64, 5, 6)])
    def test_encoding_is_cos_then_sin_bit_for_bit(self, n, d, m):
        r = build_rff(d, m, 0.7, seed=n)
        X = np.random.default_rng(d).uniform(size=(n, d))
        Z = X @ r.frequencies
        ref = np.concatenate([np.cos(Z), np.sin(Z)], axis=1)
        assert r.encode_batch(X).toarray().tobytes() == ref.tobytes()


class TestRace:
    def test_hand_evaluated_hash(self):
        race = RaceMap(np.array([[1.0, 0.0]]), np.array([0.0]),
                       n_buckets=2, r_width=1.0)
        assert race.encode_batch([0.5, 0.3]).toarray()[0].tolist() == [1, 0]

    def test_self_inner_product_is_hash_count(self):
        race = build_race(3, 7, 5, 0.25, seed=2)
        x = np.array([0.1, 0.6, 0.9])
        phi = race.encode_batch(x).toarray()[0]
        assert np.dot(phi, phi) == 7.0

    def test_distant_points_rarely_collide(self):
        race = build_race(2, 1000, 2, 0.05, seed=3)
        x = np.zeros(2)
        y = np.full(2, 10.0)
        # with ||x-y|| >> r_width collisions are essentially random over
        # the 2 buckets, so the rate stays near 1/2
        P = race.encode_batch([x, y]).toarray()
        rate = np.dot(P[0], P[1]) / 1000
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

    @pytest.mark.parametrize("r_width", [0.1, 1e-9, 1e-17])
    def test_buckets_equal_float_floor_and_mod(self, r_width):
        # the floor is cast to int64 and reduced there; it gives the
        # buckets of a float mod of the float floor, which is exact too,
        # up to |index| ~ 3e17 at r_width 1e-17
        race = build_race(3, 50, 80, r_width, seed=6)
        X = np.random.default_rng(8).uniform(size=(2000, 3))
        Z = np.floor((X @ race.projections.T + race.offsets) / r_width)
        assert np.abs(Z).max() > 1e16 or r_width > 1e-17
        expected = np.mod(Z, 80).astype(np.int64)
        np.testing.assert_array_equal(race.encode_batch(X).positions,
                                      expected)

    def test_positions_equal_numpy_remainder_of_negative_floors(self):
        # negative bounds and a small r_width: floors far below zero,
        # where idx - W (idx // W) must give np.remainder's 0..W - 1
        domain = Domain((-50.0, -30.0, -9.0), (-10.0, 20.0, -1.0))
        race = build_race(3, 40, 77, 1e-9, seed=3, domain=domain)
        X = np.random.default_rng(5).uniform(domain.lower_arr,
                                             domain.upper_arr, (500, 3))
        Z = np.floor((X @ race.projections.T + race.offsets) / race.r_width)
        assert Z.min() < -1e10
        np.testing.assert_array_equal(race._positions(X),
                                      np.remainder(Z, 77).astype(np.int64))

    def test_sensitivity(self):
        assert build_race(4, 80, 80, 0.1, seed=0).sensitivity_l1() == 80.0

    def test_determinism(self):
        a = build_race(3, 5, 8, 0.2, seed=11)
        b = build_race(3, 5, 8, 0.2, seed=11)
        x = np.random.default_rng(4).uniform(size=(20, 3))
        np.testing.assert_array_equal(a.encode_batch(x).toarray(),
                                      b.encode_batch(x).toarray())


class TestBatchShape:
    @pytest.mark.parametrize("build", [
        lambda: HistMap(Domain.unit(3), 4),
        lambda: build_race(3, 5, 4, 0.3, seed=0),
        lambda: build_rff(3, 16, 1.0, seed=0),
    ], ids=["hist", "race", "rff"])
    def test_encode_batch_takes_only_finite_points_of_d_columns(self, build):
        spec = build()
        for X in ([[0.1], [0.9]], np.zeros((2, 4)), np.zeros((2, 3, 1))):
            with pytest.raises(FeatureMapError, match=r"d=3 must be \(n, 3\)"):
                spec.encode_batch(X)
        with pytest.raises(FeatureMapError, match="finite"):
            spec.encode_batch([[0.1, np.nan, 0.2]])
        assert spec.encode_batch([0.1, 0.2, 0.3]).shape == (1, spec.m)
        assert spec.encode_batch(np.empty((0, 3))).shape == (0, spec.m)


class TestKernelEstimates:
    def test_identical_points_hist_race(self):
        x = np.array([0.3, 0.8])
        for spec in (HistMap(Domain.unit(2), 5),
                     build_race(2, 6, 4, 0.3, seed=0)):
            assert kernel_estimate(spec, x, x) == pytest.approx(1.0)

    def test_identical_points_rff(self):
        r = build_rff(3, 100, 1.0, seed=0)
        x = np.array([0.1, 0.2, 0.3])
        assert kernel_estimate(r, x, x) == pytest.approx(1.0, abs=1e-12)

    def test_rff_matches_gaussian_kernel(self):
        r = build_rff(2, 2000, 1.0, seed=7)
        x = np.array([0.1, 0.5])
        y = np.array([0.6, 0.5])
        expected = np.exp(-0.125)
        assert kernel_estimate(r, x, y) == pytest.approx(expected, abs=0.03)

    def test_rff_kernel_error_shrinks_with_m(self):
        x = np.array([0.2, 0.9])
        y = np.array([0.7, 0.1])
        truth = np.exp(-np.sum((x - y) ** 2) / 2.0)
        errors = {}
        for m in (200, 2000):
            errs = [abs(kernel_estimate(build_rff(2, m, 1.0, seed=s), x, y)
                        - truth) for s in range(30)]
            errors[m] = np.mean(errs)
        assert errors[2000] < errors[200]
        assert errors[200] < 3.0 / np.sqrt(100)

    def test_race_collision_symmetry(self):
        race = build_race(2, 50, 4, 0.3, seed=9)
        x = np.array([0.2, 0.4])
        y = np.array([0.5, 0.1])
        assert kernel_estimate(race, x, y) == kernel_estimate(race, y, x)


class TestL1NormBound:
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_hist_race_exact_l1(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.uniform(size=(50, 3))
        h = HistMap(Domain.unit(3), 6)
        race = build_race(3, 4, 5, 0.2, seed=1)
        np.testing.assert_array_equal(
            np.abs(h.encode_batch(X).toarray()).sum(axis=1), 3.0)
        np.testing.assert_array_equal(
            np.abs(race.encode_batch(X).toarray()).sum(axis=1), 4.0)

    def test_rff_l1_bounded_many_points(self):
        r = build_rff(3, 40, 1.0, seed=0)
        X = np.random.default_rng(1).uniform(size=(10_000, 3))
        norms = np.abs(r.encode_batch(X).toarray()).sum(axis=1)
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
        np.testing.assert_array_equal(restored.encode_batch(X).toarray(),
                                      spec.encode_batch(X).toarray())

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
        lambda: build_race(3, 5, 40, 0.05, seed=0),  # with empty buckets
        lambda: HistMap(Domain.unit(3), 60),  # with empty bins
    ])
    def test_gram_dot_apply_sum(self, build):
        spec = build()
        X = np.random.default_rng(3).uniform(size=(200, 3))
        P = spec.encode_batch(X).toarray()
        feats = SyntheticFeatures.from_points(spec, X)
        G = spec.gram(spec.encode_batch(feats.points))
        np.testing.assert_allclose(G.dense(), P.T @ P / 200, atol=1e-12)
        # the largest absolute row sum, which the solver's stop reads
        assert G.norm_inf == pytest.approx(
            np.abs(P.T @ P / 200).sum(axis=1).max(), rel=1e-12)
        F = np.random.default_rng(4).normal(size=200)
        np.testing.assert_allclose(feats.dot_targets(F), P.T @ F / 200,
                                   atol=1e-12)
        v = np.random.default_rng(5).normal(size=spec.m)
        np.testing.assert_allclose(feats.apply(v), P @ v, atol=1e-12)
        np.testing.assert_allclose(sketch_exact(spec, X).sum_features,
                                   P.sum(axis=0), atol=1e-12)
        # one interface for both matrix types, 2-D P @ V included
        encoded = spec.encode_batch(X)
        V = np.random.default_rng(6).normal(size=(spec.m, 3))
        np.testing.assert_allclose(encoded @ V, P @ V, atol=1e-12)
        # compacted: the kept columns are the occupied ones (every column
        # of a dense P), and each operation gives the uncompacted
        # results on them bit for bit
        compact, kept = encoded.compact()
        if spec.variant == "RFF":
            assert compact is encoded
            np.testing.assert_array_equal(kept, np.arange(spec.m))
        else:
            np.testing.assert_array_equal(kept, np.flatnonzero(P.any(axis=0)))
        assert compact.shape == (200, kept.size)
        assert (compact @ v[kept]).tobytes() == (encoded @ v).tobytes()
        assert compact.tmatmul(F).tobytes() == \
            encoded.tmatmul(F)[kept].tobytes()
        assert compact.sum_onto(None).tobytes() == \
            encoded.sum_onto(None)[kept].tobytes()
        assert spec.gram(compact).dense().tobytes() == \
            spec.gram(encoded).dense()[np.ix_(kept, kept)].tobytes()

    def test_gram_of_blocks_wider_than_256(self):
        # uint16 positions; the joint indices, up to 300^2, in uint32
        spec = HistMap(Domain.unit(2), 300)
        P = spec.encode_batch(np.random.default_rng(11).uniform(size=(2000, 2)))
        dense = P.toarray()
        G = spec.gram(P)
        assert G.dense().tobytes() == (dense.T @ dense / 2000).tobytes()
        assert G.norm_inf == 2 * dense.sum(axis=0).max() / 2000

    def test_race_column_sums_trace_little_memory(self):
        # the sums bincount one block column at a time: no int64 copy of
        # the 50 000 x 80 uint8 positions (32 MB)
        spec = build_race(10, 80, 80, 0.1, seed=1)
        X = np.random.default_rng(9).uniform(size=(50_000, 10))
        P = spec.encode_batch(X)
        tracemalloc.start()
        try:
            sums = P.sum_onto(None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000, peak
        dense = sum(OneHotMatrix(P.positions[i:i + 500], P.edges).toarray()
                    .sum(axis=0) for i in range(0, P.shape[0], 500))
        assert sums.astype(float).tobytes() == dense.tobytes()

    def test_race_transposed_product_traces_little_memory(self):
        # P^T f bincounts one block column at a time: no n x B repeat of f
        # and no int64 copy of all the positions (12.85 MB at 10 000 x 80)
        spec = build_race(10, 80, 80, 0.1, seed=1)
        rng = np.random.default_rng(10)
        P = spec.encode_batch(rng.uniform(size=(10_000, 10)))
        f = rng.normal(size=10_000)
        tracemalloc.start()
        try:
            out = P.tmatmul(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, peak
        # the sums of one bincount over all indices, bit for bit
        columns = P.positions + P.edges[:-1]
        whole = np.bincount(columns.ravel(), np.repeat(f, 80),
                            minlength=spec.m)
        assert out.tobytes() == whole.tobytes()

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
        assert P.positions.shape == (50, spec.n_blocks)
        # column-major, so each block column is contiguous
        assert P.positions.flags.f_contiguous
        # one position per block, within blocks width columns wide
        assert P.edges == list(range(0, spec.m + 1, spec.width))
        assert 0 <= P.positions.min() and P.positions.max() < spec.width
        dense = P.toarray()
        np.testing.assert_array_equal(dense.sum(axis=1), spec.n_blocks)
        assert set(np.unique(dense)) == {0.0, 1.0}
        np.testing.assert_array_equal(
            dense, np.array([spec.encode_batch(x).toarray()[0] for x in X]))

    @pytest.mark.parametrize("width, dtype", [
        (2, np.uint8), (256, np.uint8), (257, np.uint16),
        (65_536, np.uint16), (65_537, np.uint32)])
    def test_positions_take_the_narrowest_unsigned_type(self, width, dtype):
        # one row per bin, so every bin of the block is occupied; compact
        # keeps the dtype and numbers the ranks 0..width - 1 (a full
        # 256-wide block counts them modulo 256 in uint8)
        spec = HistMap(Domain.unit(1), width)
        P = spec.encode_batch((np.arange(width)[:, None] + 0.5) / width)
        assert P.positions.dtype == dtype
        np.testing.assert_array_equal(P.positions[:, 0], np.arange(width))
        compact, kept = P.compact()
        assert compact.positions.dtype == dtype
        np.testing.assert_array_equal(compact.positions, P.positions)
        np.testing.assert_array_equal(kept, np.arange(width))
        # every other bin: the ranks skip the empty ones
        odd = OneHotMatrix(P.positions[1::2], P.edges).compact()[0]
        np.testing.assert_array_equal(odd.positions[:, 0],
                                      np.arange(width // 2))

    @pytest.mark.parametrize("build", [
        lambda: HistMap(Domain.unit(3), 7),  # all 21 bins occupied
        lambda: build_race(3, 6, 9, 0.3, seed=0),  # 37 of 54 occupied
        lambda: build_race(3, 6, 60, 0.02, seed=0),  # 321 of 360; one
        # block full, the others not
        lambda: build_race(3, 4, 256, 0.001, seed=0),  # uint8's widest
        lambda: HistMap(Domain.unit(3), 300),  # uint16 positions
    ])
    def test_one_hot_products_match_csr_bit_for_bit(self, build):
        # the same sums in the same order as a compressed sparse row
        # matrix, for P and for P compacted to its occupied columns
        spec = build()
        rng = np.random.default_rng(7)
        P = spec.encode_batch(rng.uniform(size=(300, 3)))
        n, B = P.positions.shape
        dtype = np.uint8 if spec.width <= 256 else np.uint16
        assert P.positions.dtype == P.compact()[0].positions.dtype == dtype
        columns = (P.positions + P.edges[:-1]).ravel()
        csr = scipy.sparse.csr_array(
            (np.ones(n * B), columns, np.arange(0, n * B + 1, B)),
            shape=P.shape)
        compact, kept = P.compact()
        occupied = np.flatnonzero(csr.sum(axis=0))
        np.testing.assert_array_equal(kept, occupied)
        for ours, ref in ((P, csr),
                          (compact, scipy.sparse.csr_array(
                              csr.toarray()[:, kept]))):
            v = rng.normal(size=ref.shape[1])
            V = rng.normal(size=(ref.shape[1], 3))
            F = rng.normal(size=n)
            for got, want in ((ours @ v, ref @ v), (ours @ V, ref @ V),
                              (ours.tmatmul(F), ref.T @ F),
                              (ours.sum_onto(None).astype(float),
                               ref.sum(axis=0))):
                assert got.shape == want.shape
                assert got.tobytes() == np.ascontiguousarray(want).tobytes()
        np.testing.assert_array_equal(P.toarray(), csr.toarray())
        for bad in (np.ones(spec.m + 1), np.ones(n)):
            with pytest.raises(ValueError):
                P @ bad
            with pytest.raises(ValueError):
                csr @ bad
