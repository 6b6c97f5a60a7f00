import json
import math
import tracemalloc

import numpy as np
import pytest

from dpsketch import (
    Domain,
    HistMap,
    DomainError,
    build_race,
    build_rff,
    load_sketch,
    laplace_noise,
    privatize,
    save_sketch,
    sketch_exact,
)
from dpsketch.feature_maps import FeatureMapError
from dpsketch.sketch import (
    SKETCH_BLOCK,
    SketchError,
    noise_scales,
    noise_variance,
    sketch_from_dict,
)


@pytest.fixture
def hist2():
    return HistMap(Domain.unit(2), 2)


class TestExactSketch:
    def test_two_record_hand_example(self, hist2):
        ex = sketch_exact(hist2, [[0.1, 0.9], [0.6, 0.2]])
        assert ex.sum_features.tolist() == [1, 1, 1, 1]
        assert ex.count == 2

    def test_single_record_equals_embedding(self):
        r = build_rff(3, 20, 1.0, seed=0)
        x = np.array([0.3, 0.5, 0.7])
        ex = sketch_exact(r, [x])
        np.testing.assert_allclose(ex.sum_features,
                                   r.encode_batch(x).toarray()[0], atol=1e-15)
        assert ex.count == 1

    def test_empty_dataset(self, hist2):
        ex = sketch_exact(hist2, np.empty((0, 2)))
        assert ex.count == 0
        np.testing.assert_array_equal(ex.sum_features, np.zeros(4))

    def test_order_invariance(self, hist2):
        X = np.random.default_rng(0).uniform(size=(50, 2))
        a = sketch_exact(hist2, X)
        b = sketch_exact(hist2, X[::-1])
        np.testing.assert_array_equal(a.sum_features, b.sum_features)


    @pytest.mark.parametrize("build", [
        lambda: HistMap(Domain.unit(2), 4),
        lambda: build_rff(2, 20, 1.0, seed=0),
        lambda: build_race(2, 5, 4, 0.3, seed=0),
    ])
    def test_out_of_domain_record_rejected_by_every_map(self, build):
        with pytest.raises(DomainError):
            sketch_exact(build(), [[0.2, 0.3], [50.0, 0.5]])

    def test_hist_validates_records_once(self, monkeypatch):
        # the whole batch, not each block again
        calls = []
        validate = Domain.validate

        def counting(domain, records):
            calls.append(len(records))
            return validate(domain, records)

        monkeypatch.setattr(Domain, "validate", counting)
        n = 2 * SKETCH_BLOCK + 1
        X = np.random.default_rng(4).uniform(size=(n, 3))
        sketch_exact(HistMap(Domain.unit(3), 5), X)
        assert calls == [n]


class TestBlockedSum:
    """sketch_exact encodes and sums SKETCH_BLOCK records at a time."""

    MAPS = {
        "hist": lambda: HistMap(Domain.unit(10), 100),
        "race-80x80": lambda: build_race(10, 80, 80, 0.1, seed=1),
        "rff-98": lambda: build_rff(10, 98, 1.0, seed=2),
        "rff-200": lambda: build_rff(10, 200, 1.0, seed=2),
        "rff-1000": lambda: build_rff(10, 1000, 1.0, seed=2),
    }

    @pytest.mark.parametrize("kind", MAPS)
    def test_sums_equal_whole_batch_bit_for_bit(self, kind):
        # 2B+1 and B+1 end in a block of one record, which would take
        # BLAS's matrix-vector path and round RFF's x^T Omega differently
        spec = self.MAPS[kind]()
        B = SKETCH_BLOCK
        X = np.random.default_rng(3).uniform(size=(2 * B + 1, 10))
        for n in (1, 2, B - 1, B, B + 1, 2 * B + 1):
            exact = sketch_exact(spec, X[:n])
            whole = spec.encode_batch(X[:n]).sum_onto(None).astype(float)
            assert exact.count == n
            assert exact.sum_features.tobytes() == whole.tobytes(), n

    @pytest.mark.parametrize("kind, row_floats", [
        ("rff-200", 200),  # a row of P
        ("race-80x80", 80),  # a row of the hashes' float bucket buffer
    ])
    def test_traced_peak_is_a_few_blocks(self, kind, row_floats):
        # the whole 50 000-row encoding would take 80 MB for RFF and
        # 32 MB of bucket indices (48 MB traced) for RACE
        spec = self.MAPS[kind]()
        X = np.random.default_rng(9).uniform(size=(50_000, 10))
        tracemalloc.start()
        try:
            sketch_exact(spec, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * SKETCH_BLOCK * row_floats * 8, peak


class TestLaplace:
    def test_zero_scale_draws_nothing(self):
        rng = np.random.default_rng(0)
        assert laplace_noise(0.0, rng) == 0.0
        np.testing.assert_array_equal(laplace_noise(0.0, rng, 3), np.zeros(3))
        assert rng.random() == np.random.default_rng(0).random()

    def test_rejects_negative_nan_or_infinite_scale(self):
        for scale in (-1.0, math.nan, math.inf):
            with pytest.raises(SketchError, match="scale"):
                laplace_noise(scale, np.random.default_rng(0))

    def test_moments(self):
        rng = np.random.default_rng(7)
        assert isinstance(laplace_noise(2.0, rng), float)
        draws = laplace_noise(2.0, rng, 200_000)
        assert abs(draws.mean()) < 0.02
        # Var = 2 b^2 = 8
        assert draws.var() == pytest.approx(8.0, rel=0.02)


class TestPrivatize:
    def test_epsilon_inf_is_exact(self, hist2):
        ex = sketch_exact(hist2, [[0.1, 0.9], [0.6, 0.2]])
        sk = privatize(ex, hist2, math.inf, seed=3)
        np.testing.assert_array_equal(sk.noisy_sum, ex.sum_features)
        assert sk.noisy_count == 2.0
        assert math.isinf(sk.epsilon_num) and math.isinf(sk.epsilon_den)

    def test_budget_split(self, hist2):
        sk = privatize(sketch_exact(hist2, [[0.5, 0.5]]), hist2, 1.0, seed=0)
        assert sk.epsilon_num == pytest.approx(0.98)
        assert sk.epsilon_den == pytest.approx(0.02)
        assert sk.epsilon == pytest.approx(1.0)

    def test_noise_scale_matches_sensitivity(self):
        # d=10, 100 bins -> m=1000 entries, noise scale 10/0.98
        spec = HistMap(Domain.unit(10), 100)
        ex = sketch_exact(spec, np.random.default_rng(0).uniform(size=(20, 10)))
        sk = privatize(ex, spec, 1.0, seed=11)
        noise = sk.noisy_sum - ex.sum_features
        expected_var = 2.0 * (10.0 / 0.98) ** 2
        assert noise.var() == pytest.approx(expected_var, rel=0.15)
        assert abs(noise.mean()) < 3 * math.sqrt(expected_var / 1000)

    @pytest.mark.parametrize("build", [
        lambda: HistMap(Domain.unit(10), 100),
        lambda: build_rff(10, 200, 1.0, seed=0),
        lambda: build_race(10, 80, 80, 0.1, seed=0),
    ], ids=["hist", "rff", "race"])
    @pytest.mark.parametrize("eps_num", [0.98, 0.3, 7.0, math.inf])
    def test_noise_variance_is_that_of_the_laplace_scale(self, build,
                                                         eps_num):
        spec = build()
        scale = noise_scales(spec, eps_num, 0.02)[0]
        assert noise_variance(spec, eps_num) == pytest.approx(
            2 * scale ** 2, rel=1e-15, abs=0.0)

    def test_count_noise_scale(self, hist2):
        ex = sketch_exact(hist2, [[0.5, 0.5]])
        counts = np.array([
            privatize(ex, hist2, 1.0, seed=s).noisy_count for s in range(4000)
        ])
        # scale 1/0.02 = 50 -> Var = 5000
        assert counts.var() == pytest.approx(5000.0, rel=0.1)
        assert counts.mean() == pytest.approx(1.0, abs=3 * 50 / math.sqrt(4000) * 1.5)

    def test_seeded_reproducibility(self, hist2):
        ex = sketch_exact(hist2, [[0.1, 0.9]])
        a = privatize(ex, hist2, 0.5, seed=(1, 2))
        b = privatize(ex, hist2, 0.5, seed=(1, 2))
        np.testing.assert_array_equal(a.noisy_sum, b.noisy_sum)
        assert a.noisy_count == b.noisy_count

    def test_rejects_bad_epsilon_and_split(self, hist2):
        ex = sketch_exact(hist2, [[0.1, 0.9]])
        with pytest.raises(SketchError):
            privatize(ex, hist2, 0.0)
        with pytest.raises(SketchError):
            privatize(ex, hist2, math.nan)
        with pytest.raises(SketchError):
            privatize(ex, hist2, 1.0, split_num=1.0)

    def test_normalization_clamps_small_counts(self, hist2):
        ex = sketch_exact(hist2, [[0.1, 0.9]])
        for seed in range(200):
            sk = privatize(ex, hist2, 0.05, seed=seed)
            if sk.noisy_count < 1.0:
                np.testing.assert_array_equal(sk.normalized, sk.noisy_sum)
                break
        else:
            pytest.fail("never saw a noisy count below 1 at tiny epsilon")


class TestNeighboringSensitivity:
    """Removing one record moves the exact sum by at most the L1 sensitivity."""

    @pytest.mark.parametrize("build", [
        lambda: HistMap(Domain.unit(3), 5),
        lambda: build_rff(3, 30, 1.0, seed=0),
        lambda: build_race(3, 6, 4, 0.2, seed=0),
    ])
    def test_exhaustive_removals(self, build):
        spec = build()
        X = np.random.default_rng(5).uniform(size=(5, 3))
        full = sketch_exact(spec, X).sum_features
        delta = spec.sensitivity_l1()
        for i in range(5):
            rest = sketch_exact(spec, np.delete(X, i, axis=0)).sum_features
            gap = np.abs(full - rest).sum()
            assert gap <= delta + 1e-9

    def test_hist_race_achieve_equality(self):
        X = np.random.default_rng(6).uniform(size=(4, 3))
        for spec in (HistMap(Domain.unit(3), 5),
                     build_race(3, 6, 4, 0.2, seed=0)):
            full = sketch_exact(spec, X).sum_features
            rest = sketch_exact(spec, X[1:]).sum_features
            assert np.abs(full - rest).sum() == spec.sensitivity_l1()


class TestFileFormat:
    def test_round_trip(self, tmp_path, hist2):
        sk = privatize(sketch_exact(hist2, [[0.1, 0.9], [0.6, 0.2]]),
                       hist2, 1.0, seed=9)
        path = tmp_path / "s.json"
        save_sketch(path, sk, hist2)
        loaded, spec = load_sketch(path)
        np.testing.assert_array_equal(loaded.noisy_sum, sk.noisy_sum)
        assert loaded.noisy_count == sk.noisy_count
        assert loaded.epsilon_num == sk.epsilon_num
        assert spec.spec_id == hist2.spec_id
        assert json.loads(path.read_text())["version"] == 1

    def test_inf_epsilon_encoding(self, tmp_path, hist2):
        sk = privatize(sketch_exact(hist2, [[0.1, 0.9]]), hist2, math.inf)
        path = tmp_path / "s.json"
        save_sketch(path, sk, hist2)
        doc = json.loads(path.read_text())
        assert doc["epsilon_num"] == "inf"
        loaded, _ = load_sketch(path)
        assert math.isinf(loaded.epsilon_num)

    def test_save_is_byte_deterministic(self, tmp_path, hist2):
        sk = privatize(sketch_exact(hist2, [[0.3, 0.4]]), hist2, 2.0, seed=4)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_sketch(p1, sk, hist2)
        save_sketch(p2, sk, hist2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_float_values_round_trip_exactly(self, tmp_path, hist2):
        sk = privatize(sketch_exact(hist2, [[0.3, 0.4]]), hist2, 0.7, seed=4)
        path = tmp_path / "s.json"
        save_sketch(path, sk, hist2)
        loaded, _ = load_sketch(path)
        assert loaded.noisy_sum.tolist() == sk.noisy_sum.tolist()
        assert loaded.noisy_count == sk.noisy_count

    def test_rejects_bad_version(self, tmp_path, hist2):
        sk = privatize(sketch_exact(hist2, [[0.1, 0.9]]), hist2, 1.0, seed=0)
        doc = json.loads(json.dumps(sk.to_dict(hist2)))
        doc["version"] = 2
        with pytest.raises(SketchError):
            sketch_from_dict(doc)

    def test_rejects_tampered_spec(self, hist2):
        sk = privatize(sketch_exact(hist2, [[0.1, 0.9]]), hist2, math.inf)
        doc = sk.to_dict(hist2)
        doc["spec"]["params"]["n_bins"] = 5
        with pytest.raises(SketchError):
            sketch_from_dict(doc)

    def test_no_timestamp_by_default(self, tmp_path, hist2):
        sk = privatize(sketch_exact(hist2, [[0.1, 0.9]]), hist2, math.inf)
        path = tmp_path / "s.json"
        save_sketch(path, sk, hist2)
        assert "created_at" not in json.loads(path.read_text())

    def test_noise_seed_not_written(self, tmp_path, hist2):
        sk = privatize(sketch_exact(hist2, [[0.1, 0.9]]), hist2, 1.0, seed=5)
        path = tmp_path / "s.json"
        save_sketch(path, sk, hist2)
        doc = json.loads(path.read_text())
        assert not [key for key in doc if "seed" in key]

    @pytest.mark.parametrize("key, value", [
        ("rng_seed_of_noise", 5),
        ("normalization", {"min": [0.1, 0.9], "max": [0.1, 0.9]}),
    ], ids=["rng_seed_of_noise", "normalization"])
    def test_old_file_with_retired_key_loads(self, hist2, key, value):
        """Keys that older versions wrote, and that the format dropped."""
        sk = privatize(sketch_exact(hist2, [[0.1, 0.9]]), hist2, 1.0, seed=5)
        doc = json.loads(json.dumps(sk.to_dict(hist2)))
        doc[key] = value
        loaded, _ = sketch_from_dict(doc)
        assert loaded.noisy_sum.tolist() == sk.noisy_sum.tolist()

    @pytest.mark.parametrize("noisy_sum", [
        [1.0, 2.0, 3.0],
        [[1.0, 2.0], [3.0, 4.0]],
        [[1.0, 2.0], 3.0, 4.0, 5.0],
        ["x", 2.0, 3.0, 4.0],
    ], ids=["truncated", "2-d", "ragged", "non-numeric"])
    def test_rejects_wrong_sum_length(self, hist2, noisy_sum):
        sk = privatize(sketch_exact(hist2, [[0.1, 0.9]]), hist2, math.inf)
        doc = sk.to_dict(hist2)
        doc["noisy_sum"] = noisy_sum
        with pytest.raises(SketchError):
            sketch_from_dict(doc)

    @pytest.mark.parametrize("key, value", [
        ("noisy_sum", [1.0, math.nan, 2.0, 3.0]),
        ("noisy_sum", [1.0, 2.0, -math.inf, 3.0]),
        ("noisy_sum", [1.0, "1.65", 2.0, 3.0]),
        ("noisy_sum", [1.0, 2.0, " 1e3 ", 3.0]),
        ("noisy_sum", [1.0, 2.0, 3.0, True]),
        ("noisy_sum", [False, 1.0, 2.0, 3.0]),
        ("noisy_sum", [1.0, 2.0, 10 ** 400, 3.0]),
        ("noisy_sum", [1.0, None, 2.0, 3.0]),
        ("noisy_count", math.inf),
        ("noisy_count", math.nan),
        ("noisy_count", "abc"),
        ("noisy_count", None),
        ("epsilon_num", -1),
        ("epsilon_num", 0.0),
        ("epsilon_num", math.nan),
        ("epsilon_num", "abc"),
        ("epsilon_den", -0.5),
        ("epsilon_den", "0.02"),
    ], ids=["sum-nan", "sum-inf", "sum-text", "sum-padded-text", "sum-true",
            "sum-false", "sum-huge-int", "sum-null", "count-inf", "count-nan", "count-text",
            "count-null", "eps-num-negative", "eps-num-zero", "eps-num-nan",
            "eps-num-text", "eps-den-negative", "eps-den-quoted"])
    def test_rejects_malformed_values(self, hist2, key, value):
        sk = privatize(sketch_exact(hist2, [[0.1, 0.9]]), hist2, 1.0, seed=0)
        doc = json.loads(json.dumps(sk.to_dict(hist2)))
        doc[key] = value
        with pytest.raises(SketchError, match=key):
            sketch_from_dict(doc)

    def test_accepts_integer_count_and_budget(self, hist2):
        sk = privatize(sketch_exact(hist2, [[0.1, 0.9]]), hist2, 1.0, seed=0)
        doc = json.loads(json.dumps(sk.to_dict(hist2)))
        doc.update(noisy_count=3, epsilon_num=1, epsilon_den="inf")
        loaded, _ = sketch_from_dict(doc)
        assert (loaded.noisy_count, loaded.epsilon_num) == (3.0, 1.0)
        assert math.isinf(loaded.epsilon_den)

    def test_rejects_malformed_spec(self, malformed_sketch_doc):
        with pytest.raises((SketchError, FeatureMapError)):
            sketch_from_dict(malformed_sketch_doc)
