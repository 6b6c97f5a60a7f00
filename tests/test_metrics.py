import numpy as np
import pytest

from dpsketch import auc, emd_1d, frobenius, mae, mre


class TestMre:
    def test_basic(self):
        assert mre(1.1, 1.0) == pytest.approx(0.1)

    def test_symmetric_sign(self):
        assert mre(0.9, 1.0) == pytest.approx(0.1)

    def test_negative_truth(self):
        assert mre(-0.9, -1.0) == pytest.approx(0.1)

    def test_zero_truth_rejected(self):
        with pytest.raises(ValueError):
            mre(0.5, 0.0)


class TestMae:
    def test_basic(self):
        assert mae([1.0, 2.0], [0.5, 2.5]) == pytest.approx(0.5)

    def test_perfect(self):
        assert mae([3.0], [3.0]) == 0.0


class TestEmd:
    def test_identical_cdfs(self):
        assert emd_1d([0.1, 0.5, 1.0], [0.1, 0.5, 1.0]) == 0.0

    def test_uniform_shift(self):
        assert emd_1d([0.2, 0.6], [0.1, 0.5]) == pytest.approx(0.1)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            emd_1d([0.1], [0.1, 0.2])


class TestFrobenius:
    def test_known_value(self):
        A = np.array([[1.0, 0.0], [0.0, 1.0]])
        B = np.zeros((2, 2))
        assert frobenius(A, B) == pytest.approx(np.sqrt(2))

    def test_zero_for_equal(self):
        A = np.random.default_rng(0).normal(size=(3, 3))
        assert frobenius(A, A) == 0.0


class TestAuc:
    def test_perfect_separation(self):
        assert auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_inverted_scores(self):
        assert auc([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1]) == 0.0

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=20_000)
        labels = rng.integers(0, 2, size=20_000)
        assert auc(scores, labels) == pytest.approx(0.5, abs=0.02)

    def test_ties_count_half(self):
        assert auc([0.5, 0.5], [0, 1]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            auc([0.1, 0.2], [1, 1])

    def test_matches_pairwise_definition(self):
        rng = np.random.default_rng(2)
        scores = rng.normal(size=50)
        labels = rng.integers(0, 2, size=50)
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        wins = (pos[:, None] > neg[None, :]).sum()
        ties = (pos[:, None] == neg[None, :]).sum()
        expected = (wins + 0.5 * ties) / (len(pos) * len(neg))
        assert auc(scores, labels) == pytest.approx(expected, abs=1e-12)

    def test_matches_rankdata_mid_ranks_with_many_ties(self):
        from scipy.stats import rankdata

        rng = np.random.default_rng(3)
        for n, levels in ((7, 2), (200, 3), (5000, 40)):
            scores = rng.integers(0, levels, size=n) / 4.0
            labels = rng.integers(0, 2, size=n)
            labels[:2] = (0, 1)
            pos = labels == 1
            n_pos, n_neg = int(pos.sum()), int((~pos).sum())
            ranks = rankdata(scores)
            expected = ((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0)
                        / (n_pos * n_neg))
            assert auc(scores, labels) == expected
