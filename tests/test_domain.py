import numpy as np
import pytest

from dpsketch import Domain, DomainError


class TestConstruction:
    def test_unit_box(self):
        dom = Domain.unit(3)
        assert dom.d == 3
        assert dom.lower == (0.0, 0.0, 0.0)
        assert dom.upper == (1.0, 1.0, 1.0)
        assert dom.kinds == ("continuous",) * 3

    def test_kinds_default_to_continuous(self):
        dom = Domain((0.0,), (2.0,))
        assert dom.kinds == ("continuous",)

    def test_binary_bounds_enforced(self):
        with pytest.raises(DomainError):
            Domain((0.0,), (2.0,), kinds=("binary",))
        Domain((0.0,), (1.0,), kinds=("binary",))  # ok

    def test_rejects_inverted_bounds(self):
        with pytest.raises(DomainError):
            Domain((1.0,), (0.0,))

    def test_rejects_empty_and_mismatched(self):
        with pytest.raises(DomainError):
            Domain((), ())
        with pytest.raises(DomainError):
            Domain((0.0, 0.0), (1.0,))

    def test_rejects_unknown_kind(self):
        with pytest.raises(DomainError):
            Domain((0.0,), (1.0,), kinds=("ordinal",))


class TestValidate:
    def test_accepts_in_bounds(self):
        dom = Domain.unit(2)
        out = dom.validate([[0.0, 1.0], [0.5, 0.5]])
        assert out.shape == (2, 2)

    def test_error_names_record_and_attribute(self):
        dom = Domain.unit(2)
        with pytest.raises(DomainError, match="record 1, attribute 0"):
            dom.validate([[0.5, 0.5], [1.5, 0.5]])

    def test_rejects_wrong_width(self):
        with pytest.raises(DomainError):
            Domain.unit(3).validate([[0.1, 0.2]])

    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            Domain.unit(1).validate([[np.nan]])

    def test_binary_values_must_be_zero_or_one(self):
        dom = Domain((0.0, 0.0), (1.0, 1.0), kinds=("continuous", "binary"))
        dom.validate([[0.3, 0.0], [0.7, 1.0]])
        with pytest.raises(DomainError, match="record 1, attribute 1"):
            dom.validate([[0.3, 1.0], [0.7, 0.6]])

    def test_contains(self):
        dom = Domain((-1.0,), (1.0,))
        assert dom.contains([0.0])
        assert not dom.contains([1.5])


class TestSample:
    def test_shapes_and_bounds(self):
        dom = Domain((-2.0, 0.0), (2.0, 1.0), kinds=("continuous", "binary"))
        X = dom.sample(1000, np.random.default_rng(0))
        assert X.shape == (1000, 2)
        assert X[:, 0].min() >= -2 and X[:, 0].max() <= 2
        assert set(np.unique(X[:, 1])) == {0.0, 1.0}


class TestSerialization:
    def test_round_trip(self):
        dom = Domain((-1.0, 0.0), (1.0, 1.0), kinds=("continuous", "binary"))
        assert Domain.from_dict(dom.to_dict()) == dom
