import math
import warnings

import numpy as np
import pytest

from dpsketch import Domain, DomainError, read_csv


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

    @pytest.mark.parametrize("lower, upper", [
        (0.0, math.inf), (-math.inf, 0.0), (-math.inf, math.inf),
        (-1e308, 1e308),  # finite bounds, but upper - lower overflows
    ])
    def test_rejects_infinite_bounds_or_width(self, lower, upper):
        with pytest.raises(DomainError, match="finite"):
            Domain((0.0, lower), (1.0, upper))

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


class TestReadCsv:
    def _read(self, tmp_path, text):
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode())
        return read_csv(path)

    def test_bit_equal_to_float_parsing(self, tmp_path):
        values = np.random.default_rng(0).normal(scale=1e3, size=(500, 4))
        values[0] = [0.1, -0.0, 1e-300, 5e-324]
        lines = ["a,b,c,d"] + [",".join(repr(float(v)) for v in row)
                               for row in values]
        data, header = self._read(tmp_path, "\n".join(lines) + "\n")
        assert header == ["a", "b", "c", "d"]
        expected = np.array([[float(v) for v in line.split(",")]
                             for line in lines[1:]])
        assert data.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("text", [
        "x,y\r\n1.5,2\r\n3,4\r\n",       # CRLF line endings
        'x,y\n"1.5","2"\n3," 4 "\n',        # quoted and padded fields
        "x,y\n\n1.5,2\n\n3,4\n\n",         # blank lines skipped
        "x,y\n1.5,2\n3,4",                  # no newline at the end
    ])
    def test_accepted_layouts(self, tmp_path, text):
        data, header = self._read(tmp_path, text)
        assert header == ["x", "y"]
        assert data.tolist() == [[1.5, 2.0], [3.0, 4.0]]

    @pytest.mark.parametrize("text, shape", [
        ("x\n1\n2\n3\n", (3, 1)),
        ("x,y,z\n1,2,3\n", (1, 3)),
        ("x\n7\n", (1, 1)),
    ])
    def test_always_two_dimensional(self, tmp_path, text, shape):
        assert self._read(tmp_path, text)[0].shape == shape

    @pytest.mark.parametrize("text, words", [
        ("", "empty file"),
        ("x,y\n", "no data rows"),
        ("x,y\n\n\n", "no data rows"),
        ("x,y\n1,2\n3\n", "non-numeric value"),         # ragged
        ("x,y\n1,2\n3,4,5\n", "non-numeric value"),     # ragged
        ("x,y\n1,oops\n", "non-numeric value"),
        ("x,y\n#1,2\n", "non-numeric value"),          # not a comment
        ("x,y\n1,nan\n", "non-finite value"),
        ("x,y\n-inf,2\n", "non-finite value"),
    ])
    def test_malformed_files_raise_naming_the_path(self, tmp_path, text,
                                                   words):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=words) as err:
                self._read(tmp_path, text)
        assert str(tmp_path / "d.csv") in str(err.value)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_csv(tmp_path / "nope.csv")
