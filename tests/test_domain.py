import math
import os
import time
import warnings

import numpy as np
import pytest

from dpsketch import Domain, DomainError, domain, read_csv

MALFORMED = [
    ("", "empty file"),
    ("x,y\n", "no data rows"),
    ("x,y\n\n\n", "no data rows"),
    ("x,y\n1,2\n3\n", "non-numeric value"),         # ragged
    ("x,y\n1,2\n3,4,5\n", "non-numeric value"),     # ragged
    ("x,y\n1,oops\n", "non-numeric value"),
    ("x,y\n#1,2\n", "non-numeric value"),          # not a comment
    ("x,y\n1,nan\n", "non-finite value"),
    ("x,y\n-inf,2\n", "non-finite value"),
    ('"x,y\n1,2\n', "quote in the header does not close"),
]


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

    @pytest.mark.parametrize("text, words", MALFORMED)
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


def _outcome(path):
    """read_csv's data bytes, shape and header, or its error message."""
    try:
        data, header = read_csv(path)
    except DomainError as err:
        return str(err)
    return data.tobytes(), data.shape, header


def _one_process_outcome(monkeypatch, path):
    with monkeypatch.context() as patch:
        patch.setattr(domain, "PART_MIN_BYTES", 1 << 62)
        return _outcome(path)


def _rows(n, end="\n"):
    values = np.random.default_rng(1).normal(scale=1e3, size=(n, 2))
    return "".join(f"{a!r},{b!r}{end}" for a, b in values.tolist())


def _bit_equal_values():
    values = np.random.default_rng(0).normal(scale=1e3, size=(500, 4))
    values[0] = [0.1, -0.0, 1e-300, 5e-324]
    return "".join(",".join(map(repr, row)) + "\n" for row in values.tolist())


class TestReadCsvInParts:
    """A body split among worker processes reads as one process reads it."""

    @pytest.mark.parametrize("text, splits", [
        ("x,y\r\n" + _rows(40, "\r\n"), True),                    # CRLF
        ("x,y\n" + "".join(f"{i},{i}.5\n" + "\n" * 30 for i in range(12)),
         True),                                    # blank lines at a cut
        ("x,y\n" + _rows(40).rstrip("\n"), True),   # no newline at the end
        ("a,b,c,d\n" + _bit_equal_values(), True),
        ("x,y\r" + _rows(40, "\r"), False),                 # \r endings
        ("x,y\r" + _rows(40), False),            # only the header ends in \r
        ("x,y\n1.5,2\n", False),                           # one data row
    ], ids=["crlf", "blank-lines-at-cut", "no-final-newline", "bit-equal",
            "cr-only", "cr-header", "one-row"])
    def test_same_bytes_as_one_process(self, tmp_path, monkeypatch,
                                       csv_parts, text, splits):
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode())
        assert _outcome(path) == _one_process_outcome(monkeypatch, path)
        assert csv_parts[0] is splits
        if "\n\n" in text:  # some part starts on a blank line
            with open(path, "rb") as fh:
                cuts = domain._cuts(fh.fileno())
            assert any(text[cut] == "\n" for cut in cuts[1:-1])

    @pytest.mark.parametrize("text, words", MALFORMED)
    def test_bad_row_in_a_later_part_names_it_as_one_process(
            self, tmp_path, monkeypatch, csv_parts, text, words):
        header, _, body = text.partition("\n")
        if body.strip():  # the bad row goes after 200 good ones
            text = header + "\n" + "1,2\n" * 200 + body
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode())
        message = _outcome(path)
        assert words in message and str(path) in message
        assert message == _one_process_outcome(monkeypatch, path)
        # only the finite check, after the parse, fails on parts' numbers;
        # an empty file or an unclosed header quote fails before the parse
        parsed = text and not text.startswith('"')
        assert csv_parts[:1] == ([words == "non-finite value"] if parsed
                                 else [])

    def test_parts_of_another_width_name_the_row_as_one_process(
            self, tmp_path, monkeypatch, csv_parts):
        # two parts, cut exactly where the rows turn three wide
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        path = tmp_path / "d.csv"
        path.write_bytes(("x,y\n" + "1,2\n" * 101 + "1,2,3\n" * 67).encode())
        with open(path, "rb") as fh:
            assert domain._cuts(fh.fileno()) == [4, 4 + 404, 4 + 806]
        message = _outcome(path)
        assert "non-numeric value or ragged row" in message
        assert message == _one_process_outcome(monkeypatch, path)
        assert csv_parts[0] is False

    @pytest.mark.parametrize("text", [
        "x,y\n" + _rows(40) + '"1.5","2"\n' + _rows(40),
        "x,y\n" + _rows(40) + '3,"4\n' + _rows(40),
        '"x,y\n' + _rows(80),  # the header's quote would take in the file
    ], ids=["quoted-fields", "unterminated-in-body", "unterminated-header"])
    def test_a_quote_is_parsed_in_one_process(self, tmp_path, monkeypatch,
                                              csv_parts, text):
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode())
        outcome = _outcome(path)
        assert outcome == _one_process_outcome(monkeypatch, path)
        if text.startswith('"'):  # rejected before the body is parsed
            assert outcome == (f"{path}: a quote in the header does not "
                               f"close on its line")
            assert csv_parts == []
        else:
            assert csv_parts[0] is False

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="counts descriptors in /proc/self/fd")
    @pytest.mark.parametrize("case", ["read", "bad-row", "worker-fails",
                                      "interrupted"])
    def test_no_worker_or_descriptor_outlives_the_read(
            self, tmp_path, monkeypatch, csv_parts, case):
        path = tmp_path / "d.csv"
        bad = "1,oops\n" if case == "bad-row" else ""
        path.write_bytes(("x,y\n" + _rows(80) + bad).encode())
        parent = os.getpid()
        if case == "worker-fails":
            parse = domain._parse

            def failing(lines):
                if os.getpid() != parent:
                    raise ValueError("worker failed")
                return parse(lines)

            monkeypatch.setattr(domain, "_parse", failing)
        if case == "interrupted":  # while the workers still parse
            def hang(lines):
                time.sleep(60)

            def interrupt(fd, out):
                raise KeyboardInterrupt

            monkeypatch.setattr(domain, "_parse", hang)
            monkeypatch.setattr(domain, "_receive", interrupt)
        descriptors = len(os.listdir("/proc/self/fd"))
        if case == "interrupted":
            start = time.monotonic()
            with pytest.raises(KeyboardInterrupt):
                read_csv(path)
            assert time.monotonic() - start < 30  # killed, not waited for
        else:
            outcome = _outcome(path)
            assert csv_parts == [case == "read"]
            assert outcome == _one_process_outcome(monkeypatch, path)
        assert os.getpid() == parent
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert len(os.listdir("/proc/self/fd")) == descriptors

    def test_no_warning_when_warnings_are_errors(self, tmp_path, csv_parts):
        path = tmp_path / "d.csv"
        path.write_bytes(("x,y\n" + _rows(80)).encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            read_csv(path)
        assert csv_parts == [True]

    @pytest.mark.parametrize("case", ["no-fork", "one-cpu"])
    def test_falls_back_to_one_process(self, tmp_path, monkeypatch,
                                       csv_parts, case):
        if case == "no-fork":
            monkeypatch.delattr(os, "fork")
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        path = tmp_path / "d.csv"
        path.write_bytes(("x,y\n" + _rows(80)).encode())
        assert _outcome(path) == _one_process_outcome(monkeypatch, path)
        assert csv_parts[0] is False

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"),
                        reason="names a pipe as /dev/fd/N")
    def test_a_pipe_is_parsed_in_one_process(self, tmp_path, csv_parts):
        text = "x,y\n" + _rows(80)
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode())
        read_end, write_end = os.pipe()
        with os.fdopen(write_end, "wb") as pipe:
            pipe.write(text.encode())  # fits the pipe's buffer
        try:
            data, header = read_csv(f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)
        assert (data.tobytes(), data.shape, header) == _outcome(path)
        assert csv_parts == [False, True]
