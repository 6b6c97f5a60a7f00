"""Bounded data domain: an axis-aligned box with per-attribute kinds, and
the reader of the numeric CSV files that hold records."""

from __future__ import annotations

import codecs
import csv
import io
import os
import signal
import stat
import warnings
from dataclasses import dataclass, field

import numpy as np

CONTINUOUS = "continuous"
BINARY = "binary"


class DomainError(ValueError):
    """A record or bound violates the declared domain."""


@dataclass(frozen=True)
class Domain:
    """Axis-aligned box bounding all records, with per-attribute kinds.

    Binary attributes must have bounds {0, 1}; continuous attributes need
    finite lower < upper, a finite distance apart.  All records are
    expected to satisfy lower <= x <= upper componentwise.
    """

    lower: tuple[float, ...]
    upper: tuple[float, ...]
    kinds: tuple[str, ...] = field(default=())

    def __post_init__(self):
        lower = tuple(float(v) for v in self.lower)
        upper = tuple(float(v) for v in self.upper)
        kinds = tuple(self.kinds) if self.kinds else (CONTINUOUS,) * len(lower)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "kinds", kinds)
        if not (len(lower) == len(upper) == len(kinds)):
            raise DomainError("lower, upper and kinds must have equal length")
        if len(lower) == 0:
            raise DomainError("domain must have at least one attribute")
        for j, (lo, hi, kind) in enumerate(zip(lower, upper, kinds)):
            if kind == BINARY:
                if (lo, hi) != (0.0, 1.0):
                    raise DomainError(
                        f"binary attribute {j} must have bounds (0, 1), got ({lo}, {hi})"
                    )
            elif kind == CONTINUOUS:
                if not (lo < hi and np.isfinite(hi - lo)):
                    raise DomainError(
                        f"attribute {j} needs finite lower < upper, a finite "
                        f"distance apart, got ({lo}, {hi})"
                    )
            else:
                raise DomainError(f"unknown attribute kind {kind!r}")

    @property
    def d(self) -> int:
        return len(self.lower)

    @property
    def lower_arr(self) -> np.ndarray:
        return np.asarray(self.lower, dtype=float)

    @property
    def upper_arr(self) -> np.ndarray:
        return np.asarray(self.upper, dtype=float)

    @classmethod
    def unit(cls, d: int, kinds: tuple[str, ...] | None = None) -> "Domain":
        """The unit box [0, 1]^d."""
        return cls((0.0,) * d, (1.0,) * d, kinds or (CONTINUOUS,) * d)

    def validate(self, records) -> np.ndarray:
        """Check a (n, d) batch of records against the domain; return the array.

        Every value must lie in its attribute's bounds, and every value of
        a binary attribute must be exactly 0 or 1.
        """
        x = np.atleast_2d(np.asarray(records, dtype=float))
        if x.shape[1] != self.d:
            raise DomainError(f"expected {self.d} attributes, got {x.shape[1]}")
        if not np.all(np.isfinite(x)):
            raise DomainError("records contain non-finite values")
        low = x < self.lower_arr
        high = x > self.upper_arr
        if low.any() or high.any():
            i, j = np.argwhere(low | high)[0]
            raise DomainError(
                f"record {i}, attribute {j}: value {x[i, j]} outside "
                f"[{self.lower[j]}, {self.upper[j]}]"
            )
        binary = [j for j, kind in enumerate(self.kinds) if kind == BINARY]
        if binary:
            labels = x[:, binary]
            bad = (labels != 0.0) & (labels != 1.0)
            if bad.any():
                i, k = np.argwhere(bad)[0]
                raise DomainError(
                    f"record {i}, attribute {binary[k]}: value {labels[i, k]} "
                    f"is not one of the binary classes 0 and 1"
                )
        return x

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw n i.i.d. points: uniform per continuous attribute, fair coin per binary."""
        out = np.empty((n, self.d))
        for j, kind in enumerate(self.kinds):
            if kind == BINARY:
                out[:, j] = rng.integers(0, 2, size=n).astype(float)
            else:
                out[:, j] = rng.uniform(self.lower[j], self.upper[j], size=n)
        return out

    def to_dict(self) -> dict:
        return {
            "lower": list(self.lower),
            "upper": list(self.upper),
            "kinds": list(self.kinds),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Domain":
        return cls(tuple(data["lower"]), tuple(data["upper"]), tuple(data["kinds"]))


# Parsing in worker processes: a body of at least 2 * PART_MIN_BYTES is cut
# at line ends into up to MAX_PARTS parts, one per usable CPU.  Measured on
# 2 cores: loadtxt parses 40-60 MB/s, two workers cost 10-15 ms to fork,
# feed and reap, and splitting broke even near 1 MB per part; a 2 MiB part
# saves about 40 ms.
PART_MIN_BYTES = 2 << 20
MAX_PARTS = 8
LINE_MAX = 1 << 16  # longest header or cut line the split looks for


def read_csv(path) -> tuple[np.ndarray, list[str]]:
    """Read a CSV file of numbers under a header line: (n, d) data, header.

    Blank lines are skipped and fields may be quoted or padded with
    spaces; nothing is read as a comment.  An empty file, a header whose
    quote does not close on its line, a file without data rows, a
    non-numeric value, a row of another width or a non-finite value
    raises DomainError naming the path; OSError propagates.

    A large body is parsed in forked worker processes (see
    _parse_in_parts), with the same result bytes; whenever that cannot
    answer, the body is parsed here, which also raises every error.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DomainError(f"{path}: empty file")
        if reader.line_num > 1:  # the quote took in the lines after it
            raise DomainError(f"{path}: a quote in the header does not "
                              f"close on its line")
        data = _parse_in_parts(fh)
        if data is None:
            try:
                data = _parse(fh)
            except ValueError as err:
                raise DomainError(f"{path}: non-numeric value or ragged row "
                                  f"({err})") from None
    if data.size == 0:
        raise DomainError(f"{path}: no data rows")
    if not np.all(np.isfinite(data)):
        raise DomainError(f"{path}: non-finite value in data")
    return data, header


def _parse(lines) -> np.ndarray:
    """The numbers of a CSV body, from a text stream of its lines."""
    with warnings.catch_warnings():
        # an empty body is reported by read_csv, not as numpy's warning
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(lines, delimiter=",", ndmin=2, comments=None,
                          quotechar='"')


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _cuts(fd: int) -> list[int] | None:
    """Byte offsets that cut the body of the regular file at fd into
    parts, each but the last ending just after a newline, or None for no
    split.

    The body starts after the first line, which must end in "\n" with no
    other "\r" before it: then it is the line csv.reader took as the
    header, whichever newline convention the text reader applied.
    """
    status = os.fstat(fd)
    size = status.st_size
    # a pipe cannot be read by offset; a small file is not read twice
    if not stat.S_ISREG(status.st_mode) or size < 2 * PART_MIN_BYTES:
        return None
    first = os.pread(fd, LINE_MAX, 0)
    start = first.find(b"\n") + 1
    if (start == 0 or b'"' in first[:start]
            or b"\r" in first[:max(start - 2, 0)]):
        return None
    parts = min(_usable_cpus(), MAX_PARTS, (size - start) // PART_MIN_BYTES)
    cuts = [start]
    for i in range(1, parts):
        at = start + i * (size - start) // parts
        end = os.pread(fd, LINE_MAX, at).find(b"\n")
        if end >= 0 and cuts[-1] < at + end + 1 < size:
            cuts.append(at + end + 1)
    return cuts + [size] if len(cuts) > 1 else None


class _Part(io.RawIOBase):
    """Bytes start..stop of the file at fd, read by offset so that the
    file position the worker shares with its parent is left alone.  A
    quote fails the read: a cut may have split a quoted field, and
    loadtxt takes an unterminated quote at the end of its input."""

    def __init__(self, fd: int, start: int, stop: int):
        self._fd, self._pos, self._stop = fd, start, stop

    def readable(self) -> bool:
        return True

    def readinto(self, buf) -> int:
        chunk = os.pread(self._fd, min(len(buf), self._stop - self._pos),
                         self._pos)
        if b'"' in chunk:
            raise ValueError("a quote in a part")
        buf[:len(chunk)] = chunk
        self._pos += len(chunk)
        return len(chunk)


def _receive(fd: int, out: np.ndarray) -> bool:
    """Fill out, a C-contiguous array, from the pipe at fd; False if the
    pipe ends first."""
    view = memoryview(out).cast("B")
    while len(view):
        got = os.readv(fd, [view])
        if got == 0:
            return False
        view = view[got:]
    return True


def _send_part(fd: int, start: int, stop: int, pipes: list[int],
               write_end: int) -> None:
    """In a worker: parse bytes start..stop of the file at fd and write
    (rows, cols) as int64, then the float64 rows, to write_end."""
    for end in pipes:  # the parent's read ends, this worker's own included
        os.close(end)
    part = _parse(io.TextIOWrapper(_Part(fd, start, stop), encoding="utf-8",
                                   newline=""))
    with open(write_end, "wb") as pipe:
        pipe.write(np.array(part.shape, np.int64).tobytes())
        pipe.write(memoryview(part).cast("B"))


def _parse_in_parts(fh) -> np.ndarray | None:
    """The body after the header of the open CSV file fh, parsed in one
    forked worker per part, or None where the one-process parse must
    answer.

    Each worker parses its part with _parse and writes (rows, cols) as
    int64, then its float64 rows, to its own pipe.  The parent reads
    every (rows, cols) first, allocates the result once and reads each
    part's rows straight into its slice.  loadtxt converts each field on
    its own, so the bytes are those of the one-process parse.  None when
    os.fork is missing, the text is not UTF-8 (whose newline and quote
    bytes appear in no other character), _cuts finds no split, a part
    holds a quote, a worker sends a short message, a part has no rows,
    or parts differ in width; the one-process parse then names the bad
    row by its true number.  No worker outlives the call.
    """
    if not hasattr(os, "fork") or codecs.lookup(fh.encoding).name != "utf-8":
        return None
    fd = fh.fileno()
    cuts = _cuts(fd)
    if cuts is None:
        return None
    pids, pipes = [], []
    try:
        for start, stop in zip(cuts, cuts[1:]):
            read_end, write_end = os.pipe()
            pipes.append(read_end)
            try:
                with warnings.catch_warnings():
                    # Python 3.12+ warns on fork in a process with threads,
                    # such as OpenBLAS's pool, because a child that takes a
                    # lock another thread held at the fork may hang.  The
                    # worker takes none: it runs only the parser, preads, a
                    # pipe write and os._exit, and never calls BLAS.
                    warnings.simplefilter("ignore", DeprecationWarning)
                    pid = os.fork()
                    if pid == 0:
                        try:
                            _send_part(fd, start, stop, pipes, write_end)
                        finally:
                            # no exit handler or stream flush of the parent
                            # runs; the parent judges the part by its message
                            os._exit(0)
                    pids.append(pid)
            finally:
                os.close(write_end)
        shapes = np.empty((len(pipes), 2), np.int64)
        if not all(_receive(end, shape) for end, shape in zip(pipes, shapes)):
            return None
        rows, cols = shapes.T
        if rows.min() < 1 or cols.min() != cols.max():
            return None
        data = np.empty((int(rows.sum()), int(cols[0])))
        stops = np.cumsum(rows).tolist()
        for end, stop, n in zip(pipes, stops, rows.tolist()):
            if not _receive(end, data[stop - n:stop]):
                return None
        return data
    except OSError:  # no pipe or fork to be had: parse in this process
        return None
    finally:
        for end in pipes:
            os.close(end)
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
