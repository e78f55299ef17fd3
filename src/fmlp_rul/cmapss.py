"""Readers for C-MAPSS-format turbofan data files.

A trajectory file holds one observation per line: unit id, cycle, three
operating settings, and 21 sensor readings, whitespace separated. Fields
past column 26 (trailing blanks in some distributions) are ignored. Unit
ids and cycles are whole numbers below 2**63 in magnitude, every reading
is finite, and each unit's rows form one contiguous block. A parsed file
is one Trajectories split: an array per field, and each unit's offset.
A RUL file holds one non-negative integer per line in ASCII digits,
aligned to test-unit order.
"""

import io
import os
import re
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple, TextIO

import numpy as np

from .errors import IntegrityError, ParseError

N_SETTINGS = 3
N_SENSORS = 21
N_COLUMNS = 2 + N_SETTINGS + N_SENSORS

SUBSET_IDS = ("FD001", "FD002", "FD003", "FD004")

# Per-subset sliding-window length M_d.
WINDOW_LENGTHS = {"FD001": 31, "FD002": 21, "FD003": 38, "FD004": 19}


class Trajectory(NamedTuple):
    """One unit's rows of a split, as views into the split's read-only arrays."""

    unit_id: int
    cycles: np.ndarray
    op_settings: np.ndarray
    sensors: np.ndarray


def _read_only(values, dtype) -> np.ndarray:
    view = np.asarray(values, dtype=dtype).view()  # the caller's array stays writeable
    view.flags.writeable = False
    return view


class Trajectories:
    """One split of a subset, built from per-row unit ids, cycles, settings
    and readings: unit_ids (U,) in file order, offsets (U + 1,), and the
    read-only cycles (n,), op_settings (n, 3) and sensors (n, 21), of which
    unit i owns rows offsets[i] to offsets[i + 1]. Indexing, and so
    iterating, gives a unit's Trajectory.

    A unit's rows must form one contiguous block, its id must be positive,
    its cycles must run 1, 2, 3, ... and its readings must be finite. The
    IntegrityError names the first unit that breaks a rule, and its first
    rule in that order."""

    def __init__(self, units, cycles, op_settings, sensors):
        units = np.asarray(units, dtype=np.int64)
        n = len(units)
        self.cycles = _read_only(cycles, np.int64)
        self.op_settings = _read_only(op_settings, np.float64)
        self.sensors = _read_only(sensors, np.float64)
        shapes = [a.shape for a in (units, self.cycles, self.op_settings, self.sensors)]
        if shapes != [(n,), (n,), (n, N_SETTINGS), (n, N_SENSORS)]:
            raise IntegrityError(
                f"expected unit ids, cycles, settings and sensors of shapes ({n},), ({n},),"
                f" ({n}, {N_SETTINGS}) and ({n}, {N_SENSORS}), got {shapes}"
            )
        first = np.ones(n, dtype=bool)
        first[1:] = units[1:] != units[:-1]
        self.offsets = _read_only(np.append(np.flatnonzero(first), n), np.int64)
        self.unit_ids = _read_only(units[self.offsets[:-1]], np.int64)

        repeated = np.ones(len(self), dtype=bool)
        repeated[np.unique(self.unit_ids, return_index=True)[1]] = False
        run = np.arange(n) - np.repeat(self.offsets[:-1] - 1, self.lengths)  # 1, 2, ... per unit
        bad_cycle, bad_reading = np.flatnonzero(self.cycles != run)[:1], np.zeros(0, np.int64)
        if not (np.isfinite(self.op_settings).all() and np.isfinite(self.sensors).all()):
            finite = np.isfinite(self.op_settings).all(1) & np.isfinite(self.sensors).all(1)
            bad_reading = np.flatnonzero(~finite)[:1]
        rules = [  # each rule's first offending unit, and its message
            (np.flatnonzero(repeated)[:1],
             "unit {unit}: rows must form one contiguous block, found a second block"),
            (np.flatnonzero(self.unit_ids <= 0)[:1], "unit id must be positive, got {unit}"),
            (np.searchsorted(self.offsets, bad_cycle, "right") - 1,
             "unit {unit}: cycles must start at 1 and increase by 1"),
            (np.searchsorted(self.offsets, bad_reading, "right") - 1,
             "unit {unit}: non-finite setting or sensor reading at cycle {cycle}"),
        ]
        broken = [(at[0], k) for k, (at, _) in enumerate(rules) if at.size]
        if broken:
            i, k = min(broken)  # the earliest unit; within it, the earliest rule
            cycle = self.cycles[bad_reading[0]] if bad_reading.size else None
            raise IntegrityError(rules[k][1].format(unit=self.unit_ids[i], cycle=cycle))

    @property
    def lengths(self) -> np.ndarray:
        """(U,) row counts, one per unit."""
        return np.diff(self.offsets)

    def __len__(self) -> int:
        return len(self.unit_ids)

    def __getitem__(self, i: int) -> Trajectory:
        i = range(len(self))[i]  # IndexError past the end, which also ends iteration
        rows = slice(self.offsets[i], self.offsets[i + 1])
        return Trajectory(
            int(self.unit_ids[i]), self.cycles[rows], self.op_settings[rows], self.sensors[rows]
        )


@dataclass
class DataSubset:
    """A C-MAPSS subset: run-to-failure training units, truncated test units,
    and the true test RULs."""

    subset_id: str
    train: Trajectories
    test: Trajectories
    test_rul: list[int]

    def __post_init__(self):
        if self.subset_id not in SUBSET_IDS:
            raise IntegrityError(f"unknown subset id {self.subset_id!r}")
        if len(self.test_rul) != len(self.test):
            raise IntegrityError(
                f"{self.subset_id}: {len(self.test_rul)} RUL values for"
                f" {len(self.test)} test units"
            )

    @property
    def window_length(self) -> int:
        return WINDOW_LENGTHS[self.subset_id]


def _as_lines(stream: TextIO | str | Iterable[str]) -> Iterable[str]:
    if isinstance(stream, str):
        return io.StringIO(stream)
    return stream


def _named_file(stream) -> Path | None:
    """The path of a text file opened by name on a regular *.txt file and
    not yet read, which numpy can read again in blocks; None otherwise.

    numpy opens a name through its DataSource, which decompresses names
    ending in .gz, .bz2, .xz or .lzma, tries those suffixes when the name
    is missing, and downloads a name with a URL scheme and host. The *.txt
    rule, the regular-file check and Path, which folds "//" so that no
    name reads as a URL, keep all three out.
    """
    name = getattr(stream, "name", None)
    if (
        isinstance(stream, io.TextIOWrapper)
        and isinstance(name, str)
        and name.endswith(".txt")
        and stream.errors == "strict"
        and stream.tell() == 0
        and os.path.isfile(name)
    ):
        return Path(name)
    return None


def _read_rows(source: Path | list[str], encoding: str | None = None) -> np.ndarray:
    """The first N_COLUMNS fields of every non-blank line, as floats."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(
            source, usecols=range(N_COLUMNS), ndmin=2, comments=None, encoding=encoding
        )


def _whole(values: np.ndarray) -> np.ndarray:
    return (np.abs(values) < 2.0**63) & (np.trunc(values) == values)  # whole, within int64


def _first_bad_line(lines: list[str]) -> ParseError:
    """Read the lines one at a time and report the first malformed one.

    Runs only after the array read failed, to name the line: the reader
    numbers rows without the blank lines.
    """
    for line_no, line in enumerate(lines, start=1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) < N_COLUMNS:
            return ParseError(
                line_no, f"expected at least {N_COLUMNS} fields, got {len(parts)}"
            )
        try:
            for text in parts[:N_COLUMNS]:
                float(text)
            # The array reader rejects some text that float() accepts ("1_0").
            row = _read_rows([line])[0]
        except ValueError as exc:
            return ParseError(line_no, f"malformed numeric field ({exc})")
        for text, value in zip(parts[:2], row[:2]):
            if not _whole(value):
                return ParseError(
                    line_no,
                    f"malformed numeric field (unit and cycle must be integers"
                    f" of magnitude below 2**63, got {text!r})",
                )
    return ParseError(len(lines), "unreadable trajectory file")


def parse_trajectory_file(stream: TextIO | str | Iterable[str]) -> Trajectories:
    """Parse a train/test trajectory file into one split.

    Units appear in file order, each as one contiguous block of rows.
    Raises ParseError for a malformed line (too few fields, a non-numeric
    field, a unit or cycle that is not a whole number below 2**63 in
    magnitude) and IntegrityError for a unit whose rows are split into
    separate blocks, non-contiguous cycles, or a non-finite reading.

    A text file opened by name on a regular *.txt file is read by that
    name in numpy's block reader; any other input is read as a list of
    lines. Both give the same arrays and the same errors.
    """
    path = _named_file(stream)
    lines = None if path else list(_as_lines(stream))
    try:
        data = _read_rows(path, stream.encoding) if path else _read_rows(lines)
        if not _whole(data[:, :2]).all():
            raise ValueError("unit or cycle is not a whole number")
    except UnicodeDecodeError:
        raise  # read_file names the line
    except ValueError:
        raise _first_bad_line(list(stream) if path else lines) from None
    units, cycles = data[:, :2].astype(np.int64).T
    return Trajectories(units, cycles, data[:, 2 : 2 + N_SETTINGS], data[:, 2 + N_SETTINGS :])


_INTEGER = re.compile(r"[+-]?[0-9]+")


def parse_rul_file(stream: TextIO | str | Iterable[str]) -> list[int]:
    """Parse a RUL file: one non-negative integer per non-empty line, written
    as an optional sign and the ASCII digits 0-9."""
    values = []
    for line_no, line in enumerate(_as_lines(stream), start=1):
        text = line.strip()
        if not text:
            continue
        try:
            if not _INTEGER.fullmatch(text):  # int() also reads "1_0" and non-ASCII digits
                raise ValueError(text)
            value = int(text)
        except ValueError:  # also an integer of over 4300 digits
            raise ParseError(line_no, f"expected an integer, got {text!r}") from None
        if value < 0:
            raise ParseError(line_no, f"RUL must be non-negative, got {value}")
        values.append(value)
    return values


def read_file(path: str | Path, parse):
    """parse(stream) on a file opened as UTF-8 text; bytes that are not
    UTF-8 raise ParseError at their line."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh)
    except UnicodeDecodeError:
        # The stream decodes in chunks; decode the whole file to find the line.
        data = Path(path).read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line_no = data.count(b"\n", 0, exc.start) + 1
            raise ParseError(line_no, f"{path} is not UTF-8 text ({exc.reason})") from None
        raise


def load_subset(
    root_dir: str | Path, subset_id: str, splits: Iterable[str] = ("train", "test")
) -> DataSubset:
    """Load a subset's files from a directory: train_FD00x.txt for the
    "train" split, test_FD00x.txt and RUL_FD00x.txt for the "test" split.

    A split that is not requested stays empty, and its files need not exist.
    A requested file that holds no data raises IntegrityError.
    """
    if subset_id not in SUBSET_IDS:
        raise IntegrityError(f"unknown subset id {subset_id!r}")
    root = Path(root_dir)
    names = {"train": ["train"], "test": ["test", "RUL"]}
    paths = {
        name: root / f"{name}_{subset_id}.txt"
        for split in splits
        for name in names[split]
    }
    for path in paths.values():
        if not path.is_file():
            raise FileNotFoundError(f"missing data file: {path}")

    def read(name, parse):
        if name not in paths:
            return parse("")
        values = read_file(paths[name], parse)
        if not values:
            raise IntegrityError(f"data file {paths[name]} holds no data")
        return values

    return DataSubset(
        subset_id=subset_id,
        train=read("train", parse_trajectory_file),
        test=read("test", parse_trajectory_file),
        test_rul=read("RUL", parse_rul_file),
    )
