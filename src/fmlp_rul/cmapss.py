"""Readers for C-MAPSS-format turbofan data files.

A trajectory file holds one observation per line: unit id, cycle, three
operating settings, and 21 sensor readings, whitespace separated. Fields
past column 26 (trailing blanks in some distributions) are ignored. Unit
ids and cycles are whole numbers below 2**63 in magnitude, every reading
is finite, and each unit's rows form one contiguous block. A RUL file
holds one non-negative integer per line in ASCII digits, aligned to
test-unit order.
"""

import io
import os
import re
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, TextIO

import numpy as np

from .errors import IntegrityError, ParseError

N_SETTINGS = 3
N_SENSORS = 21
N_COLUMNS = 2 + N_SETTINGS + N_SENSORS

SUBSET_IDS = ("FD001", "FD002", "FD003", "FD004")

# Per-subset sliding-window length M_d.
WINDOW_LENGTHS = {"FD001": 31, "FD002": 21, "FD003": 38, "FD004": 19}


@dataclass
class EngineTrajectory:
    """One engine's cycle-indexed record of settings and sensor readings.

    Settings and readings must be finite.
    """

    unit_id: int
    cycles: np.ndarray
    op_settings: np.ndarray
    sensors: np.ndarray

    def __post_init__(self):
        self.cycles = np.asarray(self.cycles, dtype=np.int64)
        self.op_settings = np.asarray(self.op_settings, dtype=np.float64)
        self.sensors = np.asarray(self.sensors, dtype=np.float64)
        n = len(self.cycles)
        if self.unit_id <= 0:
            raise IntegrityError(f"unit id must be positive, got {self.unit_id}")
        if n == 0:
            raise IntegrityError(f"unit {self.unit_id}: empty trajectory")
        if self.cycles[0] != 1 or (n > 1 and np.any(np.diff(self.cycles) != 1)):
            raise IntegrityError(
                f"unit {self.unit_id}: cycles must start at 1 and increase by 1"
            )
        if self.op_settings.shape != (n, N_SETTINGS):
            raise IntegrityError(
                f"unit {self.unit_id}: expected {n}x{N_SETTINGS} settings,"
                f" got {self.op_settings.shape}"
            )
        if self.sensors.shape != (n, N_SENSORS):
            raise IntegrityError(
                f"unit {self.unit_id}: expected {n}x{N_SENSORS} sensors,"
                f" got {self.sensors.shape}"
            )
        finite = np.isfinite(self.op_settings).all(axis=1) & np.isfinite(
            self.sensors
        ).all(axis=1)
        if not finite.all():
            cycle = self.cycles[np.argmin(finite)]
            raise IntegrityError(
                f"unit {self.unit_id}: non-finite setting or sensor reading"
                f" at cycle {cycle}"
            )

    @property
    def n_cycles(self) -> int:
        return len(self.cycles)


@dataclass
class DataSubset:
    """A C-MAPSS subset: run-to-failure training units, truncated test units,
    and the true test RULs."""

    subset_id: str
    train: list[EngineTrajectory]
    test: list[EngineTrajectory]
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


def parse_trajectory_file(stream: TextIO | str | Iterable[str]) -> list[EngineTrajectory]:
    """Parse a train/test trajectory file into one trajectory per unit.

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
    if not len(data):
        return []

    units = data[:, 0].astype(np.int64)
    cycles = data[:, 1].astype(np.int64)
    starts = np.flatnonzero(np.diff(units)) + 1
    trajectories = []
    seen = set()
    for lo, hi in zip([0, *starts], [*starts, len(units)]):
        unit = int(units[lo])
        if unit in seen:
            raise IntegrityError(
                f"unit {unit}: rows must form one contiguous block,"
                " found a second block"
            )
        seen.add(unit)
        trajectories.append(
            EngineTrajectory(
                unit_id=unit,
                cycles=cycles[lo:hi],
                op_settings=data[lo:hi, 2 : 2 + N_SETTINGS],
                sensors=data[lo:hi, 2 + N_SETTINGS :],
            )
        )
    return trajectories


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
            return []
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
