"""Exception hierarchy shared by all fmlp_rul modules, and the rules for
reading JSON values and arrays that configs, artifacts and the model types
share."""

import sys

import numpy as np


class FmlpRulError(Exception):
    """Base class for all errors raised by this package. ``exit_code`` is the
    CLI's exit status for it: 2 usage or config, 3 data or artifact, 4 numeric."""

    exit_code = 3


class ParseError(FmlpRulError):
    """A text input could not be parsed; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class IntegrityError(FmlpRulError):
    """Parsed data violates a structural invariant (counts, cycle order)."""


class NumericError(FmlpRulError):
    """A numerical routine failed (non-convergence, non-finite values)."""

    exit_code = 4


class DegenerateSensorError(NumericError):
    """A sensor with no variation reached a stage that requires variance."""


class TrainingError(FmlpRulError):
    """Model training diverged or was otherwise aborted."""

    exit_code = 4


class ArtifactError(FmlpRulError):
    """A model artifact could not be read (truncation, schema mismatch)."""


class ConfigError(FmlpRulError):
    """An experiment configuration is malformed or has unknown keys."""

    exit_code = 2


def json_number(value, kind: type, name: str, error: type[Exception]):
    """``value`` as ``kind``, int or float: an int must be a JSON integer and
    a float a finite JSON number; true, false, strings and null are neither.
    Otherwise raises ``error`` naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, kind)):
        raise error(f"{name} is {value!r}, expected {'an integer' if kind is int else 'a number'}")
    if kind is float and not abs(value) <= sys.float_info.max:  # NaN, Infinity, a huge integer
        raise error(f"{name} is {value!r}, expected a finite number")
    return kind(value)


def json_block(value, shape: tuple[int, ...], name: str, shape_from: str = "") -> np.ndarray:
    """An artifact's numeric block, a JSON array nested to ``shape`` whose every
    leaf is a float under ``json_number``, as a float64 array. Otherwise raises
    ArtifactError naming the block and ``shape_from``, the shape's source."""
    cells = np.array(value, dtype=object)
    if cells.shape != shape:
        raise ArtifactError(
            f"artifact block {name} has shape {cells.shape}, expected {shape}{shape_from}"
        )
    leaf = f"a leaf of artifact block {name}"
    return np.array([json_number(v, float, leaf, ArtifactError) for v in cells.flat]).reshape(shape)


def check_finite(blocks) -> None:
    """Raise ValueError naming the first of the (name, array) ``blocks`` that
    holds a non-finite entry."""
    for name, value in blocks:
        if not np.isfinite(value).all():
            raise ValueError(f"{name} has a non-finite entry")
