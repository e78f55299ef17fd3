"""Per-sensor functional principal component bases.

For each retained sensor, the training windows form an N x M matrix of
curve evaluations. The basis is the eigendecomposition of the 1/N sample
covariance matrix, with eigenvectors rescaled by sqrt(M) so they are
orthonormal under the discrete integral (1/M) * sum(f * g).
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateSensorError
from .numerics import eigh
from .preprocess import Windows

DEFAULT_FVE_CUTOFF = 0.80
DEFAULT_COMPONENT_CAP = 2

# Eigenvalues of a PSD covariance below this are numeric noise and are
# clamped to zero; anything more negative is an error.
_NEGATIVE_EIG_TOL = -1e-10


def select_num_components(
    eigenvalues: np.ndarray,
    fve_cutoff: float = DEFAULT_FVE_CUTOFF,
    cap: int = DEFAULT_COMPONENT_CAP,
) -> int:
    """Smallest p whose cumulative fraction of variance reaches the cutoff,
    then capped; the result is always at least 1."""
    values = np.asarray(eigenvalues, dtype=np.float64)
    total = values.sum()
    if total <= 0.0:
        raise DegenerateSensorError(
            "all eigenvalues are zero; constant sensors must be excluded upstream"
        )
    fve = np.cumsum(values) / total
    p_fve = int(np.searchsorted(fve, fve_cutoff - 1e-15) + 1)
    return max(1, min(p_fve, cap))


def check_basis_settings(fve_cutoff: float, component_cap: int, rows: Sequence[int] = ()) -> None:
    """Raise ValueError unless fve_cutoff is in (0, 1], component_cap > 0
    and each sensor's count of component ``rows`` is in 1..component_cap."""
    if not 0.0 < fve_cutoff <= 1.0:
        raise ValueError(f"fve_cutoff must be in (0, 1], got {fve_cutoff}")
    if not component_cap > 0:
        raise ValueError(f"component_cap must be > 0, got {component_cap}")
    if not all(1 <= p <= component_cap for p in rows):
        raise ValueError(f"component rows {rows} must each be in 1..component_cap {component_cap}")


@dataclass
class SensorBasis:
    """Mean curve, eigenfunctions, and eigenvalues for one sensor."""

    sensor_id: int  # 1-based C-MAPSS sensor number
    mean: np.ndarray  # (M,)
    eigenvalues: np.ndarray  # (M,) non-increasing, full spectrum
    components: np.ndarray  # (P, M) rows are the selected eigenfunctions

    @property
    def num_components(self) -> int:
        return len(self.components)

    @property
    def fve(self) -> np.ndarray:
        """Cumulative fraction of variance explained, per component."""
        return np.cumsum(self.eigenvalues) / self.eigenvalues.sum()


@dataclass
class EigenBasis:
    """Per-sensor eigenfunction bases sharing one observation grid."""

    sensors: list[SensorBasis]
    fve_cutoff: float
    component_cap: int

    def __post_init__(self):
        rows = [s.num_components for s in self.sensors]
        check_basis_settings(self.fve_cutoff, self.component_cap, rows)

    @property
    def grid(self) -> np.ndarray:
        """The grid 1..M that every sensor's curves are sampled on."""
        return np.arange(1.0, len(self.sensors[0].mean) + 1)

    @property
    def total_components(self) -> int:
        return sum(s.num_components for s in self.sensors)


def fit_basis(
    windows: Windows,
    sensor_ids: list[int] | None = None,
    fve_cutoff: float = DEFAULT_FVE_CUTOFF,
    component_cap: int = DEFAULT_COMPONENT_CAP,
) -> EigenBasis:
    """Fit per-sensor bases from training windows.

    ``sensor_ids`` supplies the 1-based id for each curve row; defaults to
    1..R in row order.
    """
    if len(windows) < 2:
        raise ValueError("basis fitting needs at least two windows")
    curves = windows.curves
    n, n_sensors, m = curves.shape
    if sensor_ids is None:
        sensor_ids = list(range(1, n_sensors + 1))
    if len(sensor_ids) != n_sensors:
        raise ValueError(f"{len(sensor_ids)} sensor ids for {n_sensors} curve rows")

    sensors = []
    for r, sensor_id in enumerate(sensor_ids):
        x = curves[:, r, :]
        mean = x.mean(axis=0)
        centered = x - mean
        values, vectors = eigh(centered.T @ centered / n)  # eigh symmetrizes
        if values[-1] < _NEGATIVE_EIG_TOL:
            raise DegenerateSensorError(
                f"sensor {sensor_id}: eigenvalue {values[-1]} below PSD tolerance"
            )
        values = np.maximum(values, 0.0)
        p = select_num_components(values, fve_cutoff, component_cap)
        # sqrt(M) rescaling makes the rows orthonormal under the discrete
        # integral mean(f * g).
        components = np.sqrt(m) * vectors[:, :p].T
        sensors.append(SensorBasis(sensor_id, mean, values, components))
    return EigenBasis(sensors=sensors, fve_cutoff=fve_cutoff, component_cap=component_cap)


def project(basis: EigenBasis, windows: Windows, out: np.ndarray) -> np.ndarray:
    """Scores <phi_{r,p}, X_{i,r}> under the discrete integral, in
    sensor-major column order, written in place into the first
    D = total_components columns of ``out`` (N, >= D); returns ``out``."""
    curves = windows.curves
    if curves.shape[1] != len(basis.sensors):
        raise ValueError(
            f"windows have {curves.shape[1]} curves, basis has {len(basis.sensors)}"
        )
    stop = 0
    for r, sensor in enumerate(basis.sensors):
        start, stop = stop, stop + len(sensor.components)
        np.matmul(curves[:, r, :], sensor.components.T, out=out[:, start:stop])
    scores = out[:, :stop]
    scores /= curves.shape[2]
    return out
