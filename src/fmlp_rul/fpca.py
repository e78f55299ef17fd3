"""Per-sensor functional principal component bases.

For each retained sensor, the training windows form an N x M matrix of
curve evaluations. The basis is the eigendecomposition of the 1/N sample
covariance matrix, with eigenvectors rescaled by sqrt(M) so they are
orthonormal under the discrete integral (1/M) * sum(f * g).
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateSensorError, check_finite, json_number
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
        raise ValueError(f"sensors have component rows {rows}, expected each in 1..{component_cap}")


@dataclass
class SensorBasis:
    """Mean curve, eigenfunctions, and eigenvalues for one sensor."""

    sensor_id: int  # 1-based C-MAPSS sensor number
    mean: np.ndarray  # (M,)
    eigenvalues: np.ndarray  # (M,) non-increasing, full spectrum
    components: np.ndarray  # (P, M) rows are the selected eigenfunctions

    def __post_init__(self):
        self.sensor_id = json_number(self.sensor_id, int, "sensor_id", ValueError)
        check_finite((name, getattr(self, name)) for name in ("mean", "eigenvalues", "components"))

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
        if not self.sensors:  # the first sensor bounds the grid
            raise ValueError("sensors is empty, expected at least one sensor")
        self.fve_cutoff = json_number(self.fve_cutoff, float, "fve_cutoff", ValueError)
        self.component_cap = json_number(self.component_cap, int, "component_cap", ValueError)
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
    sensor_ids: list[int],
    fve_cutoff: float = DEFAULT_FVE_CUTOFF,
    component_cap: int = DEFAULT_COMPONENT_CAP,
) -> EigenBasis:
    """Fit per-sensor bases from training windows.

    ``sensor_ids`` supplies the 1-based id for each curve row.
    """
    if len(windows) < 2:
        raise ValueError("basis fitting needs at least two windows")
    curves = windows.curves
    n, n_sensors, m = curves.shape
    if len(sensor_ids) != n_sensors:
        raise ValueError(f"{len(sensor_ids)} sensor ids for {n_sensors} curve rows")

    sensors, means = [], curves.mean(axis=0)  # (R, M): one reduction, not R strided ones
    centered = (curves[:, r, :] - mean for r, mean in enumerate(means))
    spectra = eigh(np.stack([c.T @ c / n for c in centered]))  # one solve for all R
    for sensor_id, mean, values, vectors in zip(sensor_ids, means, *spectra):
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
