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


def sample_mean(x: np.ndarray) -> np.ndarray:
    """Columnwise mean of an N x M curve matrix."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError(f"expected a nonempty N x M matrix, got shape {x.shape}")
    return x.mean(axis=0)


def sample_covariance(x: np.ndarray) -> np.ndarray:
    """M x M sample covariance with 1/N normalization."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("covariance needs at least two curves")
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / x.shape[0]
    return (cov + cov.T) / 2.0


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

    def component_slices(self) -> list[slice]:
        """Column ranges of each sensor's scores in a flattened score vector."""
        slices, start = [], 0
        for s in self.sensors:
            slices.append(slice(start, start + s.num_components))
            start += s.num_components
        return slices


def fit_sensor_basis(
    x: np.ndarray,
    sensor_id: int,
    fve_cutoff: float = DEFAULT_FVE_CUTOFF,
    cap: int = DEFAULT_COMPONENT_CAP,
) -> SensorBasis:
    """Basis for one sensor from its N x M curve matrix."""
    values, vectors = eigh(sample_covariance(x))
    if values[-1] < _NEGATIVE_EIG_TOL:
        raise DegenerateSensorError(
            f"sensor {sensor_id}: eigenvalue {values[-1]} below PSD tolerance"
        )
    values = np.maximum(values, 0.0)
    p = select_num_components(values, fve_cutoff, cap)
    m = x.shape[1]
    # sqrt(M) rescaling makes the rows orthonormal under discrete_integral.
    components = np.sqrt(m) * vectors[:, :p].T
    return SensorBasis(
        sensor_id=sensor_id,
        mean=sample_mean(x),
        eigenvalues=values,
        components=components,
    )


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
    curves = windows.curves  # (N, R, M)
    n_sensors = curves.shape[1]
    if sensor_ids is None:
        sensor_ids = list(range(1, n_sensors + 1))
    if len(sensor_ids) != n_sensors:
        raise ValueError(f"{len(sensor_ids)} sensor ids for {n_sensors} curve rows")

    sensors = [
        fit_sensor_basis(curves[:, r, :], sensor_ids[r], fve_cutoff, component_cap)
        for r in range(n_sensors)
    ]
    return EigenBasis(sensors=sensors, fve_cutoff=fve_cutoff, component_cap=component_cap)


def project(basis: EigenBasis, windows: Windows) -> np.ndarray:
    """Scores <phi_{r,p}, X_{i,r}> under the discrete integral, as an
    N x total_components matrix in sensor-major column order."""
    curves = windows.curves
    if curves.shape[1] != len(basis.sensors):
        raise ValueError(
            f"windows have {curves.shape[1]} curves, basis has {len(basis.sensors)}"
        )
    m = curves.shape[2]
    blocks = [
        curves[:, r, :] @ basis.sensors[r].components.T / m
        for r in range(len(basis.sensors))
    ]
    return np.concatenate(blocks, axis=1)


def projection_residual_mse(basis: EigenBasis, windows: Windows) -> float:
    """Mean squared residual of centered curves after projecting onto each
    sensor's selected eigenfunctions (brute-force check value)."""
    total, count = 0.0, 0
    for r, sensor in enumerate(basis.sensors):
        centered = windows.curves[:, r, :] - sensor.mean
        m = centered.shape[1]
        coeffs = centered @ sensor.components.T / m
        recon = coeffs @ sensor.components
        total += np.sum((centered - recon) ** 2)
        count += centered.size
    return total / count
