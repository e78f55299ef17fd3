"""Deterministic numerical kernels: the package RNG and the eigensolver.

Everything here is 64-bit float. The eigensolver is LAPACK's symmetric
solver (``np.linalg.eigh``), reordered to descending eigenvalues; the sign
convention below makes its eigenvectors a deterministic function of the
input matrix.
"""

import numpy as np

from .errors import NumericError

ASYMMETRY_TOL = 1e-10


def seeded_rng(seed: int) -> np.random.Generator:
    """Return the package-wide RNG (PCG64) for a 64-bit seed.

    PCG64 streams are fixed by numpy's random-generator compatibility
    policy, so an identical seed yields an identical stream on every
    platform.
    """
    return np.random.Generator(np.random.PCG64(int(seed)))


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Return (A + A^T)/2 after checking A is square and nearly symmetric."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    if np.max(np.abs(a - a.T), initial=0.0) > ASYMMETRY_TOL * max(1.0, np.max(np.abs(a))):
        raise ValueError("matrix is not symmetric within tolerance")
    return (a + a.T) / 2.0


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip eigenvector columns so each coordinate sum is >= 0.

    On an exactly-zero sum the first nonzero coordinate is made positive,
    which makes the decomposition a deterministic function of its input.
    """
    for j in range(vectors.shape[1]):
        s = vectors[:, j].sum()
        if s < 0.0:
            vectors[:, j] = -vectors[:, j]
        elif s == 0.0:
            nonzero = np.nonzero(vectors[:, j])[0]
            if nonzero.size and vectors[nonzero[0], j] < 0.0:
                vectors[:, j] = -vectors[:, j]
    return vectors


def eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix.

    Returns (eigenvalues, eigenvectors) with eigenvalues sorted in
    descending order and eigenvectors as orthonormal columns, sign-fixed
    per ``_fix_signs``.

    Raises NumericError if the solver does not converge.
    """
    try:
        values, vectors = np.linalg.eigh(symmetrize(a))
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolver did not converge: {exc}") from exc
    order = np.argsort(-values, kind="stable")
    return values[order], _fix_signs(vectors[:, order])
