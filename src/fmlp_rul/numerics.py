"""Deterministic numerical kernels: the package RNG and the eigensolver.

Everything here is 64-bit float. The eigensolver is LAPACK's symmetric
solver (``np.linalg.eigh``), applied to one matrix or to a stack of them in
a single call and reordered to descending eigenvalues; the sign convention
below makes its eigenvectors a deterministic function of the input matrix.
"""

import numpy as np

from .errors import NumericError


def seeded_rng(seed: int) -> np.random.Generator:
    """Return the package-wide RNG (PCG64) for a 64-bit seed.

    PCG64 streams are fixed by numpy's random-generator compatibility
    policy, so an identical seed yields an identical stream on every
    platform.
    """
    return np.random.Generator(np.random.PCG64(int(seed)))


def eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric (M, M) matrix or of a (..., M, M)
    stack of them, read from the lower triangle, in one solver call.

    Returns eigenvalues (..., M) in descending order (ties keep LAPACK's
    order) and orthonormal eigenvector columns (..., M, M). Each column is
    flipped so its coordinate sum, taken over a contiguous copy, is > 0 or,
    on an exactly-zero sum, so its first nonzero coordinate is > 0; a stack
    gives the bytes of one call per matrix. Raises ValueError on a
    non-finite entry and NumericError if the solver does not converge.
    """
    a = np.asarray(a, dtype=np.float64)
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolver did not converge: {exc}") from exc
    order = np.argsort(-values, axis=-1, kind="stable")
    values = np.take_along_axis(values, order, axis=-1)
    # Eigenvector j is the contiguous row rows[..., j, :], so each matrix's
    # result is Fortran-ordered: that layout picks the BLAS kernel that
    # projects onto the eigenvectors, and so the last bits of every score.
    rows = np.take_along_axis(np.swapaxes(vectors, -1, -2), order[..., None], axis=-2)
    sums = rows.sum(axis=-1)
    first = np.take_along_axis(rows, (rows != 0.0).argmax(axis=-1)[..., None], axis=-1)[..., 0]
    flip = (sums < 0.0) | ((sums == 0.0) & (first < 0.0))
    return values, np.swapaxes(np.where(flip[..., None], -rows, rows), -1, -2)
