"""Input validation helpers.

Every public entry point of the library validates its inputs with these
functions so error messages are consistent and informative.  All functions
either return a normalised :class:`numpy.ndarray` or raise
:class:`repro.exceptions.ValidationError`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import DataError, RRMatrixError, ValidationError
from repro.utils.scalars import check_in_unit_interval, check_positive_int  # noqa: F401

#: Tolerance used when checking that probabilities sum to one.
PROBABILITY_ATOL = 1e-8


def check_probability_vector(
    probabilities: Sequence[float] | np.ndarray,
    name: str = "probabilities",
    *,
    atol: float = PROBABILITY_ATOL,
) -> np.ndarray:
    """Validate a probability vector and return it as ``float64`` array.

    The vector must be one-dimensional, non-empty, non-negative, finite and
    sum to one (within ``atol``).
    """
    array = np.asarray(probabilities, dtype=np.float64)
    if array.ndim != 1:
        raise DataError(f"{name} must be one-dimensional, got shape {array.shape}")
    if array.size == 0:
        raise DataError(f"{name} must not be empty")
    if not np.all(np.isfinite(array)):
        raise DataError(f"{name} must contain only finite values")
    if np.any(array < -atol):
        raise DataError(f"{name} must be non-negative, got minimum {array.min()}")
    total = float(array.sum())
    if not np.isclose(total, 1.0, atol=atol, rtol=0.0):
        raise DataError(f"{name} must sum to 1, got {total}")
    return np.clip(array, 0.0, 1.0)


def normalize_probabilities(
    weights: Sequence[float] | np.ndarray,
    name: str = "weights",
) -> np.ndarray:
    """Normalise non-negative ``weights`` into a probability vector."""
    array = np.asarray(weights, dtype=np.float64)
    if array.ndim != 1 or array.size == 0:
        raise DataError(f"{name} must be a non-empty one-dimensional sequence")
    if not np.all(np.isfinite(array)):
        raise DataError(f"{name} must contain only finite values")
    if np.any(array < 0):
        raise DataError(f"{name} must be non-negative")
    total = float(array.sum())
    if total <= 0:
        raise DataError(f"{name} must have a positive sum, got {total}")
    return array / total


def check_matrix_stack(
    stack: np.ndarray,
    name: str = "stack",
) -> np.ndarray:
    """Validate that ``stack`` is a ``(B, n, n)`` array of square matrices
    and return it as C-contiguous float64.  Shared by every batched entry
    point (stacked operators, batched metrics, batched linear algebra) so
    malformed stacks raise one exception type everywhere.

    The contiguity canonicalisation matters for determinism, not just speed:
    BLAS contractions round differently depending on operand memory layout,
    so the kernels (:mod:`repro.backend`) are only bit-exact against their
    ``oracles`` references when every caller hands them the same layout.  For the
    engine's own stacks this is a no-op (they are already contiguous)."""
    array = np.ascontiguousarray(stack, dtype=np.float64)
    if array.ndim != 3 or array.shape[-1] != array.shape[-2]:
        raise ValidationError(
            f"{name} must be a (B, n, n) stack of square matrices, got shape {array.shape}"
        )
    return array


def check_square_matrix(
    matrix: Sequence[Sequence[float]] | np.ndarray,
    name: str = "matrix",
) -> np.ndarray:
    """Validate that ``matrix`` is a square 2-D array and return it."""
    array = np.asarray(matrix, dtype=np.float64)
    if array.ndim != 2 or array.shape[0] != array.shape[1]:
        raise RRMatrixError(f"{name} must be a square 2-D matrix, got shape {array.shape}")
    if array.shape[0] == 0:
        raise RRMatrixError(f"{name} must not be empty")
    if not np.all(np.isfinite(array)):
        raise RRMatrixError(f"{name} must contain only finite values")
    return array


def check_stochastic_columns(
    matrix: Sequence[Sequence[float]] | np.ndarray,
    name: str = "matrix",
    *,
    atol: float = PROBABILITY_ATOL,
) -> np.ndarray:
    """Validate that ``matrix`` is square and column-stochastic.

    Each entry must lie in ``[0, 1]`` and every column must sum to one.  The
    validated matrix is returned with entries clipped to ``[0, 1]``.
    """
    array = check_square_matrix(matrix, name)
    if np.any(array < -atol) or np.any(array > 1.0 + atol):
        raise RRMatrixError(f"{name} entries must lie in [0, 1]")
    column_sums = array.sum(axis=0)
    if not np.allclose(column_sums, 1.0, atol=max(atol, 1e-6), rtol=0.0):
        raise RRMatrixError(
            f"{name} columns must each sum to 1, got sums {column_sums.tolist()}"
        )
    return np.clip(array, 0.0, 1.0)
