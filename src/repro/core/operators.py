"""RR-matrix variation operators (Sections V-E, V-F and V-G of the paper).

The operators move whole populations as ``(B, n, n)`` stacks of
column-stochastic matrices and preserve that constraint:

* **column crossover** — pick a random boundary between two columns and swap
  everything to its right between the two parents (Figure 3 in the paper);
* **proportional column mutation** — pick a column and an element, add or
  subtract a small random value, and rescale the remaining elements of the
  column proportionally (to their values when mass must be removed, to
  ``1 - value`` when mass must be added) so the column still sums to one;
* **privacy-bound repair** — shrink the matrix entries responsible for
  posteriors above ``delta`` and redistribute the removed mass within the
  same column, iterating until the worst posterior meets the bound (or a
  small iteration budget is exhausted).

Each operator draws its randomness here, in a fixed order, and hands the
pre-drawn arrays to the RNG-free kernels in :mod:`repro.backend`, so no
kernel can perturb the seeded RNG stream.
The original per-matrix implementations are kept outside the package, as
the specification the equivalence suites check these against.
"""

from __future__ import annotations

import numpy as np

from repro.backend import active_backend
from repro.exceptions import ValidationError
from repro.rr.matrix import RRMatrix, random_rr_matrix
from repro.types import SeedLike, as_rng
from repro.utils.validation import (
    check_in_unit_interval,
    check_matrix_stack,
    check_positive_int,
)


def column_crossover_batch(
    first: np.ndarray,
    second: np.ndarray,
    rng: SeedLike = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched column crossover: one random boundary per parent pair.

    ``first`` and ``second`` are ``(P, n, n)`` stacks of paired parents; both
    children of every pair are returned as stacks.  Whole columns are swapped,
    so the children stay column-stochastic by construction.
    """
    first = check_matrix_stack(first, "first")
    second = check_matrix_stack(second, "second")
    if first.shape != second.shape:
        raise ValidationError(
            f"parent stacks must have the same shape, got {first.shape} and {second.shape}"
        )
    n = first.shape[-1]
    if first.shape[0] == 0 or n < 2:
        return first.copy(), second.copy()
    generator = as_rng(rng)
    cuts = generator.integers(1, n, size=first.shape[0])
    return active_backend().crossover_columns(first, second, cuts)


def proportional_column_mutation_batch(
    stack: np.ndarray,
    rng: SeedLike = None,
    *,
    scale: float = 0.3,
) -> np.ndarray:
    """Batched proportional column mutation: one mutation per matrix.

    For every matrix in the ``(B, n, n)`` stack a random element of a random
    column is perturbed and the rest of the column is rescaled, exactly as in
    the paper's rule (including the saturation-flip rule); all draws happen
    here, the deterministic rebalancing runs as a kernel.
    """
    check_in_unit_interval(scale, "scale", inclusive_low=False)
    stack = check_matrix_stack(stack, "stack")
    batch_size, n, _ = stack.shape
    if batch_size == 0:
        return stack.copy()
    generator = as_rng(rng)
    column_indices = generator.integers(0, n, size=batch_size)
    element_indices = generator.integers(0, n, size=batch_size)
    magnitudes = generator.uniform(0.0, scale, size=batch_size)
    add = generator.integers(0, 2, size=batch_size).astype(bool)
    return active_backend().mutate_stack(
        stack, column_indices, element_indices, magnitudes, add
    )


def enforce_privacy_bound_batch(
    stack: np.ndarray,
    prior: np.ndarray,
    delta: float,
    *,
    max_passes: int = 50,
    tolerance: float = 1e-9,
) -> np.ndarray:
    """Repair a ``(B, n, n)`` stack so every ``max P(X | Y) <= delta``.

    Per pass the worst violating posterior cell of each matrix is relaxed
    towards ``delta`` and the removed mass is redistributed over the rest of
    its column proportionally to ``1 - value``.  A pass can overshoot (the
    posteriors of a column interact), so up to ``max_passes`` passes run and
    every matrix returns the best state it visited: the worst-case posterior
    never increases.  Matrices that cannot be repaired (e.g. ``delta <
    max P(X)``, impossible by Theorem 5) come back best-effort and the
    evaluator marks them infeasible.  The repair is fully deterministic and
    runs as a kernel.
    """
    check_in_unit_interval(delta, "delta", inclusive_low=False)
    check_positive_int(max_passes, "max_passes")
    prior = np.asarray(prior, dtype=np.float64)
    stack = check_matrix_stack(stack, "stack")
    return active_backend().repair_stack(
        stack, prior, delta, max_passes=max_passes, tolerance=tolerance
    )


def random_initial_matrix(
    n_categories: int,
    rng: SeedLike = None,
    *,
    kind: int = 0,
    diagonal_bias: float = 2.0,
) -> RRMatrix:
    """Generate one random initial matrix of the given ``kind``.

    Three kinds are mixed into the initial population so it spans the whole
    privacy/utility trade-off from the first generation:

    * ``kind % 3 == 0`` — plain flat-Dirichlet columns (moderate privacy);
    * ``kind % 3 == 1`` — diagonally biased columns (low privacy, low MSE,
      near the identity matrix);
    * ``kind % 3 == 2`` — a blend of the uniform matrix and Dirichlet noise
      (high privacy, near total randomization, but still invertible).
    """
    check_positive_int(n_categories, "n_categories")
    generator = as_rng(rng)
    mode = kind % 3
    if mode == 1 and diagonal_bias > 0:
        bias = float(generator.uniform(0.0, diagonal_bias * n_categories))
        return random_rr_matrix(n_categories, seed=generator, diagonal_bias=bias)
    if mode == 2:
        noise = generator.dirichlet(np.ones(n_categories), size=n_categories).T
        weight = float(generator.uniform(0.02, 0.5))
        blended = (1.0 - weight) * np.full((n_categories, n_categories), 1.0 / n_categories)
        blended = blended + weight * noise
        return RRMatrix(blended / blended.sum(axis=0, keepdims=True))
    return random_rr_matrix(n_categories, seed=generator)
