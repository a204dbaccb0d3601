"""Frozen reference forms of the evaluation and distance kernels.

:mod:`repro.backend.kernels` computes these quantities with the faster of
two bit-identical formulations; the functions here keep the plainer one, as
the specification the equivalence suite and ``benchmarks/bench_backend.py``
compare the production kernels against:

* :func:`reference_evaluate_stack` materialises the ``(B, n, n)`` posterior
  tensor and computes the Theorem-6 utility on fancy-indexed copies of the
  invertible rows only;
* :func:`reference_batched_safe_inverses` screens every row with ``slogdet``
  and inverts only the clean subset;
* :func:`reference_pairwise_distances` is ``math.sqrt`` of an in-order
  Python sum per pair.

Their signatures match the kernel methods, so a test can substitute them on
the kernel instance (``monkeypatch.setattr(active_backend(), ...)``).
"""

from __future__ import annotations

import math

import numpy as np

from repro.metrics.privacy import joint_tensor, posterior_from_joint
from repro.metrics.utility import utility_score_batch
from repro.utils.linalg import one_norm_condition_estimate


def reference_batched_safe_inverses(
    stack: np.ndarray, *, condition_limit: float
) -> tuple[np.ndarray, np.ndarray]:
    """Slogdet-screened subset inversion plus the 1-norm condition rule."""
    inverses = np.zeros_like(stack)
    if stack.shape[0] == 0:
        return inverses, np.zeros(0, dtype=bool)
    signs, log_determinants = np.linalg.slogdet(stack)
    candidates = (signs != 0) & np.isfinite(log_determinants)
    if candidates.any():
        try:
            inverses[candidates] = np.linalg.inv(stack[candidates])
        except np.linalg.LinAlgError:  # pragma: no cover - slogdet said fine
            for index in np.flatnonzero(candidates):
                try:
                    inverses[index] = np.linalg.inv(stack[index])
                except np.linalg.LinAlgError:
                    candidates[index] = False
                    inverses[index] = 0.0
    condition_estimates = one_norm_condition_estimate(stack, inverses)
    invertible = (
        candidates
        & np.isfinite(condition_estimates)
        & (condition_estimates < condition_limit)
    )
    return inverses, invertible


def reference_evaluate_stack(
    stack: np.ndarray,
    prior: np.ndarray,
    n_records: int,
    *,
    condition_limit: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(privacy, utility, worst_posterior, invertible)`` through the
    posterior tensor and subset copies."""
    joint = joint_tensor(stack, prior)
    privacy = 1.0 - joint.max(axis=2).sum(axis=1)
    worst_posterior = posterior_from_joint(joint).max(axis=(1, 2))
    inverses, invertible = reference_batched_safe_inverses(
        stack, condition_limit=condition_limit
    )
    utility = np.full(stack.shape[0], np.inf)
    if invertible.any():
        utility[invertible] = utility_score_batch(
            stack[invertible], inverses[invertible], prior, n_records
        )
    return privacy, utility, worst_posterior, invertible


def reference_pairwise_distances(points: np.ndarray) -> np.ndarray:
    """Euclidean distances, each ``math.sqrt`` of a left-to-right sum of the
    squared coordinate differences."""
    rows = np.asarray(points, dtype=np.float64).tolist()
    distances = np.zeros((len(rows), len(rows)))
    for i, first in enumerate(rows):
        for j, second in enumerate(rows):
            total = 0.0
            for a, b in zip(first, second):
                total += (a - b) * (a - b)
            distances[i, j] = math.sqrt(total)
    return distances
