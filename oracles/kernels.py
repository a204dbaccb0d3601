"""Frozen reference forms of the evaluation, distance and repair kernels.

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
  Python sum per pair;
* :func:`reference_repair_stack` gathers the active rows and rebuilds their
  ``(A, n, n)`` posterior tensor on every repair pass, taking the worst cell
  as its flat argmax.

Their signatures match the kernel methods, so a test can substitute them on
the kernel instance (``monkeypatch.setattr(active_backend(), ...)``).
"""

from __future__ import annotations

import math

import numpy as np

from repro.metrics.privacy import joint_tensor, posterior_from_joint, posterior_tensor
from repro.metrics.utility import utility_score_batch
from repro.utils.linalg import one_norm_condition_estimate

#: Column-positivity floor of the repair; equal to
#: ``repro.backend.kernels._EPSILON`` and ``oracles.rr._EPSILON``.
_EPSILON = 1e-12


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


def reference_repair_stack(
    stack: np.ndarray,
    prior: np.ndarray,
    delta: float,
    *,
    max_passes: int,
    tolerance: float,
) -> np.ndarray:
    """Privacy-bound repair (Section V-G) through the posterior tensor.

    Each pass gathers the active rows (``values[index]``), rebuilds their
    ``(A, n, n)`` posterior tensor and takes the flat argmax as the worst
    cell; each matrix follows the scalar specification's trajectory (worst
    violating posterior cell relaxed per pass, best visited state returned).
    """
    values = stack.copy()
    batch_size, n, _ = values.shape
    if batch_size == 0:
        return values
    best = values.copy()
    best_worst = np.full(batch_size, np.inf)
    active = np.ones(batch_size, dtype=bool)
    for pass_index in range(max_passes + 1):
        index = np.flatnonzero(active)
        if index.size == 0:
            break
        posterior = posterior_tensor(values[index], prior)
        worst = posterior.reshape(index.size, -1).max(axis=1)
        improved = worst < best_worst[index]
        if improved.any():
            improved_index = index[improved]
            best[improved_index] = values[improved_index]
            best_worst[improved_index] = worst[improved]
        met = worst <= delta + tolerance
        active[index[met]] = False
        if pass_index == max_passes:
            break
        index = index[~met]
        if index.size == 0:
            continue
        posterior = posterior[~met]
        flat = posterior.reshape(index.size, -1).argmax(axis=1)
        i = flat // n
        j = flat % n
        local = np.arange(index.size)
        row_values = values[index, i, :]  # (A, n)
        cell = values[index, i, j]
        prior_j = prior[j]
        row_rest = row_values @ prior - cell * prior_j
        ok = prior_j > _EPSILON
        if delta < 1.0:
            with np.errstate(divide="ignore", invalid="ignore"):
                target = delta * row_rest / (prior_j * (1.0 - delta))
        else:
            target = cell.copy()
        target = np.clip(target, 0.0, cell)
        removed = cell - target
        ok &= removed > _EPSILON
        columns = values[index, :, j]  # (A, n)
        columns[local, i] = target
        others = np.ones((index.size, n), dtype=bool)
        others[local, i] = False
        headroom = np.where(others, 1.0 - columns, 0.0)
        total_headroom = headroom.sum(axis=1)
        ok &= total_headroom > _EPSILON
        with np.errstate(divide="ignore", invalid="ignore"):
            spread = (
                removed[:, None]
                * headroom
                / np.where(total_headroom > 0, total_headroom, 1.0)[:, None]
            )
        new_columns = np.clip(columns + spread, 0.0, 1.0)
        column_sums = new_columns.sum(axis=1)
        ok &= column_sums > 0
        # Matrices that hit a scalar break condition freeze at their
        # current (already scored) state.
        active[index[~ok]] = False
        if ok.any():
            apply = np.flatnonzero(ok)
            values[index[apply], :, j[apply]] = (
                new_columns[apply] / column_sums[apply, None]
            )
    return best
