"""Frozen per-matrix specifications of the RR kernels.

Each function here is the original scalar (or broadcast) implementation of
something the batched kernels now compute for whole stacks: the paper's
column crossover, proportional column mutation and privacy-bound repair
(Sections V-E to V-G), the per-matrix privacy/utility evaluation, the
``(n, N)`` broadcast disguise, and the per-token ``optrr disguise`` code
stream reader and per-code writer.  The equivalence suites and the benchmarks
compare the batch path against them.  They never run on a hot path, and
must never change: a fix that moves their output is a change to the
contract every fixed-seed trajectory and cache key depends on.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DataError, SingularMatrixError, ValidationError
from repro.metrics.evaluation import MatrixEvaluation, MatrixEvaluator
from repro.metrics.privacy import max_posterior, posterior_matrix, privacy_score
from repro.metrics.utility import utility_score
from repro.rr.matrix import RRMatrix
from repro.types import SeedLike, as_rng
from repro.utils.validation import check_in_unit_interval, check_positive_int

#: Tiny value used to keep columns strictly positive where renormalisation
#: would otherwise divide by zero.
_EPSILON = 1e-12


def column_crossover(
    first: RRMatrix,
    second: RRMatrix,
    rng: SeedLike = None,
) -> tuple[RRMatrix, RRMatrix]:
    """Swap the columns to the right of a random boundary between two parents.

    Because whole columns are exchanged, both children remain
    column-stochastic by construction.
    """
    if first.n_categories != second.n_categories:
        raise ValidationError("parents must have the same domain size")
    n = first.n_categories
    generator = as_rng(rng)
    # A boundary after column `cut` (1 .. n-1); swapping after column n would
    # be a no-op and after column 0 would swap everything (also allowed by the
    # paper's figure, but it just exchanges the parents), so we restrict to
    # boundaries that actually mix genetic material.
    if n < 2:
        return first, second
    cut = int(generator.integers(1, n))
    child_a = first.as_array()
    child_b = second.as_array()
    child_a[:, cut:], child_b[:, cut:] = child_b[:, cut:].copy(), child_a[:, cut:].copy()
    return RRMatrix(child_a), RRMatrix(child_b)


def _rebalance_column(column: np.ndarray, changed: int, delta: float) -> np.ndarray:
    """Apply ``delta`` to ``column[changed]`` and redistribute ``-delta`` over
    the remaining entries, proportionally to their values when removing mass
    and proportionally to ``1 - value`` when adding mass.

    This is the paper's mutation rebalancing rule; it keeps every entry in
    ``[0, 1]`` and the column sum at one.
    """
    column = column.astype(np.float64).copy()
    n = column.size
    others = np.arange(n) != changed
    column[changed] = column[changed] + delta
    if delta > 0:
        # Mass was added to the changed element: remove `delta` from the other
        # elements proportionally to their current values.
        weights = column[others]
        total = weights.sum()
        if total <= _EPSILON:
            # Nothing to take from; undo the change.
            column[changed] -= delta
            return column
        column[others] = weights - delta * (weights / total)
    else:
        # Mass was removed from the changed element: add `-delta` to the other
        # elements proportionally to (1 - value).
        headroom = 1.0 - column[others]
        total = headroom.sum()
        if total <= _EPSILON:
            column[changed] -= delta
            return column
        column[others] = column[others] + (-delta) * (headroom / total)
    column = np.clip(column, 0.0, 1.0)
    column_sum = column.sum()
    if column_sum <= 0:
        return np.full(n, 1.0 / n)
    return column / column_sum


def proportional_column_mutation(
    matrix: RRMatrix,
    rng: SeedLike = None,
    *,
    scale: float = 0.3,
) -> RRMatrix:
    """Mutate one column of ``matrix`` as described in Section V-F.

    A random element of a random column is perturbed by a random amount in
    ``(0, scale]`` (added or subtracted, clipped so the element stays in
    ``[0, 1]``) and the rest of the column is rescaled proportionally.
    """
    check_in_unit_interval(scale, "scale", inclusive_low=False)
    generator = as_rng(rng)
    n = matrix.n_categories
    column_index = int(generator.integers(0, n))
    element_index = int(generator.integers(0, n))
    column = matrix.column(column_index)
    magnitude = float(generator.uniform(0.0, scale))
    add = bool(generator.integers(0, 2))
    if add:
        delta = min(magnitude, 1.0 - column[element_index])
    else:
        delta = -min(magnitude, column[element_index])
    if abs(delta) <= _EPSILON:
        # The element is already saturated in the chosen direction; flip it.
        delta = -delta if delta != 0 else (
            min(magnitude, 1.0 - column[element_index])
            or -min(magnitude, column[element_index])
        )
        if abs(delta) <= _EPSILON:
            return matrix
    mutated_column = _rebalance_column(column, element_index, delta)
    return matrix.replace_column(column_index, mutated_column)


def enforce_privacy_bound(
    matrix: RRMatrix,
    prior: np.ndarray,
    delta: float,
    *,
    max_passes: int = 50,
    tolerance: float = 1e-9,
) -> RRMatrix:
    """Repair ``matrix`` so that ``max P(X | Y) <= delta`` (Section V-G).

    For every posterior ``P(X = c_j | Y = c_i)`` above the bound, the entry
    ``theta[i, j]`` is reduced towards the value that makes the posterior
    exactly ``delta`` and the removed mass is redistributed over the other
    entries of column ``j`` proportionally to ``1 - value``.  Because the
    posteriors of a column interact (shrinking ``theta[i, j]`` shrinks row
    ``i``'s normaliser, which *raises* the other posteriors of that report,
    and the redistributed mass raises posteriors elsewhere in column ``j``),
    a single pass can overshoot, so the procedure iterates up to
    ``max_passes`` times and returns the *best state seen* — the visited
    matrix with the smallest worst-case posterior, which is never worse than
    the input.  Matrices that cannot be repaired (e.g. when
    ``delta < max P(X)``, which Theorem 5 proves impossible to satisfy) are
    returned in their best-effort state and the evaluator marks them
    infeasible.
    """
    check_in_unit_interval(delta, "delta", inclusive_low=False)
    check_positive_int(max_passes, "max_passes")
    prior = np.asarray(prior, dtype=np.float64)
    values = matrix.as_array()
    n = matrix.n_categories
    best_values = values
    best_worst = np.inf
    for pass_index in range(max_passes + 1):
        posterior = posterior_matrix(values, prior)
        worst = float(posterior.max())
        if worst < best_worst:
            best_worst = worst
            best_values = values.copy()
        if worst <= delta + tolerance or pass_index == max_passes:
            break
        # Visit the worst violating (report i, original j) pair.
        report_index, original_index = np.unravel_index(np.argmax(posterior), posterior.shape)
        i, j = int(report_index), int(original_index)
        # Posterior(i, j) = theta[i, j] p_j / sum_l theta[i, l] p_l.
        # Solving Posterior = delta for theta[i, j] with the other entries of
        # row i fixed gives the target value below.
        row_rest = float(values[i, :] @ prior - values[i, j] * prior[j])
        if prior[j] <= _EPSILON:
            break
        target = delta * row_rest / (prior[j] * (1.0 - delta)) if delta < 1.0 else values[i, j]
        target = float(np.clip(target, 0.0, values[i, j]))
        removed = values[i, j] - target
        if removed <= _EPSILON:
            # Cannot reduce further (the prior alone already violates delta).
            break
        column = values[:, j].copy()
        column[i] = target
        others = np.arange(n) != i
        headroom = 1.0 - column[others]
        total_headroom = headroom.sum()
        if total_headroom <= _EPSILON:
            break
        column[others] = column[others] + removed * (headroom / total_headroom)
        column = np.clip(column, 0.0, 1.0)
        column_sum = column.sum()
        if column_sum <= 0:
            break
        values[:, j] = column / column_sum
    return RRMatrix(best_values)


def evaluate_scalar(evaluator: MatrixEvaluator, matrix: RRMatrix) -> MatrixEvaluation:
    """Reference per-matrix implementation (the pre-batch hot path).

    Kept verbatim so the equivalence property tests and
    ``benchmarks/bench_batch_eval.py`` can compare the vectorized engine
    against the original scalar computation.
    """
    if matrix.n_categories != evaluator.n_categories:
        raise ValidationError(
            f"matrix domain {matrix.n_categories} does not match the prior "
            f"domain {evaluator.n_categories}"
        )
    prior_vector = evaluator.prior.probabilities
    privacy = privacy_score(matrix, prior_vector)
    worst_posterior = max_posterior(matrix, prior_vector)
    try:
        utility = utility_score(matrix, prior_vector, evaluator.n_records)
        invertible = True
    except SingularMatrixError:
        utility = float("inf")
        invertible = False
    feasible = invertible
    if evaluator.delta is not None and worst_posterior > evaluator.delta + 1e-9:
        feasible = False
    return MatrixEvaluation(
        privacy=privacy,
        utility=utility,
        max_posterior=worst_posterior,
        feasible=feasible,
        invertible=invertible,
    )


def broadcast_disguise_reference(
    probabilities: np.ndarray, codes: np.ndarray, uniforms: np.ndarray
) -> np.ndarray:
    """The historical ``(n, N)`` broadcast disguise (frozen specification).

    Same signature and semantics as
    :meth:`repro.backend.kernels.ArrayKernels.disguise_codes`: for record ``k``
    with true code ``c``, count the column-CDF entries strictly below
    ``uniforms[k]`` — i.e. the first row ``j`` with ``cdf[j, c] >=
    uniforms[k]``.
    """
    cdf = np.cumsum(probabilities, axis=0)
    cdf[-1, :] = 1.0
    column_cdfs = cdf[:, codes]  # the (n, N) intermediate — reference only
    return (uniforms[None, :] > column_cdfs).sum(axis=0).astype(np.int64)


def iter_code_chunks_reference(stream, chunk_size: int):
    """The historical per-token ``optrr disguise`` reader (frozen
    specification of :func:`repro.rr.streaming.iter_code_chunks`).

    One ``int()`` per token, one ``chunk_size`` buffer at a time.  A token
    outside int64 is accepted here and only fails when its chunk is
    converted, with an ``OverflowError`` (the defect the array reader
    reports as a ``DataError`` naming the token).
    """
    buffer: list[int] = []
    for line in stream:
        for token in line.split():
            try:
                buffer.append(int(token))
            except ValueError as exc:
                raise DataError(f"input code {token!r} is not an integer") from exc
            if len(buffer) == chunk_size:
                yield np.asarray(buffer, dtype=np.int64)
                buffer = []
    if buffer:
        yield np.asarray(buffer, dtype=np.int64)


class CodeWriterReference:
    """The historical per-code ``optrr disguise`` writer (frozen
    specification of :class:`repro.rr.streaming.CodeWriter`)."""

    def __init__(self, stream, n_categories: int) -> None:
        self._stream = stream

    def write(self, codes: np.ndarray) -> None:
        self._stream.write("\n".join(map(str, codes.tolist())) + "\n")
