"""The seven (B, n, n) hot kernels of the optimizer and the disguise runtime.

The optimizer's inner loop is dominated by dense linear algebra over stacks
of randomization matrices.  Everything that touches a ``(B, n, n)`` stack in
the hot path is a method of :class:`ArrayKernels`, whose single instance
lives in :mod:`repro.backend`.  Two contracts hold for every kernel:

* **RNG-free.**  No kernel draws randomness.  Random values (crossover cuts,
  mutation indices/magnitudes/signs, disguise uniforms) are drawn by the
  callers in :mod:`repro.core.operators` and :mod:`repro.rr.randomize`, in a
  fixed order, and passed in as arrays.
* **Bit-exact against the frozen references.**  ``evaluate_stack``,
  ``batched_safe_inverses``, ``pairwise_distances``, ``repair_stack`` and
  ``disguise_codes`` reproduce the executable specifications in the root
  ``oracles`` package bit for bit; ``tests/backend/test_backend_equivalence.py`` enforces it, and the
  engine-equivalence suite runs whole trajectories with the oracle kernels
  substituted.

Kernels receive validated inputs: **C-contiguous** ``(B, n, n)`` float64
stacks (see :func:`repro.utils.validation.check_matrix_stack`) and matching
priors.  The layout guarantee matters because BLAS contractions round
differently for different operand layouts.
"""

from __future__ import annotations

import numpy as np

from repro.metrics.utility import theoretical_mse_batch
from repro.utils.linalg import one_norm_condition_estimate
from repro.utils.validation import check_probability_vector

#: Tiny value used to keep columns strictly positive where renormalisation
#: would otherwise divide by zero.  Must stay equal to the scalar operators'
#: ``oracles.rr._EPSILON``.
_EPSILON = 1e-12

#: Matrices per LAPACK call in :meth:`ArrayKernels.batched_safe_inverses`:
#: an exactly singular row sends only its own block down the screened path.
INVERSE_BLOCK_ROWS = 128


def _screened_inverses(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(inverses, candidates)`` of a stack holding an exactly singular row.

    Rows ``slogdet`` finds singular are left zero and masked out; the rest
    are inverted in one call (row by row should that still raise).
    """
    inverses = np.zeros_like(stack)
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
    return inverses, candidates


class ArrayKernels:
    """Batched-numpy kernels; :mod:`repro.backend` holds the one instance.

    Callers look kernels up on that instance at call time (``active_backend()
    .evaluate_stack(...)``), so a trace or a test can wrap or substitute a
    kernel by setting an attribute on it.
    """

    #: Name the instance is listed under by :func:`repro.backend.backend_names`.
    name = "numpy"

    def evaluate_stack(
        self,
        stack: np.ndarray,
        prior: np.ndarray,
        n_records: int,
        *,
        condition_limit: float,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Full-fidelity evaluation of a ``(B, n, n)`` stack.

        Returns ``(privacy, utility, worst_posterior, invertible)`` — the
        four ``(B,)`` columns of :class:`repro.metrics.evaluation.
        BatchEvaluation` before fidelity scaling and the delta-feasibility
        mask are applied by the caller.  Utility is ``inf`` for rows whose
        matrix is not numerically invertible.
        """
        prior = np.asarray(prior, dtype=np.float64)
        # One joint tensor serves both the adversary accuracy (Eq. 8) and the
        # posterior maximum (Eq. 9).
        joint = stack * prior[None, None, :]
        row_max = joint.max(axis=2)
        row_sum = joint.sum(axis=2)
        privacy = 1.0 - row_max.sum(axis=1)
        # Row-bound posterior: max_y (max_x joint[y, x]) / sum_x joint[y, x].
        # Division by a positive row sum is monotone, so this equals the
        # (B, n, n) posterior-tensor maximum bit for bit; zero-probability
        # reports contribute 0.
        safe = np.where(row_sum > 0, row_sum, 1.0)
        worst_posterior = np.where(row_sum > 0, row_max / safe, 0.0).max(axis=1)
        inverses, invertible = self.batched_safe_inverses(
            stack, condition_limit=condition_limit
        )
        utility = np.full(stack.shape[0], np.inf)
        if invertible.any():
            # Theorem-6 closed form over the full stack, not a fancy-indexed
            # subset copy: batched matmul handles each matrix independently,
            # so every invertible row equals the subset computation bit for
            # bit.  Rows of non-invertible matrices may overflow harmlessly;
            # they are masked out.  BLAS rounding depends on operand layout,
            # so the operands are normalised to C order (a no-op for the
            # engine's stacks).
            with np.errstate(over="ignore", invalid="ignore"):
                mse = theoretical_mse_batch(
                    np.ascontiguousarray(stack),
                    np.ascontiguousarray(inverses),
                    prior,
                    n_records,
                )
            utility[invertible] = mse[invertible].mean(axis=1)
        return privacy, utility, worst_posterior, invertible

    def batched_safe_inverses(
        self, stack: np.ndarray, *, condition_limit: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Invert every numerically invertible matrix in the stack.

        Returns ``(inverses, invertible)``; rows failing the shared 1-norm
        condition rule are masked out (callers must consult the mask before
        using a row).  The stack is inverted in blocks of
        :data:`INVERSE_BLOCK_ROWS` matrices, one LAPACK call per block; only
        a block whose call raises (some row is exactly singular) has its rows
        screened by ``slogdet`` and re-inverted, and its singular rows are
        zero.  Batched ``getrf/getri`` factorises each matrix independently,
        so every path gives the same inverses bit for bit.
        """
        if stack.shape[0] == 0:
            return np.zeros_like(stack), np.zeros(0, dtype=bool)
        inverses = np.empty_like(stack)
        candidates = np.ones(stack.shape[0], dtype=bool)
        for start in range(0, stack.shape[0], INVERSE_BLOCK_ROWS):
            block = slice(start, start + INVERSE_BLOCK_ROWS)
            try:
                inverses[block] = np.linalg.inv(stack[block])
            except np.linalg.LinAlgError:
                inverses[block], candidates[block] = _screened_inverses(stack[block])
        condition_estimates = one_norm_condition_estimate(stack, inverses)
        invertible = (
            candidates
            & np.isfinite(condition_estimates)
            & (condition_estimates < condition_limit)
        )
        return inverses, invertible

    def pairwise_distances(self, points: np.ndarray) -> np.ndarray:
        """Euclidean distance matrix between the rows of ``(N, d) points``.

        The squared differences are accumulated one coordinate at a time,
        left to right, before the square root — the summation order of
        ``scipy.spatial.distance.pdist``, so the result matches it (and the
        in-order pure-Python oracle) bit for bit at every ``d``.
        """
        count = points.shape[0]
        squared = np.zeros((count, count))
        for coordinate in points.T:
            difference = coordinate[:, None] - coordinate[None, :]
            np.multiply(difference, difference, out=difference)
            squared += difference
        return np.sqrt(squared, out=squared)

    def crossover_columns(
        self, first: np.ndarray, second: np.ndarray, cuts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Column crossover of paired parents at pre-drawn boundaries.

        ``cuts[p]`` in ``1..n-1`` is the boundary for pair ``p``: columns
        ``cuts[p]:`` are swapped between the parents.  Both children are
        returned as fresh stacks.
        """
        n = first.shape[-1]
        swap = (np.arange(n)[None, :] >= cuts[:, None])[:, None, :]  # (P, 1, n)
        child_a = np.where(swap, second, first)
        child_b = np.where(swap, first, second)
        return child_a, child_b

    def mutate_stack(
        self,
        stack: np.ndarray,
        column_indices: np.ndarray,
        element_indices: np.ndarray,
        magnitudes: np.ndarray,
        add: np.ndarray,
    ) -> np.ndarray:
        """Proportional column mutation with pre-drawn randomness.

        Applies the paper's Section V-F mutation — perturb one element of
        one column and rescale the rest proportionally, with the scalar
        specification's saturation-flip and undo rules — to every matrix of
        the stack.
        """
        batch_size = stack.shape[0]
        rows = np.arange(batch_size)
        columns = stack[rows, :, column_indices]  # (B, n) copies via fancy indexing
        element_values = columns[rows, element_indices]
        delta = np.where(
            add,
            np.minimum(magnitudes, 1.0 - element_values),
            -np.minimum(magnitudes, element_values),
        )
        # The element is already saturated in the chosen direction; flip it
        # (same rule as the scalar operator).
        saturated = np.abs(delta) <= _EPSILON
        flip_add = np.minimum(magnitudes, 1.0 - element_values)
        flip_sub = -np.minimum(magnitudes, element_values)
        flipped = np.where(flip_add != 0.0, flip_add, flip_sub)
        delta = np.where(saturated, np.where(delta != 0.0, -delta, flipped), delta)
        unchanged = np.abs(delta) <= _EPSILON
        mutated_columns = self._rebalance_columns(columns, element_indices, delta)
        mutated_columns[unchanged] = columns[unchanged]
        result = stack.copy()
        result[rows, :, column_indices] = mutated_columns
        return result

    @staticmethod
    def _rebalance_columns(
        columns: np.ndarray, changed: np.ndarray, delta: np.ndarray
    ) -> np.ndarray:
        """Batched column rebalancing: apply ``delta[b]`` to
        ``columns[b, changed[b]]`` and redistribute ``-delta[b]`` over the
        other entries of each column, with the scalar undo/clip/renormalise
        rules."""
        batch_size, n = columns.shape
        rows = np.arange(batch_size)
        cols = columns.copy()
        cols[rows, changed] = cols[rows, changed] + delta
        others = np.ones((batch_size, n), dtype=bool)
        others[rows, changed] = False
        positive = delta > 0
        weights = np.where(others, cols, 0.0)
        total_weight = weights.sum(axis=1)
        headroom = np.where(others, 1.0 - cols, 0.0)
        total_headroom = headroom.sum(axis=1)
        # Undo rows: nothing to take from / add to, so the change is reverted
        # (including the same add-then-subtract rounding as the scalar code).
        undo = (positive & (total_weight <= _EPSILON)) | (
            ~positive & (total_headroom <= _EPSILON)
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            subtract = (
                delta[:, None]
                * weights
                / np.where(total_weight > 0, total_weight, 1.0)[:, None]
            )
            add = (
                (-delta)[:, None]
                * headroom
                / np.where(total_headroom > 0, total_headroom, 1.0)[:, None]
            )
        adjusted = cols + np.where(positive[:, None], -subtract, add)
        adjusted = np.clip(adjusted, 0.0, 1.0)
        sums = adjusted.sum(axis=1)
        degenerate = sums <= 0
        result = np.where(
            degenerate[:, None],
            1.0 / n,
            adjusted / np.where(degenerate, 1.0, sums)[:, None],
        )
        if undo.any():
            reverted = cols.copy()
            reverted[rows, changed] = reverted[rows, changed] - delta
            result[undo] = reverted[undo]
        return result

    def repair_stack(
        self,
        stack: np.ndarray,
        prior: np.ndarray,
        delta: float,
        *,
        max_passes: int,
        tolerance: float,
    ) -> np.ndarray:
        """Privacy-bound repair (Section V-G) of every matrix in the stack.

        Fully deterministic: each matrix follows the scalar specification's
        trajectory (worst violating posterior cell relaxed per pass, best
        visited state returned), bit for bit as the frozen posterior-tensor
        form ``oracles.kernels.reference_repair_stack``.

        Only the rows still repairing are kept, compacted in stack order with
        their joint ``values * prior``.  Each pass reads the worst posterior
        off the ``(A, n)`` row maxima and sums of the joint (as
        :meth:`evaluate_stack` does), finds the worst cell as the first
        report row attaining it and the first column of that row's
        posteriors (the tensor's flat argmax), and after a column update
        refreshes only that column of the joint: no posterior tensor is
        built.
        """
        batch_size = stack.shape[0]
        if batch_size == 0:
            return stack.copy()
        # The posterior side uses the validated (clipped) prior, as
        # ``posterior_tensor`` does; the target arithmetic uses it as given.
        joint_prior = check_probability_vector(prior, "prior")
        best = stack.copy()
        best_worst = np.full(batch_size, np.inf)
        rows = np.arange(batch_size)  # stack index of each working row
        values = stack
        joint = stack * joint_prior
        # A row's best visited state is copied into ``best`` only when the
        # row stops improving (then it is the state before the last column
        # update: the current values with column ``last_j`` restored from
        # ``last_column``) or leaves the working set, not on every improving
        # pass.  ``current[r]``: row ``r``'s best state is its current one
        # and is not in ``best`` yet.  Before the first update ``best``
        # already holds every current state.
        current = np.zeros(batch_size, dtype=bool)
        last_j = last_column = None
        for pass_index in range(max_passes + 1):
            row_max = joint.max(axis=2)
            row_sum = joint.sum(axis=2)
            # Zero-probability reports bound nothing (posterior 0).
            bound = np.divide(
                row_max, row_sum, out=np.zeros_like(row_max), where=row_sum > 0
            )
            worst = bound.max(axis=1)
            improved = worst < best_worst[rows]
            best_worst[rows[improved]] = worst[improved]
            if pass_index:
                stale = np.flatnonzero(current & ~improved)
                if stale.size:
                    best[rows[stale]] = values[stale]
                    best[rows[stale], :, last_j[stale]] = last_column[stale]
                current = improved
            keep = ~(worst <= delta + tolerance)
            if pass_index == max_passes:
                keep[:] = False
            leaving = current & ~keep
            if leaving.any():
                best[rows[leaving]] = values[leaving]
            if not keep.any():
                break
            # The first pass always copies: ``values`` is still the input.
            if pass_index == 0 or not keep.all():
                rows, values, joint = rows[keep], values[keep], joint[keep]
                row_sum, bound, worst = row_sum[keep], bound[keep], worst[keep]
                current = current[keep]
            local = np.arange(rows.size)
            i = (bound == worst[:, None]).argmax(axis=1)
            j = (joint[local, i, :] / row_sum[local, i, None]).argmax(axis=1)
            row_values = values[local, i, :]  # (A, n)
            cell = values[local, i, j]
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
            columns = values[local, :, j]  # (A, n)
            last_j, last_column = j, columns.copy()
            columns[local, i] = target
            headroom = 1.0 - columns
            headroom[local, i] = 0.0
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
            if ok.any():
                apply = np.flatnonzero(ok)
                updated = new_columns[apply] / column_sums[apply, None]
                values[apply, :, j[apply]] = updated
                # Elementwise products are exact: the refreshed column equals
                # the one a full ``values * prior`` would give.
                joint[apply, :, j[apply]] = updated * joint_prior[j[apply], None]
            # Matrices that hit a scalar break condition freeze at their
            # current (already scored) state.
            if not ok.all():
                frozen = current & ~ok
                if frozen.any():
                    best[rows[frozen]] = values[frozen]
                rows, values, joint = rows[ok], values[ok], joint[ok]
                current, last_j, last_column = current[ok], j[ok], last_column[ok]
        return best

    def disguise_codes(
        self,
        probabilities: np.ndarray,
        codes: np.ndarray,
        uniforms: np.ndarray,
    ) -> np.ndarray:
        """Randomized-response disguise of ``(N,)`` integer codes.

        ``probabilities`` is the ``(n, n)`` column-stochastic RR matrix
        (``probabilities[j, i]`` = P(report ``j`` | true ``i``)); ``codes``
        holds validated int64 true categories in ``[0, n)``; ``uniforms``
        holds the caller's pre-drawn ``rng.random(N)`` values, in draw order.
        Returns the ``(N,)`` int64 disguised codes: inverse-CDF sampling
        against the column CDF, ``out[k] = sum(uniforms[k] > cdf[:,
        codes[k]])`` with the final CDF entry clamped to exactly ``1.0`` (the
        frozen ``oracles.rr.broadcast_disguise_reference``), with peak
        auxiliary allocation ``O(N + n^2)`` instead of its ``(n, N)``
        broadcast.
        """
        # Sort-and-group searchsorted: stable-argsort the codes (radix sort
        # for int64 — O(N)), gather the uniforms into category order once,
        # then binary-search each category's contiguous slice against its
        # column CDF.  ``side="left"`` counts the CDF entries strictly below
        # each uniform, which equals ``sum(u > cdf)`` bit for bit.
        n = probabilities.shape[0]
        cdf = np.cumsum(probabilities, axis=0)
        cdf[-1, :] = 1.0
        order = np.argsort(codes, kind="stable")
        sorted_uniforms = uniforms[order]
        boundaries = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(codes, minlength=n), out=boundaries[1:])
        sorted_out = np.empty(codes.size, dtype=np.int64)
        for category in range(n):
            begin, end = boundaries[category], boundaries[category + 1]
            if begin < end:
                sorted_out[begin:end] = np.searchsorted(
                    cdf[:, category], sorted_uniforms[begin:end], side="left"
                )
        disguised = np.empty(codes.size, dtype=np.int64)
        disguised[order] = sorted_out
        return disguised
